"""Per-layer metrics of the traced run.

Each workload's traced operation is recorded in its own window of
spans; every metric below is read from one window. The metric each one
should move, and on which workload:

* ``lqg.*`` -> solve_s on lqg-tol (and set-up time on rollout);
* ``gridpde.*``, ``core.*`` -> solve_s and verify_s on obstacle-budget;
* ``verify.*`` and ``gridpde.conditional_hamiltonian.*`` -> verify_s;
* ``sdesim.<law>.*`` -> mc_<law>_s on rollout;
* ``artifacts.write_paths.*`` -> export_s and out_mb on rollout;
  ``artifacts.write_control_table.*``/``write_field_slices`` -> solve_s on
  obstacle-budget; ``artifacts.write_gains`` -> solve_s on lqg-tol;
* ``cli.<command>.self_s``: the command's time minus its traced children.

``code.*`` is informational. A metric whose wrapped target no longer
exists is reported as null with the reason.
"""

from __future__ import annotations

import ast
import importlib
import inspect
from pathlib import Path

import numpy as np

from tracing import SpanWindow, Tracer

COUNT, SEC, RATIO = "count", "s", "ratio"


def _observe_minimize(tracer: Tracer, span: int, args, kwargs, result) -> None:
    u_prev = kwargs["u_prev"] if "u_prev" in kwargs else args[5]
    changed = int(np.count_nonzero(np.asarray(result) != np.asarray(u_prev)))
    tracer.observe("minimize", (span, changed, int(np.asarray(result).size)))


def _observe_density(tracer: Tracer, span: int, args, kwargs, result) -> None:
    defined = np.asarray(result[2])
    undefined = int(defined.size - np.count_nonzero(defined))
    tracer.observe("density", (span, undefined, int(defined.size)))


OBSERVERS = {
    "gridpde.minimize_conditional_hamiltonian": _observe_minimize,
    "gridpde.conditional_density": _observe_density,
}


class Metrics:
    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        self.values: dict = {}

    def put(self, name: str, unit: str, targets, compute) -> None:
        missing = [t for t in targets if t not in self.tracer.targets]
        if missing:
            reason = f"wrapped target {missing[0]} no longer exists"
            self.values[name] = {"value": None, "unit": unit, "reason": reason}
            return
        try:
            value = compute()
        except (KeyError, ZeroDivisionError) as exc:
            value, reason = None, f"not measured: {type(exc).__name__} {exc}"
        else:
            reason = None if value is not None else "not measured: an operation it needs failed"
        self.values[name] = {"value": value, "unit": unit}
        if reason:
            self.values[name]["reason"] = reason

    def calls(self, win: SpanWindow, target: str, name: str = "") -> None:
        self.put(name or f"{target}.calls", COUNT, [target], lambda: win.calls(target))

    def total(self, win: SpanWindow, target: str, name: str = "") -> None:
        self.put(name or f"{target}.s", SEC, [target], lambda: win.total(target))

    def self_time(self, win: SpanWindow, target: str, name: str = "") -> None:
        self.put(name or f"{target}.self_s", SEC, [target], lambda: win.self_time(target))


def _in_sweep(tracer: Tracer, spans) -> np.ndarray:
    """Which of the given spans were called directly from a fbsm_grid span."""
    parents = [tracer.parents[s] for s in spans]
    return np.array(
        [p >= 0 and tracer.names[p] == "gridpde.fbsm_grid" for p in parents], dtype=bool
    )


def _fraction(tracer: Tracer, key: str) -> float:
    rows = tracer.observed.get(key, [])
    if not rows:
        return 0.0
    arr = np.asarray(rows, dtype=np.int64)
    keep = _in_sweep(tracer, arr[:, 0])
    return float(arr[keep, 1].sum()) / float(max(arr[keep, 2].sum(), 1))


def _step_intervals_ms(win: SpanWindow) -> np.ndarray:
    """Intervals between consecutive build_generator calls within one sweep solve."""
    tracer = win.tracer
    idx = np.nonzero(win.names == "gridpde.build_generator")[0] + win.lo
    idx = idx[_in_sweep(tracer, idx)]
    parents = np.asarray([tracer.parents[i] for i in idx])
    starts = np.asarray([tracer.starts[i] for i in idx])
    same = parents[1:] == parents[:-1]
    return np.diff(starts)[same] * 1e3


def lqg_metrics(m: Metrics, win: SpanWindow, outcome: dict, budgets: dict) -> None:
    b = budgets
    fbsm = ["lqg.fbsm_lqg"]
    m.put("lqg.init_s", SEC, fbsm, lambda: b[0])
    m.put("lqg.pi_sweep_s", SEC, fbsm, lambda: b[1] - b[0])
    m.put("lqg.lambda_sweep_s", SEC, fbsm, lambda: b[2] - b[1])
    m.put("lqg.sweep_s", SEC, fbsm, lambda: (b[2] - b[0]) / 2.0)
    m.calls(win, "lqg.inference_gain")
    m.total(win, "lqg.inference_gain")
    m.put("lqg.report_s", SEC, fbsm, lambda: win.total("cli.run-lqg") - win.total("lqg.fbsm_lqg"))
    m.put("lqg.sweeps", COUNT, [], lambda: outcome.get("sweeps"))
    m.total(win, "artifacts.write_gains")
    m.put("cli.run_lqg.self_s", SEC, [], lambda: win.self_time("cli.run-lqg"))


def grid_metrics(m: Metrics, win: SpanWindow, outcome: dict) -> None:
    tracer = m.tracer
    for target in (
        "gridpde.build_generator",
        "gridpde.DiscreteGenerator.apply",
        "gridpde.DiscreteGenerator.apply_adjoint",
        "gridpde.minimize_conditional_hamiltonian",
        "gridpde.conditional_density",
        "gridpde.conditional_hamiltonian",
    ):
        m.calls(win, target)
        m.total(win, target)
    for target in ("gridpde.fp_step", "gridpde.hjb_step", "gridpde.fbsm_grid"):
        m.self_time(win, target)
    m.calls(win, "core.GridSpec.mesh", "core.mesh.calls")
    build = ["gridpde.build_generator"]
    steps = _step_intervals_ms(win) if build[0] in tracer.targets else np.zeros(0)
    pct = lambda q: float(np.percentile(steps, q)) if steps.size else None  # noqa: E731
    m.put("gridpde.step_ms.p50", "ms", build, lambda: pct(50))
    m.put("gridpde.step_ms.p99", "ms", build, lambda: pct(99))
    m.put("gridpde.step_ms.samples", COUNT, build, lambda: int(steps.size))
    m.put(
        "gridpde.minimize.changed_frac",
        RATIO,
        ["gridpde.minimize_conditional_hamiltonian"],
        lambda: _fraction(tracer, "minimize"),
    )
    m.put(
        "gridpde.undefined_frac",
        RATIO,
        ["gridpde.conditional_density"],
        lambda: _fraction(tracer, "density"),
    )
    m.put("gridpde.sweeps", COUNT, [], lambda: outcome.get("sweeps"))
    m.put(
        "verify.rerun_s",
        SEC,
        ["gridpde.fbsm_grid"],
        lambda: win.within("gridpde.fbsm_grid", "cli.verify"),
    )
    m.total(win, "verify.sweep_pmp_residual", "verify.pmp_s")
    m.total(win, "artifacts.read_control_table")
    write = "artifacts.write_control_table"
    m.total(win, write)
    m.put(
        f"{write}.rows_per_s",
        "1/s",
        [write],
        lambda: outcome["control_rows"] / win.total(write),
    )
    m.total(win, "artifacts.write_field_slices")
    m.put("cli.run_grid.self_s", SEC, [], lambda: win.self_time("cli.run-grid"))
    m.put("cli.verify.self_s", SEC, [], lambda: win.self_time("cli.verify"))


def sdesim_metrics(m: Metrics, tracer: Tracer, outcome: dict) -> None:
    windows = outcome.get("windows", {})
    sim = "sdesim.simulate_paths"
    for law in ("lqg", "grid"):
        win = SpanWindow(tracer, *windows.get(law, (0, 0)))
        mc = outcome.get("mc", {}).get(law, {})
        p = f"sdesim.{law}"
        m.total(win, sim, f"{p}.simulate_paths.s")
        m.put(f"{p}.control_eval.calls", COUNT, [], lambda w=win: w.calls("sdesim.control_eval"))
        m.put(f"{p}.control_eval.s", SEC, [], lambda w=win: w.total("sdesim.control_eval"))
        m.put(f"{p}.model_eval.s", SEC, [], lambda w=win: w.total("sdesim.model_eval"))
        m.self_time(win, sim, f"{p}.self_s")
        m.put(
            f"{p}.path_steps_per_s",
            "1/s",
            [sim],
            lambda w=win, mc=mc: mc["path_steps"] / w.total(sim),
        )
        m.total(win, "sdesim.estimate_objective", f"{p}.estimate_objective.s")
        m.put(f"{p}.clamped_frac", RATIO, [], lambda mc=mc: mc["clamped_frac"])
        m.put(f"{p}.valid_frac", RATIO, [], lambda mc=mc: mc["valid_frac"])
    win = SpanWindow(tracer, *windows.get("export", (0, 0)))
    write = "artifacts.write_paths"
    m.total(win, write)
    m.put(
        f"{write}.rows_per_s",
        "1/s",
        [write],
        lambda: outcome["export_rows"] / win.total(write),
    )
    m.put(
        f"{write}.bytes_per_row",
        "B",
        [write],
        lambda: outcome["paths_bytes"] / outcome["export_rows"],
    )
    m.put("cli.simulate.self_s", SEC, [], lambda: win.self_time("cli.simulate"))


def code_metrics(m: Metrics, src: Path) -> None:
    """Source lines (no blanks, comments or docstrings) and public names."""
    sloc = 0
    for path in sorted((src / "fbsweep").glob("*.py")):
        text = path.read_text()
        doc_lines = set()
        for node in ast.walk(ast.parse(text)):
            body = getattr(node, "body", None)
            first = body[0] if isinstance(body, list) and body else None
            if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant):
                if isinstance(first.value.value, str):
                    doc_lines.update(range(first.lineno, first.end_lineno + 1))
        for no, line in enumerate(text.splitlines(), start=1):
            stripped = line.strip()
            if stripped and not stripped.startswith("#") and no not in doc_lines:
                sloc += 1
    public = 0
    for path in sorted((src / "fbsweep").glob("*.py")):
        if path.stem.startswith("_"):
            continue
        mod = importlib.import_module(f"fbsweep.{path.stem}")
        public += sum(
            1
            for name, obj in vars(mod).items()
            if not name.startswith("_")
            and (inspect.isfunction(obj) or inspect.isclass(obj))
            and obj.__module__ == mod.__name__
        )
    m.put("code.sloc", COUNT, [], lambda: sloc)
    m.put("code.public_names", COUNT, [], lambda: public)
