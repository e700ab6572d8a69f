"""The benchmark's three workloads: inputs from a seed, set-up, one timed
operation, and the checks of its answers.

Inputs. Seed ``DEFAULT_SEED`` runs the bundled documents unchanged (config
seed 20240817). Any other seed draws, from ``numpy.random.default_rng``:

* lqg: each diagonal entry of ``lambda0`` scaled by 1 + U(-1%, +1%);
* obstacle: ``initial_cov`` scaled by 1 + U(-5%, +5%), the band edges
  ``inner`` shifted by U(-0.01, +0.01) and ``outer`` scaled by
  1 + U(-2%, +2%);
* both: the config ``seed``, which sets the Monte Carlo streams.

None of these touches the drift, the diffusion, the grid or the control
bound, so the code paths and the explicit stability margin stay those of
the bundled problems. The perturbations are small so that the work per
operation (for lqg-tol, the number of sweeps to the tolerance) stays
close to the bundled problem's.

Answers. At the default seed every operation is compared with
``reference.json``; at other seeds only invariants are checked (exit
codes, monotone descent, mass bookkeeping, verify's rerun agreement).
Each check that fails is returned as a one-line reason.
"""

from __future__ import annotations

import contextlib
import copy
import dataclasses
import io
import json
import shutil
import time
from pathlib import Path

import numpy as np

from fbsweep import artifacts, cli, config, lqg, sdesim

DEFAULT_SEED = 0
RTOL = 1e-9  # verify's ITERATION_MATCH_RTOL
MASS_DRIFT_LIMIT = 1e-12
NEGATIVE_MASS_LIMIT = 1e-6
STATIONARITY_CHECK = "stationarity residual within tolerance"
REFERENCE_FILE = Path(__file__).with_name("reference.json")
REFERENCE_CONTROL_FILE = Path(__file__).with_name("reference_control.npz")

# Sizes of the full benchmark and of the smoke check.
FULL = {
    "lqg_tol": 1e-3,
    "lqg_budget": 200,
    "grid_sweeps": 2,
    "mc_paths": 5_000,
    "export_paths": 150,
    "controller_lqg_sweeps": 1,
    "controller_grid_sweeps": 1,
    "controller_grid_shape": [51, 51],
}
SMOKE = dict(FULL, mc_paths=200, export_paths=10, controller_grid_shape=[21, 21])


def _rel_close(a: float, b: float) -> bool:
    return abs(float(a) - float(b)) <= RTOL * (1.0 + abs(float(b)))


def _history_mismatch(history, ref) -> str:
    history = np.asarray(history, dtype=float)
    if len(history) != len(ref):
        return f"{len(history)} objective values, reference has {len(ref)}"
    for k, (a, b) in enumerate(zip(history, ref)):
        if not _rel_close(a, b):
            return f"objective at k={k} is {a!r}, reference {b!r}"
    return ""


def _descends(history) -> bool:
    h = np.asarray(history, dtype=float)
    return bool(np.all(np.diff(h) <= 1e-8 * (1.0 + np.abs(h[:-1]))))


def _dir_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


def _fresh(path: Path) -> Path:
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def _write_doc(path: Path, doc: dict) -> str:
    path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    return str(path)


def run_cli(argv) -> int:
    """Run one fbsweep command in this process, keeping its stdout off ours."""
    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main([str(a) for a in argv])


def load_reference() -> dict:
    return json.loads(REFERENCE_FILE.read_text()) if REFERENCE_FILE.exists() else {}


# -- inputs -----------------------------------------------------------------
def bundled(name: str) -> dict:
    return json.loads(config.bundled_config_path(name).read_text())


def lqg_document(seed: int, smoke: bool) -> dict:
    doc = bundled("lqg")
    if seed != DEFAULT_SEED:
        rng = np.random.default_rng([seed, 1])
        lam = np.asarray(doc["lambda0"], dtype=float)
        lam[np.diag_indices_from(lam)] *= 1.0 + rng.uniform(-0.01, 0.01, len(lam))
        doc["lambda0"] = lam.tolist()
        doc["seed"] = int(rng.integers(1, 2**31))
    if smoke:
        doc["horizon"] = 1.0
    return doc


def obstacle_document(seed: int, smoke: bool) -> dict:
    doc = bundled("obstacle")
    if seed != DEFAULT_SEED:
        rng = np.random.default_rng([seed, 2])
        doc["initial_cov"] *= 1.0 + rng.uniform(-0.05, 0.05)
        doc["obstacle"]["inner"] += rng.uniform(-0.01, 0.01)
        doc["obstacle"]["outer"] *= 1.0 + rng.uniform(-0.02, 0.02)
        doc["seed"] = int(rng.integers(1, 2**31))
    if smoke:
        doc["domain"].update(shape=[21, 21], n_t=100)
    return doc


def _with_solver(doc: dict, **solver) -> dict:
    doc = copy.deepcopy(doc)
    doc["solver"] = dict(doc["solver"], **solver)
    return doc


def _warmup_lqg(doc: dict) -> dict:
    return _with_solver(dict(doc, horizon=0.5), max_iters=2, tol=0.0)


def _warmup_obstacle(doc: dict) -> dict:
    doc = _with_solver(doc, max_iters=2, tol=0.0)
    doc["domain"] = dict(doc["domain"], shape=[21, 21], n_t=100)
    return doc


# -- workloads --------------------------------------------------------------
class Workload:
    """One workload: ``setup`` may be repeated; ``operation`` is timed."""

    name = ""
    phases: tuple = ()

    def __init__(self, work: Path, seed: int, smoke: bool = False):
        self.work = work
        self.seed = seed
        self.smoke = smoke
        self.sizes = SMOKE if smoke else FULL
        at_default = seed == DEFAULT_SEED and not smoke
        self.reference = load_reference().get(self.name) if at_default else None
        self.tracer = None

    def _span(self, name: str):
        return self.tracer.span(name) if self.tracer is not None else contextlib.nullcontext()

    def _timed_cli(self, argv, phases: dict, phase: str) -> int:
        with self._span(f"cli.{argv[0]}"):
            t0 = time.perf_counter()
            code = run_cli(argv)
            phases[phase] = time.perf_counter() - t0
        return code


class LqgTol(Workload):
    """run-lqg on the bundled lqg document, to a tolerance."""

    name = "lqg-tol"
    phases = ("solve_s",)

    def setup(self) -> None:
        base = _fresh(self.work / "setup")
        doc = _with_solver(
            lqg_document(self.seed, self.smoke),
            tol=self.sizes["lqg_tol"],
            max_iters=self.sizes["lqg_budget"],
        )
        self.config = _write_doc(base / "lqg.json", doc)
        self.problem = config.parse_config(doc).lqg_problem
        warm = _write_doc(base / "warmup.json", _warmup_lqg(doc))
        run_cli(["run-lqg", "--config", warm, "--out", base / "warmup"])

    def operation(self) -> dict:
        out = _fresh(self.work / "op") / "lqg"
        phases: dict = {}
        argv = ["run-lqg", "--config", self.config, "--out", out]
        code = self._timed_cli(argv, phases, "solve_s")
        return {"phases": phases, "code": code, "out_bytes": _dir_bytes(out), "run_dir": out}

    def answers(self, outcome: dict) -> dict:
        run_dir = outcome["run_dir"]
        history = artifacts.read_iterations(run_dir)
        summary = artifacts.read_summary(run_dir)
        return {
            "history": history.tolist(),
            "objective": summary["objective"],
            "sweeps": summary["iterations"],
            "converged": summary["converged"],
        }

    def check(self, outcome: dict) -> list:
        if outcome["code"] != 0:
            return [f"run-lqg exited {outcome['code']}, expected 0 (converged)"]
        ans = outcome["answers"] = self.answers(outcome)
        outcome["sweeps"] = ans["sweeps"]
        bad = []
        if not ans["converged"]:
            bad.append("run-lqg did not converge")
        if not _descends(ans["history"]):
            bad.append("objective history is not monotone")
        ref = self.reference
        if ref:
            if ans["sweeps"] != ref["sweeps"]:
                bad.append(f"{ans['sweeps']} sweeps to tolerance, reference {ref['sweeps']}")
            if not _rel_close(ans["objective"], ref["objective"]):
                bad.append(f"final J {ans['objective']!r}, reference {ref['objective']!r}")
            why = _history_mismatch(ans["history"], ref["history"])
            if why:
                bad.append(why)
        return bad


class ObstacleBudget(Workload):
    """run-grid on the bundled obstacle document for a fixed budget, then verify."""

    name = "obstacle-budget"
    phases = ("solve_s", "verify_s")

    def setup(self) -> None:
        base = _fresh(self.work / "setup")
        doc = _with_solver(
            obstacle_document(self.seed, self.smoke), max_iters=self.sizes["grid_sweeps"], tol=0.0
        )
        self.config = _write_doc(base / "obstacle.json", doc)
        warm = _write_doc(base / "warmup.json", _warmup_obstacle(doc))
        run_cli(["run-grid", "--config", warm, "--out", base / "warmup"])
        run_cli(["verify", base / "warmup"])

    def operation(self) -> dict:
        out = _fresh(self.work / "op") / "obstacle"
        phases: dict = {}
        argv = ["run-grid", "--config", self.config, "--out", out]
        code = self._timed_cli(argv, phases, "solve_s")
        # Keep the stationarity report verify computes: verify.json holds
        # only four digits of it.
        reports = []
        bound = cli.sweep_pmp_residual

        def keep(*args, **kwargs):
            reports.append(bound(*args, **kwargs))
            return reports[-1]

        cli.sweep_pmp_residual = keep
        try:
            verify_code = self._timed_cli(["verify", out], phases, "verify_s")
        finally:
            cli.sweep_pmp_residual = bound
        return {
            "phases": phases,
            "code": code,
            "verify_code": verify_code,
            "pmp": reports[-1].weighted_max if reports else None,
            "out_bytes": _dir_bytes(out),
            "run_dir": out,
        }

    def answers(self, outcome: dict) -> dict:
        run_dir = outcome["run_dir"]
        summary = artifacts.read_summary(run_dir)
        verify_doc = artifacts.read_json(run_dir / "verify.json")
        control, _, _ = artifacts.read_control_table(run_dir)
        return {
            "history": artifacts.read_iterations(run_dir).tolist(),
            "max_mass_drift": summary["max_mass_drift"],
            "max_negative_mass": summary["max_negative_mass"],
            "failed_checks": [c["name"] for c in verify_doc["checks"] if not c["passed"]],
            "pmp_weighted_max": outcome["pmp"],
            "control": control,
        }

    def check(self, outcome: dict) -> list:
        if outcome["code"] != 0:
            return [f"run-grid exited {outcome['code']}, expected 0 (fixed budget)"]
        ans = outcome["answers"] = self.answers(outcome)
        outcome["sweeps"] = len(ans["history"]) - 1
        bad = []
        if not _descends(ans["history"]):
            bad.append("objective history is not monotone")
        if ans["max_mass_drift"] > MASS_DRIFT_LIMIT:
            bad.append(f"mass drift {ans['max_mass_drift']:.3e} > {MASS_DRIFT_LIMIT:.0e}")
        if ans["max_negative_mass"] > NEGATIVE_MASS_LIMIT:
            bad.append(
                f"pre-clamp negative mass {ans['max_negative_mass']:.3e} "
                f"> {NEGATIVE_MASS_LIMIT:.0e}"
            )
        # A short budget leaves the control non-stationary, so verify
        # should fail that one check (exit 1) and pass every other one.
        failed = ans["failed_checks"]
        expected = {0: [], 1: [STATIONARITY_CHECK]}.get(outcome["verify_code"])
        if expected is None or failed != expected:
            bad.append(f"verify exited {outcome['verify_code']} with failed checks {failed}")
        ref = self.reference
        if ref:
            if outcome["verify_code"] != ref["verify_code"]:
                bad.append(
                    f"verify exited {outcome['verify_code']}, reference {ref['verify_code']}"
                )
            pmp, ref_pmp = ans["pmp_weighted_max"], ref["pmp_weighted_max"]
            if pmp is None or not _rel_close(pmp, ref_pmp):
                bad.append(f"stationarity residual {pmp!r}, reference {ref_pmp!r}")
            why = _history_mismatch(ans["history"], ref["history"])
            if why:
                bad.append(why)
            ref_u = np.load(REFERENCE_CONTROL_FILE)["control"]
            u = ans["control"]
            if u.shape != ref_u.shape:
                bad.append(f"control table shape {u.shape}, reference {ref_u.shape}")
            else:
                dev = float(np.abs(u - ref_u).max())
                if dev > RTOL * (1.0 + float(np.abs(ref_u).max())):
                    bad.append(f"control table deviates from the reference by {dev:.3e}")
        return bad


class Rollout(Workload):
    """Monte Carlo under both solved control laws, then a simulate export.

    Set-up solves the lqg controller for 1 sweep and the grid controller
    for 1 sweep on a 51x51 grid (same box and time grid as the bundled
    obstacle document), and reads both back through ``artifacts.read_*``.
    """

    name = "rollout"
    phases = ("mc_lqg_s", "mc_grid_s", "export_s")

    def setup(self) -> None:
        base = _fresh(self.work / "setup")
        sizes = self.sizes
        lqg_doc = _with_solver(
            lqg_document(self.seed, self.smoke), max_iters=sizes["controller_lqg_sweeps"], tol=0.0
        )
        grid_doc = _with_solver(
            obstacle_document(self.seed, self.smoke),
            max_iters=sizes["controller_grid_sweeps"],
            tol=0.0,
        )
        # A coarser memory grid keeps set-up short; the simulated SDE, its
        # time grid and the per-step interpolation work are unchanged.
        grid_doc["domain"]["shape"] = sizes["controller_grid_shape"]
        self.grid_config = _write_doc(base / "obstacle.json", grid_doc)
        lqg_config = _write_doc(base / "lqg.json", lqg_doc)
        self.grid_controller = base / "obstacle"
        for argv in (
            ["run-lqg", "--config", lqg_config, "--out", base / "lqg"],
            ["run-grid", "--config", self.grid_config, "--out", self.grid_controller],
        ):
            code = run_cli(argv)
            if code != 0:
                raise RuntimeError(f"controller solve {argv[0]} exited {code}")
        lqg_cfg = config.parse_config(lqg_doc)
        problem = lqg_cfg.lqg_problem
        gains = artifacts.read_gains(base / "lqg", problem.d_x)
        grid_cfg = config.parse_config(grid_doc)
        values, grid, d_x = artifacts.read_control_table(self.grid_controller)
        self.laws = {
            "lqg": (lqg_cfg, lqg.LqgControlLaw(gains, problem), problem.horizon, problem.dt),
            "grid": (
                grid_cfg,
                sdesim.GridControlLaw(values, grid, d_x),
                grid_cfg.grid.horizon,
                grid_cfg.grid.dt,
            ),
        }
        for law in self.laws:
            self._monte_carlo(law, 16)

    def _monte_carlo(self, law: str, n_paths: int) -> dict:
        cfg, control, horizon, dt = self.laws[law]
        dynamics = config.simulation_dynamics(cfg)
        cost = config.simulation_cost(cfg)
        if self.tracer is not None:
            control = TracedLaw(control, self.tracer)
            dynamics, cost = traced_model(dynamics, cost, self.tracer)
        ens = sdesim.simulate_paths(dynamics, control, horizon, dt, n_paths, cfg.seed, cost=cost)
        mean, stderr = sdesim.estimate_objective(ens, cost)
        steps = ens.n_paths * (ens.times.size - 1)
        return {
            "mean": mean,
            "stderr": stderr,
            "clamped_frac": float(ens.clamp_counts.sum()) / steps,
            "valid_frac": float(ens.valid.mean()),
            "path_steps": steps,
        }

    def operation(self) -> dict:
        phases: dict = {}
        mc, windows = {}, {}
        for law in ("lqg", "grid"):
            lo = self.tracer.mark() if self.tracer else 0
            with self._span(f"bench.mc_{law}"):
                t0 = time.perf_counter()
                mc[law] = self._monte_carlo(law, self.sizes["mc_paths"])
                phases[f"mc_{law}_s"] = time.perf_counter() - t0
            windows[law] = (lo, self.tracer.mark() if self.tracer else 0)
        out = _fresh(self.work / "op") / "sim"
        lo = self.tracer.mark() if self.tracer else 0
        argv = ["simulate", "--config", self.grid_config, "--controller", self.grid_controller]
        argv += ["--out", out, "--paths", self.sizes["export_paths"]]
        code = self._timed_cli(argv, phases, "export_s")
        windows["export"] = (lo, self.tracer.mark() if self.tracer else 0)
        return {
            "phases": phases,
            "code": code,
            "mc": mc,
            "windows": windows,
            "out_bytes": _dir_bytes(out),
            "run_dir": out,
        }

    def answers(self, outcome: dict) -> dict:
        run_dir = outcome["run_dir"]
        with open(run_dir / artifacts.PATHS_FILE, "rb") as handle:
            rows = sum(1 for _ in handle) - 1
        obj = artifacts.read_json(run_dir / artifacts.OBJECTIVE_FILE)
        return {
            "mc": {
                law: {k: r[k] for k in ("mean", "stderr", "clamped_frac")}
                for law, r in outcome["mc"].items()
            },
            "export_rows": rows,
            "export_mean": obj["mean"],
            "export_stderr": obj["stderr"],
        }

    def check(self, outcome: dict) -> list:
        if outcome["code"] != 0:
            return [f"simulate exited {outcome['code']}, expected 0"]
        ans = outcome["answers"] = self.answers(outcome)
        bad = []
        for law, r in outcome["mc"].items():
            if not (np.isfinite(r["mean"]) and r["stderr"] > 0.0 and r["valid_frac"] == 1.0):
                bad.append(
                    f"{law} Monte Carlo: mean {r['mean']!r}, stderr {r['stderr']!r}, "
                    f"valid {r['valid_frac']}"
                )
        _, _, horizon, dt = self.laws["grid"]
        expected_rows = self.sizes["export_paths"] * (int(round(horizon / dt)) + 1)
        if ans["export_rows"] != expected_rows:
            bad.append(f"paths.csv has {ans['export_rows']} rows, expected {expected_rows}")
        ref = self.reference
        if ref:
            for law, r in ans["mc"].items():
                for key in ("mean", "stderr", "clamped_frac"):
                    expected = ref["mc"][law][key]
                    if not _rel_close(r[key], expected):
                        bad.append(f"{law} Monte Carlo {key} {r[key]!r}, reference {expected!r}")
            for key in ("export_mean", "export_stderr"):
                if not _rel_close(ans[key], ref[key]):
                    bad.append(f"simulate {key} {ans[key]!r}, reference {ref[key]!r}")
        return bad


class TracedLaw:
    """Control law whose evaluate_memory is timed; every other attribute,
    z_lower/z_upper included, is read through to the wrapped law, so
    simulate_paths still clamps exactly as it would without tracing."""

    def __init__(self, law, tracer):
        self._law = law
        self.evaluate_memory = tracer.wrap("sdesim.control_eval", law.evaluate_memory)

    def __getattr__(self, name):
        return getattr(self._law, name)


def traced_model(dynamics, cost, tracer):
    wrap = lambda fn: tracer.wrap("sdesim.model_eval", fn)  # noqa: E731
    dynamics = dataclasses.replace(
        dynamics, drift=wrap(dynamics.drift), diffusion=wrap(dynamics.diffusion)
    )
    cost = dataclasses.replace(
        cost, running_cost=wrap(cost.running_cost), terminal_cost=wrap(cost.terminal_cost)
    )
    return dynamics, cost


WORKLOADS = {cls.name: cls for cls in (LqgTol, ObstacleBudget, Rollout)}
