"""fbsweep benchmark: time to solution of both sweep backends, verify, and
Monte Carlo rollout, plus a traced per-layer run.

Usage, from the root of a checkout:

    python3 bench/run.py --workload lqg-tol --seed 0 --seconds 12 --trace 0
    python3 bench/run.py --workload all          # every workload, one process each
    python3 bench/run.py --smoke                 # tiny sizes, a few seconds
    python3 bench/run.py --record-reference      # rewrite reference.json (seed 0)

Workloads (see workloads.py for the inputs each seed generates):

* lqg-tol: ``run-lqg`` on the bundled lqg document to tol 1e-3;
* obstacle-budget: ``run-grid`` on the bundled obstacle document for a
  2-sweep budget with tol 0, then ``verify`` of that run directory;
* rollout: set-up solves both controllers; the operation is Monte Carlo
  at 5000 paths under each law, then ``simulate`` at 150 paths.

With ``--trace 0`` the run repeats its set-up ``SETUP_REPEATS`` times,
then repeats its operation for ``--seconds`` (at least ``MIN_OPERATIONS``
times), checks every answer, and reports these end-to-end metrics:

* setup_s: median of one set-up, which is importing fbsweep in a fresh
  interpreter, writing the input documents and a warm-up run on a tiny
  problem (rollout: solving both controllers and reading them back);
* op_s: median wall time of one operation (lqg-tol: run-lqg;
  obstacle-budget: run-grid plus verify; rollout: both Monte Carlo runs
  plus simulate);
* peak_rss_mb: the process's memory high-water mark;
* out_mb: median bytes written to run directories per operation.

The time of each phase (solve_s, verify_s, mc_lqg_s, mc_grid_s,
export_s), the sweep count and fail_frac are printed above the result.
They are not in the result because not every workload has them; failed
operations are counted in its ``failed`` field.

With ``--trace 1`` it sets up all three workloads, then runs every
workload's operation once with fbsweep's public functions wrapped
(tracing.py), reports the per-layer metrics (layers.py), and reports
the tracing overhead as the named workload's traced operation minus an
untraced one run just before it.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics. The process uses one thread:
BLAS thread pools are capped at 1 before numpy is imported. Run
directories live under ``.bench_work/`` and are removed at exit; the
traced run leaves its spans in ``.bench_work/trace/``.
"""

from __future__ import annotations

import os

THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
WORKLOAD_NAMES = ("lqg-tol", "obstacle-budget", "rollout")
SETUP_REPEATS = 3
MIN_OPERATIONS = 2
LQG_BUDGETS = (0, 1, 2)
BUDGET_REPEATS = 3
END_TO_END_UNITS = {"setup_s": "s", "op_s": "s", "peak_rss_mb": "MB", "out_mb": "MB"}


def _say(text: str) -> None:
    print(text, flush=True)


def provenance() -> dict:
    import numpy
    import scipy

    caches = {}
    for key in ("LEVEL1_DCACHE_SIZE", "LEVEL2_CACHE_SIZE", "LEVEL3_CACHE_SIZE"):
        try:
            probe = subprocess.run(
                ["getconf", key], stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True
            )
        except OSError:
            break
        caches[key] = probe.stdout.strip() or None
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "thread_caps": {var: os.environ.get(var) for var in THREAD_VARS},
        "caches": caches,
    }


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _median(values) -> float:
    return float(statistics.median(values))


def _describe(name: str, values, unit: str) -> str:
    return (
        f"{name} = {_median(values):.6g} {unit} (median of n={len(values)}, "
        f"min {min(values):.6g}, max {max(values):.6g})"
    )


def _run_operation(wl, failures: list) -> dict:
    t0 = time.perf_counter()
    try:
        outcome = wl.operation()
        reasons = wl.check(outcome)
    except Exception as exc:  # a failed operation is counted, not fatal
        outcome = {"phases": {"error_s": time.perf_counter() - t0}, "out_bytes": 0}
        reasons = [f"{type(exc).__name__}: {exc}"]
    for reason in reasons:
        _say(f"FAILED {wl.name}: {reason}")
    failures.append(bool(reasons))
    return outcome


IMPORT_PROBE = (
    "import time; t0 = time.perf_counter(); import fbsweep.cli; "
    "print(time.perf_counter() - t0)"
)


def import_seconds() -> float:
    """Seconds to import fbsweep (with numpy and scipy) in a fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    probe = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE], env=env, stdout=subprocess.PIPE, text=True, check=True
    )
    return float(probe.stdout.strip().splitlines()[-1])


def run_untraced(name: str, seed: int, seconds: float, smoke: bool, work: Path) -> dict:
    import workloads

    wl = workloads.WORKLOADS[name](work, seed, smoke)
    setups, imports = [], []
    for _ in range(SETUP_REPEATS):
        imports.append(import_seconds())
        t0 = time.perf_counter()
        wl.setup()
        setups.append(imports[-1] + time.perf_counter() - t0)

    failures: list = []
    outcomes = []
    start = time.perf_counter()
    while len(outcomes) < MIN_OPERATIONS or time.perf_counter() - start < seconds:
        outcomes.append(_run_operation(wl, failures))

    op_times = [sum(o["phases"].values()) for o in outcomes]
    out_mb = [o["out_bytes"] / 1e6 for o in outcomes]
    elapsed = time.perf_counter() - start
    _say(f"workload {name}, seed {seed}: {len(outcomes)} operations in {elapsed:.1f} s")
    _say(_describe("setup_s", setups, "s") + f", of which import {_median(imports):.3f} s")
    _say(_describe("op_s", op_times, "s"))
    for phase in wl.phases:
        values = [o["phases"][phase] for o in outcomes if phase in o["phases"]]
        if values:
            _say(_describe(phase, values, "s"))
    sweeps = [o["sweeps"] for o in outcomes if "sweeps" in o]
    if sweeps:
        _say(_describe("sweeps", sweeps, "count"))
    _say(_describe("out_mb", out_mb, "MB"))
    peak = _peak_rss_mb()
    _say(f"peak_rss_mb = {peak:.6g} MB (process high-water mark)")
    _say(f"fail_frac = {sum(failures)}/{len(failures)} = {sum(failures) / len(failures):.6g} ratio")
    metrics = {
        "setup_s": _median(setups),
        "op_s": _median(op_times),
        "peak_rss_mb": peak,
        "out_mb": _median(out_mb),
    }
    return {
        "correct": not any(failures),
        "attempted": len(failures),
        "failed": sum(failures),
        "metrics": {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in metrics.items()},
    }


def _lqg_budgets(problem, method: str) -> dict:
    """Median seconds of fbsm_lqg at sweep budgets 0, 1 and 2."""
    from fbsweep import lqg

    solve = getattr(lqg, "fbsm_lqg", None)
    if solve is None:
        return {}
    times = {}
    for budget in LQG_BUDGETS:
        samples = []
        for _ in range(BUDGET_REPEATS):
            t0 = time.perf_counter()
            solve(problem, max_iters=budget, tol=0.0, method=method)
            samples.append(time.perf_counter() - t0)
        times[budget] = _median(samples)
    return times


def run_traced(name: str, seed: int, smoke: bool, work: Path) -> dict:
    import layers
    import workloads
    from tracing import SpanWindow, Tracer

    wls = {n: workloads.WORKLOADS[n](work / n, seed, smoke) for n in WORKLOAD_NAMES}
    for wl in wls.values():
        wl.setup()

    failures: list = []
    budgets = _lqg_budgets(wls["lqg-tol"].problem, "rk4")
    tracer = Tracer()
    outcomes, windows, traced_ok = {}, {}, {}
    for n, wl in wls.items():
        if n == name:
            # Untraced twin, run just before the traced operation it is compared with.
            untraced = _run_operation(wl, failures)
            untraced_ok = not failures[-1]
        tracer.install(layers.OBSERVERS)
        wl.tracer = tracer
        lo = tracer.mark()
        try:
            with tracer.span(f"bench.{n}"):
                outcomes[n] = wl.operation()
            reasons = wl.check(outcomes[n])
        except Exception as exc:  # reported; its layer metrics become null
            outcomes[n] = {"phases": {}}
            reasons = [f"{type(exc).__name__}: {exc}"]
        finally:
            tracer.uninstall()
            wl.tracer = None
        windows[n] = (lo, tracer.mark())
        for reason in reasons:
            _say(f"FAILED traced {n}: {reason}")
        failures.append(bool(reasons))
        traced_ok[n] = not reasons

    # Derived inputs the layer metrics divide by.
    obstacle = outcomes["obstacle-budget"]
    control = obstacle.get("answers", {}).get("control")
    if control is not None:
        obstacle["control_rows"] = int(control.size // control.shape[-1])
    rollout = outcomes["rollout"]
    if "answers" in rollout:
        rollout["export_rows"] = rollout["answers"]["export_rows"]
        rollout["paths_bytes"] = (rollout["run_dir"] / "paths.csv").stat().st_size

    m = layers.Metrics(tracer)
    layers.lqg_metrics(m, SpanWindow(tracer, *windows["lqg-tol"]), outcomes["lqg-tol"], budgets)
    layers.grid_metrics(m, SpanWindow(tracer, *windows["obstacle-budget"]), obstacle)
    layers.sdesim_metrics(m, tracer, rollout)
    layers.code_metrics(m, SRC)

    traced_s = sum(outcomes[name]["phases"].values())
    untraced_s = sum(untraced["phases"].values())
    both = untraced_ok and traced_ok[name]
    overhead = traced_s - untraced_s if both else None
    m.put("trace.overhead_s", "s", [], lambda: overhead)
    m.put("trace.overhead_frac", "ratio", [], lambda: overhead / untraced_s if both else None)
    m.put("trace.spans", "count", [], lambda: len(tracer.names))

    _say(f"traced run, seed {seed}: every workload's operation once, traced")
    for phase, t in untraced["phases"].items():
        traced_phase = outcomes[name]["phases"].get(phase, float("nan"))
        _say(
            f"overhead {name} {phase}: traced {traced_phase:.4f} s - untraced {t:.4f} s "
            f"= {traced_phase - t:+.4f} s"
        )
    _say("one thread, no queues: no layer waits, so there is no wait metric")
    for key, entry in m.values.items():
        value = entry["value"]
        shown = f"{value:.6g}" if isinstance(value, float) else str(value)
        reason = f" ({entry['reason']})" if "reason" in entry else ""
        _say(f"{key} = {shown} {entry['unit']}{reason}")

    trace_dir = WORK / "trace"
    tracer.dump(trace_dir / f"{name}-seed{seed}.npz")
    _say(f"spans written to {trace_dir.relative_to(ROOT)}")
    return {
        "correct": not any(failures),
        "attempted": len(failures),
        "failed": sum(failures),
        "metrics": m.values,
    }


def record_reference(work: Path) -> None:
    """Rewrite reference.json and reference_control.npz from the current code at seed 0."""
    import numpy as np

    import workloads

    ref = {"default_seed": workloads.DEFAULT_SEED}
    for n in WORKLOAD_NAMES:
        wl = workloads.WORKLOADS[n](work / n, workloads.DEFAULT_SEED)
        wl.reference = None
        wl.setup()
        outcome = wl.operation()
        reasons = wl.check(outcome)
        if reasons:
            raise SystemExit(f"{n}: invariants fail, not recording: {reasons}")
        ans = wl.answers(outcome)
        if n == "obstacle-budget":
            np.savez_compressed(workloads.REFERENCE_CONTROL_FILE, control=ans.pop("control"))
            ans["verify_code"] = outcome["verify_code"]
        ref[n] = ans
        _say(f"recorded {n}")
    workloads.REFERENCE_FILE.write_text(json.dumps(ref, indent=1, sort_keys=True) + "\n")


def run_children(names, seed: int, seconds: float, trace: int, smoke: bool) -> int:
    """Run each workload in its own fresh process, one after another."""
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for n in names:
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", n, "--seed", str(seed)]
        argv += ["--seconds", str(seconds), "--trace", str(trace)] + (["--smoke"] if smoke else [])
        proc = subprocess.run(argv, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.strip().splitlines()
        for line in lines[:-1]:
            _say(f"[{n}] {line}")
        if proc.returncode != 0 or not lines:
            _say(f"[{n}] exited {proc.returncode}")
            return proc.returncode or 1
        result = json.loads(lines[-1])
        summary["correct"] &= result["correct"]
        summary["attempted"] += result["attempted"]
        summary["failed"] += result["failed"]
        for key, entry in result["metrics"].items():
            summary["metrics"][f"{n}.{key}"] = entry
    print(json.dumps(summary))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=12.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--smoke", action="store_true", help="tiny sizes; checks the harness, not the speed"
    )
    parser.add_argument("--record-reference", action="store_true")
    args = parser.parse_args(argv)

    if not (SRC / "fbsweep" / "__init__.py").is_file():
        print(f"error: no fbsweep sources under {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all" and not args.record_reference:
        traces = (0, 1) if args.smoke else (args.trace,)
        return max(
            run_children(WORKLOAD_NAMES, args.seed, args.seconds, t, args.smoke) for t in traces
        )

    sys.path.insert(0, str(SRC))
    work = WORK / f"{args.workload}-{os.getpid()}"
    try:
        if args.record_reference:
            record_reference(work)
            return 0
        info = provenance()
        _say("provenance: " + json.dumps(info, sort_keys=True))
        if args.trace:
            result = run_traced(args.workload, args.seed, args.smoke, work)
        else:
            seconds = 0.0 if args.smoke else args.seconds
            result = run_untraced(args.workload, args.seed, seconds, args.smoke, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
