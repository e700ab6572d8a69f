"""Command-line front end.

Subcommands:

* ``run-lqg``    solve an "lqg"-family configuration, writing gains.csv,
  iterations.csv, summary.json, manifest.json and a config copy.
* ``run-grid``   solve an "obstacle-grid"-family configuration, writing
  iterations.csv, the full control table, field slices at selected
  times, summary.json, manifest.json and a config copy.
* ``simulate``   roll out Monte Carlo paths under a solved control law,
  writing paths.csv and objective.json.
* ``verify``     check a run directory's stored answer: its objective
  from one evaluation of the stored gains or control table, against the
  recorded history and summary, plus descent, mass and stationarity
  checks. ``--rerun`` also re-solves from the stored config and checks
  the history and the answer against the rerun.
* ``reproduce``  run both bundled configurations end to end (solve,
  simulate, verify) into one output tree.

Exit codes are stable: 0 success (including budget-mode runs with
tol=0), 1 verification found a mismatch, 2 invalid input, 3 numerical
failure, 4 iteration budget exhausted before the tolerance was met.
Run directories never embed timestamps, so rerunning a command with the
same configuration and flags reproduces every artifact byte for byte.
"""

from __future__ import annotations

import argparse
import copy
import json
import sys
from pathlib import Path

import numpy as np

from fbsweep import __version__, artifacts
from fbsweep.config import (
    LoadedConfig,
    _scalar,
    bundled_config_path,
    parse_config,
    read_document,
    simulation_cost,
    simulation_dynamics,
)
from fbsweep.core import (
    DivergenceError,
    ProblemError,
    SingularPrecisionError,
    StabilityError,
    _descent_violations,
    _step_count,
)
from fbsweep.gridpde import MONOTONICITY_SLACK as GRID_MONOTONICITY_SLACK
from fbsweep.gridpde import fbsm_grid
from fbsweep.lqg import MONOTONICITY_SLACK as LQG_MONOTONICITY_SLACK
from fbsweep.lqg import (
    LqgControlLaw,
    _closed_loop_objective,
    _min_eigenvalue,
    fbsm_lqg,
    lqg_objective,
)
from fbsweep.sdesim import GridControlLaw, estimate_objective, simulate_paths
from fbsweep.verify import sweep_pmp_residual

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_INPUT = 2
EXIT_NUMERICAL = 3
EXIT_BUDGET = 4

ITERATION_MATCH_RTOL = 1e-9
PMP_THRESHOLD_REL = 1e-4


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fbsweep",
        description="Forward-backward sweep solvers for memory-limited "
        "partially observable stochastic control.",
    )
    parser.add_argument(
        "--version", action="version", version=f"%(prog)s {__version__}"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_lqg = sub.add_parser(
        "run-lqg", help="solve an 'lqg'-family configuration"
    )
    _add_run_arguments(run_lqg)
    run_lqg.set_defaults(func=cmd_run_lqg)

    run_grid = sub.add_parser(
        "run-grid", help="solve an 'obstacle-grid'-family configuration"
    )
    _add_run_arguments(run_grid)
    run_grid.set_defaults(func=cmd_run_grid)

    sim = sub.add_parser(
        "simulate", help="Monte Carlo rollout under a solved control law"
    )
    sim.add_argument("--config", required=True, help="problem configuration JSON")
    sim.add_argument(
        "--controller",
        required=True,
        help="run directory holding the solved control law",
    )
    sim.add_argument("--out", required=True, help="output directory")
    sim.add_argument("--paths", type=int, default=1000, help="number of paths")
    sim.add_argument("--seed", type=int, default=None, help="override config seed")
    sim.add_argument(
        "--dt", type=float, default=None, help="simulation step (default: solver step)"
    )
    sim.set_defaults(func=cmd_simulate)

    ver = sub.add_parser(
        "verify", help="check a run directory's stored answer and artifacts"
    )
    ver.add_argument("run_dir", help="directory written by run-lqg or run-grid")
    ver.add_argument(
        "--rerun",
        action="store_true",
        help="also re-solve from the stored config and compare the history and answer",
    )
    ver.set_defaults(func=cmd_verify)

    rep = sub.add_parser(
        "reproduce", help="solve, simulate and verify both bundled configurations"
    )
    rep.add_argument("--out", required=True, help="output directory")
    rep.add_argument(
        "--paths", type=int, default=10000, help="Monte Carlo paths per problem"
    )
    rep.set_defaults(func=cmd_reproduce)
    return parser


def _add_run_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", required=True, help="problem configuration JSON")
    parser.add_argument("--out", required=True, help="output directory")
    parser.add_argument("--seed", type=int, default=None, help="override config seed")
    parser.add_argument(
        "--max-iters", type=int, default=None, help="override solver iteration budget"
    )
    parser.add_argument(
        "--tol", type=float, default=None, help="override convergence tolerance"
    )
    parser.add_argument(
        "--dt", type=float, default=None, help="override solver time step"
    )


def _effective_document(args) -> dict:
    """The config document with command-line overrides folded in.

    The folded document is what gets copied into the run directory, so a
    later ``verify`` reruns exactly what this command ran.
    """
    doc = copy.deepcopy(read_document(args.config))
    solver = dict(doc.get("solver") or {})
    if getattr(args, "max_iters", None) is not None:
        solver["max_iters"] = args.max_iters
    if getattr(args, "tol", None) is not None:
        solver["tol"] = args.tol
    if solver:
        doc["solver"] = solver
    if getattr(args, "seed", None) is not None:
        doc["seed"] = args.seed
    dt = getattr(args, "dt", None)
    if dt is not None:
        if dt <= 0:
            raise ProblemError("--dt must be positive")
        if doc.get("family") == "obstacle-grid":
            domain = dict(doc.get("domain") or {})
            horizon = _scalar(domain, "horizon", float, "domain.")
            domain["n_t"] = _step_count(horizon, dt)
            doc["domain"] = domain
        else:
            doc["dt"] = dt
    return doc


def _canonical_text(doc: dict) -> str:
    return json.dumps(artifacts.jsonable(doc), indent=2, sort_keys=True) + "\n"


def _prepare_run_dir(out, text: str, seed: int, subcommand: str) -> Path:
    run_dir = Path(out)
    run_dir.mkdir(parents=True, exist_ok=True)
    artifacts.write_config_copy(run_dir, text)
    artifacts.write_manifest(run_dir, text, seed, subcommand)
    return run_dir


def _solver_exit(settings, converged: bool) -> int:
    """tol=0 requests a fixed budget, so completing it is success."""
    if converged or settings.tol == 0.0:
        return EXIT_OK
    return EXIT_BUDGET


def _solve_lqg_config(cfg: LoadedConfig):
    return fbsm_lqg(
        cfg.lqg_problem,
        max_iters=cfg.solver.max_iters,
        tol=cfg.solver.tol,
    )


def _solve_grid_config(cfg: LoadedConfig, keep_nodes=()):
    return fbsm_grid(
        cfg.grid_problem,
        cfg.grid,
        max_iters=cfg.solver.max_iters,
        tol=cfg.solver.tol,
        keep_nodes=keep_nodes,
    )


def _or_null(value: float):
    """value, or None (JSON null) where no sweep has defined it yet."""
    return value if np.isfinite(value) else None


def _run_lqg(doc: dict, out) -> tuple:
    cfg = parse_config(doc)
    if cfg.family != "lqg":
        raise ProblemError(f"run-lqg requires family 'lqg', got {cfg.family!r}")
    text = _canonical_text(doc)
    run_dir = _prepare_run_dir(out, text, cfg.seed, "run-lqg")
    result = _solve_lqg_config(cfg)
    artifacts.write_gains(run_dir, result.gains)
    artifacts.write_iterations(run_dir, result.objective_history)
    # After a Pi sweep (an odd count) Lambda predates Pi, so Lambda^{-1}
    # is not the law's covariance and the closed form does not apply.
    analytic = None
    if result.iterations % 2 == 0:
        analytic = lqg_objective(cfg.lqg_problem, result.gains)
    artifacts.write_summary(
        run_dir,
        {
            "family": cfg.family,
            "objective": result.objective_history[-1],
            "converged": result.converged,
            "iterations": result.iterations,
            "final_delta": _or_null(result.final_delta),
            "pi_gap": result.pi_gap,
            "lambda_gap": result.lambda_gap,
            "min_lambda_eigenvalue": result.min_lambda_eigenvalue,
            "monotonicity_violations": len(result.monotonicity_violations),
            "analytic_objective": analytic,
            "seed": cfg.seed,
            "solver": {
                "max_iters": cfg.solver.max_iters,
                "tol": cfg.solver.tol,
                "method": "rk4",
            },
        },
    )
    return _solver_exit(cfg.solver, result.converged), result


def _run_grid(doc: dict, out) -> tuple:
    cfg = parse_config(doc)
    if cfg.family != "obstacle-grid":
        raise ProblemError(
            f"run-grid requires family 'obstacle-grid', got {cfg.family!r}"
        )
    text = _canonical_text(doc)
    run_dir = _prepare_run_dir(out, text, cfg.seed, "run-grid")
    # The result holds one field in full; write_field_slices reads the
    # other one's slices from those kept at these nodes.
    result = _solve_grid_config(cfg, artifacts.slice_nodes(cfg.grid, cfg.slice_times))
    artifacts.write_iterations(run_dir, result.objective_history)
    d_x = cfg.grid_problem.d_x
    artifacts.write_grid_sidecar(run_dir, cfg.grid, d_x, result.control.shape[-1])
    artifacts.write_control_table(run_dir, result.control, cfg.grid, d_x)
    slice_files = artifacts.write_field_slices(run_dir, result, cfg.slice_times)
    artifacts.write_summary(
        run_dir,
        {
            "family": cfg.family,
            "objective": result.objective_history[-1],
            "converged": result.converged,
            "iterations": result.iterations,
            "final_delta": _or_null(result.final_delta),
            "max_negative_mass": result.mass_log.max_negative_mass,
            "max_mass_drift": result.mass_log.max_mass_drift,
            "monotonicity_violations": len(result.monotonicity_violations),
            "slice_files": slice_files,
            "seed": cfg.seed,
            "solver": {
                "max_iters": cfg.solver.max_iters,
                "tol": cfg.solver.tol,
                "minimizer": "exact",
            },
        },
    )
    return _solver_exit(cfg.solver, result.converged), result


def cmd_run_lqg(args) -> int:
    code, result = _run_lqg(_effective_document(args), args.out)
    _print_run_status(result, args.out)
    return code


def cmd_run_grid(args) -> int:
    code, result = _run_grid(_effective_document(args), args.out)
    _print_run_status(result, args.out)
    return code


def _print_run_status(result, out) -> None:
    status = "converged" if result.converged else "budget exhausted"
    print(
        f"J = {result.objective_history[-1]:.10g} after "
        f"{result.iterations} iterations ({status}); artifacts in {out}"
    )


def _load_controller(cfg: LoadedConfig, run_dir: Path):
    if not run_dir.is_dir():
        raise ProblemError(f"controller directory not found: {run_dir}")
    has_gains = (run_dir / artifacts.GAINS_FILE).exists()
    has_table = (run_dir / artifacts.CONTROL_FILE).exists()
    if cfg.family == "lqg":
        if not has_gains:
            if has_table:
                raise ProblemError(
                    "controller directory holds a grid control table but the "
                    "configuration family is 'lqg'"
                )
            raise ProblemError(f"missing artifact: {run_dir / artifacts.GAINS_FILE}")
        gains = artifacts.read_gains(run_dir, cfg.lqg_problem.d_x)
        if gains.psi.shape[-1] != cfg.lqg_problem.d_s:
            raise ProblemError(
                f"controller dimension {gains.psi.shape[-1]} does not match "
                f"configuration dimension {cfg.lqg_problem.d_s}"
            )
        if abs(gains.horizon - cfg.lqg_problem.horizon) > 1e-9:
            raise ProblemError(
                f"controller horizon {gains.horizon} does not match "
                f"configuration horizon {cfg.lqg_problem.horizon}"
            )
        return LqgControlLaw(gains, cfg.lqg_problem)
    if not has_table:
        if has_gains:
            raise ProblemError(
                "controller directory holds lqg gains but the configuration "
                "family is 'obstacle-grid'"
            )
        raise ProblemError(f"missing artifact: {run_dir / artifacts.CONTROL_FILE}")
    values, grid, d_x = artifacts.read_control_table(run_dir)
    if abs(grid.horizon - cfg.grid.horizon) > 1e-9:
        raise ProblemError(
            f"controller horizon {grid.horizon} does not match "
            f"configuration horizon {cfg.grid.horizon}"
        )
    return GridControlLaw(values, grid, d_x)


def _simulate(doc: dict, controller_dir, out, n_paths: int, seed, dt) -> tuple:
    cfg = parse_config(doc)
    if seed is not None:
        doc = dict(doc, seed=int(seed))
    effective_seed = int(doc.get("seed", 0))
    if n_paths < 1:
        raise ProblemError("--paths must be at least 1")
    law = _load_controller(cfg, Path(controller_dir))
    dynamics = simulation_dynamics(cfg)
    cost = simulation_cost(cfg)
    if cfg.family == "lqg":
        horizon = cfg.lqg_problem.horizon
        step = dt if dt is not None else cfg.lqg_problem.dt
    else:
        horizon = cfg.grid.horizon
        step = dt if dt is not None else cfg.grid.dt
    ensemble = simulate_paths(
        dynamics, law, horizon, step, n_paths, effective_seed, cost=cost
    )
    mean, stderr = estimate_objective(ensemble, cost)
    text = _canonical_text(doc)
    run_dir = _prepare_run_dir(out, text, effective_seed, "simulate")
    artifacts.write_paths(run_dir, ensemble)
    artifacts.write_objective(run_dir, mean, stderr, ensemble.n_paths - ensemble.n_excluded, ensemble.n_excluded)
    return mean, stderr, ensemble.n_excluded


def cmd_simulate(args) -> int:
    mean, stderr, n_excluded = _simulate(
        read_document(args.config),
        args.controller,
        args.out,
        args.paths,
        args.seed,
        args.dt,
    )
    print(
        f"objective {mean:.10g} +/- {stderr:.4g} over "
        f"{args.paths - n_excluded} paths; artifacts in {args.out}"
    )
    return EXIT_OK


def _check(checks: list, name: str, passed: bool, detail: str = "") -> None:
    checks.append({"name": name, "passed": bool(passed), "detail": detail})


def _iterations_match(stored: np.ndarray, fresh: np.ndarray):
    """First index where the recorded objectives differ from the rerun."""
    if len(stored) != len(fresh):
        return False, f"{len(stored)} recorded iterations, rerun produced {len(fresh)}"
    for k, (a, b) in enumerate(zip(stored, fresh)):
        if not _objectives_match(a, b):
            return (
                False,
                f"objective mismatch at iteration k={k}: "
                f"{float(a)!r} != {float(b)!r}",
            )
    return True, ""


def _objectives_match(recorded: float, answer: float) -> bool:
    return abs(recorded - answer) <= ITERATION_MATCH_RTOL * (1.0 + abs(answer))


def _check_deviation(checks: list, name: str, diff: float, scale: float) -> None:
    _check(checks, name, diff <= ITERATION_MATCH_RTOL * scale, f"max deviation {diff:.3e}")


def _check_lqg_answer(cfg: LoadedConfig, run_dir: Path, checks: list) -> tuple:
    """Check the stored gains; return them and their closed-loop objective.

    The objective is the one every lqg sweep records, from the same
    gains, so it reproduces the last recorded value bit for bit.
    """
    problem = cfg.lqg_problem
    gains = artifacts.read_gains(run_dir, problem.d_x)
    n = problem.stages.n
    if gains.n_steps != n or gains.psi.shape[-1] != problem.d_s:
        raise ProblemError(
            f"gain tables hold {gains.n_steps} steps of dimension "
            f"{gains.psi.shape[-1]}, configuration has {n} of {problem.d_s}"
        )
    min_eig = _min_eigenvalue(gains.lam)
    _check(
        checks,
        "stored precision matrix positive definite",
        min_eig > 0.0,
        f"min eigenvalue {min_eig:.6g}",
    )
    if not min_eig > 0.0:
        # such a Lambda defines no law, so there is no objective to compare
        return gains, np.nan
    objective = _closed_loop_objective(problem, gains.psi, gains.pi, gains.lam, gains.mu)
    return gains, objective


def _check_grid_answer(cfg: LoadedConfig, run_dir: Path, sweeps: int, checks: list) -> tuple:
    """Check the stored control; return it and its objective.

    One forward pass under the control gives its density and mass
    bookkeeping; the stationarity oracle steps the value alongside. The
    objective is taken the way the run's last sweep recorded it: <p0, w0>
    after a backward sweep (an odd count), the forward pass's cost
    otherwise. Either way it reproduces the recorded value bit for bit.
    """
    problem, grid = cfg.grid_problem, cfg.grid
    # Read the table first: parsing it peaks well above its array, and
    # that peak should not stack on the density field.
    control, _, _ = artifacts.read_control_table(run_dir)
    expected = (grid.n_t,) + grid.memory_shape(problem.d_x) + (problem.d_u,)
    if control.shape != expected:
        raise ProblemError(
            f"control table has shape {control.shape}, configuration needs {expected}"
        )
    pmp = sweep_pmp_residual(problem, grid, control)
    log = pmp.mass_log
    _check(
        checks,
        "density mass conserved",
        log.max_mass_drift <= 1e-12,
        f"max drift {log.max_mass_drift:.3e}",
    )
    _check(
        checks,
        "pre-clamp negative mass within limit",
        log.max_negative_mass <= 1e-6,
        f"max negative mass {log.max_negative_mass:.3e}",
    )
    objective = pmp.value_objective if sweeps % 2 else pmp.objective
    pmp_limit = PMP_THRESHOLD_REL * (1.0 + abs(objective))
    _check(
        checks,
        "stationarity residual within tolerance",
        pmp.weighted_max <= pmp_limit,
        f"weighted max {pmp.weighted_max:.3e} (limit {pmp_limit:.3e})",
    )
    return control, objective


def cmd_verify(args) -> int:
    """Check a run directory's stored answer, and with --rerun re-solve it.

    The default checks read the answer alone: the stored gains or control
    table is evaluated once, and its objective, stationarity and
    bookkeeping are checked against the recorded history and summary.
    --rerun adds the reproduction checks, which compare the recorded
    history and the answer with a fresh solve from the stored config.
    """
    run_dir = Path(args.run_dir)
    if not run_dir.is_dir():
        raise ProblemError(f"run directory not found: {run_dir}")
    config_path = run_dir / artifacts.CONFIG_FILE
    doc = read_document(config_path)
    cfg = parse_config(doc)
    manifest = artifacts.read_json(run_dir / artifacts.MANIFEST_FILE)
    stored_iterations = artifacts.read_iterations(run_dir)
    stored_summary = artifacts.read_summary(run_dir)
    # A missing objective reads NaN and fails its check below (exit 1);
    # anything but a JSON number is invalid input (exit 2).
    summary_j = stored_summary.get("objective", np.nan)
    if isinstance(summary_j, bool) or not isinstance(summary_j, (int, float)):
        raise ProblemError(
            f"objective in {run_dir / artifacts.SUMMARY_FILE} must be a number, "
            f"got {summary_j!r}"
        )
    if not stored_iterations.size:
        raise ProblemError(f"no objective recorded in {run_dir / artifacts.ITERATIONS_FILE}")
    sweeps = stored_iterations.size - 1

    checks: list = []
    digest = artifacts.config_digest(config_path.read_text())
    _check(
        checks,
        "manifest digest matches stored config",
        manifest.get("config_sha256") == digest,
        digest,
    )

    if cfg.family == "lqg":
        gains, objective = _check_lqg_answer(cfg, run_dir, checks)
        slack = LQG_MONOTONICITY_SLACK
    else:
        control, objective = _check_grid_answer(cfg, run_dir, sweeps, checks)
        slack = GRID_MONOTONICITY_SLACK

    last = float(stored_iterations[-1])
    _check(
        checks,
        "final iteration objective matches answer",
        _objectives_match(last, objective),
        f"recorded {last!r}, answer {float(objective)!r}",
    )
    rises, _ = _descent_violations(stored_iterations, slack)
    detail = f"{len(rises)} rise(s) in {sweeps} sweeps" if sweeps else "one objective value"
    _check(checks, "objective descends monotonically", not rises, detail)
    summary_j = float(summary_j)
    _check(
        checks,
        "summary objective matches answer",
        _objectives_match(summary_j, objective),
        repr(summary_j),
    )

    if args.rerun:
        if cfg.family == "lqg":
            result = _solve_lqg_config(cfg)
            diff = max(
                float(np.abs(getattr(gains, name) - getattr(result.gains, name)).max())
                for name in ("psi", "pi", "lam", "mu")
            )
            scale = 1.0 + float(np.abs(result.gains.pi).max())
            _check_deviation(checks, "gain tables match rerun", diff, scale)
        else:
            result = _solve_grid_config(cfg)
            diff = float(np.abs(control - result.control).max())
            scale = 1.0 + float(np.abs(result.control).max())
            _check_deviation(checks, "control table matches rerun", diff, scale)
        fresh = np.asarray(result.objective_history, dtype=float)
        same, detail = _iterations_match(stored_iterations, fresh)
        _check(checks, "iteration objectives match rerun", same, detail)

    passed = all(c["passed"] for c in checks)
    artifacts.write_json(
        run_dir / "verify.json", {"passed": passed, "checks": checks}
    )
    for c in checks:
        status = "ok" if c["passed"] else "FAIL"
        suffix = f" ({c['detail']})" if c["detail"] else ""
        print(f"{status}: {c['name']}{suffix}")
    return EXIT_OK if passed else EXIT_VERIFY_FAILED


def _solve_scalars(result) -> dict:
    return {
        "objective": float(result.objective_history[-1]),
        "converged": bool(result.converged),
        "iterations": int(result.iterations),
    }


def cmd_reproduce(args) -> int:
    """Solve, simulate and verify both bundled documents.

    verify runs its default checks, on the stored answers: nothing is
    solved twice.

    Each step keeps only the scalars the summary reports: a solve's
    fields and a simulation's paths are released before the next step
    allocates its own.
    """
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    exit_codes = {}
    summary = {}

    lqg_doc = read_document(bundled_config_path("lqg"))
    lqg_dir = out / "lqg"
    print("solving bundled lqg configuration ...")
    exit_codes["run-lqg"], result = _run_lqg(lqg_doc, lqg_dir)
    lqg = _solve_scalars(result)
    del result
    print("simulating lqg closed loop ...")
    # Simulate at a quarter of the solver step: the path integrator's
    # first-order weak bias at the solver's own step is larger than the
    # Monte Carlo standard error this summary is meant to expose.
    sim_dt = float(lqg_doc["dt"]) / 4.0
    lqg_mean, lqg_se, lqg_excluded = _simulate(
        lqg_doc, lqg_dir, out / "lqg-sim", args.paths, None, sim_dt
    )
    exit_codes["simulate-lqg"] = EXIT_OK
    print("verifying lqg run ...")
    exit_codes["verify-lqg"] = cmd_verify(
        argparse.Namespace(run_dir=str(lqg_dir), rerun=False)
    )
    analytic = artifacts.read_summary(lqg_dir)["analytic_objective"]
    summary["lqg"] = dict(
        lqg,
        analytic_objective=analytic,
        mc_mean=lqg_mean,
        mc_stderr=lqg_se,
        mc_gap=None if analytic is None else abs(lqg_mean - analytic),
        excluded_paths=lqg_excluded,
    )

    grid_doc = read_document(bundled_config_path("obstacle"))
    grid_dir = out / "obstacle"
    print("solving bundled obstacle configuration ...")
    exit_codes["run-grid"], result = _run_grid(grid_doc, grid_dir)
    grid = dict(
        _solve_scalars(result),
        max_negative_mass=result.mass_log.max_negative_mass,
        max_mass_drift=result.mass_log.max_mass_drift,
    )
    del result
    print("simulating obstacle closed loop ...")
    grid_mean, grid_se, grid_excluded = _simulate(
        grid_doc, grid_dir, out / "obstacle-sim", args.paths, None, None
    )
    exit_codes["simulate-grid"] = EXIT_OK
    print("verifying obstacle run ...")
    exit_codes["verify-grid"] = cmd_verify(
        argparse.Namespace(run_dir=str(grid_dir), rerun=False)
    )
    summary["obstacle"] = dict(
        grid,
        mc_mean=grid_mean,
        mc_stderr=grid_se,
        mc_gap=abs(grid_mean - grid["objective"]),
        excluded_paths=grid_excluded,
    )

    summary["exit_codes"] = exit_codes
    artifacts.write_json(out / "acceptance_summary.json", summary)
    worst = max(exit_codes.values())
    print(f"wrote {out / 'acceptance_summary.json'}")
    return worst


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ProblemError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except (StabilityError, DivergenceError, SingularPrecisionError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
