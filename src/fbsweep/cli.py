"""Command-line front end.

Subcommands:

* ``run-lqg``    solve an "lqg"-family configuration, writing gains.csv,
  iterations.csv, summary.json, manifest.json and a config copy.
* ``run-grid``   solve an "obstacle-grid"-family configuration, writing
  iterations.csv, the full control table, field slices at selected
  times, summary.json, manifest.json and a config copy.
* ``simulate``   roll out Monte Carlo paths under a solved control law,
  writing paths.csv and objective.json.
* ``verify``     rerun the solver from a run directory's stored config
  and check the recorded artifacts against the rerun.
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
    _step_count,
)
from fbsweep.gridpde import fbsm_grid
from fbsweep.lqg import LqgControlLaw, fbsm_lqg, lqg_objective
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
        "verify", help="recompute a run directory and check its artifacts"
    )
    ver.add_argument("run_dir", help="directory written by run-lqg or run-grid")
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


def _solve_grid_config(cfg: LoadedConfig):
    return fbsm_grid(
        cfg.grid_problem,
        cfg.grid,
        max_iters=cfg.solver.max_iters,
        tol=cfg.solver.tol,
    )


def _or_null(value: float):
    """value, or None (JSON null) where no sweep has defined it yet."""
    return value if np.isfinite(value) else None


def _lqg_gaps(result):
    """Largest change of Pi and of Lambda over their last refresh, or None."""
    pi_gap = None
    if len(result.pi_iterates) >= 3:
        pi_gap = float(
            np.abs(result.pi_iterates[-1] - result.pi_iterates[-3]).max()
        )
    lam_gap = None
    if len(result.lambda_iterates) >= 2:
        lam_gap = float(
            np.abs(result.lambda_iterates[-1] - result.lambda_iterates[-2]).max()
        )
    return pi_gap, lam_gap


def _min_lambda_eigenvalue(result) -> float:
    # a Pi sweep holds Lambda, so consecutive iterates share one array
    distinct = {id(lam): lam for lam in result.lambda_iterates}
    return float(np.linalg.eigvalsh(np.stack(list(distinct.values()))).min())


def _run_lqg(doc: dict, out) -> tuple:
    cfg = parse_config(doc)
    if cfg.family != "lqg":
        raise ProblemError(f"run-lqg requires family 'lqg', got {cfg.family!r}")
    text = _canonical_text(doc)
    run_dir = _prepare_run_dir(out, text, cfg.seed, "run-lqg")
    result = _solve_lqg_config(cfg)
    artifacts.write_gains(run_dir, result.gains)
    artifacts.write_iterations(run_dir, result.objective_history)
    pi_gap, lam_gap = _lqg_gaps(result)
    artifacts.write_summary(
        run_dir,
        {
            "family": cfg.family,
            "objective": result.objective_history[-1],
            "converged": result.converged,
            "iterations": result.iterations,
            "final_delta": _or_null(result.final_delta),
            "pi_gap": pi_gap,
            "lambda_gap": lam_gap,
            "min_lambda_eigenvalue": _min_lambda_eigenvalue(result),
            "monotonicity_violations": len(result.monotonicity_violations),
            "analytic_objective": lqg_objective(cfg.lqg_problem, result.gains),
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
    result = _solve_grid_config(cfg)
    artifacts.write_iterations(run_dir, result.objective_history)
    artifacts.write_grid_sidecar(
        run_dir, cfg.grid, cfg.grid_problem.d_x, result.control.d_u
    )
    artifacts.write_control_table(run_dir, result.control)
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
                "minimizer": cfg.grid_problem.minimizer_mode(),
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
    return mean, stderr, ensemble


def cmd_simulate(args) -> int:
    mean, stderr, ensemble = _simulate(
        read_document(args.config),
        args.controller,
        args.out,
        args.paths,
        args.seed,
        args.dt,
    )
    print(
        f"objective {mean:.10g} +/- {stderr:.4g} over "
        f"{ensemble.n_paths - ensemble.n_excluded} paths; artifacts in {args.out}"
    )
    return EXIT_OK


def _check(checks: list, name: str, passed: bool, detail: str = "") -> None:
    checks.append({"name": name, "passed": bool(passed), "detail": detail})


def _iterations_match(stored: np.ndarray, fresh: np.ndarray):
    """First index where the recorded objectives differ from the rerun."""
    if len(stored) != len(fresh):
        return False, f"{len(stored)} recorded iterations, rerun produced {len(fresh)}"
    for k, (a, b) in enumerate(zip(stored, fresh)):
        if abs(a - b) > ITERATION_MATCH_RTOL * (1.0 + abs(b)):
            return (
                False,
                f"objective mismatch at iteration k={k}: "
                f"{float(a)!r} != {float(b)!r}",
            )
    return True, ""


def cmd_verify(args) -> int:
    run_dir = Path(args.run_dir)
    if not run_dir.is_dir():
        raise ProblemError(f"run directory not found: {run_dir}")
    config_path = run_dir / artifacts.CONFIG_FILE
    doc = read_document(config_path)
    cfg = parse_config(doc)
    manifest = artifacts.read_json(run_dir / artifacts.MANIFEST_FILE)
    stored_iterations = artifacts.read_iterations(run_dir)
    stored_summary = artifacts.read_summary(run_dir)

    checks: list = []
    digest = artifacts.config_digest(config_path.read_text())
    _check(
        checks,
        "manifest digest matches stored config",
        manifest.get("config_sha256") == digest,
        digest,
    )

    if cfg.family == "lqg":
        result = _solve_lqg_config(cfg)
        fresh_gains = result.gains
        stored_gains = artifacts.read_gains(run_dir, cfg.lqg_problem.d_x)
        gain_diff = max(
            float(np.abs(getattr(stored_gains, name) - getattr(fresh_gains, name)).max())
            for name in ("psi", "pi", "lam", "mu")
        )
        scale = 1.0 + float(np.abs(fresh_gains.pi).max())
        _check(
            checks,
            "gain tables match rerun",
            gain_diff <= ITERATION_MATCH_RTOL * scale,
            f"max deviation {gain_diff:.3e}",
        )
        min_eig = _min_lambda_eigenvalue(result)
        _check(
            checks,
            "precision matrix positive definite at every iterate",
            min_eig > 0.0,
            f"min eigenvalue {min_eig:.6g}",
        )
    else:
        # Read the table first: parsing it peaks well above its array, and
        # that peak should not stack on the rerun's two fields.
        stored_control, _, _ = artifacts.read_control_table(run_dir)
        result = _solve_grid_config(cfg)
        control_diff = float(np.abs(stored_control - result.control.values).max())
        scale = 1.0 + float(np.abs(result.control.values).max())
        _check(
            checks,
            "control table matches rerun",
            control_diff <= ITERATION_MATCH_RTOL * scale,
            f"max deviation {control_diff:.3e}",
        )
        log = result.mass_log
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
        # Reuses the rerun's last field and overwrites its stale one.
        pmp = sweep_pmp_residual(cfg.grid_problem, cfg.grid, result)
        j_final = float(result.objective_history[-1])
        pmp_limit = PMP_THRESHOLD_REL * (1.0 + abs(j_final))
        _check(
            checks,
            "stationarity residual within tolerance",
            pmp.weighted_max <= pmp_limit,
            f"weighted max {pmp.weighted_max:.3e} (limit {pmp_limit:.3e})",
        )

    fresh = np.asarray(result.objective_history, dtype=float)
    same, detail = _iterations_match(stored_iterations, fresh)
    _check(checks, "iteration objectives match rerun", same, detail)

    # the rerun recorded every sweep that rose past its backend's slack
    rises, sweeps = result.monotonicity_violations, fresh.size - 1
    detail = f"{len(rises)} rise(s) in {sweeps} sweeps" if sweeps else "one objective value"
    _check(checks, "objective descends monotonically", not rises, detail)

    summary_j = float(stored_summary.get("objective", np.nan))
    summary_ok = abs(summary_j - fresh[-1]) <= ITERATION_MATCH_RTOL * (
        1.0 + abs(fresh[-1])
    )
    _check(checks, "summary objective matches rerun", summary_ok, repr(summary_j))

    passed = all(c["passed"] for c in checks)
    artifacts.write_json(
        run_dir / "verify.json", {"passed": passed, "checks": checks}
    )
    for c in checks:
        status = "ok" if c["passed"] else "FAIL"
        suffix = f" ({c['detail']})" if c["detail"] else ""
        print(f"{status}: {c['name']}{suffix}")
    return EXIT_OK if passed else EXIT_VERIFY_FAILED


def cmd_reproduce(args) -> int:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    exit_codes = {}
    summary = {}

    lqg_doc = read_document(bundled_config_path("lqg"))
    lqg_dir = out / "lqg"
    print("solving bundled lqg configuration ...")
    exit_codes["run-lqg"], lqg_result = _run_lqg(lqg_doc, lqg_dir)
    print("simulating lqg closed loop ...")
    # Simulate at a quarter of the solver step: the path integrator's
    # first-order weak bias at the solver's own step is larger than the
    # Monte Carlo standard error this summary is meant to expose.
    sim_dt = float(lqg_doc["dt"]) / 4.0
    lqg_mean, lqg_se, lqg_ens = _simulate(
        lqg_doc, lqg_dir, out / "lqg-sim", args.paths, None, sim_dt
    )
    exit_codes["simulate-lqg"] = EXIT_OK
    print("verifying lqg run ...")
    exit_codes["verify-lqg"] = cmd_verify(
        argparse.Namespace(run_dir=str(lqg_dir))
    )
    analytic = float(
        artifacts.read_summary(lqg_dir)["analytic_objective"]
    )
    summary["lqg"] = {
        "objective": float(lqg_result.objective_history[-1]),
        "analytic_objective": analytic,
        "converged": bool(lqg_result.converged),
        "iterations": int(lqg_result.iterations),
        "mc_mean": lqg_mean,
        "mc_stderr": lqg_se,
        "mc_gap": abs(lqg_mean - analytic),
        "excluded_paths": lqg_ens.n_excluded,
    }

    grid_doc = read_document(bundled_config_path("obstacle"))
    grid_dir = out / "obstacle"
    print("solving bundled obstacle configuration ...")
    exit_codes["run-grid"], grid_result = _run_grid(grid_doc, grid_dir)
    print("simulating obstacle closed loop ...")
    grid_mean, grid_se, grid_ens = _simulate(
        grid_doc, grid_dir, out / "obstacle-sim", args.paths, None, None
    )
    exit_codes["simulate-grid"] = EXIT_OK
    print("verifying obstacle run ...")
    exit_codes["verify-grid"] = cmd_verify(
        argparse.Namespace(run_dir=str(grid_dir))
    )
    summary["obstacle"] = {
        "objective": float(grid_result.objective_history[-1]),
        "converged": bool(grid_result.converged),
        "iterations": int(grid_result.iterations),
        "max_negative_mass": grid_result.mass_log.max_negative_mass,
        "max_mass_drift": grid_result.mass_log.max_mass_drift,
        "mc_mean": grid_mean,
        "mc_stderr": grid_se,
        "mc_gap": abs(grid_mean - float(grid_result.objective_history[-1])),
        "excluded_paths": grid_ens.n_excluded,
    }

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
