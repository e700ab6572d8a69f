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

Each family's part of these commands (its solver, answer files, control
law, answer check and reproduce settings) lives in one ``_Family``
record, looked up once per command, so every command is one path.

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
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from fbsweep import __version__, artifacts
from fbsweep.config import (
    LoadedConfig,
    _scalar,
    _section,
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

    for family in _FAMILIES:
        run = sub.add_parser(
            family.command, help=f"solve an {family.name!r}-family configuration"
        )
        run.add_argument("--config", required=True, help="problem configuration JSON")
        run.add_argument("--out", required=True, help="output directory")
        run.add_argument("--seed", type=int, default=None, help="override config seed")
        run.add_argument(
            "--max-iters", type=int, default=None, help="override solver iteration budget"
        )
        run.add_argument(
            "--tol", type=float, default=None, help="override convergence tolerance"
        )
        run.add_argument(
            "--dt", type=float, default=None, help="override solver time step"
        )
        run.set_defaults(func=cmd_run, family=family)

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


def _check_arguments(args) -> None:
    """Refuse a bad --out or --paths before the command reads or writes anything.

    reproduce also refuses a file where it makes a run directory in --out.
    """
    out = getattr(args, "out", None)
    if out is not None and Path(out).exists() and not Path(out).is_dir():
        raise ProblemError(f"--out {out} exists and is not a directory")
    if args.func is cmd_reproduce:
        for path in (Path(out, f.bundled + end) for f in _FAMILIES for end in ("", "-sim")):
            if path.exists() and not path.is_dir():
                raise ProblemError(f"{path} exists and is not a directory")
    if getattr(args, "paths", 1) < 1:
        raise ProblemError("--paths must be at least 1")


def _effective_document(args) -> dict:
    """The config document with command-line overrides folded in.

    The folded document is what gets copied into the run directory, so a
    later ``verify`` reruns exactly what this command ran.
    """
    doc = copy.deepcopy(read_document(args.config))
    solver = dict(_section(doc, "solver", {}))
    if args.max_iters is not None:
        solver["max_iters"] = args.max_iters
    if args.tol is not None:
        solver["tol"] = args.tol
    if solver:
        doc["solver"] = solver
    if args.seed is not None:
        doc["seed"] = args.seed
    if args.dt is not None:
        if args.dt <= 0:
            raise ProblemError("--dt must be positive")
        # A family parse_config refuses has no step to fold into.
        family = _family(doc.get("family"))
        if family is not None:
            family.fold_dt(doc, args.dt)
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


def _or_null(value: float):
    """value, or None (JSON null) where no sweep has defined it yet."""
    return value if np.isfinite(value) else None


def _check(checks: list, name: str, passed: bool, detail: str = "") -> None:
    checks.append({"name": name, "passed": bool(passed), "detail": detail})


def _check_horizon(stored: float, configured: float) -> None:
    if not abs(stored - configured) <= 1e-9:
        raise ProblemError(
            f"controller horizon {stored} does not match "
            f"configuration horizon {configured}"
        )


# -- the lqg family: Riccati sweeps, gain tables, the affine law ------------
def _lqg_axis(cfg: LoadedConfig) -> tuple:
    return cfg.lqg_problem.horizon, cfg.lqg_problem.dt


def _lqg_fold_dt(doc: dict, dt: float) -> None:
    doc["dt"] = dt


def _solve_lqg(cfg: LoadedConfig):
    return fbsm_lqg(cfg.lqg_problem, max_iters=cfg.solver.max_iters, tol=cfg.solver.tol)


def _write_lqg_answer(cfg: LoadedConfig, run_dir: Path, result) -> dict:
    artifacts.write_gains(run_dir, result.gains)
    # After a Pi sweep (an odd count) Lambda predates Pi, so Lambda^{-1}
    # is not the law's covariance and the closed form does not apply.
    analytic = None
    if result.iterations % 2 == 0:
        analytic = lqg_objective(cfg.lqg_problem, result.gains)
    return {
        "pi_gap": result.pi_gap,
        "lambda_gap": result.lambda_gap,
        "min_lambda_eigenvalue": result.min_lambda_eigenvalue,
        "analytic_objective": analytic,
    }


def _lqg_law(cfg: LoadedConfig, run_dir: Path):
    problem = cfg.lqg_problem
    gains = artifacts.read_gains(run_dir, problem.d_x)
    if gains.psi.shape[-1] != problem.d_s:
        raise ProblemError(
            f"controller dimension {gains.psi.shape[-1]} does not match "
            f"configuration dimension {problem.d_s}"
        )
    _check_horizon(gains.horizon, problem.horizon)
    return LqgControlLaw(gains, problem)


def _gain_tables(gains) -> tuple:
    """The tables a rerun compares, Pi (which sets the tolerance's scale) first."""
    return gains.pi, gains.psi, gains.lam, gains.mu


def _check_lqg_answer(cfg: LoadedConfig, run_dir: Path, sweeps: int, checks: list) -> tuple:
    """Check the stored gains; return their tables and closed-loop objective.

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
    # The law's index_for reads the time column.
    if not np.all(np.abs(gains.times - problem.stages.node_times) <= 1e-9):
        raise ProblemError(
            f"gain table times in {run_dir / artifacts.GAINS_FILE} do not match "
            "the configured node times"
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
        return _gain_tables(gains), np.nan
    objective = _closed_loop_objective(problem, gains.psi, gains.pi, gains.lam, gains.mu)
    return _gain_tables(gains), objective


def _quarter_step(doc: dict) -> float:
    # Simulate at a quarter of the solver step: the path integrator's
    # first-order weak bias at the solver's own step is larger than the
    # Monte Carlo standard error reproduce's summary is meant to expose.
    return float(doc["dt"]) / 4.0


# -- the obstacle-grid family: grid sweeps, control table, interpolated law --
def _grid_axis(cfg: LoadedConfig) -> tuple:
    return cfg.grid.horizon, cfg.grid.dt


def _grid_fold_dt(doc: dict, dt: float) -> None:
    domain = dict(_section(doc, "domain"))
    horizon = _scalar(domain, "horizon", float, "domain.")
    domain["n_t"] = _step_count(horizon, dt)
    doc["domain"] = domain


def _solve_grid(cfg: LoadedConfig):
    # The result holds one field in full; write_field_slices reads the
    # other one's slices from those kept at these nodes.
    return fbsm_grid(
        cfg.grid_problem,
        cfg.grid,
        max_iters=cfg.solver.max_iters,
        tol=cfg.solver.tol,
        keep_nodes=artifacts.slice_nodes(cfg.grid, cfg.slice_times),
    )


def _write_grid_answer(cfg: LoadedConfig, run_dir: Path, result) -> dict:
    d_x = cfg.grid_problem.d_x
    artifacts.write_grid_sidecar(run_dir, cfg.grid, d_x, result.control.shape[-1])
    artifacts.write_control_table(run_dir, result.control, cfg.grid, d_x)
    return {
        "max_negative_mass": result.mass_log.max_negative_mass,
        "max_mass_drift": result.mass_log.max_mass_drift,
        "slice_files": artifacts.write_field_slices(run_dir, result, cfg.slice_times),
    }


def _grid_law(cfg: LoadedConfig, run_dir: Path):
    values, grid, d_x = artifacts.read_control_table(run_dir)
    _check_horizon(grid.horizon, cfg.grid.horizon)
    return GridControlLaw(values, grid, d_x)


def _check_grid_answer(cfg: LoadedConfig, run_dir: Path, sweeps: int, checks: list) -> tuple:
    """Check the stored control; return it (as a one-table tuple) and its objective.

    One forward pass under the control gives its density and mass
    bookkeeping; the stationarity oracle steps the value alongside. The
    objective is taken the way the run's last sweep recorded it: <p0, w0>
    after a backward sweep (an odd count), the forward pass's cost
    otherwise. Either way it reproduces the recorded value bit for bit.
    """
    problem, grid = cfg.grid_problem, cfg.grid
    # Read the table first: parsing it peaks well above its array, and
    # that peak should not stack on the density field.
    control, stored, d_x = artifacts.read_control_table(run_dir)
    # The checks below step the answer on the configuration's grid, and
    # simulate interpolates it on the sidecar's: they must be one grid.
    configured = artifacts._sidecar(grid, problem.d_x, problem.d_u)
    for key, value in artifacts._sidecar(stored, d_x, control.shape[-1]).items():
        if value != configured[key]:
            raise ProblemError(
                f"{key} {value} in {run_dir / artifacts.GRID_FILE} does not match "
                f"the configuration's {configured[key]}"
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
    return (control,), objective


@dataclass(frozen=True)
class _Family:
    """One problem family's part of every command.

    The callables are this module's functions, which reach the library
    (``fbsm_lqg``, ``fbsm_grid``, ``sweep_pmp_residual``, ...) through the
    module's globals when they run, so a rebound global is what they call.
    """

    name: str  # the document's "family"
    command: str  # the run command, also the manifest's subcommand
    bundled: str  # the bundled document reproduce runs
    slack: float  # the descent rule's monotonicity slack
    answer_file: str  # the answer a controller directory holds
    answer_label: str  # that answer, as a cross-family error names it
    solver_choice: tuple  # (key, value) of what always runs, for summary.json
    axis: Callable  # cfg -> (horizon, solver step)
    fold_dt: Callable  # (doc, dt): fold a --dt override into the document
    solve: Callable  # cfg -> sweep result
    write_answer: Callable  # (cfg, run_dir, result) -> the family's summary fields
    load_law: Callable  # (cfg, run_dir) -> the stored control law
    check_answer: Callable  # (cfg, run_dir, sweeps, checks) -> (tables, objective)
    rerun_tables: Callable  # sweep result -> the tables check_answer returns
    table_check: str  # the name of verify's rerun table comparison
    mc_step: Callable  # document -> reproduce's simulation step (None: the solver's)
    mc_reference: str  # the summary field reproduce's mc_gap is measured from
    repro_fields: tuple  # the summary fields reproduce reports besides J


_FAMILIES = (
    _Family(
        name="lqg",
        command="run-lqg",
        bundled="lqg",
        slack=LQG_MONOTONICITY_SLACK,
        answer_file=artifacts.GAINS_FILE,
        answer_label="lqg gains",
        solver_choice=("method", "rk4"),
        axis=_lqg_axis,
        fold_dt=_lqg_fold_dt,
        solve=_solve_lqg,
        write_answer=_write_lqg_answer,
        load_law=_lqg_law,
        check_answer=_check_lqg_answer,
        rerun_tables=lambda result: _gain_tables(result.gains),
        table_check="gain tables match rerun",
        mc_step=_quarter_step,
        mc_reference="analytic_objective",
        repro_fields=("analytic_objective",),
    ),
    _Family(
        name="obstacle-grid",
        command="run-grid",
        bundled="obstacle",
        slack=GRID_MONOTONICITY_SLACK,
        answer_file=artifacts.CONTROL_FILE,
        answer_label="a grid control table",
        solver_choice=("minimizer", "exact"),
        axis=_grid_axis,
        fold_dt=_grid_fold_dt,
        solve=_solve_grid,
        write_answer=_write_grid_answer,
        load_law=_grid_law,
        check_answer=_check_grid_answer,
        rerun_tables=lambda result: (result.control,),
        table_check="control table matches rerun",
        mc_step=lambda doc: None,
        mc_reference="objective",
        repro_fields=("max_negative_mass", "max_mass_drift"),
    ),
)


def _family(name):
    """The record of the family `name`; None for a name parse_config refuses."""
    return next((family for family in _FAMILIES if family.name == name), None)


def _run(doc: dict, out, family: _Family) -> tuple:
    """Solve a document of `family` into run directory `out`.

    Returns the exit code and the summary written. The sweep result, with
    its fields, is released on return.
    """
    cfg = parse_config(doc)
    if cfg.family != family.name:
        raise ProblemError(
            f"{family.command} requires family {family.name!r}, got {cfg.family!r}"
        )
    text = _canonical_text(doc)
    run_dir = _prepare_run_dir(out, text, cfg.seed, family.command)
    result = family.solve(cfg)
    artifacts.write_iterations(run_dir, result.objective_history)
    summary = {
        "family": cfg.family,
        "objective": result.objective_history[-1],
        "converged": result.converged,
        "iterations": result.iterations,
        "final_delta": _or_null(result.final_delta),
        "monotonicity_violations": len(result.monotonicity_violations),
        "seed": cfg.seed,
        "solver": dict(
            [family.solver_choice], max_iters=cfg.solver.max_iters, tol=cfg.solver.tol
        ),
        **family.write_answer(cfg, run_dir, result),
    }
    artifacts.write_summary(run_dir, summary)
    return _solver_exit(cfg.solver, result.converged), summary


def cmd_run(args) -> int:
    code, summary = _run(_effective_document(args), args.out, args.family)
    status = "converged" if summary["converged"] else "budget exhausted"
    print(
        f"J = {summary['objective']:.10g} after "
        f"{summary['iterations']} iterations ({status}); artifacts in {args.out}"
    )
    return code


def _load_controller(cfg: LoadedConfig, family: _Family, run_dir: Path):
    if not run_dir.is_dir():
        raise ProblemError(f"controller directory not found: {run_dir}")
    if not (run_dir / family.answer_file).exists():
        for other in _FAMILIES:
            if (run_dir / other.answer_file).exists():
                raise ProblemError(
                    f"controller directory holds {other.answer_label} but the "
                    f"configuration family is {family.name!r}"
                )
        raise ProblemError(f"missing artifact: {run_dir / family.answer_file}")
    return family.load_law(cfg, run_dir)


def _simulate(doc: dict, controller_dir, out, n_paths: int, seed, dt) -> tuple:
    """Simulate n_paths under the solved law and write every path's rows.

    A --seed override is folded into the document before it is parsed, so
    it is checked like the document's own seed.
    """
    if seed is not None:
        doc = dict(doc, seed=int(seed))
    cfg = parse_config(doc)
    family = _family(cfg.family)
    law = _load_controller(cfg, family, Path(controller_dir))
    dynamics = simulation_dynamics(cfg)
    cost = simulation_cost(cfg)
    horizon, step = family.axis(cfg)
    ensemble = simulate_paths(
        dynamics,
        law,
        horizon,
        step if dt is None else dt,
        n_paths,
        cfg.seed,
        cost=cost,
        history=True,
    )
    mean, stderr = estimate_objective(ensemble, cost)
    text = _canonical_text(doc)
    run_dir = _prepare_run_dir(out, text, cfg.seed, "simulate")
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


def cmd_verify(args) -> int:
    """Check a run directory's stored answer, and with --rerun re-solve it.

    The default checks read the answer alone: the stored gains or control
    table is evaluated once, and its objective, stationarity and
    bookkeeping are checked against the recorded history and summary.
    --rerun adds the reproduction checks, which compare the recorded
    history and the answer with a fresh solve from the stored config.
    """
    return _verify(Path(args.run_dir), args.rerun)


def _verify(run_dir: Path, rerun: bool) -> int:
    if not run_dir.is_dir():
        raise ProblemError(f"run directory not found: {run_dir}")
    config_path = run_dir / artifacts.CONFIG_FILE
    doc = read_document(config_path)
    cfg = parse_config(doc)
    family = _family(cfg.family)
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

    tables, objective = family.check_answer(cfg, run_dir, sweeps, checks)

    last = float(stored_iterations[-1])
    _check(
        checks,
        "final iteration objective matches answer",
        _objectives_match(last, objective),
        f"recorded {last!r}, answer {float(objective)!r}",
    )
    rises, _ = _descent_violations(stored_iterations, family.slack)
    detail = f"{len(rises)} rise(s) in {sweeps} sweeps" if sweeps else "one objective value"
    _check(checks, "objective descends monotonically", not rises, detail)
    summary_j = float(summary_j)
    _check(
        checks,
        "summary objective matches answer",
        _objectives_match(summary_j, objective),
        repr(summary_j),
    )

    if rerun:
        result = family.solve(cfg)
        fresh = family.rerun_tables(result)
        diff = max(float(np.abs(a - b).max()) for a, b in zip(tables, fresh))
        scale = 1.0 + float(np.abs(fresh[0]).max())
        _check(
            checks,
            family.table_check,
            diff <= ITERATION_MATCH_RTOL * scale,
            f"max deviation {diff:.3e}",
        )
        history = np.asarray(result.objective_history, dtype=float)
        same, detail = _iterations_match(stored_iterations, history)
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
    for family in _FAMILIES:
        name, tag = family.bundled, family.command.removeprefix("run-")
        doc = read_document(bundled_config_path(name))
        run_dir = out / name
        print(f"solving bundled {name} configuration ...")
        exit_codes[family.command], solved = _run(doc, run_dir, family)
        print(f"simulating {name} closed loop ...")
        mean, stderr, excluded = _simulate(
            doc, run_dir, out / f"{name}-sim", args.paths, None, family.mc_step(doc)
        )
        exit_codes[f"simulate-{tag}"] = EXIT_OK
        print(f"verifying {name} run ...")
        exit_codes[f"verify-{tag}"] = _verify(run_dir, False)
        reference = solved[family.mc_reference]
        summary[name] = {
            key: solved[key]
            for key in ("objective", "converged", "iterations") + family.repro_fields
        }
        summary[name].update(
            mc_mean=mean,
            mc_stderr=stderr,
            mc_gap=None if reference is None else abs(mean - reference),
            excluded_paths=excluded,
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
        _check_arguments(args)
        return args.func(args)
    except ProblemError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except (StabilityError, DivergenceError, SingularPrecisionError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
