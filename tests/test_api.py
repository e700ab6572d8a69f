"""The package's public names and what importing it loads."""

import ast
import importlib
import inspect
import subprocess
import sys
from pathlib import Path

import fbsweep

PUBLIC_NAMES = [
    "CostSpec",
    "DivergenceError",
    "ExtendedDynamics",
    "GainTrajectory",
    "Gaussian",
    "GridControlLaw",
    "GridProblem",
    "GridSpec",
    "GridSweepResult",
    "LqgControlLaw",
    "LqgProblem",
    "LqgSweepResult",
    "PathEnsemble",
    "ProblemError",
    "SingularPrecisionError",
    "StabilityError",
    "__version__",
    "build_generator",
    "estimate_objective",
    "fbsm_grid",
    "fbsm_lqg",
    "fp_step",
    "hjb_step",
    "inference_gain",
    "lqg_objective",
    "minimize_conditional_hamiltonian",
    "simulate_paths",
    "sweep_pmp_residual",
]

# Parameter names and defaults of every public callable, constructors
# included; None for the error types, which take an exception's arguments.
# An option is a visible diff here: a setting no caller outside the tests
# varies belongs in the code as a constant, not in a signature.
PUBLIC_SIGNATURES = {
    "CostSpec": "running_cost, terminal_cost",
    "DivergenceError": None,
    "ExtendedDynamics": "d_x, d_z, d_u, d_w, drift, diffusion, initial_density",
    "GainTrajectory": "times, psi, pi, lam, mu, d_x",
    "Gaussian": "mean, cov",
    "GridControlLaw": "values, grid, d_x",
    "GridProblem": (
        "d_x, d_z, b_matrix, r_diag, drift0, base_cost, diffusion, terminal_cost, "
        "initial_density, control_lower=None, control_upper=None"
    ),
    "GridSpec": "lower, upper, shape, n_t, horizon",
    "GridSweepResult": (
        "problem, grid, control, value, density, kept_slices, objective_history, "
        "converged, iterations, final_delta, mass_log, monotonicity_violations"
    ),
    "LqgControlLaw": "gains, problem",
    "LqgProblem": "A, B, sigma, Q, R, P, mu0, lambda0, horizon, dt, d_x, d_z",
    "LqgSweepResult": (
        "problem, gains, objective_history, converged, iterations, final_delta, "
        "monotonicity_violations, pi_gap, lambda_gap, min_lambda_eigenvalue"
    ),
    "PathEnsemble": (
        "times, states, final_states, valid, clamp_counts, seed, d_x, dt, _eval_u, _z_box, "
        "_d_u, _cost, _cost_totals"
    ),
    "ProblemError": None,
    "SingularPrecisionError": None,
    "StabilityError": None,
    "build_generator": "problem, grid, t, u_slice, stage=None",
    "estimate_objective": "ensemble, cost",
    "fbsm_grid": "problem, grid, max_iters=50, tol=1e-06, keep_nodes=()",
    "fbsm_lqg": "problem, pi0=None, max_iters=50, tol=1e-06, method='rk4'",
    "fp_step": "p_slice, gen, log=None",
    "hjb_step": "problem, grid, t, w_next, u_slice, gen, stage=None",
    "inference_gain": "lam, d_x",
    "lqg_objective": "problem, gains",
    "minimize_conditional_hamiltonian": (
        "problem, grid, t, cond, w_next, u_prev, defined, terms=None"
    ),
    "simulate_paths": "dynamics, control, horizon, dt, n_paths, seed, cost, history=False",
    "sweep_pmp_residual": "problem, grid, control",
}

# Public functions and classes defined in each module, the names
# bench/layers.py counts as code.public_names (70). A new public name,
# even one outside __all__, is a visible diff here.
MODULE_NAMES = {
    "artifacts": [
        "config_digest", "jsonable", "read_control_table", "read_csv", "read_gains",
        "read_grid_sidecar", "read_iterations", "read_json", "read_summary", "slice_nodes",
        "time_tag", "write_config_copy", "write_control_table", "write_csv",
        "write_field_slices", "write_gains", "write_grid_sidecar", "write_iterations",
        "write_json", "write_manifest", "write_objective", "write_paths", "write_summary",
    ],
    "cli": [
        "cmd_reproduce", "cmd_run_grid", "cmd_run_lqg", "cmd_simulate", "cmd_verify", "main",
    ],
    "config": [
        "LoadedConfig", "SolverSettings", "bundled_config_path", "obstacle_running_cost",
        "parse_config", "read_document", "simulation_cost", "simulation_dynamics",
    ],
    "core": [
        "CostSpec", "DivergenceError", "ExtendedDynamics", "Gaussian", "GridSpec",
        "LqgProblem", "ProblemError", "SingularPrecisionError", "StabilityError",
    ],
    "gridpde": [
        "DiscreteGenerator", "GridProblem", "GridSweepResult", "MassLog", "build_generator",
        "conditional_density", "conditional_hamiltonian", "control_to_grid", "fbsm_grid",
        "fp_step", "hjb_step", "minimize_conditional_hamiltonian",
    ],
    "lqg": [
        "GainTrajectory", "LqgControlLaw", "LqgSweepResult", "fbsm_lqg", "inference_gain",
        "lqg_objective",
    ],
    "sdesim": ["GridControlLaw", "PathEnsemble", "estimate_objective", "simulate_paths"],
    "verify": ["PmpReport", "sweep_pmp_residual"],
}


def _parameters(obj):
    """'name, name=default, ...' of obj's signature, or None without one."""
    try:
        params = inspect.signature(obj).parameters.values()
    except ValueError:
        return None
    empty = inspect.Parameter.empty
    return ", ".join(p.name if p.default is empty else f"{p.name}={p.default!r}" for p in params)


def test_public_names_are_pinned_and_resolve():
    assert sorted(fbsweep.__all__) == PUBLIC_NAMES
    for name in fbsweep.__all__:
        assert getattr(fbsweep, name) is not None, name


def test_public_signatures_are_pinned():
    callables = [name for name in fbsweep.__all__ if callable(getattr(fbsweep, name))]
    assert sorted(callables) == sorted(PUBLIC_SIGNATURES)
    for name in callables:
        assert _parameters(getattr(fbsweep, name)) == PUBLIC_SIGNATURES[name], name


def test_module_public_names_are_pinned():
    package = Path(fbsweep.__file__).parent
    found = {}
    for path in sorted(package.glob("*.py")):
        if path.stem.startswith("_"):
            continue
        mod = importlib.import_module(f"fbsweep.{path.stem}")
        found[path.stem] = sorted(
            name
            for name, obj in vars(mod).items()
            if not name.startswith("_")
            and (inspect.isfunction(obj) or inspect.isclass(obj))
            and obj.__module__ == mod.__name__
        )
    assert found == MODULE_NAMES


def test_every_pinned_name_has_a_production_reader():
    """Each public function and class is read, as a name or an attribute,
    by the package's code (its re-exports in __init__.py aside) or by the
    bench: a name only the tests read belongs with the tests."""
    package = Path(fbsweep.__file__).parent
    bench = Path(__file__).resolve().parents[1] / "bench"
    sources = [
        path
        for path in sorted(package.glob("*.py")) + sorted(bench.glob("*.py"))
        if path.name != "__init__.py"
    ]
    read = set()
    for path in sources:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    unread = sorted(
        name for names in MODULE_NAMES.values() for name in names if name not in read
    )
    assert unread == []


def test_import_loads_no_scipy():
    """The grid backend and the command line need numpy only: scipy, whose
    import costs about 0.4 s, is loaded by the lqg Lambda sweep alone (and
    by the tests)."""
    code = (
        "import sys, fbsweep, fbsweep.cli; "
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True
    )
    assert proc.stdout.strip() == "[]"
