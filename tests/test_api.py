"""The package's public names and what importing it loads."""

import inspect
import subprocess
import sys

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
    "conjugacy_residual",
    "estimate_objective",
    "fbsm_grid",
    "fbsm_lqg",
    "fp_step",
    "grid_problem_from_lqg",
    "hjb_step",
    "inference_gain",
    "lemma1_check",
    "lqg_grid_crosscheck",
    "lqg_objective",
    "minimize_conditional_hamiltonian",
    "pmp_residual",
    "simulate_paths",
    "sweep_pmp_residual",
    "validate_lqg",
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
        "times, states, valid, clamp_counts, seed, d_x, dt, _eval_u, _z_box, _d_u, _cost, "
        "_cost_totals"
    ),
    "ProblemError": None,
    "SingularPrecisionError": None,
    "StabilityError": None,
    "build_generator": "problem, grid, t, u_slice",
    "conjugacy_residual": "gen, w, p",
    "estimate_objective": "ensemble, cost",
    "fbsm_grid": "problem, grid, max_iters=50, tol=1e-06, keep_nodes=()",
    "fbsm_lqg": "problem, pi0=None, max_iters=50, tol=1e-06, method='rk4'",
    "fp_step": "p_slice, gen, log=None",
    "grid_problem_from_lqg": "problem, control_lower=None, control_upper=None",
    "hjb_step": "problem, grid, t, w_next, u_slice, gen",
    "inference_gain": "lam, d_x",
    "lemma1_check": "problem, grid, u, u_prime, pairing='continuous'",
    "lqg_grid_crosscheck": (
        "problem, grid, control_lower=None, control_upper=None, lqg_max_iters=200, "
        "grid_max_iters=50, tol=1e-09, grid_tol=1e-07, min_coverage=4.0"
    ),
    "lqg_objective": "problem, gains",
    "minimize_conditional_hamiltonian": "problem, grid, t, cond, w_next, u_prev, defined",
    "pmp_residual": "problem, grid, u, p, w",
    "simulate_paths": "dynamics, control, horizon, dt, n_paths, seed, cost",
    "sweep_pmp_residual": "problem, grid, control",
    "validate_lqg": "problem",
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
