"""The package's public names."""

import fbsweep

PUBLIC_NAMES = [
    "ControlField",
    "CostSpec",
    "DensityField",
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
    "MonotonicityWarning",
    "PathEnsemble",
    "ProblemError",
    "QuadraticControl",
    "SingularPrecisionError",
    "StabilityError",
    "ValueField",
    "__version__",
    "build_generator",
    "conjugacy_residual",
    "estimate_objective",
    "fbsm_grid",
    "fbsm_lqg",
    "fp_step",
    "grid_objective",
    "grid_problem_from_lqg",
    "hjb_step",
    "inference_gain",
    "lemma1_check",
    "lqg_grid_crosscheck",
    "lqg_objective",
    "minimize_conditional_hamiltonian",
    "monotonicity_check",
    "pmp_residual",
    "quadratic_grid_problem",
    "simulate_paths",
    "sweep_pmp_residual",
    "validate_lqg",
]


def test_public_names_are_pinned_and_resolve():
    assert sorted(fbsweep.__all__) == PUBLIC_NAMES
    for name in fbsweep.__all__:
        assert getattr(fbsweep, name) is not None, name
