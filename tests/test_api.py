"""The package's public names and what importing it loads."""

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
    "monotonicity_check",
    "pmp_residual",
    "simulate_paths",
    "sweep_pmp_residual",
    "validate_lqg",
]


def test_public_names_are_pinned_and_resolve():
    assert sorted(fbsweep.__all__) == PUBLIC_NAMES
    for name in fbsweep.__all__:
        assert getattr(fbsweep, name) is not None, name


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
