"""Forward-backward sweep solvers for memory-limited partially observable
stochastic control.

Two solver backends share one problem model:

* :mod:`fbsweep.lqg` integrates the coupled Riccati system of the
  linear-quadratic-Gaussian case by alternating forward and backward
  sweeps over matrix ODEs.
* :mod:`fbsweep.gridpde` runs the same alternating sweeps on a
  finite-difference discretization of the coupled Fokker-Planck and
  Hamilton-Jacobi-Bellman equations for nonlinear problems.

:mod:`fbsweep.sdesim` provides Monte Carlo evaluation of any control law
by Euler-Maruyama simulation, and :mod:`fbsweep.verify` holds executable
checks of the mathematical identities the solvers rely on.
"""

__version__ = "0.1.0"

from fbsweep.core import (
    CostSpec,
    DivergenceError,
    ExtendedDynamics,
    Gaussian,
    GridSpec,
    LqgProblem,
    ProblemError,
    RawPoscSpec,
    SingularPrecisionError,
    StabilityError,
    assemble_extended_dynamics,
    validate_lqg,
)
from fbsweep.gridpde import (
    ControlField,
    DensityField,
    GridProblem,
    GridSweepResult,
    MonotonicityWarning,
    QuadraticControl,
    ValueField,
    build_generator,
    fbsm_grid,
    fp_step,
    grid_objective,
    hjb_step,
    minimize_conditional_hamiltonian,
    quadratic_grid_problem,
)
from fbsweep.lqg import (
    GainTrajectory,
    LqgControlLaw,
    LqgSweepResult,
    fbsm_lqg,
    inference_gain,
    lambda_rhs,
    lqg_objective,
    mu_rhs,
    pi_rhs,
    psi_rhs,
    solve_mu,
    solve_psi,
)
from fbsweep.sdesim import (
    GridControlLaw,
    PathEnsemble,
    estimate_objective,
    simulate_paths,
)
from fbsweep.verify import (
    conjugacy_residual,
    grid_problem_from_lqg,
    lemma1_check,
    lqg_grid_crosscheck,
    monotonicity_check,
    pmp_residual,
    sweep_pmp_residual,
)

__all__ = [
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
    "RawPoscSpec",
    "SingularPrecisionError",
    "StabilityError",
    "ValueField",
    "assemble_extended_dynamics",
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
    "lambda_rhs",
    "lemma1_check",
    "lqg_grid_crosscheck",
    "lqg_objective",
    "minimize_conditional_hamiltonian",
    "monotonicity_check",
    "mu_rhs",
    "pi_rhs",
    "pmp_residual",
    "psi_rhs",
    "quadratic_grid_problem",
    "simulate_paths",
    "solve_mu",
    "solve_psi",
    "sweep_pmp_residual",
    "validate_lqg",
    "__version__",
]
