"""Forward-backward sweep solvers for memory-limited partially observable
stochastic control.

Two solver backends, each with one problem model that feeds both its
solver and the Monte Carlo simulator:

* :mod:`fbsweep.lqg` integrates the coupled Riccati system of the
  linear-quadratic-Gaussian case (model: :class:`LqgProblem`) by
  alternating forward and backward sweeps over matrix ODEs.
* :mod:`fbsweep.gridpde` runs the same alternating sweeps on a
  finite-difference discretization of the coupled Fokker-Planck and
  Hamilton-Jacobi-Bellman equations for nonlinear problems (model:
  :class:`GridProblem`).

:mod:`fbsweep.sdesim` provides Monte Carlo evaluation of any control law
by Euler-Maruyama simulation, on dynamics that :mod:`fbsweep.config`
derives from the solver's model, and :mod:`fbsweep.verify` holds
executable checks of the mathematical identities the solvers rely on.
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
    SingularPrecisionError,
    StabilityError,
    validate_lqg,
)
from fbsweep.gridpde import (
    ControlField,
    DensityField,
    GridProblem,
    GridSweepResult,
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
    lqg_objective,
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
    "PathEnsemble",
    "ProblemError",
    "QuadraticControl",
    "SingularPrecisionError",
    "StabilityError",
    "ValueField",
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
    "__version__",
]
