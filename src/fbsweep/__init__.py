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
derives from the solver's model, and :mod:`fbsweep.verify` holds the
check ``fbsweep verify`` runs on a stored grid control: the stationarity
of its conditional-Hamiltonian minimization.
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
)
from fbsweep.gridpde import GridProblem, GridSweepResult, fbsm_grid
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
from fbsweep.verify import sweep_pmp_residual

__all__ = [
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
    "estimate_objective",
    "fbsm_grid",
    "fbsm_lqg",
    "inference_gain",
    "lqg_objective",
    "simulate_paths",
    "sweep_pmp_residual",
    "__version__",
]
