"""Problem models for memory-limited partially observable stochastic control.

The controller observes a low-dimensional memory z instead of the state x.
Stacking state and memory gives the extended state s = (x, z), which evolves
as an ordinary diffusion

    ds = b(t, s, u) dt + sigma(t, s, u) dw,

while the control is restricted to functions u(t, z) of time and memory.
Each backend has one problem model: LqgProblem (below) for the Riccati
backend and GridProblem (fbsweep.gridpde) for the finite-difference
backend. That model feeds both its solver and the Monte Carlo simulator,
whose ExtendedDynamics and CostSpec records are derived from it (see
fbsweep.config). This module also holds the error types, the Gaussian
initial law, LQG validation, the grid geometry, and what both solvers
share: the outer loop of the alternating sweeps (_sweep) and the rule
their objective's descent is judged by (_descent_violations).

Conventions
-----------
* Extended-state coordinates are ordered (x_1..x_dx, z_1..z_dz).
* All dynamics/cost callables must accept batched inputs (arrays with
  leading sample dimensions) and be reentrant.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable

import numpy as np


class ProblemError(ValueError):
    """Invalid problem definition or configuration."""


class StabilityError(RuntimeError):
    """A numerical stability bound was violated."""


class DivergenceError(RuntimeError):
    """A solver produced non-finite values."""


class SingularPrecisionError(RuntimeError):
    """The state block of a precision matrix is singular."""


def _sweep(j0: float, half_sweep: Callable, max_iters: int, tol: float) -> tuple:
    """The outer loop of a forward-backward sweep solver.

    j0 is the objective of the initial iterate. Sweep k (k = 0, 1, ...)
    is half_sweep(k, backward), backward for even k and forward for odd
    k; it updates the caller's iterate and returns its objective. The
    loop stops once |J_k - J_{k-1}| <= tol * (1 + |J_k|) or after
    max_iters sweeps, and raises DivergenceError on a non-finite J.
    Returns (history, converged, iterations, final_delta).
    """
    history = [j0]
    converged = False
    final_delta = np.inf
    for k in range(max_iters):
        J = half_sweep(k, k % 2 == 0)
        if not np.isfinite(J):
            raise DivergenceError(f"objective non-finite at iteration {k + 1}")
        final_delta = abs(history[-1] - J)
        history.append(J)
        if final_delta <= tol * (1.0 + abs(J)):
            converged = True
            break
    return np.asarray(history), converged, len(history) - 1, float(final_delta)


def _descent_violations(history, slack_rel: float) -> tuple:
    """Where an objective history breaks monotone descent, and by how much.

    The descent rule is J_k <= J_{k-1} + slack_rel * (1 + |J_{k-1}|).
    Returns the (k, J_{k-1}, J_k) of every k that breaks it and the
    largest excess over the bound (0.0 when none does).
    """
    history = np.asarray(history, dtype=float)
    prev, cur = history[:-1], history[1:]
    excess = cur - prev - slack_rel * (1.0 + np.abs(prev))
    bad = np.flatnonzero(excess > 0.0)
    violations = [(int(k) + 1, float(prev[k]), float(cur[k])) for k in bad]
    return violations, float(excess[bad].max()) if bad.size else 0.0


def _step_count(horizon: float, dt: float) -> int:
    """The number of steps of size dt in horizon; dt must divide it to 1e-9.

    The one rule for a time step: config documents, --dt overrides and
    the path simulator all go through it.
    """
    steps = horizon / dt
    if abs(steps - round(steps)) > 1e-9 or round(steps) < 1:
        raise ProblemError(f"horizon {horizon} is not a multiple of dt {dt}")
    return int(round(steps))


def as_time_fn(value):
    """Wrap a constant matrix/vector as a function of time.

    Callables are passed through; everything else is captured as a constant
    array evaluated lazily.
    """
    if callable(value):
        return value
    arr = np.asarray(value, dtype=float)
    return lambda t: arr


@dataclass(frozen=True)
class Gaussian:
    """Multivariate normal used for initial densities.

    Provides both a pointwise density (for grid solvers) and a sampler
    (for Monte Carlo), so one object serves both backends.
    """

    mean: np.ndarray
    cov: np.ndarray

    def __post_init__(self):
        mean = np.atleast_1d(np.asarray(self.mean, dtype=float))
        cov = np.atleast_2d(np.asarray(self.cov, dtype=float))
        if cov.shape != (mean.size, mean.size):
            raise ProblemError(
                f"covariance shape {cov.shape} does not match mean size {mean.size}"
            )
        if np.linalg.eigvalsh(cov).min() <= 0:
            raise ProblemError("covariance must be positive definite")
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "cov", cov)

    @property
    def dim(self) -> int:
        return self.mean.size

    def density(self, points: np.ndarray) -> np.ndarray:
        """Evaluate the pdf at points of shape (..., dim)."""
        pts = np.asarray(points, dtype=float)
        diff = pts - self.mean
        prec = np.linalg.inv(self.cov)
        quad = np.einsum("...i,ij,...j->...", diff, prec, diff)
        norm = np.sqrt((2.0 * np.pi) ** self.dim * np.linalg.det(self.cov))
        return np.exp(-0.5 * quad) / norm

    def sample(self, rng: np.random.Generator, n: int) -> np.ndarray:
        return rng.multivariate_normal(self.mean, self.cov, size=n)


@dataclass(frozen=True)
class ExtendedDynamics:
    """Dynamics of the extended state s = (x, z).

    drift(t, s, u) maps (..., d_s) states and (..., d_u) controls to
    (..., d_s) drifts; diffusion(t, s, u) returns either a constant
    (d_s, d_w) matrix or a batched (..., d_s, d_w) array. The composite
    diffusion matrix D = sigma sigma^T must be symmetric positive
    semidefinite wherever it is evaluated.
    """

    d_x: int
    d_z: int
    d_u: int
    d_w: int
    drift: Callable
    diffusion: Callable
    initial_density: Gaussian

    @property
    def d_s(self) -> int:
        return self.d_x + self.d_z


@dataclass(frozen=True)
class CostSpec:
    """Running cost f(t, s, u) and terminal cost g(s), both scalar fields."""

    running_cost: Callable
    terminal_cost: Callable


@dataclass(frozen=True)
class LqgProblem:
    """Linear dynamics with quadratic cost over the extended state.

        ds = (A(t) s + B(t) u) dt + sigma(t) dw
        J[u] = E[ int_0^T (s'Q(t)s + u'R(t)u) dt + s_T' P s_T ]

    with Gaussian initial density N(mu0, Lambda0^{-1}). A, B, sigma, Q, R
    may be constant arrays or callables of t; P is constant. The first d_x
    coordinates of s are the state, the remaining d_z the memory.
    """

    A: object
    B: object
    sigma: object
    Q: object
    R: object
    P: np.ndarray
    mu0: np.ndarray
    lambda0: np.ndarray
    horizon: float
    dt: float
    d_x: int
    d_z: int

    def __post_init__(self):
        object.__setattr__(self, "P", np.atleast_2d(np.asarray(self.P, dtype=float)))
        object.__setattr__(self, "mu0", np.atleast_1d(np.asarray(self.mu0, dtype=float)))
        object.__setattr__(
            self, "lambda0", np.atleast_2d(np.asarray(self.lambda0, dtype=float))
        )

    @property
    def d_s(self) -> int:
        return self.d_x + self.d_z

    @property
    def d_u(self) -> int:
        return np.atleast_2d(np.asarray(as_time_fn(self.B)(0.0))).shape[1]

    @property
    def n_steps(self) -> int:
        return int(round(self.horizon / self.dt))

    def times(self) -> np.ndarray:
        n = self.n_steps
        return np.linspace(0.0, self.horizon, n + 1)

    def initial_density(self) -> Gaussian:
        return Gaussian(self.mu0, np.linalg.inv(self.lambda0))


def _eig_min(matrix: np.ndarray) -> float:
    return float(np.linalg.eigvalsh((matrix + matrix.T) / 2.0).min())


@dataclass
class ValidationReport:
    """Outcome of structural checks on a problem definition."""

    checks: list = field(default_factory=list)

    def add(self, name: str, ok: bool, detail: str = ""):
        self.checks.append((name, bool(ok), detail))

    @property
    def ok(self) -> bool:
        return all(ok for _, ok, _ in self.checks)

    def failures(self) -> list:
        return [(n, d) for n, ok, d in self.checks if not ok]

    def __str__(self) -> str:
        lines = []
        for name, ok, detail in self.checks:
            status = "pass" if ok else "FAIL"
            suffix = f" ({detail})" if detail else ""
            lines.append(f"{status}: {name}{suffix}")
        return "\n".join(lines)


def validate_lqg(problem: LqgProblem) -> ValidationReport:
    """Check definiteness and dimension conditions of an LQG problem.

    Returns a report rather than raising; solver entry points refuse
    problems whose report fails.
    """
    rep = ValidationReport()
    d_s = problem.d_s
    try:
        sample_ts = [0.0, problem.horizon / 2.0, problem.horizon]
    except TypeError:
        sample_ts = [0.0]

    rep.add("horizon positive", problem.horizon > 0, f"T={problem.horizon}")
    rep.add(
        "time step valid",
        0 < problem.dt < problem.horizon,
        f"dt={problem.dt}",
    )
    rep.add("state/memory split positive", problem.d_x > 0 and problem.d_z > 0)

    A_f, B_f = as_time_fn(problem.A), as_time_fn(problem.B)
    s_f, Q_f, R_f = as_time_fn(problem.sigma), as_time_fn(problem.Q), as_time_fn(problem.R)
    shapes_ok = True
    for t in sample_ts:
        A = np.atleast_2d(np.asarray(A_f(t), dtype=float))
        B = np.atleast_2d(np.asarray(B_f(t), dtype=float))
        sig = np.atleast_2d(np.asarray(s_f(t), dtype=float))
        Q = np.atleast_2d(np.asarray(Q_f(t), dtype=float))
        R = np.atleast_2d(np.asarray(R_f(t), dtype=float))
        if A.shape != (d_s, d_s) or Q.shape != (d_s, d_s) or sig.shape[0] != d_s:
            shapes_ok = False
        if B.shape[0] != d_s or R.shape != (B.shape[1], B.shape[1]):
            shapes_ok = False
    rep.add("matrix shapes consistent", shapes_ok)
    if not shapes_ok:
        return rep

    q_psd = all(_eig_min(np.atleast_2d(np.asarray(Q_f(t), float))) >= -1e-10 for t in sample_ts)
    rep.add("Q positive semidefinite", q_psd)
    r_pd = all(_eig_min(np.atleast_2d(np.asarray(R_f(t), float))) > 0 for t in sample_ts)
    rep.add("R positive definite", r_pd)
    rep.add("P positive semidefinite", _eig_min(problem.P) >= -1e-10)
    rep.add("P shape", problem.P.shape == (d_s, d_s))
    rep.add("mu0 shape", problem.mu0.shape == (d_s,))
    rep.add(
        "Lambda0 positive definite",
        problem.lambda0.shape == (d_s, d_s) and _eig_min(problem.lambda0) > 0,
    )
    return rep


@dataclass(frozen=True)
class GridSpec:
    """Uniform node-centered grid over a box, plus the time grid.

    lower/upper are per-dimension box bounds, shape the number of grid
    nodes per dimension (at least 2), n_t the number of time steps over
    [0, horizon]. Quadrature weights are uniform: each node owns one cell
    of volume prod(spacing).

    lower/upper are read-only copies of the inputs, so the spacing, axes
    and mesh are computed once per grid and returned as read-only arrays.
    """

    lower: np.ndarray
    upper: np.ndarray
    shape: tuple
    n_t: int
    horizon: float

    def __post_init__(self):
        lower = _frozen(np.array(self.lower, dtype=float, ndmin=1))
        upper = _frozen(np.array(self.upper, dtype=float, ndmin=1))
        shape = tuple(int(n) for n in np.atleast_1d(self.shape))
        object.__setattr__(self, "lower", lower)
        object.__setattr__(self, "upper", upper)
        object.__setattr__(self, "shape", shape)
        if not (lower.shape == upper.shape and len(shape) == lower.size):
            raise ProblemError("grid bounds and shape must have matching dimensions")
        if not np.all(upper > lower):
            raise ProblemError("grid bounds must satisfy lower < upper")
        if any(n < 2 for n in shape):
            raise ProblemError("each grid dimension needs at least 2 nodes")
        if self.n_t < 1:
            raise ProblemError("n_t must be at least 1")
        if self.horizon <= 0:
            raise ProblemError("horizon must be positive")

    @property
    def dim(self) -> int:
        return len(self.shape)

    @cached_property
    def spacing(self) -> np.ndarray:
        return _frozen((self.upper - self.lower) / (np.asarray(self.shape) - 1))

    @cached_property
    def cell_volume(self) -> float:
        return float(np.prod(self.spacing))

    @property
    def dt(self) -> float:
        return self.horizon / self.n_t

    @cached_property
    def _axes(self) -> tuple:
        return tuple(
            _frozen(np.linspace(self.lower[i], self.upper[i], self.shape[i]))
            for i in range(self.dim)
        )

    @cached_property
    def _mesh(self) -> tuple:
        return tuple(_frozen(m) for m in np.meshgrid(*self._axes, indexing="ij"))

    def axes(self) -> list:
        return list(self._axes)

    def mesh(self) -> tuple:
        return self._mesh

    def times(self) -> np.ndarray:
        return np.linspace(0.0, self.horizon, self.n_t + 1)

    def memory_axes(self, d_x: int) -> list:
        return self.axes()[d_x:]

    def memory_shape(self, d_x: int) -> tuple:
        return self.shape[d_x:]


def _frozen(arr: np.ndarray) -> np.ndarray:
    arr.flags.writeable = False
    return arr
