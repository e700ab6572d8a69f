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
fbsweep.config). Every reader of an LqgProblem's coefficients goes
through LqgProblem.coefficients(t), which returns (A, B, sigma, Q, R) at
t as float 2-D arrays, or, for a reader that needs only some of them,
its _reading(name, t). Both models are checked once, when they are built,
and refuse a bad problem with ProblemError; an LqgProblem checks callable
coefficients at every time the sweeps read them, and its stages table
holds those readings for the sweeps. This module also holds the error
types, the Gaussian initial law, the grid geometry, and what both
solvers share: the outer loop of the alternating sweeps (_sweep) and the
rule their objective's descent is judged by (_descent_violations).

Conventions
-----------
* Extended-state coordinates are ordered (x_1..x_dx, z_1..z_dz).
* All dynamics/cost callables must accept batched inputs (arrays with
  leading sample dimensions) and be reentrant. A simulated diffusion is
  the exception: it is one (d_s, d_w) matrix per time, for every path.
"""

from __future__ import annotations

from dataclasses import dataclass
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
    loop stops after max_iters sweeps, or earlier, converged, once
    |J_k - J_{k-1}| <= tol * (1 + |J_k|) with tol > 0. tol == 0 runs the
    whole budget, even through sweeps that repeat J exactly, and never
    converges. A non-finite J raises DivergenceError.
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
        if tol > 0 and final_delta <= tol * (1.0 + abs(J)):
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
    the path simulator all go through it. A non-finite horizon or dt is
    refused like any other step that does not divide the horizon.
    """
    if not (np.isfinite(horizon) and np.isfinite(dt)):
        raise ProblemError(f"horizon {horizon} and dt {dt} must be finite")
    steps = horizon / dt
    if abs(steps - round(steps)) > 1e-9 or round(steps) < 1:
        raise ProblemError(f"horizon {horizon} is not a multiple of dt {dt}")
    return int(round(steps))


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
    (..., d_s) drifts; diffusion(t, s, u) returns one (d_s, d_w) matrix
    sigma, shared by every path at time t (the simulator refuses any
    other shape). The composite diffusion matrix D = sigma sigma^T must
    be symmetric positive semidefinite wherever it is evaluated.
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

    coefficients(t), or _reading(name, t) for a reader that needs only
    some of them, is how every solver and simulator reads A, B, sigma, Q
    and R. Each constant one is stored once, as a read-only float 2-D
    copy; a callable one is evaluated and normalized at each call.

    The problem is checked when it is built (_failed_checks): a bad one
    raises ProblemError with one "FAIL: <check> (<detail>)" line per
    failed check. stages tabulates what the sweeps read at their stage
    times, once per problem: at construction, from the check's readings,
    when a coefficient is callable, and on first use otherwise.
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
        for name in ("A", "B", "sigma", "Q", "R"):
            value = getattr(self, name)
            if not callable(value):
                object.__setattr__(self, name, _frozen(np.array(value, dtype=float, ndmin=2)))
        object.__setattr__(self, "P", np.atleast_2d(np.asarray(self.P, dtype=float)))
        object.__setattr__(self, "mu0", np.atleast_1d(np.asarray(self.mu0, dtype=float)))
        object.__setattr__(
            self, "lambda0", np.atleast_2d(np.asarray(self.lambda0, dtype=float))
        )
        failed, readings = self._failed_checks()
        if failed:
            raise ProblemError("invalid problem:\n" + "\n".join(failed))
        if readings is not None:
            self.__dict__["stages"] = _Stages(self, readings)

    def _failed_checks(self) -> tuple:
        """The FAIL lines of the checks this problem fails, and its readings.

        A bad time step (see _step_count) is refused before any
        coefficient is read. Constant coefficients are checked once. When
        any coefficient is a callable of t, every one is read at each time
        the sweeps read them, the 2n + 1 nodes and step midpoints, and its
        shape is checked at each; a callable Q or R is then checked for
        definiteness at each of those times, a constant one still once.
        The readings are returned in that case, None otherwise.
        """
        failed = []

        def check(name, ok, detail=""):
            if not ok:
                failed.append(f"FAIL: {name}" + (f" ({detail})" if detail else ""))

        check("horizon positive", self.horizon > 0, f"T={self.horizon}")
        step_ok = 0 < self.dt < self.horizon
        check("time step valid", step_ok, f"dt={self.dt}")
        n = None
        if step_ok:
            try:
                n = _step_count(self.horizon, self.dt)
            except ProblemError as exc:
                check("time step divides the horizon", False, str(exc))
        check("state/memory split positive", self.d_x > 0 and self.d_z > 0)
        if n is None:
            return failed, None

        varying = [callable(c) for c in (self.A, self.B, self.sigma, self.Q, self.R)]
        times = np.linspace(0.0, self.horizon, 2 * n + 1) if any(varying) else np.zeros(1)
        table = [self.coefficients(t) for t in times]
        d_s, d_u, d_w = self.d_s, table[0][1].shape[-1], table[0][2].shape[-1]
        shapes = ((d_s, d_s), (d_s, d_u), (d_s, d_w), (d_s, d_s), (d_u, d_u))
        shapes_ok = all(c.shape == shape for row in table for c, shape in zip(row, shapes))
        check("matrix shapes consistent", shapes_ok)
        if not shapes_ok:
            return failed, None

        checks = ((3, "Q positive semidefinite", False), (4, "R positive definite", True))
        for index, name, strict in checks:
            rows = table if varying[index] else table[:1]
            eigs = _eig_min(np.stack([row[index] for row in rows]))
            bad = eigs <= 0.0 if strict else eigs < -1e-10
            k = int(np.argmax(bad))
            check(name, not bad.any(), f"smallest eigenvalue {eigs[k]:.3g} at t={times[k]:.6g}")
        # the shape first: the eigenvalues of a non-square P are not defined
        check("P shape", self.P.shape == (d_s, d_s))
        if self.P.shape == (d_s, d_s):
            check("P positive semidefinite", _eig_min(self.P) >= -1e-10)
        check("mu0 shape", self.mu0.shape == (d_s,))
        check(
            "Lambda0 positive definite",
            self.lambda0.shape == (d_s, d_s) and _eig_min(self.lambda0) > 0,
        )
        return failed, table if any(varying) else None

    def coefficients(self, t: float) -> tuple:
        """(A, B, sigma, Q, R) at time t, each a float 2-D array."""
        return tuple(self._reading(name, t) for name in ("A", "B", "sigma", "Q", "R"))

    def _reading(self, name: str, t: float) -> np.ndarray:
        """Coefficient name (one of A, B, sigma, Q, R) at time t, as a
        float 2-D array, for a reader that needs only some of them."""
        c = getattr(self, name)
        return np.atleast_2d(np.asarray(c(t), dtype=float)) if callable(c) else c

    @cached_property
    def stages(self) -> "_Stages":
        return _Stages(self)

    @property
    def d_s(self) -> int:
        return self.d_x + self.d_z

    @property
    def d_u(self) -> int:
        return self._reading("B", 0.0).shape[1]

    @property
    def n_steps(self) -> int:
        return _step_count(self.horizon, self.dt)

    def initial_density(self) -> Gaussian:
        return Gaussian(self.mu0, np.linalg.inv(self.lambda0))


class _Stages:
    """An LqgProblem's coefficients at the points the sweeps read.

    Index 2i is node t_i (node_times[i]) and index 2i+1 the midpoint of
    step i; times holds all 2n + 1 of them. Holds A and Q, and the only
    other combinations the sweep equations need: M = B R^{-1} B^T and
    SS = sigma sigma^T. readings, when given, are the problem's
    (A, B, sigma, Q, R) at each of times, as its check took them;
    otherwise they are read here.
    """

    def __init__(self, problem: LqgProblem, readings=None):
        n = problem.n_steps
        self.n = n
        self.dt = problem.horizon / n
        self.times = np.linspace(0.0, problem.horizon, 2 * n + 1)
        self.node_times = np.linspace(0.0, problem.horizon, n + 1)
        if readings is None:
            readings = map(problem.coefficients, self.times)
        self.A, B, sig, self.Q, R = (np.stack(c) for c in zip(*readings))
        self.M = np.einsum("tij,tjk,tlk->til", B, np.linalg.inv(R), B)
        self.SS = np.einsum("tij,tkj->tik", sig, sig)


def _eig_min(matrix: np.ndarray) -> np.ndarray:
    """Smallest eigenvalue of the symmetric part of each matrix in a stack."""
    sym = (matrix + np.swapaxes(matrix, -1, -2)) / 2.0
    return np.linalg.eigvalsh(sym).min(axis=-1)


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
    def axes(self) -> tuple:
        return tuple(
            _frozen(np.linspace(self.lower[i], self.upper[i], self.shape[i]))
            for i in range(self.dim)
        )

    @cached_property
    def _mesh(self) -> tuple:
        return tuple(_frozen(m) for m in np.meshgrid(*self.axes, indexing="ij"))

    def mesh(self) -> tuple:
        return self._mesh

    def times(self) -> np.ndarray:
        return np.linspace(0.0, self.horizon, self.n_t + 1)

    def memory_axes(self, d_x: int) -> tuple:
        return self.axes[d_x:]

    def memory_shape(self, d_x: int) -> tuple:
        return self.shape[d_x:]


def _frozen(arr: np.ndarray) -> np.ndarray:
    arr.flags.writeable = False
    return arr
