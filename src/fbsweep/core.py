"""Problem models for memory-limited partially observable stochastic control.

The controller observes a low-dimensional memory z instead of the state x.
Stacking state and memory gives the extended state s = (x, z), which evolves
as an ordinary diffusion

    ds = b(t, s, u) dt + sigma(t, s, u) dw,

while the control is restricted to functions u(t, z) of time and memory.
This module holds the raw primitives (state, observation and memory
equations), their assembly into one extended-state dynamics record, the
linear-quadratic-Gaussian problem record used by the ODE backend, and the
grid geometry used by the finite-difference backend.

Conventions
-----------
* Extended-state coordinates are ordered (x_1..x_dx, z_1..z_dz).
* Combined controls are ordered (u, v): state controls first, memory
  controls second.
* All dynamics/cost callables must accept batched inputs (arrays with
  leading sample dimensions) and be reentrant.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Optional

import numpy as np


class ProblemError(ValueError):
    """Invalid problem definition or configuration."""


class StabilityError(RuntimeError):
    """A numerical stability bound was violated."""


class DivergenceError(RuntimeError):
    """A solver produced non-finite values."""


class SingularPrecisionError(RuntimeError):
    """The state block of a precision matrix is singular."""


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

    def product(self, other: "Gaussian") -> "Gaussian":
        """Independent product: block-diagonal covariance."""
        mean = np.concatenate([self.mean, other.mean])
        cov = np.zeros((self.dim + other.dim, self.dim + other.dim))
        cov[: self.dim, : self.dim] = self.cov
        cov[self.dim :, self.dim :] = other.cov
        return Gaussian(mean, cov)


@dataclass(frozen=True)
class RawPoscSpec:
    """Raw primitives of a partially observable control problem.

    The state x, observation y and memory z evolve as

        dx = b(t, x, u) dt + sigma(t, x, u) dw
        dy = h(t, x) dt + gamma(t) dnu
        dz = c(t, z, v) dt + kappa(t, z, v) dy + eta(t, z, v) dxi

    where u controls the state, v controls the memory, and (w, nu, xi) are
    independent Wiener processes. The observation enters the memory only
    through the kappa * dy coupling, so the initial observation value never
    appears in the model.

    Shape contract (batched, leading dims allowed):
        b: (..., d_x), sigma: (d_x, d_wx) or (..., d_x, d_wx)
        h: (..., d_y), gamma: (d_y, d_y)
        c: (..., d_z), kappa: (d_z, d_y) or (..., d_z, d_y)
        eta: (d_z, d_we) or None for no independent memory noise
    """

    d_x: int
    d_y: int
    d_z: int
    d_u: int
    d_v: int
    state_drift: Callable
    state_diffusion: Callable
    observation_drift: Callable
    observation_noise: Callable
    memory_drift: Callable
    observation_gain: Callable
    memory_noise: Optional[Callable]
    initial_state: Gaussian
    initial_memory: Gaussian

    def __post_init__(self):
        for name in ("d_x", "d_y", "d_z", "d_u"):
            if getattr(self, name) <= 0:
                raise ProblemError(f"{name} must be positive")
        if self.d_v < 0:
            raise ProblemError("d_v must be nonnegative")
        if self.initial_state.dim != self.d_x:
            raise ProblemError("initial_state dimension does not match d_x")
        if self.initial_memory.dim != self.d_z:
            raise ProblemError("initial_memory dimension does not match d_z")


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


def assemble_extended_dynamics(raw: RawPoscSpec) -> ExtendedDynamics:
    """Stack the raw primitives into one extended-state dynamics record.

    The extended drift is [b(t,x,u); c(t,z,v) + kappa(t,z,v) h(t,x)] and the
    extended diffusion is the block matrix

        [ sigma      0          0   ]
        [   0    kappa*gamma   eta  ],

    acting on the stacked noise (w, nu, xi). The initial density is the
    independent product of the state and memory initial densities. The
    stacked control is (u, v).
    """
    d_x, d_y, d_z = raw.d_x, raw.d_y, raw.d_z
    d_u, d_v = raw.d_u, raw.d_v

    t0 = 0.0
    x0 = np.zeros((1, d_x))
    z0 = np.zeros((1, d_z))
    u0 = np.zeros((1, d_u))
    v0 = np.zeros((1, max(d_v, 1)))[:, :d_v]

    h0 = np.asarray(raw.observation_drift(t0, x0), dtype=float)
    if h0.shape[-1] != d_y:
        raise ProblemError(
            f"observation_drift returns {h0.shape[-1]} components, expected d_y={d_y}"
        )
    gamma0 = np.atleast_2d(np.asarray(raw.observation_noise(t0), dtype=float))
    if gamma0.shape != (d_y, d_y):
        raise ProblemError(
            f"observation_noise must be ({d_y}, {d_y}), got {gamma0.shape}"
        )
    kappa0 = np.asarray(raw.observation_gain(t0, z0, v0), dtype=float)
    if kappa0.shape[-2:] != (d_z, d_y):
        raise ProblemError(
            f"observation_gain must end in ({d_z}, {d_y}), got {kappa0.shape}"
        )
    sigma0 = np.asarray(raw.state_diffusion(t0, x0, u0), dtype=float)
    d_wx = sigma0.shape[-1]
    if raw.memory_noise is not None:
        eta0 = np.asarray(raw.memory_noise(t0, z0, v0), dtype=float)
        if eta0.shape[-2] != d_z:
            raise ProblemError(f"memory_noise must have {d_z} rows, got {eta0.shape}")
        d_we = eta0.shape[-1]
    else:
        d_we = 0
    d_w = d_wx + d_y + d_we

    def drift(t, s, uv):
        s = np.asarray(s, dtype=float)
        uv = np.asarray(uv, dtype=float)
        x, z = s[..., :d_x], s[..., d_x:]
        u, v = uv[..., :d_u], uv[..., d_u:]
        bx = np.asarray(raw.state_drift(t, x, u), dtype=float)
        cz = np.asarray(raw.memory_drift(t, z, v), dtype=float)
        h = np.asarray(raw.observation_drift(t, x), dtype=float)
        kappa = np.asarray(raw.observation_gain(t, z, v), dtype=float)
        coupled = np.matmul(kappa, h[..., None])[..., 0]
        return np.concatenate(
            [np.broadcast_to(bx, x.shape), np.broadcast_to(cz + coupled, z.shape)],
            axis=-1,
        )

    def diffusion(t, s, uv):
        s = np.asarray(s, dtype=float)
        uv = np.asarray(uv, dtype=float)
        x, z = s[..., :d_x], s[..., d_x:]
        u, v = uv[..., :d_u], uv[..., d_u:]
        sigma = np.asarray(raw.state_diffusion(t, x, u), dtype=float)
        gamma = np.atleast_2d(np.asarray(raw.observation_noise(t), dtype=float))
        kappa = np.asarray(raw.observation_gain(t, z, v), dtype=float)
        kg = np.matmul(kappa, gamma)
        batch = np.broadcast_shapes(
            sigma.shape[:-2] if sigma.ndim > 2 else (),
            kg.shape[:-2] if kg.ndim > 2 else (),
            s.shape[:-1],
        )
        out = np.zeros(batch + (d_x + d_z, d_w))
        out[..., :d_x, :d_wx] = sigma
        out[..., d_x:, d_wx : d_wx + d_y] = kg
        if raw.memory_noise is not None:
            eta = np.asarray(raw.memory_noise(t, z, v), dtype=float)
            out[..., d_x:, d_wx + d_y :] = eta
        return out

    return ExtendedDynamics(
        d_x=d_x,
        d_z=d_z,
        d_u=d_u + d_v,
        d_w=d_w,
        drift=drift,
        diffusion=diffusion,
        initial_density=raw.initial_state.product(raw.initial_memory),
    )


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
