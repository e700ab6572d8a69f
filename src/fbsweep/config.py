"""JSON problem configurations for the command-line front end.

One JSON document describes one problem instance plus solver settings.
The "family" field selects the parametric form:

* "lqg": linear dynamics, quadratic costs, Gaussian initial law --
  matrices row-major, solved by the Riccati sweep backend.
* "obstacle-grid": scalar state with direct control, scalar noisy
  integrator memory, time-windowed obstacle running cost plus quadratic
  control and terminal costs -- solved by the finite-difference backend.

Anything not expressible in these forms goes through the library API.
"""

from __future__ import annotations

import json
import math
import numbers
from dataclasses import dataclass
from pathlib import Path
from typing import List, Optional

import numpy as np

from fbsweep.core import (
    CostSpec,
    ExtendedDynamics,
    Gaussian,
    GridSpec,
    LqgProblem,
    ProblemError,
    _reading_file,
)
from fbsweep.gridpde import GridProblem, _refuse_off_diagonal

FAMILIES = ("lqg", "obstacle-grid")
DEFAULT_SLICE_FRACTIONS = (0.0, 0.25, 0.5, 0.75, 1.0)
# Values a solver setting may take, checked for every family at load.
# Each names what always runs: the lqg sweeps step by RK4, and the grid
# model's control update is the exact minimizer. Documents may spell
# them out, so they are accepted and not stored.
SOLVER_CHOICES = {"method": ("rk4",), "minimizer": ("auto", "exact")}


@dataclass
class SolverSettings:
    """Iteration budget and convergence settings common to both backends."""

    max_iters: int = 50
    tol: float = 1e-6


@dataclass
class LoadedConfig:
    """A parsed configuration plus the objects it describes."""

    family: str
    solver: SolverSettings
    seed: int
    lqg_problem: Optional[LqgProblem] = None
    grid_problem: Optional[GridProblem] = None
    grid: Optional[GridSpec] = None
    slice_times: Optional[List[float]] = None


def _require(doc: dict, key: str, context: str):
    if key not in doc:
        raise ProblemError(f"config is missing {context}'{key}'")
    return doc[key]


def _is_number(value) -> bool:
    """Whether value is a JSON number; a boolean is not one."""
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


def _matrix(doc: dict, key: str, shape=None) -> np.ndarray:
    """A number, or nested lists of numbers, as a float array.

    Every entry must be a finite JSON number, as for _scalar: a string,
    a boolean, null or a ragged row is a ProblemError, not a value to
    convert.
    """
    value = _require(doc, key, "")
    bad = [v for v in np.asarray(value, dtype=object).ravel() if not _is_number(v)]
    if bad:
        raise ProblemError(f"config field {key!r} is not numeric: {bad[0]!r}")
    arr = np.asarray(value, dtype=float)
    if shape is not None and arr.shape != shape:
        raise ProblemError(f"config field {key!r} must have shape {shape}, got {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ProblemError(f"config field {key!r} contains non-finite entries")
    return arr


def _scalar(doc: dict, key: str, kind=float, context: str = "", default=None):
    """A number field as kind: float, or int for counts and seeds.

    A missing field takes default, or is an error when default is None.
    Anything but a finite JSON number (a string, null, a list, a
    boolean), or a fraction where kind is int, is a ProblemError.
    """
    value = _require(doc, key, context) if default is None else doc.get(key, default)
    ok = _is_number(value) and math.isfinite(value)
    if not ok or (kind is int and value != int(value)):
        what = "integer" if kind is int else "number"
        raise ProblemError(f"config field {context}{key} must be a finite {what}, got {value!r}")
    return kind(value)


def _seed(doc: dict) -> int:
    """The Monte Carlo root seed: a nonnegative integer, 0 when absent."""
    seed = _scalar(doc, "seed", int, default=0)
    if seed < 0:
        raise ProblemError(f"config field seed must be nonnegative, got {seed}")
    return seed


def _section(doc: dict, key: str, default=None) -> dict:
    """doc[key], which must be a JSON object; default when it is absent,
    and a missing key is refused only without one."""
    value = _require(doc, key, "") if default is None else doc.get(key, default)
    if not isinstance(value, dict):
        raise ProblemError(f"config field {key!r} must be an object")
    return value


def _solver_settings(doc: dict) -> SolverSettings:
    solver = _section(doc, "solver", {})
    settings = SolverSettings()
    for key, value in solver.items():
        if key == "max_iters":
            settings.max_iters = _scalar(solver, key, int, "solver.")
            if settings.max_iters < 0:
                raise ProblemError("solver.max_iters must be nonnegative")
        elif key == "tol":
            settings.tol = _scalar(solver, key, float, "solver.")
            if settings.tol < 0:
                raise ProblemError("solver.tol must be nonnegative")
        elif key in SOLVER_CHOICES:
            if value not in SOLVER_CHOICES[key]:
                raise ProblemError(
                    f"unknown solver.{key} {value!r}; expected one of {SOLVER_CHOICES[key]}"
                )
        else:
            raise ProblemError(f"unknown solver setting {key!r}")
    return settings


def _load_lqg(doc: dict) -> LoadedConfig:
    d_x = _scalar(doc, "d_x", int)
    d_z = _scalar(doc, "d_z", int)
    d_s = d_x + d_z
    A = _matrix(doc, "A", (d_s, d_s))
    B = _matrix(doc, "B")
    if B.ndim != 2 or B.shape[0] != d_s:
        raise ProblemError(f"config field 'B' must have {d_s} rows")
    sigma = _matrix(doc, "sigma")
    if sigma.ndim != 2 or sigma.shape[0] != d_s:
        raise ProblemError(f"config field 'sigma' must have {d_s} rows")
    Q = _matrix(doc, "Q", (d_s, d_s))
    d_u = B.shape[1]
    R = _matrix(doc, "R", (d_u, d_u))
    P = _matrix(doc, "P", (d_s, d_s))
    mu0 = _matrix(doc, "mu0", (d_s,))
    lambda0 = _matrix(doc, "lambda0", (d_s, d_s))
    horizon = _scalar(doc, "horizon")
    dt = _scalar(doc, "dt")
    problem = LqgProblem(
        A=A, B=B, sigma=sigma, Q=Q, R=R, P=P,
        mu0=mu0, lambda0=lambda0,
        horizon=horizon, dt=dt, d_x=d_x, d_z=d_z,
    )
    return LoadedConfig(
        family="lqg",
        solver=_solver_settings(doc),
        seed=_seed(doc),
        lqg_problem=problem,
    )


def obstacle_running_cost(strength, t_on, t_off, inner, outer):
    """Indicator-window obstacle cost on the state coordinate."""

    def cost(t, S):
        x = S[0]
        if t < t_on or t > t_off:
            return np.zeros_like(x)
        band = (np.abs(x) >= inner) & (np.abs(x) <= outer)
        return np.where(band, strength, 0.0)

    return cost


def _load_obstacle_grid(doc: dict) -> LoadedConfig:
    domain = _section(doc, "domain")
    lower = _matrix(domain, "lower", (2,))
    upper = _matrix(domain, "upper", (2,))
    shape = _matrix(domain, "shape")
    if shape.shape != (2,):
        raise ProblemError("domain.shape must have two entries (state, memory)")
    if np.any(shape != np.round(shape)):
        raise ProblemError(f"domain.shape must hold whole numbers, got {shape.tolist()}")
    shape = tuple(int(n) for n in shape)
    n_t = _scalar(domain, "n_t", int, "domain.")
    horizon = _scalar(domain, "horizon", float, "domain.")
    grid = GridSpec(lower=lower, upper=upper, shape=shape, n_t=n_t, horizon=horizon)

    obstacle = _section(doc, "obstacle")
    strength, t_on, t_off, inner, outer = (
        _scalar(obstacle, key, float, "obstacle.")
        for key in ("strength", "t_on", "t_off", "inner", "outer")
    )
    if not (0.0 <= t_on <= t_off <= horizon):
        raise ProblemError("obstacle window must satisfy 0 <= t_on <= t_off <= horizon")
    if not (0.0 <= inner <= outer):
        raise ProblemError("obstacle band must satisfy 0 <= inner <= outer")

    terminal_weight = _scalar(doc, "terminal_weight")
    control_cost = _scalar(doc, "control_cost", default=1.0)
    if control_cost <= 0:
        raise ProblemError("control_cost must be positive")
    bound = _scalar(doc, "control_bound")
    if bound <= 0:
        raise ProblemError("control_bound must be positive")
    init_cov = _scalar(doc, "initial_cov")
    if init_cov <= 0:
        raise ProblemError("initial_cov must be positive")

    solver = _solver_settings(doc)
    problem = GridProblem(
        d_x=1,
        d_z=1,
        b_matrix=[[1.0], [0.0]],
        r_diag=[control_cost],
        drift0=lambda t, S: [np.zeros_like(S[0]), S[0]],
        base_cost=obstacle_running_cost(strength, t_on, t_off, inner, outer),
        diffusion=lambda t, S: np.eye(2),
        terminal_cost=lambda S: terminal_weight * S[0] ** 2,
        initial_density=Gaussian(np.zeros(2), init_cov * np.eye(2)),
        control_lower=[-bound],
        control_upper=[bound],
    )

    slice_times = (
        _matrix(doc, "slice_times").ravel().tolist() if "slice_times" in doc
        else [f * horizon for f in DEFAULT_SLICE_FRACTIONS]
    )
    for t in slice_times:
        if not (0.0 <= t <= horizon):
            raise ProblemError(f"slice time {t} outside [0, {horizon}]")

    return LoadedConfig(
        family="obstacle-grid",
        solver=solver,
        seed=_seed(doc),
        grid_problem=problem,
        grid=grid,
        slice_times=slice_times,
    )


def parse_config(doc: dict) -> LoadedConfig:
    """Validate a configuration document and build its problem objects."""
    if not isinstance(doc, dict):
        raise ProblemError("config root must be a JSON object")
    family = _require(doc, "family", "")
    if family == "lqg":
        return _load_lqg(doc)
    if family == "obstacle-grid":
        return _load_obstacle_grid(doc)
    raise ProblemError(f"unknown config family {family!r}; expected one of {FAMILIES}")


def read_document(path) -> dict:
    """Read a configuration document: a JSON object stored in a file."""
    path = Path(path)
    if not path.exists():
        raise ProblemError(f"config file not found: {path}")
    try:
        with _reading_file(path):
            doc = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise ProblemError(f"config is not valid JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise ProblemError("config root must be a JSON object")
    return doc


def bundled_config_path(name: str) -> Path:
    """Path of a configuration shipped with the package."""
    path = Path(__file__).parent / "configs" / f"{name}.json"
    if not path.exists():
        raise ProblemError(f"no bundled config named {name!r}")
    return path


def simulation_dynamics(cfg: LoadedConfig) -> ExtendedDynamics:
    """Closed-loop dynamics of a configured problem for path simulation."""
    if cfg.family == "lqg":
        p = cfg.lqg_problem
        d_w = p._reading("sigma", 0.0).shape[1]

        def drift(t, s, u):
            return s @ p._reading("A", t).T + u @ p._reading("B", t).T

        def diffusion(t, s, u):
            return p._reading("sigma", t)

        return ExtendedDynamics(
            d_x=p.d_x, d_z=p.d_z, d_u=p.d_u, d_w=d_w,
            drift=drift, diffusion=diffusion,
            initial_density=p.initial_density(),
        )

    # Obstacle family: the grid solver's own drift and D on the path columns.
    gp = cfg.grid_problem
    d_s = gp.d_s

    def drift(t, s, u):
        b = np.empty(s.shape)
        for i, bi in enumerate(gp.drift(t, _columns(s, d_s), _columns(u, gp.d_u))):
            b[..., i] = bi
        return b

    def diffusion(t, s, u):
        return _diffusion_factor(gp, t, _columns(s, d_s))

    diffusion(0.0, np.zeros((1, d_s)), None)  # reject a bad D before simulating
    return ExtendedDynamics(
        d_x=gp.d_x, d_z=gp.d_z, d_u=gp.d_u, d_w=d_s,
        drift=drift, diffusion=diffusion,
        initial_density=gp.initial_density,
    )


def _columns(arr: np.ndarray, n: int) -> list:
    """The first n columns of the last axis, as the grid callables take S and U."""
    return [arr[..., i] for i in range(n)]


def _diffusion_factor(gp: GridProblem, t: float, S: list) -> np.ndarray:
    """Square root of the grid problem's diffusion matrix D(t, S).

    The simulator steps every path with one noise matrix per step, so D
    must evaluate to a single (d_s, d_s) matrix. The grid model refuses
    off-diagonal entries (gridpde._refuse_off_diagonal), and the noise
    needs a positive diagonal.
    """
    entries = gp.diffusion(t, S)
    try:
        D = np.asarray(entries, dtype=float)
    except ValueError:  # entries of different shapes, e.g. per-node arrays
        D = None
    if D is None or D.shape != (gp.d_s, gp.d_s):
        raise ProblemError(
            f"simulation needs one ({gp.d_s}, {gp.d_s}) diffusion matrix "
            "per step, independent of the state"
        )
    _refuse_off_diagonal(D)
    if not np.all(np.diag(D) > 0.0):
        raise ProblemError("diffusion matrix must be positive definite")
    return np.diag(np.sqrt(np.diag(D)))


def _quadratic_form(v: np.ndarray, mat: np.ndarray) -> np.ndarray:
    """v^T mat v over the last axis of v, as the sum of v_i mat_ij v_j.

    The terms are added from 0.0 with j running fastest, the order in which
    np.einsum("...i,ij,...j->...") sums them for three or more rows, so the
    bits agree with it there; the explicit sum is about four times faster.
    """
    total = 0.0
    for i in range(mat.shape[0]):
        for j in range(mat.shape[1]):
            total = total + v[..., i] * mat[i, j] * v[..., j]
    return total


def simulation_cost(cfg: LoadedConfig) -> CostSpec:
    """Running/terminal cost of a configured problem on batched states."""
    if cfg.family == "lqg":
        p = cfg.lqg_problem

        def running(t, s, u):
            return _quadratic_form(s, p._reading("Q", t)) + _quadratic_form(u, p._reading("R", t))

        def terminal(s):
            return _quadratic_form(s, p.P)

        return CostSpec(running_cost=running, terminal_cost=terminal)

    gp = cfg.grid_problem

    def running(t, s, u):
        S, U = _columns(s, gp.d_s), _columns(u, gp.d_u)
        return np.asarray(gp.running_cost(t, S, U), dtype=float)

    def terminal(s):
        return np.asarray(gp.terminal_cost(_columns(s, gp.d_s)), dtype=float)

    return CostSpec(running_cost=running, terminal_cost=terminal)
