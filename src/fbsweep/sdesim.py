"""Euler-Maruyama simulation of the closed-loop extended system.

Paths of ds = b(t, s, u) dt + sigma(t, s, u) dw are advanced on a fixed
time grid under a memory-feedback law u(t, z). The simulator only ever
hands the control evaluator (t, z): the state block of s never reaches
it, so controller measurability is enforced by the interface rather than
by convention.

Reproducibility: a root seed is split into one child stream per path
plus one for the initial draw, so ensembles are bit-for-bit identical
for a fixed (seed, n_paths, dt) regardless of scheduling or batch size.

Noise: each path's Wiener increments are drawn from its own stream one
batch of steps at a time, into a single reused (n_paths, per, d_w)
buffer of at most _NOISE_BATCH doubles (one step per batch at least).
Every stream is consumed in step order either way, so the increments do
not depend on the batch length, and a simulation holds its returned
arrays plus one batch instead of every path's whole noise block.

Layout: the step loop keeps states, controls and cumulative costs in
time-major buffers, (n_steps + 1, n_paths, d_s) and alike, so that each
step reads and writes one contiguous slice. PathEnsemble hands them out
in their (n_paths, ...) shapes as transposed views of those buffers, not
as copies; callers that need contiguous arrays copy them
(np.ascontiguousarray).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable, Optional, Tuple

import numpy as np

from fbsweep.core import CostSpec, ExtendedDynamics, GridSpec, ProblemError, _step_count

# Doubles in the reused Wiener-increment buffer: a batch covers
# max(1, _NOISE_BATCH // (n_paths * d_w)) steps, 16 MB at most.
_NOISE_BATCH = 1 << 21


@dataclass
class PathEnsemble:
    """Simulated closed-loop paths plus per-path bookkeeping.

    states has shape (n_paths, n_steps + 1, d_s) and controls
    (n_paths, n_steps, d_u). cumulative_costs holds the left-endpoint
    running-cost integral (zero at t=0) when the simulation was given a
    cost, so it is non-decreasing whenever f >= 0. Paths that left the
    finite range are frozen at their last finite state and flagged
    invalid; clamp_counts tallies, per path, how many steps needed the
    memory clamped onto the control law's domain. The arrays are
    transposed views of the simulator's time-major buffers.
    """

    times: np.ndarray
    states: np.ndarray
    controls: np.ndarray
    cumulative_costs: Optional[np.ndarray]
    valid: np.ndarray
    clamp_counts: np.ndarray
    seed: int
    d_x: int

    @property
    def n_paths(self) -> int:
        return self.states.shape[0]

    @property
    def n_excluded(self) -> int:
        return int((~self.valid).sum())

    @property
    def dt(self) -> float:
        return float(self.times[1] - self.times[0])


class GridControlLaw:
    """Evaluate a grid-solver control table as a function u(t, z).

    Piecewise constant to the left in time (the table defines one control
    per step interval) and multilinear in the memory coordinates, with
    out-of-grid memory points clamped to the boundary. values must have
    shape (n_t,) + grid.memory_shape(d_x) + (d_u,).

    The multilinear evaluator works on the uniform memory axes directly.
    Each coordinate's cell is floor((z - z_lower) / h), corrected by one
    step either way against the axis nodes, so it is exactly scipy's
    RegularGridInterpolator cell (searchsorted(axis, z, "right") - 1,
    clipped to [0, n - 2]); the 2**d_z corner terms table[corner] * weight
    are summed from 0.0 in that interpolator's hypercube order, so the
    values are bit-identical to its linear method.
    """

    def __init__(self, values: np.ndarray, grid: GridSpec, d_x: int):
        values = np.asarray(values, dtype=float)
        expected = (grid.n_t,) + tuple(grid.memory_shape(d_x))
        if values.ndim != len(expected) + 1 or values.shape[:-1] != expected:
            raise ProblemError(
                f"control table has shape {values.shape}, expected {expected} + (d_u,)"
            )
        self.values = values
        self.grid = grid
        self.d_x = d_x
        self.z_lower = grid.lower[d_x:]
        self.z_upper = grid.upper[d_x:]
        self._axes = grid.memory_axes(d_x)

    def _time_index(self, t: float) -> int:
        if t < -1e-12 or t > self.grid.horizon + 1e-12:
            raise ProblemError(f"time {t} outside [0, {self.grid.horizon}]")
        return min(int(t / self.grid.dt + 1e-9), self.grid.n_t - 1)

    def evaluate_memory(self, t: float, z: np.ndarray) -> np.ndarray:
        z = np.atleast_2d(np.asarray(z, dtype=float))
        table = self.values[self._time_index(t)]
        if not self._axes:
            return np.broadcast_to(table, z.shape[:-1] + (table.shape[-1],)).copy()
        zc = np.clip(z, self.z_lower, self.z_upper).reshape(-1, len(self._axes))
        u = _multilinear(self._axes, table, zc)
        return u.reshape(z.shape[:-1] + u.shape[-1:])


def _cell_index(axis: np.ndarray, z: np.ndarray) -> np.ndarray:
    """Cell of each z on a uniform axis: searchsorted(axis, z, "right") - 1
    clipped to [0, n - 2], from a floor and a one-step correction each way."""
    n = axis.size
    step = (axis[-1] - axis[0]) / (n - 1)
    # fmax/fmin send a NaN to cell 0, where its NaN weight still yields NaN
    k = np.fmin(np.fmax(np.floor((z - axis[0]) / step), 0.0), n - 2).astype(np.intp)
    k -= axis[k] > z
    k += axis[k + 1] <= z
    return np.clip(k, 0, n - 2, out=k)


def _multilinear(axes, table: np.ndarray, z: np.ndarray) -> np.ndarray:
    """Multilinear interpolation of table (axes shape + (d_u,)) at z (n, d_z)."""
    cells, weights = [], []
    for j, axis in enumerate(axes):
        k = _cell_index(axis, z[:, j])
        left = axis[k]
        y = (z[:, j] - left) / (axis[k + 1] - left)
        cells.append(k)
        weights.append((1 - y, y))
    value = 0.0
    for corner in itertools.product((0, 1), repeat=len(axes)):
        weight = 1.0
        for upper, pair in zip(corner, weights):
            weight = weight * pair[upper]
        node = tuple(k + upper for k, upper in zip(cells, corner))
        value = value + table[node] * weight[:, None]
    return value


def _control_evaluator(control) -> Callable:
    if hasattr(control, "evaluate_memory"):
        return control.evaluate_memory
    if callable(control):
        return control
    raise ProblemError("control must be callable or expose evaluate_memory")


def simulate_paths(
    dynamics: ExtendedDynamics,
    control,
    horizon: float,
    dt: float,
    n_paths: int,
    seed: int,
    cost: Optional[CostSpec] = None,
) -> PathEnsemble:
    """Simulate n_paths closed-loop trajectories over [0, horizon].

    Initial states are drawn from the problem's initial density; Wiener
    increments are Normal(0, dt I) from one child RNG stream per path,
    drawn one batch of steps at a time (see the module docstring).
    The control evaluator receives only (t, z); if it declares a memory
    domain (z_lower/z_upper attributes), z is clamped onto it first and
    the clamps counted. Non-finite states freeze their path and exclude
    it from the valid set.
    """
    if dt <= 0 or horizon <= 0:
        raise ProblemError("horizon and dt must be positive")
    n_steps = _step_count(horizon, dt)
    if n_paths < 1:
        raise ProblemError("n_paths must be at least 1")

    d_s = dynamics.d_s
    d_x = dynamics.d_x
    d_u = dynamics.d_u
    d_w = dynamics.d_w
    eval_u = _control_evaluator(control)
    z_lower = getattr(control, "z_lower", None)
    z_upper = getattr(control, "z_upper", None)

    streams = np.random.SeedSequence(seed).spawn(n_paths + 1)
    rng0 = np.random.default_rng(streams[0])
    s0 = dynamics.initial_density.sample(rng0, n_paths)
    rngs = [np.random.default_rng(stream) for stream in streams[1:]]
    per = min(n_steps, max(1, _NOISE_BATCH // max(1, n_paths * d_w)))
    increments = np.empty((n_paths, per, d_w))
    sqrt_dt = np.sqrt(dt)

    times = np.linspace(0.0, horizon, n_steps + 1)
    states = np.empty((n_steps + 1, n_paths, d_s))
    states[0] = s0
    controls = np.empty((n_steps, n_paths, d_u))
    cum = np.zeros((n_steps + 1, n_paths)) if cost is not None else None
    valid = np.ones(n_paths, dtype=bool)
    clamp_counts = np.zeros(n_paths, dtype=int)

    with np.errstate(over="ignore", invalid="ignore"):
        for i in range(n_steps):
            j = i % per
            if j == 0:
                k = min(per, n_steps - i)
                for rng, block in zip(rngs, increments):
                    rng.standard_normal(out=block[:k])
                increments[:, :k] *= sqrt_dt
            dw = increments[:, j, :]
            t = times[i]
            s = states[i]
            z = s[:, d_x:]
            if z_lower is not None:
                zc = np.clip(z, z_lower, z_upper)
                clamp_counts += np.any(zc != z, axis=-1)
                z = zc
            u = controls[i]
            u[...] = np.asarray(eval_u(t, z), dtype=float).reshape(n_paths, d_u)
            b = np.asarray(dynamics.drift(t, s, u), dtype=float)
            sig = np.asarray(dynamics.diffusion(t, s, u), dtype=float)
            if sig.ndim == 2:
                noise = dw @ sig.T
            else:
                noise = np.einsum("nij,nj->ni", sig, dw)
            s_next = states[i + 1]
            np.multiply(b, dt, out=s_next)
            s_next += s
            s_next += noise
            # A sum is finite only if every entry is (an overflowing sum of
            # finite entries just takes the exact path below).
            if not (valid.all() and np.isfinite(s_next.sum())):
                valid &= np.all(np.isfinite(s_next), axis=-1)
                s_next[~valid] = s[~valid]
            if cum is not None:
                f = np.asarray(cost.running_cost(t, s, u), dtype=float).reshape(n_paths)
                np.add(cum[i], f * dt, out=cum[i + 1])

    return PathEnsemble(
        times=times,
        states=states.transpose(1, 0, 2),
        controls=controls.transpose(1, 0, 2),
        cumulative_costs=cum.T if cum is not None else None,
        valid=valid,
        clamp_counts=clamp_counts,
        seed=seed,
        d_x=d_x,
    )


def estimate_objective(ensemble: PathEnsemble, cost: CostSpec) -> Tuple[float, float]:
    """Sample mean and standard error of the per-path discrete cost.

    Per path: left-endpoint running-cost sum plus terminal cost at the
    final state, over valid paths only.
    """
    valid = ensemble.valid
    if not valid.any():
        raise ProblemError("no valid paths to estimate from")
    dt = ensemble.dt
    if ensemble.cumulative_costs is not None:
        running = ensemble.cumulative_costs[valid, -1]
    else:
        running = np.zeros(int(valid.sum()))
        s = ensemble.states[valid]
        u = ensemble.controls[valid]
        for i in range(ensemble.times.size - 1):
            f = np.asarray(
                cost.running_cost(ensemble.times[i], s[:, i, :], u[:, i, :]),
                dtype=float,
            )
            running += f.reshape(running.shape) * dt
    terminal = np.asarray(
        cost.terminal_cost(ensemble.states[valid, -1, :]), dtype=float
    ).reshape(running.shape)
    per_path = running + terminal
    mean = float(per_path.mean())
    n = per_path.size
    se = float(per_path.std(ddof=1) / np.sqrt(n)) if n > 1 else 0.0
    return mean, se
