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

Layout: the step loop reads step i's states from one contiguous
(n_paths, d_s) slice of a time-major buffer and writes step i + 1's into
the next. Without history the buffer is (2, n_paths, d_s) and the two
slices take turns, so a simulation holds its final states, flags, clamp
counts and running-cost totals, which is all estimate_objective reads.
With history=True the buffer is (n_steps + 1, n_paths, d_s), every
slice is kept, and PathEnsemble hands it out in its (n_paths, ...) shape
as a transposed view, not as a copy; callers that need a contiguous
array copy it (np.ascontiguousarray). The loop, its arithmetic and its
streams are the same either way, so both ensembles have the same bits.

Controls and costs: a law is an object with evaluate_memory(t, z), and
every simulation is priced under one CostSpec. The law's output at each
step goes into one reused (n_paths, d_u) buffer, and each step's running
cost f dt is added into one (n_paths,) running total per path; no control
or cost history is kept while stepping. A memory-feedback law u(t, z) is
a function of data a history ensemble holds, so
PathEnsemble.cumulative_costs re-evaluates it on first access, at each
stored time from the stored states' memory block, clamped as the
simulation clamped it, and replays the running cost on those controls,
accumulated in step order, as the simulation did. The replay hands the
law and the cost the same arrays the step loop did, so the history has
the bits of the simulation, frozen paths included. A law must therefore
depend on (t, z) alone, not on the order or number of its calls.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Optional, Tuple

import numpy as np

from fbsweep.core import CostSpec, ExtendedDynamics, GridSpec, ProblemError, _step_count

# Doubles in the reused Wiener-increment buffer: a batch covers
# max(1, _NOISE_BATCH // (n_paths * d_w)) steps, 16 MB at most.
_NOISE_BATCH = 1 << 21


@dataclass
class PathEnsemble:
    """Simulated closed-loop paths plus per-path bookkeeping.

    final_states, (n_paths, d_s), holds each path's state at the horizon;
    dt is the step the paths were advanced with. Paths that left the
    finite range are frozen at their last finite state and flagged
    invalid; clamp_counts tallies, per path, how many steps needed the
    memory clamped onto the control law's domain. The simulation also
    keeps each path's total running cost, which estimate_objective reads
    with final_states.

    states, (n_paths, n_steps + 1, d_s), is kept only when the paths were
    simulated with history=True, and is None otherwise; final_states is
    then a view of its last time slice. states is a transposed view of
    the time-major buffer. cumulative_costs, (n_paths, n_steps + 1), is
    derived from it on first access: the memory-feedback law u(t, z) is
    re-evaluated at every step from the stored states and the running
    cost replayed on those controls (see the module docstring), so the
    law must be a function of (t, z). It is the left-endpoint integral of
    the running cost (zero at t=0), non-decreasing whenever f >= 0.
    Without the state history, reading it is a ProblemError.
    """

    times: np.ndarray
    states: Optional[np.ndarray]
    final_states: np.ndarray
    valid: np.ndarray
    clamp_counts: np.ndarray
    seed: int
    d_x: int
    dt: float
    _eval_u: Callable = field(repr=False)
    _z_box: Optional[Tuple[np.ndarray, np.ndarray]] = field(repr=False)
    _d_u: int = field(repr=False)
    _cost: CostSpec = field(repr=False)
    _cost_totals: np.ndarray = field(repr=False)

    @property
    def n_paths(self) -> int:
        return self.valid.shape[0]

    @property
    def n_excluded(self) -> int:
        return int((~self.valid).sum())

    @cached_property
    def cumulative_costs(self) -> np.ndarray:
        if self.states is None:
            raise ProblemError(
                "cumulative_costs needs the state history: simulate the paths "
                "with history=True"
            )
        cum = np.zeros((self.times.size, self.n_paths))
        u = np.empty((self.n_paths, self._d_u))
        for i, t in enumerate(self.times[:-1]):
            s = self.states[:, i]
            _apply_law(self._eval_u, self._z_box, t, s, self.d_x, u)
            np.add(cum[i], _step_cost(self._cost, t, s, u, self.dt), out=cum[i + 1])
        return cum.T


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
    for corner in np.ndindex((2,) * len(axes)):
        weight = 1.0
        for upper, pair in zip(corner, weights):
            weight = weight * pair[upper]
        node = tuple(k + upper for k, upper in zip(cells, corner))
        value = value + table[node] * weight[:, None]
    return value


def _apply_law(eval_u, z_box, t, s, d_x, out):
    """Write u(t, z) into out, (n_paths, d_u), for the states s.

    z is the memory block of s, clamped onto z_box = (z_lower, z_upper)
    when the law declares one. Returns the rows that needed the clamp, or
    None without a box. The step loop and the control replay both call it,
    so the law sees the same arrays in either.
    """
    z = s[:, d_x:]
    clamped = None
    if z_box is not None:
        zc = np.clip(z, *z_box)
        clamped = np.any(zc != z, axis=-1)
        z = zc
    out[...] = np.asarray(eval_u(t, z), dtype=float).reshape(out.shape)
    return clamped


def _step_cost(cost, t, s, u, dt):
    """Left-endpoint running cost of one step, f(t, s, u) * dt, (n_paths,)."""
    return np.asarray(cost.running_cost(t, s, u), dtype=float).reshape(s.shape[0]) * dt


def simulate_paths(
    dynamics: ExtendedDynamics,
    control,
    horizon: float,
    dt: float,
    n_paths: int,
    seed: int,
    cost: CostSpec,
    history: bool = False,
) -> PathEnsemble:
    """Simulate n_paths closed-loop trajectories over [0, horizon], priced
    under cost.

    history=True keeps every path's state at every step (the ensemble's
    states, from which its cumulative costs are derived);
    without it the ensemble holds what estimate_objective reads: the final
    states, the valid flags, the clamp counts and the running-cost totals.

    Initial states are drawn from the problem's initial density; Wiener
    increments are Normal(0, dt I) from one child RNG stream per path,
    drawn one batch of steps at a time (see the module docstring).
    The control is a memory-feedback law u(t, z), an object whose
    evaluate_memory(t, z) receives only (t, z) and must depend on nothing
    else, since a history ensemble's cumulative costs re-evaluate it on
    its stored states; any other control is a ProblemError. If it declares a
    memory domain (z_lower/z_upper attributes), z is clamped onto it
    first and the clamps counted. Non-finite states freeze their path
    and exclude it from the valid set. The diffusion must be one
    (d_s, d_w) matrix at each step, shared by every path; any other
    shape is a ProblemError.
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
    eval_u = getattr(control, "evaluate_memory", None)
    if eval_u is None:
        raise ProblemError("control must expose evaluate_memory(t, z)")
    z_lower = getattr(control, "z_lower", None)
    z_box = None if z_lower is None else (z_lower, getattr(control, "z_upper", None))

    streams = np.random.SeedSequence(seed).spawn(n_paths + 1)
    rng0 = np.random.default_rng(streams[0])
    s0 = dynamics.initial_density.sample(rng0, n_paths)
    rngs = [np.random.default_rng(stream) for stream in streams[1:]]
    per = min(n_steps, max(1, _NOISE_BATCH // max(1, n_paths * d_w)))
    increments = np.empty((n_paths, per, d_w))
    sqrt_dt = np.sqrt(dt)

    times = np.linspace(0.0, horizon, n_steps + 1)
    # Step i reads slice i % rows and writes slice (i + 1) % rows: every
    # slice with the history, two in turn without it.
    rows = n_steps + 1 if history else 2
    states = np.empty((rows, n_paths, d_s))
    states[0] = s0
    u = np.empty((n_paths, d_u))
    total = np.zeros(n_paths)
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
            s = states[i % rows]
            clamped = _apply_law(eval_u, z_box, t, s, d_x, u)
            if clamped is not None:
                clamp_counts += clamped
            b = np.asarray(dynamics.drift(t, s, u), dtype=float)
            sig = np.asarray(dynamics.diffusion(t, s, u), dtype=float)
            if sig.shape != (d_s, d_w):
                raise ProblemError(
                    f"diffusion at t={t:.6g} has shape {sig.shape}, expected one "
                    f"({d_s}, {d_w}) matrix for every path"
                )
            noise = dw @ sig.T
            s_next = states[(i + 1) % rows]
            np.multiply(b, dt, out=s_next)
            s_next += s
            s_next += noise
            # A sum is finite only if every entry is (an overflowing sum of
            # finite entries just takes the exact path below).
            if not (valid.all() and np.isfinite(s_next.sum())):
                valid &= np.all(np.isfinite(s_next), axis=-1)
                s_next[~valid] = s[~valid]
            np.add(total, _step_cost(cost, t, s, u, dt), out=total)

    return PathEnsemble(
        times=times,
        states=states.transpose(1, 0, 2) if history else None,
        final_states=states[n_steps % rows],
        valid=valid,
        clamp_counts=clamp_counts,
        seed=seed,
        d_x=d_x,
        dt=float(dt),
        _eval_u=eval_u,
        _z_box=z_box,
        _d_u=d_u,
        _cost=cost,
        _cost_totals=total,
    )


def estimate_objective(ensemble: PathEnsemble, cost: CostSpec) -> Tuple[float, float]:
    """Sample mean and standard error of the per-path discrete cost.

    Per path: the left-endpoint running-cost sum the simulation kept plus
    the terminal cost at the final state, over valid paths only. cost
    must equal the CostSpec the ensemble was simulated under (the same
    two callables); any other is a ProblemError.
    """
    if cost != ensemble._cost:
        raise ProblemError("the ensemble was simulated under another cost")
    valid = ensemble.valid
    if not valid.any():
        raise ProblemError("no valid paths to estimate from")
    running = ensemble._cost_totals[valid]
    terminal = np.asarray(
        cost.terminal_cost(ensemble.final_states[valid]), dtype=float
    ).reshape(running.shape)
    per_path = running + terminal
    mean = float(per_path.mean())
    n = per_path.size
    se = float(per_path.std(ddof=1) / np.sqrt(n)) if n > 1 else 0.0
    return mean, se
