"""Finite-difference solver for coupled density/value sweeps.

The controlled diffusion over the extended state s = (x, z) induces two
grid equations: the density p(t, s) moves forward under the adjoint
generator, the value w(t, s) moves backward under the generator itself,
and the memory-feedback control u(t, z) couples them through

    u(t, z) = argmin_u E_{p(x|z)}[ f(t, s, u) + (L_u w)(s) ].

The generator L_u is discretized with first-order upwinding of the drift,
central 3-point stencils for the diagonal diffusion, central cross
stencils for off-diagonal diffusion, and a reflecting (no-flux) boundary
closure obtained by zeroing boundary-crossing coefficients. The adjoint
is the exact matrix transpose, so mass conservation and the discrete
duality <w, L'p> = <Lw, p> hold to rounding error by construction.

Under the explicit-scheme stability bound, I + dt L_u is a nonnegative
row-stochastic matrix: each time slice is an exact finite-state Markov
decision step. The alternating sweeps then minimize the exact discrete
objective node by node (ties broken toward the previous control), which
is what makes the recorded objective monotone across iterations.

Per time step the work is a few dozen whole-grid array operations. The
mesh, axes and spacing are computed once per GridSpec and shared as
read-only arrays; generator coefficients are filled in place; every
stencil term (apply, apply_adjoint, the upwind differences) is one slice
add or slice difference on the C-ordered flat grid instead of a
zero-padded shifted copy. The forward and backward passes are module
functions that fbsm_grid and the verify oracles both run, and the
upwind Hamiltonian field is written once (_upwind_hamiltonian).

Memory is a fixed base plus two (n_t + 1)-slice fields, the least the
alternation needs: each pass can write into a caller's buffer, and
fbsm_grid hands it the buffer of the field that pass replaces.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, List, Optional, Tuple

import numpy as np
from scipy import ndimage, sparse

from fbsweep.core import (
    GridSpec,
    ProblemError,
    StabilityError,
    _descent_violations,
    _sweep,
)

STABILITY_FRACTION = 0.9
NEGATIVE_MASS_LIMIT = 1e-6
MARGINAL_FLOOR = 1e-12
TIE_TOLERANCE = 1e-12
DEFAULT_CANDIDATES = 41
# Relative rise per sweep that the recorded objective's descent tolerates
# (the discretization slack of the exact discrete Markov decision steps).
MONOTONICITY_SLACK = 1e-6


@dataclass(frozen=True)
class QuadraticControl:
    """Declaration that control enters affinely with quadratic cost.

    drift = drift0(t, S) + b_matrix @ u and running cost
    f = base_cost(t, S) + sum_c r_diag[c] * u_c^2. This shape admits the
    closed-form minimizer branch of the conditional Hamiltonian.
    """

    r_diag: np.ndarray
    b_matrix: np.ndarray
    drift0: Callable
    base_cost: Callable

    def __post_init__(self):
        object.__setattr__(self, "r_diag", np.atleast_1d(np.asarray(self.r_diag, float)))
        object.__setattr__(self, "b_matrix", np.atleast_2d(np.asarray(self.b_matrix, float)))
        if np.any(self.r_diag <= 0):
            raise ProblemError("quadratic control cost requires positive r_diag")
        if self.b_matrix.shape[1] != self.r_diag.size:
            raise ProblemError("b_matrix columns must match r_diag length")


@dataclass(frozen=True)
class GridProblem:
    """Problem data evaluated directly on mesh arrays.

    drift(t, S, U) -> list of d_s arrays, diffusion(t, S) -> (d_s, d_s)
    nested array-like (control-independent), running_cost(t, S, U) and
    terminal_cost(S) -> grid arrays, initial_density(S) -> grid array.
    S is the meshgrid tuple of the extended-state grid; U is a list of
    d_u arrays shaped to broadcast over the grid (memory axes trailing).
    The quadratic declaration picks the minimizer (minimizer_mode):
    "exact" with one, "search" without.
    """

    d_x: int
    d_z: int
    d_u: int
    drift: Callable
    diffusion: Callable
    running_cost: Callable
    terminal_cost: Callable
    initial_density: Callable
    control_lower: Optional[np.ndarray] = None
    control_upper: Optional[np.ndarray] = None
    quadratic: Optional[QuadraticControl] = None

    @property
    def d_s(self) -> int:
        return self.d_x + self.d_z

    def bounds(self) -> Tuple[np.ndarray, np.ndarray]:
        return self._bounds

    @cached_property
    def _bounds(self) -> Tuple[np.ndarray, np.ndarray]:
        """Read-only (lower, upper) control bounds, checked once per problem."""
        lo = (
            np.full(self.d_u, -np.inf)
            if self.control_lower is None
            else np.broadcast_to(np.asarray(self.control_lower, float), (self.d_u,))
        )
        hi = (
            np.full(self.d_u, np.inf)
            if self.control_upper is None
            else np.broadcast_to(np.asarray(self.control_upper, float), (self.d_u,))
        )
        if np.any(lo >= hi):
            raise ProblemError("control bounds must satisfy lower < upper")
        lo.flags.writeable = hi.flags.writeable = False
        return lo, hi

    def minimizer_mode(self) -> str:
        return "exact" if self.quadratic is not None else "search"


def quadratic_grid_problem(
    d_x: int,
    d_z: int,
    quadratic: QuadraticControl,
    diffusion: Callable,
    terminal_cost: Callable,
    initial_density: Callable,
    control_lower=None,
    control_upper=None,
) -> GridProblem:
    """Build a GridProblem whose drift/cost derive from one declaration.

    Guarantees the drift and running cost are consistent with the
    quadratic structure the closed-form minimizer assumes.
    """
    B = quadratic.b_matrix
    r = quadratic.r_diag
    d_u = r.size

    def drift(t, S, U):
        base = list(quadratic.drift0(t, S))
        out = []
        for i in range(d_x + d_z):
            term = np.asarray(base[i], dtype=float)
            for c in range(d_u):
                if B[i, c] != 0.0:
                    term = term + B[i, c] * U[c]
            out.append(term)
        return out

    def running_cost(t, S, U):
        total = np.asarray(quadratic.base_cost(t, S), dtype=float)
        for c in range(d_u):
            total = total + r[c] * np.square(U[c])
        return total

    return GridProblem(
        d_x=d_x,
        d_z=d_z,
        d_u=d_u,
        drift=drift,
        diffusion=diffusion,
        running_cost=running_cost,
        terminal_cost=terminal_cost,
        initial_density=initial_density,
        control_lower=control_lower,
        control_upper=control_upper,
        quadratic=quadratic,
    )


@dataclass
class DensityField:
    """p(t, s) on the time x extended-state grid."""

    values: np.ndarray
    grid: GridSpec


@dataclass
class ValueField:
    """w(t, s) on the time x extended-state grid."""

    values: np.ndarray
    grid: GridSpec


@dataclass
class ControlField:
    """u(t, z) on the time x memory grid; no state index by construction."""

    values: np.ndarray
    grid: GridSpec
    d_x: int

    @property
    def d_u(self) -> int:
        return self.values.shape[-1]


def _values(obj) -> np.ndarray:
    return obj.values if hasattr(obj, "values") else np.asarray(obj, dtype=float)


# Mixed stencil corners (offset along i, offset along j, sign).
_CORNERS = ((1, 1, 1.0), (1, -1, -1.0), (-1, 1, -1.0), (-1, -1, 1.0))


def _axis_edge(shape, axis, last: bool):
    idx = [slice(None)] * len(shape)
    idx[axis] = -1 if last else 0
    return tuple(idx)


def _flat_step(shape, axis: int) -> int:
    """Offset of s + e_axis from s in the C-ordered flat grid."""
    return int(np.prod(shape[axis + 1 :], dtype=int))


def _flat(arr: np.ndarray) -> np.ndarray:
    """C-ordered flat view (a copy only if arr is not C-contiguous)."""
    return np.ascontiguousarray(arr).reshape(-1)


def _full(value, shape) -> np.ndarray:
    out = np.empty(shape)
    out[...] = value
    return out


class DiscreteGenerator:
    """Upwind/central discretization of one time slice's generator.

    Stored as per-cell coefficient arrays rather than an assembled
    matrix: `up[i]` multiplies w(s + e_i), `down[i]` multiplies
    w(s - e_i), `cross[(i, j)]` multiplies the four-corner mixed stencil,
    and the diagonal is minus the sum of up and down (row sums are zero
    exactly, so constants are harmonic and the adjoint conserves mass).
    apply/apply_adjoint are exact transposes of each other.

    The constructor takes the coefficients before the reflecting closure:
    it records the per-cell outflow rate for the stability check, then
    zeros (in place) every coefficient that reaches across the boundary.
    Stencils are applied as slice adds on the C-ordered flat grid, where
    s + e_i is s + step_i: the rows a flat shift wraps into carry a zero
    coefficient, so each term is one contiguous multiply-add that adds an
    exact zero there (inputs are finite: the sweeps reject anything else).
    """

    def __init__(self, grid: GridSpec, up, down, cross):
        shape = grid.shape
        self.grid = grid
        self.up = [_owned(c, shape) for c in up]
        self.down = [_owned(c, shape) for c in down]
        self.cross = {ij: _owned(c, shape) for ij, c in cross.items()}
        self._full_sums = _sum([c for pair in zip(self.up, self.down) for c in pair], shape)
        for i, (up_i, down_i) in enumerate(zip(self.up, self.down)):
            up_i[_axis_edge(shape, i, last=True)] = 0.0
            down_i[_axis_edge(shape, i, last=False)] = 0.0
        for (i, j), c in self.cross.items():
            for axis in (i, j):
                c[_axis_edge(shape, axis, last=True)] = 0.0
                c[_axis_edge(shape, axis, last=False)] = 0.0
        self.diag = np.negative(_sum(self.up, shape))
        self.diag -= _sum(self.down, shape)
        self._steps = [_flat_step(shape, i) for i in range(grid.dim)]

    def _stencils(self):
        """(flat step, flat up, flat down) per axis."""
        return zip(self._steps, map(_flat, self.up), map(_flat, self.down))

    def _corners(self, i, j):
        """Reach of the (i, j) mixed stencil on the flat grid, and its
        corners' (flat offset, sign); every interior node is within reach
        of both ends of the flat grid."""
        ki, kj = self._steps[i], self._steps[j]
        return ki + kj, [(oi * ki + oj * kj, sign) for oi, oj, sign in _CORNERS]

    def apply(self, w: np.ndarray) -> np.ndarray:
        wf = _flat(w)
        out = self.diag * wf.reshape(self.diag.shape)
        of = out.reshape(-1)
        for k, up, down in self._stencils():
            of[:-k] += up[:-k] * wf[k:]
            of[k:] += down[k:] * wf[:-k]
        n = of.size
        for (i, j), c in self.cross.items():
            m, corners = self._corners(i, j)
            pp, pm, mp, mm = (wf[m + o : n - m + o] for o, _ in corners)
            of[m : n - m] += _flat(c)[m : n - m] * (pp - pm - mp + mm)
        return out

    def apply_adjoint(self, p: np.ndarray) -> np.ndarray:
        pf = _flat(p)
        out = self.diag * pf.reshape(self.diag.shape)
        of = out.reshape(-1)
        for k, up, down in self._stencils():
            of[k:] += up[:-k] * pf[:-k]
            of[:-k] += down[k:] * pf[k:]
        n = of.size
        for (i, j), c in self.cross.items():
            m, corners = self._corners(i, j)
            cp = _flat(c)[m : n - m] * pf[m : n - m]
            for o, sign in corners:
                of[m + o : n - m + o] += sign * cp
        return out

    def to_sparse(self) -> sparse.csr_matrix:
        """Assemble the explicit matrix (testing/inspection only)."""
        shape = self.grid.shape
        n = int(np.prod(shape))
        flat = np.arange(n).reshape(shape)
        rows, cols, vals = [], [], []

        def add(coeff, col_index_arr):
            mask = coeff != 0.0
            rows.append(flat[mask])
            cols.append(col_index_arr[mask])
            vals.append(coeff[mask])

        add(self.diag, flat)
        for i in range(self.grid.dim):
            add(self.up[i], np.roll(flat, -1, axis=i))
            add(self.down[i], np.roll(flat, 1, axis=i))
        for (i, j), c in self.cross.items():
            for oi, oj, sign in _CORNERS:
                add(sign * c, np.roll(np.roll(flat, -oi, axis=i), -oj, axis=j))
        rows = np.concatenate(rows) if rows else np.empty(0, int)
        cols = np.concatenate(cols) if cols else np.empty(0, int)
        vals = np.concatenate(vals) if vals else np.empty(0, float)
        return sparse.csr_matrix((vals, (rows, cols)), shape=(n, n))

    def check_stability(self, dt: float):
        sums = self._full_sums
        limit = float(sums.max())
        if dt * limit > STABILITY_FRACTION + 1e-12:
            cell = np.unravel_index(int(np.argmax(sums)), sums.shape)
            raise StabilityError(
                f"explicit step unstable: dt={dt:.6g} exceeds "
                f"{STABILITY_FRACTION}/rate = {STABILITY_FRACTION / limit:.6g} "
                f"(binding cell {cell}, outflow rate {limit:.6g})"
            )


def _owned(coeff, shape) -> np.ndarray:
    """A writable C-ordered full-grid float array: coeff itself when it is one."""
    arr = np.asarray(coeff, dtype=float)
    if arr.shape == shape and arr.flags.writeable and arr.flags.c_contiguous:
        return arr
    return _full(arr, shape)


def _sum(arrays, shape) -> np.ndarray:
    """a_0 + a_1 + ..., accumulated left to right in one new array."""
    if len(arrays) < 2:
        return arrays[0].copy() if arrays else np.zeros(shape)
    total = np.add(arrays[0], arrays[1])
    for arr in arrays[2:]:
        total += arr
    return total


def control_to_grid(u_slice: np.ndarray, d_x: int, d_u: int) -> list:
    """Reshape (z_shape, d_u) control values to broadcast over the grid."""
    u_slice = np.asarray(u_slice, dtype=float)
    z_shape = u_slice.shape[:-1]
    return [
        u_slice[..., c].reshape((1,) * d_x + z_shape) for c in range(d_u)
    ]


def build_generator(
    problem: GridProblem,
    grid: GridSpec,
    t: float,
    u_slice: np.ndarray,
    dt: Optional[float] = None,
) -> DiscreteGenerator:
    """Discretize the generator at time t under the given control slice.

    Drift terms are upwinded in the drift sign, diagonal diffusion uses
    central 3-point stencils, mixed diffusion uses central cross stencils,
    and coefficients that would reach across the boundary are zeroed
    (reflecting closure). If dt is given, the explicit stability bound
    dt * max_cell(sum_i D_ii/ds_i^2 + |b_i|/ds_i) <= 0.9 is enforced and
    violation reports the binding cell.
    """
    d = grid.dim
    shape = grid.shape
    spacing = grid.spacing
    S = grid.mesh()
    U = control_to_grid(u_slice, problem.d_x, problem.d_u)
    b = problem.drift(t, S, U)
    if len(b) != d:
        raise ProblemError(f"drift returned {len(b)} components, expected {d}")
    D = problem.diffusion(t, S)

    def dval(i, j):
        return np.asarray(D[i][j], dtype=float)

    # up_i = D_ii / (2 ds_i^2) + max(b_i, 0) / ds_i, filled in place.
    up, down = [], []
    for i in range(d):
        dii = dval(i, i)
        if np.any(dii < 0):
            raise ProblemError(f"diffusion D[{i}][{i}] must be nonnegative")
        bi = np.asarray(b[i], dtype=float)
        base = dii / (2.0 * spacing[i] ** 2)
        up_i = np.maximum(bi, 0.0, out=np.empty(shape))
        down_i = np.negative(bi, out=np.empty(shape))
        np.maximum(down_i, 0.0, out=down_i)
        for coeff in (up_i, down_i):
            coeff /= spacing[i]
            coeff += base
        up.append(up_i)
        down.append(down_i)

    cross = {}
    for i in range(d):
        for j in range(i + 1, d):
            dij = dval(i, j)
            dji = dval(j, i)
            if np.max(np.abs(dij - dji)) > 1e-12:
                raise ProblemError("diffusion matrix must be symmetric")
            if np.any(dij != 0.0):
                cross[(i, j)] = _full(dij / (4.0 * spacing[i] * spacing[j]), shape)

    gen = DiscreteGenerator(grid, up, down, cross)
    if dt is not None:
        gen.check_stability(dt)
    return gen


@dataclass
class MassLog:
    """Per-run accumulation of density bookkeeping."""

    steps: int = 0
    max_negative_mass: float = 0.0
    max_mass_drift: float = 0.0

    def record(self, negative_mass: float, drift: float):
        self.steps += 1
        self.max_negative_mass = max(self.max_negative_mass, negative_mass)
        self.max_mass_drift = max(self.max_mass_drift, drift)


def fp_step(
    p_slice: np.ndarray,
    gen: DiscreteGenerator,
    dt: float,
    log: Optional[MassLog] = None,
) -> np.ndarray:
    """One explicit forward step p + dt L'p, clamped and renormalized.

    Negative values produced by the step are clamped at zero and the
    slice renormalized to unit mass; the pre-clamp negative mass and the
    pre-normalization mass drift are recorded in log. Negative mass
    beyond the abort limit raises StabilityError instead of being hidden.
    """
    vol = gen.grid.cell_volume
    q = gen.apply_adjoint(p_slice)
    q *= dt
    q += p_slice
    neg = q[q < 0.0]
    negative_mass = float(-neg.sum() * vol) if neg.size else 0.0
    if negative_mass > NEGATIVE_MASS_LIMIT:
        raise StabilityError(
            f"negative density mass {negative_mass:.3e} exceeds "
            f"{NEGATIVE_MASS_LIMIT:.0e}; the explicit step is unstable"
        )
    if neg.size:
        np.maximum(q, 0.0, out=q)
    mass = float(q.sum() * vol)
    if not np.isfinite(mass) or mass <= 0.0:
        raise StabilityError("density mass became non-finite or zero")
    if log is not None:
        log.record(negative_mass, abs(mass - 1.0))
    q /= mass
    return q


def hjb_step(
    problem: GridProblem,
    grid: GridSpec,
    t: float,
    w_next: np.ndarray,
    u_slice: np.ndarray,
    dt: Optional[float] = None,
    gen: Optional[DiscreteGenerator] = None,
) -> np.ndarray:
    """One explicit backward step w + dt [f + L w] at time t."""
    dt = grid.dt if dt is None else dt
    if gen is None:
        gen = build_generator(problem, grid, t, u_slice, dt=dt)
    U = control_to_grid(u_slice, problem.d_x, problem.d_u)
    f = np.asarray(problem.running_cost(t, grid.mesh(), U), dtype=float)
    w_t = gen.apply(w_next)
    w_t += f
    w_t *= dt
    w_t += w_next
    if not np.all(np.isfinite(w_t)):
        raise StabilityError(f"value slice became non-finite at t={t:.6g}")
    return w_t


def conditional_density(
    p_slice: np.ndarray,
    grid: GridSpec,
    d_x: int,
    floor: float = MARGINAL_FLOOR,
):
    """Split p(t, x, z) into p(x|z) and the memory marginal p(z).

    Returns (conditional, marginal, defined): conditional integrates to
    one over x wherever defined; at memory nodes whose marginal density
    falls below the floor the conditional is zeroed and flagged.
    """
    p_slice = np.asarray(p_slice, dtype=float)
    x_axes = tuple(range(d_x))
    marginal = p_slice.sum(axis=x_axes) * _x_volume(grid, d_x)
    defined = marginal > floor
    cond = p_slice / np.where(defined, marginal, 1.0)
    cond *= defined
    return cond, marginal, defined


def _x_volume(grid: GridSpec, d_x: int) -> float:
    return float(np.prod(grid.spacing[:d_x]))


def _conditional_expectation(cond: np.ndarray, field: np.ndarray, d_x: int, vol_x: float):
    return (cond * field).sum(axis=tuple(range(d_x))) * vol_x


def _upwind_differences(w: np.ndarray, axis: int, spacing: float):
    """Forward and backward difference quotients, zeroed where they cross.

    Both come from one slice difference on the flat grid: the backward
    quotient at s is the forward quotient at s - e_axis. Differences that
    wrap into the next row land on the zeroed edge nodes.
    """
    k = _flat_step(w.shape, axis)
    wf = _flat(w)
    gf = np.empty(w.shape)
    gff = gf.reshape(-1)
    np.subtract(wf[k:], wf[:-k], out=gff[:-k])
    gff[:-k] /= spacing
    gf[_axis_edge(w.shape, axis, last=True)] = 0.0
    gb = np.empty(w.shape)
    gb.reshape(-1)[k:] = gff[:-k]
    gb[_axis_edge(w.shape, axis, last=False)] = 0.0
    return gf, gb


def _upwind_gradients(w: np.ndarray, grid: GridSpec) -> list:
    return [_upwind_differences(w, i, grid.spacing[i]) for i in range(grid.dim)]


def _driven_dimensions(problem: GridProblem) -> list:
    """Map control component -> the single grid dimension it drives."""
    B = problem.quadratic.b_matrix
    driven = []
    for c in range(problem.d_u):
        rows = np.nonzero(B[:, c])[0]
        if rows.size != 1:
            raise ProblemError(
                "closed-form minimizer needs each control component to "
                "drive exactly one coordinate; drop the quadratic declaration "
                "to use the search minimizer"
            )
        driven.append(int(rows[0]))
    if len(set(driven)) != len(driven):
        raise ProblemError(
            "closed-form minimizer needs distinct driven coordinates per "
            "control component; drop the quadratic declaration to use the "
            "search minimizer"
        )
    return driven


def _base_drift_per_memory(b0_i: np.ndarray, shape, d_x: int, what: str) -> np.ndarray:
    """Reduce the control-free drift of a driven coordinate to a z-array.

    The exact branch needs this drift to be constant across x for each
    memory node, so that the upwind side switches at one control value
    per node; anything else must fall back to the search branch.
    """
    arr = np.asarray(b0_i, dtype=float)
    if arr.shape != shape:
        arr = np.broadcast_to(arr, shape)
    x_axes = tuple(range(d_x))
    if x_axes:
        lo = arr.min(axis=x_axes)
        hi = arr.max(axis=x_axes)
        scale = max(np.abs(lo).max(), np.abs(hi).max())  # = max |arr|
        if np.max(hi - lo) > 1e-10 * (1.0 + scale):
            raise ProblemError(
                f"{what} varies across the state for fixed memory; the "
                "closed-form minimizer does not apply (drop the quadratic "
                "declaration to use the search minimizer)"
            )
        return lo
    return arr


def _fill_undefined(u_new: np.ndarray, defined: np.ndarray, grid: GridSpec, d_x: int):
    """Copy controls onto low-mass memory nodes from the nearest defined node."""
    if defined.all():
        return u_new
    if not defined.any():
        raise ProblemError("conditional density undefined at every memory node")
    z_spacing = grid.spacing[d_x:]
    _, idx = ndimage.distance_transform_edt(
        ~defined, sampling=z_spacing, return_indices=True
    )
    src = tuple(idx[k] for k in range(idx.shape[0]))
    return u_new[src]


def minimize_conditional_hamiltonian(
    problem: GridProblem,
    grid: GridSpec,
    t: float,
    cond: np.ndarray,
    w_next: np.ndarray,
    u_prev: np.ndarray,
    defined: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Per-memory-node argmin of the conditional expected Hamiltonian.

    Vectorized over all memory nodes: cond is the conditional table,
    w_next the value slice the generator acts on, u_prev the previous
    iterate's control slice (kept on ties, which pins fixed points).
    Two branches:

    * "exact": for the declared quadratic structure, the discrete
      conditional Hamiltonian is piecewise quadratic in each control
      component (the upwind side switches where the driven drift changes
      sign), so the argmin is found exactly from the two branch vertices,
      the breakpoint, and the previous control.
    * "search": exhaustive evaluation over a uniform candidate grid plus
      the previous control.

    Low-mass nodes (defined=False) inherit the control of the nearest
    defined node.
    """
    mode = problem.minimizer_mode()
    u_prev = np.asarray(u_prev, dtype=float)
    lo, hi = problem.bounds()
    d_x = problem.d_x
    vol_x = _x_volume(grid, d_x)

    if mode == "exact":
        u_new = _minimize_exact(problem, grid, t, cond, w_next, u_prev, lo, hi, vol_x)
    else:
        u_new = _minimize_search(problem, grid, t, cond, w_next, u_prev, lo, hi, vol_x)

    if defined is not None:
        u_new = _fill_undefined(u_new, defined, grid, d_x)
    return u_new


def _minimize_exact(problem, grid, t, cond, w_next, u_prev, lo, hi, vol_x):
    quad = problem.quadratic
    d_x = problem.d_x
    b0 = quad.drift0(t, grid.mesh())
    z_shape = grid.memory_shape(d_x)
    u_new = np.empty(z_shape + (problem.d_u,))

    for c, i in enumerate(_driven_dimensions(problem)):
        Bc = float(quad.b_matrix[i, c])
        Rc = float(quad.r_diag[c])
        gf, gb = (
            _conditional_expectation(cond, g, d_x, vol_x)
            for g in _upwind_differences(w_next, i, grid.spacing[i])
        )
        b0z = _base_drift_per_memory(b0[i], grid.shape, d_x, f"drift0[{i}]")
        b0z = np.broadcast_to(b0z, z_shape)
        lo_c, hi_c = lo[c], hi[c]

        # Candidates: each branch's vertex clipped to the controls where
        # its upwind side applies (split at the kink u_star), the kink,
        # and the previous control; phi is evaluated on all four at once.
        u_star = -b0z / Bc
        cut_lo, cut_hi = np.maximum(u_star, lo_c), np.minimum(u_star, hi_c)
        ranges = ((cut_lo, hi_c), (lo_c, cut_hi)) if Bc > 0 else ((lo_c, cut_hi), (cut_lo, hi_c))
        cands = np.empty((4,) + z_shape)
        empty = np.empty((2,) + z_shape, dtype=bool)
        for row, (grad, (lo_i, hi_i)) in enumerate(zip((gf, gb), ranges)):
            vert = -Bc * grad / (2.0 * Rc)
            empty[row] = lo_i > hi_i
            cands[row] = np.clip(
                vert, np.where(empty[row], lo_c, lo_i), np.where(empty[row], hi_c, hi_i)
            )
        cands[2] = np.clip(u_star, lo_c, hi_c)
        cands[3] = np.clip(u_prev[..., c], lo_c, hi_c)
        v = b0z + Bc * cands
        phis = Rc * cands * cands + np.maximum(v, 0.0) * gf - np.maximum(-v, 0.0) * gb
        phis[:2] = np.where(empty, np.inf, phis[:2])

        best = np.argmin(phis[:3], axis=0)
        u_best = np.choose(best, cands[:3])
        phi_best = np.choose(best, phis[:3])
        keep_prev = phis[3] <= phi_best + TIE_TOLERANCE * (1.0 + np.abs(phi_best))
        u_new[..., c] = np.where(keep_prev, cands[3], u_best)
    return u_new


def _upwind_hamiltonian(problem: GridProblem, grid: GridSpec, t: float, diffs, u_slice):
    """f(t, s, u) + the drift-upwind part of (L_u w)(s) at every grid node.

    diffs[i] = (forward, backward) upwind differences of w along axis i
    (see _upwind_gradients); they do not depend on the control, so
    callers comparing several controls against one w compute them once.
    """
    S = grid.mesh()
    U = control_to_grid(np.asarray(u_slice, dtype=float), problem.d_x, problem.d_u)
    f = np.asarray(problem.running_cost(t, S, U), dtype=float)
    b = problem.drift(t, S, U)
    ham = _full(f, grid.shape)
    for (gf, gb), bi in zip(diffs, b):
        bi = np.asarray(bi, dtype=float)
        ham += np.maximum(bi, 0.0) * gf
        ham -= np.maximum(-bi, 0.0) * gb
    return ham


def conditional_hamiltonian(
    problem: GridProblem,
    grid: GridSpec,
    t: float,
    cond: np.ndarray,
    w_next: np.ndarray,
    u_slice: np.ndarray,
    diffs=None,
) -> np.ndarray:
    """E_{p(x|z)}[ f(t, s, u) + drift-upwind part of (L_u w) ] per memory node.

    Control-independent generator terms (diffusion, mixed stencils) are
    omitted, so differences of this quantity across controls equal
    differences of the full conditional expected Hamiltonian exactly, and
    its minimizers coincide with the sweep's control updates. diffs, if
    given, must be _upwind_gradients(w_next, grid); callers evaluating
    several controls against one w_next pass it to compute it once.
    """
    if diffs is None:
        diffs = _upwind_gradients(w_next, grid)
    ham = _upwind_hamiltonian(problem, grid, t, diffs, u_slice)
    return _conditional_expectation(cond, ham, problem.d_x, _x_volume(grid, problem.d_x))


def _minimize_search(problem, grid, t, cond, w_next, u_prev, lo, hi, vol_x):
    if not (np.all(np.isfinite(lo)) and np.all(np.isfinite(hi))):
        raise ProblemError("minimizer 'search' requires finite control bounds")
    d_x = problem.d_x
    d_u = problem.d_u
    z_shape = grid.memory_shape(d_x)
    diffs = _upwind_gradients(w_next, grid)

    def phi(u_slice):
        ham = _upwind_hamiltonian(problem, grid, t, diffs, u_slice)
        return _conditional_expectation(cond, ham, d_x, vol_x)

    axes = [np.linspace(lo[c], hi[c], DEFAULT_CANDIDATES) for c in range(d_u)]
    best_phi = None
    best_u = None
    for combo in itertools.product(*axes):
        val = phi(np.broadcast_to(np.asarray(combo), z_shape + (d_u,)))
        if best_phi is None:
            best_phi = val
            best_u = [np.full(z_shape, combo[c]) for c in range(d_u)]
        else:
            better = val < best_phi
            best_phi = np.where(better, val, best_phi)
            for c in range(d_u):
                best_u[c] = np.where(better, combo[c], best_u[c])

    u_prev_clipped = np.clip(u_prev, lo, hi)
    phi_prev = phi(u_prev_clipped)
    keep_prev = phi_prev <= best_phi + TIE_TOLERANCE * (1.0 + np.abs(best_phi))
    u_new = np.stack(best_u, axis=-1)
    return np.where(keep_prev[..., None], u_prev_clipped, u_new)


def grid_objective(problem: GridProblem, grid: GridSpec, density, control) -> float:
    """Discrete objective: sum_t E_p[f] dt + E_p[g] at the final slice."""
    p = _values(density)
    u = _values(control)
    S = grid.mesh()
    vol = grid.cell_volume
    dt = grid.dt
    times = grid.times()
    total = 0.0
    for i in range(grid.n_t):
        U = control_to_grid(u[i], problem.d_x, problem.d_u)
        f = np.asarray(problem.running_cost(times[i], S, U), dtype=float)
        total += float((f * p[i]).sum()) * vol * dt
    g = np.asarray(problem.terminal_cost(S), dtype=float)
    total += float((g * p[-1]).sum()) * vol
    return total


@dataclass
class GridSweepResult:
    """Final fields, per-iteration objective history, and bookkeeping."""

    problem: GridProblem
    grid: GridSpec
    control: ControlField
    value: Optional[ValueField]
    density: DensityField
    objective_history: np.ndarray
    converged: bool
    iterations: int
    final_delta: float
    mass_log: MassLog
    monotonicity_violations: List[tuple]


def _initial_density_slice(problem: GridProblem, grid: GridSpec) -> np.ndarray:
    S = grid.mesh()
    init = problem.initial_density
    if hasattr(init, "density"):
        p0 = init.density(np.stack(S, axis=-1))
    else:
        p0 = np.asarray(init(S), dtype=float)
    p0 = np.broadcast_to(np.asarray(p0, dtype=float), grid.shape).copy()
    if np.any(p0 < 0) or not np.all(np.isfinite(p0)):
        raise ProblemError("initial density must be finite and nonnegative")
    mass = p0.sum() * grid.cell_volume
    if mass <= 0:
        raise ProblemError("initial density has zero mass on the grid")
    return p0 / mass


def _forward_pass(problem, grid, p0, u_field, w_stale=None, log=None, out=None):
    """Density sweep from p0; returns (p, u, J) with J the discrete objective.

    Without w_stale the density is solved under u_field as given. With
    it, each step first refreshes its control from the fresh density and
    the held value slice w_stale[i + 1] (the sweep's forward half). The
    objective accumulates E_p[f] dt per step plus E_p[g] at the end, in
    the order grid_objective sums them.

    The density is written into out when given (any stale field of the
    grid's shape, overwritten slice by slice) and returned as p. Step i
    reads only slice i, which this pass has already written, and
    w_stale, so out may be the density this pass replaces but must not
    be w_stale. If a step raises, out is left partly overwritten.
    """
    d_x, d_u = problem.d_x, problem.d_u
    n, dt, vol = grid.n_t, grid.dt, grid.cell_volume
    times = grid.times()
    S = grid.mesh()
    p = np.empty((n + 1,) + grid.shape) if out is None else out
    p[0] = p0
    u_out = u_field.copy()
    running = 0.0
    for i in range(n):
        if w_stale is not None:
            cond, _, defined = conditional_density(p[i], grid, d_x)
            u_out[i] = minimize_conditional_hamiltonian(
                problem, grid, times[i], cond, w_stale[i + 1], u_field[i], defined
            )
        gen = build_generator(problem, grid, times[i], u_out[i], dt=dt)
        U = control_to_grid(u_out[i], d_x, d_u)
        f = np.asarray(problem.running_cost(times[i], S, U), dtype=float)
        running += float((f * p[i]).sum()) * vol * dt
        p[i + 1] = fp_step(p[i], gen, dt, log=log)
    g = np.asarray(problem.terminal_cost(S), dtype=float)
    return p, u_out, running + float((g * p[n]).sum()) * vol


def _backward_pass(problem, grid, p0, u_field, p_stale=None, out=None):
    """Value sweep from the terminal cost; returns (w, u, J) with J = <p0, w0>.

    Without p_stale the value is solved under u_field as given. With it,
    each step first refreshes its control from the held density slice
    p_stale[i] and the in-construction value w[i + 1] (the sweep's
    backward half).

    As in _forward_pass, out is an optional buffer the value is written
    into: step i reads only slice i + 1, already written by this pass,
    and p_stale, so out may be the value this pass replaces but must not
    be p_stale.
    """
    n, dt = grid.n_t, grid.dt
    times = grid.times()
    w = np.empty((n + 1,) + grid.shape) if out is None else out
    w[n] = np.asarray(problem.terminal_cost(grid.mesh()), dtype=float)
    u_out = u_field.copy()
    for i in range(n - 1, -1, -1):
        if p_stale is not None:
            cond, _, defined = conditional_density(p_stale[i], grid, problem.d_x)
            u_out[i] = minimize_conditional_hamiltonian(
                problem, grid, times[i], cond, w[i + 1], u_field[i], defined
            )
        gen = build_generator(problem, grid, times[i], u_out[i], dt=dt)
        w[i] = hjb_step(problem, grid, times[i], w[i + 1], u_out[i], dt=dt, gen=gen)
    return w, u_out, float((p0 * w[0]).sum()) * grid.cell_volume


def _validate_grid_setup(problem: GridProblem, grid: GridSpec, u0: np.ndarray):
    if grid.dim != problem.d_s:
        raise ProblemError(
            f"grid dimension {grid.dim} does not match problem d_s={problem.d_s}"
        )
    z_shape = grid.memory_shape(problem.d_x)
    expected = (grid.n_t,) + z_shape + (problem.d_u,)
    if u0.shape != expected:
        raise ProblemError(f"u0 must have shape {expected}, got {u0.shape}")
    lo, hi = problem.bounds()
    if np.any(u0 < lo) or np.any(u0 > hi):
        raise ProblemError("u0 violates the declared control bounds")


def fbsm_grid(
    problem: GridProblem,
    grid: GridSpec,
    u0: Optional[np.ndarray] = None,
    max_iters: int = 50,
    tol: float = 1e-6,
) -> GridSweepResult:
    """Alternate backward value sweeps and forward density sweeps.

    Initial step: solve the density forward under u0 (zero by default)
    and record its objective. Then, per iteration: even iterations sweep
    backward, refreshing the control at each step from the held density
    and the in-construction value before stepping the value; odd
    iterations sweep forward, refreshing the control from the fresh
    density and the held value before stepping the density. The recorded
    objective is the exact discrete cost of each iterate's control:
    <p0, w0> after backward sweeps, the accumulated running cost after
    forward sweeps. A sweep whose objective rises by more than
    MONOTONICITY_SLACK * (1 + |J_{k-1}|) is recorded in
    monotonicity_violations as (k, J_{k-1}, J_k); it does not stop the
    iteration.

    Each half-sweep reads only the opposite, held field, so it writes
    into the buffer of the field it replaces: at most two (n_t + 1)-slice
    fields are alive at once. The field of the last sweep was stepped
    under the returned control (the density when iterations is even, the
    value when it is odd); the other one is a stale iterate. A sweep that
    raises leaves its buffer partly overwritten, and no result is
    returned.
    """
    n = grid.n_t
    if u0 is None:
        u = np.zeros((n,) + grid.memory_shape(problem.d_x) + (problem.d_u,))
    else:
        u = np.asarray(u0, dtype=float).copy()
    _validate_grid_setup(problem, grid, u)

    p0 = _initial_density_slice(problem, grid)
    mass_log = MassLog()
    p, u, j0 = _forward_pass(problem, grid, p0, u, log=mass_log)
    w = None

    def half_sweep(k, backward):
        nonlocal p, u, w
        if backward:
            w, u, J = _backward_pass(problem, grid, p0, u, p_stale=p, out=w)
        else:
            p, u, J = _forward_pass(problem, grid, p0, u, w_stale=w, log=mass_log, out=p)
        return J

    history, converged, iterations, final_delta = _sweep(j0, half_sweep, max_iters, tol)
    return GridSweepResult(
        problem=problem,
        grid=grid,
        control=ControlField(u, grid, problem.d_x),
        value=None if w is None else ValueField(w, grid),
        density=DensityField(p, grid),
        objective_history=history,
        converged=converged,
        iterations=iterations,
        final_delta=final_delta,
        mass_log=mass_log,
        monotonicity_violations=_descent_violations(history, MONOTONICITY_SLACK)[0],
    )
