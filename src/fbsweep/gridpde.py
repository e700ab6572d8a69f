"""Finite-difference solver for coupled density/value sweeps.

The controlled diffusion over the extended state s = (x, z) induces two
grid equations: the density p(t, s) moves forward under the adjoint
generator, the value w(t, s) moves backward under the generator itself,
and the memory-feedback control u(t, z) couples them through

    u(t, z) = argmin_u E_{p(x|z)}[ f(t, s, u) + (L_u w)(s) ].

The problem model (GridProblem) is control-affine with quadratic control
cost, each control component driving one coordinate whose control-free
drift is constant in x for each memory node. So this argmin is found in
closed form, node by node (minimize_conditional_hamiltonian).

The diffusion is diagonal. The generator L_u is discretized with
first-order upwinding of the drift (its split into max(b, 0) and
max(-b, 0) is written once, in _upwind_split, which the generator and
the Hamiltonian both read), central 3-point stencils for the diffusion,
and a reflecting (no-flux) boundary closure obtained by zeroing
boundary-crossing coefficients. The adjoint is the exact matrix
transpose, so mass conservation and the discrete duality
<w, L'p> = <Lw, p> hold to rounding error by construction.

Every off-diagonal coefficient is nonnegative, so I + dt L_u is a
nonnegative row-stochastic matrix exactly when dt * max(-diag) <= 1, the
generator's own diagonal giving each cell's exit rate; the stability
check (DiscreteGenerator.check_stability) asks for
dt * max(-diag) <= STABILITY_FRACTION. Each time slice is then an exact
finite-state Markov decision step, and the alternating sweeps minimize
the exact discrete objective node by node (ties broken toward the
previous control), which is what makes the recorded objective monotone
across iterations.

The sweeps are coupled only through the control, so within a pass a
time node's drift0, diffusion and base_cost never change. A grid solve
reads them once per node, in a pre-pass (_Runs) that checks them against
the model and groups consecutive nodes whose values are bit-identical
into runs. Each pass holds one _Stage, everything at a node that no
control changes, and rebuilds it only where a run starts: one closed
(up, down) coefficient pair per undriven axis, the driven axes'
diffusion and their drift at memory size, the base cost and the
minimizer's one control-free candidate, the kink clipped to the bounds.
Per step the work is then a few whole-grid array operations: the driven
axes' rows, upwinded at memory size and broadcast into the grid once,
with the diffusion term, then closed; the diagonal; the cost
f0 + r u^2; the upwind differences of the value along the driven axes
(_driven_terms, computed once per step and handed to the minimizer and
to verify's Hamiltonian evaluations) and the candidates that depend on
them. Every sum keeps the order of a build from scratch, so a stage
moves no bit. The mesh, axes and spacing are computed once per GridSpec
and shared as read-only arrays, and every stencil term (apply,
apply_adjoint, the upwind differences) is one slice add or slice
difference on the C-ordered flat grid instead of a zero-padded shifted
copy.

The conditional Hamiltonian, the one equation coupling the two sweeps,
is written once, in closed form per memory node (_phi). The minimizer
evaluates its candidates through it, and conditional_hamiltonian, which
verify's stationarity oracle reads, sums it over the control components.

Each direction's time step (build_generator, then fp_step or hjb_step)
is written once, in its pass, _forward_pass or _backward_pass: one loop
over the step nodes in pass order (_Runs.nodes). A pass takes one
per-node hook, visit(i, stage, slice), run before step i reads u[i],
with the density slice p[i] forward and the value slice w[i + 1]
backward. The sweep refreshes u[i] there, and verify's stationarity
oracle measures the excess of u[i] there.

Memory is a fixed base plus one (n_t + 1)-slice field. The two halves
of a sweep are coupled only through the control: step i of a half-sweep
reads the opposite field only to refresh u(t_i, .), and it reads the one
slice that it then overwrites. A pass copies each fresh slice into its
output buffer and drops the fresh array at once; the backward pass
without one holds only the current slice. So each pass can write into
the buffer of the field it reads, and fbsm_grid holds a single buffer.

A memory node whose conditional density is undefined (too little mass)
copies its control from the nearest defined memory node in Euclidean
distance over the memory spacing, ties going to the lowest flat index
(_fill_undefined). The module needs numpy only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

import numpy as np

from fbsweep.core import (
    Gaussian,
    GridSpec,
    ProblemError,
    StabilityError,
    _descent_violations,
    _frozen,
    _sweep,
)

STABILITY_FRACTION = 0.9
NEGATIVE_MASS_LIMIT = 1e-6
MARGINAL_FLOOR = 1e-12
TIE_TOLERANCE = 1e-12
# Relative rise per sweep that the recorded objective's descent tolerates
# (the discretization slack of the exact discrete Markov decision steps).
MONOTONICITY_SLACK = 1e-6


@dataclass(frozen=True)
class GridProblem:
    """The grid backend's one problem model, evaluated on mesh arrays.

    Control enters the drift affinely and the running cost quadratically:
    drift_i = drift0(t, S)[i] + sum_c b_matrix[i, c] u_c and
    f = base_cost(t, S) + sum_c r_diag[c] u_c^2, with r_diag > 0 and
    d_u = r_diag.size. Each control component drives exactly one
    coordinate (one nonzero entry per column of b_matrix, in distinct
    rows), and the drift0 of a driven coordinate must be constant across
    x for each memory node: then the conditional Hamiltonian is piecewise
    quadratic in each component, and minimize_conditional_hamiltonian
    finds its argmin in closed form. A problem outside this model (say, a
    non-quadratic control cost) would need its own family and minimizer.

    The diffusion D is diagonal, so that I + dt L_u is a nonnegative
    row-stochastic matrix under the stability bound; a nonzero
    off-diagonal entry is refused.

    drift0, diffusion and base_cost are functions of (t, S): the same t
    gives the same values. A grid solve reads each once per time node
    before its first step, checking there that the diffusion's diagonal
    is nonnegative and its off-diagonal zero, and that no driven drift0
    varies across x by more than 1e-10 (1 + max |drift0|) (ProblemError);
    each pass reads them again only where the values change. A node's
    _Stage, which every node function takes, is one such checked reading.

    drift0(t, S) -> d_s arrays, base_cost(t, S) and terminal_cost(S) ->
    grid arrays, diffusion(t, S) -> (d_s, d_s) nested array-like
    (control-independent). S is the meshgrid tuple of the extended-state
    grid; U is a list of d_u arrays shaped to broadcast over it (memory
    axes trailing). initial_density is a Gaussian, the law the simulator
    samples too; the grid reads its density(points). Omitted control
    bounds are infinite; control_lower and control_upper hold them as
    read-only arrays. Every shape, the b_matrix structure, the bounds and
    the initial density's form are checked at construction, which raises
    ProblemError.
    """

    d_x: int
    d_z: int
    b_matrix: np.ndarray
    r_diag: np.ndarray
    drift0: Callable
    base_cost: Callable
    diffusion: Callable
    terminal_cost: Callable
    initial_density: Gaussian
    control_lower: Optional[np.ndarray] = None
    control_upper: Optional[np.ndarray] = None

    def __post_init__(self):
        r = np.array(self.r_diag, dtype=float, ndmin=1)
        B = np.array(self.b_matrix, dtype=float, ndmin=2)
        if r.ndim != 1 or not np.all(r > 0):
            raise ProblemError("r_diag must be a vector of positive control costs")
        if B.shape != (self.d_s, r.size):
            raise ProblemError(
                f"b_matrix must have shape (d_s, d_u) = {(self.d_s, r.size)}, got {B.shape}"
            )
        lo, hi = (
            np.full(r.size, inf) if bound is None else np.array(bound, dtype=float, ndmin=1)
            for bound, inf in ((self.control_lower, -np.inf), (self.control_upper, np.inf))
        )
        if lo.shape != r.shape or hi.shape != r.shape:
            raise ProblemError(f"control bounds must have length d_u={r.size}")
        if np.isnan(lo).any() or np.isnan(hi).any():
            raise ProblemError("control bounds must not be NaN")
        if np.any(lo >= hi):
            raise ProblemError("control bounds must satisfy lower < upper")
        if not callable(getattr(self.initial_density, "density", None)):
            raise ProblemError("initial_density must be a Gaussian, with density(points)")
        normalized = {"r_diag": r, "b_matrix": B, "control_lower": lo, "control_upper": hi}
        for name, arr in normalized.items():
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)
        object.__setattr__(self, "_driven", _driven_dimensions(B))

    @property
    def d_s(self) -> int:
        return self.d_x + self.d_z

    @property
    def d_u(self) -> int:
        return self.r_diag.size

    def _drift0(self, t, S) -> list:
        """drift0(t, S) as a list of d_s components."""
        base = list(self.drift0(t, S))
        if len(base) != self.d_s:
            raise ProblemError(f"drift0 returned {len(base)} components, expected {self.d_s}")
        return base

    def drift(self, t, S, U) -> list:
        """drift0 + b_matrix u per coordinate, skipping zero entries of b_matrix."""
        base = self._drift0(t, S)
        out = []
        for i in range(self.d_s):
            term = np.asarray(base[i], dtype=float)
            for c in range(self.d_u):
                if self.b_matrix[i, c] != 0.0:
                    term = term + self.b_matrix[i, c] * U[c]
            out.append(term)
        return out

    def running_cost(self, t, S, U):
        """base_cost + sum_c r_diag[c] u_c^2."""
        return self._priced(np.asarray(self.base_cost(t, S), dtype=float), U)

    def _priced(self, f0, U):
        """f0 + sum_c r_diag[c] u_c^2, summed in that order."""
        total = f0
        for c in range(self.d_u):
            total = total + self.r_diag[c] * np.square(U[c])
        return total


def _driven_dimensions(b_matrix: np.ndarray) -> list:
    """Map control component -> the single grid dimension it drives."""
    driven = []
    for c in range(b_matrix.shape[1]):
        rows = np.nonzero(b_matrix[:, c])[0]
        if rows.size != 1:
            raise ProblemError(
                "each control component must drive exactly one coordinate; "
                "this problem is outside the grid model"
            )
        driven.append(int(rows[0]))
    if len(set(driven)) != len(driven):
        raise ProblemError(
            "control components must drive distinct coordinates; this "
            "problem is outside the grid model"
        )
    return driven


def _axis_edge(shape, axis, last: bool):
    idx = [slice(None)] * len(shape)
    idx[axis] = -1 if last else 0
    return tuple(idx)


def _flat_step(shape, axis: int) -> int:
    """Offset of s + e_axis from s in the C-ordered flat grid."""
    return math.prod(shape[axis + 1 :])


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
    w(s - e_i), and the diagonal is minus the sum of up and down (row
    sums are zero exactly, so constants are harmonic and the adjoint
    conserves mass).
    apply/apply_adjoint are exact transposes of each other.

    The constructor takes one C-ordered full-grid (up, down) pair per
    axis, after the reflecting closure, which zeros every coefficient
    that reaches across the boundary (build_generator makes them). It only
    reads them: generators built from one _Stage share its arrays. Every
    coefficient is nonnegative, so -diag is each cell's exit rate and the
    stability check reads it alone.
    Stencils are applied as slice adds on the C-ordered flat grid, where
    s + e_i is s + step_i: the rows a flat shift wraps into carry a zero
    coefficient, so each term is one contiguous multiply-add that adds an
    exact zero there (inputs are finite: the sweeps reject anything else).
    """

    def __init__(self, grid: GridSpec, up, down):
        shape = grid.shape
        self.grid = grid
        self.up, self.down = up, down
        self.diag = _sum(self.up, shape)
        np.negative(self.diag, out=self.diag)
        self.diag -= _sum(self.down, shape)
        self._steps = [_flat_step(shape, i) for i in range(grid.dim)]

    def _stencils(self):
        """(flat step, flat up, flat down) per axis."""
        return zip(self._steps, map(_flat, self.up), map(_flat, self.down))

    def apply(self, w: np.ndarray) -> np.ndarray:
        wf = _flat(w)
        out = self.diag * wf.reshape(self.diag.shape)
        of = out.reshape(-1)
        for k, up, down in self._stencils():
            of[:-k] += up[:-k] * wf[k:]
            of[k:] += down[k:] * wf[:-k]
        return out

    def apply_adjoint(self, p: np.ndarray) -> np.ndarray:
        pf = _flat(p)
        out = self.diag * pf.reshape(self.diag.shape)
        of = out.reshape(-1)
        for k, up, down in self._stencils():
            of[k:] += up[:-k] * pf[:-k]
            of[:-k] += down[k:] * pf[k:]
        return out

    def check_stability(self, dt: float):
        """StabilityError, naming the binding cell argmin(diag), unless
        dt * max(-diag) <= STABILITY_FRACTION: I + dt L_u is nonnegative
        exactly when dt * max(-diag) <= 1."""
        diag = self.diag
        limit = -float(diag.min())
        if dt * limit > STABILITY_FRACTION + 1e-12:
            cell = tuple(int(k) for k in np.unravel_index(np.argmin(diag), diag.shape))
            raise StabilityError(
                f"explicit step unstable: dt={dt:.6g} exceeds "
                f"{STABILITY_FRACTION}/rate = {STABILITY_FRACTION / limit:.6g} "
                f"(binding cell {cell}, outflow rate {limit:.6g})"
            )


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


def _read_node(problem: GridProblem, grid: GridSpec, t: float):
    """drift0, diffusion and base_cost at t as float arrays: (b0, D, f0)."""
    d = grid.dim
    S = grid.mesh()
    b0 = [np.asarray(b, dtype=float) for b in problem._drift0(t, S)]
    D = problem.diffusion(t, S)
    D = [[np.asarray(D[i][j], dtype=float) for j in range(d)] for i in range(d)]
    return b0, D, np.asarray(problem.base_cost(t, S), dtype=float)


def _checked(problem: GridProblem, grid: GridSpec, b0, D) -> dict:
    """Check a node's drift0 and diffusion against the grid model, and
    reduce each driven coordinate's drift0 to memory size: {axis: b0z}.

    ProblemError if a diagonal diffusion entry is negative, if a driven
    drift0 varies across x (_base_drift_per_memory) or if an off-diagonal
    diffusion entry is nonzero (_refuse_off_diagonal), checked in that order.
    """
    d = grid.dim
    b0z = {}
    for i in range(d):
        if (D[i][i] < 0).any():
            raise ProblemError(f"diffusion D[{i}][{i}] must be nonnegative")
        if i in problem._driven:
            b0z[i] = _base_drift_per_memory(b0[i], grid.shape, problem.d_x, i)
    _refuse_off_diagonal(D)
    return b0z


def _refuse_off_diagonal(D):
    """ProblemError unless every off-diagonal entry of the diffusion
    matrix D (nested rows of arrays or numbers) is zero everywhere."""
    for i, row in enumerate(D):
        for j, entry in enumerate(row):
            if i != j and np.any(entry != 0.0):
                raise ProblemError(
                    f"diffusion D[{i}][{j}] must be zero: the grid model "
                    "takes a diagonal diffusion only"
                )


def _upwind_split(b, shape):
    """The upwind split of the drift b, (max(b, 0), max(-b, 0)), as two
    new arrays of the given shape (b broadcast into it). This is the one
    place the grid picks a stencil side by the drift's sign: the
    generator's coefficients (divided by the spacing) and the Hamiltonian
    (_phi) both read it.
    """
    up = np.maximum(b, 0.0, out=np.empty(shape))
    down = np.negative(b, out=np.empty(shape))
    np.maximum(down, 0.0, out=down)
    return up, down


def _close(up_i, down_i, shape, axis):
    """Reflecting closure of one axis, in place: zero the coefficients
    that reach across the boundary."""
    up_i[_axis_edge(shape, axis, last=True)] = 0.0
    down_i[_axis_edge(shape, axis, last=False)] = 0.0
    return up_i, down_i


@dataclass(frozen=True)
class _Drive:
    """Control component c driving coordinate axis, at one time node:
    B = b_matrix[axis, c], R = r_diag[c], the axis's diffusion term
    base = D_ii / (2 ds^2), its control-free drift per memory node b0z,
    and the kink u* = -b0z / B, where the driven drift changes sign,
    clipped to the control bounds: the minimizer's one control-free
    candidate."""

    c: int
    axis: int
    B: float
    R: float
    base: np.ndarray
    b0z: np.ndarray
    kink: np.ndarray


class _Stage:
    """What one time node's generator, running cost and minimizer read
    that no control changes, derived from one reading of the problem at
    t, checked (_checked). It holds problem, grid and t too, so that it is
    the one input of the node functions (build_generator, hjb_step, the
    minimizer and conditional_hamiltonian). A pass that holds one stage
    over a run of bit-identical nodes sets its t at each node
    (_Runs.nodes).

    undriven maps each undriven axis to its one pair of upwind +
    diffusion coefficients (up, down), after the reflecting closure;
    drives holds one _Drive per control component, in component order
    (its diffusion term, control-free drift and clipped kink); f0 the
    base cost. The arrays it derives are read-only, since every
    generator built from the stage shares them.
    """

    def __init__(self, problem: GridProblem, grid: GridSpec, t: float):
        self.problem, self.grid, self.t = problem, grid, t
        b0, D, f0 = _read_node(problem, grid, t)
        b0z = _checked(problem, grid, b0, D)
        shape, spacing = grid.shape, grid.spacing
        self.f0 = f0
        base = [D[i][i] / (2.0 * spacing[i] ** 2) for i in range(grid.dim)]
        self.undriven = {}
        for i in range(grid.dim):
            if i in b0z:
                continue
            up_i, down_i = _upwind_split(b0[i], shape)
            for coeff in (up_i, down_i):
                coeff /= spacing[i]
                coeff += base[i]
            self.undriven[i] = tuple(map(_frozen, _close(up_i, down_i, shape, i)))

        self.drives = []
        for c, i in enumerate(problem._driven):
            Bc, Rc = float(problem.b_matrix[i, c]), float(problem.r_diag[c])
            kink = np.clip(-b0z[i] / Bc, problem.control_lower[c], problem.control_upper[c])
            arrays = (base[i], b0z[i], kink)
            self.drives.append(_Drive(c, i, Bc, Rc, *(_frozen(np.asarray(a)) for a in arrays)))


class _Runs:
    """A grid solve's pre-pass: its step times grouped into runs of
    consecutive nodes whose drift0, diffusion and base_cost are
    bit-identical.

    Each callable is read once per step time, and a node whose values
    differ from its run's is checked (_checked), so a model error is
    raised before the first step. Only the run boundaries are kept:
    bounds holds the index of each run's first node, then n_t. The
    values compared against are a byte copy of the current run's first
    node, so a callable may reuse its output buffer.
    """

    def __init__(self, problem: GridProblem, grid: GridSpec):
        self.problem, self.grid = problem, grid
        self.times = grid.times()
        self.bounds = []
        held = None
        for i, t in enumerate(self.times[:-1]):
            b0, D, f0 = _read_node(problem, grid, t)
            # Shape and bit pattern: -0.0 and 0.0 differ, a NaN equals itself.
            node = [(v.shape, v.tobytes()) for v in b0 + [e for row in D for e in row] + [f0]]
            if node != held:
                _checked(problem, grid, b0, D)
                self.bounds.append(i)
                held = node
        self.bounds.append(grid.n_t)

    def nodes(self, backward: bool):
        """Yield (i, stage) for every step node i, in ascending order or,
        if backward, descending: stage is node i's _Stage. One stage is
        built per run, at the first node the pass reaches in it, and its t
        is set at each node. The nodes of a run read bit-identical values,
        so that stage is the one a reading at node i gives."""
        runs = list(zip(self.bounds, self.bounds[1:]))
        for lo, hi in reversed(runs) if backward else runs:
            steps = range(hi - 1, lo - 1, -1) if backward else range(lo, hi)
            stage = _Stage(self.problem, self.grid, self.times[steps[0]])
            for i in steps:
                stage.t = self.times[i]
                yield i, stage


def build_generator(stage: _Stage, u_slice: np.ndarray) -> DiscreteGenerator:
    """Discretize the generator at the stage's node under the given
    control slice.

    Drift terms are upwinded in the drift sign, the diagonal diffusion
    uses central 3-point stencils, and coefficients that would reach
    across the boundary are zeroed (reflecting closure). The explicit
    stability bound dt * max(-diag) <= 0.9, read from the generator's own
    diagonal, is checked by the caller, gen.check_stability(dt), which
    reports the binding cell; the passes check it at grid.dt before
    every step.

    Only the driven axes depend on the control: a driven coordinate's
    drift is upwinded per memory node and broadcast into the grid once,
    when the diffusion term is added.
    """
    problem, grid = stage.problem, stage.grid
    shape, spacing = grid.shape, grid.spacing
    U = control_to_grid(u_slice, problem.d_x, problem.d_u)
    z_grid = (1,) * problem.d_x + grid.memory_shape(problem.d_x)

    # up_i = max(b_i, 0) / ds_i + D_ii / (2 ds_i^2), at memory size until
    # the diffusion term fills the full grid.
    rows = {}
    for drive in stage.drives:
        up_i, down_i = _upwind_split(drive.b0z + drive.B * U[drive.c], z_grid)
        for coeff in (up_i, down_i):
            coeff /= spacing[drive.axis]
        sides = (np.add(coeff, drive.base, out=np.empty(shape)) for coeff in (up_i, down_i))
        rows[drive.axis] = _close(*sides, shape, drive.axis)
    pairs = {**stage.undriven, **rows}
    up, down = ([pairs[i][k] for i in range(grid.dim)] for k in (0, 1))
    return DiscreteGenerator(grid, up, down)


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


def fp_step(p_slice: np.ndarray, gen: DiscreteGenerator, log: MassLog) -> np.ndarray:
    """One explicit forward step p + dt L'p, clamped and renormalized, with
    dt the step of the generator's grid (gen.grid.dt).

    Negative values produced by the step are clamped at zero and the
    slice renormalized to unit mass; the pre-clamp negative mass and the
    pre-normalization mass drift are recorded in log. Negative mass
    beyond the abort limit raises StabilityError instead of being hidden.
    """
    vol = gen.grid.cell_volume
    q = gen.apply_adjoint(p_slice)
    q *= gen.grid.dt
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
    log.record(negative_mass, abs(mass - 1.0))
    q /= mass
    return q


def hjb_step(
    stage: _Stage, w_next: np.ndarray, u_slice: np.ndarray, gen: DiscreteGenerator
) -> np.ndarray:
    """One explicit backward step w + dt [f + L w] at the stage's node,
    with gen the generator built from stage under u_slice. f is priced on
    the stage's base cost."""
    problem, grid = stage.problem, stage.grid
    f = problem._priced(stage.f0, control_to_grid(u_slice, problem.d_x, problem.d_u))
    w_t = gen.apply(w_next)
    w_t += f
    w_t *= grid.dt
    w_t += w_next
    if not np.all(np.isfinite(w_t)):
        raise StabilityError(f"value slice became non-finite at t={stage.t:.6g}")
    return w_t


def conditional_density(
    p_slice: np.ndarray,
    grid: GridSpec,
    d_x: int,
):
    """Split p(t, x, z) into p(x|z) and the memory marginal p(z).

    Returns (conditional, marginal, defined): conditional integrates to
    one over x wherever defined; at memory nodes whose marginal density
    falls below MARGINAL_FLOOR the conditional is zeroed and flagged.
    """
    p_slice = np.asarray(p_slice, dtype=float)
    x_axes = tuple(range(d_x))
    marginal = p_slice.sum(axis=x_axes) * _x_volume(grid, d_x)
    defined = marginal > MARGINAL_FLOOR
    cond = p_slice / np.where(defined, marginal, 1.0)
    cond *= defined
    return cond, marginal, defined


def _x_volume(grid: GridSpec, d_x: int) -> float:
    return float(math.prod(grid.spacing[:d_x]))


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


def _base_drift_per_memory(b0_i: np.ndarray, shape, d_x: int, i: int) -> np.ndarray:
    """Reduce the control-free drift of driven coordinate i to a z-array:
    its minimum over x.

    The grid model needs this drift to be constant across x for each
    memory node, so that the upwind side switches at one control value
    per node; it is refused if its spread over x exceeds
    1e-10 (1 + max |drift|).
    """
    arr = np.asarray(b0_i, dtype=float)
    if arr.shape != shape:
        arr = np.broadcast_to(arr, shape)
    x_axes = tuple(range(d_x))
    lo = arr.min(axis=x_axes)
    hi = arr.max(axis=x_axes)
    scale = max(np.abs(lo).max(), np.abs(hi).max())  # = max |arr|
    if np.max(hi - lo) > 1e-10 * (1.0 + scale):
        raise ProblemError(
            f"drift0[{i}] varies across the state for fixed memory; this "
            "problem is outside the grid model"
        )
    return lo


def _fill_undefined(u_new: np.ndarray, defined: np.ndarray, grid: GridSpec, d_x: int):
    """Copy controls in place onto low-mass memory nodes from the nearest defined one.

    Candidates are the defined nodes with an undefined axis neighbour: a
    defined node without one has a defined neighbour one step closer to
    any undefined node, so every nearest node is a candidate. Squared
    distances sum integer index offsets times the memory spacing, so
    equal offsets tie exactly, and a tie goes to the lowest flat index
    (np.nonzero order; in 1-D the node scipy.ndimage's Euclidean distance
    transform picks). The work is one (undefined x candidates) table.
    """
    if defined.all():
        return
    if not defined.any():
        raise ProblemError("conditional density undefined at every memory node")
    undefined = ~defined
    edge = np.zeros_like(defined)
    for axis in range(defined.ndim):
        before = (slice(None),) * axis + (slice(None, -1),)
        after = (slice(None),) * axis + (slice(1, None),)
        edge[before] |= undefined[after]
        edge[after] |= undefined[before]
    edge &= defined
    src = np.nonzero(edge)
    dst = np.nonzero(undefined)
    d2 = sum(
        np.square((d[:, None] - s) * h) for s, d, h in zip(src, dst, grid.spacing[d_x:])
    )
    nearest = np.argmin(d2, axis=1)
    u_new[dst] = u_new[tuple(s[nearest] for s in src)]


def _driven_terms(stage: _Stage, cond, w_next) -> list:
    """What each control component's conditional Hamiltonian reads, as a
    list of (drive, E[gf], E[gb]), one entry per component.

    drive is the component's _Drive in stage, and E[gf], E[gb] are the
    conditional expectations under cond of the forward and backward
    upwind differences of w_next along the axis it drives. The list is
    what minimize_conditional_hamiltonian and conditional_hamiltonian
    take as terms, so that a caller pricing several controls at one
    (stage, cond, w_next) computes it once.
    """
    problem, grid = stage.problem, stage.grid
    d_x = problem.d_x
    vol_x = _x_volume(grid, d_x)
    terms = []
    for drive in stage.drives:
        gf, gb = (
            _conditional_expectation(cond, g, d_x, vol_x)
            for g in _upwind_differences(w_next, drive.axis, grid.spacing[drive.axis])
        )
        terms.append((drive, gf, gb))
    return terms


def _phi(drive: _Drive, gf, gb, u):
    """One component's conditional Hamiltonian at control u, per memory
    node: R u^2 + max(v, 0) E[gf] - max(-v, 0) E[gb], v = b0z + B u the
    driven drift.

    Since b0z is constant in x, E_{p(x|z)}[f + L_u w] is the sum of this
    over components plus terms no control changes (base cost, undriven
    drift, diffusion). u may carry leading axes (candidates) over z.
    """
    v = drive.b0z + drive.B * u
    up, down = _upwind_split(v, v.shape)
    return drive.R * u * u + up * gf - down * gb


def minimize_conditional_hamiltonian(
    stage: _Stage, terms: list, u_prev: np.ndarray, defined: np.ndarray
) -> np.ndarray:
    """Per-memory-node argmin of the conditional expected Hamiltonian.

    Vectorized over all memory nodes: terms is _driven_terms(stage, cond,
    w_next) of the conditional table cond and the value slice w_next the
    generator acts on, u_prev the previous iterate's control slice (kept
    on ties, which pins fixed points).
    In the grid model the discrete conditional Hamiltonian is piecewise
    quadratic in each control component (_phi: the upwind side switches
    where the driven drift changes sign), so the argmin is found exactly
    among four candidates priced with _phi: the two branch vertices and
    the breakpoint, each clipped to the control bounds, and the previous
    control. Low-mass nodes (defined=False, as conditional_density flags
    them) inherit the control of the nearest defined node. verify's
    stationarity oracle prices controls at a step with
    conditional_hamiltonian from the terms it hands the minimizer, so
    they are computed once.
    """
    problem, grid = stage.problem, stage.grid
    u_prev = np.asarray(u_prev, dtype=float)
    lo, hi = problem.control_lower, problem.control_upper
    z_shape = grid.memory_shape(problem.d_x)
    u_new = np.empty(z_shape + (problem.d_u,))

    for drive, gf, gb in terms:
        c, Bc, Rc = drive.c, drive.B, drive.R

        # Candidates: each upwind branch's vertex clipped to the control
        # bounds, the clipped kink, and the previous control, all priced
        # by _phi at once. This is exact: R > 0 makes each branch strictly
        # convex, so its minimum over its own side of the kink lies at its
        # vertex, the kink or a bound, each a candidate; a vertex that
        # lands on the other side is priced on that side's branch, where
        # it is never below that branch's own minimum.
        cands = np.empty((4,) + z_shape)
        for row, grad in enumerate((gf, gb)):
            np.clip(-Bc * grad / (2.0 * Rc), lo[c], hi[c], out=cands[row])
        cands[2] = drive.kink
        cands[3] = np.clip(u_prev[..., c], lo[c], hi[c])
        phis = _phi(drive, gf, gb, cands)

        best = np.argmin(phis[:3], axis=0)
        u_best = np.choose(best, cands[:3])
        phi_best = np.choose(best, phis[:3])
        keep_prev = phis[3] <= phi_best + TIE_TOLERANCE * (1.0 + np.abs(phi_best))
        u_new[..., c] = np.where(keep_prev, cands[3], u_best)
    _fill_undefined(u_new, defined, grid, problem.d_x)
    return u_new


def conditional_hamiltonian(stage: _Stage, terms: list, u_slice: np.ndarray) -> np.ndarray:
    """The conditional expected Hamiltonian E_{p(x|z)}[f + L_u w] at the
    control slice u_slice, per memory node, less every control-independent
    term: the base cost, the drift of undriven coordinates and the
    diffusion.

    It is the sum over control components of _phi, the formula that
    minimize_conditional_hamiltonian minimizes, so its differences across
    controls equal those of the full conditional Hamiltonian and its
    minimizers are the sweep's control updates. terms is
    _driven_terms(stage, cond, w_next), as in
    minimize_conditional_hamiltonian.
    """
    u_slice = np.asarray(u_slice, dtype=float)
    total = np.zeros(stage.grid.memory_shape(stage.problem.d_x))
    for drive, gf, gb in terms:
        total += _phi(drive, gf, gb, u_slice[..., drive.c])
    return total


@dataclass
class GridSweepResult:
    """Final field, per-iteration objective history, and bookkeeping.

    control is u(t, z) of shape (n_t,) + memory shape + (d_u,). Of the
    two fields the result holds in full only the one the last half-sweep
    stepped under the returned control, of shape (n_t + 1,) + grid shape:
    the density p(t, s) when iterations is even (value is None) and the
    value w(t, s) when it is odd (density is None). kept_slices maps each
    time node that fbsm_grid was asked to keep to the other field's slice
    there, as the last sweep that held that field left it; it is empty
    when no backward sweep has run.
    """

    problem: GridProblem
    grid: GridSpec
    control: np.ndarray
    value: Optional[np.ndarray]
    density: Optional[np.ndarray]
    kept_slices: Dict[int, np.ndarray]
    objective_history: np.ndarray
    converged: bool
    iterations: int
    final_delta: float
    mass_log: MassLog
    monotonicity_violations: List[tuple]


def _initial_density_slice(problem: GridProblem, grid: GridSpec) -> np.ndarray:
    p0 = problem.initial_density.density(np.stack(grid.mesh(), axis=-1))
    p0 = np.broadcast_to(np.asarray(p0, dtype=float), grid.shape).copy()
    if np.any(p0 < 0) or not np.all(np.isfinite(p0)):
        raise ProblemError("initial density must be finite and nonnegative")
    mass = p0.sum() * grid.cell_volume
    if mass <= 0:
        raise ProblemError("initial density has zero mass on the grid")
    return p0 / mass


def _stored(out, i, fresh):
    """fresh, or with out its copy out[i], fresh then being dropped."""
    if out is None:
        return fresh
    out[i] = fresh
    return out[i]


def _forward_pass(problem, grid, p0, u, runs, log, out, visit=None):
    """The density stepped forward from p0 under u into out, fp_step
    recording into log; returns the discrete objective J.

    J = sum_t E_p[f] dt + E_p[g] at the final slice, accumulated step by
    step. runs is the solve's _Runs, whose nodes give the stage that the
    step, its cost and visit read. visit(i, stage, p[i]), when given, runs
    at each step before it reads u[i], so it may refresh u[i] in place
    from the slice; out[i + 1] is not written before it returns. If a
    step raises, out and u are left partly overwritten.
    """
    d_x, d_u = problem.d_x, problem.d_u
    dt, vol = grid.dt, grid.cell_volume
    p_i = _stored(out, 0, p0)
    running = 0.0
    for i, stage in runs.nodes(backward=False):
        if visit is not None:
            visit(i, stage, p_i)
        f = problem._priced(stage.f0, control_to_grid(u[i], d_x, d_u))
        running += float((f * p_i).sum()) * vol * dt
        gen = build_generator(stage, u[i])
        gen.check_stability(dt)
        p_i = _stored(out, i + 1, fp_step(p_i, gen, log))
    g = np.asarray(problem.terminal_cost(grid.mesh()), dtype=float)
    return running + float((g * p_i).sum()) * vol


def _backward_pass(problem, grid, u, runs, visit=None, out=None):
    """The value stepped backward from the terminal cost under u; returns
    its last slice, w[0].

    As _forward_pass, mirrored: visit(i, stage, w[i + 1]) runs at each
    step before it reads u[i], and with out, out[i] is not written before
    it returns. Without out only the current slice is held.
    """
    w_i = _stored(out, grid.n_t, _full(problem.terminal_cost(grid.mesh()), grid.shape))
    for i, stage in runs.nodes(backward=True):
        if visit is not None:
            visit(i, stage, w_i)
        gen = build_generator(stage, u[i])
        gen.check_stability(grid.dt)
        w_i = _stored(out, i, hjb_step(stage, w_i, u[i], gen))
    return w_i


def fbsm_grid(
    problem: GridProblem,
    grid: GridSpec,
    max_iters: int = 50,
    tol: float = 1e-6,
    keep_nodes=(),
) -> GridSweepResult:
    """Alternate backward value sweeps and forward density sweeps.

    Initial step: solve the density forward under the zero control
    (it must lie within the declared control bounds) and record its
    objective. Then, per iteration: even iterations sweep backward,
    refreshing the control at each step from the held density and the
    in-construction value before stepping the value; odd iterations
    sweep forward, refreshing the control from the fresh density and the
    held value before stepping the density. The recorded objective is
    the exact discrete cost of each iterate's control: <p0, w0> after
    backward sweeps, the accumulated running cost after forward sweeps.
    A sweep whose objective rises by more than
    MONOTONICITY_SLACK * (1 + |J_{k-1}|) is recorded in
    monotonicity_violations as (k, J_{k-1}, J_k); it does not stop the
    iteration.

    Before the first step, one pre-pass reads the problem at every time
    node and checks it (_Runs; ProblemError for a node outside the grid
    model); each pass then reads it once per run of bit-identical nodes.
    One (n_t + 1)-slice buffer serves every sweep: each half-sweep turns
    the held field into the other one in place, its pass's hook
    refreshing u[i] from the held slice (w[i + 1] forward, p[i] backward)
    before the pass overwrites that slice. The result holds the field of
    the last sweep, which was stepped under the returned control. Before
    each half-sweep the slices of the held field at keep_nodes (time
    indices in 0..n_t) are copied out, so the result also holds the other
    field's slices there. A sweep that raises leaves the buffer partly
    overwritten, and no result is returned.
    """
    n = grid.n_t
    if grid.dim != problem.d_s:
        raise ProblemError(
            f"grid dimension {grid.dim} does not match problem d_s={problem.d_s}"
        )
    if np.any(problem.control_lower > 0.0) or np.any(problem.control_upper < 0.0):
        raise ProblemError("the zero initial control violates the declared control bounds")
    u = np.zeros((n,) + grid.memory_shape(problem.d_x) + (problem.d_u,))
    keep = sorted({int(node) for node in keep_nodes})
    if keep and not 0 <= keep[0] <= keep[-1] <= n:
        raise ProblemError(f"keep_nodes must lie in 0..{n}, got {keep}")

    p0 = _initial_density_slice(problem, grid)
    runs = _Runs(problem, grid)
    mass_log = MassLog()
    field = np.empty((n + 1,) + grid.shape)
    # Every pass is handed a fresh copy of the control (a half-sweep
    # refreshes it into the new iterate), and the old one is dropped. A
    # freed control, a block glibc maps on its own, raises glibc's mmap
    # and trim thresholds above the step loop's transient arrays. With no
    # control freed, the heap is trimmed and refaulted through the steps:
    # refreshing in place took run-grid on the bundled document from 12k
    # to 104k minor page faults, and skipping this first copy to 12.5k or
    # 15k, depending on the heap's layout.
    u = u.copy()
    j0 = _forward_pass(problem, grid, p0, u, runs, mass_log, field)
    kept: Dict[int, np.ndarray] = {}

    def refresh(i, stage, p_i, w_next):
        """u[i] refreshed in place from the density slice p[i] and the
        value slice w[i + 1], in either direction."""
        cond, _, defined = conditional_density(p_i, grid, problem.d_x)
        terms = _driven_terms(stage, cond, w_next)
        u[i] = minimize_conditional_hamiltonian(stage, terms, u_prev=u[i], defined=defined)

    def half_sweep(k, backward):
        nonlocal u
        kept.update((node, field[node].copy()) for node in keep)
        u = u.copy()
        if backward:
            w0 = _backward_pass(
                problem, grid, u, runs,
                lambda i, stage, w_next: refresh(i, stage, field[i], w_next), out=field,
            )
            return float((p0 * w0).sum()) * grid.cell_volume
        return _forward_pass(
            problem, grid, p0, u, runs, mass_log, field,
            lambda i, stage, p_i: refresh(i, stage, p_i, field[i + 1]),
        )

    history, converged, iterations, final_delta = _sweep(j0, half_sweep, max_iters, tol)
    holds_value = iterations % 2 == 1
    return GridSweepResult(
        problem=problem,
        grid=grid,
        control=u,
        value=field if holds_value else None,
        density=None if holds_value else field,
        kept_slices=kept,
        objective_history=history,
        converged=converged,
        iterations=iterations,
        final_delta=final_delta,
        mass_log=mass_log,
        monotonicity_violations=_descent_violations(history, MONOTONICITY_SLACK)[0],
    )
