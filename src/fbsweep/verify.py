"""Executable checks of the identities the sweep solvers rely on.

Each oracle recomputes a mathematical consequence from first principles
and reports a residual: generator/adjoint conjugacy, the exact discrete
cost-difference identity between two controls, and stationarity of the
conditional Hamiltonian at the returned control.
The cost-difference identity and the stationarity residual read the
conditional Hamiltonian through gridpde.conditional_hamiltonian, the
closed form the sweep's minimizer minimizes; the identity's left side
comes from the generator and the passes, so it checks that closed form
against them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from itertools import islice
from typing import Optional

import numpy as np

from fbsweep.core import GridSpec, ProblemError
from fbsweep.gridpde import (
    DiscreteGenerator,
    GridProblem,
    MassLog,
    _backward_steps,
    _driven_terms,
    _forward_pass,
    _initial_density_slice,
    conditional_density,
    conditional_hamiltonian,
    minimize_conditional_hamiltonian,
)


def _vsum(arr: np.ndarray) -> float:
    return math.fsum(np.asarray(arr, dtype=float).ravel().tolist())


def conjugacy_residual(gen: DiscreteGenerator, w: np.ndarray, p: np.ndarray) -> float:
    """|<w, L'p> - <Lw, p>| with volume-weighted inner products."""
    vol = gen.grid.cell_volume
    lhs = _vsum(w * gen.apply_adjoint(p)) * vol
    rhs = _vsum(gen.apply(w) * p) * vol
    return abs(lhs - rhs)


@dataclass
class Lemma1Report:
    """Both sides of the cost-difference identity and their mismatch."""

    lhs: float
    rhs: float
    residual: float


def lemma1_check(
    problem: GridProblem, grid: GridSpec, u, u_prime, pairing: str = "continuous"
) -> Lemma1Report:
    """Check J[u] - J[u'] against the summed Hamiltonian-difference form.

    The left side is the difference of the discrete objectives (density
    solved under each control); the right side accumulates, over the
    density solved under u and the value solved backward under u', the
    difference of conditional_hamiltonian between the two controls at
    each step, weighted by the memory marginal of the density under u.
    With pairing="continuous" the Hamiltonian at time t reads the
    value slice at t, matching the continuous-time identity, so the
    residual measures discretization error and shrinks under (dt, ds)
    refinement. With pairing="discrete" it reads the slice at t + dt,
    which makes the identity exact for the discrete system (residual at
    rounding level, useful as an implementation check).

    Only the density under u is held as a field; the value under u' is
    stepped backward a slice at a time, each step's term taken as it
    passes the slice that term reads, and the terms are summed in
    ascending time.
    """
    if pairing not in ("continuous", "discrete"):
        raise ProblemError(f"unknown pairing {pairing!r}")
    offset = 0 if pairing == "continuous" else 1
    u = np.asarray(u, dtype=float)
    u_prime = np.asarray(u_prime, dtype=float)
    n, times = grid.n_t, grid.times()
    vol_z = float(np.prod(grid.spacing[problem.d_x :]))
    p0 = _initial_density_slice(problem, grid)
    p_u = np.empty((n + 1,) + grid.shape)
    j_u = _forward_pass(problem, grid, p0, u, out=p_u)
    lhs = j_u - _forward_pass(problem, grid, p0, u_prime)
    terms = [0.0] * n
    for k, w_k in _backward_steps(problem, grid, u_prime):
        i = k - offset
        if not 0 <= i < n:
            continue
        cond, marginal, _ = conditional_density(p_u[i], grid, problem.d_x)
        h_u, h_v = (
            conditional_hamiltonian(problem, grid, times[i], cond, w_k, c)
            for c in (u[i], u_prime[i])
        )
        terms[i] = float((marginal * (h_u - h_v)).sum()) * vol_z * grid.dt
    rhs = 0.0
    for term in terms:
        rhs += term
    return Lemma1Report(lhs=float(lhs), rhs=float(rhs), residual=abs(lhs - rhs))


@dataclass
class PmpReport:
    """Stationarity residual of the conditional Hamiltonian at a control.

    sweep_pmp_residual, which solves both fields itself, always fills in
    what that solve gives about the control: its discrete objective as
    each sweep direction records it (objective, the forward pass's
    accumulated cost; value_objective, <p0, w0> from the value stepped
    alongside) and the forward pass's mass_log. pmp_residual, which is
    handed the fields, leaves them None.
    """

    residual_field: np.ndarray
    weighted_max: float
    argmax: tuple
    objective: Optional[float] = None
    value_objective: Optional[float] = None
    mass_log: Optional[MassLog] = None


def _stationarity_excess(problem: GridProblem, grid: GridSpec, t, u_i, p_i, w_next):
    """Stationarity excess of the control slice u_i at time t, per memory
    node, from the density slice at t and the value slice at t + dt; and
    the memory marginal that weights it. The driven terms are computed
    once: u_i, the minimizer and its minimum all read them."""
    cond, marginal, defined = conditional_density(p_i, grid, problem.d_x)
    terms = _driven_terms(problem, grid, t, cond, w_next)
    phi_u = conditional_hamiltonian(problem, grid, t, cond, w_next, u_i, terms=terms)
    u_min = minimize_conditional_hamiltonian(
        problem, grid, t, cond, w_next, u_i, defined, terms=terms
    )
    phi_min = conditional_hamiltonian(problem, grid, t, cond, w_next, u_min, terms=terms)
    return np.maximum(phi_u - phi_min, 0.0) * defined, marginal


def _pmp_report(problem: GridProblem, grid: GridSpec, steps) -> PmpReport:
    """Collect (i, (excess, marginal)) for every step i, in any order, and
    reduce the mass-weighted maximum in ascending time (the earliest step
    wins a tie)."""
    d_x = problem.d_x
    z_shape = grid.memory_shape(d_x)
    vol_z = float(np.prod(grid.spacing[d_x:])) if z_shape else 1.0
    residual = np.zeros((grid.n_t,) + z_shape)
    peaks = np.zeros(grid.n_t)
    where = np.zeros(grid.n_t, dtype=int)
    for i, (r, marginal) in steps:
        residual[i] = r
        weighted = r * marginal * vol_z
        where[i] = int(np.argmax(weighted))
        peaks[i] = weighted.flat[where[i]]
    weighted_max = 0.0
    argmax = (0,) * (1 + len(z_shape))
    for i in range(grid.n_t):
        if peaks[i] > weighted_max:
            weighted_max = float(peaks[i])
            argmax = (i,) + np.unravel_index(where[i], z_shape or (1,))[: len(z_shape)]
    return PmpReport(residual_field=residual, weighted_max=weighted_max, argmax=argmax)


def pmp_residual(problem: GridProblem, grid: GridSpec, u, p, w) -> PmpReport:
    """Excess of E[H(u(t,z))] over the candidate minimum, per (t, z).

    The residual is nonnegative up to the minimizer's tie tolerance
    (clamped at zero); the summary weights each node by its memory
    marginal mass before taking the maximum, so vanishing-density nodes
    cannot dominate.
    """
    u, p, w = (np.asarray(a, dtype=float) for a in (u, p, w))
    times = grid.times()
    return _pmp_report(
        problem,
        grid,
        (
            (i, _stationarity_excess(problem, grid, times[i], u[i], p[i], w[i + 1]))
            for i in range(grid.n_t)
        ),
    )


def sweep_pmp_residual(problem: GridProblem, grid: GridSpec, control) -> PmpReport:
    """PMP residual of a control against its own induced density and value.

    Solves the density forward under the given control, then steps the
    value backward under it, a slice at a time, and measures the
    stationarity excess of that same control at each step. At a sweep
    fixed point this vanishes up to the minimizer tolerance. The oracle
    holds one (n_t + 1)-slice field, the density.

    These are the passes fbsm_grid makes under a control its sweep has
    refreshed, so the report also gives the control's objective with the
    bits the sweep recorded: objective after a forward sweep (or none),
    value_objective, from one more step of the value to w[0], after a
    backward one. mass_log is the forward pass's. verify reads them to
    check a stored control without re-solving.
    """
    u = np.asarray(control, dtype=float)
    times = grid.times()
    p0 = _initial_density_slice(problem, grid)
    log = MassLog()
    p = np.empty((grid.n_t + 1,) + grid.shape)
    objective = _forward_pass(problem, grid, p0, u, log=log, out=p)
    # The excess of step i reads w[i + 1]; the last stepped slice is w[0].
    value = _backward_steps(problem, grid, u)
    excess = (
        (i - 1, _stationarity_excess(problem, grid, times[i - 1], u[i - 1], p[i - 1], w_i))
        for i, w_i in islice(value, grid.n_t)
    )
    report = _pmp_report(problem, grid, excess)
    _, w0 = next(value)
    value_objective = float((p0 * w0).sum()) * grid.cell_volume
    return replace(
        report, objective=objective, value_objective=value_objective, mass_log=log
    )
