"""The check `fbsweep verify` runs on a stored grid control.

The sweeps couple the density and the value only through the control's
minimization of the conditional Hamiltonian, so a stored answer is
checked by the stationarity of that minimization: sweep_pmp_residual
solves both fields under the control and reports the mass-weighted
maximum excess of the control's conditional Hamiltonian over the
minimizer's. It reads the conditional Hamiltonian through
gridpde.conditional_hamiltonian, the closed form the sweep's minimizer
minimizes, and it measures the excess in the sweep's own backward pass,
as that pass's per-node hook: where the sweep refreshes the control, the
oracle prices it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from fbsweep.core import GridSpec
from fbsweep.gridpde import (
    GridProblem,
    MassLog,
    _backward_pass,
    _driven_terms,
    _forward_pass,
    _initial_density_slice,
    _Runs,
    _Stage,
    conditional_density,
    conditional_hamiltonian,
    minimize_conditional_hamiltonian,
)


@dataclass
class PmpReport:
    """Stationarity residual of the conditional Hamiltonian at a control,
    and what solving both fields under it gives about the control: its
    discrete objective as each sweep direction records it (objective, the
    forward pass's accumulated cost; value_objective, <p0, w0> from the
    value stepped alongside) and the forward pass's mass_log."""

    weighted_max: float
    objective: float
    value_objective: float
    mass_log: MassLog


def _stationarity_excess(stage: _Stage, u_i, p_i, w_next):
    """Stationarity excess of the control slice u_i at the stage's node,
    per memory node, from the density slice there and the value slice one
    step later; and the memory marginal that weights it. The driven terms
    are computed once: u_i, the minimizer and its minimum all read them."""
    cond, marginal, defined = conditional_density(p_i, stage.grid, stage.problem.d_x)
    terms = _driven_terms(stage, cond, w_next)
    phi_u = conditional_hamiltonian(stage, terms, u_i)
    u_min = minimize_conditional_hamiltonian(stage, terms, u_prev=u_i, defined=defined)
    phi_min = conditional_hamiltonian(stage, terms, u_min)
    return np.maximum(phi_u - phi_min, 0.0) * defined, marginal


def sweep_pmp_residual(problem: GridProblem, grid: GridSpec, control) -> PmpReport:
    """PMP residual of a control against its own induced density and value.

    Solves the density forward under the given control, then steps the
    value backward under it, a slice at a time, measuring at each step the
    stationarity excess of that same control (the backward pass's hook,
    run where the sweep refreshes the control). Each node's excess is
    weighted by its memory marginal mass, so vanishing-density nodes
    cannot dominate, and the report keeps the maximum over every step and
    node (0.0 when none is positive). At a sweep fixed point this
    vanishes up to the minimizer tolerance. The oracle holds one
    (n_t + 1)-slice field, the density. Like fbsm_grid, it reads the
    problem once per time node before its passes (gridpde._Runs), and
    each of its two passes once per run of bit-identical nodes.

    These are the passes fbsm_grid makes under a control its sweep has
    refreshed, so the report also gives the control's objective with the
    bits the sweep recorded: objective after a forward sweep (or none),
    value_objective, <p0, w0> from the value's last slice, after a
    backward one. mass_log is the forward pass's. verify reads them to
    check a stored control without re-solving.
    """
    u = np.asarray(control, dtype=float)
    z_shape = grid.memory_shape(problem.d_x)
    vol_z = float(np.prod(grid.spacing[problem.d_x :])) if z_shape else 1.0
    p0 = _initial_density_slice(problem, grid)
    log = MassLog()
    p = np.empty((grid.n_t + 1,) + grid.shape)
    runs = _Runs(problem, grid)
    objective = _forward_pass(problem, grid, p0, u, runs, log, p)
    weighted_max = 0.0

    def excess(i, stage, w_next):
        nonlocal weighted_max
        r, marginal = _stationarity_excess(stage, u[i], p[i], w_next)
        weighted_max = max(weighted_max, float((r * marginal * vol_z).max()))

    w0 = _backward_pass(problem, grid, u, runs, excess)
    return PmpReport(
        weighted_max=weighted_max,
        objective=objective,
        value_objective=float((p0 * w0).sum()) * grid.cell_volume,
        mass_log=log,
    )
