"""Executable checks of the identities the sweep solvers rely on.

Each oracle recomputes a mathematical consequence from first principles
and reports a residual: generator/adjoint conjugacy, the exact discrete
cost-difference identity between two controls, monotone descent of the
recorded objective, stationarity of the conditional Hamiltonian at the
returned control, and agreement between the Riccati backend and the grid
backend on a problem both can solve.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Tuple

import numpy as np

from fbsweep.core import GridSpec, LqgProblem, ProblemError, _descent_violations, as_time_fn
from fbsweep.gridpde import (
    MONOTONICITY_SLACK,
    DiscreteGenerator,
    GridProblem,
    GridSweepResult,
    QuadraticControl,
    _backward_pass,
    _forward_pass,
    _initial_density_slice,
    _upwind_gradients,
    _upwind_hamiltonian,
    _values,
    conditional_density,
    conditional_hamiltonian,
    fbsm_grid,
    minimize_conditional_hamiltonian,
    quadratic_grid_problem,
)
from fbsweep.lqg import fbsm_lqg


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

    def to_dict(self) -> dict:
        return {"lhs": self.lhs, "rhs": self.rhs, "residual": self.residual}


def lemma1_check(
    problem: GridProblem, grid: GridSpec, u, u_prime, pairing: str = "continuous"
) -> Lemma1Report:
    """Check J[u] - J[u'] against the summed Hamiltonian-difference form.

    The left side is the difference of the discrete objectives (density
    solved under each control); the right side accumulates, over the
    density solved under u and the value solved backward under u', the
    expected Hamiltonian difference between the two controls at each
    step. With pairing="continuous" the Hamiltonian at time t reads the
    value slice at t, matching the continuous-time identity, so the
    residual measures discretization error and shrinks under (dt, ds)
    refinement. With pairing="discrete" it reads the slice at t + dt,
    which makes the identity exact for the discrete system (residual at
    rounding level, useful as an implementation check).
    """
    if pairing not in ("continuous", "discrete"):
        raise ProblemError(f"unknown pairing {pairing!r}")
    offset = 0 if pairing == "continuous" else 1
    u = _values(u)
    u_prime = _values(u_prime)
    times = grid.times()
    vol = grid.cell_volume
    p0 = _initial_density_slice(problem, grid)
    p_u, _, j_u = _forward_pass(problem, grid, p0, u)
    # Only J[u'] is needed from the density under u'; its buffer takes the value.
    p_v, _, j_v = _forward_pass(problem, grid, p0, u_prime)
    w_v, _, _ = _backward_pass(problem, grid, p0, u_prime, out=p_v)
    lhs = j_u - j_v
    rhs = 0.0
    for i in range(grid.n_t):
        diffs = _upwind_gradients(w_v[i + offset], grid)
        h_u, h_v = (
            float((_upwind_hamiltonian(problem, grid, times[i], diffs, c) * p_u[i]).sum()) * vol
            for c in (u[i], u_prime[i])
        )
        rhs += (h_u - h_v) * grid.dt
    return Lemma1Report(lhs=float(lhs), rhs=float(rhs), residual=abs(lhs - rhs))


@dataclass
class MonotonicityReport:
    """Violations of non-increase in a recorded objective history."""

    n_iterations: int
    violations: List[Tuple[int, float, float]]
    worst_excess: float
    passed: bool

    def to_dict(self) -> dict:
        return {
            "n_iterations": self.n_iterations,
            "violations": [list(v) for v in self.violations],
            "worst_excess": self.worst_excess,
            "passed": self.passed,
        }


def monotonicity_check(history, slack_rel: float = MONOTONICITY_SLACK) -> MonotonicityReport:
    """Verify J_{k+1} <= J_k + slack_rel*(1+|J_k|) along a history.

    Accepts a raw array or any solver result exposing objective_history.
    The rule is the one the solvers record their violations by.
    """
    history = np.asarray(getattr(history, "objective_history", history), dtype=float)
    if history.size < 2:
        raise ProblemError("monotonicity check needs at least two objective values")
    violations, worst = _descent_violations(history, slack_rel)
    return MonotonicityReport(
        n_iterations=int(history.size - 1),
        violations=violations,
        worst_excess=worst,
        passed=not violations,
    )


@dataclass
class PmpReport:
    """Stationarity residual of the conditional Hamiltonian at a control."""

    residual_field: np.ndarray
    weighted_max: float
    argmax: tuple

    def to_dict(self) -> dict:
        return {
            "weighted_max": self.weighted_max,
            "argmax": [int(i) for i in self.argmax],
        }


def pmp_residual(problem: GridProblem, grid: GridSpec, u, p, w) -> PmpReport:
    """Excess of E[H(u(t,z))] over the candidate minimum, per (t, z).

    The residual is nonnegative up to the minimizer's tie tolerance
    (clamped at zero); the summary weights each node by its memory
    marginal mass before taking the maximum, so vanishing-density nodes
    cannot dominate.
    """
    u = _values(u)
    p = _values(p)
    w = _values(w)
    d_x = problem.d_x
    times = grid.times()
    z_shape = grid.memory_shape(d_x)
    vol_z = float(np.prod(grid.spacing[d_x:])) if z_shape else 1.0
    residual = np.zeros((grid.n_t,) + z_shape)
    weighted_max = 0.0
    argmax = (0,) * (1 + len(z_shape))
    for i in range(grid.n_t):
        cond, marginal, defined = conditional_density(p[i], grid, d_x)
        diffs = _upwind_gradients(w[i + 1], grid)
        phi_u = conditional_hamiltonian(
            problem, grid, times[i], cond, w[i + 1], u[i], diffs=diffs
        )
        u_min = minimize_conditional_hamiltonian(
            problem, grid, times[i], cond, w[i + 1], u[i], defined
        )
        phi_min = conditional_hamiltonian(
            problem, grid, times[i], cond, w[i + 1], u_min, diffs=diffs
        )
        r = np.maximum(phi_u - phi_min, 0.0) * defined
        residual[i] = r
        weighted = r * marginal * vol_z
        j = int(np.argmax(weighted))
        if weighted.flat[j] > weighted_max:
            weighted_max = float(weighted.flat[j])
            argmax = (i,) + np.unravel_index(j, z_shape or (1,))[: len(z_shape)]
    return PmpReport(residual_field=residual, weighted_max=weighted_max, argmax=argmax)


def sweep_pmp_residual(problem: GridProblem, grid: GridSpec, control) -> PmpReport:
    """PMP residual of a control against its own induced density and value.

    Solves the density forward and the value backward under the given
    control, then measures the stationarity excess of that same control.
    At a sweep fixed point this vanishes up to the minimizer tolerance.

    control may also be the GridSweepResult of fbsm_grid on (problem,
    grid); its control is checked. The field of the result's last sweep
    (the density when iterations is even, the value when it is odd) was
    stepped under exactly that control, and a fresh pass reproduces it
    bit for bit, so only the other field is solved. This consumes the
    stale field: the solve overwrites the result's stale buffer, which
    afterwards holds the field under the returned control instead of the
    previous iterate's. When value is None a new buffer is used.
    """
    p0 = _initial_density_slice(problem, grid)
    if not isinstance(control, GridSweepResult):
        u = _values(control)
        p, _, _ = _forward_pass(problem, grid, p0, u)
        w, _, _ = _backward_pass(problem, grid, p0, u)
    elif control.iterations % 2 == 0:
        u, p = control.control.values, control.density.values
        stale = None if control.value is None else control.value.values
        w, _, _ = _backward_pass(problem, grid, p0, u, out=stale)
    else:
        u, w = control.control.values, control.value.values
        p, _, _ = _forward_pass(problem, grid, p0, u, out=control.density.values)
    return pmp_residual(problem, grid, u, p, w)


@dataclass
class CrosscheckReport:
    """Converged objectives of both backends on one problem."""

    j_lqg: float
    j_grid: float
    gap: float
    coverage_margin: float
    lqg_converged: bool
    grid_converged: bool

    def to_dict(self) -> dict:
        return {
            "j_lqg": self.j_lqg,
            "j_grid": self.j_grid,
            "gap": self.gap,
            "coverage_margin": self.coverage_margin,
            "lqg_converged": self.lqg_converged,
            "grid_converged": self.grid_converged,
        }


def grid_problem_from_lqg(
    problem: LqgProblem,
    control_lower=None,
    control_upper=None,
) -> GridProblem:
    """Express a linear-quadratic problem in the grid solver's terms.

    Requires a diagonal R (the grid minimizer treats control components
    independently) and a constant B.
    """
    if callable(problem.B):
        raise ProblemError("grid crosscheck needs a constant control matrix B")
    B = np.atleast_2d(np.asarray(problem.B, dtype=float))
    R0 = np.atleast_2d(np.asarray(as_time_fn(problem.R)(0.0), dtype=float))
    if np.max(np.abs(R0 - np.diag(np.diag(R0)))) > 0.0:
        raise ProblemError("grid crosscheck needs a diagonal control cost R")
    A_f = as_time_fn(problem.A)
    Q_f = as_time_fn(problem.Q)
    R_f = as_time_fn(problem.R)
    sigma_f = as_time_fn(problem.sigma)
    P = np.atleast_2d(np.asarray(problem.P, dtype=float))
    d_s = problem.d_s

    def drift0(t, S):
        A = np.atleast_2d(np.asarray(A_f(t), dtype=float))
        return [sum(A[i, j] * S[j] for j in range(d_s)) for i in range(d_s)]

    def base_cost(t, S):
        Q = np.atleast_2d(np.asarray(Q_f(t), dtype=float))
        total = np.zeros_like(S[0])
        for i in range(d_s):
            for j in range(d_s):
                if Q[i, j] != 0.0:
                    total = total + Q[i, j] * S[i] * S[j]
        return total

    def terminal_cost(S):
        total = np.zeros_like(S[0])
        for i in range(d_s):
            for j in range(d_s):
                if P[i, j] != 0.0:
                    total = total + P[i, j] * S[i] * S[j]
        return total

    def diffusion(t, S):
        sigma = np.atleast_2d(np.asarray(sigma_f(t), dtype=float))
        return sigma @ sigma.T

    quad = QuadraticControl(
        r_diag=np.diag(R0),
        b_matrix=B,
        drift0=drift0,
        base_cost=base_cost,
    )
    return quadratic_grid_problem(
        d_x=problem.d_x,
        d_z=problem.d_z,
        quadratic=quad,
        diffusion=diffusion,
        terminal_cost=terminal_cost,
        initial_density=problem.initial_density(),
        control_lower=control_lower,
        control_upper=control_upper,
    )


def _coverage_margin(problem: LqgProblem, gains, grid: GridSpec) -> float:
    """Worst-case number of closed-loop standard deviations to the box edge."""
    cov = np.linalg.inv(gains.lam)
    std = np.sqrt(np.maximum(np.einsum("tii->ti", cov), 1e-300))
    mu = gains.mu
    upper_margin = (grid.upper[None, :] - mu) / std
    lower_margin = (mu - grid.lower[None, :]) / std
    return float(min(upper_margin.min(), lower_margin.min()))


def lqg_grid_crosscheck(
    problem: LqgProblem,
    grid: GridSpec,
    control_lower=None,
    control_upper=None,
    lqg_max_iters: int = 200,
    grid_max_iters: int = 50,
    tol: float = 1e-9,
    grid_tol: float = 1e-7,
    min_coverage: float = 4.0,
) -> CrosscheckReport:
    """Solve one linear-quadratic problem with both backends and compare.

    The Riccati solve runs first; its closed-loop mean and covariance
    must stay at least min_coverage standard deviations inside the grid
    box, otherwise truncation would contaminate the comparison and a
    ProblemError is raised. The gap is relative to the Riccati objective.
    """
    lqg_result = fbsm_lqg(problem, max_iters=lqg_max_iters, tol=tol)
    margin = _coverage_margin(problem, lqg_result.gains, grid)
    if margin < min_coverage:
        raise ProblemError(
            f"grid box covers only {margin:.2f} closed-loop standard "
            f"deviations; need at least {min_coverage}"
        )
    grid_problem = grid_problem_from_lqg(
        problem, control_lower=control_lower, control_upper=control_upper
    )
    grid_result = fbsm_grid(grid_problem, grid, max_iters=grid_max_iters, tol=grid_tol)
    j_lqg = float(lqg_result.objective_history[-1])
    j_grid = float(grid_result.objective_history[-1])
    gap = abs(j_grid - j_lqg) / max(abs(j_lqg), 1e-12)
    return CrosscheckReport(
        j_lqg=j_lqg,
        j_grid=j_grid,
        gap=gap,
        coverage_margin=margin,
        lqg_converged=lqg_result.converged,
        grid_converged=grid_result.converged,
    )
