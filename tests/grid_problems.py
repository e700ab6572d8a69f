"""Grid problems shared by the grid solver and oracle tests, and the
cross-backend comparison: one linear-quadratic problem solved by the
Riccati backend and, expressed in grid terms, by the grid backend."""

from dataclasses import dataclass

import numpy as np

from fbsweep.core import Gaussian, GridSpec, LqgProblem, ProblemError
from fbsweep.gridpde import GridProblem, _upwind_differences, control_to_grid, fbsm_grid
from fbsweep.lqg import fbsm_lqg


def constant_diffusion(matrix):
    matrix = np.asarray(matrix, dtype=float)

    def diffusion(t, S):
        return matrix

    return diffusion


def random_quadratic_problem(seed):
    """A random 1+1-dimensional quadratic problem for an 11x11 grid, dt 0.01.

    The driven coordinate x has the control-free drift a0 + a1 z (constant
    in x, as the closed-form minimizer needs), the memory drifts as
    c0 x + c1 z, the diffusion is diagonal, and the running cost is
    q x^2 plus a band |x| in [inner, outer] charged only in [t_on, t_off].
    Every coefficient is bounded so that the explicit step is stable and
    I + dt L stays nonnegative: no step clamps any mass.
    """
    rng = np.random.default_rng(seed)
    a0, a1, c0, c1 = rng.uniform(-1.0, 1.0, 4)
    b = rng.choice([-1.0, 1.0]) * rng.uniform(0.5, 1.5)
    q, g = rng.uniform(0.0, 2.0, 2)
    strength = rng.uniform(0.0, 20.0)
    t_on = rng.uniform(0.0, 0.3)
    t_off = t_on + rng.uniform(0.05, 0.3)
    inner = rng.uniform(0.0, 0.5)
    outer = inner + rng.uniform(0.3, 1.5)
    diffusion = np.diag(rng.uniform(0.05, 0.5, 2))
    bound = rng.uniform(0.5, 3.0)

    def base_cost(t, S):
        band = (np.abs(S[0]) >= inner) & (np.abs(S[0]) <= outer)
        return q * S[0] ** 2 + strength * (t_on <= t <= t_off) * band

    return GridProblem(
        d_x=1,
        d_z=1,
        b_matrix=[[b], [0.0]],
        r_diag=[rng.uniform(0.3, 3.0)],
        drift0=lambda t, S: [a0 + a1 * S[1] + np.zeros_like(S[0]), c0 * S[0] + c1 * S[1]],
        base_cost=base_cost,
        diffusion=constant_diffusion(diffusion),
        terminal_cost=lambda S: g * S[0] ** 2,
        initial_density=Gaussian(
            rng.uniform(-0.5, 0.5, 2), np.diag([rng.uniform(0.1, 0.5), rng.uniform(0.1, 0.5)])
        ),
        control_lower=[-bound],
        control_upper=[bound],
    )


def upwind_hamiltonian(problem, grid, t, w, u_slice):
    """f(t, s, u) + the drift-upwind part of (L_u w)(s) at every grid node.

    A full-grid reference for gridpde.conditional_hamiltonian: every
    coordinate's drift is upwinded against the differences of w along
    its own axis, as build_generator does. Its conditional expectation
    differs from conditional_hamiltonian only by control-independent
    terms.
    """
    S = grid.mesh()
    U = control_to_grid(u_slice, problem.d_x, problem.d_u)
    ham = np.zeros(grid.shape) + problem.running_cost(t, S, U)
    for i, bi in enumerate(problem.drift(t, S, U)):
        gf, gb = _upwind_differences(w, i, grid.spacing[i])
        ham += np.maximum(bi, 0.0) * gf
        ham -= np.maximum(-bi, 0.0) * gb
    return ham


@dataclass
class CrosscheckReport:
    """Converged objectives of both backends on one problem."""

    j_lqg: float
    j_grid: float
    gap: float
    coverage_margin: float
    lqg_converged: bool
    grid_converged: bool


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
    _, B, _, _, R0 = problem.coefficients(0.0)
    if np.max(np.abs(R0 - np.diag(np.diag(R0)))) > 0.0:
        raise ProblemError("grid crosscheck needs a diagonal control cost R")
    P = problem.P
    d_s = problem.d_s

    def drift0(t, S):
        A = problem.coefficients(t)[0]
        return [sum(A[i, j] * S[j] for j in range(d_s)) for i in range(d_s)]

    def base_cost(t, S):
        Q = problem.coefficients(t)[3]
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
        sigma = problem.coefficients(t)[2]
        return sigma @ sigma.T

    return GridProblem(
        d_x=problem.d_x,
        d_z=problem.d_z,
        b_matrix=B,
        r_diag=np.diag(R0),
        drift0=drift0,
        base_cost=base_cost,
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
