"""Grid problems shared by the grid solver and oracle tests; the oracles
that check the grid scheme's identities (generator conjugacy, Lemma 1's
cost difference, the full-field stationarity residual); and the
cross-backend comparison: one linear-quadratic problem solved by the
Riccati backend and, expressed in grid terms, by the grid backend."""

import math
from dataclasses import dataclass

import numpy as np

from fbsweep.core import Gaussian, GridSpec, LqgProblem, ProblemError
from fbsweep.gridpde import (
    DiscreteGenerator,
    GridProblem,
    MassLog,
    _backward_steps,
    _driven_terms,
    _forward_pass,
    _initial_density_slice,
    _Runs,
    _Stage,
    _upwind_differences,
    build_generator,
    conditional_density,
    conditional_hamiltonian,
    control_to_grid,
    fbsm_grid,
)
from fbsweep.lqg import fbsm_lqg
from fbsweep.verify import _stationarity_excess


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
    independently), a constant B and a diagonal sigma sigma' (the grid
    model's diffusion).
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
    runs = _Runs(problem, grid)
    # The density under u' is stepped first, so that p_u ends holding u's.
    j_prime = _forward_pass(problem, grid, p0, u_prime, runs, MassLog(), p_u)
    lhs = _forward_pass(problem, grid, p0, u, runs, MassLog(), p_u) - j_prime
    terms = [0.0] * n
    for k, w_k in _backward_steps(problem, grid, u_prime, runs.stages()):
        i = k - offset
        if not 0 <= i < n:
            continue
        cond, marginal, _ = conditional_density(p_u[i], grid, problem.d_x)
        stage = _Stage(problem, grid, times[i])
        driven = _driven_terms(stage, cond, w_k)
        h_u, h_v = (conditional_hamiltonian(stage, driven, c) for c in (u[i], u_prime[i]))
        terms[i] = float((marginal * (h_u - h_v)).sum()) * vol_z * grid.dt
    rhs = 0.0
    for term in terms:
        rhs += term
    return Lemma1Report(lhs=float(lhs), rhs=float(rhs), residual=abs(lhs - rhs))


@dataclass
class PmpFieldReport:
    """The stationarity excess at every (t, z), its mass-weighted maximum
    and where that maximum is."""

    residual_field: np.ndarray
    weighted_max: float
    argmax: tuple


def _pmp_report(problem: GridProblem, grid: GridSpec, steps) -> PmpFieldReport:
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
    return PmpFieldReport(residual_field=residual, weighted_max=weighted_max, argmax=argmax)


def pmp_residual(problem: GridProblem, grid: GridSpec, u, p, w) -> PmpFieldReport:
    """Excess of E[H(u(t,z))] over the candidate minimum, per (t, z).

    The residual is nonnegative up to the minimizer's tie tolerance
    (clamped at zero); the summary weights each node by its memory
    marginal mass before taking the maximum, so vanishing-density nodes
    cannot dominate. A reference for verify.sweep_pmp_residual, which
    streams the same excess and keeps only its maximum.
    """
    u, p, w = (np.asarray(a, dtype=float) for a in (u, p, w))
    times = grid.times()
    return _pmp_report(
        problem,
        grid,
        (
            (i, _stationarity_excess(_Stage(problem, grid, times[i]), u[i], p[i], w[i + 1]))
            for i in range(grid.n_t)
        ),
    )


def chain_monte_carlo(problem: GridProblem, grid: GridSpec, control, n_paths: int, seed: int):
    """Mean and standard error of the cost of n_paths runs of the Markov
    chain I + dt L_u, whose expected cost is the grid's discrete objective.

    Each path starts at a node drawn from p0 times the cell volume. At
    step i it pays dt f(t_i, s, u_i) at its node, then jumps to s + e_k
    with probability dt up_k(s), to s - e_k with probability dt down_k(s),
    or stays, where up and down are build_generator's coefficients under
    the stored control after the reflecting closure. At the end it pays
    g. Under the explicit stability bound, which each step checks, these
    probabilities are nonnegative and sum to at most 1, since the grid
    model's diffusion is diagonal.
    """
    rng = np.random.default_rng(seed)
    d_x, d_u, dt = problem.d_x, problem.d_u, grid.dt
    S = grid.mesh()
    p0 = (_initial_density_slice(problem, grid) * grid.cell_volume).ravel()
    node = rng.choice(p0.size, size=n_paths, p=p0 / p0.sum())
    steps = [int(np.prod(grid.shape[k + 1 :])) for k in range(grid.dim)]
    moves = np.array(steps + [-step for step in steps] + [0])
    cost = np.zeros(n_paths)
    for i, t in enumerate(grid.times()[:-1]):
        gen = build_generator(_Stage(problem, grid, t), control[i])
        gen.check_stability(dt)
        f = problem.running_cost(t, S, control_to_grid(control[i], d_x, d_u))
        cost += dt * np.broadcast_to(f, grid.shape).ravel()[node]
        edges = np.cumsum([dt * c.ravel()[node] for c in gen.up + gen.down], axis=0)
        node = node + moves[(rng.random(n_paths) >= edges).sum(axis=0)]
    cost += np.broadcast_to(problem.terminal_cost(S), grid.shape).ravel()[node]
    return float(cost.mean()), float(cost.std(ddof=1) / math.sqrt(n_paths))
