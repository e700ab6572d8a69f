"""Grid problems shared by the grid solver and oracle tests."""

import numpy as np

from fbsweep.core import Gaussian
from fbsweep.gridpde import GridProblem, _upwind_differences, control_to_grid


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
