"""Tests for the finite-difference density/value sweep solver."""

import json
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fbsweep import gridpde
from fbsweep.config import bundled_config_path, parse_config
from fbsweep.core import Gaussian, GridSpec, ProblemError, StabilityError
from fbsweep.gridpde import (
    GridProblem,
    MassLog,
    QuadraticControl,
    _backward_pass,
    _forward_pass,
    _initial_density_slice,
    _upwind_differences,
    _upwind_gradients,
    build_generator,
    conditional_density,
    conditional_hamiltonian,
    fbsm_grid,
    fp_step,
    grid_objective,
    hjb_step,
    minimize_conditional_hamiltonian,
    quadratic_grid_problem,
)


def constant_diffusion(matrix):
    matrix = np.asarray(matrix, dtype=float)

    def diffusion(t, S):
        return matrix

    return diffusion


def double_integrator_problem(bound=6.0):
    """dx = u dt + dw, dz = x dt + dv, cost x^2 + u^2, terminal x^2."""
    quad = QuadraticControl(
        r_diag=[1.0],
        b_matrix=[[1.0], [0.0]],
        drift0=lambda t, S: [np.zeros_like(S[0]), S[0]],
        base_cost=lambda t, S: S[0] ** 2,
    )
    return quadratic_grid_problem(
        d_x=1,
        d_z=1,
        quadratic=quad,
        diffusion=constant_diffusion([[1.0, 0.0], [0.0, 1.0]]),
        terminal_cost=lambda S: S[0] ** 2,
        initial_density=Gaussian(np.zeros(2), 0.25 * np.eye(2)),
        control_lower=[-bound],
        control_upper=[bound],
    )


def small_bundled_obstacle():
    """The bundled obstacle problem on a 41x41 grid with 400 steps."""
    doc = json.loads(bundled_config_path("obstacle").read_text())
    doc["domain"].update(shape=[41, 41], n_t=400)
    cfg = parse_config(doc)
    return cfg.grid_problem, cfg.grid


class TestDiscreteGenerator:
    def grid_1d(self, n=41, n_t=100):
        return GridSpec(lower=[-2.0], upper=[2.0], shape=(n,), n_t=n_t, horizon=1.0)

    def test_row_sums_vanish(self):
        grid = GridSpec([-1.0, -1.0], [1.0, 1.0], (11, 9), 10, 1.0)
        quad = QuadraticControl(
            r_diag=[1.0],
            b_matrix=[[1.0], [0.0]],
            drift0=lambda t, S: [0.4 * S[1], -0.7 * S[0]],
            base_cost=lambda t, S: np.zeros_like(S[0]),
        )
        problem = quadratic_grid_problem(
            d_x=1, d_z=1, quadratic=quad,
            diffusion=constant_diffusion([[1.0, 0.3], [0.3, 0.5]]),
            terminal_cost=lambda S: np.zeros_like(S[0]),
            initial_density=Gaussian(np.zeros(2), np.eye(2)),
            control_lower=[-5.0], control_upper=[5.0],
        )
        u = np.full((9, 1), 0.8)
        gen = build_generator(problem, grid, 0.0, u)
        mat = gen.to_sparse()
        row_sums = np.asarray(mat.sum(axis=1)).ravel()
        assert np.max(np.abs(row_sums)) < 1e-12
        const = np.ones(grid.shape)
        assert np.max(np.abs(gen.apply(const))) < 1e-12

    def test_apply_matches_sparse_matrix(self):
        grid = GridSpec([-1.0, 0.0], [1.0, 2.0], (13, 8), 10, 1.0)
        quad = QuadraticControl(
            r_diag=[1.0],
            b_matrix=[[1.0], [0.0]],
            drift0=lambda t, S: [np.sin(S[1]), np.cos(S[0])],
            base_cost=lambda t, S: np.zeros_like(S[0]),
        )
        problem = quadratic_grid_problem(
            d_x=1, d_z=1, quadratic=quad,
            diffusion=constant_diffusion([[0.8, 0.2], [0.2, 0.6]]),
            terminal_cost=lambda S: np.zeros_like(S[0]),
            initial_density=Gaussian(np.array([0.0, 1.0]), np.eye(2)),
            control_lower=[-5.0], control_upper=[5.0],
        )
        rng = np.random.default_rng(3)
        u = rng.uniform(-1, 1, size=(8, 1))
        gen = build_generator(problem, grid, 0.0, u)
        mat = gen.to_sparse()
        w = rng.standard_normal(grid.shape)
        p = rng.uniform(0.1, 1.0, size=grid.shape)
        scale = np.max(np.abs(mat @ w.ravel())) + 1.0
        assert np.max(np.abs(mat @ w.ravel() - gen.apply(w).ravel())) < 1e-12 * scale
        assert np.max(np.abs(mat.T @ p.ravel() - gen.apply_adjoint(p).ravel())) < 1e-12 * scale

    def test_duality_pairing(self):
        grid = GridSpec([-1.0, -1.0], [1.0, 1.0], (15, 15), 10, 1.0)
        problem = double_integrator_problem()
        rng = np.random.default_rng(7)
        u = rng.uniform(-2, 2, size=(15, 1))
        gen = build_generator(problem, grid, 0.5, u)
        w = rng.standard_normal(grid.shape)
        p = rng.uniform(0.0, 1.0, size=grid.shape)
        lhs = float((gen.apply(w) * p).sum())
        rhs = float((w * gen.apply_adjoint(p)).sum())
        assert abs(lhs - rhs) < 1e-10 * (1.0 + abs(lhs))

    def test_pure_diffusion_on_quadratic(self):
        grid = self.grid_1d()
        problem = GridProblem(
            d_x=1, d_z=0, d_u=1,
            drift=lambda t, S, U: [np.zeros_like(S[0])],
            diffusion=constant_diffusion([[2.0]]),
            running_cost=lambda t, S, U: np.zeros_like(S[0]),
            terminal_cost=lambda S: np.zeros_like(S[0]),
            initial_density=Gaussian([0.0], [[1.0]]),
            control_lower=[-1.0], control_upper=[1.0],
        )
        gen = build_generator(problem, grid, 0.0, np.zeros((1,)))
        w = grid.mesh()[0] ** 2
        lw = gen.apply(w)
        assert np.max(np.abs(lw[1:-1] - 2.0)) < 1e-9

    def test_constant_drift_upwind(self):
        grid = self.grid_1d()
        problem = GridProblem(
            d_x=1, d_z=0, d_u=1,
            drift=lambda t, S, U: [np.full_like(S[0], 3.0)],
            diffusion=constant_diffusion([[0.0]]),
            running_cost=lambda t, S, U: np.zeros_like(S[0]),
            terminal_cost=lambda S: np.zeros_like(S[0]),
            initial_density=Gaussian([0.0], [[1.0]]),
            control_lower=[-1.0], control_upper=[1.0],
        )
        gen = build_generator(problem, grid, 0.0, np.zeros((1,)))
        w = grid.mesh()[0].copy()
        lw = gen.apply(w)
        assert np.max(np.abs(lw[:-1] - 3.0)) < 1e-10
        assert lw[-1] == 0.0

    def test_mixed_diffusion_on_bilinear(self):
        grid = GridSpec([-1.0, -1.0], [1.0, 1.0], (21, 17), 10, 1.0)
        problem = GridProblem(
            d_x=1, d_z=1, d_u=1,
            drift=lambda t, S, U: [np.zeros_like(S[0]), np.zeros_like(S[0])],
            diffusion=constant_diffusion([[1.0, 0.6], [0.6, 1.0]]),
            running_cost=lambda t, S, U: np.zeros_like(S[0]),
            terminal_cost=lambda S: np.zeros_like(S[0]),
            initial_density=Gaussian(np.zeros(2), np.eye(2)),
            control_lower=[-1.0], control_upper=[1.0],
        )
        gen = build_generator(problem, grid, 0.0, np.zeros((17, 1)))
        S = grid.mesh()
        w = S[0] * S[1]
        lw = gen.apply(w)
        assert np.max(np.abs(lw[1:-1, 1:-1] - 0.6)) < 1e-9

    def test_stability_bound_names_binding_cell(self):
        grid = GridSpec([-3.0], [3.0], (31,), 100, 1.0)
        problem = GridProblem(
            d_x=1, d_z=0, d_u=1,
            drift=lambda t, S, U: [50.0 * S[0]],
            diffusion=constant_diffusion([[1.0]]),
            running_cost=lambda t, S, U: np.zeros_like(S[0]),
            terminal_cost=lambda S: np.zeros_like(S[0]),
            initial_density=Gaussian([0.0], [[1.0]]),
            control_lower=[-1.0], control_upper=[1.0],
        )
        with pytest.raises(StabilityError, match="binding cell"):
            build_generator(problem, grid, 0.0, np.zeros((1,)), dt=grid.dt)
        gen = build_generator(problem, grid, 0.0, np.zeros((1,)))
        assert gen is not None

    def test_asymmetric_diffusion_rejected(self):
        grid = GridSpec([-1.0, -1.0], [1.0, 1.0], (5, 5), 10, 1.0)
        problem = GridProblem(
            d_x=1, d_z=1, d_u=1,
            drift=lambda t, S, U: [np.zeros_like(S[0]), np.zeros_like(S[0])],
            diffusion=constant_diffusion([[1.0, 0.5], [0.2, 1.0]]),
            running_cost=lambda t, S, U: np.zeros_like(S[0]),
            terminal_cost=lambda S: np.zeros_like(S[0]),
            initial_density=Gaussian(np.zeros(2), np.eye(2)),
            control_lower=[-1.0], control_upper=[1.0],
        )
        with pytest.raises(ProblemError, match="symmetric"):
            build_generator(problem, grid, 0.0, np.zeros((5, 1)))


class TestDensitySteps:
    def test_mass_conserved_and_variance_grows(self):
        grid = GridSpec([-6.0], [6.0], (241,), 800, 1.0)
        problem = GridProblem(
            d_x=1, d_z=0, d_u=1,
            drift=lambda t, S, U: [np.zeros_like(S[0])],
            diffusion=constant_diffusion([[1.0]]),
            running_cost=lambda t, S, U: np.zeros_like(S[0]),
            terminal_cost=lambda S: np.zeros_like(S[0]),
            initial_density=Gaussian([0.0], [[0.25]]),
            control_lower=[-1.0], control_upper=[1.0],
        )
        s = grid.mesh()[0]
        vol = grid.cell_volume
        p = np.exp(-0.5 * s**2 / 0.25)
        p /= p.sum() * vol
        gen = build_generator(problem, grid, 0.0, np.zeros((1,)), dt=grid.dt)
        steps = 100
        var0 = float((p * s**2).sum() * vol)
        for _ in range(steps):
            p = fp_step(p, gen, grid.dt)
        assert abs(p.sum() * vol - 1.0) < 1e-12
        var1 = float((p * s**2).sum() * vol)
        growth = var1 - var0
        assert abs(growth - steps * grid.dt) < 2e-3 * steps * grid.dt

    def test_unstable_step_aborts_on_negative_mass(self):
        grid = GridSpec([-2.0], [2.0], (81,), 10, 1.0)
        problem = GridProblem(
            d_x=1, d_z=0, d_u=1,
            drift=lambda t, S, U: [np.zeros_like(S[0])],
            diffusion=constant_diffusion([[1.0]]),
            running_cost=lambda t, S, U: np.zeros_like(S[0]),
            terminal_cost=lambda S: np.zeros_like(S[0]),
            initial_density=Gaussian([0.0], [[0.04]]),
            control_lower=[-1.0], control_upper=[1.0],
        )
        p = np.zeros(grid.shape)
        p[40] = 1.0 / grid.cell_volume
        gen = build_generator(problem, grid, 0.0, np.zeros((1,)))
        with pytest.raises(StabilityError, match="negative density mass"):
            fp_step(p, gen, 0.01)

    def test_hjb_step_rejects_non_finite(self):
        grid = GridSpec([-1.0], [1.0], (21,), 250, 1.0)
        problem = GridProblem(
            d_x=1, d_z=0, d_u=1,
            drift=lambda t, S, U: [np.zeros_like(S[0])],
            diffusion=constant_diffusion([[1.0]]),
            running_cost=lambda t, S, U: np.zeros_like(S[0]),
            terminal_cost=lambda S: np.zeros_like(S[0]),
            initial_density=Gaussian([0.0], [[1.0]]),
            control_lower=[-1.0], control_upper=[1.0],
        )
        w_next = np.full(grid.shape, np.nan)
        with pytest.raises(StabilityError, match="t=0.42"):
            hjb_step(problem, grid, 0.42, w_next, np.zeros((1,)))


class TestConditionalDensity:
    def test_gaussian_conditional_mean(self):
        grid = GridSpec([-6.0, -6.0], [6.0, 6.0], (201, 201), 10, 1.0)
        lam = np.array([[2.0, 1.0], [1.0, 1.0]])
        dist = Gaussian(np.zeros(2), np.linalg.inv(lam))
        S = grid.mesh()
        p = dist.density(np.stack(S, axis=-1))
        p /= p.sum() * grid.cell_volume
        cond, marginal, defined = conditional_density(p, grid, d_x=1)
        x = S[0][:, 0]
        z = S[1][0, :]
        vol_x = grid.spacing[0]
        norm = cond.sum(axis=0) * vol_x
        assert np.max(np.abs(norm[defined] - 1.0)) < 1e-12
        mean_x = (cond * x[:, None]).sum(axis=0) * vol_x
        inner = defined & (np.abs(z) < 2.0)
        assert np.max(np.abs(mean_x[inner] + 0.5 * z[inner])) < 1e-3

    def test_low_mass_nodes_flagged(self):
        grid = GridSpec([-2.0, -2.0], [2.0, 2.0], (21, 21), 10, 1.0)
        p = np.zeros(grid.shape)
        p[:, :8] = 1.0
        p /= p.sum() * grid.cell_volume
        cond, marginal, defined = conditional_density(p, grid, d_x=1)
        assert defined[:8].all()
        assert not defined[8:].any()
        assert np.all(cond[:, 8:] == 0.0)


class TestMinimizer:
    def conditioning_setup(self, seed=0):
        grid = GridSpec([-2.0, -1.0], [2.0, 1.0], (21, 9), 50, 1.0)
        quad = QuadraticControl(
            r_diag=[0.7],
            b_matrix=[[1.0], [0.0]],
            drift0=lambda t, S: [0.3 * S[1], np.sin(S[0])],
            base_cost=lambda t, S: S[0] ** 2,
        )
        problem = quadratic_grid_problem(
            d_x=1, d_z=1, quadratic=quad,
            diffusion=constant_diffusion([[0.5, 0.0], [0.0, 0.5]]),
            terminal_cost=lambda S: S[0] ** 2,
            initial_density=Gaussian(np.zeros(2), 0.3 * np.eye(2)),
            control_lower=[-3.0], control_upper=[3.0],
        )
        rng = np.random.default_rng(seed)
        p = rng.uniform(0.05, 1.0, size=grid.shape)
        p /= p.sum() * grid.cell_volume
        cond, _, defined = conditional_density(p, grid, d_x=1)
        w_next = np.cos(grid.mesh()[0] * 2.0) + 0.5 * grid.mesh()[1] ** 2
        u_prev = rng.uniform(-3.0, 3.0, size=(9, 1))
        return problem, grid, cond, defined, w_next, u_prev

    def hamiltonian_profile(self, problem, grid, cond, w_next, u_values):
        """Reference conditional Hamiltonian on a dense control grid."""
        from fbsweep.gridpde import _upwind_differences, _conditional_expectation

        gf, gb = _upwind_differences(w_next, 0, grid.spacing[0])
        vol_x = grid.spacing[0]
        egf = _conditional_expectation(cond, gf, 1, vol_x)
        egb = _conditional_expectation(cond, gb, 1, vol_x)
        z = grid.axes()[1]
        b0 = 0.3 * z
        out = np.empty((u_values.size, z.size))
        for m, u in enumerate(u_values):
            v = b0 + u
            out[m] = 0.7 * u**2 + np.maximum(v, 0) * egf - np.maximum(-v, 0) * egb
        return out

    def test_exact_matches_dense_scan(self):
        problem, grid, cond, defined, w_next, u_prev = self.conditioning_setup()
        u = minimize_conditional_hamiltonian(
            problem, grid, 0.0, cond, w_next, u_prev, defined
        )
        dense = np.linspace(-3.0, 3.0, 20001)
        profile = self.hamiltonian_profile(problem, grid, cond, w_next, dense)
        best_dense = profile.min(axis=0)
        phi_u = np.array([
            self.hamiltonian_profile(problem, grid, cond, w_next, np.array([uj]))[0, j]
            for j, uj in enumerate(u[:, 0])
        ])
        assert np.all(phi_u <= best_dense + 1e-9 * (1.0 + np.abs(best_dense)))

    def test_conditional_hamiltonian_takes_precomputed_differences(self):
        problem, grid, cond, _, w_next, u_prev = self.conditioning_setup()
        diffs = _upwind_gradients(w_next, grid)
        for u in (u_prev, -u_prev):
            shared = conditional_hamiltonian(problem, grid, 0.1, cond, w_next, u, diffs=diffs)
            own = conditional_hamiltonian(problem, grid, 0.1, cond, w_next, u)
            assert np.array_equal(shared, own)

    def test_ties_keep_previous_control(self):
        problem, grid, cond, defined, w_next, u_prev = self.conditioning_setup()
        u1 = minimize_conditional_hamiltonian(
            problem, grid, 0.0, cond, w_next, u_prev, defined
        )
        u2 = minimize_conditional_hamiltonian(
            problem, grid, 0.0, cond, w_next, u1, defined
        )
        np.testing.assert_array_equal(u1, u2)

    def test_search_mode_close_to_exact(self):
        problem, grid, cond, defined, w_next, u_prev = self.conditioning_setup()
        u_exact = minimize_conditional_hamiltonian(
            problem, grid, 0.0, cond, w_next, u_prev, defined
        )
        problem_s = replace(problem, quadratic=None)
        u_search = minimize_conditional_hamiltonian(
            problem_s, grid, 0.0, cond, w_next, u_prev, defined
        )
        spacing = 6.0 / 40
        assert np.max(np.abs(u_search - u_exact)) <= spacing + 1e-12

    def test_quadratic_declaration_picks_the_minimizer(self):
        problem = double_integrator_problem()
        assert problem.minimizer_mode() == "exact"
        assert replace(problem, quadratic=None).minimizer_mode() == "search"

    def test_low_mass_nodes_copy_nearest(self):
        problem, grid, cond, defined, w_next, u_prev = self.conditioning_setup()
        defined = defined.copy()
        defined[-3:] = False
        cond = cond.copy()
        cond[:, -3:] = 0.0
        u = minimize_conditional_hamiltonian(
            problem, grid, 0.0, cond, w_next, u_prev, defined
        )
        assert np.all(u[-3:] == u[-4])

    def test_nonconforming_drift_rejected(self):
        grid = GridSpec([-1.0, -1.0], [1.0, 1.0], (9, 9), 10, 1.0)
        quad = QuadraticControl(
            r_diag=[1.0],
            b_matrix=[[1.0], [0.0]],
            drift0=lambda t, S: [S[0] ** 2, np.zeros_like(S[0])],
            base_cost=lambda t, S: np.zeros_like(S[0]),
        )
        problem = quadratic_grid_problem(
            d_x=1, d_z=1, quadratic=quad,
            diffusion=constant_diffusion(np.eye(2)),
            terminal_cost=lambda S: np.zeros_like(S[0]),
            initial_density=Gaussian(np.zeros(2), np.eye(2)),
            control_lower=[-1.0], control_upper=[1.0],
        )
        p = np.ones(grid.shape)
        p /= p.sum() * grid.cell_volume
        cond, _, defined = conditional_density(p, grid, d_x=1)
        with pytest.raises(ProblemError, match="varies across the state"):
            minimize_conditional_hamiltonian(
                problem, grid, 0.0, cond, np.zeros(grid.shape),
                np.zeros((9, 1)), defined,
            )


class TestFbsmGrid:
    def small_grid(self):
        return GridSpec([-3.0, -3.0], [3.0, 3.0], (31, 31), 60, 0.6)

    def test_objective_decreases_and_shapes(self):
        problem = double_integrator_problem()
        grid = self.small_grid()
        result = fbsm_grid(problem, grid, max_iters=8, tol=0.0)
        hist = result.objective_history
        assert hist.shape == (9,)
        slack = 1e-6 * (1.0 + np.abs(hist[:-1]))
        assert np.all(hist[1:] <= hist[:-1] + slack)
        assert hist[-1] < hist[0]
        assert not result.monotonicity_violations
        assert result.control.values.shape == (60, 31, 1)
        assert result.density.values.shape == (61, 31, 31)
        assert result.value.values.shape == (61, 31, 31)
        masses = result.density.values.sum(axis=(1, 2)) * grid.cell_volume
        assert np.max(np.abs(masses - 1.0)) < 1e-12
        assert result.mass_log.max_negative_mass <= 1e-6
        lo, hi = problem.bounds()
        assert np.all(result.control.values >= lo)
        assert np.all(result.control.values <= hi)

    def test_zero_cost_keeps_zero_control(self):
        quad = QuadraticControl(
            r_diag=[1.0],
            b_matrix=[[1.0], [0.0]],
            drift0=lambda t, S: [np.zeros_like(S[0]), S[0]],
            base_cost=lambda t, S: np.zeros_like(S[0]),
        )
        problem = quadratic_grid_problem(
            d_x=1, d_z=1, quadratic=quad,
            diffusion=constant_diffusion(np.eye(2)),
            terminal_cost=lambda S: np.zeros_like(S[0]),
            initial_density=Gaussian(np.zeros(2), 0.25 * np.eye(2)),
            control_lower=[-4.0], control_upper=[4.0],
        )
        grid = GridSpec([-3.0, -3.0], [3.0, 3.0], (21, 21), 40, 0.4)
        result = fbsm_grid(problem, grid, max_iters=2, tol=0.0)
        assert np.all(result.control.values == 0.0)
        assert np.max(np.abs(result.objective_history)) < 1e-12

    def test_objective_history_matches_grid_objective(self):
        """After a forward sweep the recorded objective is the exact
        discrete cost of the returned density/control pair."""
        problem = double_integrator_problem()
        grid = self.small_grid()
        result = fbsm_grid(problem, grid, max_iters=2, tol=0.0)
        recomputed = grid_objective(problem, grid, result.density, result.control)
        assert abs(recomputed - result.objective_history[-1]) < 1e-9 * (
            1.0 + abs(recomputed)
        )

    def test_backward_objective_equals_forward_cost_of_same_control(self):
        """<p0, w0> after a backward sweep telescopes to the accumulated
        running-plus-terminal cost of the same control."""
        problem = double_integrator_problem()
        grid = self.small_grid()
        result = fbsm_grid(problem, grid, max_iters=1, tol=0.0)
        u = result.control.values
        p = result.density.values[0].copy()
        field = np.empty_like(result.density.values)
        field[0] = p
        for i in range(grid.n_t):
            gen = build_generator(problem, grid, grid.times()[i], u[i], dt=grid.dt)
            p = fp_step(p, gen, grid.dt)
            field[i + 1] = p
        recomputed = grid_objective(problem, grid, field, u)
        assert abs(recomputed - result.objective_history[-1]) < 1e-9 * (
            1.0 + abs(recomputed)
        )

    def test_convergence_flag(self):
        problem = double_integrator_problem()
        grid = GridSpec([-3.0, -3.0], [3.0, 3.0], (21, 21), 30, 0.3)
        result = fbsm_grid(problem, grid, max_iters=40, tol=1e-8)
        assert result.converged
        assert result.iterations < 40
        assert result.final_delta <= 1e-8 * (1.0 + abs(result.objective_history[-1]))

    def test_u0_validation(self):
        problem = double_integrator_problem()
        grid = self.small_grid()
        with pytest.raises(ProblemError, match="shape"):
            fbsm_grid(problem, grid, u0=np.zeros((60, 31)))
        with pytest.raises(ProblemError, match="bounds"):
            fbsm_grid(problem, grid, u0=np.full((60, 31, 1), 99.0))

    def test_grid_dimension_mismatch(self):
        problem = double_integrator_problem()
        grid = GridSpec([-1.0], [1.0], (11,), 10, 1.0)
        with pytest.raises(ProblemError, match="does not match"):
            fbsm_grid(problem, grid)

    def test_search_mode_also_descends(self):
        problem = replace(double_integrator_problem(), quadratic=None)
        grid = GridSpec([-3.0, -3.0], [3.0, 3.0], (17, 17), 30, 0.3)
        result = fbsm_grid(problem, grid, max_iters=4, tol=0.0)
        hist = result.objective_history
        slack = 1e-6 * (1.0 + np.abs(hist[:-1]))
        assert np.all(hist[1:] <= hist[:-1] + slack)


class TestSweepInPlace:
    """fbsm_grid writes each pass into the buffer of the field it replaces."""

    @pytest.mark.parametrize("sweeps", [2, 3])
    def test_peak_holds_two_fields(self, sweeps):
        # numpy reports its buffers to tracemalloc, so the traced peak
        # counts the fields held at once, independent of allocator and OS.
        problem, grid = small_bundled_obstacle()
        field = (grid.n_t + 1) * 41 * 41 * 8
        tracemalloc.start()
        try:
            result = fbsm_grid(problem, grid, max_iters=sweeps, tol=0.0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert result.iterations == sweeps
        assert peak <= 2.5 * field

    @pytest.mark.parametrize("sweeps", [1, 2, 3, 4])
    def test_fields_match_fresh_passes(self, sweeps):
        problem = double_integrator_problem()
        grid = GridSpec([-3.0, -3.0], [3.0, 3.0], (31, 31), 60, 0.6)
        result = fbsm_grid(problem, grid, max_iters=sweeps, tol=0.0)
        p0 = _initial_density_slice(problem, grid)
        p, u, J = _forward_pass(problem, grid, p0, np.zeros((60, 31, 1)))
        history, w = [J], None
        for k in range(sweeps):
            if k % 2 == 0:
                w, u, J = _backward_pass(problem, grid, p0, u, p_stale=p)
            else:
                p, u, J = _forward_pass(problem, grid, p0, u, w_stale=w)
            history.append(J)
        assert np.array_equal(result.objective_history, history)
        assert np.array_equal(result.control.values, u)
        assert np.array_equal(result.density.values, p)
        assert np.array_equal(result.value.values, w)

    def test_stability_error_in_later_sweep_propagates(self, monkeypatch):
        problem = double_integrator_problem()
        grid = GridSpec([-3.0, -3.0], [3.0, 3.0], (21, 21), 30, 0.3)
        calls = []

        def hjb_step_failing_in_second_backward_sweep(*args, **kwargs):
            calls.append(None)
            if len(calls) > grid.n_t:
                raise StabilityError("injected failure")
            return hjb_step(*args, **kwargs)

        monkeypatch.setattr(gridpde, "hjb_step", hjb_step_failing_in_second_backward_sweep)
        with pytest.raises(StabilityError, match="injected failure"):
            fbsm_grid(problem, grid, max_iters=4, tol=0.0)
        assert len(calls) == grid.n_t + 1


def random_generator(shape, seed):
    """A generator on a random box with random drift and SPD diffusion.

    The diffusion is a random SPD matrix (mixed terms included) times a
    positive scalar field; about a fifth of the drift entries are exactly
    zero, so both upwind sides and the no-drift case all occur.
    """
    rng = np.random.default_rng(seed)
    d = len(shape)
    lower = rng.uniform(-2.0, 0.0, d)
    grid = GridSpec(lower, lower + rng.uniform(0.5, 3.0, d), shape, 10, 1.0)
    drift = [rng.standard_normal(shape) * 3.0 for _ in range(d)]
    for b in drift:
        b[rng.random(shape) < 0.2] = 0.0
    a = rng.standard_normal((d, d))
    spd = a @ a.T + 0.1 * np.eye(d)
    scale = rng.uniform(0.5, 1.5, shape)
    diffusion = [[spd[i, j] * scale for j in range(d)] for i in range(d)]
    problem = GridProblem(
        d_x=1, d_z=d - 1, d_u=1,
        drift=lambda t, S, U: drift,
        diffusion=lambda t, S: diffusion,
        running_cost=lambda t, S, U: np.zeros_like(S[0]),
        terminal_cost=lambda S: np.zeros_like(S[0]),
        initial_density=Gaussian(np.zeros(d), np.eye(d)),
    )
    gen = build_generator(problem, grid, 0.0, np.zeros(tuple(shape[1:]) + (1,)))
    return gen, rng


grid_shapes = st.lists(st.integers(3, 9), min_size=1, max_size=3).map(tuple)
seeds = st.integers(0, 2**32 - 1)


class TestStencilProperties:
    """Slice-add stencils against the assembled matrix and plain numpy."""

    @settings(max_examples=60, deadline=None)
    @given(shape=grid_shapes, seed=seeds)
    def test_apply_and_adjoint_match_sparse_matrix(self, shape, seed):
        gen, rng = random_generator(shape, seed)
        mat = gen.to_sparse()
        w = rng.standard_normal(shape)
        p = rng.standard_normal(shape)
        absmat = abs(mat)
        np.testing.assert_array_less(
            np.abs(gen.apply(w).ravel() - mat @ w.ravel()),
            1e-12 * (absmat @ np.abs(w.ravel())) + 1e-300,
        )
        np.testing.assert_array_less(
            np.abs(gen.apply_adjoint(p).ravel() - mat.T @ p.ravel()),
            1e-12 * (absmat.T @ np.abs(p.ravel())) + 1e-300,
        )

    @settings(max_examples=60, deadline=None)
    @given(shape=grid_shapes, seed=seeds)
    def test_row_sums_vanish(self, shape, seed):
        gen, _ = random_generator(shape, seed)
        mat = gen.to_sparse()
        row_sums = np.asarray(mat.sum(axis=1)).ravel()
        row_scale = np.asarray(abs(mat).sum(axis=1)).ravel()
        assert np.all(np.abs(row_sums) <= 1e-12 * row_scale)
        assert np.all(np.abs(gen.apply(np.ones(shape))).ravel() <= 1e-12 * row_scale)

    @settings(max_examples=60, deadline=None)
    @given(shape=grid_shapes, seed=seeds)
    def test_fp_step_conserves_mass(self, shape, seed):
        gen, rng = random_generator(shape, seed)
        # A step this short keeps q = p + dt L'p positive for p in [1, 2],
        # so nothing is clamped and the drift is rounding only.
        dt = 0.1 / float(abs(gen.to_sparse()).sum(axis=0).max())
        p = rng.uniform(1.0, 2.0, shape)
        p /= p.sum() * gen.grid.cell_volume
        log = MassLog()
        fp_step(p, gen, dt, log=log)
        assert log.max_negative_mass == 0.0
        assert log.max_mass_drift <= 1e-12

    @settings(max_examples=60, deadline=None)
    @given(shape=grid_shapes, seed=seeds)
    def test_upwind_differences_match_np_diff(self, shape, seed):
        rng = np.random.default_rng(seed)
        w = rng.standard_normal(shape)
        for axis in range(len(shape)):
            h = rng.uniform(0.1, 1.0)
            gf, gb = _upwind_differences(w, axis, h)
            quotient = np.diff(w, axis=axis) / h
            pad = [(0, 0)] * len(shape)
            pad[axis] = (0, 1)
            np.testing.assert_array_equal(gf, np.pad(quotient, pad))
            pad[axis] = (1, 0)
            np.testing.assert_array_equal(gb, np.pad(quotient, pad))

    @settings(max_examples=20, deadline=None)
    @given(shape=grid_shapes)
    def test_mesh_is_read_only(self, shape):
        grid = GridSpec(-np.ones(len(shape)), np.ones(len(shape)), shape, 10, 1.0)
        for arr in (*grid.mesh(), *grid.axes(), grid.spacing, grid.lower, grid.upper):
            with pytest.raises(ValueError):
                arr[(0,) * arr.ndim] = 1.0
        assert grid.mesh() is grid.mesh()
