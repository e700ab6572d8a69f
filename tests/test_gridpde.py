"""Tests for the finite-difference density/value sweep solver."""

import dataclasses
import json
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import ndimage, sparse

from fbsweep import gridpde
from fbsweep.config import bundled_config_path, parse_config
from fbsweep.core import Gaussian, GridSpec, ProblemError, StabilityError
from fbsweep.gridpde import (
    STABILITY_FRACTION,
    GridProblem,
    MassLog,
    _backward_pass,
    _fill_undefined,
    _forward_pass,
    _initial_density_slice,
    _driven_terms,
    _Runs,
    _Stage,
    _upwind_differences,
    build_generator,
    conditional_density,
    conditional_hamiltonian,
    control_to_grid,
    fbsm_grid,
    fp_step,
    hjb_step,
    minimize_conditional_hamiltonian,
)
from fbsweep.verify import sweep_pmp_residual
from grid_problems import (
    chain_monte_carlo,
    constant_diffusion,
    random_quadratic_problem,
    upwind_hamiltonian,
)


# The refusal of a nonzero off-diagonal diffusion entry.
OFF_DIAGONAL = r"diffusion D\[0\]\[1\] must be zero: the grid model takes a diagonal diffusion"


def grid_objective(problem, grid, p, u) -> float:
    """Discrete objective sum_t E_p[f] dt + E_p[g] at the final slice.

    A reference for the sum that _forward_pass accumulates as it steps.
    """
    S = grid.mesh()
    vol = grid.cell_volume
    times = grid.times()
    total = 0.0
    for i in range(grid.n_t):
        U = control_to_grid(u[i], problem.d_x, problem.d_u)
        f = np.asarray(problem.running_cost(times[i], S, U), dtype=float)
        total += float((f * p[i]).sum()) * vol * grid.dt
    g = np.asarray(problem.terminal_cost(S), dtype=float)
    return total + float((g * p[-1]).sum()) * vol


def minimize_at(problem, grid, t, cond, w_next, u_prev, defined):
    """The minimizer at the stage read at t, on the driven terms of
    (cond, w_next)."""
    stage = _Stage(problem, grid, t)
    return minimize_conditional_hamiltonian(
        stage, _driven_terms(stage, cond, w_next), u_prev, defined
    )


def to_sparse(gen) -> sparse.csr_matrix:
    """Assemble a DiscreteGenerator's explicit matrix from its coefficients."""
    shape = gen.grid.shape
    n = int(np.prod(shape))
    flat = np.arange(n).reshape(shape)
    rows, cols, vals = [], [], []

    def add(coeff, col_index_arr):
        mask = coeff != 0.0
        rows.append(flat[mask])
        cols.append(col_index_arr[mask])
        vals.append(coeff[mask])

    add(gen.diag, flat)
    for i in range(gen.grid.dim):
        add(gen.up[i], np.roll(flat, -1, axis=i))
        add(gen.down[i], np.roll(flat, 1, axis=i))
    rows, cols, vals = (np.concatenate(a) for a in (rows, cols, vals))
    return sparse.csr_matrix((vals, (rows, cols)), shape=(n, n))


def double_integrator_problem(bound=6.0):
    """dx = u dt + dw, dz = x dt + dv, cost x^2 + u^2, terminal x^2."""
    return GridProblem(
        d_x=1,
        d_z=1,
        b_matrix=[[1.0], [0.0]],
        r_diag=[1.0],
        drift0=lambda t, S: [np.zeros_like(S[0]), S[0]],
        base_cost=lambda t, S: S[0] ** 2,
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


def time_varying_obstacle():
    """small_bundled_obstacle with t x^2 added to its running cost, so
    that no two time nodes have the same base_cost."""
    problem, grid = small_bundled_obstacle()
    cost = problem.base_cost
    return dataclasses.replace(problem, base_cost=lambda t, S: cost(t, S) + t * S[0] ** 2), grid


def counting_reads(problem):
    """problem with drift0, diffusion and base_cost counting their calls
    in the returned dict."""
    reads = {"drift0": 0, "diffusion": 0, "base_cost": 0}

    def counted(name):
        read = getattr(problem, name)

        def call(t, S):
            reads[name] += 1
            return read(t, S)

        return call

    return dataclasses.replace(problem, **{name: counted(name) for name in reads}), reads


def fresh_sweeps(problem, grid, sweeps):
    """fbsm_grid's alternation from zero, in separate freshly allocated passes.

    Returns (history, u, p, w): the last density and value, each from the
    last pass that produced it (w None before the first backward pass).
    """
    p0 = _initial_density_slice(problem, grid)
    runs = _Runs(problem, grid)
    u = np.zeros((grid.n_t,) + grid.memory_shape(problem.d_x) + (problem.d_u,))
    p = np.empty((grid.n_t + 1,) + grid.shape)
    history, w = [_forward_pass(problem, grid, p0, u, runs, MassLog(), p)], None
    for k in range(sweeps):
        if k % 2 == 0:
            w = np.empty_like(p)
            history.append(_backward_pass(problem, grid, p0, u, runs, p_stale=p, out=w))
        else:
            p = np.empty_like(w)
            history.append(_forward_pass(problem, grid, p0, u, runs, MassLog(), p, w_stale=w))
    return history, u, p, w


class TestGridProblem:
    """A declaration outside the model fails at construction."""

    def declare(self, **changes):
        fields = dict(
            d_x=1, d_z=1,
            b_matrix=[[1.0], [0.0]], r_diag=[1.0],
            drift0=lambda t, S: [np.zeros_like(S[0]), S[0]],
            base_cost=lambda t, S: S[0] ** 2,
            diffusion=constant_diffusion(np.eye(2)),
            terminal_cost=lambda S: S[0] ** 2,
            initial_density=Gaussian(np.zeros(2), 0.25 * np.eye(2)),
            control_lower=[-1.0], control_upper=[1.0],
        )
        fields.update(changes)
        return GridProblem(**fields)

    def test_the_model_derives_d_u_and_read_only_bounds(self):
        problem = self.declare()
        assert problem.d_s == 2 and problem.d_u == 1
        for arr in (problem.control_lower, problem.control_upper):
            with pytest.raises(ValueError):
                arr[0] = 0.0

    def test_b_matrix_must_have_a_row_per_coordinate(self):
        with pytest.raises(ProblemError, match="b_matrix must have shape"):
            self.declare(b_matrix=[[1.0]])

    def test_nan_bound_rejected(self):
        with pytest.raises(ProblemError, match="NaN"):
            self.declare(control_lower=[np.nan])

    def test_initial_density_must_be_a_density_object(self):
        """A bare callable of the mesh is not an initial law: the simulator
        samples the same object the grid reads."""
        with pytest.raises(ProblemError, match="initial_density"):
            self.declare(initial_density=lambda S: np.exp(-S[0] ** 2 - S[1] ** 2))

    def test_bounds_must_have_one_entry_per_control(self):
        with pytest.raises(ProblemError, match="length d_u=1"):
            self.declare(control_lower=[-1.0, -2.0])

    def test_crossed_bounds_rejected(self):
        with pytest.raises(ProblemError, match="lower < upper"):
            self.declare(control_lower=[1.0], control_upper=[1.0])

    @pytest.mark.parametrize(
        "b_matrix, match",
        [([[1.0], [1.0]], "exactly one coordinate"), ([[1.0, 1.0], [0.0, 0.0]], "distinct")],
    )
    def test_each_control_drives_its_own_coordinate(self, b_matrix, match):
        with pytest.raises(ProblemError, match=match):
            self.declare(
                b_matrix=b_matrix, r_diag=[1.0] * len(b_matrix[0]),
                control_lower=None, control_upper=None,
            )

    def test_drift0_must_cover_every_coordinate(self):
        problem = self.declare(drift0=lambda t, S: [np.zeros_like(S[0])])
        grid = GridSpec([-1.0, -1.0], [1.0, 1.0], (5, 5), 10, 1.0)
        with pytest.raises(ProblemError, match="drift0 returned 1 components, expected 2"):
            build_generator(_Stage(problem, grid, 0.0), np.zeros((5, 1)))


class TestDiscreteGenerator:
    def grid_1d(self, n=41, n_t=100):
        return GridSpec(lower=[-2.0], upper=[2.0], shape=(n,), n_t=n_t, horizon=1.0)

    def test_row_sums_vanish(self):
        grid = GridSpec([-1.0, -1.0], [1.0, 1.0], (11, 9), 10, 1.0)
        problem = GridProblem(
            d_x=1, d_z=1,
            b_matrix=[[1.0], [0.0]],
            r_diag=[1.0],
            drift0=lambda t, S: [0.4 * S[1], -0.7 * S[0]],
            base_cost=lambda t, S: np.zeros_like(S[0]),
            diffusion=constant_diffusion([[1.0, 0.0], [0.0, 0.5]]),
            terminal_cost=lambda S: np.zeros_like(S[0]),
            initial_density=Gaussian(np.zeros(2), np.eye(2)),
            control_lower=[-5.0], control_upper=[5.0],
        )
        u = np.full((9, 1), 0.8)
        gen = build_generator(_Stage(problem, grid, 0.0), u)
        mat = to_sparse(gen)
        row_sums = np.asarray(mat.sum(axis=1)).ravel()
        assert np.max(np.abs(row_sums)) < 1e-12
        const = np.ones(grid.shape)
        assert np.max(np.abs(gen.apply(const))) < 1e-12

    def test_apply_matches_sparse_matrix(self):
        grid = GridSpec([-1.0, 0.0], [1.0, 2.0], (13, 8), 10, 1.0)
        problem = GridProblem(
            d_x=1, d_z=1,
            b_matrix=[[1.0], [0.0]],
            r_diag=[1.0],
            drift0=lambda t, S: [np.sin(S[1]), np.cos(S[0])],
            base_cost=lambda t, S: np.zeros_like(S[0]),
            diffusion=constant_diffusion([[0.8, 0.0], [0.0, 0.6]]),
            terminal_cost=lambda S: np.zeros_like(S[0]),
            initial_density=Gaussian(np.array([0.0, 1.0]), np.eye(2)),
            control_lower=[-5.0], control_upper=[5.0],
        )
        rng = np.random.default_rng(3)
        u = rng.uniform(-1, 1, size=(8, 1))
        gen = build_generator(_Stage(problem, grid, 0.0), u)
        mat = to_sparse(gen)
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
        gen = build_generator(_Stage(problem, grid, 0.5), u)
        w = rng.standard_normal(grid.shape)
        p = rng.uniform(0.0, 1.0, size=grid.shape)
        lhs = float((gen.apply(w) * p).sum())
        rhs = float((w * gen.apply_adjoint(p)).sum())
        assert abs(lhs - rhs) < 1e-10 * (1.0 + abs(lhs))

    def test_pure_diffusion_on_quadratic(self):
        grid = self.grid_1d()
        problem = GridProblem(
            d_x=1, d_z=0,
            b_matrix=[[1.0]], r_diag=[1.0],
            drift0=lambda t, S: [np.zeros_like(S[0])],
            base_cost=lambda t, S: np.zeros_like(S[0]),
            diffusion=constant_diffusion([[2.0]]),
            terminal_cost=lambda S: np.zeros_like(S[0]),
            initial_density=Gaussian([0.0], [[1.0]]),
            control_lower=[-1.0], control_upper=[1.0],
        )
        gen = build_generator(_Stage(problem, grid, 0.0), np.zeros((1,)))
        w = grid.mesh()[0] ** 2
        lw = gen.apply(w)
        assert np.max(np.abs(lw[1:-1] - 2.0)) < 1e-9

    def test_constant_drift_upwind(self):
        grid = self.grid_1d()
        problem = GridProblem(
            d_x=1, d_z=0,
            b_matrix=[[1.0]], r_diag=[1.0],
            drift0=lambda t, S: [np.full_like(S[0], 3.0)],
            base_cost=lambda t, S: np.zeros_like(S[0]),
            diffusion=constant_diffusion([[0.0]]),
            terminal_cost=lambda S: np.zeros_like(S[0]),
            initial_density=Gaussian([0.0], [[1.0]]),
            control_lower=[-1.0], control_upper=[1.0],
        )
        gen = build_generator(_Stage(problem, grid, 0.0), np.zeros((1,)))
        w = grid.mesh()[0].copy()
        lw = gen.apply(w)
        assert np.max(np.abs(lw[:-1] - 3.0)) < 1e-10
        assert lw[-1] == 0.0

    def test_stability_bound_names_binding_cell(self):
        # A driven drift must be constant in x, so the binding cell is set
        # by the diffusion, largest at x = 0 (node 15): rate 25 + 250 there.
        grid = GridSpec([-3.0], [3.0], (31,), 100, 1.0)
        problem = GridProblem(
            d_x=1, d_z=0,
            b_matrix=[[1.0]], r_diag=[1.0],
            drift0=lambda t, S: [np.full_like(S[0], 50.0)],
            base_cost=lambda t, S: np.zeros_like(S[0]),
            diffusion=lambda t, S: [[np.exp(-S[0] ** 2)]],
            terminal_cost=lambda S: np.zeros_like(S[0]),
            initial_density=Gaussian([0.0], [[1.0]]),
            control_lower=[-1.0], control_upper=[1.0],
        )
        gen = build_generator(_Stage(problem, grid, 0.0), np.zeros((1,)))
        with pytest.raises(StabilityError, match=r"binding cell \(15,\), outflow rate 275"):
            gen.check_stability(grid.dt)
        # the sweep checks every step it takes
        with pytest.raises(StabilityError, match="binding cell"):
            fbsm_grid(problem, grid, max_iters=0)

    def test_asymmetric_diffusion_rejected(self):
        grid = GridSpec([-1.0, -1.0], [1.0, 1.0], (5, 5), 10, 1.0)
        problem = GridProblem(
            d_x=1, d_z=1,
            b_matrix=[[1.0], [0.0]], r_diag=[1.0],
            drift0=lambda t, S: [np.zeros_like(S[0]), np.zeros_like(S[0])],
            base_cost=lambda t, S: np.zeros_like(S[0]),
            diffusion=constant_diffusion([[1.0, 0.5], [0.2, 1.0]]),
            terminal_cost=lambda S: np.zeros_like(S[0]),
            initial_density=Gaussian(np.zeros(2), np.eye(2)),
            control_lower=[-1.0], control_upper=[1.0],
        )
        with pytest.raises(ProblemError, match=OFF_DIAGONAL):
            build_generator(_Stage(problem, grid, 0.0), np.zeros((5, 1)))


class TestDensitySteps:
    def test_mass_conserved_and_variance_grows(self):
        grid = GridSpec([-6.0], [6.0], (241,), 800, 1.0)
        problem = GridProblem(
            d_x=1, d_z=0,
            b_matrix=[[1.0]], r_diag=[1.0],
            drift0=lambda t, S: [np.zeros_like(S[0])],
            base_cost=lambda t, S: np.zeros_like(S[0]),
            diffusion=constant_diffusion([[1.0]]),
            terminal_cost=lambda S: np.zeros_like(S[0]),
            initial_density=Gaussian([0.0], [[0.25]]),
            control_lower=[-1.0], control_upper=[1.0],
        )
        s = grid.mesh()[0]
        vol = grid.cell_volume
        p = np.exp(-0.5 * s**2 / 0.25)
        p /= p.sum() * vol
        gen = build_generator(_Stage(problem, grid, 0.0), np.zeros((1,)))
        gen.check_stability(grid.dt)
        steps = 100
        var0 = float((p * s**2).sum() * vol)
        for _ in range(steps):
            p = fp_step(p, gen, MassLog())
        assert abs(p.sum() * vol - 1.0) < 1e-12
        var1 = float((p * s**2).sum() * vol)
        growth = var1 - var0
        assert abs(growth - steps * grid.dt) < 2e-3 * steps * grid.dt

    def test_unstable_step_aborts_on_negative_mass(self):
        grid = GridSpec([-2.0], [2.0], (81,), 100, 1.0)
        problem = GridProblem(
            d_x=1, d_z=0,
            b_matrix=[[1.0]], r_diag=[1.0],
            drift0=lambda t, S: [np.zeros_like(S[0])],
            base_cost=lambda t, S: np.zeros_like(S[0]),
            diffusion=constant_diffusion([[1.0]]),
            terminal_cost=lambda S: np.zeros_like(S[0]),
            initial_density=Gaussian([0.0], [[0.04]]),
            control_lower=[-1.0], control_upper=[1.0],
        )
        p = np.zeros(grid.shape)
        p[40] = 1.0 / grid.cell_volume
        gen = build_generator(_Stage(problem, grid, 0.0), np.zeros((1,)))
        with pytest.raises(StabilityError, match="negative density mass"):
            fp_step(p, gen, MassLog())

    def test_hjb_step_rejects_non_finite(self):
        grid = GridSpec([-1.0], [1.0], (21,), 250, 1.0)
        problem = GridProblem(
            d_x=1, d_z=0,
            b_matrix=[[1.0]], r_diag=[1.0],
            drift0=lambda t, S: [np.zeros_like(S[0])],
            base_cost=lambda t, S: np.zeros_like(S[0]),
            diffusion=constant_diffusion([[1.0]]),
            terminal_cost=lambda S: np.zeros_like(S[0]),
            initial_density=Gaussian([0.0], [[1.0]]),
            control_lower=[-1.0], control_upper=[1.0],
        )
        w_next = np.full(grid.shape, np.nan)
        gen = build_generator(_Stage(problem, grid, 0.42), np.zeros((1,)))
        with pytest.raises(StabilityError, match="t=0.42"):
            hjb_step(_Stage(problem, grid, 0.42), w_next, np.zeros((1,)), gen)


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
        problem = GridProblem(
            d_x=1, d_z=1,
            b_matrix=[[1.0], [0.0]],
            r_diag=[0.7],
            drift0=lambda t, S: [0.3 * S[1], np.sin(S[0])],
            base_cost=lambda t, S: S[0] ** 2,
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

    def random_node(self, seed):
        """A node of random_quadratic_problem(seed) on an 11x11 grid: B of
        either sign, bounds that may leave the kink outside them, a random
        density with one empty memory column, and a random, linear or
        rounded value slice. Returns what conditioning_setup does, plus t."""
        problem = random_quadratic_problem(seed)
        grid = GridSpec([-2.0, -2.0], [2.0, 2.0], (11, 11), 10, 0.1)
        rng = np.random.default_rng([seed, 3])
        p = rng.uniform(0.0, 1.0, grid.shape)
        p[:, rng.integers(11)] = 0.0
        p /= p.sum() * grid.cell_volume
        cond, _, defined = conditional_density(p, grid, d_x=1)
        X, Z = grid.mesh()
        w_next = [
            rng.standard_normal(grid.shape) * rng.uniform(0.1, 10.0),
            rng.uniform(-3.0, 3.0) * X + rng.uniform(-3.0, 3.0) * Z,
            np.round(rng.standard_normal(grid.shape)),
        ][rng.integers(3)]
        bound = problem.control_upper[0]
        u_prev = rng.uniform(-1.5 * bound, 1.5 * bound, size=(11, 1))
        return problem, grid, cond, defined, w_next, u_prev, rng.uniform(0.0, 0.1)

    def hamiltonian_profile(self, problem, grid, t, cond, w_next, u_values):
        """Reference conditional Hamiltonian of a control driving axis 0,
        R u^2 + max(v, 0) E[gf] - max(-v, 0) E[gb] with v = b0 + B u, per
        control in u_values (rows) and memory node (columns)."""
        from fbsweep.gridpde import _upwind_differences, _conditional_expectation

        gf, gb = _upwind_differences(w_next, 0, grid.spacing[0])
        vol_x = grid.spacing[0]
        egf = _conditional_expectation(cond, gf, 1, vol_x)
        egb = _conditional_expectation(cond, gb, 1, vol_x)
        b0 = np.broadcast_to(problem.drift0(t, grid.mesh())[0], grid.shape)[0]
        B, R = problem.b_matrix[0, 0], problem.r_diag[0]
        u = np.asarray(u_values, dtype=float)[:, None]
        v = b0 + B * u
        return R * u**2 + np.maximum(v, 0) * egf - np.maximum(-v, 0) * egb

    @settings(max_examples=50, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    @example(seed=None)
    def test_exact_matches_dense_scan(self, seed):
        """At every defined memory node, the minimizer's answer is no worse
        than the best of 20001 controls spread over the bounds. seed None
        is conditioning_setup (B = 1, bounds +-3, the kink inside them);
        the drawn nodes (random_node) reach empty branches and, where
        E[gf] < E[gb], a non-convex Hamiltonian."""
        if seed is None:
            problem, grid, cond, defined, w_next, u_prev = self.conditioning_setup()
            t = 0.0
        else:
            problem, grid, cond, defined, w_next, u_prev, t = self.random_node(seed)
        u = minimize_at(problem, grid, t, cond, w_next, u_prev, defined)
        lo, hi = problem.control_lower[0], problem.control_upper[0]
        assert np.all((lo <= u) & (u <= hi))
        dense = np.linspace(lo, hi, 20001)
        best_dense = self.hamiltonian_profile(problem, grid, t, cond, w_next, dense).min(axis=0)
        phi_u = np.diagonal(self.hamiltonian_profile(problem, grid, t, cond, w_next, u[:, 0]))
        slack = 1e-9 * (1.0 + np.abs(best_dense))
        assert np.all((phi_u <= best_dense + slack)[defined])

    @settings(max_examples=50, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_conditional_hamiltonian_matches_the_full_grid_reference(self, seed):
        """Across two controls, the closed form's difference equals that of
        the full-grid Hamiltonian's conditional expectation at every
        defined memory node."""
        problem = random_quadratic_problem(seed)
        grid = GridSpec([-2.0, -2.0], [2.0, 2.0], (11, 11), 10, 0.1)
        rng = np.random.default_rng([seed, 2])
        p = rng.uniform(0.0, 1.0, grid.shape)
        p[:, rng.integers(11)] = 0.0
        p /= p.sum() * grid.cell_volume
        cond, _, defined = conditional_density(p, grid, d_x=1)
        w = rng.standard_normal(grid.shape)
        lo, hi = problem.control_lower, problem.control_upper
        u, u_prime = (rng.uniform(lo, hi, size=(11, 1)) for _ in range(2))
        t = rng.uniform(0.0, 0.1)
        stage = _Stage(problem, grid, t)
        terms = _driven_terms(stage, cond, w)
        ours = [conditional_hamiltonian(stage, terms, c) for c in (u, u_prime)]
        full = [upwind_hamiltonian(problem, grid, t, w, c) for c in (u, u_prime)]
        ref = [(cond * h).sum(axis=0) * grid.spacing[0] for h in full]
        gap = np.abs((ours[0] - ours[1]) - (ref[0] - ref[1]))[defined]
        assert defined.sum() == 10
        assert gap.max() <= 1e-12 * (1.0 + max(np.abs(h).max() for h in full))

    def test_ties_keep_previous_control(self):
        problem, grid, cond, defined, w_next, u_prev = self.conditioning_setup()
        u1 = minimize_at(problem, grid, 0.0, cond, w_next, u_prev, defined)
        u2 = minimize_at(problem, grid, 0.0, cond, w_next, u1, defined)
        np.testing.assert_array_equal(u1, u2)

    def test_low_mass_nodes_copy_nearest(self):
        problem, grid, cond, defined, w_next, u_prev = self.conditioning_setup()
        defined = defined.copy()
        defined[-3:] = False
        cond = cond.copy()
        cond[:, -3:] = 0.0
        u = minimize_at(problem, grid, 0.0, cond, w_next, u_prev, defined)
        assert np.all(u[-3:] == u[-4])

    @staticmethod
    def filled_sources(defined, spacing):
        """Flat index each memory node takes its control from, by _fill_undefined.

        The memory grid has the shape of defined and the given spacing,
        behind one state axis of two nodes.
        """
        shape = defined.shape
        grid = GridSpec(
            [0.0] * (1 + len(shape)),
            [1.0] + [h * (n - 1) for h, n in zip(spacing, shape)],
            (2,) + shape,
            1,
            1.0,
        )
        u = np.arange(defined.size, dtype=float).reshape(shape + (1,))
        _fill_undefined(u, defined, grid, 1)
        return u[..., 0].astype(int), grid.spacing[1:]

    @settings(max_examples=200, deadline=None)
    @given(
        mask=st.lists(st.booleans(), min_size=2, max_size=40).filter(any),
        spacing=st.floats(1e-3, 10.0),
    )
    def test_fill_matches_distance_transform_in_1d(self, mask, spacing):
        """On a 1-D memory grid every node takes its control from the node
        scipy's Euclidean distance transform names, ties included."""
        defined = np.array(mask)
        src, sampling = self.filled_sources(defined, [spacing])
        _, idx = ndimage.distance_transform_edt(
            ~defined, sampling=sampling, return_indices=True
        )
        np.testing.assert_array_equal(src, idx[0])

    @settings(max_examples=100, deadline=None)
    @given(
        shape=st.tuples(st.integers(2, 9), st.integers(2, 9)),
        spacing=st.tuples(st.floats(1e-2, 3.0), st.floats(1e-2, 3.0)),
        seed=st.integers(0, 2**32 - 1),
        density=st.floats(0.05, 0.95),
    )
    def test_fill_copies_from_a_nearest_defined_node_in_2d(self, shape, spacing, seed, density):
        """On a 2-D memory grid each filled node copies from a defined node
        at scipy's distance; at a tie the two may pick different nodes."""
        defined = np.random.default_rng(seed).random(shape) < density
        if not defined.any():
            defined[0, 0] = True
        src, sampling = self.filled_sources(defined, spacing)
        dist = ndimage.distance_transform_edt(~defined, sampling=sampling)
        src_idx = np.unravel_index(src, shape)
        assert defined[src_idx].all()
        offsets = np.indices(shape) - np.array(src_idx)
        own = np.sqrt(sum((o * h) ** 2 for o, h in zip(offsets, sampling)))
        np.testing.assert_allclose(own, dist, rtol=1e-12, atol=0.0)

    def test_fill_rejects_all_undefined_memory(self):
        with pytest.raises(ProblemError, match="undefined at every memory node"):
            self.filled_sources(np.zeros((3, 4), dtype=bool), [1.0, 1.0])

    def test_nonconforming_drift_rejected(self):
        grid = GridSpec([-1.0, -1.0], [1.0, 1.0], (9, 9), 10, 1.0)
        problem = GridProblem(
            d_x=1, d_z=1,
            b_matrix=[[1.0], [0.0]],
            r_diag=[1.0],
            drift0=lambda t, S: [S[0] ** 2, np.zeros_like(S[0])],
            base_cost=lambda t, S: np.zeros_like(S[0]),
            diffusion=constant_diffusion(np.eye(2)),
            terminal_cost=lambda S: np.zeros_like(S[0]),
            initial_density=Gaussian(np.zeros(2), np.eye(2)),
            control_lower=[-1.0], control_upper=[1.0],
        )
        p = np.ones(grid.shape)
        p /= p.sum() * grid.cell_volume
        cond, _, defined = conditional_density(p, grid, d_x=1)
        with pytest.raises(ProblemError, match="varies across the state"):
            minimize_at(
                problem, grid, 0.0, cond, np.zeros(grid.shape),
                np.zeros((9, 1)), defined,
            )
        # The generator refuses it too: the zero-control initial pass
        # builds one before any minimizer runs.
        with pytest.raises(ProblemError, match=r"drift0\[0\] varies across the state"):
            build_generator(_Stage(problem, grid, 0.0), np.zeros((9, 1)))
        with pytest.raises(ProblemError, match="varies across the state"):
            fbsm_grid(problem, grid, max_iters=0)


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
        assert result.control.shape == (60, 31, 1)
        # an even sweep count ends on a forward sweep: the density is held
        assert result.density.shape == (61, 31, 31)
        assert result.value is None
        assert result.kept_slices == {}
        masses = result.density.sum(axis=(1, 2)) * grid.cell_volume
        assert np.max(np.abs(masses - 1.0)) < 1e-12
        assert result.mass_log.max_negative_mass <= 1e-6
        lo, hi = problem.control_lower, problem.control_upper
        assert np.all(result.control >= lo)
        assert np.all(result.control <= hi)

    def test_zero_cost_keeps_zero_control(self):
        problem = GridProblem(
            d_x=1, d_z=1,
            b_matrix=[[1.0], [0.0]],
            r_diag=[1.0],
            drift0=lambda t, S: [np.zeros_like(S[0]), S[0]],
            base_cost=lambda t, S: np.zeros_like(S[0]),
            diffusion=constant_diffusion(np.eye(2)),
            terminal_cost=lambda S: np.zeros_like(S[0]),
            initial_density=Gaussian(np.zeros(2), 0.25 * np.eye(2)),
            control_lower=[-4.0], control_upper=[4.0],
        )
        grid = GridSpec([-3.0, -3.0], [3.0, 3.0], (21, 21), 40, 0.4)
        result = fbsm_grid(problem, grid, max_iters=2, tol=0.0)
        assert np.all(result.control == 0.0)
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
        u = result.control
        p = _initial_density_slice(problem, grid)
        field = np.empty((grid.n_t + 1,) + grid.shape)
        field[0] = p
        for i in range(grid.n_t):
            gen = build_generator(_Stage(problem, grid, grid.times()[i]), u[i])
            p = fp_step(p, gen, MassLog())
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

    def test_bounds_must_admit_the_zero_initial_control(self):
        problem = dataclasses.replace(
            double_integrator_problem(), control_lower=[1.0], control_upper=[2.0]
        )
        with pytest.raises(ProblemError, match="zero initial control"):
            fbsm_grid(problem, self.small_grid())

    def test_grid_dimension_mismatch(self):
        problem = double_integrator_problem()
        grid = GridSpec([-1.0], [1.0], (11,), 10, 1.0)
        with pytest.raises(ProblemError, match="does not match"):
            fbsm_grid(problem, grid)

class TestSweepInPlace:
    """fbsm_grid turns its one field buffer into the other field in place."""

    @pytest.mark.parametrize("sweeps", [2, 3])
    def test_peak_holds_one_field(self, sweeps):
        # numpy reports its buffers to tracemalloc, so the traced peak
        # counts the fields held at once, independent of allocator and OS.
        problem, grid = small_bundled_obstacle()
        field = (grid.n_t + 1) * 41 * 41 * 8
        tracemalloc.start()
        try:
            result = fbsm_grid(problem, grid, max_iters=sweeps, tol=0.0, keep_nodes=(0, 200, 400))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert result.iterations == sweeps
        assert peak <= 1.5 * field

    def test_peak_holds_one_field_when_every_node_differs(self):
        # Every node is its own run, so a pass holding a stage per distinct
        # node would hold 400 stages of several grid arrays each.
        problem, grid = time_varying_obstacle()
        field = (grid.n_t + 1) * 41 * 41 * 8
        tracemalloc.start()
        try:
            result = fbsm_grid(problem, grid, max_iters=3, tol=0.0, keep_nodes=(0, 200, 400))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert result.iterations == 3
        assert peak <= 1.5 * field

    @pytest.mark.parametrize("sweeps", [1, 2, 3, 4])
    def test_fields_match_fresh_passes(self, sweeps):
        problem = double_integrator_problem()
        grid = GridSpec([-3.0, -3.0], [3.0, 3.0], (31, 31), 60, 0.6)
        keep = (0, 17, 60)
        result = fbsm_grid(problem, grid, max_iters=sweeps, tol=0.0, keep_nodes=keep)
        history, u, p, w = fresh_sweeps(problem, grid, sweeps)
        assert np.array_equal(result.objective_history, history)
        assert np.array_equal(result.control, u)
        held, other = (w, p) if sweeps % 2 else (p, w)
        assert np.array_equal(result.value if sweeps % 2 else result.density, held)
        assert (result.density if sweeps % 2 else result.value) is None
        assert sorted(result.kept_slices) == list(keep)
        for node in keep:
            assert np.array_equal(result.kept_slices[node], other[node])

    def test_keep_nodes_outside_the_time_grid_rejected(self):
        problem = double_integrator_problem()
        grid = GridSpec([-3.0, -3.0], [3.0, 3.0], (11, 11), 10, 0.1)
        with pytest.raises(ProblemError, match="keep_nodes"):
            fbsm_grid(problem, grid, max_iters=1, keep_nodes=(11,))

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


class TestSweepProperties:
    """The one-buffer sweep over random small quadratic problems."""

    @settings(max_examples=20, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n_t=st.integers(50, 70),
        sweeps=st.integers(1, 4),
        keep=st.lists(st.integers(0, 50), min_size=1, max_size=3),
    )
    def test_sweep_matches_fresh_passes_and_descends(self, seed, n_t, sweeps, keep):
        problem = random_quadratic_problem(seed)
        grid = GridSpec([-2.0, -2.0], [2.0, 2.0], (11, 11), n_t, 0.01 * n_t)
        result = fbsm_grid(problem, grid, max_iters=sweeps, tol=0.0, keep_nodes=keep)
        history, u, p, w = fresh_sweeps(problem, grid, sweeps)
        assert np.array_equal(result.objective_history, history)
        assert np.array_equal(result.control, u)
        held, other = (w, p) if sweeps % 2 else (p, w)
        assert np.array_equal(result.value if sweeps % 2 else result.density, held)
        assert sorted(result.kept_slices) == sorted(set(keep))
        for node, kept in result.kept_slices.items():
            assert np.array_equal(kept, other[node])
        assert not result.monotonicity_violations
        assert result.mass_log.max_negative_mass == 0.0
        assert result.mass_log.max_mass_drift <= 1e-12
        # verify's contract: the oracle reproduces the recorded objective
        report = sweep_pmp_residual(problem, grid, result.control)
        recorded = report.value_objective if sweeps % 2 else report.objective
        assert recorded == result.objective_history[-1]


def switching_problem(seed, which):
    """A random_quadratic_problem-style problem on the 11x11 grid with
    dt 0.01 whose drift0, diffusion and base_cost take, at step node i,
    the values of set which[i]. Set 1 is set 0 with base_cost -0.0 in
    place of 0.0 at x = 0, so a switch between them moves only sign bits."""
    rng = np.random.default_rng(seed)
    b = rng.choice([-1.0, 1.0]) * rng.uniform(0.5, 1.5)
    bound, g = rng.uniform(0.5, 3.0), rng.uniform(0.0, 2.0)
    drawn = [
        (rng.uniform(-1.0, 1.0, 4), np.diag(rng.uniform(0.05, 0.5, 2)), rng.uniform(0.1, 2.0))
        for _ in range(2)
    ]
    sets = [drawn[0], drawn[0], drawn[1]]

    def node(t):
        return which[int(round(t / 0.01))]

    def drift0(t, S):
        a0, a1, c0, c1 = sets[node(t)][0]
        return [a0 + a1 * S[1] + np.zeros_like(S[0]), c0 * S[0] + c1 * S[1]]

    def base_cost(t, S):
        k = node(t)
        f = sets[k][2] * S[0] ** 2
        return np.where(S[0] == 0.0, -0.0, f) if k == 1 else f

    return GridProblem(
        d_x=1,
        d_z=1,
        b_matrix=[[b], [0.0]],
        r_diag=[rng.uniform(0.3, 3.0)],
        drift0=drift0,
        base_cost=base_cost,
        diffusion=lambda t, S: sets[node(t)][1],
        terminal_cost=lambda S: g * S[0] ** 2,
        initial_density=Gaussian(rng.uniform(-0.5, 0.5, 2), np.diag(rng.uniform(0.1, 0.5, 2))),
        control_lower=[-bound],
        control_upper=[bound],
    )


def unstaged_sweeps(problem, grid, sweeps):
    """fbsm_grid's alternation from zero, each step reading the problem at
    its own time, with no stage held across steps: build_generator,
    hjb_step and the minimizer read a _Stage built from scratch at t, and
    the forward cost is problem.running_cost. Returns (history, u, p, w)
    as fresh_sweeps does."""
    n, dt, vol = grid.n_t, grid.dt, grid.cell_volume
    times, S = grid.times(), grid.mesh()
    d_x, d_u = problem.d_x, problem.d_u
    p0 = _initial_density_slice(problem, grid)
    u = np.zeros((n,) + grid.memory_shape(d_x) + (d_u,))

    def refresh(i, p_i, w_next):
        cond, _, defined = conditional_density(p_i, grid, d_x)
        u[i] = minimize_at(problem, grid, times[i], cond, w_next, u[i], defined)

    def generator(i):
        gen = build_generator(_Stage(problem, grid, times[i]), u[i])
        gen.check_stability(dt)
        return gen

    def forward(w):
        p = np.empty((n + 1,) + grid.shape)
        p[0], running = p0, 0.0
        for i in range(n):
            if w is not None:
                refresh(i, p[i], w[i + 1])
            f = problem.running_cost(times[i], S, control_to_grid(u[i], d_x, d_u))
            running += float((f * p[i]).sum()) * vol * dt
            p[i + 1] = fp_step(p[i], generator(i), MassLog())
        return p, running + float((problem.terminal_cost(S) * p[n]).sum()) * vol

    def backward(p):
        w = np.empty_like(p)
        w[n] = problem.terminal_cost(S)
        for i in range(n - 1, -1, -1):
            refresh(i, p[i], w[i + 1])
            w[i] = hjb_step(_Stage(problem, grid, times[i]), w[i + 1], u[i], generator(i))
        return w, float((p0 * w[0]).sum()) * grid.cell_volume

    p, j = forward(None)
    history, w = [j], None
    for k in range(sweeps):
        if k % 2 == 0:
            w, j = backward(p)
        else:
            p, j = forward(w)
        history.append(j)
    return history, u, p, w


@st.composite
def switch_plans(draw):
    """A node count and the value set of each step node: node 0 alone in
    its run, a sign-bit switch at node 1, and a switch at the last step."""
    n_t = draw(st.integers(8, 30))
    which = [0, 1] + draw(st.lists(st.integers(0, 2), min_size=n_t - 3, max_size=n_t - 3))
    return n_t, which + [(which[-1] + 1) % 3]


class TestRunsKeepTheBits:
    """Reading the problem once per run of identical nodes moves no bit."""

    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), plan=switch_plans(), sweeps=st.integers(1, 3))
    def test_sweep_matches_a_build_from_scratch_at_every_step(self, seed, plan, sweeps):
        n_t, which = plan
        problem = switching_problem(seed, which)
        grid = GridSpec([-2.0, -2.0], [2.0, 2.0], (11, 11), n_t, 0.01 * n_t)
        keep = (0, 1, n_t - 1, n_t)
        result = fbsm_grid(problem, grid, max_iters=sweeps, tol=0.0, keep_nodes=keep)
        history, u, p, w = unstaged_sweeps(problem, grid, sweeps)
        assert np.array_equal(result.objective_history, history)
        assert np.array_equal(result.control, u)
        held, other = (w, p) if sweeps % 2 else (p, w)
        assert np.array_equal(result.value if sweeps % 2 else result.density, held)
        assert sorted(result.kept_slices) == list(keep)
        for node in keep:
            assert np.array_equal(result.kept_slices[node], other[node])
        report = sweep_pmp_residual(problem, grid, result.control)
        recorded = report.value_objective if sweeps % 2 else report.objective
        assert recorded == history[-1]

    def test_runs_split_where_any_bit_changes(self):
        n_t = 8
        which = [0, 1, 1, 2, 2, 2, 0, 1]
        problem = switching_problem(3, which)
        grid = GridSpec([-2.0, -2.0], [2.0, 2.0], (11, 11), n_t, 0.01 * n_t)
        assert _Runs(problem, grid).bounds == [0, 1, 3, 6, 7, 8]


class TestProblemReads:
    """A grid solve reads drift0, diffusion and base_cost once per time
    node in its pre-pass, and then once per run of bit-identical nodes in
    each of its passes."""

    @pytest.mark.parametrize(
        "make, solve_reads, oracle_reads",
        [
            # 400 nodes in 3 runs, the obstacle window being nodes 120..240:
            # 400 + 3 passes x 3 runs, and 400 + 2 passes x 3 runs.
            (small_bundled_obstacle, 409, 406),
            # Every node its own run: 400 + 3 x 400, and 400 + 2 x 400.
            (time_varying_obstacle, 1600, 1200),
        ],
        ids=["obstacle", "every-node"],
    )
    def test_each_callable_is_read_once_per_node_and_once_per_run(
        self, make, solve_reads, oracle_reads
    ):
        problem, grid = make()
        problem, reads = counting_reads(problem)
        result = fbsm_grid(problem, grid, max_iters=2, tol=0.0)
        assert reads == dict.fromkeys(reads, solve_reads)
        reads.update(dict.fromkeys(reads, 0))
        sweep_pmp_residual(problem, grid, result.control)
        assert reads == dict.fromkeys(reads, oracle_reads)

    @pytest.mark.parametrize(
        "bad, match",
        [
            ("drift0", r"drift0\[0\] varies across the state"),
            ("diffusion", r"diffusion D\[1\]\[1\] must be nonnegative"),
            ("asymmetric", OFF_DIAGONAL),
        ],
    )
    def test_model_error_at_the_last_node_comes_before_the_first_step(
        self, bad, match, monkeypatch
    ):
        grid = GridSpec([-2.0, -2.0], [2.0, 2.0], (11, 11), 20, 0.2)
        last = grid.times()[-2]
        problem = double_integrator_problem()
        drift0, diffusion = problem.drift0, problem.diffusion
        if bad == "drift0":
            problem = dataclasses.replace(
                problem,
                drift0=lambda t, S: [S[0] ** 2, S[0]] if t == last else drift0(t, S),
            )
        else:
            wrong = [[1.0, 0.0], [0.0, -1.0]] if bad == "diffusion" else [[1.0, 0.5], [0.0, 1.0]]
            problem = dataclasses.replace(
                problem, diffusion=lambda t, S: wrong if t == last else diffusion(t, S)
            )
        steps = []
        monkeypatch.setattr(gridpde, "fp_step", lambda *args, **kwargs: steps.append(args))
        with pytest.raises(ProblemError, match=match):
            fbsm_grid(problem, grid, max_iters=1)
        assert steps == []


class TestChainMonteCarlo:
    """Under the stability bound, I + dt L_u is the transition matrix of a
    finite-state Markov chain, and the recorded J is that chain's expected
    cost: a Monte Carlo run of the chain estimates J without bias, with no
    discretization gap. A running cost charged at the right endpoint of
    each step, in both passes, puts this problem's J 18 and 37 standard
    errors away."""

    @pytest.mark.parametrize(
        "shape, n_t, sweeps",
        [((11, 11), 40, 2), ((9, 13), 30, 3)],
        ids=["forward-recorded", "backward-recorded"],
    )
    def test_recorded_objective_is_the_chain_expected_cost(self, shape, n_t, sweeps):
        problem = random_quadratic_problem(58)
        grid = GridSpec([-2.0, -2.0], [2.0, 2.0], shape, n_t, 0.01 * n_t)
        result = fbsm_grid(problem, grid, max_iters=sweeps, tol=0.0)
        mean, se = chain_monte_carlo(problem, grid, result.control, 20000, seed=1)
        assert abs(mean - result.objective_history[-1]) <= 4.0 * se


def random_generator(shape, seed, dt=0.1):
    """A generator on a random box, on a grid of one step dt, with random
    drift and diagonal diffusion.

    The diffusion is a random positive diagonal matrix times a positive
    scalar field, the grid model's form; about a fifth of the drift
    entries are exactly zero, so both upwind sides and the no-drift case
    all occur. The control drives axis 0, whose drift the model keeps
    constant in x: it is drawn per memory node and broadcast over x.
    """
    rng = np.random.default_rng(seed)
    d = len(shape)
    lower = rng.uniform(-2.0, 0.0, d)
    grid = GridSpec(lower, lower + rng.uniform(0.5, 3.0, d), shape, 1, dt)
    per_memory = (1,) + tuple(shape[1:])
    drift = [rng.standard_normal(per_memory) * 3.0]
    drift += [rng.standard_normal(shape) * 3.0 for _ in range(d - 1)]
    for b in drift:
        b[rng.random(b.shape) < 0.2] = 0.0
    drift[0] = np.broadcast_to(drift[0], shape)
    variance = rng.uniform(0.1, 3.0, d)
    scale = rng.uniform(0.5, 1.5, shape)
    diffusion = [[variance[i] * scale if i == j else 0.0 for j in range(d)] for i in range(d)]
    problem = GridProblem(
        d_x=1, d_z=d - 1,
        b_matrix=np.eye(d, 1), r_diag=[1.0],
        drift0=lambda t, S: drift,
        base_cost=lambda t, S: np.zeros_like(S[0]),
        diffusion=lambda t, S: diffusion,
        terminal_cost=lambda S: np.zeros_like(S[0]),
        initial_density=Gaussian(np.zeros(d), np.eye(d)),
    )
    gen = build_generator(_Stage(problem, grid, 0.0), np.zeros(tuple(shape[1:]) + (1,)))
    return gen, rng


def assert_stability_bound_is_exact(gen):
    """At dt = STABILITY_FRACTION / max(-diag), check_stability passes and
    I + dt L_u is the transition matrix of a Markov chain, the exact chain
    that the sweeps' descent rests on; at 1.01 dt check_stability raises,
    naming the binding cell argmin(diag)."""
    dt = STABILITY_FRACTION / -float(gen.diag.min())
    gen.check_stability(dt)
    step = sparse.identity(gen.diag.size) + dt * to_sparse(gen)
    assert step.min() >= 0.0
    assert np.all(np.abs(np.asarray(step.sum(axis=1)).ravel() - 1.0) <= 1e-12)
    cell = tuple(int(k) for k in np.unravel_index(np.argmin(gen.diag), gen.diag.shape))
    with pytest.raises(StabilityError, match=re.escape(f"binding cell {cell},")):
        gen.check_stability(1.01 * dt)


grid_shapes = st.lists(st.integers(3, 9), min_size=1, max_size=3).map(tuple)
seeds = st.integers(0, 2**32 - 1)


class TestStencilProperties:
    """Slice-add stencils against the assembled matrix and plain numpy."""

    @settings(max_examples=60, deadline=None)
    @given(shape=grid_shapes, seed=seeds)
    def test_apply_and_adjoint_match_sparse_matrix(self, shape, seed):
        gen, rng = random_generator(shape, seed)
        mat = to_sparse(gen)
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
        mat = to_sparse(gen)
        row_sums = np.asarray(mat.sum(axis=1)).ravel()
        row_scale = np.asarray(abs(mat).sum(axis=1)).ravel()
        assert np.all(np.abs(row_sums) <= 1e-12 * row_scale)
        assert np.all(np.abs(gen.apply(np.ones(shape))).ravel() <= 1e-12 * row_scale)

    @settings(max_examples=60, deadline=None)
    @given(shape=grid_shapes, seed=seeds)
    def test_step_at_the_stability_bound_is_a_stochastic_matrix(self, shape, seed):
        gen, _ = random_generator(shape, seed)
        assert_stability_bound_is_exact(gen)

    @pytest.mark.parametrize("u", [0.0, 12.0, -12.0])
    def test_bundled_stage_at_its_stability_bound(self, u):
        # At |u| = 12 (the control bound) the bundled 101x101 stage's
        # outflow before the reflecting closure peaks at 0.8056 / dt in
        # corner (0, 0), above max(-diag) = 0.8046 / dt at cell (1, 1): a
        # rule on that outflow refuses the largest step the diagonal allows.
        cfg = parse_config(json.loads(bundled_config_path("obstacle").read_text()))
        problem, grid = cfg.grid_problem, cfg.grid
        u_slice = np.full(grid.memory_shape(problem.d_x) + (problem.d_u,), u)
        assert_stability_bound_is_exact(build_generator(_Stage(problem, grid, 0.0), u_slice))

    @settings(max_examples=60, deadline=None)
    @given(shape=grid_shapes, seed=seeds)
    def test_fp_step_conserves_mass(self, shape, seed):
        gen, rng = random_generator(shape, seed)
        # A step this short keeps q = p + dt L'p positive for p in [1, 2],
        # so nothing is clamped and the drift is rounding only.
        dt = 0.1 / float(abs(to_sparse(gen)).sum(axis=0).max())
        # the same generator on a grid that steps by dt
        gen, rng = random_generator(shape, seed, dt)
        p = rng.uniform(1.0, 2.0, shape)
        p /= p.sum() * gen.grid.cell_volume
        log = MassLog()
        fp_step(p, gen, log)
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
        for arr in (*grid.mesh(), *grid.axes, grid.spacing, grid.lower, grid.upper):
            with pytest.raises(ValueError):
                arr[(0,) * arr.ndim] = 1.0
        assert grid.mesh() is grid.mesh()
