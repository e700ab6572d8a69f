"""Tests for the identity-checking oracles."""

import dataclasses
import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fbsweep.config import bundled_config_path, parse_config
from fbsweep.core import Gaussian, GridSpec, LqgProblem, ProblemError, _descent_violations
from fbsweep.gridpde import (
    MONOTONICITY_SLACK as GRID_SLACK,
    GridProblem,
    MassLog,
    _backward_pass,
    _forward_pass,
    _initial_density_slice,
    _Runs,
    _Stage,
    build_generator,
    fbsm_grid,
)
from fbsweep.lqg import MONOTONICITY_SLACK as LQG_SLACK, fbsm_lqg
from fbsweep.verify import sweep_pmp_residual
from grid_problems import (
    conjugacy_residual,
    constant_diffusion,
    grid_problem_from_lqg,
    lemma1_check,
    lqg_grid_crosscheck,
    pmp_residual,
    random_quadratic_problem,
)
from test_lqg import random_lqg_problem


def double_integrator_problem(bound=6.0, obstacle=0.0):
    def base_cost(t, S):
        cost = S[0] ** 2
        if obstacle:
            band = (np.abs(S[0]) >= 0.5) & (np.abs(S[0]) <= 2.0)
            cost = cost + np.where((0.1 <= t) & (t <= 0.3) & band, obstacle, 0.0)
        return cost

    return GridProblem(
        d_x=1, d_z=1,
        b_matrix=[[1.0], [0.0]],
        r_diag=[1.0],
        drift0=lambda t, S: [np.zeros_like(S[0]), S[0]],
        base_cost=base_cost,
        diffusion=constant_diffusion(np.eye(2)),
        terminal_cost=lambda S: S[0] ** 2,
        initial_density=Gaussian(np.zeros(2), 0.25 * np.eye(2)),
        control_lower=[-bound], control_upper=[bound],
    )


def small_grid(n=25, n_t=40, horizon=0.4):
    return GridSpec([-3.0, -3.0], [3.0, 3.0], (n, n), n_t, horizon)


def small_bundled_obstacle():
    """The bundled obstacle problem on a 41x41 grid with 400 steps."""
    doc = json.loads(bundled_config_path("obstacle").read_text())
    doc["domain"].update(shape=[41, 41], n_t=400)
    cfg = parse_config(doc)
    return cfg.grid_problem, cfg.grid


class TestConjugacyResidual:
    def test_constant_value_function(self):
        # both drifts change sign: the driven one across memory, the
        # undriven one across x
        grid = GridSpec([-1.0, -1.0], [1.0, 1.0], (31, 7), 10, 1.0)
        problem = GridProblem(
            d_x=1, d_z=1,
            b_matrix=[[1.0], [0.0]], r_diag=[1.0],
            drift0=lambda t, S: [np.sin(3 * S[1]), np.sin(3 * S[0])],
            base_cost=lambda t, S: np.zeros_like(S[0]),
            diffusion=constant_diffusion([[0.7, 0.0], [0.0, 0.5]]),
            terminal_cost=lambda S: np.zeros_like(S[0]),
            initial_density=Gaussian(np.zeros(2), np.eye(2)),
            control_lower=[-1.0], control_upper=[1.0],
        )
        gen = build_generator(_Stage(problem, grid, 0.0), np.zeros((7, 1)))
        w = np.full(grid.shape, 4.2)
        p = np.random.default_rng(1).uniform(0, 1, grid.shape)
        assert conjugacy_residual(gen, w, p) <= 1e-12
        assert np.max(np.abs(gen.apply(w))) <= 1e-12


class TestLemma1Check:
    def test_identical_controls_vanish(self):
        problem = double_integrator_problem()
        grid = small_grid()
        u = np.full((grid.n_t, 25, 1), 0.7)
        for pairing in ("continuous", "discrete"):
            report = lemma1_check(problem, grid, u, u, pairing=pairing)
            assert abs(report.lhs) < 1e-12
            assert report.residual < 1e-12

    def test_sweep_iterate_against_zero_control(self):
        problem = double_integrator_problem(obstacle=30.0)
        grid = small_grid()
        result = fbsm_grid(problem, grid, max_iters=1, tol=0.0)
        u_zero = np.zeros((grid.n_t, 25, 1))
        report = lemma1_check(
            problem, grid, result.control, u_zero, pairing="discrete"
        )
        scale = 1.0 + abs(report.lhs) + abs(report.rhs)
        assert report.residual < 1e-9 * scale
        assert report.lhs < 0.0

    def test_random_perturbation_residual_stays_at_rounding(self):
        problem = double_integrator_problem()
        grid = small_grid()
        rng = np.random.default_rng(5)
        u_base = rng.uniform(-0.5, 0.5, size=(grid.n_t, 25, 1))
        u_pert = u_base + rng.uniform(-0.1, 0.1, size=u_base.shape)
        report = lemma1_check(problem, grid, u_pert, u_base, pairing="discrete")
        assert abs(report.lhs) > 1e-6
        assert report.residual < 1e-9 * (1.0 + abs(report.lhs))

    def test_continuous_pairing_residual_refines_away(self):
        problem = double_integrator_problem()
        residuals = []
        for n, n_t in ((13, 20), (25, 40)):
            grid = GridSpec([-3.0, -3.0], [3.0, 3.0], (n, n), n_t, 0.4)
            z_nodes = grid.shape[1]
            u = np.full((grid.n_t, z_nodes, 1), 0.5)
            u_prime = np.zeros_like(u)
            report = lemma1_check(problem, grid, u, u_prime)
            residuals.append(report.residual)
        assert residuals[1] < residuals[0]

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n_t=st.integers(50, 70))
    def test_discrete_pairing_is_exact_on_random_problems(self, seed, n_t):
        """The discrete identity holds at rounding level for any problem of
        the model and any two in-bounds controls (the continuous pairing
        reads about 1e-2 on such draws)."""
        problem = random_quadratic_problem(seed)
        grid = GridSpec([-2.0, -2.0], [2.0, 2.0], (11, 11), n_t, 0.01 * n_t)
        lo, hi = problem.control_lower, problem.control_upper
        rng = np.random.default_rng([seed, 1])
        u, u_prime = (rng.uniform(lo, hi, size=(n_t, 11, 1)) for _ in range(2))
        report = lemma1_check(problem, grid, u, u_prime, pairing="discrete")
        assert report.residual <= 1e-9 * (1.0 + abs(report.lhs))

    def test_holds_one_field(self):
        problem, grid = small_bundled_obstacle()
        u = np.zeros((grid.n_t, 41, 1))
        u_prime = fbsm_grid(problem, grid, max_iters=1, tol=0.0).control
        field = (grid.n_t + 1) * 41 * 41 * 8
        tracemalloc.start()
        try:
            report = lemma1_check(problem, grid, u, u_prime, pairing="discrete")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert report.residual <= 1e-9 * (1.0 + abs(report.lhs))
        assert peak <= 1.5 * field


class TestInitialDensityChecks:
    """The oracles solve the density with the sweep's own forward pass, so
    they reject the initial densities the sweep rejects."""

    @pytest.mark.parametrize("bad", [-1e-3, np.nan], ids=["negative", "nan"])
    def test_oracles_reject_invalid_initial_density(self, bad):
        class BadDensity:
            def density(self, points):
                p = np.exp(-(points**2).sum(axis=-1))
                p[0, 0] = bad
                return p

        problem = dataclasses.replace(double_integrator_problem(), initial_density=BadDensity())
        grid = small_grid(n=11, n_t=10, horizon=0.1)
        u = np.zeros((grid.n_t, 11, 1))
        with pytest.raises(ProblemError, match="initial density"):
            lemma1_check(problem, grid, u, u)
        with pytest.raises(ProblemError, match="initial density"):
            sweep_pmp_residual(problem, grid, u)


class TestMonotonicityCheck:
    """The descent rule, core._descent_violations, that each solver
    records its violations by and `verify` judges a stored history by."""

    def test_descending_history_passes(self):
        violations, worst = _descent_violations(np.array([5.0, 3.0, 2.5, 2.5000001]), GRID_SLACK)
        assert not violations
        assert worst == 0.0

    def test_violation_located(self):
        violations, worst = _descent_violations(np.array([5.0, 3.0, 3.1, 2.0]), GRID_SLACK)
        assert violations == [(2, 3.0, 3.1)]
        assert worst > 0.0

    def test_accepts_solver_result(self):
        problem = double_integrator_problem()
        grid = small_grid(n=17, n_t=20, horizon=0.2)
        result = fbsm_grid(problem, grid, max_iters=4, tol=0.0)
        assert result.monotonicity_violations == []

    @pytest.mark.parametrize("seed", [5, 11, 27])
    def test_lqg_result_is_judged_by_the_lqg_slack(self, seed):
        """fbsm_lqg records a rise beyond lqg.MONOTONICITY_SLACK (1e-8) as a
        violation, by the rule at that slack, although each rise is within
        the grid's 1e-6."""
        result = fbsm_lqg(random_lqg_problem(seed), max_iters=12, tol=0.0)
        history = result.objective_history
        assert result.monotonicity_violations
        assert result.monotonicity_violations == _descent_violations(history, LQG_SLACK)[0]
        assert _descent_violations(history, GRID_SLACK)[0] == []


def fresh_fields(problem, grid, u):
    """The density and the value under u, each from a fresh pass."""
    p0 = _initial_density_slice(problem, grid)
    p, w = (np.empty((grid.n_t + 1,) + grid.shape) for _ in range(2))
    runs = _Runs(problem, grid)
    _forward_pass(problem, grid, p0, u, runs, MassLog(), p)
    _backward_pass(problem, grid, u, runs, out=w)
    return p, w


def same_report(a, b) -> bool:
    """The streamed oracle keeps only the weighted maximum, so that is what
    it and the full-field reference are compared by, bit for bit."""
    return a.weighted_max == b.weighted_max


class TestPmpResidual:
    def test_converged_run_is_stationary(self):
        problem = double_integrator_problem()
        grid = small_grid(n=21, n_t=40, horizon=0.4)
        result = fbsm_grid(problem, grid, max_iters=60, tol=1e-10)
        assert result.converged
        report = pmp_residual(
            problem, grid, result.control, *fresh_fields(problem, grid, result.control)
        )
        j_final = result.objective_history[-1]
        assert report.weighted_max <= 1e-6 * (1.0 + abs(j_final))
        assert same_report(report, sweep_pmp_residual(problem, grid, result.control))

    def test_zero_control_not_stationary(self):
        problem = double_integrator_problem(obstacle=30.0)
        grid = small_grid()
        result = fbsm_grid(problem, grid, max_iters=1, tol=0.0)
        u_zero = np.zeros((grid.n_t, 25, 1))
        # the density under u_zero, against the first backward sweep's value
        p, _ = fresh_fields(problem, grid, u_zero)
        report = pmp_residual(problem, grid, u_zero, p, result.value)
        assert report.weighted_max > 1e-3

    @pytest.mark.parametrize("sweeps", [0, 1, 2, 3])
    def test_sweep_result_matches_its_bare_control(self, sweeps):
        """Stepping the value alongside gives the bits of two fresh passes."""
        problem = double_integrator_problem(obstacle=30.0)
        grid = small_grid()
        result = fbsm_grid(problem, grid, max_iters=sweeps, tol=0.0)
        fresh = sweep_pmp_residual(problem, grid, result.control)
        assert same_report(fresh, pmp_residual(
            problem, grid, result.control, *fresh_fields(problem, grid, result.control)
        ))

    def test_bare_control_holds_one_field(self):
        problem, grid = small_bundled_obstacle()
        u = fbsm_grid(problem, grid, max_iters=1, tol=0.0).control
        field = (grid.n_t + 1) * 41 * 41 * 8
        tracemalloc.start()
        try:
            report = sweep_pmp_residual(problem, grid, u)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert report.weighted_max > 0.0
        assert peak <= 1.5 * field

    def test_zero_cost_residual_vanishes(self):
        problem = GridProblem(
            d_x=1, d_z=1,
            b_matrix=[[1.0], [0.0]], r_diag=[1.0],
            drift0=lambda t, S: [np.zeros_like(S[0]), S[0]],
            base_cost=lambda t, S: np.zeros_like(S[0]),
            diffusion=constant_diffusion(np.eye(2)),
            terminal_cost=lambda S: np.zeros_like(S[0]),
            initial_density=Gaussian(np.zeros(2), 0.25 * np.eye(2)),
            control_lower=[-2.0], control_upper=[2.0],
        )
        grid = small_grid(n=15, n_t=10, horizon=0.1)
        result = fbsm_grid(problem, grid, max_iters=2, tol=0.0)
        _, w = fresh_fields(problem, grid, result.control)
        report = pmp_residual(problem, grid, result.control, result.density, w)
        assert report.weighted_max == 0.0
        assert np.all(report.residual_field == 0.0)
        assert sweep_pmp_residual(problem, grid, result.control).weighted_max == 0.0


def crosscheck_problem(horizon=0.5, q=1.0, p=0.0):
    return LqgProblem(
        A=np.array([[0.0, 0.0], [1.0, 0.0]]),
        B=np.array([[1.0], [0.0]]),
        sigma=np.diag([0.5, 0.3]),
        Q=np.diag([q, 0.0]),
        R=np.array([[1.0]]),
        P=p * np.diag([1.0, 0.0]),
        mu0=np.zeros(2),
        lambda0=np.diag([16.0, 16.0]),
        horizon=horizon,
        dt=0.01,
        d_x=1,
        d_z=1,
    )


class TestCrosscheck:
    def test_zero_cost_agrees_exactly(self):
        problem = crosscheck_problem(q=0.0, p=0.0)
        grid = GridSpec([-3.0, -3.0], [3.0, 3.0], (21, 21), 50, 0.5)
        report = lqg_grid_crosscheck(
            problem, grid, control_lower=[-6.0], control_upper=[6.0],
            lqg_max_iters=10, grid_max_iters=4, grid_tol=0.0,
        )
        assert abs(report.j_lqg) < 1e-12
        assert abs(report.j_grid) < 1e-12
        assert report.gap < 1e-12

    def test_coverage_precondition(self):
        problem = crosscheck_problem()
        grid = GridSpec([-0.5, -0.5], [0.5, 0.5], (21, 21), 50, 0.5)
        with pytest.raises(ProblemError, match="standard deviations"):
            lqg_grid_crosscheck(
                problem, grid, control_lower=[-6.0], control_upper=[6.0]
            )

    def test_nondiagonal_r_rejected(self):
        problem = LqgProblem(
            A=np.zeros((2, 2)),
            B=np.eye(2),
            sigma=np.eye(2),
            Q=np.eye(2),
            R=np.array([[1.0, 0.2], [0.2, 1.0]]),
            P=np.zeros((2, 2)),
            mu0=np.zeros(2),
            lambda0=np.eye(2),
            horizon=1.0,
            dt=0.01,
            d_x=1,
            d_z=1,
        )
        with pytest.raises(ProblemError, match="diagonal"):
            grid_problem_from_lqg(problem)

    def test_objectives_close_on_coarse_grid(self):
        problem = crosscheck_problem()
        grid = GridSpec([-3.0, -3.0], [3.0, 3.0], (41, 41), 50, 0.5)
        report = lqg_grid_crosscheck(
            problem, grid, control_lower=[-6.0], control_upper=[6.0],
            lqg_max_iters=100, grid_max_iters=30, tol=1e-10, grid_tol=1e-9,
        )
        assert report.coverage_margin >= 4.0
        assert report.gap < 0.15
        assert report.j_grid > 0.0
