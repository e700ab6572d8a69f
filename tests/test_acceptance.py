"""Acceptance tests for the bundled configurations and headline guarantees.

The two bundled configurations are each solved once per session and the
results are shared across tests; every test states its tolerance
explicitly. Two tests are expected failures: they pin behaviors that no
implementation of this explicit scheme on the bundled domain can
deliver, for reasons given in their xfail annotations, and each is
paired with a passing test of the behavior that does hold.
"""

import json
import time
from math import erf, sqrt
from types import SimpleNamespace

import numpy as np
import pytest
from scipy.integrate import quad

from fbsweep.config import (
    bundled_config_path,
    parse_config,
    simulation_cost,
    simulation_dynamics,
)
from fbsweep.core import Gaussian, GridSpec, LqgProblem, as_time_fn
from fbsweep.gridpde import (
    QuadraticControl,
    build_generator,
    fbsm_grid,
    quadratic_grid_problem,
)
from fbsweep.lqg import (
    _backward_riccati,
    _Coefficients,
    _riccati_increment,
    fbsm_lqg,
    lqg_objective,
)
from fbsweep.sdesim import GridControlLaw, estimate_objective, simulate_paths
from fbsweep.verify import (
    conjugacy_residual,
    lemma1_check,
    lqg_grid_crosscheck,
    sweep_pmp_residual,
)


class ZeroLaw:
    """Open-loop zero control for baseline ensembles."""

    def evaluate_memory(self, t, z):
        return np.zeros((z.shape[0], 1))


@pytest.fixture(scope="module")
def lqg_bundle():
    cfg = parse_config(json.loads(bundled_config_path("lqg").read_text()))
    start = time.perf_counter()
    result = fbsm_lqg(
        cfg.lqg_problem,
        max_iters=cfg.solver.max_iters,
        tol=cfg.solver.tol,
    )
    wall = time.perf_counter() - start
    return SimpleNamespace(cfg=cfg, problem=cfg.lqg_problem, result=result, wall=wall)


@pytest.fixture(scope="module")
def obstacle_bundle():
    cfg = parse_config(json.loads(bundled_config_path("obstacle").read_text()))
    start = time.perf_counter()
    result = fbsm_grid(
        cfg.grid_problem, cfg.grid, max_iters=cfg.solver.max_iters, tol=cfg.solver.tol
    )
    wall = time.perf_counter() - start
    return SimpleNamespace(
        cfg=cfg, problem=cfg.grid_problem, grid=cfg.grid, result=result, wall=wall
    )


@pytest.fixture(scope="module")
def obstacle_ensembles(obstacle_bundle):
    """Path ensembles under the converged and the zero control."""
    b = obstacle_bundle
    law = GridControlLaw(b.result.control.values, b.grid, b.problem.d_x)
    dyn = simulation_dynamics(b.cfg)
    cost = simulation_cost(b.cfg)
    converged = simulate_paths(
        dyn, law, b.grid.horizon, b.grid.dt, 1000, seed=b.cfg.seed, cost=cost
    )
    zero = simulate_paths(
        dyn, ZeroLaw(), b.grid.horizon, b.grid.dt, 1000, seed=b.cfg.seed, cost=cost
    )
    return SimpleNamespace(converged=converged, zero=zero, law=law, dyn=dyn, cost=cost)


def obstacle_occupancy(ensemble):
    """Fraction of (path, step) samples inside the obstacle region."""
    window = (ensemble.times >= 0.3) & (ensemble.times <= 0.6)
    x = ensemble.states[:, :, 0]
    inside = (np.abs(x) >= 0.1) & (np.abs(x) <= 2.0)
    return float(inside[:, window].mean())


class TestLqgBundledRun:
    def test_completes_quickly_and_descends_monotonically(self, lqg_bundle):
        J = np.asarray(lqg_bundle.result.objective_history)
        assert lqg_bundle.wall < 60.0
        slack = 1e-8 * (1.0 + np.abs(J[:-1]))
        assert np.all(J[1:] <= J[:-1] + slack)
        assert abs(J[-1] - J[-2]) <= 1e-6 * (1.0 + abs(J[-1]))

    def test_gain_iterates_converge_and_lambda_stays_positive(self, lqg_bundle):
        result = lqg_bundle.result
        pi_gap = np.max(np.abs(result.pi_iterates[-1] - result.pi_iterates[-2]))
        lam_gap = np.max(
            np.abs(result.lambda_iterates[-1] - result.lambda_iterates[-2])
        )
        assert pi_gap <= 1e-4
        assert lam_gap <= 1e-4
        min_eig = min(
            float(np.linalg.eigvalsh(lam).min())
            for trajectory in result.lambda_iterates
            for lam in trajectory
        )
        assert min_eig > 0.0

    def test_closed_loop_variance_shrinks_and_cost_improves(self, lqg_bundle):
        problem = lqg_bundle.problem
        baseline = fbsm_lqg(problem, max_iters=0, tol=0.0)
        dyn = simulation_dynamics(lqg_bundle.cfg)
        cost = simulation_cost(lqg_bundle.cfg)
        stats = {}
        for name, law in (
            ("baseline", baseline.control_law()),
            ("converged", lqg_bundle.result.control_law()),
        ):
            ensemble = simulate_paths(
                dyn, law, problem.horizon, problem.dt, 100,
                seed=lqg_bundle.cfg.seed, cost=cost,
            )
            mean_cost, _ = estimate_objective(ensemble, cost)
            stats[name] = (
                float(np.var(ensemble.states[:, -1, 0], ddof=1)),
                mean_cost,
            )
        var_base, cost_base = stats["baseline"]
        var_conv, cost_conv = stats["converged"]
        assert np.isfinite(var_conv)
        assert var_conv * 10.0 <= var_base
        assert cost_conv < cost_base


class TestRiccatiStructure:
    def test_pi_reduces_to_psi_under_identity_gain(self, lqg_bundle):
        problem = lqg_bundle.problem
        d_s = problem.d_s
        rng = np.random.default_rng(42)
        worst = 0.0
        for _ in range(100):
            raw = rng.standard_normal((d_s, d_s))
            sym = (raw + raw.T) / 2.0
            t = rng.uniform(0.0, problem.horizon)
            A, B, Q, R = (
                np.atleast_2d(np.asarray(as_time_fn(m)(t), dtype=float))
                for m in (problem.A, problem.B, problem.Q, problem.R)
            )
            M = B @ np.linalg.solve(R, B.T)
            gap = np.eye(d_s) - np.eye(d_s)  # I - K with the identity gain K = I
            diff = np.abs(
                _riccati_increment(A, M, Q, sym, gap) - _riccati_increment(A, M, Q, sym)
            ).max()
            worst = max(worst, float(diff))
        assert worst <= 1e-12

    def test_scalar_stationary_value(self):
        problem = LqgProblem(
            A=np.array([[1.0]]), B=np.array([[1.0]]), sigma=np.array([[1.0]]),
            Q=np.array([[1.0]]), R=np.array([[1.0]]), P=np.array([[0.0]]),
            mu0=np.array([0.0]), lambda0=np.array([[1.0]]),
            horizon=20.0, dt=0.01, d_x=1, d_z=0,
        )
        psi = _backward_riccati(problem, _Coefficients(problem), "Psi")
        assert abs(psi[0, 0, 0] - (1.0 + np.sqrt(2.0))) <= 1e-6


class TestDiscreteOperators:
    def test_conjugacy_is_exact_on_random_triples(self):
        grid = GridSpec([-1.0, -1.0], [1.0, 1.0], (15, 11), 10, 1.0)
        quad_control = QuadraticControl(
            r_diag=[1.0],
            b_matrix=[[1.0], [0.0]],
            drift0=lambda t, S: [0.5 * S[1], -0.8 * S[0]],
            base_cost=lambda t, S: np.zeros_like(S[0]),
        )
        problem = quadratic_grid_problem(
            d_x=1, d_z=1, quadratic=quad_control,
            diffusion=lambda t, S: np.array([[1.0, 0.4], [0.4, 0.8]]),
            terminal_cost=lambda S: np.zeros_like(S[0]),
            initial_density=Gaussian(np.zeros(2), np.eye(2)),
            control_lower=[-4.0], control_upper=[4.0],
        )
        rng = np.random.default_rng(123)
        worst = 0.0
        for _ in range(100):
            u = rng.uniform(-4.0, 4.0, size=(11, 1))
            gen = build_generator(problem, grid, 0.0, u)
            w = rng.standard_normal(grid.shape)
            p = rng.uniform(0.0, 2.0, size=grid.shape)
            worst = max(worst, conjugacy_residual(gen, w, p))
        assert worst <= 1e-12


class TestObstacleBundledRun:
    def test_mass_conserved_and_nonnegative(self, obstacle_bundle):
        log = obstacle_bundle.result.mass_log
        assert log.steps > 0
        assert log.max_mass_drift <= 1e-12
        assert log.max_negative_mass <= 1e-6

    def test_completes_and_descends(self, obstacle_bundle):
        J = np.asarray(obstacle_bundle.result.objective_history)
        assert obstacle_bundle.wall < 600.0
        slack = 1e-6 * (1.0 + np.abs(J[:-1]))
        assert np.all(J[1:] <= J[:-1] + slack)
        assert J[-1] < J[0]
        assert obstacle_bundle.result.monotonicity_violations == []


class TestObstacleAvoidance:
    def test_closed_loop_avoids_obstacle_mass(self, obstacle_ensembles):
        occupied = obstacle_occupancy(obstacle_ensembles.converged)
        baseline = obstacle_occupancy(obstacle_ensembles.zero)
        assert occupied * 5.0 <= baseline

    @pytest.mark.xfail(
        strict=True,
        reason=(
            "unattainable for these dynamics: with dx = u dt + dw observed "
            "through dy = x dt + dnu, the conditional variance of x given "
            "the observation path obeys dP/dt = 1 - P^2 independently of "
            "the control, so P(0.45) = tanh(0.45 + atanh(0.01)) ~ 0.43 and "
            "even a perfectly centred conditional Gaussian puts only ~12% "
            "of mass in |x| < 0.1; the converged control instead evacuates "
            "the density beyond the outer band edge"
        ),
    )
    def test_mass_concentrates_in_central_channel(self, obstacle_bundle):
        frac = channel_fraction(obstacle_bundle, lambda x: np.abs(x) < 0.1)
        assert frac >= 0.60

    def test_mass_evacuates_beyond_outer_edge(self, obstacle_bundle):
        outward = channel_fraction(obstacle_bundle, lambda x: np.abs(x) > 2.0)
        inside_band = channel_fraction(
            obstacle_bundle, lambda x: (np.abs(x) >= 0.1) & (np.abs(x) <= 2.0)
        )
        assert outward >= 0.60
        assert inside_band <= 0.05


def channel_fraction(bundle, region):
    """Mass fraction of the mid-window density whose x lies in region."""
    grid = bundle.grid
    index = int(round(0.45 / grid.dt))
    density = bundle.result.density.values[index]
    x_axis = grid.axes()[0]
    selected = density[region(x_axis), :].sum()
    return float(selected / density.sum())


class TestIdentities:
    def test_hamiltonian_difference_residual_shrinks_under_refinement(self):
        doc = json.loads(bundled_config_path("obstacle").read_text())
        residuals = []
        for nodes, n_t in ((51, 450), (101, 900)):
            doc["domain"] = {
                "lower": [-3.0, -3.0], "upper": [3.0, 3.0],
                "shape": [nodes, nodes], "n_t": n_t, "horizon": 1.0,
            }
            cfg = parse_config(doc)
            first = fbsm_grid(cfg.grid_problem, cfg.grid, max_iters=1, tol=0.0)
            u1 = first.control.values
            report = lemma1_check(
                cfg.grid_problem, cfg.grid, u1, np.zeros_like(u1),
                pairing="continuous",
            )
            residuals.append(report.residual)
        assert residuals[0] >= 1.8 * residuals[1]

    def test_converged_control_is_stationary(self, obstacle_bundle):
        b = obstacle_bundle
        report = sweep_pmp_residual(b.problem, b.grid, b.result.control)
        J = b.result.objective_history[-1]
        assert report.weighted_max <= 1e-4 * (1.0 + abs(J))


class TestBackendCrosscheck:
    def test_backends_agree_and_gap_shrinks(self):
        problem = LqgProblem(
            A=np.array([[0.0, 0.0], [1.0, 0.0]]),
            B=np.array([[1.0], [0.0]]),
            sigma=np.diag([0.5, 0.3]),
            Q=np.diag([1.0, 0.0]),
            R=np.array([[1.0]]),
            P=np.zeros((2, 2)),
            mu0=np.zeros(2),
            lambda0=np.diag([16.0, 16.0]),
            horizon=1.0, dt=0.01, d_x=1, d_z=1,
        )
        gaps = []
        for nodes, n_t in ((51, 200), (101, 400), (201, 1500)):
            grid = GridSpec([-3.0, -3.0], [3.0, 3.0], (nodes, nodes), n_t, 1.0)
            report = lqg_grid_crosscheck(
                problem, grid, control_lower=[-6.0], control_upper=[6.0]
            )
            assert report.lqg_converged
            gaps.append(report.gap)
        assert gaps[1] <= 0.05
        assert gaps[0] > gaps[1] > gaps[2]


class TestObjectiveConsistency:
    def test_riccati_objective_matches_monte_carlo(self, lqg_bundle):
        problem = lqg_bundle.problem
        analytic = lqg_objective(problem, lqg_bundle.result.gains)
        dyn = simulation_dynamics(lqg_bundle.cfg)
        cost = simulation_cost(lqg_bundle.cfg)
        # Simulate at a quarter of the solver step so the path
        # integrator's first-order weak bias stays below the Monte Carlo
        # resolution being tested.
        ensemble = simulate_paths(
            dyn, lqg_bundle.result.control_law(), problem.horizon,
            problem.dt / 4.0, 10000, seed=lqg_bundle.cfg.seed, cost=cost,
        )
        mean, stderr = estimate_objective(ensemble, cost)
        assert abs(mean - analytic) <= 3.0 * stderr

    @pytest.mark.xfail(
        strict=True,
        reason=(
            "the bundled grid pins a reflecting box on [-3,3]^2 and a "
            "first-order upwind scheme: free-space paths overshoot the box "
            "(95% exceed |x|=3 under the converged control) while the grid "
            "density piles against the wall, and the upwind plus "
            "cell-quadrature bias is O(spacing) times the band strength; "
            "each effect is an order of magnitude larger than the Monte "
            "Carlo standard error at 10^4 paths (measured gap ~26 against "
            "a 3-standard-error budget of ~1.2)"
        ),
    )
    def test_grid_objective_matches_monte_carlo(
        self, obstacle_bundle, obstacle_ensembles
    ):
        b = obstacle_bundle
        ensemble = simulate_paths(
            obstacle_ensembles.dyn, obstacle_ensembles.law, b.grid.horizon,
            b.grid.dt, 10000, seed=b.cfg.seed, cost=obstacle_ensembles.cost,
        )
        mean, stderr = estimate_objective(ensemble, obstacle_ensembles.cost)
        assert abs(mean - b.result.objective_history[-1]) <= 3.0 * stderr

    def test_estimators_agree_on_closed_form_case(
        self, obstacle_bundle, obstacle_ensembles
    ):
        """Under zero control x is exact Brownian motion, so the running
        cost has a closed form; the path estimator matches it within
        Monte Carlo error, and the grid quadrature lands within the 2%
        cell-resolution bias of its 0.06 spacing."""
        b = obstacle_bundle

        def band_probability(t):
            std = sqrt(0.01 + t)
            normal_cdf = lambda a: 0.5 * (1.0 + erf(a / (std * sqrt(2.0))))
            return 2.0 * (normal_cdf(2.0) - normal_cdf(0.1))

        band_cost, _ = quad(lambda t: 1000.0 * band_probability(t), 0.3, 0.6)
        closed_form = band_cost + 10.0 * (0.01 + 1.0)

        ensemble = simulate_paths(
            obstacle_ensembles.dyn, ZeroLaw(), b.grid.horizon, b.grid.dt,
            10000, seed=b.cfg.seed, cost=obstacle_ensembles.cost,
        )
        mean, stderr = estimate_objective(ensemble, obstacle_ensembles.cost)
        assert abs(mean - closed_form) <= 3.0 * stderr
        grid_value = b.result.objective_history[0]
        assert abs(grid_value - closed_form) <= 0.02 * closed_form
