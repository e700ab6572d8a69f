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

from fbsweep.cli import main
from fbsweep.config import (
    bundled_config_path,
    parse_config,
    simulation_cost,
    simulation_dynamics,
)
from fbsweep.core import Gaussian, GridSpec, LqgProblem
from fbsweep.gridpde import (
    GridProblem,
    build_generator,
    fbsm_grid,
)
from fbsweep.lqg import (
    LqgControlLaw,
    _backward_riccati,
    _riccati_increment,
    fbsm_lqg,
    lqg_objective,
)
from fbsweep.sdesim import GridControlLaw, estimate_objective, simulate_paths
from fbsweep.verify import sweep_pmp_residual
from grid_problems import conjugacy_residual, lemma1_check, lqg_grid_crosscheck


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
    law = GridControlLaw(b.result.control, b.grid, b.problem.d_x)
    dyn = simulation_dynamics(b.cfg)
    cost = simulation_cost(b.cfg)
    converged = simulate_paths(
        dyn, law, b.grid.horizon, b.grid.dt, 1000, seed=b.cfg.seed, cost=cost, history=True
    )
    zero = simulate_paths(
        dyn, ZeroLaw(), b.grid.horizon, b.grid.dt, 1000, seed=b.cfg.seed, cost=cost,
        history=True,
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
        # each gap is the change at its trajectory's last refresh; the run
        # ends on a Lambda sweep, so the Pi gap is from the sweep before
        result = lqg_bundle.result
        assert result.iterations % 2 == 0
        assert 0.0 < result.pi_gap <= 1e-4
        assert 0.0 < result.lambda_gap <= 1e-4
        assert result.min_lambda_eigenvalue > 0.0

    def test_run_ending_on_a_pi_sweep_reports_its_last_lambda_refresh(
        self, tmp_path
    ):
        # At tol 1e-3 the bundled run stops after 35 sweeps, on a Pi sweep:
        # its Lambda predates its Pi, so the closed form has no value, and
        # the Lambda gap is that of sweep 34, not zero.
        out = tmp_path / "run"
        argv = ["run-lqg", "--config", str(bundled_config_path("lqg")),
                "--tol", "1e-3", "--out", str(out)]
        assert main(argv) == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["iterations"] == 35
        assert summary["analytic_objective"] is None
        assert summary["lambda_gap"] == pytest.approx(0.1347, abs=1e-4)
        assert summary["pi_gap"] > 0.0

    def test_closed_loop_variance_shrinks_and_cost_improves(self, lqg_bundle):
        problem = lqg_bundle.problem
        baseline = fbsm_lqg(problem, max_iters=0, tol=0.0)
        dyn = simulation_dynamics(lqg_bundle.cfg)
        cost = simulation_cost(lqg_bundle.cfg)
        stats = {}
        for name, law in (
            ("baseline", LqgControlLaw(baseline.gains, problem)),
            ("converged", LqgControlLaw(lqg_bundle.result.gains, problem)),
        ):
            ensemble = simulate_paths(
                dyn, law, problem.horizon, problem.dt, 100,
                seed=lqg_bundle.cfg.seed, cost=cost, history=True,
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
            A, B, _, Q, R = problem.coefficients(t)
            M = B @ np.linalg.solve(R, B.T)
            gap = np.eye(d_s) - np.eye(d_s)  # I - K with the identity gain K = I
            diff = np.abs(
                _riccati_increment(A, M, Q, sym, gap) - _riccati_increment(A, M, Q, sym)
            ).max()
            worst = max(worst, float(diff))
        assert worst <= 1e-12

    def test_scalar_stationary_value(self):
        # the scalar problem a = b = q = r = 1 as the state block of a 1+1
        # problem whose memory is decoupled and costless
        problem = LqgProblem(
            A=np.diag([1.0, 0.0]), B=np.array([[1.0], [0.0]]), sigma=np.eye(2),
            Q=np.diag([1.0, 0.0]), R=np.array([[1.0]]), P=np.zeros((2, 2)),
            mu0=np.zeros(2), lambda0=np.eye(2),
            horizon=20.0, dt=0.01, d_x=1, d_z=1,
        )
        psi = _backward_riccati(problem, "Psi")
        assert abs(psi[0, 0, 0] - (1.0 + np.sqrt(2.0))) <= 1e-6


class TestDiscreteOperators:
    def test_conjugacy_is_exact_on_random_triples(self):
        grid = GridSpec([-1.0, -1.0], [1.0, 1.0], (15, 11), 10, 1.0)
        problem = GridProblem(
            d_x=1, d_z=1,
            b_matrix=[[1.0], [0.0]],
            r_diag=[1.0],
            drift0=lambda t, S: [0.5 * S[1], -0.8 * S[0]],
            base_cost=lambda t, S: np.zeros_like(S[0]),
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
    density = bundle.result.density[index]
    x_axis = grid.axes[0]
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
            u1 = first.control
            report = lemma1_check(
                cfg.grid_problem, cfg.grid, u1, np.zeros_like(u1),
                pairing="continuous",
            )
            residuals.append(report.residual)
        assert residuals[0] >= 1.8 * residuals[1]

    def test_lqg_objective_gap_is_second_order_in_dt(self):
        """The bundled lqg matrices at horizon 2, solved to tol 1e-11 and
        ended on a Lambda sweep under the final Pi: the closed-form
        objective and the recorded J differ by discretization error, which
        shrinks about 4x per halving of dt (7.28e-4, 1.83e-4, 4.60e-5)."""
        doc = json.loads(bundled_config_path("lqg").read_text())
        gaps = []
        for dt in (0.04, 0.02, 0.01):
            problem = parse_config(dict(doc, horizon=2.0, dt=dt)).lqg_problem
            solved = fbsm_lqg(problem, max_iters=400, tol=1e-11)
            assert solved.converged
            # max_iters=0 stops after the initial Lambda sweep under pi0
            final = fbsm_lqg(problem, pi0=solved.gains.pi, max_iters=0)
            gaps.append(lqg_objective(problem, final.gains) - final.objective_history[-1])
        assert gaps[0] > 0.0
        assert gaps[0] >= 3.5 * gaps[1] and gaps[1] >= 3.5 * gaps[2]

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
            dyn, LqgControlLaw(lqg_bundle.result.gains, problem), problem.horizon,
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
