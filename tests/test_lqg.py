"""Tests for the Riccati-sweep solver."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from fbsweep import lqg
from fbsweep.core import (
    DivergenceError,
    LqgProblem,
    ProblemError,
    SingularPrecisionError,
    as_time_fn,
)
from fbsweep.lqg import (
    GainTrajectory,
    LqgControlLaw,
    _backward_riccati,
    _check_finite,
    _closed_loop_objective,
    _Coefficients,
    _expected_cost,
    _forward_mu,
    _half_grid,
    _integrate,
    _lambda_increment,
    _mean_increment,
    _riccati_increment,
    _sym,
    fbsm_lqg,
    inference_gain,
    lqg_objective,
)


# RK4 is the one Riccati integrator; the tests parametrized on it keep
# their [rk4] ids.
RK4 = pytest.mark.parametrize("method", ["rk4"])


def tracking_problem(horizon=10.0, dt=0.01):
    """Unstable scalar state with an integrating noisy-observation memory."""
    return LqgProblem(
        A=np.array([[1.0, 0.0], [1.0, 0.0]]),
        B=np.eye(2),
        sigma=np.eye(2),
        Q=np.diag([1.0, 0.0]),
        R=np.eye(2),
        P=np.zeros((2, 2)),
        mu0=np.zeros(2),
        lambda0=np.eye(2),
        horizon=horizon,
        dt=dt,
        d_x=1,
        d_z=1,
    )


def two_state_problem():
    """Two coupled state coordinates observed through one memory coordinate."""
    return LqgProblem(
        A=np.array([[0.5, 1.0, 0.0], [-1.0, 0.2, 0.0], [1.0, 0.5, -0.3]]),
        B=np.array([[1.0, 0.0], [0.0, 1.0], [0.3, 0.0]]),
        sigma=np.diag([1.0, 0.7, 0.5]),
        Q=np.diag([1.0, 0.5, 0.0]),
        R=np.diag([1.0, 2.0]),
        P=np.diag([0.2, 0.1, 0.0]),
        mu0=np.array([0.5, -0.25, 0.0]),
        lambda0=np.array([[2.0, 0.3, 0.5], [0.3, 1.5, 0.2], [0.5, 0.2, 1.0]]),
        horizon=1.0,
        dt=0.01,
        d_x=2,
        d_z=1,
    )


def scalar_problem(**overrides):
    kwargs = dict(
        A=np.array([[1.0]]),
        B=np.array([[1.0]]),
        sigma=np.array([[1.0]]),
        Q=np.array([[1.0]]),
        R=np.array([[1.0]]),
        P=np.array([[0.0]]),
        mu0=np.array([0.0]),
        lambda0=np.array([[1.0]]),
        horizon=20.0,
        dt=0.01,
        d_x=1,
        d_z=0,
    )
    kwargs.update(overrides)
    return LqgProblem(**kwargs)


def coefficients(prob, t):
    """(A, M = B R^-1 B', Q, sigma sigma') of prob at time t."""
    A, B, Q, R, sig = (
        np.atleast_2d(np.asarray(as_time_fn(m)(t), dtype=float))
        for m in (prob.A, prob.B, prob.Q, prob.R, prob.sigma)
    )
    return A, B @ np.linalg.solve(R, B.T), Q, sig @ sig.T


def psi_increment(prob, t, psi):
    A, M, Q, _ = coefficients(prob, t)
    return _riccati_increment(A, M, Q, psi)


def pi_increment(prob, t, pi, gain):
    A, M, Q, _ = coefficients(prob, t)
    return _riccati_increment(A, M, Q, pi, np.eye(len(gain)) - gain)


def lambda_increment(prob, t, lam, pi):
    A, M, _, SS = coefficients(prob, t)
    mp = M @ pi
    d_x = prob.d_x
    return _lambda_increment(A, SS, mp[:, :d_x], mp[:, d_x:], lam, d_x)


def mean_increment(prob, t, mu, psi):
    A, M, _, _ = coefficients(prob, t)
    return _mean_increment(A, M, psi, mu)


def solve_psi(prob):
    return _backward_riccati(prob, _Coefficients(prob), "Psi")


def solve_mu(prob, psi):
    return _forward_mu(prob, _Coefficients(prob), psi)


class TestInferenceGain:
    def test_diagonal_precision_kills_inference_term(self):
        K = inference_gain(np.eye(2), d_x=1)
        assert np.allclose(K, [[0.0, 0.0], [0.0, 1.0]])

    def test_two_by_two_value(self):
        K = inference_gain(np.array([[2.0, 1.0], [1.0, 1.0]]), d_x=1)
        assert np.allclose(K, [[0.0, -0.5], [0.0, 1.0]])

    @settings(max_examples=40, deadline=None)
    @given(
        d_x=st.sampled_from([1, 2]),
        roots=hnp.arrays(
            np.float64, (5, 4, 4), elements=st.floats(-3.0, 3.0, allow_subnormal=False)
        ),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_conditional_mean_property(self, d_x, roots, seed):
        # K(s - mu) + mu must equal the Gaussian conditional mean of s
        # given the memory block, computed independently from covariances,
        # and a stack of precisions must give the single-matrix gains.
        lams = roots @ np.swapaxes(roots, -1, -2) + 4 * np.eye(4)
        stacked = inference_gain(lams, d_x)
        assert stacked.shape == lams.shape
        rng = np.random.default_rng(seed)
        for lam, K_slice in zip(lams, stacked):
            K = inference_gain(lam, d_x)
            assert np.array_equal(K_slice, K)
            cov = np.linalg.inv(lam)
            gain_cov = cov[:d_x, d_x:] @ np.linalg.inv(cov[d_x:, d_x:])
            mu = rng.normal(size=4)
            s = rng.normal(size=4)
            expect_x = mu[:d_x] + gain_cov @ (s[d_x:] - mu[d_x:])
            got = K @ (s - mu) + mu
            assert np.allclose(got[:d_x], expect_x, atol=1e-12)
            assert np.allclose(got[d_x:], s[d_x:], atol=1e-12)

    def test_singular_state_block(self):
        with pytest.raises(SingularPrecisionError):
            inference_gain(np.array([[0.0, 0.0], [0.0, 1.0]]), d_x=1)

    def test_singular_slice_in_stack(self):
        lams = np.stack([np.eye(3), np.eye(3), np.eye(3)])
        lams[1, :2, :2] = [[1.0, 2.0], [2.0, 4.0]]
        with pytest.raises(SingularPrecisionError):
            inference_gain(lams, d_x=2)

    def test_non_finite_slice_in_stack(self):
        lams = np.stack([np.eye(2), np.eye(2)])
        lams[0, 0, 1] = lams[0, 1, 0] = np.inf
        with pytest.raises(SingularPrecisionError):
            inference_gain(lams, d_x=1)

    def test_dimension_mismatch(self):
        with pytest.raises(ProblemError):
            inference_gain(np.eye(3), d_x=1, d_z=1)


class TestRhsFunctions:
    def test_psi_rhs_at_zero_is_q(self):
        prob = tracking_problem()
        assert np.allclose(psi_increment(prob, 0.0, np.zeros((2, 2))), np.diag([1.0, 0.0]))

    def test_psi_rhs_stationary_root(self):
        prob = scalar_problem()
        root = 1.0 + np.sqrt(2.0)
        assert abs(psi_increment(prob, 0.0, np.array([[root]]))[0, 0]) < 1e-12

    def test_rhs_preserve_symmetry(self):
        prob = tracking_problem()
        rng = np.random.default_rng(11)
        for _ in range(20):
            sym = rng.normal(size=(2, 2))
            sym = sym + sym.T
            pd = sym @ sym.T + 3 * np.eye(2)
            for out in (
                psi_increment(prob, 0.3, sym),
                pi_increment(prob, 0.3, sym, inference_gain(pd, 1)),
                lambda_increment(prob, 0.3, pd, sym),
            ):
                assert np.abs(out - out.T).max() < 1e-10

    def test_pi_rhs_at_zero_is_q(self):
        prob = tracking_problem()
        out = pi_increment(prob, 0.0, np.zeros((2, 2)), np.eye(2))
        assert np.allclose(out, np.diag([1.0, 0.0]))

    def test_pi_rhs_with_identity_gain_recovers_psi_rhs(self):
        prob = tracking_problem()
        rng = np.random.default_rng(5)
        for _ in range(100):
            sym = rng.normal(size=(2, 2))
            sym = sym + sym.T
            diff = pi_increment(prob, 0.7, sym, np.eye(2)) - psi_increment(prob, 0.7, sym)
            assert np.abs(diff).max() <= 1e-12

    def test_pi_rhs_hand_value(self):
        prob = tracking_problem()
        K = inference_gain(np.array([[2.0, 1.0], [1.0, 1.0]]), d_x=1)
        out = pi_increment(prob, 0.0, np.eye(2), K)
        assert np.allclose(out, [[3.0, 1.5], [1.5, -0.75]])

    def test_lambda_rhs_pure_diffusion(self):
        prob = tracking_problem(horizon=1.0)
        prob = LqgProblem(
            A=np.zeros((2, 2)), B=prob.B, sigma=np.eye(2), Q=prob.Q, R=prob.R,
            P=prob.P, mu0=prob.mu0, lambda0=prob.lambda0, horizon=1.0, dt=0.01,
            d_x=1, d_z=1,
        )
        lam = np.array([[2.0, 1.0], [1.0, 1.0]])
        assert np.allclose(lambda_increment(prob, 0.0, lam, np.zeros((2, 2))), -lam @ lam)

    def test_lambda_rhs_pure_lyapunov(self):
        base = tracking_problem(horizon=1.0)
        prob = LqgProblem(
            A=base.A, B=base.B, sigma=np.zeros((2, 2)), Q=base.Q, R=base.R,
            P=base.P, mu0=base.mu0, lambda0=base.lambda0, horizon=1.0, dt=0.01,
            d_x=1, d_z=1,
        )
        A = np.asarray(base.A)
        lam = np.array([[2.0, 0.5], [0.5, 1.0]])
        expect = -A.T @ lam - lam @ A
        assert np.allclose(lambda_increment(prob, 0.0, lam, np.zeros((2, 2))), expect)

    def test_lambda_rhs_hand_value(self):
        prob = tracking_problem()
        out = lambda_increment(prob, 0.0, np.eye(2), np.zeros((2, 2)))
        assert np.allclose(out, [[-3.0, -1.0], [-1.0, -1.0]])

    def test_mu_rhs_zero_mean(self):
        prob = tracking_problem()
        assert np.allclose(mean_increment(prob, 0.0, np.zeros(2), np.eye(2)), 0.0)

    def test_mu_rhs_zero_psi_gives_drift(self):
        prob = tracking_problem()
        mu = np.array([1.0, 2.0])
        assert np.allclose(mean_increment(prob, 0.0, mu, np.zeros((2, 2))), [1.0, 1.0])

    def test_mu_rhs_scalar_value(self):
        prob = scalar_problem()
        out = mean_increment(prob, 0.0, np.array([3.0]), np.array([[2.0]]))
        assert np.allclose(out, [-3.0])


class TestSolvePsi:
    def test_zero_cost_fixed_point(self):
        prob = tracking_problem(horizon=1.0)
        prob = LqgProblem(
            A=prob.A, B=prob.B, sigma=prob.sigma, Q=np.zeros((2, 2)), R=prob.R,
            P=np.zeros((2, 2)), mu0=prob.mu0, lambda0=prob.lambda0,
            horizon=1.0, dt=0.01, d_x=1, d_z=1,
        )
        assert np.abs(solve_psi(prob)).max() == 0.0

    def test_scalar_stationary_limit(self):
        psi = solve_psi(scalar_problem())
        assert abs(psi[0, 0, 0] - (1.0 + np.sqrt(2.0))) <= 1e-6

    def test_terminal_condition_and_symmetry(self):
        prob = tracking_problem(horizon=2.0)
        prob = LqgProblem(
            A=prob.A, B=prob.B, sigma=prob.sigma, Q=prob.Q, R=prob.R,
            P=np.diag([0.5, 0.25]), mu0=prob.mu0, lambda0=prob.lambda0,
            horizon=2.0, dt=0.01, d_x=1, d_z=1,
        )
        psi = solve_psi(prob)
        assert np.allclose(psi[-1], np.diag([0.5, 0.25]))
        assert np.abs(psi - np.swapaxes(psi, 1, 2)).max() < 1e-12

    def test_divergence_raises(self):
        prob = scalar_problem(B=np.array([[0.0]]), horizon=400.0, dt=0.1)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(DivergenceError):
                solve_psi(prob)


class TestSolveMu:
    def test_zero_initial_mean_stays_zero(self):
        prob = tracking_problem(horizon=1.0)
        psi = solve_psi(prob)
        assert np.abs(solve_mu(prob, psi)).max() == 0.0

    def test_uncontrolled_exponential(self):
        prob = scalar_problem(B=np.array([[0.0]]), mu0=np.array([1.0]), horizon=1.0)
        psi = solve_psi(prob)
        mu = solve_mu(prob, psi)
        assert abs(mu[-1, 0] - np.e) < 1e-8


class TestIntegrate:
    @settings(max_examples=60, deadline=None)
    @given(
        a=st.floats(-3.0, 3.0),
        c=st.floats(-2.0, 2.0),
        y0=hnp.arrays(float, 3, elements=st.floats(-2.0, 2.0)),
        n=st.integers(1, 20),
        dt=st.floats(1e-3, 0.2),
        backward=st.booleans(),
    )
    def test_affine_equation_matches_one_step_polynomials(
        self, a, c, y0, n, dt, backward
    ):
        """On y' = a y + c, one RK4 step is y + dt (a y + c) p(a dt) with
        p(z) = 1 + z/2 + z^2/6 + z^3/24, in either direction; the stage
        points follow _half_grid, read from the step's start node first."""
        stages = []

        def rhs(j, y):
            stages.append(j)
            return a * y + c

        got = _integrate(rhs, y0, n, dt, backward=backward, sym=False)
        z = a * dt
        poly = 1.0 + z / 2 + z**2 / 6 + z**3 / 24
        want = np.empty((n + 1, 3))
        order = range(n - 1, -1, -1) if backward else range(n)
        want[n if backward else 0] = y0
        for i in order:
            y = want[i + 1] if backward else want[i]
            want[i if backward else i + 1] = y + dt * (a * y + c) * poly
        scale = max(1.0, float(np.abs(want).max()))
        assert np.abs(got - want).max() <= 1e-13 * scale

        expected = [
            j for i in order
            for j in ((2 * i + 2, 2 * i + 1, 2 * i + 1, 2 * i) if backward
                      else (2 * i, 2 * i + 1, 2 * i + 1, 2 * i + 2))
        ]
        assert stages == expected


class TestFbsmLqg:
    def test_zero_cost_zero_fixed_point(self):
        base = tracking_problem(horizon=1.0)
        prob = LqgProblem(
            A=base.A, B=base.B, sigma=base.sigma, Q=np.zeros((2, 2)), R=base.R,
            P=np.zeros((2, 2)), mu0=base.mu0, lambda0=base.lambda0,
            horizon=1.0, dt=0.01, d_x=1, d_z=1,
        )
        res = fbsm_lqg(prob, max_iters=10, tol=1e-10)
        assert res.converged
        assert np.allclose(res.objective_history, 0.0)
        assert np.abs(res.gains.pi).max() == 0.0

    def test_short_run_monotone_and_positive_definite(self):
        res = fbsm_lqg(tracking_problem(horizon=2.0), max_iters=12, tol=0.0)
        hist = res.objective_history
        assert len(hist) == 13
        slack = 1e-8 * (1.0 + np.abs(hist[:-1]))
        assert np.all(hist[1:] <= hist[:-1] + slack)
        assert np.linalg.eigvalsh(res.gains.lam).min() > 0
        assert res.iterations == 12

    def test_iterate_bookkeeping_carries_held_trajectories(self):
        res = fbsm_lqg(tracking_problem(horizon=1.0), max_iters=4, tol=0.0)
        # iteration 1 refreshes Pi, holds Lambda; iteration 2 the reverse
        assert res.lambda_iterates[1] is res.lambda_iterates[0]
        assert res.pi_iterates[2] is res.pi_iterates[1]
        assert res.pi_iterates[1] is not res.pi_iterates[0]

    def test_control_law_reads_only_memory(self):
        res = fbsm_lqg(tracking_problem(horizon=1.0), max_iters=6, tol=0.0)
        law = res.control_law()
        s1 = np.array([0.3, -1.2])
        s2 = np.array([9.9, -1.2])
        assert np.allclose(law.evaluate(0.5, s1), law.evaluate(0.5, s2))

    def test_control_law_hand_evaluation(self):
        res = fbsm_lqg(tracking_problem(horizon=1.0), max_iters=6, tol=0.0)
        law = res.control_law()
        g = res.gains
        s = np.array([1.0, 1.0])
        i = g.index_for(0.25)
        K = inference_gain(g.lam[i], 1)
        expect = -np.eye(2) @ (g.pi[i] @ K @ (s - g.mu[i]) + g.psi[i] @ g.mu[i])
        assert np.allclose(law.evaluate(0.25, s), expect)

    @settings(max_examples=40, deadline=None)
    @given(
        d_x=st.sampled_from([1, 2]),
        d_z=st.sampled_from([1, 2]),
        d_u=st.sampled_from([1, 2]),
        varying=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
        n_points=st.integers(1, 40),
        times=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=5),
    )
    def test_tabulated_law_matches_per_call_expression(
        self, d_x, d_z, d_u, varying, seed, n_points, times
    ):
        rng = np.random.default_rng(seed)
        d_s, n = d_x + d_z, 20

        def spd(*lead):
            a = rng.standard_normal(lead + (d_s, d_s))
            return a @ np.swapaxes(a, -1, -2) + d_s * np.eye(d_s)

        def sym(*lead):
            a = rng.standard_normal(lead + (d_s, d_s))
            return a + np.swapaxes(a, -1, -2)

        B0 = rng.standard_normal((d_s, d_u))
        r = rng.standard_normal((d_u, d_u))
        R0 = r @ r.T + np.eye(d_u)
        gains = GainTrajectory(
            times=np.linspace(0.0, 1.0, n + 1),
            psi=sym(n + 1), pi=sym(n + 1), lam=spd(n + 1),
            mu=rng.standard_normal((n + 1, d_s)), d_x=d_x,
        )
        problem = LqgProblem(
            A=np.zeros((d_s, d_s)),
            B=(lambda t: B0 * (1.0 + t)) if varying else B0,
            sigma=np.eye(d_s),
            Q=np.eye(d_s),
            R=(lambda t: R0 + t * np.eye(d_u)) if varying else R0,
            P=np.zeros((d_s, d_s)), mu0=np.zeros(d_s), lambda0=np.eye(d_s),
            horizon=1.0, dt=1.0 / n, d_x=d_x, d_z=d_z,
        )
        law = LqgControlLaw(gains, problem)
        z = rng.standard_normal((n_points, d_z)) * 3.0

        def per_call(t, z):
            # The law as evaluated before its tables existed.
            i = gains.index_for(t)
            t_i = gains.times[i]
            K = inference_gain(gains.lam[i], d_x)
            mu = gains.mu[i]
            ez = z - mu[d_x:]
            ks = np.concatenate([ez @ K[:d_x, d_x:].T, ez], axis=-1)
            core = ks @ gains.pi[i].T + gains.psi[i] @ mu
            B = np.atleast_2d(np.asarray(as_time_fn(problem.B)(t_i), dtype=float))
            R = np.atleast_2d(np.asarray(as_time_fn(problem.R)(t_i), dtype=float))
            return -core @ np.linalg.solve(R, B.T).T

        for t in times + [0.0, 1.0]:
            assert np.array_equal(law.evaluate_memory(t, z), per_call(t, z))

    def test_control_at_mean_with_zero_psi_mu_is_zero(self):
        res = fbsm_lqg(tracking_problem(horizon=1.0), max_iters=4, tol=0.0)
        law = res.control_law()
        # mu stays zero here, so s = mu gives u = -R^{-1}B'(0 + Psi*0) = 0
        assert np.allclose(law.evaluate(0.5, np.zeros(2)), 0.0)

    def test_time_outside_horizon_rejected(self):
        res = fbsm_lqg(tracking_problem(horizon=1.0), max_iters=2, tol=0.0)
        law = res.control_law()
        with pytest.raises(ProblemError):
            law.evaluate(1.5, np.zeros(2))

    def test_objective_formula_matches_recorded_history_at_fixed_point(self):
        res = fbsm_lqg(tracking_problem(horizon=2.0), max_iters=20, tol=0.0)
        closed_form = lqg_objective(res.problem, res.gains)
        recorded = res.objective_history[-1]
        assert abs(closed_form - recorded) <= 1e-4 * (1.0 + abs(recorded))

    def test_fixed_point_satisfies_both_equations(self):
        prob = tracking_problem(horizon=2.0)
        res = fbsm_lqg(prob, max_iters=30, tol=0.0)
        g = res.gains
        dt = prob.dt
        worst_pi = worst_lam = 0.0
        for i in range(0, prob.n_steps, 7):
            t = g.times[i]
            K = inference_gain(g.lam[i], 1)
            pi_dot = (g.pi[i + 1] - g.pi[i]) / dt
            lam_dot = (g.lam[i + 1] - g.lam[i]) / dt
            worst_pi = max(worst_pi, np.abs(pi_dot + pi_increment(prob, t, g.pi[i], K)).max())
            worst_lam = max(worst_lam, np.abs(lam_dot - lambda_increment(prob, t, g.lam[i], g.pi[i])).max())
        # forward-difference residual of the converged trajectories is O(dt)
        assert worst_pi < 50 * dt
        assert worst_lam < 50 * dt

    # Objective histories of two_state_problem, 8 sweeps, recorded with
    # the per-stage (unbatched) sweep implementation.
    TWO_STATE_HISTORY = {
        "rk4": [
            3.218463514550217, 3.150192868287149, 3.1480768136739226,
            3.1479339397170563, 3.1479236249382136, 3.147922955189221,
            3.1479228998745543, 3.147922901725474, 3.147922901442283,
        ],
    }

    @RK4
    def test_two_state_history_regression(self, method):
        res = fbsm_lqg(two_state_problem(), max_iters=8, tol=0.0, method=method)
        expect = np.array(self.TWO_STATE_HISTORY[method])
        assert res.objective_history.shape == expect.shape
        assert np.abs(res.objective_history - expect).max() <= 1e-12 * np.abs(expect).max()

    @RK4
    def test_lambda_blowup_raises_singular_precision(self, method):
        # a huge held Pi drives Lambda non-finite during the forward sweep
        prob = tracking_problem(horizon=1.0)
        pi0 = np.zeros((prob.n_steps + 1, 2, 2))
        pi0[:, 0, 1] = pi0[:, 1, 0] = 1e200
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(SingularPrecisionError):
                fbsm_lqg(prob, pi0=pi0, max_iters=4, tol=0.0, method=method)

    def test_unknown_method_rejected(self):
        for method in ("heun", "euler"):
            with pytest.raises(ProblemError, match="integration method"):
                fbsm_lqg(tracking_problem(horizon=1.0), method=method)

    def test_invalid_problem_rejected(self):
        bad = tracking_problem(horizon=1.0)
        bad = LqgProblem(
            A=bad.A, B=bad.B, sigma=bad.sigma, Q=bad.Q, R=np.zeros((2, 2)),
            P=bad.P, mu0=bad.mu0, lambda0=bad.lambda0, horizon=1.0, dt=0.01,
            d_x=1, d_z=1,
        )
        with pytest.raises(ProblemError):
            fbsm_lqg(bad)


class TestLqgObjective:
    def test_zero_gains_zero_cost(self):
        base = tracking_problem(horizon=1.0)
        prob = LqgProblem(
            A=base.A, B=base.B, sigma=base.sigma, Q=np.zeros((2, 2)), R=base.R,
            P=np.zeros((2, 2)), mu0=base.mu0, lambda0=base.lambda0,
            horizon=1.0, dt=0.01, d_x=1, d_z=1,
        )
        res = fbsm_lqg(prob, max_iters=2, tol=0.0)
        assert lqg_objective(prob, res.gains) == 0.0

    def test_zero_initial_mean_kills_mu_terms(self):
        prob = tracking_problem(horizon=1.0)
        res = fbsm_lqg(prob, max_iters=6, tol=0.0)
        assert np.abs(res.gains.mu).max() == 0.0


def per_stage_objective(problem, coeffs, psi, pi, lam, mu):
    """The closed-loop objective as integrated before its step propagators:
    one RK4 stage of the Lyapunov equation at a time, with Sigma
    symmetrized after every step."""
    n, dt = coeffs.n, coeffs.dt
    gain = inference_gain(_half_grid(lam), problem.d_x)
    SS = coeffs.SS
    drift = coeffs.A - coeffs.M @ _half_grid(pi) @ gain
    drift_t = np.swapaxes(drift, -1, -2)

    def rhs(j, sig_val):
        return drift[j] @ sig_val + sig_val @ drift_t[j] + SS[j]

    sigma_nodes = np.empty_like(lam)
    sigma_nodes[0] = np.linalg.inv(problem.lambda0)
    for i in range(n):
        base = sigma_nodes[i]
        k1 = rhs(2 * i, base)
        k2 = rhs(2 * i + 1, base + 0.5 * dt * k1)
        k3 = rhs(2 * i + 1, base + 0.5 * dt * k2)
        k4 = rhs(2 * i + 2, base + dt * k3)
        step = (k1 + 2 * k2 + 2 * k3 + k4) / 6.0
        sigma_nodes[i + 1] = _sym(base + dt * step)
    _check_finite(sigma_nodes, coeffs.node_times, "Sigma")
    return _expected_cost(problem, coeffs, psi, pi, gain[::2], mu, sigma_nodes)


class TestClosedLoopObjective:
    @settings(max_examples=40, deadline=None)
    @given(
        d_x=st.sampled_from([1, 2]),
        d_z=st.sampled_from([1, 2]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_propagators_match_per_stage_loop(self, d_x, d_z, seed):
        # Time-varying A, sigma and Q with an unstable open-loop drift,
        # under random held Pi and SPD Lambda iterates.
        rng = np.random.default_rng(seed)
        d_s, n = d_x + d_z, 40

        def spd(*lead):
            a = rng.standard_normal(lead + (d_s, d_s))
            return a @ np.swapaxes(a, -1, -2) + 0.5 * np.eye(d_s)

        def sym(*lead):
            a = rng.standard_normal(lead + (d_s, d_s))
            return (a + np.swapaxes(a, -1, -2)) / 2.0

        A0, A1 = rng.standard_normal((2, d_s, d_s))
        A0 += (1.0 - np.linalg.eigvals(A0).real.max()) * np.eye(d_s)
        S0, S1 = rng.standard_normal((2, d_s, d_s))
        Q0, Q1 = spd(), spd()
        B = rng.standard_normal((d_s, 2))
        r = rng.standard_normal((2, 2))
        problem = LqgProblem(
            A=lambda t: A0 + np.sin(3.0 * t) * A1,
            B=B,
            sigma=lambda t: S0 + t * S1,
            Q=lambda t: Q0 + t * t * Q1,
            R=r @ r.T + np.eye(2),
            P=spd(), mu0=rng.standard_normal(d_s), lambda0=spd(),
            horizon=1.0, dt=1.0 / n, d_x=d_x, d_z=d_z,
        )
        assert np.linalg.eigvals(problem.A(0.0)).real.max() >= 1.0 - 1e-9
        coeffs = _Coefficients(problem)
        held = (
            sym(n + 1), sym(n + 1), spd(n + 1), rng.standard_normal((n + 1, d_s))
        )
        J = _closed_loop_objective(problem, coeffs, *held)
        expect = per_stage_objective(problem, coeffs, *held)
        assert abs(J - expect) <= 1e-12 * (1.0 + abs(expect))

    @RK4
    def test_two_state_iterates_match_per_stage_loop(self, method):
        problem = two_state_problem()
        res = fbsm_lqg(problem, max_iters=4, tol=0.0, method=method)
        coeffs = _Coefficients(problem)
        g = res.gains
        for pi, lam in zip(res.pi_iterates, res.lambda_iterates):
            held = (g.psi, pi, lam, g.mu)
            J = _closed_loop_objective(problem, coeffs, *held)
            expect = per_stage_objective(problem, coeffs, *held)
            assert abs(J - expect) <= 1e-12 * (1.0 + abs(expect))

    @RK4
    @pytest.mark.parametrize("steps_per_batch", [1, 7])
    def test_batched_propagators_match_per_stage_loop(
        self, monkeypatch, method, steps_per_batch
    ):
        # d_s = 3 holds (3^2 + 1)^2 = 100 doubles per step, so these budgets
        # cut the 100 steps into batches of 1 and of 7 (the last one ragged).
        monkeypatch.setattr(lqg, "_PROPAGATOR_BATCH", 100 * steps_per_batch)
        problem = two_state_problem()
        res = fbsm_lqg(problem, max_iters=2, tol=0.0, method=method)
        coeffs = _Coefficients(problem)
        g = res.gains
        held = (g.psi, g.pi, g.lam, g.mu)
        J = _closed_loop_objective(problem, coeffs, *held)
        expect = per_stage_objective(problem, coeffs, *held)
        assert abs(J - expect) <= 1e-12 * (1.0 + abs(expect))

    @RK4
    def test_memory_does_not_grow_with_the_horizon(self, method):
        # At d_s = 8 and n = 1000 one table of all step maps would be
        # 1000 * 65^2 doubles (34 MB), and building them at once peaked at
        # about 230 MB; batches keep the peak near the O(n d_s^2) tables.
        d_s, n = 8, 1000
        rng = np.random.default_rng(8)
        a = rng.standard_normal((d_s, d_s))
        spd = a @ a.T / d_s + np.eye(d_s)
        problem = LqgProblem(
            A=rng.standard_normal((d_s, d_s)) / np.sqrt(d_s), B=np.eye(d_s),
            sigma=np.eye(d_s), Q=spd, R=np.eye(d_s), P=spd,
            mu0=np.zeros(d_s), lambda0=spd, horizon=1.0, dt=1.0 / n,
            d_x=4, d_z=4,
        )
        coeffs = _Coefficients(problem)
        pi = np.tile(spd, (n + 1, 1, 1))
        held = (pi, pi, pi, np.zeros((n + 1, d_s)))
        tracemalloc.start()
        try:
            _closed_loop_objective(problem, coeffs, *held)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 16e6

    @RK4
    def test_overflowing_closed_loop_raises_naming_sigma(self, method):
        problem = tracking_problem(horizon=1.0)
        problem = LqgProblem(
            A=1e6 * np.eye(2), B=problem.B, sigma=problem.sigma, Q=problem.Q,
            R=problem.R, P=problem.P, mu0=problem.mu0, lambda0=problem.lambda0,
            horizon=1.0, dt=0.01, d_x=1, d_z=1,
        )
        n = problem.n_steps
        zeros, lam = np.zeros((n + 1, 2, 2)), np.tile(np.eye(2), (n + 1, 1, 1))
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(DivergenceError, match="Sigma"):
                _closed_loop_objective(
                    problem, _Coefficients(problem), zeros, zeros, lam,
                    np.zeros((n + 1, 2)),
                )
