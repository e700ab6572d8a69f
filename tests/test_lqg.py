"""Tests for the Riccati-sweep solver."""

import dataclasses
import hashlib
import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from scipy.linalg.lapack import dgesv

from fbsweep import lqg
from fbsweep.config import (
    bundled_config_path,
    parse_config,
    simulation_cost,
    simulation_dynamics,
)
from fbsweep.core import (
    DivergenceError,
    LqgProblem,
    ProblemError,
    SingularPrecisionError,
)
from fbsweep.lqg import (
    GainTrajectory,
    LqgControlLaw,
    _backward_riccati,
    _check_finite,
    _closed_loop_objective,
    _expected_cost,
    _forward_lambda,
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
from fbsweep.sdesim import simulate_paths


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


def scalar_problem(b=1.0, m=0.0, **overrides):
    """The scalar problem ds = (s + b u) dt + dw, cost s^2 + u^2 and mean
    m, as the state block of a 1+1 problem whose memory is decoupled and
    costless. Its state entries of Psi and mu are the scalar problem's,
    bit for bit."""
    kwargs = dict(
        A=np.diag([1.0, 0.0]),
        B=np.array([[b], [0.0]]),
        sigma=np.eye(2),
        Q=np.diag([1.0, 0.0]),
        R=np.array([[1.0]]),
        P=np.zeros((2, 2)),
        mu0=np.array([m, 0.0]),
        lambda0=np.eye(2),
        horizon=20.0,
        dt=0.01,
        d_x=1,
        d_z=1,
    )
    kwargs.update(overrides)
    return LqgProblem(**kwargs)


def time_varying_problem(rng, d_x, d_z, n=40):
    """Callable A, sigma and Q, with an unstable open-loop drift, over n steps."""
    d_s = d_x + d_z

    def spd():
        a = rng.standard_normal((d_s, d_s))
        return a @ a.T + 0.5 * np.eye(d_s)

    A0, A1 = rng.standard_normal((2, d_s, d_s))
    A0 += (1.0 - np.linalg.eigvals(A0).real.max()) * np.eye(d_s)
    S0, S1 = rng.standard_normal((2, d_s, d_s))
    Q0, Q1 = spd(), spd()
    B = rng.standard_normal((d_s, 2))
    r = rng.standard_normal((2, 2))
    return LqgProblem(
        A=lambda t: A0 + np.sin(3.0 * t) * A1,
        B=B,
        sigma=lambda t: S0 + t * S1,
        Q=lambda t: Q0 + t * t * Q1,
        R=r @ r.T + np.eye(2),
        P=spd(), mu0=rng.standard_normal(d_s), lambda0=spd(),
        horizon=1.0, dt=1.0 / n, d_x=d_x, d_z=d_z,
    )


def coefficients(prob, t):
    """(A, M = B R^-1 B', Q, sigma sigma') of prob at time t."""
    A, B, sig, Q, R = prob.coefficients(t)
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
    return _backward_riccati(prob, "Psi")


def solve_mu(prob, psi):
    return _forward_mu(prob, psi)


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


class TestRhsFunctions:
    def test_psi_rhs_at_zero_is_q(self):
        prob = tracking_problem()
        assert np.allclose(psi_increment(prob, 0.0, np.zeros((2, 2))), np.diag([1.0, 0.0]))

    def test_psi_rhs_stationary_root(self):
        prob = scalar_problem()
        root = 1.0 + np.sqrt(2.0)
        assert abs(psi_increment(prob, 0.0, np.diag([root, 0.0]))[0, 0]) < 1e-12

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

    @settings(max_examples=200, deadline=None)
    @given(d_x=st.integers(1, 3), d_z=st.integers(1, 3), seed=st.integers(0, 2**32 - 1))
    def test_lambda_block_solve_has_the_bits_of_lapack(self, d_x, d_z, seed):
        # The Lambda stage and inference_gain solve the state block by the
        # private gufunc behind np.linalg.solve. It must give the bits of
        # LAPACK dgesv and of the public solve, so a numpy that changes it
        # fails here.
        rng = np.random.default_rng(seed)
        d = d_x + d_z
        root = rng.standard_normal((d, d))
        lam = root @ root.T + 0.1 * np.eye(d)
        A, SS, mp = rng.standard_normal((3, d, d))
        block, rhs = lam[:d_x, :d_x], lam[:d_x, d_x:]
        _, _, cross, info = dgesv(block, rhs)
        assert info == 0
        assert np.linalg.solve(block, rhs).tobytes() == cross.tobytes()
        drift = A.copy()
        drift[:, d_x:] -= mp[:, d_x:] - mp[:, :d_x] @ cross
        expect = -drift.T @ lam - lam @ drift - lam @ SS @ lam
        got = _lambda_increment(A, SS, mp[:, :d_x], mp[:, d_x:], lam, d_x)
        assert got.tobytes() == expect.tobytes()
        assert inference_gain(lam, d_x)[:d_x, d_x:].tobytes() == (-cross).tobytes()

    # The stage kernels multiply through ndarray.dot, which calls the BLAS
    # routine of @ without the gufunc dispatch. These guards hold them to
    # the @ expressions byte for byte, so a numpy that routes .dot
    # differently fails here, not in a digest pin.
    @settings(max_examples=200, deadline=None)
    @given(d_x=st.integers(1, 3), d_z=st.integers(1, 3), seed=st.integers(0, 2**32 - 1))
    def test_riccati_and_mean_stages_have_the_bits_of_matmul(self, d_x, d_z, seed):
        rng = np.random.default_rng(seed)
        d = d_x + d_z
        A, M, Q, X, gap = rng.standard_normal((5, d, d))
        mu = rng.standard_normal(d)
        pmp = X @ M @ X
        expect = Q + A.T @ X + X @ A - pmp
        assert _riccati_increment(A, M, Q, X).tobytes() == expect.tobytes()
        expect = expect + gap.T @ pmp @ gap
        assert _riccati_increment(A, M, Q, X, gap).tobytes() == expect.tobytes()
        assert _mean_increment(A, M, X, mu).tobytes() == ((A - M @ X) @ mu).tobytes()

    @settings(max_examples=100, deadline=None)
    @given(d=st.integers(1, 4), sym=st.booleans(), seed=st.integers(0, 2**32 - 1))
    def test_integrate_step_has_the_bits_of_the_rk4_formula(self, d, sym, seed):
        rng = np.random.default_rng(seed)
        A, Q = rng.standard_normal((2, 3, d, d))
        y = rng.standard_normal((d, d))
        dt = float(rng.uniform(1e-3, 0.1))

        def rhs(j, val):
            return _riccati_increment(A[j], np.eye(d), Q[j], val)

        k1 = rhs(0, y)
        k2 = rhs(1, y + 0.5 * dt * k1)
        k3 = rhs(1, y + 0.5 * dt * k2)
        k4 = rhs(2, y + dt * k3)
        new = y + dt * ((k1 + 2 * k2 + 2 * k3 + k4) / 6.0)
        got = _integrate(rhs, y, 1, dt, sym=sym)
        assert got[0].tobytes() == y.tobytes()
        assert got[1].tobytes() == (_sym(new) if sym else new).tobytes()

    @settings(max_examples=100, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_lyapunov_step_dot_has_the_bits_of_matmul(self, seed):
        # The closed-loop objective steps y = (vec(Sigma), 1) by
        # step.dot(y[i], out=y[i + 1]); d_s = 2 makes step 5x5.
        rng = np.random.default_rng(seed)
        step = rng.standard_normal((5, 5))
        y = rng.standard_normal((2, 5))
        step.dot(y[0], out=y[1])
        assert y[1].tobytes() == (step @ y[0]).tobytes()

    def test_lambda_rhs_singular_state_block(self):
        # the sweep steps Lambda with invalid values ignored, as here
        prob = tracking_problem()
        with np.errstate(invalid="ignore"), pytest.raises(SingularPrecisionError):
            lambda_increment(prob, 0.0, np.diag([0.0, 1.0]), np.zeros((2, 2)))

    def test_mu_rhs_zero_mean(self):
        prob = tracking_problem()
        assert np.allclose(mean_increment(prob, 0.0, np.zeros(2), np.eye(2)), 0.0)

    def test_mu_rhs_zero_psi_gives_drift(self):
        prob = tracking_problem()
        mu = np.array([1.0, 2.0])
        assert np.allclose(mean_increment(prob, 0.0, mu, np.zeros((2, 2))), [1.0, 1.0])

    def test_mu_rhs_scalar_value(self):
        prob = scalar_problem()
        out = mean_increment(prob, 0.0, np.array([3.0, 0.0]), np.diag([2.0, 0.0]))
        assert np.allclose(out[0], -3.0)


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
        prob = scalar_problem(b=0.0, horizon=400.0, dt=0.1)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(DivergenceError):
                solve_psi(prob)


class TestSolveMu:
    def test_zero_initial_mean_stays_zero(self):
        prob = tracking_problem(horizon=1.0)
        psi = solve_psi(prob)
        assert np.abs(solve_mu(prob, psi)).max() == 0.0

    def test_uncontrolled_exponential(self):
        prob = scalar_problem(b=0.0, m=1.0, horizon=1.0)
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


def random_lqg_problem(seed, dt=0.02):
    """A random problem with d_x, d_z, d_u in {1, 2}, A ~ N(0, 1.5^2),
    horizon 1 and dt 0.02 by default; about a quarter of them diverge or
    lose precision within 12 sweeps."""
    rng = np.random.default_rng(seed)
    d_x, d_z, d_u = (int(v) for v in rng.integers(1, 3, 3))
    d_s = d_x + d_z

    def spd(scale=1.0):
        a = rng.standard_normal((d_s, d_s))
        return scale * (a @ a.T) + 0.1 * np.eye(d_s)

    r = rng.standard_normal((d_u, d_u))
    return LqgProblem(
        A=1.5 * rng.standard_normal((d_s, d_s)),
        B=rng.standard_normal((d_s, d_u)),
        sigma=0.5 * rng.standard_normal((d_s, d_s)),
        Q=spd(),
        R=r @ r.T + 0.5 * np.eye(d_u),
        P=spd(),
        mu0=rng.standard_normal(d_s),
        lambda0=spd(4.0),
        horizon=1.0,
        dt=dt,
        d_x=d_x,
        d_z=d_z,
    )


class TestTypedFailures:
    """A failing solve raises a typed error, not a numpy overflow warning
    (warnings are errors in this suite)."""

    @pytest.mark.parametrize(
        "seed, error", [(7, DivergenceError), (21, SingularPrecisionError)]
    )
    def test_overflow_is_typed(self, seed, error):
        with pytest.raises(error):
            fbsm_lqg(random_lqg_problem(seed), max_iters=12, tol=0.0)

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_random_problem_solves_or_fails_typed(self, seed):
        try:
            result = fbsm_lqg(random_lqg_problem(seed), max_iters=12, tol=0.0)
        except (DivergenceError, SingularPrecisionError):
            return
        assert np.all(np.isfinite(result.objective_history))


def largest_rise(history) -> float:
    """The largest sweep-to-sweep rise of J, relative to 1 + |J|; 0 if none."""
    rises = np.diff(history) / (1.0 + np.abs(history[:-1]))
    return max(0.0, float(rises.max()))


class TestDescentRefinement:
    """The Pi sweep improves the policy exactly only in continuous time:
    the RK4 Riccati steps and the RK4 Lyapunov objective are different
    discretizations, so an lqg sweep may raise J. The rise is a
    discretization error, so it shrinks as dt does: across two halvings
    it falls at least 16x, or to within the descent slack 1e-8 at
    dt = 0.005. One halving alone may shrink it less than 4x (3317678:
    0.085 -> 0.024 -> 0), and a rise already within the slack may not
    shrink at all (12363057: 9.6e-11 -> 1.2e-10 -> 8.3e-12)."""

    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    @example(seed=3317678)
    @example(seed=12363057)
    def test_largest_rise_shrinks_under_refinement(self, seed):
        rises = []
        for dt in (0.02, 0.01, 0.005):
            try:
                result = fbsm_lqg(random_lqg_problem(seed, dt), max_iters=12, tol=0.0)
            except (DivergenceError, SingularPrecisionError):
                return
            rises.append(largest_rise(result.objective_history))
        assert rises[2] <= rises[0] / 16.0 or rises[2] <= lqg.MONOTONICITY_SLACK, rises


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

    def test_sweep_health_matches_consecutive_budgets(self):
        # sweep 1 refreshes Pi, sweep 2 Lambda, and so on; a gap is the
        # largest change of its trajectory at its last refresh
        problem = tracking_problem(horizon=1.0)
        runs = [fbsm_lqg(problem, max_iters=k, tol=0.0) for k in range(5)]
        pis = [r.gains.pi for r in runs]
        lams = [r.gains.lam for r in runs]

        def change(new, old):
            return float(np.abs(new - old).max())

        assert [r.pi_gap for r in runs] == [
            None, change(pis[1], pis[0]), change(pis[1], pis[0]),
            change(pis[3], pis[2]), change(pis[3], pis[2]),
        ]
        assert [r.lambda_gap for r in runs] == [
            None, None, change(lams[2], lams[1]),
            change(lams[2], lams[1]), change(lams[4], lams[3]),
        ]
        eigs = [float(np.linalg.eigvalsh(lam).min()) for lam in lams]
        assert [r.min_lambda_eigenvalue for r in runs] == [
            eigs[0], eigs[0], min(eigs[:3]), min(eigs[:3]), min(eigs),
        ]

    def test_control_law_reads_only_memory(self):
        # u = -R^{-1}B'(Pi K (s - mu) + Psi mu) ignores the state block of s:
        # every K(Lambda) has zero state columns
        res = fbsm_lqg(tracking_problem(horizon=1.0), max_iters=6, tol=0.0)
        K = inference_gain(res.gains.lam, 1)
        assert np.all(K[:, :, :1] == 0.0)

    def test_control_law_hand_evaluation(self):
        res = fbsm_lqg(tracking_problem(horizon=1.0), max_iters=6, tol=0.0)
        law = LqgControlLaw(res.gains, res.problem)
        g = res.gains
        s = np.array([1.0, 1.0])
        i = g.index_for(0.25)
        K = inference_gain(g.lam[i], 1)
        expect = -np.eye(2) @ (g.pi[i] @ K @ (s - g.mu[i]) + g.psi[i] @ g.mu[i])
        assert np.allclose(law.evaluate_memory(0.25, s[1:]), expect)

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
            _, B, _, _, R = problem.coefficients(t_i)
            return -core @ np.linalg.solve(R, B.T).T

        for t in times + [0.0, 1.0]:
            assert np.array_equal(law.evaluate_memory(t, z), per_call(t, z))

    def test_control_at_mean_with_zero_psi_mu_is_zero(self):
        res = fbsm_lqg(tracking_problem(horizon=1.0), max_iters=4, tol=0.0)
        law = LqgControlLaw(res.gains, res.problem)
        # mu stays zero here, so z = mu_z gives u = -R^{-1}B'(0 + Psi*0) = 0
        assert np.allclose(law.evaluate_memory(0.5, np.zeros(1)), 0.0)

    def test_time_outside_horizon_rejected(self):
        res = fbsm_lqg(tracking_problem(horizon=1.0), max_iters=2, tol=0.0)
        law = LqgControlLaw(res.gains, res.problem)
        with pytest.raises(ProblemError):
            law.evaluate_memory(1.5, np.zeros(1))

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

    # SHA-256 of the gains and the history of 6 sweeps on
    # time_varying_problem (seed 0, d_x 2, d_z 1), whose callable
    # coefficients are read at every stage (numpy 2.4 on x86-64).
    TIME_VARYING_DIGESTS = {
        "psi": "7d93f1ddf5765a5c2222a64430758462a8a01f0f4ec670b7879faf9c06da183f",
        "pi": "9ed95afb52520099ef4e014d61ba23b68b6c8f0e26388ef7e26cfe338b6e7318",
        "lam": "4b00b5cc79734eda3396661a788a5807791d945601407470203a6a26e39d8d4a",
        "mu": "4529c887aeae35ef981a7df7b53e963cf4d0b6fed0c589ec84bddb56076b1091",
        "history": "752a518fa3dc7ae2b73ad557646fc2ee949ed609a3cdd70616be16efa75d8a84",
    }

    def test_time_varying_solve_matches_its_pins(self):
        problem = time_varying_problem(np.random.default_rng(0), d_x=2, d_z=1)
        res = fbsm_lqg(problem, max_iters=6, tol=0.0)
        g = res.gains
        arrays = {"psi": g.psi, "pi": g.pi, "lam": g.lam, "mu": g.mu,
                  "history": res.objective_history}
        digests = {
            name: hashlib.sha256(np.ascontiguousarray(a).tobytes()).hexdigest()
            for name, a in arrays.items()
        }
        assert digests == self.TIME_VARYING_DIGESTS

    def test_lambda_blowup_raises_singular_precision(self):
        # a huge held Pi drives Lambda non-finite during the forward sweep
        prob = tracking_problem(horizon=1.0)
        pi = np.zeros((prob.n_steps + 1, 2, 2))
        pi[:, 0, 1] = pi[:, 1, 0] = 1e200
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(SingularPrecisionError):
                _forward_lambda(prob, pi, "Lambda")

    def test_zero_lambda_state_block_raises_singular_precision(self):
        # LqgProblem refuses a Lambda0 that is not positive definite, so the
        # zero state block is set after its checks; the first Lambda stage
        # reads it
        prob = tracking_problem(horizon=1.0)
        object.__setattr__(prob, "lambda0", np.diag([0.0, 1.0]))
        with pytest.raises(SingularPrecisionError, match="singular"):
            fbsm_lqg(prob, max_iters=2, tol=0.0)

    def test_unknown_method_rejected(self):
        for method in ("heun", "euler"):
            with pytest.raises(ProblemError, match="integration method"):
                fbsm_lqg(tracking_problem(horizon=1.0), method=method)

    def test_coefficients_are_read_once_per_problem(self):
        # building the problem, a solve and the closed form read a callable
        # A at the 2n + 1 stage times, once between them
        doc = json.loads(bundled_config_path("lqg").read_text())
        problem = parse_config(doc).lqg_problem
        A, reads = problem.A, []

        def counting_a(t):
            reads.append(t)
            return A

        problem = dataclasses.replace(problem, A=counting_a)
        result = fbsm_lqg(problem, max_iters=2, tol=0.0)
        lqg_objective(problem, result.gains)
        assert len(reads) == 2 * problem.n_steps + 1 == 2001

    def test_control_law_reads_only_b_and_r(self):
        # building the problem reads a callable A and B at the 2n + 1 stage
        # times; the law's tables read B (and R) at each gain time, never A
        doc = json.loads(bundled_config_path("lqg").read_text())
        problem = parse_config(doc).lqg_problem
        reads = {"A": 0, "B": 0}

        def counting(name):
            value = getattr(problem, name)

            def read(t):
                reads[name] += 1
                return value

            return read

        problem = dataclasses.replace(problem, A=counting("A"), B=counting("B"))
        gains = fbsm_lqg(problem, max_iters=1, tol=0.0).gains
        assert reads == {"A": 2001, "B": 2001}
        z = np.ones((3, problem.d_z))
        u = LqgControlLaw(gains, problem).evaluate_memory(0.5, z)
        assert reads == {"A": 2001, "B": 2001 + 1001}
        coarse = GainTrajectory(
            times=gains.times[::2], psi=gains.psi[::2], pi=gains.pi[::2],
            lam=gains.lam[::2], mu=gains.mu[::2], d_x=gains.d_x,
        )
        assert np.array_equal(LqgControlLaw(coarse, problem).evaluate_memory(0.5, z), u)
        assert reads == {"A": 2001, "B": 2001 + 1001 + 501}

    def test_simulator_reads_each_coefficient_once_per_step(self):
        # the simulated drift reads A and B, the diffusion sigma and the
        # cost Q and R, each once per step; the noise dimension reads sigma
        # and the control dimension B, once
        cfg = parse_config(json.loads(bundled_config_path("lqg").read_text()))
        names = ("A", "B", "sigma", "Q", "R")
        reads = dict.fromkeys(names, 0)

        def counting(name):
            value = getattr(cfg.lqg_problem, name)

            def read(t):
                reads[name] += 1
                return value

            return read

        problem = dataclasses.replace(
            cfg.lqg_problem, **{name: counting(name) for name in names}
        )
        cfg = dataclasses.replace(cfg, lqg_problem=problem)
        reads.update(dict.fromkeys(names, 0))
        dynamics, cost = simulation_dynamics(cfg), simulation_cost(cfg)
        assert reads == {"A": 0, "B": 1, "sigma": 1, "Q": 0, "R": 0}

        class ZeroLaw:
            def evaluate_memory(self, t, z):
                return np.zeros((z.shape[0], dynamics.d_u))

        reads.update(dict.fromkeys(names, 0))
        simulate_paths(dynamics, ZeroLaw(), 1.0, 0.01, n_paths=4, seed=0, cost=cost)
        assert reads == dict.fromkeys(names, 100)

    def test_invalid_problem_rejected(self):
        base = tracking_problem(horizon=1.0)
        with pytest.raises(ProblemError):
            LqgProblem(
                A=base.A, B=base.B, sigma=base.sigma, Q=base.Q, R=np.zeros((2, 2)),
                P=base.P, mu0=base.mu0, lambda0=base.lambda0, horizon=1.0, dt=0.01,
                d_x=1, d_z=1,
            )


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


def per_stage_objective(problem, psi, pi, lam, mu):
    """The closed-loop objective as integrated before its step propagators:
    one RK4 stage of the Lyapunov equation at a time, with Sigma
    symmetrized after every step."""
    st = problem.stages
    n, dt = st.n, st.dt
    gain = inference_gain(_half_grid(lam), problem.d_x)
    SS = st.SS
    drift = st.A - st.M @ _half_grid(pi) @ gain
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
    _check_finite(sigma_nodes, st.node_times, "Sigma")
    return _expected_cost(problem, psi, pi, gain[::2], mu, sigma_nodes)


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

        problem = time_varying_problem(rng, d_x, d_z, n)
        assert np.linalg.eigvals(problem.A(0.0)).real.max() >= 1.0 - 1e-9
        held = (
            sym(n + 1), sym(n + 1), spd(n + 1), rng.standard_normal((n + 1, d_s))
        )
        J = _closed_loop_objective(problem, *held)
        expect = per_stage_objective(problem, *held)
        assert abs(J - expect) <= 1e-12 * (1.0 + abs(expect))

    @RK4
    def test_two_state_iterates_match_per_stage_loop(self, method):
        # the initial (Pi, Lambda) pair and the pair after each of four sweeps
        problem = two_state_problem()
        runs = [
            fbsm_lqg(problem, max_iters=k, tol=0.0, method=method).gains
            for k in range(5)
        ]
        g = runs[-1]
        for pi, lam in ((r.pi, r.lam) for r in runs):
            held = (g.psi, pi, lam, g.mu)
            J = _closed_loop_objective(problem, *held)
            expect = per_stage_objective(problem, *held)
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
        g = res.gains
        held = (g.psi, g.pi, g.lam, g.mu)
        J = _closed_loop_objective(problem, *held)
        expect = per_stage_objective(problem, *held)
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
        problem.stages  # tabulated once per problem, before the measurement
        pi = np.tile(spd, (n + 1, 1, 1))
        held = (pi, pi, pi, np.zeros((n + 1, d_s)))
        tracemalloc.start()
        try:
            _closed_loop_objective(problem, *held)
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
                _closed_loop_objective(problem, zeros, zeros, lam, np.zeros((n + 1, 2)))
