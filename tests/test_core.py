"""Tests for the shared problem records: Gaussian, LQG validation, grid geometry."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fbsweep.core import (
    Gaussian,
    GridSpec,
    LqgProblem,
    ProblemError,
)
from fbsweep.lqg import fbsm_lqg


def failed_checks(error):
    """The check names of a construction error's "FAIL: <check> (<detail>)" lines."""
    lines = str(error.value).splitlines()
    assert lines[0] == "invalid problem:"
    return [line.removeprefix("FAIL: ").split(" (")[0] for line in lines[1:]]


class TestGaussian:
    def test_density_matches_scalar_formula(self):
        g = Gaussian([1.0], [[4.0]])
        pts = np.array([[0.0], [1.0], [3.0]])
        expected = np.exp(-((pts[:, 0] - 1.0) ** 2) / 8.0) / np.sqrt(8.0 * np.pi)
        assert np.allclose(g.density(pts), expected)

    def test_density_integrates_to_one_on_grid(self):
        g = Gaussian([0.0, 0.0], [[0.5, 0.1], [0.1, 0.3]])
        axes = [np.linspace(-6, 6, 201)] * 2
        mesh = np.meshgrid(*axes, indexing="ij")
        pts = np.stack(mesh, axis=-1)
        vol = (axes[0][1] - axes[0][0]) ** 2
        assert abs(g.density(pts).sum() * vol - 1.0) < 1e-6

    def test_sample_moments(self):
        g = Gaussian([2.0, -1.0], [[1.0, 0.3], [0.3, 0.5]])
        rng = np.random.default_rng(7)
        samples = g.sample(rng, 200_000)
        assert np.allclose(samples.mean(axis=0), g.mean, atol=0.02)
        assert np.allclose(np.cov(samples.T), g.cov, atol=0.02)

    def test_rejects_indefinite_covariance(self):
        with pytest.raises(ProblemError):
            Gaussian([0.0, 0.0], [[1.0, 2.0], [2.0, 1.0]])


class TestValidateLqg:
    """An LqgProblem is checked when it is built: a bad one is a
    ProblemError with one FAIL line per failed check."""

    def base_problem(self, **overrides):
        kwargs = dict(
            A=np.array([[1.0, 0.0], [1.0, 0.0]]),
            B=np.eye(2),
            sigma=np.eye(2),
            Q=np.diag([1.0, 0.0]),
            R=np.eye(2),
            P=np.zeros((2, 2)),
            mu0=np.zeros(2),
            lambda0=np.eye(2),
            horizon=10.0,
            dt=0.01,
            d_x=1,
            d_z=1,
        )
        kwargs.update(overrides)
        return LqgProblem(**kwargs)

    def refused(self, **overrides):
        with pytest.raises(ProblemError, match="invalid problem") as error:
            self.base_problem(**overrides)
        return failed_checks(error)

    def test_standard_problem_passes(self):
        self.base_problem()

    def test_zero_r_fails(self):
        assert self.refused(R=np.zeros((2, 2))) == ["R positive definite"]

    def test_indefinite_lambda0_fails(self):
        assert self.refused(lambda0=np.diag([1.0, -1.0])) == ["Lambda0 positive definite"]

    def test_negative_horizon_fails(self):
        assert self.refused(horizon=-1.0) == ["horizon positive", "time step valid"]

    def test_non_square_p_is_refused_by_shape(self):
        # the shape is checked before the eigenvalues, which need a square P
        assert self.refused(P=np.zeros((2, 3))) == ["P shape"]

    def test_time_varying_coefficients(self):
        problem = self.base_problem(Q=lambda t: np.diag([1.0 + t, 0.0]))
        assert np.array_equal(problem.stages.Q[-1], np.diag([11.0, 0.0]))

    def test_n_steps_and_times(self):
        prob = self.base_problem()
        assert prob.n_steps == 1000
        times = prob.stages.node_times
        assert times.shape == (1001,)
        assert times[0] == 0.0 and times[-1] == 10.0

    def test_step_must_divide_the_horizon(self):
        # T/dt = 333.3: rounding it to 333 steps would solve at dt = 1/333.
        # The coefficients are not read under a bad time step.
        def unread(t):
            raise AssertionError("read under a bad time step")

        assert self.refused(horizon=1.0, dt=0.003, A=unread) == [
            "time step divides the horizon"
        ]
        self.base_problem(horizon=1.0, dt=0.004)

    def test_n_steps_follows_the_step_rule(self):
        with pytest.raises(ProblemError, match="not a multiple of dt"):
            self.base_problem(horizon=1.0, dt=0.003)
        problem = self.base_problem(horizon=1.0, dt=0.004)
        assert problem.n_steps == problem.stages.n == 250

    def test_r_is_checked_between_the_old_sample_times(self):
        # cos(4 pi t) is 1 at t = 0, 1/2 and 1, but negative from t = 1/8
        # to 3/8, where the sweeps read R (first at the node t = 0.13).
        # Solving it used to fail later, on a non-finite Psi.
        with pytest.raises(ProblemError, match="at t=0.13") as error:
            self.base_problem(
                A=np.zeros((2, 2)), Q=np.eye(2), horizon=1.0, dt=0.01,
                R=lambda t: np.cos(4.0 * np.pi * t) * np.eye(2),
            )
        assert failed_checks(error) == ["R positive definite"]

    def test_constant_coefficients_are_read_only_float_matrices(self):
        problem = self.base_problem(B=[[1], [0]], R=2)
        A, B, sigma, Q, R = problem.coefficients(0.7)
        assert B.dtype == float and B.shape == (2, 1) and R.shape == (1, 1)
        assert A is problem.A and not A.flags.writeable
        assert problem.d_u == 1

    @settings(max_examples=100, deadline=None)
    @given(
        d_u=st.sampled_from([1, 2]),
        n=st.integers(2, 40),
        scale=st.floats(0.0, 4.0),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_time_varying_r_is_checked_at_every_stage_time(self, d_u, n, scale, seed):
        # R(t) = R0 + t R1 with R0 positive definite and R1 symmetric; the
        # brute force reads R where the sweeps do, at the 2n + 1 nodes and
        # step midpoints. The problem is refused iff the brute force fails.
        rng = np.random.default_rng(seed)
        a, b = rng.standard_normal((2, d_u, d_u))
        R0 = a + a.T + (2.0 * np.abs(a).sum() + 0.1) * np.eye(d_u)
        R1 = scale * np.abs(a).sum() * (b + b.T)
        horizon = 1.0 + rng.uniform()
        times = np.linspace(0.0, horizon, 2 * n + 1)
        brute = all(np.linalg.eigvalsh(R0 + t * R1).min() > 0.0 for t in times)
        try:
            self.base_problem(
                B=np.ones((2, d_u)), R=lambda t: R0 + t * R1, horizon=horizon, dt=horizon / n,
            )
            refused = False
        except ProblemError as exc:
            assert "FAIL: R positive definite" in str(exc)
            refused = True
        assert refused != brute


class TestGridSpec:
    def test_spacing_and_volume(self):
        g = GridSpec(lower=[-3, -3], upper=[3, 3], shape=(61, 61), n_t=100, horizon=1.0)
        assert np.allclose(g.spacing, [0.1, 0.1])
        assert abs(g.cell_volume - 0.01) < 1e-15
        assert abs(g.dt - 0.01) < 1e-15

    def test_axes_hit_bounds(self):
        g = GridSpec(lower=[-1], upper=[2], shape=(4,), n_t=10, horizon=1.0)
        assert np.allclose(g.axes[0], [-1.0, 0.0, 1.0, 2.0])

    def test_mesh_shapes(self):
        g = GridSpec(lower=[0, 0], upper=[1, 1], shape=(3, 5), n_t=10, horizon=1.0)
        mesh = g.mesh()
        assert len(mesh) == 2
        assert mesh[0].shape == (3, 5)

    def test_memory_split(self):
        g = GridSpec(lower=[0, 0], upper=[1, 1], shape=(3, 5), n_t=10, horizon=1.0)
        assert g.memory_shape(1) == (5,)
        assert np.allclose(g.memory_axes(1)[0], np.linspace(0, 1, 5))

    def test_rejects_bad_bounds(self):
        with pytest.raises(ProblemError):
            GridSpec(lower=[1], upper=[0], shape=(5,), n_t=10, horizon=1.0)

    @pytest.mark.parametrize(
        "lower, upper, horizon, match",
        [
            ([0.0], [np.inf], 1.0, "bounds must be finite"),
            ([np.nan], [1.0], 1.0, "bounds must be finite"),
            ([0.0], [1.0], np.nan, "horizon must be finite"),
            ([0.0], [1.0], np.inf, "horizon must be finite"),
        ],
    )
    def test_rejects_non_finite_bounds_and_horizon(self, lower, upper, horizon, match):
        with pytest.raises(ProblemError, match=match):
            GridSpec(lower=lower, upper=upper, shape=(5,), n_t=10, horizon=horizon)

    def test_rejects_single_node_axis(self):
        with pytest.raises(ProblemError):
            GridSpec(lower=[0], upper=[1], shape=(1,), n_t=10, horizon=1.0)
