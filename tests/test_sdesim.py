"""Tests for the Euler-Maruyama path simulator."""

import hashlib
import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.interpolate import RegularGridInterpolator

from fbsweep import artifacts, sdesim
from fbsweep.cli import main
from fbsweep.config import (
    bundled_config_path,
    parse_config,
    simulation_cost,
    simulation_dynamics,
)
from fbsweep.core import CostSpec, ExtendedDynamics, Gaussian, GridSpec, ProblemError
from fbsweep.lqg import LqgControlLaw, fbsm_lqg
from fbsweep.core import LqgProblem
from fbsweep.sdesim import (
    GridControlLaw,
    _cell_index,
    estimate_objective,
    simulate_paths,
)


def zero_control(t, z):
    return np.zeros((z.shape[0], 1))


def scalar_dynamics(drift, diffusion, mean=1.0, var=0.25):
    return ExtendedDynamics(
        d_x=1,
        d_z=0,
        d_u=1,
        d_w=1,
        drift=drift,
        diffusion=diffusion,
        initial_density=Gaussian([mean], [[var]]),
    )


def mixed_explosion_case(threshold):
    """Dynamics whose x blows up (one step to inf) only once it exceeds
    the threshold, a zero grid law on a narrow memory domain, and a
    quadratic running cost."""
    dyn = ExtendedDynamics(
        d_x=1,
        d_z=1,
        d_u=1,
        d_w=2,
        drift=lambda t, s, u: np.stack(
            [np.where(s[:, 0] > threshold, np.inf, 0.0), np.zeros(len(s))], axis=-1
        ),
        diffusion=lambda t, s, u: np.eye(2),
        initial_density=Gaussian([0.0, 0.0], np.diag([0.25, 1.0])),
    )
    grid = GridSpec([-5.0, -0.5], [5.0, 0.5], (3, 5), 50, 1.0)
    law = GridControlLaw(np.zeros((50, 5, 1)), grid, d_x=1)
    cost = CostSpec(
        running_cost=lambda t, s, u: s[:, 0] ** 2 + s[:, 1] ** 2,
        terminal_cost=lambda s: np.zeros(s.shape[0]),
    )
    return dyn, law, cost


class TestSimulatePaths:
    def test_bitwise_determinism(self):
        dyn = scalar_dynamics(
            drift=lambda t, s, u: -s,
            diffusion=lambda t, s, u: np.array([[0.5]]),
        )
        a = simulate_paths(dyn, zero_control, 1.0, 0.01, 50, seed=11)
        b = simulate_paths(dyn, zero_control, 1.0, 0.01, 50, seed=11)
        assert np.array_equal(a.states, b.states)
        assert np.array_equal(a.controls, b.controls)
        c = simulate_paths(dyn, zero_control, 1.0, 0.01, 50, seed=12)
        assert not np.array_equal(a.states, c.states)

    def test_exponential_growth_without_noise(self):
        dyn = scalar_dynamics(
            drift=lambda t, s, u: s,
            diffusion=lambda t, s, u: np.array([[0.0]]),
            mean=1.0,
            var=1e-12,
        )
        ens = simulate_paths(dyn, zero_control, 1.0, 1e-3, 4, seed=0)
        final = ens.states[:, -1, 0]
        assert np.max(np.abs(final / np.exp(1.0) - 1.0)) < 2e-3

    def test_constant_paths_without_drift_or_noise(self):
        dyn = scalar_dynamics(
            drift=lambda t, s, u: np.zeros_like(s),
            diffusion=lambda t, s, u: np.array([[0.0]]),
        )
        ens = simulate_paths(dyn, zero_control, 1.0, 0.05, 10, seed=3)
        assert np.all(ens.states == ens.states[:, :1, :])

    def test_wiener_variance_growth(self):
        dyn = scalar_dynamics(
            drift=lambda t, s, u: np.zeros_like(s),
            diffusion=lambda t, s, u: np.array([[1.0]]),
            mean=0.0,
            var=0.25,
        )
        n = 10000
        ens = simulate_paths(dyn, zero_control, 1.0, 0.01, n, seed=7)
        var = ens.states[:, -1, 0].var(ddof=1)
        target = 0.25 + 1.0
        se = target * np.sqrt(2.0 / (n - 1))
        assert abs(var - target) < 3 * se

    def test_horizon_must_be_step_multiple(self):
        dyn = scalar_dynamics(
            drift=lambda t, s, u: np.zeros_like(s),
            diffusion=lambda t, s, u: np.array([[0.0]]),
        )
        with pytest.raises(ProblemError, match="multiple"):
            simulate_paths(dyn, zero_control, 1.0, 0.3, 4, seed=0)

    def test_step_must_divide_the_horizon_to_1e_9_of_a_step(self):
        """The rule config documents and --dt follow: 1000.0000005 steps of
        a 10 s horizon fall 5e-9 s short of it in time but 5e-7 of a step
        in steps, so the step is refused."""
        dyn = scalar_dynamics(
            drift=lambda t, s, u: np.zeros_like(s),
            diffusion=lambda t, s, u: np.array([[0.0]]),
        )
        with pytest.raises(ProblemError, match="multiple"):
            simulate_paths(dyn, zero_control, 10.0, 10.0 / 1000.0000005, 2, seed=0)
        ensemble = simulate_paths(dyn, zero_control, 10.0, 10.0 / 1000, 2, seed=0)
        assert ensemble.times.size == 1001

    def test_control_sees_only_memory(self):
        dyn = ExtendedDynamics(
            d_x=2,
            d_z=1,
            d_u=1,
            d_w=3,
            drift=lambda t, s, u: np.zeros_like(s),
            diffusion=lambda t, s, u: np.eye(3),
            initial_density=Gaussian(np.zeros(3), np.eye(3)),
        )
        seen = []

        def spy(t, z):
            seen.append(z.shape)
            return np.zeros((z.shape[0], 1))

        simulate_paths(dyn, spy, 0.1, 0.05, 6, seed=1)
        assert seen and all(shape == (6, 1) for shape in seen)

    def test_exploding_paths_flagged_and_excluded(self):
        dyn = scalar_dynamics(
            drift=lambda t, s, u: np.exp(np.abs(s) * 50.0) * np.sign(s),
            diffusion=lambda t, s, u: np.array([[0.0]]),
            mean=10.0,
            var=1e-6,
        )
        ens = simulate_paths(dyn, zero_control, 1.0, 0.1, 5, seed=2)
        assert ens.n_excluded == 5
        assert np.all(np.isfinite(ens.states))
        cost = CostSpec(
            running_cost=lambda t, s, u: np.zeros(s.shape[0]),
            terminal_cost=lambda s: np.zeros(s.shape[0]),
        )
        with pytest.raises(ProblemError, match="no valid paths"):
            estimate_objective(ens, cost)

    def test_mixed_explosion_freezes_only_the_bad_paths(self):
        threshold = 1.0
        dyn, law, cost = mixed_explosion_case(threshold)
        ens = simulate_paths(dyn, law, 1.0, 0.02, 200, seed=6, cost=cost)
        assert ens.states.shape == (200, 51, 2) and ens.controls.shape == (200, 50, 1)
        assert ens.cumulative_costs.shape == (200, 51)
        x = ens.states[:, :, 0]
        # a path goes bad exactly when a state it steps from exceeds the threshold
        crossed = x[:, :-1] > threshold
        assert np.array_equal(ens.valid, ~crossed.any(axis=1))
        assert 0 < ens.n_excluded < ens.n_paths
        assert np.all(np.isfinite(ens.states))
        for m in np.flatnonzero(~ens.valid):
            k = np.argmax(crossed[m])
            # frozen at its last finite state from step k on, moving before
            assert np.all(ens.states[m, k:] == ens.states[m, k])
            assert np.all(np.diff(x[m, : k + 1]) != 0.0)
        # costs accrue at the left endpoint, frozen paths included
        f = (ens.states[:, :-1, 0] ** 2 + ens.states[:, :-1, 1] ** 2) * 0.02
        assert np.array_equal(ens.cumulative_costs[:, 1:], ens.cumulative_costs[:, :-1] + f)
        assert np.all(ens.cumulative_costs[:, 0] == 0.0)
        # one clamp per step whose memory lies outside the law's domain
        z = ens.states[:, :-1, 1]
        assert np.array_equal(ens.clamp_counts, (np.abs(z) > 0.5).sum(axis=1))
        assert ens.clamp_counts.sum() > 0


def _bundled_document(name, solver, **domain):
    doc = json.loads(bundled_config_path(name).read_text())
    doc["solver"] = dict(doc["solver"], **solver)
    if domain:
        doc["domain"] = dict(doc["domain"], **domain)
    return doc


@pytest.fixture(scope="module")
def bundled_controllers(tmp_path_factory):
    """A 2-sweep controller for the bundled lqg document and a 1-sweep one
    for the bundled obstacle document on a 21x21 grid, solved by the CLI."""
    base = tmp_path_factory.mktemp("controllers")
    docs = {
        "lqg": ("run-lqg", _bundled_document("lqg", {"max_iters": 2})),
        "grid": (
            "run-grid",
            _bundled_document("obstacle", {"max_iters": 1}, shape=[21, 21]),
        ),
    }
    controllers = {}
    for family, (command, doc) in docs.items():
        config_path = base / f"{family}.json"
        config_path.write_text(json.dumps(doc))
        run = base / family
        assert main([command, "--config", str(config_path), "--out", str(run)]) == 0
        cfg = parse_config(doc)
        if family == "lqg":
            p = cfg.lqg_problem
            law = LqgControlLaw(artifacts.read_gains(run, p.d_x), p)
            horizon, dt = p.horizon, p.dt
        else:
            law = GridControlLaw(*artifacts.read_control_table(run))
            horizon, dt = cfg.grid.horizon, cfg.grid.dt
        controllers[family] = (cfg, law, horizon, dt, config_path, run)
    return controllers


# SHA-256 of a 64-path ensemble under each bundled law (arrays taken
# through np.ascontiguousarray) and of paths.csv from a 10-path simulate.
# They pin the simulator's bits on numpy 2.4.6 and scipy 1.17.1 (x86-64);
# another build or CPU can move them.
PINNED_ROLLOUT_DIGESTS = {
    "lqg": {
        "states": "270ca1dfbb8701f96725baf3a4761246871d10a0f18e4fdcf7dee23ebb33a284",
        "controls": "7bfe38cde15ad5fb730e9bbed09736971a799641bdb76f59fc4d5a429999d87d",
        "cumulative_costs": "707e5e833d4d67abb85bdbf0f441289a470ed588abca5f7ada8264a0b88fdc41",
        "paths.csv": "1b106a56118783b8f0644e3a1a0108d8ba640a36d789adcf4eb5fbee03e07273",
    },
    "grid": {
        "states": "9585659d70b8a7bbcac10c2545ce95e9edfa66d22615b7a2f3b5f3e369c95362",
        "controls": "4aaf5b6d66a105b1643280b5d610c0c6174ec2c4d6b63ead60004f6431938ed9",
        "cumulative_costs": "33aca883c7c82d0c977b3897021ba045b080d23341eee96623b3ccbd3037b8d1",
        "paths.csv": "9d7e274bdc1306585f4df2623738566302393c0f3b8607b88667e7f44032c306",
    },
}


@pytest.mark.parametrize("family", ["lqg", "grid"])
def test_bundled_rollouts_are_pinned(family, bundled_controllers, tmp_path):
    cfg, law, horizon, dt, config_path, run = bundled_controllers[family]
    cost = simulation_cost(cfg)
    ens = simulate_paths(simulation_dynamics(cfg), law, horizon, dt, 64, cfg.seed, cost=cost)
    digests = {
        name: hashlib.sha256(np.ascontiguousarray(getattr(ens, name)).tobytes()).hexdigest()
        for name in ("states", "controls", "cumulative_costs")
    }
    out = tmp_path / "sim"
    argv = ["simulate", "--config", str(config_path), "--controller", str(run)]
    assert main(argv + ["--out", str(out), "--paths", "10"]) == 0
    digests["paths.csv"] = hashlib.sha256((out / "paths.csv").read_bytes()).hexdigest()
    assert digests == PINNED_ROLLOUT_DIGESTS[family]


ENSEMBLE_FIELDS = ("states", "controls", "cumulative_costs", "valid", "clamp_counts")


def _size_noise_batch(monkeypatch, steps, n_paths, d_w):
    """Make the simulator's noise buffer hold exactly `steps` steps."""
    monkeypatch.setattr(sdesim, "_NOISE_BATCH", steps * n_paths * d_w)


class TestNoiseBatches:
    """The increments are drawn one batch of steps at a time; the batch
    length must not change a single bit of the ensemble."""

    @pytest.mark.parametrize("steps_per_batch", [1, 7])
    @pytest.mark.parametrize("family", ["lqg", "grid"])
    def test_bundled_rollouts_do_not_depend_on_batch_length(
        self, family, steps_per_batch, bundled_controllers, monkeypatch
    ):
        cfg, law, horizon, dt, _, _ = bundled_controllers[family]
        dyn, cost = simulation_dynamics(cfg), simulation_cost(cfg)
        # 1000 steps: one batch by default, ragged last batch at 7 steps
        whole = simulate_paths(dyn, law, horizon, dt, 64, cfg.seed, cost=cost)
        _size_noise_batch(monkeypatch, steps_per_batch, 64, dyn.d_w)
        batched = simulate_paths(dyn, law, horizon, dt, 64, cfg.seed, cost=cost)
        for name in ENSEMBLE_FIELDS:
            assert np.array_equal(getattr(batched, name), getattr(whole, name)), name

    @pytest.mark.parametrize("steps_per_batch", [1, 7])
    def test_frozen_paths_do_not_depend_on_batch_length(self, steps_per_batch, monkeypatch):
        dyn, law, cost = mixed_explosion_case(1.0)
        whole = simulate_paths(dyn, law, 1.0, 0.02, 200, seed=6, cost=cost)
        assert 0 < whole.n_excluded < whole.n_paths
        _size_noise_batch(monkeypatch, steps_per_batch, 200, dyn.d_w)
        batched = simulate_paths(dyn, law, 1.0, 0.02, 200, seed=6, cost=cost)
        for name in ENSEMBLE_FIELDS:
            assert np.array_equal(getattr(batched, name), getattr(whole, name)), name

    def test_peak_memory_is_the_ensemble_plus_one_batch(self):
        """1000 paths x 4000 steps x 2 noise dimensions: drawn whole, the
        increments alone would take 64 MB."""
        dyn = ExtendedDynamics(
            d_x=1,
            d_z=1,
            d_u=1,
            d_w=2,
            drift=lambda t, s, u: -s,
            diffusion=lambda t, s, u: np.eye(2),
            initial_density=Gaussian([0.0, 0.0], np.eye(2)),
        )
        tracemalloc.start()
        try:
            ens = simulate_paths(dyn, zero_control, 1.0, 1.0 / 4000, 1000, seed=3)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert ens.states.shape == (1000, 4001, 2)
        returned = ens.states.nbytes + ens.controls.nbytes
        assert peak <= returned + 8 * sdesim._NOISE_BATCH + 4 * 2**20


class TestSimulationCost:
    @settings(max_examples=40, deadline=None)
    @given(
        d_x=st.integers(1, 2),
        d_z=st.integers(1, 2),
        n=st.integers(3, 50),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_lqg_cost_has_the_einsum_bits(self, d_x, d_z, n, seed):
        rng = np.random.default_rng(seed)
        d_s = d_x + d_z

        def psd(d):
            a = rng.standard_normal((d, d))
            return a @ a.T + np.eye(d)

        doc = json.loads(bundled_config_path("lqg").read_text())
        doc.update(
            d_x=d_x, d_z=d_z, A=np.zeros((d_s, d_s)).tolist(), B=np.eye(d_s).tolist(),
            sigma=np.eye(d_s).tolist(), Q=psd(d_s).tolist(), R=psd(d_s).tolist(),
            P=psd(d_s).tolist(), mu0=[0.0] * d_s, lambda0=np.eye(d_s).tolist(),
        )
        cfg = parse_config(doc)
        p, cost = cfg.lqg_problem, simulation_cost(cfg)
        s = rng.standard_normal((n, d_s)) * 10.0 ** rng.integers(-3, 4, (n, d_s))
        u = rng.standard_normal((n, d_s))
        form = "...i,ij,...j->..."
        running = np.einsum(form, s, p.Q, s) + np.einsum(form, u, p.R, u)
        assert cost.running_cost(0.0, s, u).tobytes() == running.tobytes()
        assert cost.terminal_cost(s).tobytes() == np.einsum(form, s, p.P, s).tobytes()


class TestEstimateObjective:
    def brownian(self, n=64):
        dyn = scalar_dynamics(
            drift=lambda t, s, u: np.zeros_like(s),
            diffusion=lambda t, s, u: np.array([[1.0]]),
        )
        return dyn, simulate_paths(dyn, zero_control, 2.0, 0.01, n, seed=5)

    def test_zero_cost(self):
        _, ens = self.brownian()
        cost = CostSpec(
            running_cost=lambda t, s, u: np.zeros(s.shape[0]),
            terminal_cost=lambda s: np.zeros(s.shape[0]),
        )
        mean, se = estimate_objective(ens, cost)
        assert mean == 0.0 and se == 0.0

    def test_unit_running_cost_gives_horizon(self):
        _, ens = self.brownian()
        cost = CostSpec(
            running_cost=lambda t, s, u: np.ones(s.shape[0]),
            terminal_cost=lambda s: np.zeros(s.shape[0]),
        )
        mean, se = estimate_objective(ens, cost)
        assert abs(mean - 2.0) < 1e-12
        assert se < 1e-12

    def test_cumulative_cost_nondecreasing(self):
        dyn = scalar_dynamics(
            drift=lambda t, s, u: np.zeros_like(s),
            diffusion=lambda t, s, u: np.array([[1.0]]),
        )
        cost = CostSpec(
            running_cost=lambda t, s, u: s[:, 0] ** 2,
            terminal_cost=lambda s: np.zeros(s.shape[0]),
        )
        ens = simulate_paths(dyn, zero_control, 1.0, 0.02, 20, seed=9, cost=cost)
        assert ens.cumulative_costs is not None
        diffs = np.diff(ens.cumulative_costs, axis=1)
        assert np.all(diffs >= 0.0)
        mean_stored, _ = estimate_objective(ens, cost)
        ens_bare = simulate_paths(dyn, zero_control, 1.0, 0.02, 20, seed=9)
        mean_recomputed, _ = estimate_objective(ens_bare, cost)
        assert abs(mean_stored - mean_recomputed) < 1e-12


class TestGridControlLaw:
    def test_interpolation_and_clamping(self):
        grid = GridSpec([-1.0, -2.0], [1.0, 2.0], (5, 9), 4, 1.0)
        z_axis = grid.memory_axes(1)[0]
        values = np.empty((4, 9, 1))
        for i in range(4):
            values[i, :, 0] = (i + 1) * z_axis
        law = GridControlLaw(values, grid, d_x=1)
        z = np.array([[0.5], [-3.0], [3.0]])
        u = law.evaluate_memory(0.0, z)
        assert abs(u[0, 0] - 0.5) < 1e-12
        assert abs(u[1, 0] - (-2.0)) < 1e-12
        assert abs(u[2, 0] - 2.0) < 1e-12
        u_mid = law.evaluate_memory(0.3, np.array([[1.0]]))
        assert abs(u_mid[0, 0] - 2.0) < 1e-12
        u_end = law.evaluate_memory(1.0, np.array([[1.0]]))
        assert abs(u_end[0, 0] - 4.0) < 1e-12

    def test_clamp_counting_in_simulation(self):
        grid = GridSpec([-5.0, -0.1], [5.0, 0.1], (5, 5), 10, 1.0)
        values = np.zeros((10, 5, 1))
        law = GridControlLaw(values, grid, d_x=1)
        dyn = ExtendedDynamics(
            d_x=1,
            d_z=1,
            d_u=1,
            d_w=2,
            drift=lambda t, s, u: np.zeros_like(s),
            diffusion=lambda t, s, u: np.eye(2),
            initial_density=Gaussian(np.zeros(2), np.eye(2)),
        )
        ens = simulate_paths(dyn, law, 1.0, 0.1, 40, seed=4)
        assert ens.clamp_counts.sum() > 0
        assert ens.clamp_counts.max() <= 10

    def test_table_shape_checked(self):
        grid = GridSpec([-1.0, -2.0], [1.0, 2.0], (5, 9), 4, 1.0)
        with pytest.raises(ProblemError, match="shape"):
            GridControlLaw(np.zeros((4, 8, 1)), grid, d_x=1)
        with pytest.raises(ProblemError, match="shape"):
            GridControlLaw(np.zeros((4, 9)), grid, d_x=1)
        with pytest.raises(ProblemError, match="shape"):
            GridControlLaw(np.zeros((3, 9, 1)), grid, d_x=1)


@st.composite
def memory_grids(draw, d_z):
    """A grid with uniform memory axes of 2-60 nodes, a control table with
    d_u of 1 or 2, and query points on nodes, inside, on the box edges and
    outside the box."""
    n = [draw(st.integers(2, 60)) for _ in range(d_z)]
    lo = [draw(st.floats(-5.0, 5.0)) for _ in range(d_z)]
    width = [draw(st.floats(0.01, 10.0)) for _ in range(d_z)]
    d_u = draw(st.sampled_from([1, 2]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    grid = GridSpec(
        [0.0] + lo, [1.0] + [a + w for a, w in zip(lo, width)], [2] + n, 1, 1.0
    )
    axes = grid.memory_axes(1)
    table = rng.standard_normal(tuple(n) + (d_u,)) * 10.0 ** rng.integers(-3, 4)
    table[rng.random(table.shape) < 0.1] = -0.0
    cols = []
    for axis in axes:
        lo_j, hi_j = axis[0], axis[-1]
        span = hi_j - lo_j
        cols.append(np.concatenate([
            rng.choice(axis, 30),
            rng.uniform(lo_j, hi_j, 30),
            [lo_j, hi_j],
            rng.uniform(lo_j - span, lo_j, 10),
            rng.uniform(hi_j, hi_j + span, 10),
        ]))
    z = np.stack([rng.permutation(c) for c in cols], axis=-1)
    return grid, axes, table, z


class TestMultilinearEvaluator:
    @settings(max_examples=60, deadline=None)
    @given(case=st.integers(1, 2).flatmap(memory_grids))
    def test_matches_regular_grid_interpolator(self, case):
        grid, axes, table, z = case
        law = GridControlLaw(table[None], grid, d_x=1)
        zc = np.clip(z, grid.lower[1:], grid.upper[1:])
        expect = RegularGridInterpolator(axes, table)(zc)
        u = law.evaluate_memory(0.0, z)
        # identical bits, signed zeros included: same cells, weights and
        # corner order as scipy
        assert u.shape == expect.shape and u.tobytes() == expect.tobytes()

    @settings(max_examples=60, deadline=None)
    @given(case=st.integers(1, 2).flatmap(memory_grids))
    def test_cell_index_is_clipped_searchsorted(self, case):
        _, axes, _, z = case
        for j, axis in enumerate(axes):
            expect = np.searchsorted(axis, z[:, j], side="right") - 1
            assert np.array_equal(
                _cell_index(axis, z[:, j]), np.clip(expect, 0, axis.size - 2)
            )


class TestLqgClosedLoop:
    def test_sample_mean_tracks_planned_mean(self):
        problem = LqgProblem(
            A=np.array([[1.0, 0.0], [1.0, 0.0]]),
            B=np.eye(2),
            sigma=np.eye(2),
            Q=np.diag([1.0, 0.0]),
            R=np.eye(2),
            P=np.zeros((2, 2)),
            mu0=np.array([2.0, 1.0]),
            lambda0=np.eye(2),
            horizon=2.0,
            dt=0.01,
            d_x=1,
            d_z=1,
        )
        result = fbsm_lqg(problem, max_iters=6, tol=0.0)
        law = result.control_law()
        dyn = ExtendedDynamics(
            d_x=1,
            d_z=1,
            d_u=2,
            d_w=2,
            drift=lambda t, s, u: s @ problem.A.T + u @ problem.B.T,
            diffusion=lambda t, s, u: problem.sigma,
            initial_density=problem.initial_density(),
        )
        n = 4000
        ens = simulate_paths(dyn, law, 2.0, 0.01, n, seed=21)
        assert ens.n_excluded == 0
        for idx in (50, 100, 200):
            emp = ens.states[:, idx, :].mean(axis=0)
            se = ens.states[:, idx, :].std(axis=0, ddof=1) / np.sqrt(n)
            planned = result.gains.mu[idx]
            assert np.all(np.abs(emp - planned) < 3.5 * se + 0.02)
