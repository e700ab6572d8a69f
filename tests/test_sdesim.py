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


class MemoryLaw:
    """A memory-feedback law u(t, z), as simulate_paths takes one."""

    def __init__(self, evaluate_memory):
        self.evaluate_memory = evaluate_memory


zero_control = MemoryLaw(lambda t, z: np.zeros((z.shape[0], 1)))
ZERO_COST = CostSpec(
    running_cost=lambda t, s, u: np.zeros(s.shape[0]),
    terminal_cost=lambda s: np.zeros(s.shape[0]),
)


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
        a = simulate_paths(dyn, zero_control, 1.0, 0.01, 50, seed=11, cost=ZERO_COST, history=True)
        b = simulate_paths(dyn, zero_control, 1.0, 0.01, 50, seed=11, cost=ZERO_COST, history=True)
        assert np.array_equal(a.states, b.states)
        assert np.array_equal(a.controls, b.controls)
        c = simulate_paths(dyn, zero_control, 1.0, 0.01, 50, seed=12, cost=ZERO_COST, history=True)
        assert not np.array_equal(a.states, c.states)

    def test_exponential_growth_without_noise(self):
        dyn = scalar_dynamics(
            drift=lambda t, s, u: s,
            diffusion=lambda t, s, u: np.array([[0.0]]),
            mean=1.0,
            var=1e-12,
        )
        ens = simulate_paths(dyn, zero_control, 1.0, 1e-3, 4, seed=0, cost=ZERO_COST, history=True)
        final = ens.states[:, -1, 0]
        assert np.max(np.abs(final / np.exp(1.0) - 1.0)) < 2e-3

    def test_constant_paths_without_drift_or_noise(self):
        dyn = scalar_dynamics(
            drift=lambda t, s, u: np.zeros_like(s),
            diffusion=lambda t, s, u: np.array([[0.0]]),
        )
        ens = simulate_paths(dyn, zero_control, 1.0, 0.05, 10, seed=3, cost=ZERO_COST, history=True)
        assert np.all(ens.states == ens.states[:, :1, :])

    def test_wiener_variance_growth(self):
        dyn = scalar_dynamics(
            drift=lambda t, s, u: np.zeros_like(s),
            diffusion=lambda t, s, u: np.array([[1.0]]),
            mean=0.0,
            var=0.25,
        )
        n = 10000
        ens = simulate_paths(dyn, zero_control, 1.0, 0.01, n, seed=7, cost=ZERO_COST, history=True)
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
            simulate_paths(dyn, zero_control, 1.0, 0.3, 4, seed=0, cost=ZERO_COST)

    def test_step_must_divide_the_horizon_to_1e_9_of_a_step(self):
        """The rule config documents and --dt follow: 1000.0000005 steps of
        a 10 s horizon fall 5e-9 s short of it in time but 5e-7 of a step
        in steps, so the step is refused."""
        dyn = scalar_dynamics(
            drift=lambda t, s, u: np.zeros_like(s),
            diffusion=lambda t, s, u: np.array([[0.0]]),
        )
        with pytest.raises(ProblemError, match="multiple"):
            simulate_paths(dyn, zero_control, 10.0, 10.0 / 1000.0000005, 2, 0, ZERO_COST)
        ensemble = simulate_paths(dyn, zero_control, 10.0, 10.0 / 1000, 2, 0, ZERO_COST)
        assert ensemble.times.size == 1001

    @pytest.mark.parametrize("shape", [(4, 1, 1), (1,), (), (1, 2)])
    def test_diffusion_must_be_one_matrix(self, shape):
        # one (d_s, d_w) matrix per step, shared by all paths; a per-path
        # stack (4 paths here) or any other shape is refused
        dyn = scalar_dynamics(
            drift=lambda t, s, u: np.zeros_like(s),
            diffusion=lambda t, s, u: np.ones(shape),
        )
        with pytest.raises(ProblemError, match=r"expected one \(1, 1\) matrix"):
            simulate_paths(dyn, zero_control, 1.0, 0.1, 4, seed=0, cost=ZERO_COST)

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

        simulate_paths(dyn, MemoryLaw(spy), 0.1, 0.05, 6, seed=1, cost=ZERO_COST)
        assert seen and all(shape == (6, 1) for shape in seen)

    @pytest.mark.parametrize(
        "control", [zero_control.evaluate_memory, object()], ids=["callable", "object"]
    )
    def test_control_must_expose_evaluate_memory(self, control):
        """A bare callable is refused like any other object without the
        method: the ensemble replays its law through evaluate_memory."""
        dyn = scalar_dynamics(
            drift=lambda t, s, u: np.zeros_like(s),
            diffusion=lambda t, s, u: np.array([[1.0]]),
        )
        with pytest.raises(ProblemError, match="evaluate_memory"):
            simulate_paths(dyn, control, 1.0, 0.1, 4, seed=0, cost=ZERO_COST)

    def test_exploding_paths_flagged_and_excluded(self):
        dyn = scalar_dynamics(
            drift=lambda t, s, u: np.exp(np.abs(s) * 50.0) * np.sign(s),
            diffusion=lambda t, s, u: np.array([[0.0]]),
            mean=10.0,
            var=1e-6,
        )
        ens = simulate_paths(dyn, zero_control, 1.0, 0.1, 5, seed=2, cost=ZERO_COST, history=True)
        assert ens.n_excluded == 5
        assert np.all(np.isfinite(ens.states))
        with pytest.raises(ProblemError, match="no valid paths"):
            estimate_objective(ens, ZERO_COST)

    def test_mixed_explosion_freezes_only_the_bad_paths(self):
        threshold = 1.0
        dyn, law, cost = mixed_explosion_case(threshold)
        ens = simulate_paths(dyn, law, 1.0, 0.02, 200, seed=6, cost=cost, history=True)
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
    ens = simulate_paths(
        simulation_dynamics(cfg), law, horizon, dt, 64, cfg.seed, cost=cost, history=True
    )
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
        whole = simulate_paths(dyn, law, horizon, dt, 64, cfg.seed, cost=cost, history=True)
        _size_noise_batch(monkeypatch, steps_per_batch, 64, dyn.d_w)
        batched = simulate_paths(dyn, law, horizon, dt, 64, cfg.seed, cost=cost, history=True)
        for name in ENSEMBLE_FIELDS:
            assert np.array_equal(getattr(batched, name), getattr(whole, name)), name

    @pytest.mark.parametrize("steps_per_batch", [1, 7])
    def test_frozen_paths_do_not_depend_on_batch_length(self, steps_per_batch, monkeypatch):
        dyn, law, cost = mixed_explosion_case(1.0)
        whole = simulate_paths(dyn, law, 1.0, 0.02, 200, seed=6, cost=cost, history=True)
        assert 0 < whole.n_excluded < whole.n_paths
        _size_noise_batch(monkeypatch, steps_per_batch, 200, dyn.d_w)
        batched = simulate_paths(dyn, law, 1.0, 0.02, 200, seed=6, cost=cost, history=True)
        for name in ENSEMBLE_FIELDS:
            assert np.array_equal(getattr(batched, name), getattr(whole, name)), name

    def test_peak_memory_is_the_ensemble_plus_one_batch(self):
        """1000 paths x 4000 steps x 2 noise dimensions: drawn whole, the
        increments alone would take 64 MB, and a stored control history
        32 MB. The simulation holds neither; the history is derived on
        first access, after the measured region."""
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
            ens = simulate_paths(
                dyn, zero_control, 1.0, 1.0 / 4000, 1000, seed=3, cost=ZERO_COST, history=True
            )
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert ens.states.shape == (1000, 4001, 2)
        assert peak <= ens.states.nbytes + 8 * sdesim._NOISE_BATCH + 4 * 2**20
        assert ens.controls.shape == (1000, 4000, 1)


ESTIMATE_FIELDS = ("final_states", "valid", "clamp_counts", "_cost_totals")


def assert_history_free_matches(dyn, law, horizon, dt, n_paths, seed, cost):
    """A history-free ensemble holds the bits of a history ensemble's
    final states, flags, clamp counts and totals, and gives its estimate."""
    full = simulate_paths(dyn, law, horizon, dt, n_paths, seed, cost=cost, history=True)
    free = simulate_paths(dyn, law, horizon, dt, n_paths, seed, cost=cost)
    assert free.states is None
    assert np.array_equal(full.final_states, full.states[:, -1])
    for name in ESTIMATE_FIELDS:
        assert np.array_equal(getattr(free, name), getattr(full, name)), name
    if full.valid.any():
        assert estimate_objective(free, cost) == estimate_objective(full, cost)
    return free, full


class TestWithoutHistory:
    """The default keeps what estimate_objective reads and no history."""

    @pytest.mark.parametrize("steps_per_batch", [None, 1, 7])
    @pytest.mark.parametrize("family", ["lqg", "grid"])
    def test_bundled_rollouts_keep_their_estimate_bits(
        self, family, steps_per_batch, bundled_controllers, monkeypatch
    ):
        cfg, law, horizon, dt, _, _ = bundled_controllers[family]
        dyn, cost = simulation_dynamics(cfg), simulation_cost(cfg)
        if steps_per_batch is not None:
            _size_noise_batch(monkeypatch, steps_per_batch, 64, dyn.d_w)
        assert_history_free_matches(dyn, law, horizon, dt, 64, cfg.seed, cost)

    @pytest.mark.parametrize("steps_per_batch", [None, 1, 7])
    @pytest.mark.parametrize("horizon", [1.0, 0.98], ids=["50-steps", "49-steps"])
    def test_frozen_paths_keep_their_estimate_bits(self, horizon, steps_per_batch, monkeypatch):
        """The mixed-explosion case under a nonzero law and a cost that
        reads the control, ending on either slice of the two-slice buffer."""
        dyn, law, cost = TestDerivedCosts.frozen_case()
        if steps_per_batch is not None:
            _size_noise_batch(monkeypatch, steps_per_batch, 200, dyn.d_w)
        free, _ = assert_history_free_matches(dyn, law, horizon, 0.02, 200, 6, cost)
        assert 0 < free.n_excluded < free.n_paths and free.clamp_counts.sum() > 0
        assert free.n_paths == 200 and free.final_states.shape == (200, 2)

    def test_peak_memory_is_one_noise_batch(self):
        """1000 paths x 4000 steps x 2 state dimensions: a state history
        would take 64 MB on its own."""
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
            ens = simulate_paths(dyn, zero_control, 1.0, 1.0 / 4000, 1000, seed=3, cost=ZERO_COST)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 8 * sdesim._NOISE_BATCH + 4 * 2**20
        assert ens.final_states.shape == (1000, 2)

    @pytest.mark.parametrize("name", ["controls", "cumulative_costs"])
    def test_histories_are_refused(self, name):
        dyn, law, cost = mixed_explosion_case(1.0)
        ens = simulate_paths(dyn, law, 1.0, 0.02, 20, seed=6, cost=cost)
        with pytest.raises(ProblemError, match="history=True"):
            getattr(ens, name)

    def test_write_paths_is_refused_before_writing(self, tmp_path):
        dyn, law, cost = mixed_explosion_case(1.0)
        ens = simulate_paths(dyn, law, 1.0, 0.02, 20, seed=6, cost=cost)
        with pytest.raises(ProblemError, match="history=True"):
            artifacts.write_paths(tmp_path, ens)
        assert not (tmp_path / artifacts.PATHS_FILE).exists()


class TestDerivedCosts:
    """The simulation keeps one running cost total per path; the history
    is replayed from the stored states on first access."""

    @staticmethod
    def frozen_case():
        """The mixed-explosion dynamics under a nonzero grid law, with a
        running cost that reads the control."""
        dyn, _, _ = mixed_explosion_case(1.0)
        grid = GridSpec([-5.0, -0.5], [5.0, 0.5], (3, 5), 50, 1.0)
        values = np.random.default_rng(4).standard_normal((50, 5, 1))
        law = GridControlLaw(values, grid, d_x=1)
        cost = CostSpec(
            running_cost=lambda t, s, u: s[:, 0] ** 2 + 0.5 * s[:, 1] * u[:, 0] + u[:, 0] ** 2,
            terminal_cost=lambda s: s[:, 1] ** 2,
        )
        return dyn, law, cost

    def test_history_has_the_time_major_accumulation_bits(self):
        dyn, law, cost = self.frozen_case()
        ens = simulate_paths(dyn, law, 1.0, 0.02, 200, seed=6, cost=cost, history=True)
        assert 0 < ens.n_excluded < ens.n_paths
        cum = np.zeros((51, 200))
        for i, t in enumerate(ens.times[:-1]):
            u = np.ascontiguousarray(ens.controls[:, i])
            f = cost.running_cost(t, ens.states[:, i], u)
            np.add(cum[i], f * 0.02, out=cum[i + 1])
        history = ens.cumulative_costs
        assert history.shape == (200, 51)
        assert np.ascontiguousarray(history).tobytes() == cum.T.tobytes()
        assert ens.cumulative_costs is history

    def test_stored_totals_give_the_replayed_estimate(self):
        """An equal but distinct CostSpec (the same two callables) reads
        the kept totals, which have the bits of the replayed history."""
        dyn, law, cost = self.frozen_case()
        ens = simulate_paths(dyn, law, 1.0, 0.02, 200, seed=6, cost=cost, history=True)
        same_cost = CostSpec(cost.running_cost, cost.terminal_cost)
        mean, _ = estimate_objective(ens, same_cost)
        valid = ens.valid
        terminal = cost.terminal_cost(ens.states[valid, -1])
        assert mean == float((ens.cumulative_costs[valid, -1] + terminal).mean())
        assert estimate_objective(ens, cost) == estimate_objective(ens, same_cost)

    def test_estimate_uses_the_given_cost_alone(self):
        """An ensemble simulated under cost a cannot be estimated under a
        cost b: it keeps a's running totals only, and mixing them with
        b's terminal cost would price neither."""
        dyn, law, cost_a = self.frozen_case()
        cost_b = CostSpec(
            running_cost=lambda t, s, u: np.abs(s[:, 1]) + 3.0 * u[:, 0] ** 2,
            terminal_cost=lambda s: s[:, 0] ** 2,
        )
        stored = simulate_paths(dyn, law, 1.0, 0.02, 200, seed=6, cost=cost_a)
        with pytest.raises(ProblemError, match="another cost"):
            estimate_objective(stored, cost_b)
        # the same callables in another order are another cost too
        swapped = CostSpec(cost_a.running_cost, cost_b.terminal_cost)
        with pytest.raises(ProblemError, match="another cost"):
            estimate_objective(stored, swapped)

    def test_peak_memory_holds_no_cost_history(self, monkeypatch):
        """1000 paths x 400 steps with a cost: the states take 6.4 MB, and
        a stored cost history would add 3.2 MB on top of them."""
        dyn = ExtendedDynamics(
            d_x=1,
            d_z=1,
            d_u=1,
            d_w=2,
            drift=lambda t, s, u: -s,
            diffusion=lambda t, s, u: np.eye(2),
            initial_density=Gaussian([0.0, 0.0], np.eye(2)),
        )
        cost = CostSpec(
            running_cost=lambda t, s, u: s[:, 0] ** 2 + u[:, 0] ** 2,
            terminal_cost=lambda s: s[:, 0] ** 2,
        )
        _size_noise_batch(monkeypatch, 10, 1000, 2)
        tracemalloc.start()
        try:
            ens = simulate_paths(
                dyn, zero_control, 1.0, 1.0 / 400, 1000, seed=3, cost=cost, history=True
            )
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert ens.states.shape == (1000, 401, 2)
        assert peak < 1.5 * ens.states.nbytes
        assert ens.cumulative_costs.shape == (1000, 401)


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
    def brownian(self, cost, n=64):
        dyn = scalar_dynamics(
            drift=lambda t, s, u: np.zeros_like(s),
            diffusion=lambda t, s, u: np.array([[1.0]]),
        )
        return simulate_paths(dyn, zero_control, 2.0, 0.01, n, seed=5, cost=cost)

    def test_zero_cost(self):
        mean, se = estimate_objective(self.brownian(ZERO_COST), ZERO_COST)
        assert mean == 0.0 and se == 0.0

    def test_unit_running_cost_gives_horizon(self):
        cost = CostSpec(
            running_cost=lambda t, s, u: np.ones(s.shape[0]),
            terminal_cost=lambda s: np.zeros(s.shape[0]),
        )
        mean, se = estimate_objective(self.brownian(cost), cost)
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
        ens = simulate_paths(dyn, zero_control, 1.0, 0.02, 20, seed=9, cost=cost, history=True)
        diffs = np.diff(ens.cumulative_costs, axis=1)
        assert np.all(diffs >= 0.0)
        mean_stored, _ = estimate_objective(ens, cost)
        assert abs(mean_stored - ens.cumulative_costs[:, -1].mean()) < 1e-12

    def test_recomputed_cost_has_the_stored_bits(self):
        """The replayed history sums the same per-step costs as the kept
        totals, with the step the paths were advanced by: 0.7 / 7 steps is
        0.1, while times[1] - times[0] is 0.09999999999999999."""
        dyn = ExtendedDynamics(
            d_x=1,
            d_z=1,
            d_u=1,
            d_w=2,
            drift=lambda t, s, u: np.stack([s[:, 0] + u[:, 0], s[:, 0] - s[:, 1]], axis=-1),
            diffusion=lambda t, s, u: np.eye(2),
            initial_density=Gaussian([1.0, 0.0], np.diag([0.25, 0.25])),
        )
        cost = CostSpec(
            running_cost=lambda t, s, u: s[:, 0] ** 2 + u[:, 0] ** 2,
            terminal_cost=lambda s: s[:, 0] ** 2,
        )
        law = MemoryLaw(lambda t, z: 0.5 * z)
        stored = simulate_paths(dyn, law, 0.7, 0.1, 50, seed=1, cost=cost, history=True)
        replayed = stored.cumulative_costs[:, -1] + cost.terminal_cost(stored.states[:, -1])
        assert stored.n_excluded == 0
        assert estimate_objective(stored, cost)[0] == float(replayed.mean())
        assert stored.dt == 0.1


class RecordingLaw:
    """A control law that keeps a copy of every output of the law it
    wraps and declares the same memory domain, if any."""

    def __init__(self, law):
        self.law = law
        self.outputs = []
        if hasattr(law, "z_lower"):
            self.z_lower, self.z_upper = law.z_lower, law.z_upper

    def evaluate_memory(self, t, z):
        u = self.law.evaluate_memory(t, z)
        self.outputs.append(np.array(u, dtype=float))
        return u


def assert_replays_the_applied_controls(ens, recorder):
    """ens.controls, derived from the stored states, has the bits of the
    controls the simulation applied, and is derived once."""
    applied = np.stack(recorder.outputs)
    n_steps = ens.times.size - 1
    assert applied.shape[:2] == (n_steps, ens.n_paths)
    controls = ens.controls
    assert controls.shape == (ens.n_paths, n_steps, applied.shape[-1])
    assert np.ascontiguousarray(controls.transpose(1, 0, 2)).tobytes() == applied.tobytes()
    assert ens.controls is controls
    assert len(recorder.outputs) == 2 * n_steps


class AffineLaw:
    """u(t, z) = (1 + t) K z + c, on a memory box when one is given."""

    def __init__(self, gain, offset, box):
        self.gain, self.offset = gain, offset
        if box is not None:
            self.z_lower, self.z_upper = box

    def evaluate_memory(self, t, z):
        return (1.0 + t) * (z @ self.gain.T) + self.offset


class TestControlReplay:
    def test_clamped_and_frozen_paths_replay_their_controls(self):
        dyn, law, cost = mixed_explosion_case(1.0)
        rng = np.random.default_rng(0)
        table = rng.standard_normal(law.values.shape)
        recorder = RecordingLaw(GridControlLaw(table, law.grid, law.d_x))
        ens = simulate_paths(dyn, recorder, 1.0, 0.02, 200, seed=6, cost=cost, history=True)
        assert 0 < ens.n_excluded < ens.n_paths and ens.clamp_counts.sum() > 0
        assert_replays_the_applied_controls(ens, recorder)

    @pytest.mark.parametrize("family", ["lqg", "grid"])
    def test_bundled_laws_replay_their_controls(self, family, bundled_controllers):
        cfg, law, horizon, dt, _, _ = bundled_controllers[family]
        recorder = RecordingLaw(law)
        dyn, cost = simulation_dynamics(cfg), simulation_cost(cfg)
        ens = simulate_paths(dyn, recorder, horizon, dt, 64, cfg.seed, cost=cost, history=True)
        assert_replays_the_applied_controls(ens, recorder)

    @settings(max_examples=40, deadline=None)
    @given(
        d_x=st.integers(1, 2),
        d_z=st.integers(1, 2),
        d_u=st.integers(1, 2),
        n_paths=st.integers(1, 40),
        n_steps=st.integers(1, 20),
        boxed=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_affine_laws_replay_their_controls(
        self, d_x, d_z, d_u, n_paths, n_steps, boxed, seed
    ):
        rng = np.random.default_rng(seed)
        d_s = d_x + d_z
        mixing = rng.standard_normal((d_s, d_u))
        dyn = ExtendedDynamics(
            d_x=d_x,
            d_z=d_z,
            d_u=d_u,
            d_w=d_s,
            drift=lambda t, s, u: u @ mixing.T - s,
            diffusion=lambda t, s, u: np.eye(d_s),
            initial_density=Gaussian(np.zeros(d_s), np.eye(d_s)),
        )
        lower = rng.uniform(-1.5, 0.0, d_z)
        box = (lower, lower + rng.uniform(0.0, 1.5, d_z)) if boxed else None
        law = AffineLaw(rng.standard_normal((d_u, d_z)), rng.standard_normal(d_u), box)
        recorder = RecordingLaw(law)
        ens = simulate_paths(
            dyn, recorder, 0.05 * n_steps, 0.05, n_paths, seed, cost=ZERO_COST, history=True
        )
        assert_replays_the_applied_controls(ens, recorder)


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
        ens = simulate_paths(dyn, law, 1.0, 0.1, 40, seed=4, cost=ZERO_COST)
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
        law = LqgControlLaw(result.gains, problem)
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
        ens = simulate_paths(dyn, law, 2.0, 0.01, n, seed=21, cost=ZERO_COST, history=True)
        assert ens.n_excluded == 0
        for idx in (50, 100, 200):
            emp = ens.states[:, idx, :].mean(axis=0)
            se = ens.states[:, idx, :].std(axis=0, ddof=1) / np.sqrt(n)
            planned = result.gains.mu[idx]
            assert np.all(np.abs(emp - planned) < 3.5 * se + 0.02)
