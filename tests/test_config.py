"""Tests for JSON configuration loading and the simulation adapters."""

import dataclasses
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from fbsweep.config import (
    DEFAULT_SLICE_FRACTIONS,
    SolverSettings,
    bundled_config_path,
    obstacle_running_cost,
    parse_config,
    read_document,
    simulation_cost,
    simulation_dynamics,
)
from fbsweep.core import ProblemError


def lqg_doc():
    return json.loads(bundled_config_path("lqg").read_text())


def obstacle_doc():
    return json.loads(bundled_config_path("obstacle").read_text())


def obstacle_with(diffusion, drift0=lambda t, S: [0.5 * S[1] - S[0], S[0] - 2.0 * S[1]]):
    """The bundled obstacle config with its grid problem's drift0 and D replaced."""
    cfg = parse_config(obstacle_doc())
    gp = cfg.grid_problem
    derived = dataclasses.replace(gp, drift0=drift0, diffusion=diffusion)
    return dataclasses.replace(cfg, grid_problem=derived)


D_DIAG = np.diag([0.25, 4.0])


class TestBundledConfigs:
    def test_lqg_parses(self):
        cfg = parse_config(lqg_doc())
        assert cfg.family == "lqg"
        assert cfg.lqg_problem is not None
        assert cfg.lqg_problem.d_x == 1
        assert cfg.lqg_problem.d_z == 1
        assert cfg.lqg_problem.horizon == 10.0
        assert cfg.solver.tol == 0.0
        assert cfg.seed == 20240817

    def test_obstacle_parses(self):
        cfg = parse_config(obstacle_doc())
        assert cfg.family == "obstacle-grid"
        assert cfg.grid is not None
        assert cfg.grid.shape == (101, 101)
        assert cfg.grid.n_t == 1000
        assert cfg.grid_problem is not None
        assert cfg.slice_times == [0.0, 0.25, 0.5, 0.75, 1.0]

    def test_unknown_bundle_name(self):
        with pytest.raises(ProblemError, match="no bundled config"):
            bundled_config_path("nonexistent")

    def test_default_slice_times(self):
        doc = obstacle_doc()
        del doc["slice_times"]
        cfg = parse_config(doc)
        horizon = doc["domain"]["horizon"]
        assert cfg.slice_times == [f * horizon for f in DEFAULT_SLICE_FRACTIONS]


class TestValidation:
    def test_unknown_family(self):
        with pytest.raises(ProblemError, match="unknown config family"):
            parse_config({"family": "banana"})

    def test_missing_field(self):
        doc = lqg_doc()
        del doc["A"]
        with pytest.raises(ProblemError, match="'A'"):
            parse_config(doc)

    def test_wrong_shape(self):
        doc = lqg_doc()
        doc["Q"] = [[1.0]]
        with pytest.raises(ProblemError, match="shape"):
            parse_config(doc)

    def test_non_finite_entry(self):
        doc = lqg_doc()
        doc["A"][0][0] = float("nan")
        with pytest.raises(ProblemError, match="non-finite"):
            parse_config(doc)

    def test_non_numeric_entry(self):
        doc = lqg_doc()
        doc["A"][0][0] = "fast"
        with pytest.raises(ProblemError, match="not numeric"):
            parse_config(doc)

    def test_invalid_problem_rejected(self):
        doc = lqg_doc()
        doc["R"] = [[0.0, 0.0], [0.0, 0.0]]
        with pytest.raises(ProblemError, match="invalid problem"):
            parse_config(doc)

    def test_unknown_solver_key(self):
        doc = lqg_doc()
        doc["solver"]["warp"] = 9
        with pytest.raises(ProblemError, match="unknown solver setting"):
            parse_config(doc)

    def test_negative_solver_values(self):
        doc = lqg_doc()
        doc["solver"]["max_iters"] = -1
        with pytest.raises(ProblemError, match="max_iters"):
            parse_config(doc)
        doc = lqg_doc()
        doc["solver"]["tol"] = -1e-6
        with pytest.raises(ProblemError, match="tol"):
            parse_config(doc)

    def test_obstacle_window_order(self):
        doc = obstacle_doc()
        doc["obstacle"]["t_on"] = 0.7
        with pytest.raises(ProblemError, match="window"):
            parse_config(doc)

    def test_obstacle_band_order(self):
        doc = obstacle_doc()
        doc["obstacle"]["inner"] = 2.5
        with pytest.raises(ProblemError, match="band"):
            parse_config(doc)

    def test_positivity_requirements(self):
        for key in ("control_cost", "control_bound", "initial_cov"):
            doc = obstacle_doc()
            doc[key] = 0.0
            with pytest.raises(ProblemError, match=key):
                parse_config(doc)

    def test_slice_time_outside_horizon(self):
        doc = obstacle_doc()
        doc["slice_times"] = [0.0, 1.5]
        with pytest.raises(ProblemError, match="slice time"):
            parse_config(doc)

    @pytest.mark.parametrize("minimizer", ["bogus", "central"])
    def test_unknown_minimizer(self, minimizer):
        doc = obstacle_doc()
        doc["solver"]["minimizer"] = minimizer
        with pytest.raises(ProblemError, match="minimizer"):
            parse_config(doc)

    @pytest.mark.parametrize("load", [lqg_doc, obstacle_doc])
    def test_unknown_method(self, load):
        doc = load()
        doc["solver"]["method"] = "bogus"
        with pytest.raises(ProblemError, match="solver.method"):
            parse_config(doc)

    @pytest.mark.parametrize("load", [lqg_doc, obstacle_doc])
    @pytest.mark.parametrize("seed", [-1, -(2**40), 1.5, True])
    def test_seed_must_be_a_nonnegative_integer(self, load, seed):
        doc = load()
        doc["seed"] = seed
        with pytest.raises(ProblemError, match="seed"):
            parse_config(doc)

    @pytest.mark.parametrize("load", [lqg_doc, obstacle_doc])
    def test_seed_zero_and_absent_are_accepted(self, load):
        doc = load()
        doc["seed"] = 0
        assert parse_config(doc).seed == 0
        del doc["seed"]
        assert parse_config(doc).seed == 0

    def test_domain_shape_entries(self):
        doc = obstacle_doc()
        doc["domain"]["shape"] = [101]
        with pytest.raises(ProblemError, match="two entries"):
            parse_config(doc)


class TestLoadConfig:
    def test_missing_file(self, tmp_path):
        with pytest.raises(ProblemError, match="not found"):
            parse_config(read_document(tmp_path / "nope.json"))

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(ProblemError, match="not valid JSON"):
            parse_config(read_document(path))

    def test_non_object_root(self, tmp_path):
        path = tmp_path / "list.json"
        path.write_text("[1, 2]")
        with pytest.raises(ProblemError, match="JSON object"):
            parse_config(read_document(path))

    def test_round_trip(self, tmp_path):
        path = tmp_path / "lqg.json"
        path.write_text(json.dumps(lqg_doc()))
        cfg = parse_config(read_document(path))
        assert cfg.family == "lqg"


class TestObstacleRunningCost:
    def test_window_and_band(self):
        cost = obstacle_running_cost(1000.0, 0.3, 0.6, 0.1, 2.0)
        x = np.array([0.0, 0.05, 0.1, 1.0, 2.0, 2.5, -1.5])
        inside = cost(0.45, [x, np.zeros_like(x)])
        np.testing.assert_array_equal(
            inside, [0.0, 0.0, 1000.0, 1000.0, 1000.0, 0.0, 1000.0]
        )
        before = cost(0.2, [x, np.zeros_like(x)])
        np.testing.assert_array_equal(before, np.zeros_like(x))
        after = cost(0.7, [x, np.zeros_like(x)])
        np.testing.assert_array_equal(after, np.zeros_like(x))


class TestSimulationAdapters:
    def test_lqg_dynamics_match_matrices(self):
        cfg = parse_config(lqg_doc())
        dyn = simulation_dynamics(cfg)
        problem = cfg.lqg_problem
        s = np.array([[0.5, -1.0], [2.0, 0.25]])
        u = np.array([[1.0, 0.0], [0.0, -2.0]])
        drift = dyn.drift(0.3, s, u)
        A, B, sigma, _, _ = problem.coefficients(0.3)
        np.testing.assert_allclose(drift, s @ A.T + u @ B.T, atol=1e-14)
        np.testing.assert_allclose(dyn.diffusion(0.3, s, u), sigma)

    def test_lqg_cost_matches_quadratic_form(self):
        cfg = parse_config(lqg_doc())
        cost = simulation_cost(cfg)
        problem = cfg.lqg_problem
        rng = np.random.default_rng(7)
        s = rng.normal(size=(5, 2))
        u = rng.normal(size=(5, 2))
        running = cost.running_cost(0.2, s, u)
        _, _, _, Q, R = problem.coefficients(0.2)
        expected = np.einsum("ni,ij,nj->n", s, Q, s) + np.einsum(
            "ni,ij,nj->n", u, R, u
        )
        np.testing.assert_allclose(running, expected, atol=1e-12)
        terminal = cost.terminal_cost(s)
        np.testing.assert_allclose(
            terminal, np.einsum("ni,ij,nj->n", s, np.asarray(problem.P), s),
            atol=1e-12,
        )

    def test_obstacle_dynamics_stack_control_and_state(self):
        cfg = parse_config(obstacle_doc())
        dyn = simulation_dynamics(cfg)
        s = np.array([[0.5, -1.0], [2.0, 0.25]])
        u = np.array([[3.0], [-1.0]])
        drift = dyn.drift(0.1, s, u)
        np.testing.assert_allclose(drift[:, 0], u[:, 0])
        np.testing.assert_allclose(drift[:, 1], s[:, 0])
        np.testing.assert_allclose(dyn.diffusion(0.1, s, u), np.eye(2))
        assert dyn.d_w == 2

    def test_obstacle_dynamics_derive_from_grid_problem(self):
        cfg = obstacle_with(lambda t, S: D_DIAG)
        dyn = simulation_dynamics(cfg)
        s = np.array([[0.5, -1.0], [2.0, 0.25]])
        u = np.array([[3.0], [-1.0]])
        drift = dyn.drift(0.1, s, u)
        np.testing.assert_array_equal(drift[:, 0], 0.5 * s[:, 1] - s[:, 0] + u[:, 0])
        np.testing.assert_array_equal(drift[:, 1], s[:, 0] - 2.0 * s[:, 1])
        np.testing.assert_array_equal(dyn.diffusion(0.1, s, u), np.diag([0.5, 2.0]))
        assert (dyn.d_x, dyn.d_z, dyn.d_u, dyn.d_w) == (1, 1, 1, 2)

    @settings(max_examples=60, deadline=None)
    @given(
        data=st.data(),
        n=st.integers(1, 6),
        t=st.floats(0.0, 1.0),
        bundled=st.booleans(),
    )
    def test_derived_model_is_the_grid_model(self, data, n, t, bundled):
        # The simulator's drift is the grid problem's drift columns, bit for
        # bit (signed zeros included), and its noise factor reproduces D.
        cfg = parse_config(obstacle_doc()) if bundled else obstacle_with(lambda t, S: D_DIAG)
        gp = cfg.grid_problem
        values = st.sampled_from([0.0, -0.0]) | st.floats(-5.0, 5.0)
        s = data.draw(hnp.arrays(np.float64, (n, 2), elements=values))
        u = data.draw(hnp.arrays(np.float64, (n, 1), elements=values))
        dyn = simulation_dynamics(cfg)
        drift = dyn.drift(t, s, u)
        expected = gp.drift(t, [s[:, 0], s[:, 1]], [u[:, 0]])
        for i in range(2):
            column = np.broadcast_to(np.asarray(expected[i], dtype=float), (n,))
            assert drift[:, i].tobytes() == column.tobytes()
        sig = dyn.diffusion(t, s, u)
        D = np.asarray(gp.diffusion(t, [s[:, 0], s[:, 1]]), dtype=float)
        assert sig.shape == (2, 2)
        np.testing.assert_array_equal(sig @ sig.T, D)

    def test_obstacle_diffusion_must_be_one_positive_definite_matrix(self):
        for D in ([[1.0, 1.0], [1.0, 1.0]], np.diag([1.0, 0.0])):
            with pytest.raises(ProblemError, match="positive definite"):
                simulation_dynamics(obstacle_with(lambda t, S, D=D: D))
        with pytest.raises(ProblemError, match="symmetric"):
            simulation_dynamics(obstacle_with(lambda t, S: [[1.0, 0.5], [0.0, 1.0]]))
        per_node = lambda t, S: [[1.0 + 0.0 * S[0], 0.0], [0.0, 1.0]]  # noqa: E731
        with pytest.raises(ProblemError, match="diffusion matrix"):
            simulation_dynamics(obstacle_with(per_node))

    def test_obstacle_cost_matches_grid_problem(self):
        cfg = parse_config(obstacle_doc())
        cost = simulation_cost(cfg)
        s = np.array([[1.0, 0.2], [0.05, -3.0], [2.4, 1.0]])
        u = np.array([[2.0], [0.0], [-1.0]])
        running = cost.running_cost(0.45, s, u)
        np.testing.assert_allclose(running, [1000.0 + 4.0, 0.0, 1.0])
        off_window = cost.running_cost(0.9, s, u)
        np.testing.assert_allclose(off_window, [4.0, 0.0, 1.0])
        terminal = cost.terminal_cost(s)
        np.testing.assert_allclose(terminal, 10.0 * s[:, 0] ** 2)


class TestSolverSettings:
    def test_defaults(self):
        settings = SolverSettings()
        assert settings.max_iters == 50
        assert settings.tol == 1e-6
        assert [f.name for f in dataclasses.fields(settings)] == ["max_iters", "tol"]
