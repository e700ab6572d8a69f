"""End-to-end tests for the command-line interface."""

import dataclasses
import hashlib
import json
import shutil
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

from fbsweep import cli, gridpde, lqg, sdesim
from fbsweep.artifacts import read_json
from fbsweep.cli import main
from fbsweep.config import bundled_config_path

LQG_DOC = {
    "family": "lqg",
    "d_x": 1,
    "d_z": 1,
    "A": [[-1.0, 0.0], [1.0, -1.0]],
    "B": [[1.0, 0.0], [0.0, 1.0]],
    "sigma": [[1.0, 0.0], [0.0, 1.0]],
    "Q": [[1.0, 0.0], [0.0, 0.0]],
    "R": [[1.0, 0.0], [0.0, 1.0]],
    "P": [[0.0, 0.0], [0.0, 0.0]],
    "mu0": [0.0, 0.0],
    "lambda0": [[1.0, 0.0], [0.0, 1.0]],
    "horizon": 0.5,
    "dt": 0.01,
    "solver": {"max_iters": 8, "tol": 0.0},
    "seed": 3,
}

OBSTACLE_DOC = {
    "family": "obstacle-grid",
    "domain": {
        "lower": [-2.0, -2.0],
        "upper": [2.0, 2.0],
        "shape": [21, 21],
        "n_t": 60,
        "horizon": 0.3,
    },
    "obstacle": {
        "strength": 10.0,
        "t_on": 0.1,
        "t_off": 0.2,
        "inner": 0.1,
        "outer": 1.0,
    },
    "terminal_weight": 1.0,
    "control_cost": 1.0,
    "control_bound": 4.0,
    "initial_cov": 0.04,
    "solver": {"max_iters": 2, "tol": 0.0},
    "slice_times": [0.0, 0.3],
    "seed": 11,
}


# A 21x21 obstacle problem with n_t = 100 and a 2-sweep budget, and the
# SHA-256 of every file its run directory holds. The digests pin the
# bytes of the solver's answers and of the CSV/JSON writers together
# (numpy 2.4 on x86-64).
REPRO_OBSTACLE_DOC = dict(OBSTACLE_DOC, domain=dict(OBSTACLE_DOC["domain"], n_t=100))
REPRO_OBSTACLE_DIGESTS = {
    "config.json": "16b6e39b2559b4daa8e62c8a96dd066d15c1d178bf28d7497575549bf5351f71",
    "control.csv": "4d286c45b9b749b9b8cd7348de602c9392929f67d0171c5423defbfef1b5a608",
    "control_t0.3.csv": "0d2e95e3baeace7f5249cca1d486d1b5532f43f2d6d89883e64f3fdadee4042a",
    "control_t0.csv": "aad7b32bfa930c739c096d186a28707cbc970ba432f3300869feae215b529656",
    "density_t0.3.csv": "b66910d9193713844f87683e5ad5a564264d03de1d011b227e7115d4f40db4d9",
    "density_t0.csv": "bf2f7d961f364f38759b71d142fd4cf14550ff37857ed8ceb35718c7f77d4209",
    "grid.json": "53ff2a9dc523520026584ce95ceec0f7d72e57bcd288cf38e95cc469e8380dd3",
    "iterations.csv": "899d6846550619519e636efbcdf01de37515ffe04987184981d0c975c428b742",
    "manifest.json": "6720075600beaa3ade037c8542a47735f0b626aaf14afb082ac91e1da40d0b0d",
    "summary.json": "7fc887ea2b11ade7d84290d5dd135fd8f802566a701305845024562743a3a4b3",
    "value_t0.3.csv": "4979c7d0050c023c1bd140fe8bcc0ea0d5506d414e0809df61531e4df0c0b505",
    "value_t0.csv": "121438741af522f4feb4c9ee1982489baaa51d91de3c3b1987e316fa6a70c5c4",
}

# The SHA-256 of the verify.json that `verify` writes into that run
# directory: the checks' names, outcomes and detail strings.
REPRO_OBSTACLE_VERIFY_DIGEST = "a88ffed0a75cc99d1e6523e34ad361e59071402f1a09a9872646e1cce2a8f490"

# The SHA-256 of the answer files of an LQG_DOC run: gains, objective
# history and summary (numpy 2.4 on x86-64).
LQG_DIGESTS = {
    "gains.csv": "0ab4ee4459cc2c01fc0df9c9cba78918494a842daaa2a50bb9158ad6d7dadf6b",
    "iterations.csv": "0d05fb41f1bdbfc29ce44c30578d46fb49dd5a1d6570ff9a154442f362b022d1",
    "summary.json": "7ed5e0adbc465c13b3d1f09ade54dcb6c9b67efca8ae8a9b9631b54205dc5507",
}


def write_doc(tmp_path, doc, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc, indent=2))
    return path


@pytest.fixture(scope="module")
def lqg_run(tmp_path_factory):
    base = tmp_path_factory.mktemp("lqg_cli")
    config = write_doc(base, LQG_DOC)
    out = base / "run"
    assert main(["run-lqg", "--config", str(config), "--out", str(out)]) == 0
    return config, out


@pytest.fixture(scope="module")
def grid_run(tmp_path_factory):
    base = tmp_path_factory.mktemp("grid_cli")
    config = write_doc(base, OBSTACLE_DOC)
    out = base / "run"
    assert main(["run-grid", "--config", str(config), "--out", str(out)]) == 0
    return config, out


class TestRunLqg:
    def test_artifacts_written(self, lqg_run):
        _, out = lqg_run
        for name in ("gains.csv", "iterations.csv", "summary.json",
                     "manifest.json", "config.json"):
            assert (out / name).exists(), name
        summary = read_json(out / "summary.json")
        assert summary["family"] == "lqg"
        assert summary["iterations"] == 8
        assert summary["min_lambda_eigenvalue"] > 0

    def test_rerun_is_byte_identical(self, lqg_run, tmp_path):
        config, out = lqg_run
        again = tmp_path / "again"
        assert main(["run-lqg", "--config", str(config), "--out", str(again)]) == 0
        for name in ("gains.csv", "iterations.csv", "summary.json",
                     "manifest.json", "config.json"):
            assert (out / name).read_bytes() == (again / name).read_bytes(), name

    def test_answer_files_match_their_pins(self, lqg_run):
        _, out = lqg_run
        digests = {
            name: hashlib.sha256((out / name).read_bytes()).hexdigest() for name in LQG_DIGESTS
        }
        assert digests == LQG_DIGESTS

    def test_indefinite_time_varying_r_is_exit_2(self, tmp_path, monkeypatch, capsys):
        # R(t) = cos(4 pi t) I is positive definite at t = 0, 1/2 and 1 but
        # not between them. A document holds constants only, so the run's
        # problem gets this R after its document is parsed. It is invalid
        # input (exit 2), not a numerical failure (exit 3) on a blown-up Psi.
        parse = cli.parse_config

        def with_cosine_r(doc):
            cfg = parse(doc)
            cfg.lqg_problem = dataclasses.replace(
                cfg.lqg_problem, R=lambda t: np.cos(4.0 * np.pi * t) * np.eye(2)
            )
            return cfg

        monkeypatch.setattr(cli, "parse_config", with_cosine_r)
        zeros, eye = [[0.0, 0.0], [0.0, 0.0]], [[1.0, 0.0], [0.0, 1.0]]
        doc = dict(LQG_DOC, A=zeros, Q=eye, horizon=1.0, dt=0.01)
        config = write_doc(tmp_path, doc)
        assert main(["run-lqg", "--config", str(config), "--out", str(tmp_path / "run")]) == 2
        assert "FAIL: R positive definite" in capsys.readouterr().err

    def test_budget_exit_when_tolerance_unmet(self, tmp_path):
        doc = dict(LQG_DOC, solver={"max_iters": 1, "tol": 1e-12})
        config = write_doc(tmp_path, doc)
        out = tmp_path / "run"
        assert main(["run-lqg", "--config", str(config), "--out", str(out)]) == 4
        assert (out / "gains.csv").exists()

    def test_family_mismatch(self, tmp_path, capsys):
        config = write_doc(tmp_path, OBSTACLE_DOC)
        code = main(["run-lqg", "--config", str(config),
                     "--out", str(tmp_path / "run")])
        assert code == 2
        assert "run-lqg requires family 'lqg'" in capsys.readouterr().err

    def test_invalid_problem(self, tmp_path, capsys):
        doc = dict(LQG_DOC, R=[[0.0, 0.0], [0.0, 0.0]])
        config = write_doc(tmp_path, doc)
        code = main(["run-lqg", "--config", str(config),
                     "--out", str(tmp_path / "run")])
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_missing_config(self, tmp_path, capsys):
        code = main(["run-lqg", "--config", str(tmp_path / "nope.json"),
                     "--out", str(tmp_path / "run")])
        assert code == 2

    @pytest.mark.parametrize("command, doc", [("run-lqg", LQG_DOC), ("run-grid", OBSTACLE_DOC)])
    def test_unknown_method_is_exit_2_before_any_output(self, command, doc, tmp_path, capsys):
        doc = dict(doc, solver=dict(doc["solver"], method="bogus", max_iters=0))
        config = write_doc(tmp_path, doc)
        out = tmp_path / "run"
        assert main([command, "--config", str(config), "--out", str(out)]) == 2
        assert not out.exists()
        assert "solver.method" in capsys.readouterr().err

    def test_unknown_minimizer_is_exit_2_before_any_output(self, tmp_path, capsys):
        doc = dict(LQG_DOC, solver=dict(LQG_DOC["solver"], minimizer="bogus"))
        config = write_doc(tmp_path, doc)
        out = tmp_path / "run"
        assert main(["run-lqg", "--config", str(config), "--out", str(out)]) == 2
        assert not out.exists()
        assert "solver.minimizer" in capsys.readouterr().err

    @pytest.mark.parametrize("override", [False, True], ids=["document", "override"])
    def test_dt_not_dividing_the_horizon_is_exit_2(self, override, tmp_path, capsys):
        doc = json.loads(bundled_config_path("lqg").read_text())
        doc["horizon"] = 1.0
        if not override:
            doc["dt"] = 0.003
        config = write_doc(tmp_path, doc)
        out = tmp_path / "run"
        argv = ["run-lqg", "--config", str(config), "--out", str(out)]
        assert main(argv + (["--dt", "0.003"] if override else [])) == 2
        assert not out.exists()
        assert "not a multiple of dt 0.003" in capsys.readouterr().err


def with_field(doc, path, value):
    """A deep copy of doc with the field at path (a key sequence) set to value."""
    doc = json.loads(json.dumps(doc))
    *parents, key = path
    node = doc
    for parent in parents:
        node = node[parent]
    node[key] = value
    return doc


@pytest.mark.parametrize(
    "command, doc, path, value",
    [
        ("run-lqg", LQG_DOC, ("solver", "max_iters"), "ten"),
        ("run-lqg", LQG_DOC, ("horizon",), "long"),
        ("run-grid", OBSTACLE_DOC, ("domain", "n_t"), None),
        ("run-grid", OBSTACLE_DOC, ("control_bound",), [1, 2]),
    ],
    ids=["max_iters", "horizon", "n_t", "control_bound"],
)
def test_non_numeric_scalar_field_is_exit_2(command, doc, path, value, tmp_path, capsys):
    config = write_doc(tmp_path, with_field(doc, path, value))
    out = tmp_path / "run"
    assert main([command, "--config", str(config), "--out", str(out)]) == 2
    assert not out.exists()
    assert f"{'.'.join(path)} must be a finite" in capsys.readouterr().err


@pytest.mark.parametrize(
    "command, doc, path, value, message",
    [
        ("run-lqg", LQG_DOC, ("A",), [["1.0", "0"], ["1", "0"]], "'A' is not numeric"),
        ("run-lqg", LQG_DOC, ("A",), [[True, False], [True, False]], "'A' is not numeric"),
        ("run-grid", OBSTACLE_DOC, ("domain", "shape"), [21.7, 21], "whole numbers"),
        ("run-grid", OBSTACLE_DOC, ("domain", "shape"), ["21", "21"], "'shape' is not numeric"),
        ("run-grid", OBSTACLE_DOC, ("slice_times",), ["0.3"], "'slice_times' is not numeric"),
    ],
    ids=["matrix-strings", "matrix-booleans", "fractional-shape", "string-shape",
         "string-slice-time"],
)
def test_non_numeric_matrix_entry_is_exit_2(
    command, doc, path, value, message, tmp_path, capsys
):
    """Matrix and list fields take JSON numbers only, as scalar fields do:
    a string or boolean is not converted and a fractional grid size is
    not truncated."""
    config = write_doc(tmp_path, with_field(doc, path, value))
    out = tmp_path / "run"
    assert main([command, "--config", str(config), "--out", str(out)]) == 2
    assert not out.exists()
    assert message in capsys.readouterr().err


@pytest.mark.parametrize(
    "command, doc, key, value",
    [
        ("run-lqg", LQG_DOC, "method", "euler"),
        ("run-grid", OBSTACLE_DOC, "method", "euler"),
        ("run-lqg", LQG_DOC, "minimizer", "search"),
        ("run-grid", OBSTACLE_DOC, "minimizer", "search"),
    ],
    ids=["lqg-euler", "grid-euler", "lqg-search", "grid-search"],
)
def test_removed_solver_choice_is_exit_2_before_any_output(
    command, doc, key, value, tmp_path, capsys
):
    """RK4 is the one Riccati integrator and a quadratic declaration picks
    the exact minimizer; a document asking for anything else is refused."""
    config = write_doc(tmp_path, with_field(doc, ("solver", key), value))
    out = tmp_path / "run"
    assert main([command, "--config", str(config), "--out", str(out)]) == 2
    assert not out.exists()
    assert f"solver.{key}" in capsys.readouterr().err


def _reject_constant(token):
    raise ValueError(f"{token} is not JSON")


@pytest.mark.parametrize(
    "command, doc, sweeps, nulls",
    [
        ("run-lqg", LQG_DOC, 0, ["final_delta", "lambda_gap", "pi_gap"]),
        ("run-lqg", LQG_DOC, 1, ["analytic_objective", "lambda_gap"]),
        ("run-lqg", LQG_DOC, 3, ["analytic_objective"]),
        ("run-grid", OBSTACLE_DOC, 0, ["final_delta"]),
    ],
    ids=["lqg-0", "lqg-1", "lqg-3", "grid-0"],
)
def test_undefined_summary_values_are_null(command, doc, sweeps, nulls, tmp_path, capsys):
    """A summary value that needs more sweeps than were run is written as
    null: a gap before its trajectory's first refresh, and the closed-form
    objective after a run that ends on a Pi sweep. Every JSON file of the
    run and its verify is strict JSON: no bare NaN or Infinity token."""
    doc = with_field(doc, ("solver",), {"max_iters": sweeps, "tol": 0.0})
    config = write_doc(tmp_path, doc)
    out = tmp_path / "run"
    assert main([command, "--config", str(config), "--out", str(out)]) == 0
    main(["verify", str(out)])
    names = sorted(path.name for path in out.glob("*.json"))
    assert "summary.json" in names and "verify.json" in names
    for name in names:
        json.loads((out / name).read_text(), parse_constant=_reject_constant)
    summary = read_json(out / "summary.json")
    assert sorted(key for key, value in summary.items() if value is None) == nulls


def test_zero_tol_runs_the_whole_budget(tmp_path):
    """tol 0 is the fixed-budget mode. LQG_DOC's objective repeats exactly
    from sweep 10 on, and the run still makes every one of its 35 sweeps:
    exit 0, not converged."""
    doc = with_field(LQG_DOC, ("solver",), {"max_iters": 35, "tol": 0.0})
    out = tmp_path / "run"
    assert main(["run-lqg", "--config", str(write_doc(tmp_path, doc)), "--out", str(out)]) == 0
    summary = read_json(out / "summary.json")
    assert summary["iterations"] == 35
    assert summary["converged"] is False
    assert summary["final_delta"] == 0.0


# Runs a run-* command, verify --rerun and simulate in one fresh
# interpreter, with every scipy import blocked when the first argument is
# "block", and prints the exit codes as its last line.
SOLVE_COMMANDS = '''
import json, sys

class NoScipy:
    def find_spec(self, name, path=None, target=None):
        if name.split(".")[0] == "scipy":
            raise ModuleNotFoundError(f"import of {name} is blocked")

if sys.argv[1] == "block":
    sys.meta_path.insert(0, NoScipy())
from fbsweep.cli import main

command, config, out = sys.argv[2:]
codes = [
    main([command, "--config", config, "--out", out + "/run"]),
    main(["verify", "--rerun", out + "/run"]),
    main(["simulate", "--config", config, "--controller", out + "/run",
          "--out", out + "/sim", "--paths", "20"]),
]
print(json.dumps(codes))
'''


def assert_runs_without_scipy(tmp_path, command, doc):
    """command, verify --rerun and simulate on doc exit 0 with scipy
    blocked, as with scipy importable, and write the same bytes."""
    config = write_doc(tmp_path, doc)
    outs = {mode: tmp_path / mode for mode in ("block", "allow")}
    codes = {}
    for mode, out in outs.items():
        proc = subprocess.run(
            [sys.executable, "-c", SOLVE_COMMANDS, mode, command, str(config), str(out)],
            capture_output=True, text=True, check=True,
        )
        codes[mode] = json.loads(proc.stdout.splitlines()[-1])
    assert codes["block"] == codes["allow"] == [0, 0, 0]
    files = sorted(p.relative_to(outs["allow"]) for p in outs["allow"].rglob("*") if p.is_file())
    assert files == sorted(
        p.relative_to(outs["block"]) for p in outs["block"].rglob("*") if p.is_file()
    )
    for name in files:
        assert (outs["block"] / name).read_bytes() == (outs["allow"] / name).read_bytes(), name


def test_grid_commands_run_without_scipy(tmp_path):
    """run-grid on a 21x21 document needs numpy only."""
    assert_runs_without_scipy(tmp_path, "run-grid", OBSTACLE_DOC)


def test_lqg_commands_run_without_scipy(tmp_path):
    """run-lqg, whose Lambda sweep solves a LAPACK block per stage, and
    simulate under the lqg controller need numpy only."""
    assert_runs_without_scipy(tmp_path, "run-lqg", LQG_DOC)


class TestRunGrid:
    def test_artifacts_written(self, grid_run):
        _, out = grid_run
        for name in ("control.csv", "grid.json", "iterations.csv",
                     "summary.json", "manifest.json", "config.json",
                     "density_t0.csv", "density_t0.3.csv"):
            assert (out / name).exists(), name
        summary = read_json(out / "summary.json")
        assert summary["family"] == "obstacle-grid"
        assert summary["max_mass_drift"] <= 1e-12
        assert summary["monotonicity_violations"] == 0

    def test_rerun_is_byte_identical(self, tmp_path):
        config = write_doc(tmp_path, REPRO_OBSTACLE_DOC)
        runs = [tmp_path / "first", tmp_path / "again"]
        for out in runs:
            assert main(["run-grid", "--config", str(config), "--out", str(out)]) == 0
        names = sorted(p.name for p in runs[0].iterdir())
        assert names == sorted(p.name for p in runs[1].iterdir())
        for name in names:
            assert (runs[0] / name).read_bytes() == (runs[1] / name).read_bytes(), name
        digests = {
            name: hashlib.sha256((runs[0] / name).read_bytes()).hexdigest() for name in names
        }
        assert digests == REPRO_OBSTACLE_DIGESTS

    def test_verify_report_matches_its_pin(self, tmp_path):
        config = write_doc(tmp_path, REPRO_OBSTACLE_DOC)
        out = tmp_path / "run"
        assert main(["run-grid", "--config", str(config), "--out", str(out)]) == 0
        assert main(["verify", str(out)]) == 0
        digest = hashlib.sha256((out / "verify.json").read_bytes()).hexdigest()
        assert digest == REPRO_OBSTACLE_VERIFY_DIGEST

    def test_stability_failure_is_exit_3(self, tmp_path, capsys):
        config = write_doc(tmp_path, OBSTACLE_DOC)
        code = main(["run-grid", "--config", str(config),
                     "--out", str(tmp_path / "run"), "--dt", "0.05"])
        assert code == 3
        assert "numerical failure" in capsys.readouterr().err

    @pytest.mark.parametrize("minimizer", ["bogus", "central"])
    @pytest.mark.parametrize("max_iters", [0, 1])
    def test_unknown_minimizer_is_exit_2_before_any_output(
        self, minimizer, max_iters, tmp_path, capsys
    ):
        doc = dict(OBSTACLE_DOC, solver={"max_iters": max_iters, "tol": 0.0,
                                         "minimizer": minimizer})
        config = write_doc(tmp_path, doc)
        out = tmp_path / "run"
        assert main(["run-grid", "--config", str(config), "--out", str(out)]) == 2
        assert not out.exists()
        assert "minimizer" in capsys.readouterr().err

    def test_dt_override_must_divide_horizon(self, tmp_path, capsys):
        config = write_doc(tmp_path, OBSTACLE_DOC)
        code = main(["run-grid", "--config", str(config),
                     "--out", str(tmp_path / "run"), "--dt", "0.07"])
        assert code == 2


class TestSimulate:
    def test_lqg_simulation_and_determinism(self, lqg_run, tmp_path):
        config, run = lqg_run
        outs = [tmp_path / "a", tmp_path / "b"]
        for out in outs:
            code = main(["simulate", "--config", str(config),
                         "--controller", str(run), "--out", str(out),
                         "--paths", "40"])
            assert code == 0
            assert (out / "paths.csv").exists()
            obj = read_json(out / "objective.json")
            assert obj["n"] == 40
        assert (outs[0] / "paths.csv").read_bytes() == (outs[1] / "paths.csv").read_bytes()
        assert (outs[0] / "objective.json").read_bytes() == (outs[1] / "objective.json").read_bytes()

    def test_seed_changes_paths(self, lqg_run, tmp_path):
        config, run = lqg_run
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        main(["simulate", "--config", str(config), "--controller", str(run),
              "--out", str(out_a), "--paths", "10"])
        main(["simulate", "--config", str(config), "--controller", str(run),
              "--out", str(out_b), "--paths", "10", "--seed", "99"])
        assert (out_a / "paths.csv").read_bytes() != (out_b / "paths.csv").read_bytes()

    def test_grid_controller(self, grid_run, tmp_path):
        config, run = grid_run
        out = tmp_path / "sim"
        code = main(["simulate", "--config", str(config),
                     "--controller", str(run), "--out", str(out),
                     "--paths", "25"])
        assert code == 0
        obj = read_json(out / "objective.json")
        assert obj["mean"] > 0

    def test_zero_paths_rejected(self, lqg_run, tmp_path, capsys):
        config, run = lqg_run
        code = main(["simulate", "--config", str(config),
                     "--controller", str(run), "--out", str(tmp_path / "s"),
                     "--paths", "0"])
        assert code == 2

    def test_controller_family_mismatch(self, lqg_run, grid_run, tmp_path, capsys):
        lqg_config, _ = lqg_run
        _, grid_out = grid_run
        code = main(["simulate", "--config", str(lqg_config),
                     "--controller", str(grid_out),
                     "--out", str(tmp_path / "s"), "--paths", "5"])
        assert code == 2
        assert "family" in capsys.readouterr().err

    def test_missing_controller_dir(self, lqg_run, tmp_path, capsys):
        config, _ = lqg_run
        code = main(["simulate", "--config", str(config),
                     "--controller", str(tmp_path / "ghost"),
                     "--out", str(tmp_path / "s"), "--paths", "5"])
        assert code == 2


class TestVerify:
    def test_fresh_lqg_run_passes(self, lqg_run, capsys):
        _, out = lqg_run
        assert main(["verify", str(out)]) == 0
        assert (out / "verify.json").exists()
        report = read_json(out / "verify.json")
        assert report["passed"] is True
        assert all(c["passed"] for c in report["checks"])

    def test_fresh_grid_run_passes(self, grid_run, capsys):
        _, out = grid_run
        assert main(["verify", str(out)]) == 0

    def test_default_verify_makes_no_solve(self, lqg_run, grid_run, monkeypatch, capsys):
        """The default checks read the stored answer: no solver runs."""

        def no_solve(*args, **kwargs):
            raise AssertionError("verify re-solved the run")

        for module, name in ((cli, "fbsm_grid"), (cli, "fbsm_lqg"),
                             (gridpde, "fbsm_grid"), (lqg, "fbsm_lqg")):
            monkeypatch.setattr(module, name, no_solve)
        for run in (lqg_run, grid_run):
            assert main(["verify", str(run[1])]) == 0

    @pytest.mark.parametrize("family", ["lqg", "grid"])
    def test_rerun_adds_exactly_the_reproduction_checks(
        self, family, lqg_run, grid_run, capsys
    ):
        out = (lqg_run if family == "lqg" else grid_run)[1]
        assert main(["verify", str(out)]) == 0
        default = read_json(out / "verify.json")["checks"]
        assert main(["verify", "--rerun", str(out)]) == 0
        rerun = read_json(out / "verify.json")["checks"]
        table = "gain tables match rerun" if family == "lqg" else "control table matches rerun"
        assert rerun[: len(default)] == default
        assert [c["name"] for c in rerun[len(default):]] == [
            table, "iteration objectives match rerun"
        ]
        assert all(c["passed"] for c in rerun)

    @staticmethod
    def _failing(out):
        return [c["name"] for c in read_json(out / "verify.json")["checks"] if not c["passed"]]

    def test_tampered_control_cell_fails(self, tmp_path, capsys):
        out = tmp_path / "run"
        config = write_doc(tmp_path, OBSTACLE_DOC)
        assert main(["run-grid", "--config", str(config), "--out", str(out)]) == 0
        path = out / "control.csv"
        lines = path.read_text().splitlines()
        # t_index 30, the middle memory node, where the density sits
        row = 1 + 30 * 21 + 10
        cells = lines[row].split(",")
        cells[-1] = repr(float(cells[-1]) + 1.0)
        lines[row] = ",".join(cells)
        path.write_text("\n".join(lines) + "\n")
        assert main(["verify", str(out)]) == 1
        failing = self._failing(out)
        assert "final iteration objective matches answer" in failing
        assert "summary objective matches answer" in failing

    @pytest.mark.parametrize("family", ["lqg", "grid"])
    @pytest.mark.parametrize("where", ["iterations", "summary"])
    def test_tampered_recorded_objective_fails(self, family, where, tmp_path, capsys):
        command, doc = ("run-lqg", LQG_DOC) if family == "lqg" else ("run-grid", OBSTACLE_DOC)
        out = tmp_path / "run"
        assert main([command, "--config", str(write_doc(tmp_path, doc)), "--out", str(out)]) == 0
        if where == "iterations":
            path = out / "iterations.csv"
            lines = path.read_text().splitlines()
            k, value = lines[-1].split(",")
            # a last entry lowered by 1e-6 relative: no rise, only a mismatch
            lines[-1] = f"{k},{float(value) * (1.0 - 1e-6)!r}"
            path.write_text("\n".join(lines) + "\n")
            expected = ["final iteration objective matches answer"]
        else:
            summary = read_json(out / "summary.json")
            summary["objective"] *= 1.0 + 1e-6
            (out / "summary.json").write_text(json.dumps(summary))
            expected = ["summary objective matches answer"]
        assert main(["verify", str(out)]) == 1
        assert self._failing(out) == expected

    @pytest.mark.parametrize("family, sweeps", [("grid", 1), ("grid", 3), ("lqg", 3)])
    def test_recorded_objective_is_reproduced_bit_for_bit(self, family, sweeps, tmp_path, capsys):
        """After a backward sweep the recorded J is <p0, w0> on the grid,
        and the closed-loop objective of the stored gains on lqg."""
        command, doc = ("run-lqg", LQG_DOC) if family == "lqg" else ("run-grid", OBSTACLE_DOC)
        doc = with_field(doc, ("solver",), {"max_iters": sweeps, "tol": 0.0})
        out = tmp_path / "run"
        assert main([command, "--config", str(write_doc(tmp_path, doc)), "--out", str(out)]) == 0
        main(["verify", str(out)])
        checks = {c["name"]: c for c in read_json(out / "verify.json")["checks"]}
        last = checks["final iteration objective matches answer"]
        recorded, answer = (part.split()[-1] for part in last["detail"].split(","))
        assert last["passed"] and recorded == answer
        assert float(recorded) == float(read_json(out / "summary.json")["objective"])

    def test_grid_verify_holds_one_field(self, tmp_path, capsys):
        """The rerun sweeps in one field buffer and the stationarity check
        steps the other field a slice at a time, so verify never holds
        more than one grid field."""
        doc = json.loads(bundled_config_path("obstacle").read_text())
        doc["domain"].update(shape=[41, 41], n_t=400)
        doc["solver"]["max_iters"] = 2
        config = write_doc(tmp_path, doc)
        out = tmp_path / "run"
        assert main(["run-grid", "--config", str(config), "--out", str(out)]) == 0
        field = (400 + 1) * 41 * 41 * 8
        tracemalloc.start()
        try:
            code = main(["verify", str(out)])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 1.5 * field
        # Two sweeps are far from a fixed point; every other check passes.
        assert code == 1
        report = read_json(out / "verify.json")
        failing = [c["name"] for c in report["checks"] if not c["passed"]]
        assert failing == ["stationarity residual within tolerance"]

    @pytest.mark.parametrize(
        "family, command, update, code, failing",
        [
            ("lqg", "run-lqg", {"horizon": 1.0}, 0, []),
            (
                "obstacle", "run-grid", {"domain": {"shape": [21, 21], "n_t": 100}},
                1, ["stationarity residual within tolerance"],
            ),
        ],
        ids=["lqg", "obstacle"],
    )
    def test_zero_sweep_run_verifies(
        self, family, command, update, code, failing, tmp_path, capsys
    ):
        """A one-entry history has nothing to descend from: the
        monotonicity check passes vacuously and verify.json is written."""
        doc = json.loads(bundled_config_path(family).read_text())
        for key, value in update.items():
            doc[key] = dict(doc[key], **value) if isinstance(value, dict) else value
        doc["solver"]["max_iters"] = 0
        config = write_doc(tmp_path, doc)
        out = tmp_path / "run"
        main([command, "--config", str(config), "--out", str(out)])
        assert main(["verify", str(out)]) == code
        report = read_json(out / "verify.json")
        assert [c["name"] for c in report["checks"] if not c["passed"]] == failing
        mono = next(c for c in report["checks"] if c["name"] == "objective descends monotonically")
        assert mono["detail"] == "one objective value"

    @pytest.mark.parametrize("family", ["lqg", "grid"])
    def test_a_rise_is_recorded_and_fails_only_verify(self, family, monkeypatch, tmp_path, capsys):
        """One sweep's objective is pushed up past the slack: the solve
        records it instead of stopping, run-* exits as its budget says,
        its summary counts it, and verify fails the descent check alone."""
        if family == "lqg":
            # one objective per sweep plus the initial one; push up sweep 2
            per_solve, calls = LQG_DOC["solver"]["max_iters"] + 1, []
            objective = lqg._closed_loop_objective

            def rising(*args, **kwargs):
                calls.append(None)
                J = objective(*args, **kwargs)
                return J + 1.0 + abs(J) if len(calls) % per_solve == 3 else J

            monkeypatch.setattr(lqg, "_closed_loop_objective", rising)
            command, doc = "run-lqg", LQG_DOC
        else:
            backward = gridpde._backward_pass

            def rising(*args, **kwargs):
                J = backward(*args, **kwargs)
                return J + 1.0 + abs(J)

            monkeypatch.setattr(gridpde, "_backward_pass", rising)
            command, doc = "run-grid", OBSTACLE_DOC
        config = write_doc(tmp_path, doc)
        out = tmp_path / "run"
        assert main([command, "--config", str(config), "--out", str(out)]) == 0
        assert read_json(out / "summary.json")["monotonicity_violations"] == 1
        assert main(["verify", str(out)]) == 1
        report = read_json(out / "verify.json")
        failing = [c for c in report["checks"] if not c["passed"]]
        assert [c["name"] for c in failing] == ["objective descends monotonically"]
        assert failing[0]["detail"] == f"1 rise(s) in {doc['solver']['max_iters']} sweeps"

    def test_tampered_iterations_fail_naming_the_iteration(
        self, lqg_run, tmp_path, capsys
    ):
        config, _ = lqg_run
        out = tmp_path / "run"
        assert main(["run-lqg", "--config", str(config), "--out", str(out)]) == 0
        path = out / "iterations.csv"
        lines = path.read_text().splitlines()
        k, value = lines[3].split(",")
        lines[3] = f"{k},{float(value) + 0.5}"
        path.write_text("\n".join(lines) + "\n")
        # only a rerun can name a tampered entry before the last one
        assert main(["verify", "--rerun", str(out)]) == 1
        report = read_json(out / "verify.json")
        failing = [c for c in report["checks"] if not c["passed"]]
        assert failing
        assert any(f"k={int(k)}" in c["detail"] for c in failing)

    def test_tampered_config_fails_digest(self, lqg_run, tmp_path, capsys):
        config, _ = lqg_run
        out = tmp_path / "run"
        assert main(["run-lqg", "--config", str(config), "--out", str(out)]) == 0
        doc = json.loads((out / "config.json").read_text())
        doc["seed"] = 12345
        (out / "config.json").write_text(json.dumps(doc, indent=2) + "\n")
        assert main(["verify", str(out)]) == 1

    def test_missing_run_dir(self, tmp_path, capsys):
        assert main(["verify", str(tmp_path / "ghost")]) == 2


def nan_horizon(text):
    return json.dumps(dict(json.loads(text), horizon=float("nan")))


@pytest.mark.parametrize(
    "command, name, edit",
    [
        ("simulate", "grid.json", lambda text: text[:20]),
        ("verify", "grid.json", lambda text: "{}"),
        ("verify", "manifest.json", lambda text: "not json"),
        ("simulate", "grid.json", nan_horizon),
        ("verify", "grid.json", nan_horizon),
    ],
    ids=[
        "truncated-grid-simulate", "empty-grid-verify", "non-json-manifest-verify",
        "nan-horizon-grid-simulate", "nan-horizon-grid-verify",
    ],
)
def test_corrupted_json_artifact_is_exit_2(command, name, edit, grid_run, tmp_path, capsys):
    """A run directory's JSON artifact that does not parse, or lacks what
    it must hold, is invalid input: exit 2 and one error line naming it.
    So is one holding NaN, which write_json never writes: a NaN horizon
    in grid.json would pass the horizon check and reach the control
    law's time index."""
    config, run = grid_run
    corrupted = tmp_path / "run"
    shutil.copytree(run, corrupted)
    path = corrupted / name
    path.write_text(edit(path.read_text()))
    if command == "simulate":
        argv = ["simulate", "--config", str(config), "--controller", str(corrupted),
                "--out", str(tmp_path / "sim"), "--paths", "5"]
    else:
        argv = ["verify", str(corrupted)]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and name in err
    assert "Traceback" not in err


@pytest.mark.parametrize("objective", ["abc", None, True], ids=["string", "null", "true"])
def test_non_numeric_summary_objective_is_exit_2(objective, grid_run, tmp_path, capsys):
    """summary.json's objective must be a JSON number: a string or null is
    invalid input, and so is a boolean, which float() would read as 1.0."""
    _, run = grid_run
    corrupted = tmp_path / "run"
    shutil.copytree(run, corrupted)
    path = corrupted / "summary.json"
    summary = json.loads(path.read_text())
    summary["objective"] = objective
    path.write_text(json.dumps(summary))
    (corrupted / "verify.json").unlink(missing_ok=True)
    assert main(["verify", str(corrupted)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "summary.json" in err
    assert "Traceback" not in err
    assert not (corrupted / "verify.json").exists()


def _run_on_tampered_table(command, name, edit, run, tmp_path):
    """Copy the run (config, directory), apply edit(header, rows) to the
    cells of its table `name` and run command on the copy; returns the
    exit code and the copy."""
    config, run = run
    corrupted = tmp_path / "run"
    shutil.copytree(run, corrupted)
    (corrupted / "verify.json").unlink(missing_ok=True)
    path = corrupted / name
    header, *body = path.read_text().splitlines()
    rows = [line.split(",") for line in body]
    edit(header.split(","), rows)
    path.write_text("\n".join([header] + [",".join(row) for row in rows]) + "\n")
    if command == "simulate":
        argv = ["simulate", "--config", str(config), "--controller", str(corrupted),
                "--out", str(tmp_path / "sim"), "--paths", "5"]
    else:
        argv = ["verify", str(corrupted)]
    return main(argv), corrupted


@pytest.mark.parametrize(
    "command, cell", [("simulate", "nan"), ("verify", "nan"), ("verify", "0.4999")]
)
def test_stored_gain_times_are_checked(command, cell, lqg_run, tmp_path, capsys):
    """The law's index_for reads gains.csv's time column: verify refuses
    one that is not the configured node times, and simulate one that is
    not finite."""

    def set_last_time(header, rows):
        rows[-1][0] = cell

    code, corrupted = _run_on_tampered_table(
        command, "gains.csv", set_last_time, lqg_run, tmp_path
    )
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "gains.csv" in err
    assert not (corrupted / "verify.json").exists()


def _move_row_10_time(header, rows):
    rows[10][0] = "0.45"


def _nan_pi_01(header, rows):
    rows[10][header.index("pi_01")] = "nan"


def _drop_every_row(header, rows):
    rows.clear()


@pytest.mark.parametrize("command", ["simulate", "verify"])
@pytest.mark.parametrize(
    "tamper, fault",
    [
        (_move_row_10_time, "not strictly increasing"),
        (_nan_pi_01, "non-finite value"),
        (_drop_every_row, "holds no rows"),
    ],
    ids=["time-out-of-order", "nan-gain", "header-only"],
)
def test_corrupted_gain_table_is_exit_2(command, tamper, fault, lqg_run, tmp_path, capsys):
    """A gains.csv with a non-finite cell, a time column that is not
    strictly increasing or no rows at all is invalid input to both
    commands, refused when the table is read with the fault named:
    simulate would apply wrong gains, and verify would report a numerical
    failure (a header-only table would fail building the trajectory)."""
    code, corrupted = _run_on_tampered_table(command, "gains.csv", tamper, lqg_run, tmp_path)
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "gains.csv" in err and fault in err
    assert "Traceback" not in err
    assert not (corrupted / "verify.json").exists()


def _nan_u_0(header, rows):
    # t_index 30, the middle memory node, where the density sits
    rows[30 * 21 + 10][header.index("u_0")] = "nan"


def _swap_rows_0_and_299(header, rows):
    rows[0], rows[299] = rows[299], rows[0]


@pytest.mark.parametrize("command", ["simulate", "verify"])
@pytest.mark.parametrize(
    "tamper, fault",
    [
        (_nan_u_0, "non-finite control value"),
        (_swap_rows_0_and_299, "t_index column"),
    ],
    ids=["nan-control", "rows-swapped"],
)
def test_corrupted_control_table_is_exit_2(command, tamper, fault, grid_run, tmp_path, capsys):
    """A control.csv with a non-finite cell, or with index columns (t_index,
    t, z_*) other than those written for its grid.json, is invalid input to
    both commands: simulate would apply an undefined or misplaced control,
    and verify would report a numerical failure or check a table that is
    not the one the law reads."""
    code, corrupted = _run_on_tampered_table(command, "control.csv", tamper, grid_run, tmp_path)
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "control.csv" in err and fault in err
    assert "Traceback" not in err
    assert not (corrupted / "verify.json").exists()


@pytest.mark.parametrize(
    "key, value", [("lower", [-4.0, -2.0]), ("upper", [4.0, 2.0]), ("shape", [31, 21])]
)
def test_verify_refuses_a_grid_sidecar_off_the_configured_grid(
    key, value, grid_run, tmp_path, capsys
):
    """verify steps the stored control on the configured grid, and simulate
    interpolates it on grid.json's: verify refuses a sidecar that differs
    from the configuration, here on the state axis the control table does
    not index. simulate still accepts it, since a law may be solved on
    another mesh."""
    config, run = grid_run
    corrupted = tmp_path / "run"
    shutil.copytree(run, corrupted)
    (corrupted / "verify.json").unlink(missing_ok=True)
    path = corrupted / "grid.json"
    path.write_text(json.dumps(dict(json.loads(path.read_text()), **{key: value})))
    assert main(["verify", str(corrupted)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {key} ") and "grid.json" in err
    assert not (corrupted / "verify.json").exists()
    argv = ["simulate", "--config", str(config), "--controller", str(corrupted),
            "--out", str(tmp_path / "sim"), "--paths", "5"]
    assert main(argv) == 0


@pytest.mark.parametrize(
    "command, doc, field, value, flags",
    [
        ("run-lqg", LQG_DOC, "solver", 5, []),
        ("run-lqg", LQG_DOC, "solver", "ab", []),
        ("run-grid", OBSTACLE_DOC, "domain", [1, 2], ["--dt", "0.005"]),
        ("run-grid", OBSTACLE_DOC, "domain", 5, []),
        ("run-grid", OBSTACLE_DOC, "obstacle", 5, []),
    ],
    ids=[
        "solver-number", "solver-string", "domain-list-with-dt", "domain-number",
        "obstacle-number",
    ],
)
def test_section_that_is_not_an_object_is_exit_2_before_any_output(
    command, doc, field, value, flags, tmp_path, capsys
):
    """A config section that is not a JSON object is invalid input, both
    where the command-line overrides fold into the solver and domain
    objects, before parse_config reads them, and in parse_config."""
    config = write_doc(tmp_path, dict(doc, **{field: value}))
    out = tmp_path / "run"
    assert main([command, "--config", str(config), "--out", str(out)] + flags) == 2
    assert not out.exists()
    err = capsys.readouterr().err
    assert err.startswith("error: ") and f"'{field}' must be an object" in err


NOT_UTF8 = b"\xff\xfe"


@pytest.mark.parametrize("kind", ["directory", "not-utf8"])
def test_unreadable_config_is_exit_2(kind, tmp_path, capsys):
    config = tmp_path / "config.json"
    if kind == "directory":
        config.mkdir()
    else:
        config.write_bytes(NOT_UTF8)
    out = tmp_path / "run"
    assert main(["run-lqg", "--config", str(config), "--out", str(out)]) == 2
    assert not out.exists()
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot read {config}")


@pytest.mark.parametrize("name", ["summary.json", "gains.csv", "iterations.csv"])
def test_unreadable_run_artifact_is_exit_2(name, lqg_run, tmp_path, capsys):
    """Bytes that are not UTF-8 in a JSON artifact (read_json) or in a
    CSV header (read_csv) are invalid input to verify, named in the error
    line."""
    _, run = lqg_run
    corrupted = tmp_path / "run"
    shutil.copytree(run, corrupted)
    (corrupted / "verify.json").unlink(missing_ok=True)
    (corrupted / name).write_bytes(NOT_UTF8)
    assert main(["verify", str(corrupted)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot read {corrupted / name}")
    assert not (corrupted / "verify.json").exists()


def test_horizon_check_fails_on_nan():
    with pytest.raises(cli.ProblemError, match="controller horizon nan"):
        cli._check_horizon(float("nan"), 1.0)


@pytest.mark.parametrize(
    "command, family",
    [("run-lqg", "grid"), ("run-grid", "grid"), ("simulate", "grid"), ("simulate", "lqg")],
)
def test_nan_time_step_is_exit_2_before_any_output(
    command, family, lqg_run, grid_run, tmp_path, capsys
):
    """--dt nan meets the one time-step rule, which refuses it. run-lqg on
    an obstacle document meets it too: the override is folded into the
    document's n_t before the family is checked."""
    config, run = grid_run if family == "grid" else lqg_run
    out = tmp_path / "out"
    argv = [command, "--config", str(config), "--out", str(out), "--dt", "nan"]
    if command == "simulate":
        argv += ["--controller", str(run), "--paths", "5"]
    assert main(argv) == 2
    assert not out.exists()
    assert "must be finite" in capsys.readouterr().err


@pytest.mark.parametrize("where", ["document", "override"])
@pytest.mark.parametrize("command", ["run-lqg", "run-grid", "simulate"])
def test_negative_seed_is_exit_2_before_any_output(
    command, where, lqg_run, grid_run, tmp_path, capsys
):
    """A seed must be a nonnegative integer, in the document or as --seed,
    for every command that reads one."""
    config, run = grid_run if command == "run-grid" else lqg_run
    doc = json.loads(config.read_text())
    if where == "document":
        doc["seed"] = -1
    config = write_doc(tmp_path, doc)
    out = tmp_path / "out"
    argv = [command, "--config", str(config), "--out", str(out)]
    if command == "simulate":
        argv += ["--controller", str(run), "--paths", "5"]
    if where == "override":
        argv += ["--seed", "-1"]
    assert main(argv) == 2
    assert not out.exists()
    assert "seed must be nonnegative" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["run-lqg", "run-grid", "simulate", "reproduce"])
def test_out_naming_a_file_is_exit_2_before_any_work(
    command, lqg_run, grid_run, tmp_path, monkeypatch, capsys
):
    """An --out that names an existing file is invalid input: exit 2 with
    one error line, before any solve or simulation, and the file is left
    as it was."""

    def no_work(*args, **kwargs):
        raise AssertionError(f"{command} solved or simulated before checking --out")

    for name in ("fbsm_lqg", "fbsm_grid", "simulate_paths"):
        monkeypatch.setattr(cli, name, no_work)
    config, run = grid_run if command == "run-grid" else lqg_run
    out = tmp_path / "taken"
    out.write_text("not a directory\n")
    argv = [command, "--out", str(out)]
    if command != "reproduce":
        argv += ["--config", str(config)]
    if command == "simulate":
        argv += ["--controller", str(run), "--paths", "5"]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(out) in err
    assert "Traceback" not in err
    assert out.read_text() == "not a directory\n"


class TestParser:
    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["--version"])
        assert excinfo.value.code == 0

    def test_unknown_subcommand(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["frobnicate"])
        assert excinfo.value.code == 2

    def test_reproduce_is_wired(self, capsys):
        with pytest.raises(SystemExit):
            main(["reproduce", "--help"])
        assert "reproduce" in capsys.readouterr().out

    def test_module_entry_point(self):
        proc = subprocess.run(
            [sys.executable, "-m", "fbsweep", "--version"],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0
        assert "fbsweep" in proc.stdout


class TestReproduce:
    def test_reduced_reproduce_runs_end_to_end(self, tmp_path, monkeypatch, capsys):
        """reproduce on reduced bundled documents: a 1-unit lqg horizon with
        10 sweeps, and a 21x21 obstacle with n_t = 100 and 2 sweeps. The
        noise buffer holds 7 steps, so both simulations (400 lqg steps at
        dt/4, 100 grid steps) end on a ragged batch."""
        lqg = json.loads(bundled_config_path("lqg").read_text())
        lqg["horizon"] = 1.0
        lqg["solver"]["max_iters"] = 10
        obstacle = json.loads(bundled_config_path("obstacle").read_text())
        obstacle["domain"].update(shape=[21, 21], n_t=100)
        obstacle["solver"]["max_iters"] = 2
        paths = {
            "lqg": write_doc(tmp_path, lqg, "lqg.json"),
            "obstacle": write_doc(tmp_path, obstacle, "obstacle.json"),
        }
        monkeypatch.setattr(cli, "bundled_config_path", paths.__getitem__)
        monkeypatch.setattr(sdesim, "_NOISE_BATCH", 7 * 20 * 2)
        out = tmp_path / "out"
        # Two sweeps are far from a fixed point: only the grid verify fails.
        assert main(["reproduce", "--out", str(out), "--paths", "20"]) == 1
        summary = read_json(out / "acceptance_summary.json")
        assert summary["exit_codes"] == {
            "run-lqg": 0,
            "simulate-lqg": 0,
            "verify-lqg": 0,
            "run-grid": 0,
            "simulate-grid": 0,
            "verify-grid": 1,
        }
        assert set(summary) == {"lqg", "obstacle", "exit_codes"}
        common = {
            "objective", "converged", "iterations",
            "mc_mean", "mc_stderr", "mc_gap", "excluded_paths",
        }
        assert set(summary["lqg"]) == common | {"analytic_objective"}
        assert set(summary["obstacle"]) == common | {"max_negative_mass", "max_mass_drift"}
        assert summary["lqg"]["iterations"] == 10 and summary["obstacle"]["iterations"] == 2
        for family in ("lqg", "obstacle"):
            paths_csv = (out / f"{family}-sim" / "paths.csv").read_text().splitlines()
            n_steps = 400 if family == "lqg" else 100
            assert len(paths_csv) == 1 + 20 * (n_steps + 1)
        # reproduce's run directories are what run-lqg and run-grid, then
        # verify, write for the same documents, file for file.
        for family, command in (("lqg", "run-lqg"), ("obstacle", "run-grid")):
            alone = tmp_path / command
            main([command, "--config", str(paths[family]), "--out", str(alone)])
            main(["verify", str(alone)])
            names = sorted(p.name for p in (out / family).iterdir())
            assert names == sorted(p.name for p in alone.iterdir())
            for name in names:
                assert (out / family / name).read_bytes() == (alone / name).read_bytes(), name

    def test_paths_checked_before_any_solve(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(["reproduce", "--out", str(out), "--paths", "0"]) == 2
        assert "error: --paths must be at least 1" in capsys.readouterr().err
        assert not (out / "lqg").exists()

    @pytest.mark.parametrize("name", ["lqg", "lqg-sim", "obstacle", "obstacle-sim"])
    def test_a_file_in_place_of_a_run_directory_is_exit_2(
        self, name, tmp_path, monkeypatch, capsys
    ):
        """A file where reproduce makes a run directory is invalid input:
        exit 2 with one error line naming it, before any solve or
        simulation, and nothing is written."""

        def no_work(*args, **kwargs):
            raise AssertionError("reproduce solved or simulated before checking --out")

        for stub in ("fbsm_lqg", "fbsm_grid", "simulate_paths"):
            monkeypatch.setattr(cli, stub, no_work)
        out = tmp_path / "out"
        out.mkdir()
        (out / name).write_text("not a directory\n")
        assert main(["reproduce", "--out", str(out), "--paths", "5"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and str(out / name) in err
        assert "Traceback" not in err
        assert [p.name for p in out.iterdir()] == [name]
