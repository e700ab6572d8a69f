"""Tests for run-directory artifact reading and writing."""

import csv
import json

import numpy as np
import pytest

from fbsweep import artifacts
from fbsweep.artifacts import (
    CONFIG_FILE,
    GAINS_FILE,
    MANIFEST_FILE,
    config_digest,
    jsonable,
    read_control_table,
    read_csv,
    read_gains,
    read_grid_sidecar,
    read_iterations,
    read_json,
    slice_nodes,
    time_tag,
    write_config_copy,
    write_control_table,
    write_csv,
    write_field_slices,
    write_gains,
    write_grid_sidecar,
    write_iterations,
    write_json,
    write_manifest,
)
from fbsweep.config import bundled_config_path, parse_config
from fbsweep.core import GridSpec, ProblemError
from fbsweep.gridpde import fbsm_grid
from fbsweep.lqg import GainTrajectory


def sample_gains(n_steps=7, d_s=2, seed=0):
    rng = np.random.default_rng(seed)
    times = np.linspace(0.0, 1.0, n_steps + 1)

    def sym(scale):
        m = rng.normal(size=(n_steps + 1, d_s, d_s)) * scale
        return (m + m.transpose(0, 2, 1)) / 2

    lam = sym(0.1) + 3.0 * np.eye(d_s)
    return GainTrajectory(
        times=times, psi=sym(1.0), pi=sym(1.0), lam=lam,
        mu=rng.normal(size=(n_steps + 1, d_s)), d_x=1,
    )


def cell(value) -> str:
    """A scalar as a CSV cell should read, formatted on its own: an exact
    repr for a float, the Python spelling for an int or a bool."""
    if isinstance(value, (bool, np.bool_)):
        return str(bool(value))
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return repr(float(value))


def per_cell_csv(path, header, rows):
    """The reference writer: the csv module, one formatted cell at a time."""
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(header)
        for row in rows:
            writer.writerow([cell(v) for v in row])


class TestCsv:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "t.csv"
        rows = np.array(
            [[1 / 3, 2.0], [1e-300, -np.pi], [1e-17, 123456789.123456789], [-2.5, np.pi]]
        )
        write_csv(path, ["a", "b"], blocks=[rows.T])
        header, data = read_csv(path)
        assert header == ["a", "b"]
        np.testing.assert_array_equal(data, rows)

    def test_missing_file(self, tmp_path):
        with pytest.raises(ProblemError, match="missing"):
            read_csv(tmp_path / "nope.csv")

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        with pytest.raises(ProblemError):
            read_csv(path)

    def test_ragged_rows(self, tmp_path):
        path = tmp_path / "ragged.csv"
        path.write_text("a,b\n1.0,2.0\n3.0\n")
        with pytest.raises(ProblemError):
            read_csv(path)

    @pytest.mark.parametrize("body", ["1.0,abc\n", "1.0,\n", "1.0,True\n"])
    def test_non_numeric_cells(self, tmp_path, body):
        path = tmp_path / "bad.csv"
        path.write_text("a,b\n" + body)
        with pytest.raises(ProblemError, match="non-numeric"):
            read_csv(path)

    def test_header_only(self, tmp_path):
        path = tmp_path / "h.csv"
        write_csv(path, ["a", "b", "c"])
        header, data = read_csv(path)
        assert header == ["a", "b", "c"]
        assert data.shape == (0, 3)

    def test_bulk_and_per_cell_bytes_agree(self, tmp_path, monkeypatch):
        # A chunk smaller than the table exercises the chunk boundaries.
        monkeypatch.setattr(artifacts, "CHUNK_ROWS", 4)
        floats = np.array(
            [-0.0, 0.0, 5e-324, 2.2250738585072014e-308 / 3, 1e16, -1e16, 1e-5,
             np.inf, -np.inf, np.nan, 1 / 3, 0.1, -123456789.123456789]
        )
        ints = np.arange(floats.size, dtype=np.int64) - 6
        bools = ints % 3 == 0
        header = ["f", "i", "b"]
        per_cell_csv(tmp_path / "cells.csv", header, zip(floats, ints, bools))
        write_csv(tmp_path / "bulk.csv", header, blocks=[[floats, ints, bools]])
        write_csv(tmp_path / "split.csv", header,
                  blocks=[[c[:5] for c in (floats, ints, bools)],
                          [c[5:] for c in (floats, ints, bools)]])
        cells = (tmp_path / "cells.csv").read_bytes()
        assert b"\r\n-0.0,-6,True\r\n" in cells
        assert (tmp_path / "bulk.csv").read_bytes() == cells
        assert (tmp_path / "split.csv").read_bytes() == cells
        write_csv(tmp_path / "numeric.csv", header[:2], blocks=[[floats, ints]])
        _, data = read_csv(tmp_path / "numeric.csv")
        np.testing.assert_array_equal(data, np.column_stack([floats, ints]))
        assert np.signbit(data[0, 0])


class TestJson:
    def test_jsonable_converts_numpy(self):
        doc = {
            "a": np.float64(1.5),
            "b": np.int64(3),
            "c": np.arange(3),
            "d": [np.True_, {"e": np.float32(0.5)}],
        }
        out = jsonable(doc)
        assert out == {"a": 1.5, "b": 3, "c": [0, 1, 2], "d": [True, {"e": 0.5}]}
        json.dumps(out)

    def test_write_read(self, tmp_path):
        write_json(tmp_path / "d.json", {"z": 1, "a": [1.5]})
        assert read_json(tmp_path / "d.json") == {"z": 1, "a": [1.5]}
        text = (tmp_path / "d.json").read_text()
        assert text.endswith("\n")
        assert text.index('"a"') < text.index('"z"')


class TestManifest:
    def test_contents_and_determinism(self, tmp_path):
        text = '{"family": "lqg"}\n'
        write_manifest(tmp_path, text, seed=7, subcommand="run-lqg")
        write_config_copy(tmp_path, text)
        manifest = read_json(tmp_path / MANIFEST_FILE)
        assert manifest["config_sha256"] == config_digest(text)
        assert manifest["seed"] == 7
        assert manifest["subcommand"] == "run-lqg"
        assert (tmp_path / CONFIG_FILE).read_text() == text
        first = (tmp_path / MANIFEST_FILE).read_bytes()
        write_manifest(tmp_path, text, seed=7, subcommand="run-lqg")
        assert (tmp_path / MANIFEST_FILE).read_bytes() == first

    def test_no_timestamps(self, tmp_path):
        write_manifest(tmp_path, "{}", seed=0, subcommand="run-grid")
        manifest = read_json(tmp_path / MANIFEST_FILE)
        assert set(manifest) == {"config_sha256", "version", "seed", "subcommand"}


class TestIterations:
    def test_round_trip(self, tmp_path):
        history = [277.64, 100.5, 60.9]
        write_iterations(tmp_path, history)
        np.testing.assert_array_equal(read_iterations(tmp_path), history)

    def test_rejects_gap_in_indices(self, tmp_path):
        write_iterations(tmp_path, [1.0, 2.0, 3.0])
        path = tmp_path / "iterations.csv"
        lines = path.read_text().splitlines()
        lines[2] = "5," + lines[2].split(",")[1]
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ProblemError):
            read_iterations(tmp_path)


class TestGains:
    def test_round_trip_exact(self, tmp_path):
        gains = sample_gains()
        write_gains(tmp_path, gains)
        back = read_gains(tmp_path, d_x=1)
        np.testing.assert_array_equal(back.times, gains.times)
        np.testing.assert_array_equal(back.psi, gains.psi)
        np.testing.assert_array_equal(back.pi, gains.pi)
        np.testing.assert_array_equal(back.lam, gains.lam)
        np.testing.assert_array_equal(back.mu, gains.mu)
        assert back.d_x == 1

    def test_missing_gains(self, tmp_path):
        with pytest.raises(ProblemError, match=GAINS_FILE.split(".")[0]):
            read_gains(tmp_path, d_x=1)


class TestGridSidecar:
    def test_round_trip(self, tmp_path):
        grid = GridSpec([-3.0, -3.0], [3.0, 3.0], (11, 9), 20, 1.0)
        write_grid_sidecar(tmp_path, grid, d_x=1, d_u=1)
        back, d_x, d_u = read_grid_sidecar(tmp_path)
        assert back.shape == (11, 9)
        assert back.n_t == 20
        assert back.horizon == 1.0
        np.testing.assert_array_equal(back.lower, grid.lower)
        np.testing.assert_array_equal(back.upper, grid.upper)
        assert (d_x, d_u) == (1, 1)


class TestControlTable:
    def test_round_trip_exact(self, tmp_path):
        grid = GridSpec([-2.0, -1.0], [2.0, 1.0], (7, 5), 6, 0.6)
        rng = np.random.default_rng(3)
        values = rng.normal(size=(6, 5, 1))
        write_grid_sidecar(tmp_path, grid, d_x=1, d_u=1)
        write_control_table(tmp_path, values, grid, d_x=1)
        back, back_grid, d_x = read_control_table(tmp_path)
        np.testing.assert_array_equal(back, values)
        assert back_grid.shape == grid.shape
        assert d_x == 1

    def test_tampered_row_count(self, tmp_path):
        grid = GridSpec([-2.0, -1.0], [2.0, 1.0], (7, 5), 6, 0.6)
        values = np.zeros((6, 5, 1))
        write_grid_sidecar(tmp_path, grid, d_x=1, d_u=1)
        write_control_table(tmp_path, values, grid, d_x=1)
        path = tmp_path / "control.csv"
        lines = path.read_text().splitlines()
        path.write_text("\n".join(lines[:-1]) + "\n")
        with pytest.raises(ProblemError):
            read_control_table(tmp_path)


class TestTimeTag:
    def test_values(self):
        assert time_tag(0.0) == "0"
        assert time_tag(0.25) == "0.25"
        assert time_tag(1.0) == "1"


class TestFieldSlices:
    """The field a result does not hold is written from its kept slices."""

    TIMES = [0.0, 0.15, 0.3]

    def solve(self, sweeps, keep=True):
        doc = json.loads(bundled_config_path("obstacle").read_text())
        doc["domain"] = {
            "lower": [-2.0, -2.0], "upper": [2.0, 2.0],
            "shape": [11, 11], "n_t": 30, "horizon": 0.3,
        }
        doc["obstacle"].update(t_on=0.1, t_off=0.2)
        doc["slice_times"] = self.TIMES
        cfg = parse_config(doc)
        nodes = slice_nodes(cfg.grid, self.TIMES) if keep else ()
        assert nodes == [0, 15, 30] or not keep
        return fbsm_grid(cfg.grid_problem, cfg.grid, max_iters=sweeps, tol=0.0, keep_nodes=nodes)

    def column(self, path):
        return np.array([float(row[-1]) for row in read_csv(path)[1]])

    @pytest.mark.parametrize("sweeps", [1, 2])
    def test_kept_slices_are_written(self, sweeps, tmp_path):
        result = self.solve(sweeps)
        names = write_field_slices(tmp_path, result, self.TIMES)
        assert names == [
            f"{field}_t{time_tag(t)}.csv"
            for t in self.TIMES
            for field in ("density", "value", "control")
        ]
        held, other = ("value", "density") if sweeps % 2 else ("density", "value")
        for t, node in zip(self.TIMES, (0, 15, 30)):
            tag = time_tag(t)
            held_col = self.column(tmp_path / f"{held}_t{tag}.csv")
            assert np.array_equal(held_col, getattr(result, held)[node].ravel())
            other_col = self.column(tmp_path / f"{other}_t{tag}.csv")
            assert np.array_equal(other_col, result.kept_slices[node].ravel())

    def test_initial_pass_writes_no_value(self, tmp_path):
        names = write_field_slices(tmp_path, self.solve(0, keep=False), self.TIMES)
        assert not [n for n in names if n.startswith("value")]

    def test_unkept_slice_is_an_input_error(self, tmp_path):
        with pytest.raises(ProblemError, match="density slice at time node 0 was not kept"):
            write_field_slices(tmp_path, self.solve(1, keep=False), self.TIMES)
