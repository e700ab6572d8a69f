"""Tests for run-directory artifact reading and writing."""

import csv
import json
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
    read_iterations,
    read_json,
    slice_nodes,
    time_tag,
    write_config_copy,
    write_control_table,
    write_csv,
    write_field_slices,
    write_gains,
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


def reference_write_csv(path, header, blocks=()):
    """The reference writer: repr of every cell's Python scalar, one chunk
    of CHUNK_ROWS rows per bulk write."""
    with open(path, "w", newline="") as handle:
        csv.writer(handle).writerow(header)
        for columns in blocks:
            columns = [np.asarray(c) for c in columns]
            n_rows = len(columns[0]) if columns else 0
            for lo in range(0, n_rows, artifacts.CHUNK_ROWS):
                cells = [c[lo : lo + artifacts.CHUNK_ROWS].tolist() for c in columns]
                records = zip(*[map(repr, c) for c in cells])
                handle.write("\r\n".join(map(",".join, records)) + "\r\n")


def reference_read_csv(path):
    """The reference reader: split into lines, count each line's commas,
    then parse every cell."""
    lines = Path(path).read_text().splitlines()
    if not lines:
        raise ProblemError(f"empty artifact: {path}")
    header = next(csv.reader(lines[:1]))
    body = [line for line in lines[1:] if line]
    if any(line.count(",") != len(header) - 1 for line in body):
        raise ProblemError(f"ragged rows in {path}")
    if not body:
        return header, np.empty((0, len(header)))
    try:
        data = np.array(",".join(body).split(","), dtype=float)
    except ValueError as exc:
        raise ProblemError(f"non-numeric value in {path}: {exc}") from None
    return header, data.reshape(len(body), len(header))


# Floats drawn often enough to repeat within a column, with both zeros,
# subnormals and the non-finite values, besides arbitrary ones.
SPECIAL_FLOATS = [0.0, -0.0, np.nan, -np.nan, np.inf, -np.inf, 5e-324, -5e-324,
                  2.2250738585072014e-308 / 3, 1 / 3, 0.1, 1e16, -123456789.123456789]
FLOATS = st.one_of(st.sampled_from(SPECIAL_FLOATS), st.floats(width=64))
INTS = st.one_of(st.integers(-3, 3), st.integers(-(2**63), 2**63 - 1))


@st.composite
def tables(draw, kinds=("float", "int", "bool")):
    """A header and one block of columns (int64, bool or float64)."""
    n_rows = draw(st.integers(0, 40))
    columns = []
    for kind in draw(st.lists(st.sampled_from(kinds), min_size=1, max_size=4)):
        values = {"float": FLOATS, "int": INTS, "bool": st.booleans()}[kind]
        dtype = {"float": np.float64, "int": np.int64, "bool": bool}[kind]
        columns.append(np.array(draw(st.lists(values, min_size=n_rows, max_size=n_rows)),
                                dtype=dtype))
    return [f"c{i}" for i in range(len(columns))], columns


def written(header, columns, chunk_rows, writer):
    """The bytes writer(path, header, [columns]) writes, CHUNK_ROWS set."""
    with pytest.MonkeyPatch.context() as patch, tempfile.TemporaryDirectory() as tmp:
        patch.setattr(artifacts, "CHUNK_ROWS", chunk_rows)
        path = Path(tmp) / "t.csv"
        writer(path, header, blocks=[columns])
        return path.read_bytes()


class TestCsvAgainstReferences:
    @settings(max_examples=150, deadline=None)
    @given(table=tables(), chunk_rows=st.integers(1, 9))
    def test_writer_bytes_equal_the_reference_writer(self, table, chunk_rows):
        header, columns = table
        assert written(header, columns, chunk_rows, write_csv) == written(
            header, columns, chunk_rows, reference_write_csv
        )

    @settings(max_examples=150, deadline=None)
    @given(table=tables(kinds=("float", "int")), chunk_rows=st.integers(1, 9))
    def test_reader_bits_equal_the_reference_reader(self, table, chunk_rows):
        header, columns = table
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "t.csv"
            path.write_bytes(written(header, columns, chunk_rows, write_csv))
            got_header, got = read_csv(path)
            ref_header, ref = reference_read_csv(path)
        assert got_header == ref_header == header
        assert got.shape == ref.shape == (len(columns[0]), len(columns))
        assert got.dtype == ref.dtype == np.float64
        assert got.tobytes() == ref.tobytes()

    @pytest.mark.parametrize(
        "body",
        [
            "1.0,2.0\n3.0\n",       # a short row
            "1.0,2.0,3.0\n",        # a long row
            "1,2,3\n4,5,6\n",       # every row long
            "1.0,2.0\n \n",         # a blank-looking row of one space
            "1.0,abc\n",
            "1.0,\n",
            "1.0,True\n",
            "",                     # header only
            "\n\n",                 # header and blank lines
            "1,2\n\n3,4\n\n",       # blank lines between rows
            "1,2\r\n3,4\r\n",       # csv module line ends
        ],
    )
    def test_error_cases_match_the_reference_reader(self, tmp_path, body):
        path = tmp_path / "t.csv"
        path.write_text("a,b\n" + body)
        try:
            expected = reference_read_csv(path)
        except ProblemError as exc:
            # The parse error's own wording, after the colon, may differ.
            message = str(exc).split(": ", 1)[0]
            with pytest.raises(ProblemError) as raised:
                read_csv(path)
            assert str(raised.value).split(": ", 1)[0] == message
        else:
            header, data = read_csv(path)
            assert header == expected[0]
            assert data.shape == expected[1].shape
            assert data.tobytes() == expected[1].tobytes()


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


def write_grid_config(run_dir, grid: GridSpec) -> None:
    """A run directory's config.json: the bundled obstacle document on grid."""
    doc = json.loads(bundled_config_path("obstacle").read_text())
    doc["domain"] = {
        "lower": grid.lower.tolist(), "upper": grid.upper.tolist(),
        "shape": list(grid.shape), "n_t": grid.n_t, "horizon": grid.horizon,
    }
    doc["obstacle"].update(t_on=0.1, t_off=0.2)
    doc.pop("slice_times")
    write_json(Path(run_dir) / CONFIG_FILE, doc)


class TestControlTable:
    def test_round_trip_exact(self, tmp_path):
        grid = GridSpec([-2.0, -1.0], [2.0, 1.0], (7, 5), 6, 0.6)
        rng = np.random.default_rng(3)
        values = rng.normal(size=(6, 5, 1))
        write_grid_config(tmp_path, grid)
        write_control_table(tmp_path, values, grid, d_x=1)
        back, back_grid, d_x = read_control_table(tmp_path)
        np.testing.assert_array_equal(back, values)
        assert back_grid.shape == grid.shape
        assert d_x == 1
        # The control owns a buffer of its own size: it keeps no view of
        # the whole table, whose t and z columns are 3x its bytes here.
        assert back.base is None and back.flags.owndata
        assert back.nbytes == values.nbytes == 6 * 5 * 1 * 8

    def test_tampered_row_count(self, tmp_path):
        grid = GridSpec([-2.0, -1.0], [2.0, 1.0], (7, 5), 6, 0.6)
        values = np.zeros((6, 5, 1))
        write_grid_config(tmp_path, grid)
        write_control_table(tmp_path, values, grid, d_x=1)
        path = tmp_path / "control.csv"
        lines = path.read_text().splitlines()
        path.write_text("\n".join(lines[:-1]) + "\n")
        with pytest.raises(ProblemError):
            read_control_table(tmp_path)

    def test_refuses_a_config_that_configures_no_grid(self, tmp_path):
        grid = GridSpec([-2.0, -1.0], [2.0, 1.0], (7, 5), 6, 0.6)
        write_control_table(tmp_path, np.zeros((6, 5, 1)), grid, d_x=1)
        lqg = json.loads(bundled_config_path("lqg").read_text())
        write_json(tmp_path / CONFIG_FILE, lqg)
        with pytest.raises(ProblemError, match="configures no grid solve"):
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
