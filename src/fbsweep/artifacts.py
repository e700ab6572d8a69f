"""Run-directory artifacts: CSV tables and JSON documents.

A run directory is the unit of reproducibility. It holds a byte copy of
the configuration that produced it, a manifest identifying code version
and seed, the per-iteration objective table, and the solved fields as
plain CSV. Floats are written with repr round-trip precision and nothing
depends on wall-clock time, so rerunning a configuration reproduces
every file byte for byte.
"""

from __future__ import annotations

import csv
import hashlib
import json
import warnings
from pathlib import Path
from typing import List

import numpy as np

import fbsweep
from fbsweep.core import GridSpec, ProblemError
from fbsweep.gridpde import GridSweepResult
from fbsweep.lqg import GainTrajectory

GAINS_FILE = "gains.csv"
ITERATIONS_FILE = "iterations.csv"
SUMMARY_FILE = "summary.json"
MANIFEST_FILE = "manifest.json"
CONFIG_FILE = "config.json"
CONTROL_FILE = "control.csv"
GRID_FILE = "grid.json"
PATHS_FILE = "paths.csv"
OBJECTIVE_FILE = "objective.json"
# Rows formatted per bulk write: bounds the Python objects a large table
# (a reproduce-sized paths.csv) holds at once.
CHUNK_ROWS = 1 << 14


def _cells(column: np.ndarray):
    """repr of each value's Python scalar (ndarray.tolist()), formatted once
    per distinct bit pattern, so -0.0 and 0.0 stay apart. A column with no
    repeats is formatted cell by cell as it is written, so that its
    strings are not all held at once."""
    column = np.ascontiguousarray(column)
    bits = column.view(f"u{column.itemsize}")
    _, first, inverse = np.unique(bits, return_index=True, return_inverse=True)
    if len(first) == len(column):
        return map(repr, column.tolist())
    text = np.array([repr(v) for v in column[first].tolist()], dtype=object)
    return text[inverse].tolist()


def write_csv(path, header: List[str], blocks=()) -> None:
    """Write a header line, then blocks.

    blocks is an iterable of numeric tables, each a sequence of
    equal-length 1-D arrays (one per column, int, bool or float), written
    in bulk CHUNK_ROWS rows at a time. Each cell is repr of the Python
    scalar that ndarray.tolist() yields, so a float round-trips exactly;
    a chunk formats each distinct value of a column once. Lines end in
    "\r\n", as the csv module ends them.
    """
    path = Path(path)
    with path.open("w", newline="") as handle:
        csv.writer(handle).writerow(header)
        for columns in blocks:
            columns = [np.asarray(c) for c in columns]
            n_rows = len(columns[0]) if columns else 0
            for lo in range(0, n_rows, CHUNK_ROWS):
                cells = [_cells(c[lo : lo + CHUNK_ROWS]) for c in columns]
                handle.write("\r\n".join(map(",".join, zip(*cells))) + "\r\n")


def read_csv(path):
    """Read a CSV written by write_csv: (header, float array of shape (n, c)).

    The body is parsed by np.loadtxt straight from the file; blank lines
    are skipped. A row whose cell count differs from the header's, or a
    cell that is not a number, raises ProblemError.
    """
    path = Path(path)
    if not path.exists():
        raise ProblemError(f"missing artifact: {path}")
    with path.open() as handle:
        first = handle.readline()
    if not first:
        raise ProblemError(f"empty artifact: {path}")
    header = next(csv.reader([first.rstrip("\n")]))
    with warnings.catch_warnings():
        # A header with no rows is an empty table, not a warning.
        warnings.filterwarnings("ignore", "loadtxt: input contained no data")
        try:
            data = np.loadtxt(path, delimiter=",", comments=None, ndmin=2, skiprows=1)
        except ValueError as exc:
            # Tell a row with the wrong cell count from a bad cell, as the
            # rows' comma counts do.
            rows = [line for line in path.read_text().splitlines()[1:] if line]
            if any(row.count(",") != len(header) - 1 for row in rows):
                raise ProblemError(f"ragged rows in {path}") from None
            raise ProblemError(f"non-numeric value in {path}: {exc}") from None
    if not len(data):
        return header, np.empty((0, len(header)))
    if data.shape[1] != len(header):
        raise ProblemError(f"ragged rows in {path}")
    return header, data


def jsonable(obj):
    if isinstance(obj, dict):
        return {str(k): jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return jsonable(obj.tolist())
    if isinstance(obj, (bool, np.bool_)):
        return bool(obj)
    if isinstance(obj, (int, np.integer)):
        return int(obj)
    if isinstance(obj, (float, np.floating)):
        return float(obj)
    return obj


def write_json(path, document: dict) -> None:
    """Write strict JSON: a NaN or infinite value is a ValueError, never a bare token."""
    text = json.dumps(jsonable(document), indent=2, sort_keys=True, allow_nan=False)
    Path(path).write_text(text + "\n")


def read_json(path) -> dict:
    path = Path(path)
    if not path.exists():
        raise ProblemError(f"missing artifact: {path}")
    try:
        doc = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise ProblemError(f"artifact {path} is not valid JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise ProblemError(f"artifact {path} must hold a JSON object")
    return doc


def config_digest(config_text: str) -> str:
    return hashlib.sha256(config_text.encode()).hexdigest()


def write_manifest(run_dir, config_text: str, seed: int, subcommand: str) -> None:
    """Identify a run by configuration digest, code version, and seed.

    Deliberately excludes timestamps and host details: a manifest must be
    identical across reruns of the same configured command.
    """
    write_json(
        Path(run_dir) / MANIFEST_FILE,
        {
            "config_sha256": config_digest(config_text),
            "version": fbsweep.__version__,
            "seed": int(seed),
            "subcommand": subcommand,
        },
    )


def write_config_copy(run_dir, config_text: str) -> None:
    (Path(run_dir) / CONFIG_FILE).write_text(config_text)


def write_iterations(run_dir, history) -> None:
    history = np.asarray(history, dtype=float)
    columns = [np.arange(len(history)), history]
    write_csv(Path(run_dir) / ITERATIONS_FILE, ["k", "J"], blocks=[columns])


def read_iterations(run_dir) -> np.ndarray:
    header, data = read_csv(Path(run_dir) / ITERATIONS_FILE)
    if header != ["k", "J"]:
        raise ProblemError(f"unexpected iterations header {header}")
    if data.size and not np.array_equal(data[:, 0], np.arange(len(data))):
        raise ProblemError("iteration indices are not consecutive from 0")
    return data[:, 1]


def _matrix_columns(name: str, d: int) -> List[str]:
    return [f"{name}_{i}{j}" for i in range(d) for j in range(d)]


def write_gains(run_dir, gains: GainTrajectory) -> None:
    """One row per time node: t, then Psi, Pi, Lambda row-major, then mu."""
    d_s = gains.psi.shape[-1]
    header = (
        ["t"]
        + _matrix_columns("psi", d_s)
        + _matrix_columns("pi", d_s)
        + _matrix_columns("lam", d_s)
        + [f"mu_{i}" for i in range(d_s)]
    )
    table = np.column_stack(
        [
            gains.times,
            gains.psi.reshape(len(gains.times), -1),
            gains.pi.reshape(len(gains.times), -1),
            gains.lam.reshape(len(gains.times), -1),
            gains.mu,
        ]
    )
    write_csv(Path(run_dir) / GAINS_FILE, header, blocks=[table.T])


def read_gains(run_dir, d_x: int) -> GainTrajectory:
    header, data = read_csv(Path(run_dir) / GAINS_FILE)
    n_cols = len(header) - 1
    # 3 d_s^2 matrix columns plus d_s mean columns.
    d_s = 1
    while 3 * d_s * d_s + d_s < n_cols:
        d_s += 1
    if 3 * d_s * d_s + d_s != n_cols:
        raise ProblemError(f"gains table has unexpected column count {len(header)}")
    n = len(data)
    times = data[:, 0]
    at = 1
    blocks = []
    for _ in range(3):
        blocks.append(data[:, at : at + d_s * d_s].reshape(n, d_s, d_s))
        at += d_s * d_s
    mu = data[:, at : at + d_s]
    return GainTrajectory(
        times=times, psi=blocks[0], pi=blocks[1], lam=blocks[2], mu=mu, d_x=d_x
    )


def write_grid_sidecar(run_dir, grid: GridSpec, d_x: int, d_u: int) -> None:
    write_json(
        Path(run_dir) / GRID_FILE,
        {
            "lower": grid.lower,
            "upper": grid.upper,
            "shape": list(grid.shape),
            "n_t": grid.n_t,
            "horizon": grid.horizon,
            "d_x": d_x,
            "d_u": d_u,
        },
    )


def read_grid_sidecar(run_dir):
    path = Path(run_dir) / GRID_FILE
    doc = read_json(path)
    try:
        grid = GridSpec(
            lower=np.asarray(doc["lower"], dtype=float),
            upper=np.asarray(doc["upper"], dtype=float),
            shape=tuple(doc["shape"]),
            n_t=int(doc["n_t"]),
            horizon=float(doc["horizon"]),
        )
        return grid, int(doc["d_x"]), int(doc["d_u"])
    except KeyError as exc:
        raise ProblemError(f"artifact {path} has no key {exc}") from None
    except (TypeError, ValueError) as exc:
        raise ProblemError(f"artifact {path} has an ill-typed entry: {exc}") from None


def write_control_table(run_dir, control: np.ndarray, grid: GridSpec, d_x: int) -> None:
    """Full (t, z) -> u table, one row per time step and memory node.

    control is u(t, z) of shape (n_t,) + memory shape + (d_u,).
    """
    d_u = control.shape[-1]
    z_axes = grid.memory_axes(d_x)
    z_shape = grid.memory_shape(d_x)
    d_z = len(z_shape)
    times = grid.times()[:-1]
    header = (
        ["t_index", "t"]
        + [f"z_{i}" for i in range(d_z)]
        + [f"u_{i}" for i in range(d_u)]
    )
    n_nodes = int(np.prod(z_shape, dtype=int)) if z_shape else 1
    n_t = len(times)
    columns = [np.repeat(np.arange(n_t), n_nodes), np.repeat(times, n_nodes)]
    columns += [np.tile(m.ravel(), n_t) for m in np.meshgrid(*z_axes, indexing="ij")]
    columns += list(control.reshape(n_t * n_nodes, d_u).T)
    write_csv(Path(run_dir) / CONTROL_FILE, header, blocks=[columns])


def read_control_table(run_dir):
    """Rebuild (values, grid, d_x) from control.csv plus its grid sidecar."""
    grid, d_x, d_u = read_grid_sidecar(run_dir)
    header, data = read_csv(Path(run_dir) / CONTROL_FILE)
    z_shape = grid.memory_shape(d_x)
    d_z = len(z_shape)
    expected = ["t_index", "t"] + [f"z_{i}" for i in range(d_z)] + [
        f"u_{i}" for i in range(d_u)
    ]
    if header != expected:
        raise ProblemError(f"unexpected control table header {header}")
    n_nodes = int(np.prod(z_shape, dtype=int)) if z_shape else 1
    if len(data) != grid.n_t * n_nodes:
        raise ProblemError(
            f"control table has {len(data)} rows, expected {grid.n_t * n_nodes}"
        )
    # A copy: a view would keep the whole table, t and z columns included.
    values = data[:, 2 + d_z :].reshape((grid.n_t,) + z_shape + (d_u,)).copy()
    return values, grid, d_x


def time_tag(t: float) -> str:
    return f"{t:.6g}"


def _nearest_index(t: float, grid: GridSpec, last: int) -> int:
    return min(max(int(round(t / grid.dt)), 0), last)


def slice_nodes(grid: GridSpec, slice_times) -> List[int]:
    """The time nodes of the density and value slices at slice_times."""
    return [_nearest_index(t, grid, grid.n_t) for t in slice_times]


def _field_slice(result: GridSweepResult, name: str, node: int):
    """Slice `node` of the result's density or value: from the held field,
    else from the kept slices; None for a value no sweep has made."""
    field = getattr(result, name)
    if field is not None:
        return field[node]
    if not result.iterations:
        return None
    if node not in result.kept_slices:
        raise ProblemError(
            f"the {name} slice at time node {node} was not kept; pass "
            "slice_nodes(grid, slice_times) to fbsm_grid as keep_nodes"
        )
    return result.kept_slices[node]


def write_field_slices(run_dir, result: GridSweepResult, slice_times) -> List[str]:
    """Write density/value/control slices at the requested times.

    Density and value slices carry one row per state-grid node; control
    slices one row per memory node. The field the result does not hold
    in full is read from its kept slices, so the solve must have kept
    slice_nodes(grid, slice_times). Value slices come from the most
    recent backward sweep and are omitted if none has run. Returns the
    filenames written.
    """
    run_dir = Path(run_dir)
    grid = result.grid
    d_x = result.problem.d_x
    written = []
    s_mesh = [m.ravel() for m in grid.mesh()]
    d_z = len(grid.memory_shape(d_x))
    d_u = result.control.shape[-1]
    z_mesh = [m.ravel() for m in np.meshgrid(*grid.memory_axes(d_x), indexing="ij")]
    s_cols = [f"s_{i}" for i in range(grid.dim)]
    for t, node in zip(slice_times, slice_nodes(grid, slice_times)):
        tag = time_tag(t)
        for name, column in (("density", "p"), ("value", "w")):
            data = _field_slice(result, name, node)
            if data is None:
                continue
            filename = f"{name}_t{tag}.csv"
            write_csv(run_dir / filename, s_cols + [column], blocks=[s_mesh + [data.ravel()]])
            written.append(filename)

        name = f"control_t{tag}.csv"
        step = _nearest_index(t, grid, grid.n_t - 1)
        u = result.control[step].reshape(-1, d_u)
        write_csv(
            run_dir / name,
            [f"z_{i}" for i in range(d_z)] + [f"u_{i}" for i in range(d_u)],
            blocks=[z_mesh + list(u.T)],
        )
        written.append(name)
    return written


def write_paths(run_dir, ensemble) -> None:
    """Long-format path table: one row per path per time node.

    The ensemble must hold its state history (simulate_paths with
    history=True); without it this is a ProblemError, raised before the
    file is opened.
    """
    costs = ensemble.cumulative_costs
    d_s = ensemble.states.shape[-1]
    header = (
        ["path_id", "t"]
        + [f"s_{i}" for i in range(d_s)]
        + ["cumulative_cost", "valid"]
    )
    times = ensemble.times
    n_t = len(times)
    valid = np.asarray(ensemble.valid).astype(np.int64)

    def blocks():
        per_block = max(1, CHUNK_ROWS // n_t)
        for lo in range(0, ensemble.n_paths, per_block):
            hi = min(lo + per_block, ensemble.n_paths)
            yield [
                np.repeat(np.arange(lo, hi), n_t),
                np.tile(times, hi - lo),
                *ensemble.states[lo:hi].reshape(-1, d_s).T,
                costs[lo:hi].ravel(),
                np.repeat(valid[lo:hi], n_t),
            ]

    write_csv(Path(run_dir) / PATHS_FILE, header, blocks=blocks())


def write_objective(run_dir, mean: float, stderr: float, n: int, n_excluded: int) -> None:
    write_json(
        Path(run_dir) / OBJECTIVE_FILE,
        {"mean": mean, "stderr": stderr, "n": n, "n_excluded": n_excluded},
    )


def write_summary(run_dir, document: dict) -> None:
    write_json(Path(run_dir) / SUMMARY_FILE, document)


def read_summary(run_dir) -> dict:
    return read_json(Path(run_dir) / SUMMARY_FILE)
