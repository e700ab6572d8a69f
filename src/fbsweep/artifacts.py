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
from pathlib import Path
from typing import List

import numpy as np

import fbsweep
from fbsweep.core import GridSpec, ProblemError
from fbsweep.gridpde import ControlField, GridSweepResult
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


def fmt(value) -> str:
    """Render a scalar for CSV with full float round-trip precision."""
    if isinstance(value, (bool, np.bool_)):
        return str(bool(value))
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return repr(float(value))


def write_csv(path, header: List[str], rows=(), blocks=()) -> None:
    """Write a header line, then rows, then blocks.

    rows is an iterable of rows whose cells are formatted one by one with
    fmt. blocks is an iterable of numeric tables, each a sequence of
    equal-length 1-D arrays (one per column, int, bool or float), written
    in bulk CHUNK_ROWS rows at a time: repr of the Python scalars that
    ndarray.tolist() yields is exactly fmt of the same cell, and lines end
    in "\r\n" as the csv module ends them, so both give the same bytes.
    """
    path = Path(path)
    with path.open("w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(header)
        for row in rows:
            writer.writerow([fmt(v) for v in row])
        for columns in blocks:
            columns = [np.asarray(c) for c in columns]
            n_rows = len(columns[0]) if columns else 0
            for lo in range(0, n_rows, CHUNK_ROWS):
                cells = [c[lo : lo + CHUNK_ROWS].tolist() for c in columns]
                records = zip(*[map(repr, c) for c in cells])
                handle.write("\r\n".join(map(",".join, records)) + "\r\n")


def read_csv(path):
    """Read a CSV written by write_csv: (header, float array of shape (n, c))."""
    path = Path(path)
    if not path.exists():
        raise ProblemError(f"missing artifact: {path}")
    lines = path.read_text().splitlines()
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
    return json.loads(path.read_text())


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
    doc = read_json(Path(run_dir) / GRID_FILE)
    grid = GridSpec(
        lower=np.asarray(doc["lower"], dtype=float),
        upper=np.asarray(doc["upper"], dtype=float),
        shape=tuple(doc["shape"]),
        n_t=int(doc["n_t"]),
        horizon=float(doc["horizon"]),
    )
    return grid, int(doc["d_x"]), int(doc["d_u"])


def write_control_table(run_dir, control: ControlField) -> None:
    """Full (t, z) -> u table, one row per time step and memory node."""
    grid = control.grid
    d_x = control.d_x
    d_u = control.d_u
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
    columns += list(control.values.reshape(n_t * n_nodes, d_u).T)
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
    values = data[:, 2 + d_z :].reshape((grid.n_t,) + z_shape + (d_u,))
    return values, grid, d_x


def time_tag(t: float) -> str:
    return f"{t:.6g}"


def _nearest_index(t: float, grid: GridSpec, last: int) -> int:
    return min(max(int(round(t / grid.dt)), 0), last)


def write_field_slices(run_dir, result: GridSweepResult, slice_times) -> List[str]:
    """Write density/value/control slices at the requested times.

    Density and value slices carry one row per state-grid node; control
    slices one row per memory node. Value slices come from the most
    recent backward sweep and are omitted if none has run. Returns the
    filenames written.
    """
    run_dir = Path(run_dir)
    grid = result.grid
    d_x = result.problem.d_x
    written = []
    s_mesh = [m.ravel() for m in grid.mesh()]
    d_z = len(grid.memory_shape(d_x))
    z_mesh = [m.ravel() for m in np.meshgrid(*grid.memory_axes(d_x), indexing="ij")]
    s_cols = [f"s_{i}" for i in range(grid.dim)]
    for t in slice_times:
        tag = time_tag(t)
        node = _nearest_index(t, grid, grid.n_t)

        name = f"density_t{tag}.csv"
        p = result.density.values[node].ravel()
        write_csv(run_dir / name, s_cols + ["p"], blocks=[s_mesh + [p]])
        written.append(name)

        if result.value is not None:
            name = f"value_t{tag}.csv"
            w = result.value.values[node].ravel()
            write_csv(run_dir / name, s_cols + ["w"], blocks=[s_mesh + [w]])
            written.append(name)

        name = f"control_t{tag}.csv"
        step = _nearest_index(t, grid, grid.n_t - 1)
        u = result.control.values[step].reshape(-1, result.control.d_u)
        write_csv(
            run_dir / name,
            [f"z_{i}" for i in range(d_z)] + [f"u_{i}" for i in range(result.control.d_u)],
            blocks=[z_mesh + list(u.T)],
        )
        written.append(name)
    return written


def write_paths(run_dir, ensemble) -> None:
    """Long-format path table: one row per path per time node."""
    d_s = ensemble.states.shape[-1]
    header = (
        ["path_id", "t"]
        + [f"s_{i}" for i in range(d_s)]
        + ["cumulative_cost", "valid"]
    )
    times = ensemble.times
    n_t = len(times)
    costs = ensemble.cumulative_costs
    if costs is None:
        costs = np.zeros((ensemble.n_paths, n_t))
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
