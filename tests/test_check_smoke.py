"""The CI checker of `bench/run.py --smoke` logs (.github/check_smoke.py)."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

CHECKER = Path(__file__).resolve().parents[1] / ".github" / "check_smoke.py"


def summary(**metrics):
    """One run_children summary line: every answer right, nothing failed."""
    return {
        "correct": True,
        "attempted": 3,
        "failed": 0,
        "metrics": {
            key: {"value": value, "unit": "s"} for key, value in metrics.items()
        },
    }


def good_log():
    untraced = summary(**{"lqg-tol.op_s": 3.4, "lqg-tol.setup_s": 0.2, "rollout.op_s": 2.7})
    traced = summary(**{"lqg-tol.code.sloc": 2700, "lqg-tol.code.public_names": 81})
    return [
        "provenance: {}",
        "[lqg-tol] recorded",
        json.dumps(untraced),
        json.dumps(traced),
    ]


def check(tmp_path, lines, step_summary=None):
    log = tmp_path / "smoke.log"
    log.write_text("\n".join(lines) + "\n")
    env = {k: v for k, v in os.environ.items() if k != "GITHUB_STEP_SUMMARY"}
    if step_summary is not None:
        env["GITHUB_STEP_SUMMARY"] = str(step_summary)
    return subprocess.run(
        [sys.executable, str(CHECKER), str(log)], capture_output=True, text=True, env=env
    )


def grid_steps(workload, builds=5000, applies=2000, adjoints=3000):
    """A workload's traced generator builds and the steps that used them."""
    counts = {
        "gridpde.build_generator.calls": builds,
        "gridpde.DiscreteGenerator.apply.calls": applies,
        "gridpde.DiscreteGenerator.apply_adjoint.calls": adjoints,
    }
    return {
        f"{workload}.{name}": {"value": value, "unit": "count"} for name, value in counts.items()
    }


def test_good_log_passes_and_writes_the_tables(tmp_path):
    page = tmp_path / "step_summary.md"
    proc = check(tmp_path, good_log(), step_summary=page)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "2 summaries, 0 with wrong answers or failures" in proc.stdout
    text = page.read_text()
    assert "| `code.public_names` | 81 |" in text
    assert "| `code.sloc` | 2700 |" in text
    assert "| workload | setup_s | op_s | peak_rss_mb | out_mb |" in text
    assert "| `lqg-tol` | 0.2 s | 3.4 s | - | - |" in text
    assert "| `rollout` | - | 2.7 s | - | - |" in text
    assert "traced structure" not in text


def test_the_traced_grid_structure_is_tabulated(tmp_path):
    lines = good_log()
    traced = json.loads(lines[3])
    traced["metrics"].update(grid_steps("obstacle-budget"))
    traced["metrics"].update(grid_steps("rollout"))
    traced["metrics"].update({
        "obstacle-budget.gridpde.step_ms.samples": {"value": 2999, "unit": "count"},
        "obstacle-budget.gridpde.step_ms.p50": {"value": 0.7, "unit": "ms"},
        "obstacle-budget.core.mesh.calls": {"value": 12008, "unit": "count"},
        "rollout.sdesim.lqg.control_eval.calls": {"value": 1000, "unit": "count"},
    })
    lines[3] = json.dumps(traced)
    page = tmp_path / "step_summary.md"
    proc = check(tmp_path, lines, step_summary=page)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    text = page.read_text()
    assert "| traced structure | obstacle-budget | rollout |" in text
    assert "| `gridpde.build_generator.calls` | 5000 | 5000 |" in text
    assert "| `gridpde.step_ms.samples` | 2999 | - |" in text
    assert "| `core.mesh.calls` | 12008 | - |" in text
    assert "step_ms.p50" not in text
    assert "control_eval" not in text


def _wrong_answer(doc):
    doc["correct"] = False


def _failed_operation(doc):
    doc["failed"] = 1


def _null_metric(doc):
    doc["metrics"]["lqg-tol.op_s"] = {"value": None, "unit": "s", "reason": "renamed"}


@pytest.mark.parametrize(
    "spoil",
    [_wrong_answer, _failed_operation, _null_metric],
    ids=["correct-false", "failed-1", "null"],
)
def test_a_bad_summary_fails(tmp_path, spoil):
    lines = good_log()
    doc = json.loads(lines[2])
    spoil(doc)
    lines[2] = json.dumps(doc)
    assert check(tmp_path, lines).returncode == 1


def test_a_nan_metric_fails(tmp_path):
    lines = good_log()
    lines[2] = lines[2].replace("3.4", "NaN")
    assert "NaN" in lines[2]
    proc = check(tmp_path, lines)
    assert proc.returncode == 1
    assert "non-finite metric lqg-tol.op_s" in proc.stdout


def test_a_zero_call_count_fails(tmp_path):
    lines = good_log()
    traced = json.loads(lines[3])
    traced["metrics"].update({
        "obstacle-budget.gridpde.conditional_hamiltonian.calls": {"value": 0, "unit": "count"},
        "obstacle-budget.gridpde.conditional_hamiltonian.s": {"value": 0.0, "unit": "s"},
    })
    lines[3] = json.dumps(traced)
    proc = check(tmp_path, lines)
    assert proc.returncode == 1
    assert "zero call count obstacle-budget.gridpde.conditional_hamiltonian.calls" in proc.stdout
    assert ".conditional_hamiltonian.s" not in proc.stdout


def test_one_generator_per_grid_step_passes(tmp_path):
    lines = good_log()
    traced = json.loads(lines[3])
    traced["metrics"].update(grid_steps("obstacle-budget"))
    lines[3] = json.dumps(traced)
    proc = check(tmp_path, lines)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "generator builds" not in proc.stdout


@pytest.mark.parametrize("builds", [4999, 5001], ids=["fewer-builds", "more-builds"])
def test_a_generator_build_without_its_step_fails(tmp_path, builds):
    lines = good_log()
    traced = json.loads(lines[3])
    traced["metrics"].update(grid_steps("obstacle-budget", builds=builds))
    lines[3] = json.dumps(traced)
    proc = check(tmp_path, lines)
    assert proc.returncode == 1
    assert (
        f"obstacle-budget: {builds} generator builds, 5000 apply/apply_adjoint calls"
        in proc.stdout
    )


def test_a_log_without_a_summary_fails(tmp_path):
    proc = check(tmp_path, ["provenance: {}", "[lqg-tol] exited 1"])
    assert proc.returncode == 1
    assert "0 summaries" in proc.stdout
