"""Check the JSON summary lines of a `bench/run.py --smoke` log.

bench/run.py exits 0 even when an answer is wrong, so this script reads
its JSON summary lines (one per traced/untraced pass) and exits 1 when
any summary reports a wrong answer or a failed operation, when a metric
is null or non-finite, when a traced call count (`*.calls`) reads 0,
when a workload's traced `gridpde.build_generator` calls differ from its
`DiscreteGenerator.apply` plus `apply_adjoint` calls (each grid step
builds one generator and steps one field with it), when a metric the
benchmark declares is missing, or when the log holds no summary at all.

The declared metrics are read from the repository's BENCHMARK.json,
which this script does not edit: every `<workload>.<metric>` pair of its workloads and its end-to-end and
per-layer metric names must appear in some summary, so a metric that
disappears from the summaries fails as a null one does.

With GITHUB_STEP_SUMMARY set, it appends three informational tables to
that file: the code size figures, each workload's declared end-to-end
metrics, and the traced grid structure (every `gridpde.*.calls` count,
`gridpde.step_ms.samples` and `core.mesh.calls`), so that a refactor can
be seen to keep the calls the traced pass makes.

Usage: python3 .github/check_smoke.py SMOKE_LOG
"""

import json
import math
import os
import sys
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parents[1] / "BENCHMARK.json"
STRUCTURE = ("gridpde.step_ms.samples", "core.mesh.calls")
BUILDS = "gridpde.build_generator.calls"
STEPS = ("gridpde.DiscreteGenerator.apply.calls", "gridpde.DiscreteGenerator.apply_adjoint.calls")


def is_structure(name):
    return name in STRUCTURE or (name.startswith("gridpde.") and name.endswith(".calls"))


def read_summaries(path):
    summaries = []
    with open(path) as log:
        for line in log:
            try:
                doc = json.loads(line)
            except ValueError:
                continue
            if isinstance(doc, dict) and "correct" in doc:
                summaries.append(doc)
    return summaries


def read_declared():
    """(end-to-end names, every declared <workload>.<metric> pair)."""
    with open(BENCHMARK) as handle:
        spec = json.load(handle)
    end_to_end = [m["name"] for m in spec["end_to_end"]]
    names = end_to_end + [m["name"] for m in spec["per_layer"]]
    pairs = [f"{w['name']}.{name}" for w in spec["workloads"] for name in names]
    return end_to_end, pairs


def metrics(summaries):
    return [(key, entry) for s in summaries for key, entry in s["metrics"].items()]


def unmatched_builds(summaries):
    """(workload, builds, steps) for each workload whose traced generator
    builds differ from its apply plus apply_adjoint calls."""
    counts = {}
    for key, entry in metrics(summaries):
        workload, _, name = key.partition(".")
        if name == BUILDS or name in STEPS:
            counts.setdefault(workload, {})[name] = entry["value"] or 0
    return [
        (workload, row.get(BUILDS, 0), sum(row.get(name, 0) for name in STEPS))
        for workload, row in sorted(counts.items())
        if row.get(BUILDS, 0) != sum(row.get(name, 0) for name in STEPS)
    ]


def write_step_summary(out, summaries, end_to_end):
    # Informational, no gate: the code size figures of the traced pass.
    sizes = {
        key.split(".", 1)[1]: entry["value"]
        for key, entry in metrics(summaries)
        if key.split(".", 1)[-1] in ("code.sloc", "code.public_names")
    }
    # Informational, no gate: each workload's end-to-end metrics of the
    # untraced pass (the traced pass reports none of them).
    e2e = {}
    for key, entry in metrics(summaries):
        workload, _, name = key.partition(".")
        if name in end_to_end:
            e2e.setdefault(workload, {})[name] = (entry["value"], entry["unit"])
    if sizes:
        out.write("| code size | value |\n|---|---|\n")
        for key, value in sorted(sizes.items()):
            out.write(f"| `{key}` | {value} |\n")
    if e2e:
        out.write("\n| workload | " + " | ".join(end_to_end) + " |\n")
        out.write("|---" * (len(end_to_end) + 1) + "|\n")
        for workload, row in sorted(e2e.items()):
            cells = [
                f"{row[n][0]:.4g} {row[n][1]}" if n in row and row[n][0] is not None else "-"
                for n in end_to_end
            ]
            out.write(f"| `{workload}` | " + " | ".join(cells) + " |\n")
    # Informational, no gate: the traced pass's grid call structure, one
    # column per workload.
    structure = {}
    for key, entry in metrics(summaries):
        workload, _, name = key.partition(".")
        if is_structure(name):
            structure.setdefault(name, {})[workload] = entry["value"]
    if structure:
        workloads = sorted({w for row in structure.values() for w in row})
        out.write("\n| traced structure | " + " | ".join(workloads) + " |\n")
        out.write("|---" * (len(workloads) + 1) + "|\n")
        for name, row in sorted(structure.items()):
            cells = [str(row[w]) if row.get(w) is not None else "-" for w in workloads]
            out.write(f"| `{name}` | " + " | ".join(cells) + " |\n")


def main(path) -> int:
    end_to_end, declared = read_declared()
    summaries = read_summaries(path)
    bad = [s for s in summaries if s["correct"] is not True or s["failed"] != 0]
    print(f"{len(summaries)} summaries, {len(bad)} with wrong answers or failures")
    # A renamed traced function turns its metric null; fail on that too.
    null = [
        (key, entry.get("reason"))
        for key, entry in metrics(summaries)
        if entry["value"] is None
    ]
    for key, reason in null:
        print(f"null metric {key}: {reason}")
    # json.loads reads a bare NaN or Infinity token as a float; fail on those too.
    nonfinite = [
        key
        for key, entry in metrics(summaries)
        if isinstance(entry["value"], float) and not math.isfinite(entry["value"])
    ]
    for key in nonfinite:
        print(f"non-finite metric {key}")
    # A refactor that stops calling a traced function reads 0, not null.
    uncalled = [
        key for key, entry in metrics(summaries) if key.endswith(".calls") and entry["value"] == 0
    ]
    for key in uncalled:
        print(f"zero call count {key}")
    # One generator per grid step: a build that no step uses, or a step
    # on a generator built for another, shows here.
    unmatched = unmatched_builds(summaries)
    for workload, builds, steps in unmatched:
        print(f"{workload}: {builds} generator builds, {steps} apply/apply_adjoint calls")
    # A metric dropped from the summaries is as lost as a null one.
    present = {key for key, _ in metrics(summaries)}
    missing = [key for key in declared if key not in present]
    for key in missing:
        print(f"missing metric {key}")
    if os.environ.get("GITHUB_STEP_SUMMARY"):
        with open(os.environ["GITHUB_STEP_SUMMARY"], "a") as out:
            write_step_summary(out, summaries, end_to_end)
    failed = bad or null or nonfinite or uncalled or unmatched or missing
    return 1 if failed or not summaries else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
