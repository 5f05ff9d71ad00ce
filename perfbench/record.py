"""Record the benchmark's reference outputs or its baseline figures.

    python3 perfbench/record.py reference     # writes perfbench/reference.json
    python3 perfbench/record.py baseline      # writes perfbench/baseline.json

``reference`` runs every workload once at the default seed and at the
held-out seed, with the independent checks on, and stores the sha256 of
every op's output keyed by the op's label.  A label names the op's exact
input, so ops whose input does not depend on the seed are checked at every
seed.  Record it only from a tree whose outputs are trusted: a later
change that alters any output then fails the benchmark.

``baseline`` runs ``run.py`` on every workload for ten seeds and stores
the median and quartiles of each end-to-end metric, with the spread
(interquartile range over median) that BENCHMARK.json's bounds must cover.
"""

from __future__ import annotations

import json
import os
import platform
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(ROOT, "src"), HERE]

import workloads  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

REFERENCE_SEEDS = (0, 4242)
BASELINE_SEEDS = tuple(range(1, 11))


def record_reference() -> None:
    digests: dict[str, str] = {}
    for workload in WORKLOADS:
        for seed in REFERENCE_SEEDS:
            points = workloads.dump_points(workloads.points(seed))
            out = subprocess.run(
                [sys.executable, os.path.join(HERE, "worker.py"), workload, str(seed), "run",
                 points, "--check"],
                cwd=ROOT, capture_output=True, text=True, check=True)
            rep = json.loads(out.stdout.splitlines()[-1])
            if rep["errors"] or rep["problems"]:
                raise SystemExit(f"{workload} seed {seed}: {rep['errors']} {rep['problems']}")
            for label, dig in zip(rep["labels"], rep["digests"]):
                if digests.setdefault(label, dig) != dig:
                    raise SystemExit(f"{label}: output differs between seeds")
    doc = {"seeds": list(REFERENCE_SEEDS), "digests": dict(sorted(digests.items()))}
    with open(os.path.join(HERE, "reference.json"), "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")


def record_baseline() -> None:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    workloads = {}
    for workload in WORKLOADS:
        values: dict[str, list[float]] = {}
        for seed in BASELINE_SEEDS:
            out = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
                 "--seed", str(seed), "--seconds", str(spec["run_seconds"]), "--trace", "0"],
                cwd=ROOT, capture_output=True, text=True, check=True)
            result = json.loads(out.stdout.splitlines()[-1])
            if not result["correct"]:
                raise SystemExit(f"{workload} seed {seed}: {out.stdout}")
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
            print(workload, seed, {k: round(v[-1], 4) for k, v in values.items()}, flush=True)
        summary = {}
        for name, vals in values.items():
            q1, median, q3 = statistics.quantiles(vals, n=4)
            summary[name] = {"median": median, "q1": q1, "q3": q3,
                             "spread": (q3 - q1) / median, "values": vals}
            print(f"  {name}: median {median:.4f}, spread {(q3 - q1) / median:.4f}")
        workloads[workload] = summary
    doc = {
        "seeds": list(BASELINE_SEEDS),
        "run_seconds": spec["run_seconds"],
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "note": "Shared machine, not isolated or pinned. Times are scaled to "
                "the unloaded speed by the probe (run.py); what other tenants' "
                "load leaves is part of the spread.",
        "workloads": workloads,
    }
    with open(os.path.join(HERE, "baseline.json"), "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")


if __name__ == "__main__":
    if sys.argv[1:] == ["reference"]:
        record_reference()
    elif sys.argv[1:] == ["baseline"]:
        record_baseline()
    else:
        raise SystemExit(__doc__)
