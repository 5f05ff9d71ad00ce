"""diaskit benchmark: runs the workloads and prints their metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py [--seed N] [--seconds S]      # every workload

Run from the root of a checkout; diaskit is imported from ``src/`` there.
Each repetition of a workload's op list runs in a fresh single-threaded
Python process (``worker.py``), one op at a time: a closed loop with one
caller.  The number of repetitions is fixed by ``--seconds`` and the
workload's nominal repetition time (``REP_S``), never by how fast the
program runs, so a parent and a change summarise the same count.

Other tenants of a shared machine slow a process by up to 1.7x, and the
slowdown drifts over minutes.  So every time is scaled to the machine's
unloaded speed: the worker times a fixed probe (``worker.probe``) every
10 ms while the ops run, or right after set-up, and a time is multiplied
by ``PROBE_REF_S`` over the mean probe time beside it.  Times and memory
are medians over the repetitions; set-up time is the median over at least
``SETUP_SPAWNS`` set-up-only processes, a few before each repetition.
The unscaled median wall time is printed as ``wall_run_s``.

With ``--trace 0`` the last line of output is a JSON object with the
end-to-end metrics; with ``--trace 1`` repetitions alternate between
untraced and traced, and it carries the per-layer metrics instead.
Without ``--workload`` every workload runs, one after another.
Metric names and units are those of ``BENCHMARK.json``.

Every op's output is checked: an op fails if it raises, if its digest
differs from the reference recorded from the unmodified tree (where one
exists for that exact input), from the first repetition of the run or from
the untraced repetition, or if the independent checks in ``oracle.py``
reject it.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

import workloads
from workloads import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    _SPEC = json.load(_fh)
UNITS = {m["name"]: m["unit"] for m in _SPEC["end_to_end"] + _SPEC["per_layer"]}
# Printed, but not bounded: a correct tree has no failures, and unscaled
# wall time drifts with other tenants' load (NOTES.md).
INFO_UNITS = {"fail_frac": "ratio", "wall_run_s": "s"}

# Wall time of one repetition of each workload, set-up and checks included,
# on the unmodified tree (2 shared vCPUs).  Only used to size the fixed
# repetition count; it does not change with the program under test.
REP_S = {"cli_session": 4.5, "solve_ladder": 9.0, "kxy_sweep": 9.5}
SETUP_SPAWNS = 15
# The time of worker.probe at full speed on the reference machine.  Times
# are scaled by this over the probe time measured beside them.
PROBE_REF_S = 1.2e-4
DEADLINE_S = 170.0


class WorkerError(RuntimeError):
    pass


def spawn(workload: str, seed: int, mode: str, points: str, timeout: float, *extra: str) -> dict:
    """Run one worker to its end and return its result line."""
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), workload, str(seed), mode, points,
           *extra]
    # A fixed hash seed keeps set and dict iteration orders, and with them
    # the work done, the same in every worker.
    env = dict(os.environ, PYTHONHASHSEED="0")
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=max(1.0, timeout))
    except subprocess.TimeoutExpired:
        raise WorkerError(f"{workload} {mode} worker exceeded {timeout:.0f} s") from None
    if proc.returncode != 0:
        raise WorkerError(f"{workload} {mode} worker failed (exit {proc.returncode}):\n"
                          f"{proc.stderr}")
    return json.loads(proc.stdout.splitlines()[-1])


def load_reference() -> dict[str, str]:
    with open(os.path.join(HERE, "reference.json"), encoding="utf-8") as fh:
        return json.load(fh)["digests"]


def failures(reps: list[dict], reference: dict[str, str], base: list[dict]) -> list[str]:
    """One line per failed op execution across ``reps``.  ``base`` holds the
    repetitions whose digests every other one must match."""
    first = base[0]["digests"] if base else reps[0]["digests"]
    bad = []
    for rep in reps:
        for label, dig, want in zip(rep["labels"], rep["digests"], first):
            if label in rep["errors"]:
                bad.append(f"{label}: raised {rep['errors'][label]}")
            elif label in reference and dig != reference[label]:
                bad.append(f"{label}: output differs from the reference")
            elif dig != want:
                bad.append(f"{label}: output differs between repetitions")
            elif label in rep["problems"]:
                bad.append(f"{label}: {'; '.join(rep['problems'][label])}")
    return bad


def repetitions(workload: str, seconds: float) -> int:
    return max(2, round(seconds / REP_S[workload]))


def measure(workload: str, seed: int, seconds: float, traced: bool) -> dict:
    """Run the workload's fixed number of repetitions and summarise them."""
    reference = load_reference()
    started = time.perf_counter()

    def left() -> float:
        return DEADLINE_S - (time.perf_counter() - started)

    def scaled_ops(r: dict) -> list[float]:
        return [t * PROBE_REF_S / p for t, p in zip(r["op_s"], r["op_probe_s"])]

    points = workloads.dump_points(workloads.points(seed))
    reps = repetitions(workload, seconds)
    setups, plain, traces = [], [], []
    for i in range(reps):
        # Set-up samples are spread over the run, a few before each
        # repetition, so that they are not all taken in one busy moment.
        if not traced:
            setups += [spawn(workload, seed, "setup", points, left())
                       for _ in range(-(-SETUP_SPAWNS // reps))]
        mode = "trace" if traced and i % 2 else "run"
        extra = ["--check"] if i == 0 else []
        result = spawn(workload, seed, mode, points, left(), *extra)
        (traces if mode == "trace" else plain).append(result)
    bad = failures(plain, reference, []) + failures(traces, reference, plain)
    attempted = sum(len(r["labels"]) for r in plain + traces)
    summary = {"attempted": attempted, "failed": len(bad), "failures": bad,
               "repetitions": len(plain) + len(traces),
               "info": {"fail_frac": len(bad) / attempted}}
    if traced:
        per_rep = [t["metrics"] for t in traces]
        metrics = {k: statistics.median(m[k] for m in per_rep) for k in per_rep[0]}
        metrics["trace.overhead_frac"] = (
            statistics.median(sum(scaled_ops(t)) for t in traces)
            / statistics.median(sum(scaled_ops(p)) for p in plain) - 1)
        summary["metrics"] = metrics
        return summary
    op_s = [statistics.median(times) for times in zip(*map(scaled_ops, plain))]
    summary["metrics"] = {
        "setup_s": statistics.median(r["setup_s"] * PROBE_REF_S / r["probe_s"] for r in setups),
        "run_s": statistics.median(sum(scaled_ops(r)) for r in plain),
        "slowest_op_s": max(op_s),
        "peak_rss_mib": statistics.median(r["rss_kib"] / 1024 for r in plain),
    }
    summary["info"]["wall_run_s"] = statistics.median(r["run_s"] for r in plain)
    return summary


def report(workload: str, s: dict) -> None:
    """Print one workload's failures and metrics; the last line is the
    JSON result."""
    for line in s["failures"]:
        print(f"FAILED {workload}: {line}")
    print(f"{workload}: {s['repetitions']} repetitions, "
          f"{s['attempted']} ops attempted, {s['failed']} failed")
    for name, value in s["metrics"].items():
        print(f"{name} {value} {UNITS[name]}")
    for name, value in s["info"].items():
        print(f"{name} {value} {INFO_UNITS[name]} (not bounded)")
    print(json.dumps({
        "correct": s["failed"] == 0,
        "attempted": s["attempted"],
        "failed": s["failed"],
        "metrics": {name: {"value": value, "unit": UNITS[name]}
                    for name, value in s["metrics"].items()},
    }), flush=True)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=_SPEC["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "diaskit", "__init__.py")):
        print(f"error: no diaskit sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    try:
        for workload in [args.workload] if args.workload else WORKLOADS:
            report(workload, measure(workload, args.seed, args.seconds, bool(args.trace)))
    except WorkerError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
