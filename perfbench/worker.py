"""One workload repetition in a fresh process.

    python3 perfbench/worker.py WORKLOAD SEED MODE POINTS [--check]

MODE is ``setup`` (build the inputs and exit), ``run`` (run the op list
once, untraced) or ``trace`` (run it once with the span wrappers from
``tracing.py`` installed and the spans written to
``perfbench/out/spans-WORKLOAD-SEED.jsonl``).  POINTS is the JSON of
``workloads.dump_points``: the catalog parameter points, picked by the
``run.py`` before any worker starts.  The worker prints one JSON line.  It
holds ``setup_s``, the time from the worker's start to built inputs
(diaskit imported, ops built), and, in ``setup`` mode, ``probe_s``, the
mean of ``SETUP_PROBES`` probe times taken right after.  For ``run`` and
``trace`` it also holds each op's time, the mean probe time during each op
(probes fire every ``PROBE_EVERY_S``), the digest of every op's output and,
with ``--check``, the problems the independent checks found.  ``run.py``
starts the workers; a user need not call this file directly.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import signal
import sys
import time
from array import array
from fractions import Fraction

STARTED = time.perf_counter()
HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
PROBE_EVERY_S = 0.01
SETUP_PROBES = 30


def probe() -> float:
    """Time a fixed piece of exact arithmetic: the speed the machine gives
    this process right now."""
    t0 = time.perf_counter()
    s = Fraction(0)
    for i in range(1, 60):
        s += Fraction(1, i)
    return time.perf_counter() - t0


class Probing:
    """Samples ``probe`` every ``PROBE_EVERY_S`` of wall time, from a timer
    signal, while the ops run."""

    def __init__(self):
        self.samples = array("d")

    def _fire(self, _signum, _frame):
        self.samples.append(probe())

    def __enter__(self):
        signal.signal(signal.SIGALRM, self._fire)
        signal.setitimer(signal.ITIMER_REAL, PROBE_EVERY_S, PROBE_EVERY_S)
        return self

    def __exit__(self, *_exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)


def _mean(samples) -> float:
    return sum(samples) / len(samples)


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("workload")
    parser.add_argument("seed", type=int)
    parser.add_argument("mode", choices=("setup", "run", "trace"))
    parser.add_argument("points")
    parser.add_argument("--check", action="store_true")
    args = parser.parse_args()

    sys.path[:0] = [SRC, HERE]
    import workloads

    ops = workloads.build(args.workload, args.seed, workloads.load_points(args.points))
    setup_s = time.perf_counter() - STARTED
    if args.mode == "setup":
        print(json.dumps({"setup_s": setup_s,
                          "probe_s": _mean([probe() for _ in range(SETUP_PROBES)])}))
        return 0

    tracer = None
    if args.mode == "trace":
        from tracing import OP_SPAN, Tracer

        tracer = Tracer()
        tracer.install()

    results, op_s, op_probes, errors = [], [], [], {}
    t_start = time.perf_counter()
    with Probing() as probing:
        for i, op in enumerate(ops):
            first_probe = len(probing.samples)
            t0 = time.perf_counter()
            try:
                if tracer is None:
                    results.append(op.call())
                else:
                    tracer.begin_op(i)
                    results.append(tracer.span(OP_SPAN, op.call))
            except (Exception, SystemExit) as exc:
                results.append(None)
                errors[op.label] = f"{type(exc).__name__}: {exc}"
            op_s.append(time.perf_counter() - t0)
            op_probes.append(probing.samples[first_probe:])
    run_s = time.perf_counter() - t_start
    rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    # An op too short to be probed takes the repetition's probe time.
    rep_probe_s = _mean(probing.samples or [probe() for _ in range(SETUP_PROBES)])
    out = {"setup_s": setup_s, "run_s": run_s, "op_s": op_s,
           "op_probe_s": [_mean(p) if p else rep_probe_s for p in op_probes], "rss_kib": rss_kib, "errors": errors,
           "labels": [op.label for op in ops], "digests": [], "problems": {}}
    if tracer is not None:
        tracer.uninstall()
        out["metrics"] = tracer.metrics(run_s)
        os.makedirs(os.path.join(HERE, "out"), exist_ok=True)
        tracer.write(os.path.join(HERE, "out", f"spans-{args.workload}-{args.seed}.jsonl"))
    for op, result in zip(ops, results):
        if result is None:
            out["digests"].append(None)
            continue
        out["digests"].append(workloads.digest(op.encode(result)))
        if args.check:
            try:
                problems = op.check(result)
            except (ValueError, KeyError, IndexError) as exc:
                problems = [f"output unreadable: {type(exc).__name__}: {exc}"]
            if problems:
                out["problems"][op.label] = problems
    print(json.dumps(out), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
