"""Compare the benchmark's end-to-end metrics of two checkouts, pair by pair.

Usage:

    python3 tools/bench_pairs.py PARENT_DIR CHANGE_DIR --workload W --pairs N [--seed-start S]
        [--json PATH]

Pair i runs ``python3 perfbench/run.py --workload W --seed S+i`` once in
each checkout, from its root: the parent first in even pairs, the change
first in odd ones, so that a drift in the machine's speed falls on both
sides alike.  ``S`` is 1 unless given.  A run that does not end with
``correct: true`` and 0 failed ops stops the comparison.  Each run writes
no bytecode (``PYTHONDONTWRITEBYTECODE=1``) and is started with no
``PYTHONPYCACHEPREFIX``, as ``perfbench/run.py`` is in a checkout: it
reads the installed standard library's stored bytecode and compiles every
diaskit and perfbench module it loads.  A tree that holds a
``__pycache__`` directory is refused, so no side reads bytecode of its
own that may be stale; a fresh ``git archive`` export (below) holds none,
and no run writes one.

For each end-to-end metric of the change's ``BENCHMARK.json`` it prints
both sides' medians and quartiles, the pairs the change wins (a tie counts
for neither side), whether the change's median is within the metric's
bound of the parent's, and whether a gain can be claimed: the change wins
at least nine tenths of the pairs, and its median is better than the
parent's by more than the parent's interquartile range.  Standard library
only.

With ``--json PATH`` it also writes that comparison to PATH: the
workload, the seeds, and for each metric both sides' quartiles (the
median in the middle) and values pair by pair, the wins, the gain, the
parent's IQR, whether it is within bound and whether a gain is claimable.

It exits with status 0 when every metric is within its bound, and with
status 1, after printing and after writing ``--json``, when some metric
is not, or at once when a run is refused.

Compare ``peak_rss_mib`` only between two fresh exports.  The same
``src/`` and ``perfbench/`` have read about 0.15 MiB higher in one
checkout than in another (a working tree against an export, with no cause
found), so export both commits into empty directories first:

    git archive PARENT_COMMIT | tar -x -C PARENT_DIR
    git archive CHANGE_COMMIT | tar -x -C CHANGE_DIR
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path


class RunRefused(RuntimeError):
    """A benchmark run failed, or some op of it gave a wrong result."""


def checked_metrics(result: dict) -> dict[str, float]:
    """The metric values of one run's result line, or ``RunRefused`` unless
    the run is correct with 0 failed ops."""
    if result.get("correct") is not True or result.get("failed") != 0:
        raise RunRefused(f"run not correct: correct={result.get('correct')}, "
                         f"failed={result.get('failed')}")
    return {name: m["value"] for name, m in result["metrics"].items()}


def run(tree: Path, workload: str, seed: int) -> dict[str, float]:
    """One benchmark run in ``tree``, which must hold no bytecode, writing
    none; its metric values."""
    cached = next(tree.rglob("__pycache__"), None)
    if cached is not None:
        raise RunRefused(f"{cached} holds bytecode: compare fresh exports")
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    env.pop("PYTHONPYCACHEPREFIX", None)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed)],
        cwd=tree, env=env, capture_output=True, text=True)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        raise RunRefused(f"{tree}: exit {proc.returncode}\n{proc.stderr}")
    return checked_metrics(json.loads(lines[-1]))


def quartiles(values: list[float]) -> tuple[float, float, float]:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def summarize(spec: list[dict], parent: list[dict[str, float]],
              change: list[dict[str, float]]) -> list[dict]:
    """One summary per end-to-end metric of ``spec`` (``BENCHMARK.json``'s
    ``end_to_end`` list) over the paired runs ``parent[i]``, ``change[i]``."""
    rows = []
    for metric in spec:
        name = metric["name"]
        # sign 1 where lower is better: a gain is a positive sign * (p - c)
        sign = 1 if metric["better"] == "lower" else -1
        p = [r[name] for r in parent]
        c = [r[name] for r in change]
        p_q, c_q = quartiles(p), quartiles(c)
        gap = sign * (p_q[1] - c_q[1])
        iqr = p_q[2] - p_q[0]
        wins = sum(sign * (a - b) > 0 for a, b in zip(p, c))
        rows.append({
            "name": name, "unit": metric["unit"], "better": metric["better"],
            "bound": metric["bound"], "parent": p_q, "change": c_q,
            "parent_values": p, "change_values": c,
            "wins": wins, "pairs": len(p), "gap": gap, "parent_iqr": iqr,
            "within_bound": -gap <= metric["bound"] * p_q[1],
            "claim": 10 * wins >= 9 * len(p) and gap > iqr,
        })
    return rows


def record(workload: str, seeds: list[int], rows: list[dict]) -> dict:
    """The comparison as ``--json`` writes it, from the rows of ``summarize``."""
    def side(name, r):
        q1, median, q3 = r[name]
        return {"median": median, "q1": q1, "q3": q3, "values": r[f"{name}_values"]}

    return {"workload": workload, "seeds": seeds, "metrics": {r["name"]: {
        "unit": r["unit"], "better": r["better"], "bound": r["bound"],
        "parent": side("parent", r), "change": side("change", r),
        "wins": r["wins"], "pairs": r["pairs"], "gain": r["gap"], "parent_iqr": r["parent_iqr"],
        "within_bound": r["within_bound"], "claimable": r["claim"]} for r in rows}}


def render(rows: list[dict]) -> str:
    out = []
    for r in rows:
        rel = r["change"][1] / r["parent"][1] - 1 if r["parent"][1] else float("nan")
        out += [
            f"{r['name']} ({r['unit']}, {r['better']} is better, bound {r['bound']})",
            *(f"  {side:6}  median {q[1]:.6g}  quartiles {q[0]:.6g} .. {q[2]:.6g}"
              for side, q in (("parent", r["parent"]), ("change", r["change"]))),
            f"  change wins {r['wins']}/{r['pairs']}; median {rel:+.1%} against the parent, "
            f"a gain of {r['gap']:.6g}; parent IQR {r['parent_iqr']:.6g}",
            f"  within bound: {'yes' if r['within_bound'] else 'NO'}; "
            f"gain claimable (>= 9/10 wins, gain > parent IQR): "
            f"{'yes' if r['claim'] else 'no'}",
        ]
    return "\n".join(out)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--seed-start", type=int, default=1)
    parser.add_argument("--json", type=Path, help="also write the comparison to this file")
    args = parser.parse_args(argv)
    if args.pairs < 2:
        parser.error("--pairs must be at least 2")
    spec = json.loads((args.change / "BENCHMARK.json").read_text(encoding="utf-8"))["end_to_end"]
    parent, change = [], []
    try:
        for i in range(args.pairs):
            seed = args.seed_start + i
            sides = [("parent", args.parent, parent), ("change", args.change, change)]
            for label, tree, runs in sides if i % 2 == 0 else sides[::-1]:
                runs.append(run(tree, args.workload, seed))
                print(f"pair {i + 1} seed {seed} {label}: "
                      + " ".join(f"{k}={v:.6g}" for k, v in runs[-1].items()), flush=True)
    except RunRefused as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    rows = summarize(spec, parent, change)
    print(render(rows))
    if args.json:
        seeds = list(range(args.seed_start, args.seed_start + args.pairs))
        args.json.write_text(json.dumps(record(args.workload, seeds, rows), indent=1) + "\n",
                             encoding="utf-8")
    return 0 if all(r["within_bound"] for r in rows) else 1


if __name__ == "__main__":
    sys.exit(main())
