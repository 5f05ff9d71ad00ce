"""Every benchmark op reproduces its recorded output, byte for byte.

``perfbench/reference.json`` holds the sha256 of the output of every op of
the three benchmark workloads at the reference seeds, keyed by the op's
label, which spells out its exact input.  This test rebuilds those ops
through ``perfbench/workloads.py``, runs each once in this process and
compares the digests, so a change to any report byte, kernel basis or
sweep result fails the test suite, not only a benchmark run.  The
reference file is only read here.
"""

import json
import os
import sys

import pytest

BENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench")
sys.path.insert(0, BENCH)

import workloads  # noqa: E402

with open(os.path.join(BENCH, "reference.json"), encoding="utf-8") as _fh:
    REFERENCE = json.load(_fh)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_ops_match_the_reference_digests(workload):
    digests = {}
    for seed in REFERENCE["seeds"]:
        for op in workloads.build(workload, seed, workloads.points(seed)):
            if op.label not in digests:
                digests[op.label] = workloads.digest(op.encode(op.call()))
    recorded = {label: REFERENCE["digests"].get(label) for label in digests}
    mismatched = sorted(label for label, dig in digests.items() if recorded[label] != dig)
    # an op with no recorded digest counts as a mismatch
    assert mismatched == []
