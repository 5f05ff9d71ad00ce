"""Every benchmark op reproduces its recorded output, byte for byte.

``perfbench/reference.json`` holds the sha256 of the output of every op of
the three benchmark workloads at the reference seeds, keyed by the op's
label, which spells out its exact input.  This test rebuilds those ops
through ``perfbench/workloads.py``, runs each once in this process and
compares the digests, so a change to any report byte, kernel basis or
sweep result fails the test suite, not only a benchmark run.  The
reference file is only read here.

That file covers ``spaces``, ``invariants`` and ``bider`` only on catalog
entries of dimension at most 3, so ``PINNED`` adds the digests of their
``--machine`` reports on two larger inputs read from a file: phi at n = 5,
and the direct sum of Dias3_10, Dias3_13 and Dias2_4 (dimension 8, with
nonzero inner diderivations).
"""

import hashlib
import json
import os
import sys

import pytest

from diaskit.catalog import instantiate
from diaskit.cli import main
from diaskit.core import phi_dialgebra, serialize_dialgebra
from test_ratlin import direct_sum

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


PINNED = {
    ("phi5", "spaces --which inn"):
        "40d35c67f82df2e72877ebc09faeb5dfcd2379cf21a75bf4dc4136e54134e1f9",
    ("phi5", "spaces --which dinn"):
        "db0f061a2ede13c2aed87f494ec1844a452b3b205d3ee6c52f563f3fd4ae1dd6",
    ("phi5", "invariants"):
        "43c2e41aecacded61faec13e3bcb2be96abd85598c9a5395b83c00cb213a0ab1",
    ("phi5", "bider"):
        "5c799a46723677279130b1524b6b56120d71df32344d4d4fce868e47b474f01c",
    ("sum8", "spaces --which inn"):
        "2f7fc0fc7a7fea7f4dc344969f77e7f319f548119545e0838efc44d63a8ed034",
    ("sum8", "spaces --which dinn"):
        "b9e069a31cdbbd73fa81d152228539ace36ec9d4ed35ea6cb2b21eec8b3e0953",
    ("sum8", "invariants"):
        "4d04b5f044306b6874eb297c833a6bd2859abced93addf9ad134f677f29b1dd0",
    ("sum8", "bider"):
        "cd65643ab115031da9007d0631d4fcd7ecb821b11e6eb7ec9bdcc206945c8448",
}


def pinned_input(name):
    if name == "phi5":
        return phi_dialgebra((1, -2, 3, -1, 2))
    return direct_sum(instantiate("Dias3_10"), instantiate("Dias3_13"), instantiate("Dias2_4"))


@pytest.mark.parametrize("name,command", sorted(PINNED))
def test_machine_reports_match_the_pinned_digests(name, command, tmp_path, monkeypatch, capsys):
    # The report names its input file, so the file is read by a relative path.
    monkeypatch.chdir(tmp_path)
    (tmp_path / f"{name}.dlg").write_text(serialize_dialgebra(pinned_input(name)))
    cmd, *flags = command.split()
    assert main([cmd, f"{name}.dlg", *flags, "--machine"]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == PINNED[(name, command)]
