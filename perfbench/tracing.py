"""Span tracing around diaskit's layer boundaries, installed from outside.

``Tracer.install`` replaces each public function or method named in
``TARGETS`` with a timing wrapper, in every loaded diaskit module
namespace that refers to it (``spaces.nullspace`` as well as
``ratlin.nullspace``, and tables of solvers such as ``cli._WHICH``).
``Tracer.uninstall`` puts every original back.  Only layer-boundary
functions are wrapped: wrapping every helper roughly doubles run time.

Each call records a span (name, start, end, parent span, op id) in flat
arrays kept in memory; ``write`` dumps them when the run ends.  Counts are
read from arguments and results at the boundary, after the span's clock
has stopped.  A span's self time is its duration minus the durations of
its direct children, which nest and never overlap because the workload
runs on one thread, and minus the time their counters took.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import sys
import time
from array import array
from collections import defaultdict

# (span name, module, attribute) -- "Class.method" patches the class.
TARGETS = (
    ("ratlin.rref", "diaskit.ratlin", "rref"),
    ("ratlin.nullspace", "diaskit.ratlin", "nullspace"),
    ("ratlin.subspace", "diaskit.ratlin", "Subspace.__init__"),
    ("ratlin.matmul", "diaskit.ratlin", "Matrix.__mul__"),
    ("ratlin.contains", "diaskit.ratlin", "Subspace.contains"),
    ("ratlin.det", "diaskit.ratlin", "det"),
    ("core.verify_axioms", "diaskit.core", "Dialgebra.verify_axioms"),
    ("core.multiply", "diaskit.core", "Dialgebra.multiply"),
    ("core.ops", "diaskit.core", "Dialgebra.left_op"),
    ("core.ops", "diaskit.core", "Dialgebra.right_op"),
    ("spaces.identity_route", "diaskit.spaces", "derivation_space"),
    ("spaces.identity_route", "diaskit.spaces", "diderivation_space"),
    ("spaces.op_route", "diaskit.spaces", "derivation_space_via_left_ops"),
    ("spaces.op_route", "diaskit.spaces", "derivation_space_via_right_ops"),
    ("spaces.op_route", "diaskit.spaces", "diderivation_space_via_ops"),
    ("invariants.bider", "diaskit.invariants", "check_bider_leibniz"),
    ("invariants.leibniz", "diaskit.invariants", "LeibnizAlgebra.left_identity_violations"),
    ("invariants.leibniz", "diaskit.invariants", "LeibnizAlgebra.right_identity_violations"),
    ("invariants.actions", "diaskit.invariants", "check_invariant_actions"),
    ("invariants.sets", "diaskit.invariants", "annihilator"),
    ("invariants.sets", "diaskit.invariants", "bar_center"),
    ("invariants.sets", "diaskit.invariants", "halo"),
    ("catalog.sweep", "diaskit.catalog", "verify_catalog"),
    ("catalog.samples", "diaskit.catalog", "branch_samples"),
    ("catalog.det_probe", "diaskit.catalog", "check_det_factorization"),
    ("catalog.instantiate", "diaskit.catalog", "instantiate"),
    ("kxy.axioms", "diaskit.kxy", "check_axioms_truncated"),
    ("kxy.identity", "diaskit.kxy", "check_derivation_identity"),
    ("kxy.identity", "diaskit.kxy", "check_dider_identity"),
    ("kxy.apply", "diaskit.kxy", "KxyOperatorSpec.apply_monomial"),
    ("kxy.poly_mul", "diaskit.kxy", "BivariatePoly.__mul__"),
    ("cli.parse", "diaskit.cli", "build_parser"),
    ("cli.parse", "diaskit.cli", "load_input"),
    ("cli.cmd", "diaskit.cli", "cmd_verify"),
    ("cli.cmd", "diaskit.cli", "cmd_spaces"),
    ("cli.cmd", "diaskit.cli", "cmd_invariants"),
    ("cli.cmd", "diaskit.cli", "cmd_bider"),
    ("cli.cmd", "diaskit.cli", "cmd_catalog"),
    ("cli.cmd", "diaskit.cli", "cmd_kxy"),
    ("cli.render", "diaskit.cli", "render_machine"),
    ("cli.render", "diaskit.cli", "render_human"),
)

OP_SPAN = "op"
LAYERS = ("ratlin", "core", "spaces", "invariants", "catalog", "kxy", "cli")

with open(os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                       "BENCHMARK.json"), encoding="utf-8") as _fh:
    # Every per-layer metric a traced run reports, in BENCHMARK.json's order.
    PER_LAYER = [m["name"] for m in json.load(_fh)["per_layer"]]


def _count_rref(tracer, idx, label, args, result):
    m = args[0]
    nnz = sum(1 for row in m.rows for x in row if x)
    tracer.counts[idx] = (m.nrows, m.nrows * m.ncols, nnz, len(result[1]))


def _count_len(tracer, idx, label, args, result):
    tracer.counts[idx] = (len(result),)


def _count_solve(tracer, idx, label, args, result):
    kind = "dider" if label.startswith("diderivation") else "der"
    tracer.note_dup("spaces.solve", (args[0], kind))


def _count_bider(tracer, idx, label, args, result):
    tracer.counts[idx] = (result["bider_dim"] ** 3,)


def _count_key(key):
    def count(tracer, idx, label, args, result):
        tracer.counts[idx] = (result[key],)
    return count


def _count_apply(tracer, idx, label, args, result):
    tracer.note_dup("kxy.apply", (args[0], args[1], args[2]))


def _count_bytes(tracer, idx, label, args, result):
    tracer.counts[idx] = (len(result.encode()),)


COUNTERS = {
    "rref": _count_rref,
    "nullspace": _count_len,
    "derivation_space": _count_solve,
    "diderivation_space": _count_solve,
    "derivation_space_via_left_ops": _count_solve,
    "derivation_space_via_right_ops": _count_solve,
    "diderivation_space_via_ops": _count_solve,
    "check_bider_leibniz": _count_bider,
    "check_axioms_truncated": _count_key("triples"),
    "check_derivation_identity": _count_key("pairs"),
    "check_dider_identity": _count_key("pairs"),
    "KxyOperatorSpec.apply_monomial": _count_apply,
    "render_machine": _count_bytes,
    "render_human": _count_bytes,
}


class Tracer:
    """Spans of one traced run, plus the patches that record them."""

    def __init__(self):
        self.names: list[str] = []
        self.kind = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.start = array("d")
        self.end = array("d")
        # Time spent in the counters below each span, charged to no span.
        self.counting = array("d")
        self.counts: dict[int, tuple] = {}
        self.stack = [-1]
        self.op_id = -1
        self.seen: dict[str, set] = defaultdict(set)
        self.dups: dict[str, int] = defaultdict(int)
        self.patches: list[tuple[object, object, object]] = []

    # -- recording -------------------------------------------------------

    def _name_id(self, name: str) -> int:
        if name not in self.names:
            self.names.append(name)
        return self.names.index(name)

    def note_dup(self, group: str, key) -> None:
        seen = self.seen[group]
        if key in seen:
            self.dups[group] += 1
        else:
            seen.add(key)

    def begin_op(self, op_id: int) -> None:
        """Start op ``op_id``; repeats are counted within one op."""
        self.op_id = op_id
        self.seen.clear()

    def _wrap(self, name: str, label: str, fn):
        nid = self._name_id(name)
        count = COUNTERS.get(label)
        kind, parent, op = self.kind, self.parent, self.op
        start, end, stack, counting = self.start, self.end, self.stack, self.counting
        clock = time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(kind)
            kind.append(nid)
            parent.append(stack[-1])
            op.append(tracer.op_id)
            start.append(0.0)
            end.append(0.0)
            counting.append(0.0)
            stack.append(idx)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                start[idx] = t0
                end[idx] = t1
            if count is not None:
                count(tracer, idx, label, args, result)
                if stack[-1] >= 0:
                    counting[stack[-1]] += clock() - t1
            return result

        return wrapper

    def span(self, name: str, fn, *args):
        """Call ``fn(*args)`` inside a span named ``name``."""
        return self._wrap(name, name, fn)(*args)

    # -- installing ------------------------------------------------------

    def install(self) -> None:
        """Wrap every target in every loaded diaskit module namespace,
        importing the modules that hold the targets first."""
        owners = {module: importlib.import_module(module) for _n, module, _a in TARGETS}
        modules = [m for key, m in sorted(sys.modules.items())
                   if key == "diaskit" or key.startswith("diaskit.")]
        for name, module_name, attr in TARGETS:
            owner = owners[module_name]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                original = cls.__dict__[meth]
                self._set(cls, meth, original, self._wrap(name, attr, original))
                continue
            original = getattr(owner, attr)
            wrapper = self._wrap(name, attr, original)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._set(module, key, value, wrapper)
                    elif isinstance(value, dict):
                        for dkey, dvalue in list(value.items()):
                            if isinstance(dvalue, tuple) and any(v is original for v in dvalue):
                                patched = tuple(wrapper if v is original else v for v in dvalue)
                                self.patches.append((value, dkey, dvalue))
                                value[dkey] = patched

    def _set(self, owner, key, original, wrapper) -> None:
        self.patches.append((owner, key, original))
        setattr(owner, key, wrapper)

    def uninstall(self) -> None:
        """Restore every patched attribute and table entry, newest first."""
        while self.patches:
            owner, key, original = self.patches.pop()
            if isinstance(owner, dict):
                owner[key] = original
            else:
                setattr(owner, key, original)

    # -- results ---------------------------------------------------------

    def metrics(self, run_s: float) -> dict[str, float]:
        """Per-layer metrics of everything recorded so far."""
        n = len(self.kind)
        child = list(self.counting)
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
        calls: dict[str, int] = defaultdict(int)
        self_s: dict[str, float] = defaultdict(float)
        incl: dict[str, float] = defaultdict(float)
        sums: dict[str, list] = {}
        names = self.names
        for i in range(n):
            name = names[self.kind[i]]
            dur = self.end[i] - self.start[i]
            calls[name] += 1
            self_s[name] += dur - child[i]
            incl[name] += dur
            if i in self.counts:
                acc = sums.setdefault(name, [0] * len(self.counts[i]))
                for k, v in enumerate(self.counts[i]):
                    acc[k] += v
        ids = {name: i for i, name in enumerate(names)}
        rref_id, sub_id = ids.get("ratlin.rref", -1), ids.get("ratlin.subspace", -1)
        solve_id, sweep_id = ids.get("spaces.identity_route", -1), ids.get("catalog.sweep", -1)
        in_rows = 0
        sweep_solves = 0
        for i in range(n):
            k = self.kind[i]
            if k == rref_id and self.parent[i] >= 0 and self.kind[self.parent[i]] == sub_id:
                in_rows += self.counts[i][0]
            elif k == solve_id:
                p = self.parent[i]
                while p >= 0 and self.kind[p] != sweep_id:
                    p = self.parent[p]
                sweep_solves += p >= 0

        def ratio(a, b):
            return a / b if b else 0.0

        rows, cells, nnz, rank = sums.get("ratlin.rref", [0, 0, 0, 0])
        solves = calls["spaces.identity_route"] + calls["spaces.op_route"]
        out = {
            "ratlin.rref.cells": cells,
            "ratlin.rref.nnz_frac": ratio(nnz, cells),
            "ratlin.rref.rank_frac": ratio(rank, rows),
            "ratlin.nullspace.kernel_dim": sums.get("ratlin.nullspace", [0])[0],
            "ratlin.subspace.in_rows": in_rows,
            "spaces.solve.dup_frac": ratio(self.dups["spaces.solve"], solves),
            "invariants.bider.triples": sums.get("invariants.bider", [0])[0],
            "invariants.bider.run_share": ratio(incl["invariants.bider"], run_s),
            "invariants.leibniz.sweeps": calls["invariants.leibniz"],
            "catalog.sweep.solves": sweep_solves,
            "kxy.axioms.triples": sums.get("kxy.axioms", [0])[0],
            "kxy.identity.pairs": sums.get("kxy.identity", [0])[0],
            "kxy.apply.dup_frac": ratio(self.dups["kxy.apply"], calls["kxy.apply"]),
            "cli.render.bytes": sums.get("cli.render", [0])[0],
            "other.self_s": self_s[OP_SPAN],
        }
        for metric in PER_LAYER:
            base, _, field = metric.rpartition(".")
            if metric in out or field not in ("calls", "self_s"):
                continue
            if field == "calls":
                out[metric] = calls[base]
            elif base in LAYERS:
                out[metric] = sum(v for k, v in self_s.items() if k.startswith(base + "."))
            else:
                out[metric] = self_s[base]
        return {metric: out[metric] for metric in PER_LAYER if metric in out}

    def write(self, path: str) -> None:
        """Dump every span: a JSON header line, then one JSON array per span
        ``[name, start, end, parent, op]``, times in seconds."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({"names": self.names, "spans": len(self.kind)}) + "\n")
            for i in range(len(self.kind)):
                fh.write(f"[{self.kind[i]},{self.start[i]!r},{self.end[i]!r},"
                         f"{self.parent[i]},{self.op[i]}]\n")
