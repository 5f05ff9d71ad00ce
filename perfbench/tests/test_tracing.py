"""Tracing leaves outputs unchanged, removes every wrapper and reports
every per-layer metric."""

import importlib
import sys

import pytest

import workloads
from tracing import PER_LAYER, TARGETS, Tracer


def _small_ops():
    """A few ops from every workload, small enough for a test."""
    ops = [op for op in workloads.cli_session(0, workloads.points(0))
           if "Dias3_13" in op.label or op.label.startswith("catalog Dias3_16")]
    ops += [workloads._cli_op("kxy --bound 4 --machine", ["kxy", "--bound", "4", "--machine"])]
    ops += [op for op in workloads.kxy_sweep(0, {}) if op.label.startswith("check_dider")]
    from diaskit import invariants, spaces
    from diaskit.core import phi_dialgebra

    d = phi_dialgebra([1, -2, 3])
    ops.append(workloads._lib_op(spaces, "derivation_space", "phi3", d, workloads._encode_basis))
    ops.append(workloads._lib_op(spaces, "check_characterizations", "phi3", d,
                                 workloads._encode_report))
    ops.append(workloads._lib_op(invariants, "check_invariant_actions", "phi3", d,
                                 workloads._encode_report))
    return ops


def _outputs(ops, tracer=None):
    out = []
    for i, op in enumerate(ops):
        if tracer is None:
            out.append(op.encode(op.call()))
        else:
            tracer.begin_op(i)
            out.append(op.encode(tracer.span("op", op.call)))
    return out


def _bindings():
    """Every diaskit attribute and class member a target could be bound to."""
    found = {}
    for _name, module_name, attr in TARGETS:
        module = importlib.import_module(module_name)
        if "." in attr:
            cls_name, meth = attr.split(".")
            found[attr] = getattr(module, cls_name).__dict__[meth]
    for key, module in sys.modules.items():
        if key == "diaskit" or key.startswith("diaskit."):
            for attr, value in vars(module).items():
                found[(key, attr)] = value
                if isinstance(value, dict):
                    for dkey, dvalue in value.items():
                        found[(key, attr, dkey)] = dvalue
    return found


@pytest.fixture(scope="module")
def traced_run():
    ops = _small_ops()
    plain = _outputs(ops)
    before = _bindings()
    tracer = Tracer()
    tracer.install()
    try:
        installed = _bindings()
        traced = _outputs(ops, tracer)
    finally:
        tracer.uninstall()
    return plain, traced, before, installed, _bindings(), tracer


def test_traced_outputs_are_byte_identical(traced_run):
    plain, traced, *_ = traced_run
    assert traced == plain


def test_every_wrapper_is_removed(traced_run):
    _plain, _traced, before, installed, after, _tracer = traced_run
    changed = [k for k in before if installed.get(k) is not before[k]]
    assert len(changed) >= len(TARGETS)
    assert all(after[k] is before[k] for k in before)
    assert after.keys() == before.keys()


def test_every_per_layer_metric_is_reported(traced_run):
    tracer = traced_run[-1]
    metrics = tracer.metrics(run_s=1.0)
    assert list(metrics) + ["trace.overhead_frac"] == PER_LAYER
    for layer in ("ratlin.rref.calls", "core.verify_axioms.calls", "spaces.op_route.calls",
                  "invariants.bider.calls", "catalog.instantiate.calls", "kxy.apply.calls",
                  "kxy.axioms.triples", "cli.render.bytes"):
        assert metrics[layer] > 0, layer

