"""The three benchmark workloads: seeded inputs and the fixed op list of each.

``points(seed)`` picks the parameter point of every parametric catalog
entry; ``build(name, seed, points)`` imports diaskit, builds every input
the workload needs and returns its ops.  ``run.py`` picks the points once
per run, outside the timed set-up, because the choice runs the oracle.
An op is one call a user waits on: a ``cli.main([... "--machine"])``
invocation or one public library call.
Each op carries an ``encode`` that turns its result into the bytes that
are digested and compared with the reference, and a ``check`` that runs
the independent checks of ``oracle`` on the result (an empty list means
the output passed).

Why these workloads (see NOTES.md for the layer map):

* ``cli_session`` -- every catalog entry through every CLI command.  All
  systems have dim <= 3, so the time is per-call overhead, repeated small
  solves, the O(b^3) combined-bracket loop and report rendering.
* ``solve_ladder`` -- few large systems: phi at n = 8 and 12 (huge kernels,
  Dider = 0) and direct sums of dimension 9 and 12 (small nonzero
  kernels).  Dense elimination and canonicalisation do almost all work.
* ``kxy_sweep`` -- the polynomial dialgebra only; the linear-algebra layer
  never runs.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable

import inputs
import oracle

WORKLOADS = ("cli_session", "solve_ladder", "kxy_sweep")

CLI_COMMANDS = (
    ("verify",),
    ("spaces", "--which", "der"),
    ("spaces", "--which", "dider"),
    ("spaces", "--which", "inn"),
    ("spaces", "--which", "dinn"),
    ("invariants",),
    ("bider",),
)
KXY_BOUNDS = (6, 8, 10)
KXY_IDENTITY_BOUND = 8


def _no_problems(_result) -> list[str]:
    return []


@dataclass
class Op:
    label: str
    call: Callable[[], object]
    encode: Callable[[object], bytes]
    check: Callable[[object], list[str]] = field(default=_no_problems)


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


# -- encodings -------------------------------------------------------------


def _encode_cli(result) -> bytes:
    code, text = result
    return f"exit {code}\n{text}".encode()


def _encode_basis(space) -> bytes:
    """Canonical bytes of a subspace: ambient dimension, then each RREF
    basis vector as rationals."""
    lines = [f"ambient {space.ambient_dim}"]
    lines += [" ".join(str(x) for x in row) for row in space.basis]
    return "\n".join(lines).encode()


def _encode_report(result: dict) -> bytes:
    return json.dumps(result, sort_keys=True, default=str).encode()


# -- checks ----------------------------------------------------------------


def _cli_status(result) -> list[str]:
    code, text = result
    if code != 0:
        return [f"exit status {code}"]
    if json.loads(text.splitlines()[-1])["schema"] != "diaskit.report/1":
        return ["unknown report schema"]
    return []


def _check_cli_verify(structure):
    def check(result) -> list[str]:
        problems = _cli_status(result)
        doc = json.loads(result[1])
        items = dict(doc["sections"][0]["items"])
        bad = oracle.axiom_violations(*structure)
        if items.get("violations") != str(bad):
            problems.append(f"reports {items.get('violations')} violations, oracle finds {bad}")
        return problems
    return check


def _check_cli_space(structure, twisted: bool):
    """Read the printed basis back from the machine report and check it."""
    n = structure[0]

    def check(result) -> list[str]:
        problems = _cli_status(result)
        doc = json.loads(result[1])
        section = doc["sections"][0]
        basis = [[Fraction(x) for row in rows for x in row] for _label, rows in section["matrices"]]
        if dict(section["items"]).get("dim") != str(len(basis)):
            problems.append("printed dim differs from the printed basis")
        return problems + oracle.kernel_problems(n, structure[1], structure[2], basis, twisted)
    return check


def _check_space(structure, twisted: bool, closed_dim: int | None = None):
    def check(space) -> list[str]:
        return oracle.kernel_problems(*structure, space.basis, twisted, closed_dim)
    return check


def _check_routes(result: dict) -> list[str]:
    flags = ("left_route_equal", "right_route_equal")
    bad = [f for f in flags if not result["derivations"][f]]
    if not result["diderivations"]["operator_route_equal"]:
        bad.append("operator_route_equal")
    return [f"solver routes disagree: {', '.join(bad)}"] if bad else []


def _check_no_violations(result: dict) -> list[str]:
    if result["violations"]:
        return [f"{len(result['violations'])} violations of a closed form"]
    return []


# -- workloads -------------------------------------------------------------


def _structure(d) -> inputs.Structure:
    return d.dim, d.c_vdash, d.c_dashv


def _cli_op(label: str, argv: list[str], check=_cli_status) -> Op:
    from diaskit import cli

    def call():
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli.main(argv)
        return code, buf.getvalue()

    return Op(label, call, _encode_cli, check)


def _lib_op(module, fn_name: str, subject: str, arg, encode, check=_no_problems) -> Op:
    """``module.fn_name(arg)``, looked up at call time so that wrappers
    installed after set-up are seen."""
    return Op(f"{fn_name} {subject}", lambda: getattr(module, fn_name)(arg), encode, check)


Points = dict[str, dict[str, Fraction]]


def points(seed: int) -> Points:
    """For each parametric catalog entry, the first seeded candidate point
    at which the oracle finds the generic kernel dimensions."""
    from diaskit import catalog

    chosen = {}
    for name in inputs.CATALOG_PARAM_NAMES:
        for params in inputs.catalog_points(seed, name):
            d = catalog.instantiate(name, params)
            dims = tuple(oracle.kernel_dim(d.dim, d.c_vdash, d.c_dashv, t) for t in (False, True))
            if dims == inputs.GENERIC_DIMS[name]:
                chosen[name] = params
                break
    return chosen


def dump_points(points: Points) -> str:
    return json.dumps({name: {k: str(v) for k, v in p.items()} for name, p in points.items()})


def load_points(text: str) -> Points:
    return {name: {k: Fraction(v) for k, v in p.items()} for name, p in json.loads(text).items()}


def cli_session(seed: int, points: Points) -> list[Op]:
    from diaskit import catalog

    ops = []
    for name in catalog.ENTRY_NAMES:
        params = points.get(name)
        sel = inputs.selector(name, params)
        structure = _structure(catalog.instantiate(name, params))
        for command in CLI_COMMANDS:
            argv = [command[0], *command[1:], sel, "--machine"]
            if command[0] == "verify":
                check = _check_cli_verify(structure)
            elif command[-1] in ("der", "dider"):
                check = _check_cli_space(structure, twisted=command[-1] == "dider")
            else:
                check = _cli_status
            ops.append(_cli_op(" ".join(argv), argv, check))
    cseed = str(inputs.cli_catalog_seed(seed))
    for argv in (["catalog", "--samples", "3", "--seed", cseed, "--machine"],
                 ["catalog", "Dias3_16", "--samples", "5", "--seed", cseed, "--machine"]):
        ops.append(_cli_op(" ".join(argv), argv))
    return ops


def _sum_input(seed: int, parts: tuple[str, ...], points: Points):
    from diaskit import catalog
    from diaskit.core import Dialgebra

    names, structures = [], []
    for name in inputs.summand_order(seed, parts):
        params = points.get(name)
        names.append(inputs.selector(name, params)[len("catalog:"):])
        structures.append(_structure(catalog.instantiate(name, params)))
    structure = inputs.direct_sum(structures)
    return f"sum({' + '.join(names)})", Dialgebra(*structure), structure


def solve_ladder(seed: int, points: Points) -> list[Op]:
    from diaskit import invariants, spaces
    from diaskit.core import phi_dialgebra

    subjects = []
    for n in (8, 12):
        weights = inputs.phi_weights(seed, n)
        label = f"phi({','.join(map(str, weights))})"
        subjects.append((label, phi_dialgebra(weights), inputs.phi_structure(weights), n))
    for parts in (inputs.SUM3_PARTS, inputs.SUM4_PARTS):
        label, d, structure = _sum_input(seed, parts, points)
        subjects.append((label, d, structure, None))

    ops = []
    for label, d, structure, phi_n in subjects:
        closed = (phi_n * phi_n - phi_n, 0) if phi_n else (None, None)
        ops.append(_lib_op(spaces, "derivation_space", label, d,
                           _encode_basis, _check_space(structure, False, closed[0])))
        ops.append(_lib_op(spaces, "diderivation_space", label, d,
                           _encode_basis, _check_space(structure, True, closed[1])))
    for label, d, _, _ in subjects:
        if d.dim <= 9:
            ops.append(_lib_op(spaces, "check_characterizations", label, d,
                               _encode_report, _check_routes))
            ops.append(_lib_op(invariants, "check_invariant_actions", label, d, _encode_report))
    return ops


def kxy_sweep(seed: int, points: Points) -> list[Op]:
    from diaskit import kxy

    ops = [_cli_op(f"kxy --bound {b} --machine", ["kxy", "--bound", str(b), "--machine"])
           for b in KXY_BOUNDS]
    terms = inputs.kxy_terms(seed)
    f, g, h = (kxy.BivariatePoly(terms[key], KXY_IDENTITY_BOUND)
               for key in ("der_f", "der_g", "dider_f"))
    ops.append(Op(f"check_derivation_identity f={kxy.format_poly(f)} g={kxy.format_poly(g)}",
                  lambda: kxy.check_derivation_identity(f, g), _encode_report,
                  _check_no_violations))
    ops.append(Op(f"check_dider_identity f=g={kxy.format_poly(h)}",
                  lambda: kxy.check_dider_identity(h, h), _encode_report,
                  _check_no_violations))
    return ops


def build(name: str, seed: int, points: Points) -> list[Op]:
    ops = {"cli_session": cli_session, "solve_ladder": solve_ladder,
           "kxy_sweep": kxy_sweep}[name](seed, points)
    labels = [op.label for op in ops]
    if len(set(labels)) != len(labels):
        raise ValueError(f"{name}: op labels are not unique")
    return ops
