"""Command-line front end for the dialgebra workbench.

Subcommands::

    diaskit verify     INPUT          axiom check
    diaskit spaces     INPUT          derivation/diderivation spaces
    diaskit invariants INPUT          annihilator, bar-center, halo, bracket
    diaskit bider      INPUT          combined-bracket checks
    diaskit catalog    [FILTER]       reproduce the classification tables
    diaskit kxy                       polynomial-dialgebra checks

Importing this module loads no other diaskit module; each loads in the
command that runs it.  ``core`` (with ``ratlin`` and ``base``) loads
where an input is read, and ``verify`` of a file needs no more; ``spaces``
in ``spaces``, ``invariants`` (with ``spaces``) in ``invariants`` and
``bider``, the table module ``entries`` on a ``catalog:`` selector,
``catalog`` (with ``entries``, ``poly`` and ``spaces``) in ``catalog``,
and ``kxy`` (with ``poly`` and ``base``) in ``kxy``.
No module builds classes with ``dataclasses``, and ``json`` loads only
for ``--machine``.  Where bytecode is not written, every start compiles
each loaded module again, so what a command loads is most of its start-up.
A call is read one of two ways.  A call that names its subcommand, and
whose every other token reads one way (``--machine``, a declared option
in full with a plain value, the declared positional), is read by hand
from that subcommand's ``_COMMANDS`` declaration, with no parser and
without importing ``argparse``.  Every other call (help, no arguments, an
unknown command, an abbreviation, a bad value) builds the full argparse
parser with all six subcommands and parses the whole command line with
it, so help, usage and every option error are argparse's own.  Nothing is
kept between calls.

INPUT is either a path to a structure-constants file (format written by
``serialize_dialgebra``) or a selector ``catalog:<Name>`` with optional
rational parameters, e.g. ``catalog:Dias3_16?k=1,m=1,n=1,p=1,q=1``.

Every command prints a report; ``--machine`` emits the same data as a
single JSON document.  Exit status: 0 for a pass or findings-only verdict
(findings print a notice), 1 for a fail verdict, 2 for input errors.
Output for a fixed seed is byte-identical across runs.

Machine schema (``diaskit.report/1``)::

    {"schema": "diaskit.report/1", "command": str, "subject": str,
     "verdict": "pass"|"findings"|"fail",
     "sections": [{"title": str, "items": [[key, value], ...],
                   "matrices": [[label, [[entry, ...], ...]], ...]}, ...]}

All numeric values are exact rationals rendered as strings.
"""

from __future__ import annotations

import os
import random
import re
import sys
from collections.abc import Sequence
from fractions import Fraction
from types import SimpleNamespace

PASS, FINDINGS, FAIL = "pass", "findings", "fail"
# Upper limits of the run-length options.  Case-table row 12 of Dias3_16
# (k = n = q = m = 0, p != -1 drawn from -4..4) has exactly 8 sample
# points, so ``branch_samples`` cannot give a ninth.  ``kxy --bound 12``
# takes about 0.05 s after import (medians 0.048 to 0.057 s over five sets
# of twelve runs, Python 3.11, one core of a shared 2-vCPU Xeon).
MAX_SAMPLES = 8
MAX_BOUND = 12
# Most bytes read from an input file.  The largest canonical file
# (``serialize_dialgebra``) at ``MAX_DIM`` with every coefficient of
# ``MAX_RATIONAL_DIGITS`` digits has 3,089,300 bytes; the cap leaves room
# for comments.  Past it a file is refused unparsed, so /dev/zero ends.
MAX_INPUT_BYTES = 4 * 2 ** 20


class InputError(ValueError):
    """Bad file, selector, or parameter syntax (exit status 2)."""


class Section:
    __slots__ = ("title", "items", "matrices")

    def __init__(self, title: str):
        self.title = title
        self.items: list[tuple[str, str]] = []
        self.matrices: list[tuple[str, list[list[str]]]] = []

    def add(self, key: str, value) -> None:
        self.items.append((key, _text(value)))

    def add_operator(self, label: str, n: int, op: Row) -> None:
        """An n-by-n operator given as a sparse row over r*n + c; only its
        nonzero entries are rendered, the rest are "0"."""
        rows = [["0"] * n for _ in range(n)]
        for key, x in op.items():
            rows[key // n][key % n] = str(x)
        self.matrices.append((label, rows))


class Report:
    __slots__ = ("subject", "command", "sections", "verdict")

    def __init__(self, subject: str, command: str):
        self.subject = subject
        self.command = command
        self.sections: list[Section] = []
        self.verdict = PASS

    def section(self, title: str) -> Section:
        s = Section(title)
        self.sections.append(s)
        return s

    def worsen(self, verdict: str) -> None:
        order = {PASS: 0, FINDINGS: 1, FAIL: 2}
        if order[verdict] > order[self.verdict]:
            self.verdict = verdict

    def check(self, sec: Section, label: str, ok: bool) -> None:
        """A yes/no line in ``sec``; "no" fails the report."""
        sec.add(label, ok)
        if not ok:
            self.worsen(FAIL)


def _text(value) -> str:
    if isinstance(value, bool):
        return "yes" if value else "no"
    if isinstance(value, (tuple, list)):
        return "(" + ", ".join(_text(v) for v in value) + ")"
    return str(value)


def render_human(report: Report) -> str:
    lines = [f"subject: {report.subject}"]
    for sec in report.sections:
        lines.append(f"\n[{sec.title}]")
        for key, value in sec.items:
            lines.append(f"  {key}: {value}")
        for label, rows in sec.matrices:
            lines.append(f"  {label}:")
            for row in rows:
                lines.append("    [ " + "  ".join(row) + " ]")
    lines.append(f"\nverdict: {report.verdict}")
    if report.verdict == FINDINGS:
        lines.append("note: findings present; see sections above")
    return "\n".join(lines)


def render_machine(report: Report) -> str:
    import json

    doc = {
        "schema": "diaskit.report/1",
        "command": report.command,
        "subject": report.subject,
        "verdict": report.verdict,
        "sections": [
            {"title": s.title,
             "items": [[k, v] for k, v in s.items],
             "matrices": [[label, rows] for label, rows in s.matrices]}
            for s in report.sections
        ],
    }
    return json.dumps(doc, separators=(", ", ": "))


# ---------------------------------------------------------------------------
# Input resolution


def _parse_param_query(query: str) -> dict[str, Fraction]:
    from .base import parse_rational

    params: dict[str, Fraction] = {}
    for piece in query.split(","):
        piece = piece.strip()
        if not piece:
            continue
        key, sep, value = (part.strip() for part in piece.partition("="))
        if not sep:
            raise InputError(f"bad parameter {piece!r}, expected key=value")
        if not key:
            raise InputError(f"bad parameter {piece!r}, empty name before '='")
        if key in params:
            raise InputError(f"parameter {key!r} given more than once")
        try:
            params[key] = parse_rational(value)
        except ValueError as exc:
            raise InputError(
                f"bad rational {value!r} for parameter {key!r}: {exc}") from None
    return params


def load_input(selector: str) -> tuple[str, Dialgebra]:
    """Resolve a file path or ``catalog:<Name>?k=v,...`` selector."""
    from .core import DialgebraError, parse_dialgebra

    if selector.startswith("catalog:"):
        from . import entries

        rest = selector[len("catalog:"):]
        name, _, query = rest.partition("?")
        params = _parse_param_query(query) if query else None
        try:
            return selector, entries.instantiate(name, params)
        except DialgebraError as exc:
            raise InputError(str(exc)) from None
    try:
        with open(selector, "rb") as fh:
            data = fh.read(MAX_INPUT_BYTES + 1)
    except OSError as exc:
        raise InputError(f"cannot read {selector!r}: {exc.strerror}") from None
    if len(data) > MAX_INPUT_BYTES:
        raise InputError(f"{selector}: larger than {MAX_INPUT_BYTES} bytes")
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise InputError(f"{selector}: not UTF-8 text: {exc.reason} at byte {exc.start}") from None
    try:
        return selector, parse_dialgebra(text)
    except DialgebraError as exc:
        raise InputError(f"{selector}: {exc}") from None


# ---------------------------------------------------------------------------
# Subcommands


def cmd_verify(selector: str) -> Report:
    subject, d = load_input(selector)
    report = Report(subject, "verify")
    sec = report.section("axioms")
    violations = d.verify_axioms()
    sec.add("dim", d.dim)
    sec.add("products coincide", d.products_coincide())
    sec.add("violations", len(violations))
    for v in violations[:10]:
        sec.add(f"violated {v['axiom']}", v["triple"])
    if violations:
        report.worsen(FAIL)
    return report


# Each choice's title, the name of its ``spaces`` function and its route
# cross-checks, each a label and the name of the route's ``spaces``
# function.  The names are looked up when the command runs, so a wrapper
# put on the module attribute runs.
_WHICH = {
    "der": ("derivations", "derivation_space", (
        ("left operator route equal", "derivation_space_via_left_ops"),
        ("right operator route equal", "derivation_space_via_right_ops"))),
    "dider": ("diderivations", "diderivation_space", (
        ("operator route equal", "diderivation_space_via_ops"),)),
    "inn": ("inner derivations", "inner_derivations", ()),
    "dinn": ("inner diderivations", "inner_diderivations", ()),
}


def cmd_spaces(selector: str, which: str) -> Report:
    from . import spaces

    subject, d = load_input(selector)
    title, solver, routes = _WHICH[which]
    report = Report(subject, "spaces")
    sec = report.section(title)
    space = getattr(spaces, solver)(d)
    sec.add("dim", space.dim)
    for idx, op in enumerate(space.rows, start=1):
        sec.add_operator(f"basis {idx}", d.dim, op)
    if routes:
        rsec = report.section("route cross-check")
        for label, route in routes:
            report.check(rsec, label, getattr(spaces, route)(d) == space)
    return report


def cmd_invariants(selector: str) -> Report:
    from . import invariants

    subject, d = load_input(selector)
    report = Report(subject, "invariants")
    n = d.dim

    ann = invariants.annihilator(d)
    h = invariants.halo(d)
    sec = report.section("invariant sets")
    sec.add("annihilator dim", ann.dim)
    for idx, mat in enumerate(ann.basis, start=1):
        sec.add(f"ann basis {idx}", tuple(mat))
    sec.add("bar-center dim", h.direction.dim)
    for idx, mat in enumerate(h.direction.basis, start=1):
        sec.add(f"bar-center basis {idx}", tuple(mat))
    sec.add("unital", not h.is_empty)
    if h.is_empty:
        sec.add("halo", "empty")
    else:
        sec.add("halo point", tuple(h.point))
        sec.add("halo direction dim", h.direction.dim)

    leib = invariants.LeibnizAlgebra(d)
    lsec = report.section("induced bracket")
    left = leib.left_identity_violations()
    right = leib.right_identity_violations()
    lsec.add("right identity violations", len(right))
    lsec.add("left identity violations", len(left))
    if not right and not left:
        chirality = "both"
    elif not right:
        chirality = "right"
    elif not left:
        chirality = "left"
    else:
        chirality = "neither"
    lsec.add("chirality", chirality)
    if right:
        report.worsen(FAIL)

    actions = invariants.invariant_actions(d, ann, h)
    asec = report.section("actions")
    for key in sorted(actions):
        if key.endswith("dim") or key == "unital":
            continue
        report.check(asec, key.replace("_", " "), actions[key])
    return report


def cmd_bider(selector: str) -> Report:
    from . import invariants

    subject, d = load_input(selector)
    report = Report(subject, "bider")
    try:
        res = invariants.check_bider_leibniz(d)
    except invariants.BiderSizeError as exc:
        raise InputError(str(exc)) from None
    sec = report.section("combined bracket")
    sec.add("space dim", res["bider_dim"])
    report.check(sec, "bracket closed", res["bracket_closed"])
    report.check(sec, "right identity", res["right_identity"])
    sec.add("left identity", res["left_identity"])
    sec.add("inner-dider + der is ideal", res["dinn_der_ideal"])
    report.check(sec, "inner-dider + inner-der is ideal", res["dinn_inn_ideal"])
    sec.add("square span dim", res["square_span_dim"])
    sec.add("squares in diderivation component",
            res["square_span_in_dider_component"])
    if not res["dinn_der_ideal"]:
        # One-sided only: bracketing with a general derivation on the
        # right can push an inner diderivation component out of the
        # inner part.  A published claim says otherwise, so surface it.
        sec.add("note", "two-sided closure fails for inner-dider + der; "
                "only the left-bracket side is guaranteed")
        report.worsen(FINDINGS)
    return report


# Generic points in the determinant-probe sample set.
DET_PROBE_GENERIC = 100


def _det_probe_samples(seed: int) -> list[tuple]:
    """Seeded determinant-probe sample set covering the relevant strata:
    ``DET_PROBE_GENERIC`` generic points plus m=0, both factor loci, and
    the p=k slice."""
    rng = random.Random(f"detprobe:{seed}")
    out: list[tuple] = []
    for _ in range(DET_PROBE_GENERIC):
        out.append(tuple(Fraction(rng.randint(-5, 5)) for _ in range(5)))
    for _ in range(12):
        k, n, p, q = (Fraction(rng.randint(-5, 5)) for _ in range(4))
        out.append((k, Fraction(0), n, p, q))
    # m != 0 on D1 = 0, on D2 = 0 and on p = k: each point is built from
    # three draws in -4..4 and then m in 1..4
    for point in (lambda k, n, p, m: (k, m, n, p, (n * p - k) / m),
                  lambda k, n, p, m: (k, m, n, p, (k + n) * (p + 1) / m),
                  lambda k, n, q, m: (k, m, n, k, q)):
        for _ in range(12):
            drawn = [Fraction(rng.randint(-4, 4)) for _ in range(3)]
            out.append(point(*drawn, Fraction(rng.randint(1, 4))))
    return out


def cmd_catalog(name_filter: str | None, samples: int, seed: int) -> Report:
    from . import catalog

    if name_filter is not None and name_filter not in catalog.ENTRY_NAMES:
        raise InputError(f"unknown catalog entry: {name_filter!r}")
    if samples < 1:
        raise InputError("catalog checks need --samples of at least 1")
    if samples > MAX_SAMPLES:
        raise InputError(f"catalog checks take --samples of at most {MAX_SAMPLES}")
    subject = name_filter or "catalog"
    report = Report(subject, "catalog")
    # A filter cannot shorten the sweep: "total in full sweep" counts every finding.
    sweep = catalog.verify_catalog(samples, seed)

    esec = report.section("entries")
    shown = 0
    for row in sweep["entries"]:
        if name_filter and row["name"] != name_filter:
            continue
        shown += 1
        label = row["name"]
        if row["params"]:
            inner = ",".join(f"{k}={v}" for k, v in row["params"].items())
            label = f"{label}[{inner}]"
        status = row["status"]
        detail = (f"tabled {row['expected_dim']}, solver {row['actual_dim']}, "
                  f"basis {'ok' if row['basis_match'] else 'differs'}")
        esec.add(label, f"{detail} ({status})")
    esec.add("entries shown", shown)

    if name_filter in (None, "Dias3_16"):
        bsec = report.section("Dias3_16 case table")
        for row in sweep["dias316_rows"]:
            outcomes = "; ".join(
                f"{tuple(map(str, s['params']))} tabled {s['tabled_dim']} "
                f"solver {s['actual_dim']}" for s in row["samples"])
            bsec.add(f"row {row['row']} [{row['conditions']}]",
                     outcomes or "no admissible samples")

        det_rep = catalog.check_det_factorization(_det_probe_samples(seed))
        dsec = report.section("determinant factorization probe")
        dsec.add("samples", det_rep["sample_count"])
        dsec.add("vanishing locus agreement", det_rep["locus_agreement"])
        dsec.add("locus mismatches", len(det_rep["locus_mismatches"]))
        for mm in det_rep["locus_mismatches"][:5]:
            dsec.add(f"mismatch at {tuple(map(str, mm['params']))}",
                     f"det {mm['det']}, m*D1*D2 {mm['target']}")
        dsec.add("ratio constant", det_rep["ratio_constant"])
        if det_rep["ratio_first"] is not None:
            dsec.add("first ratio", det_rep["ratio_first"])
        if not det_rep["locus_agreement"]:
            report.worsen(FINDINGS)

        fsec = report.section("solution families")
        for case, point in catalog.FAMILY_POINTS.items():
            params = dict(zip(catalog.DIAS3_16_PARAMS, map(Fraction, point)))
            fam = catalog.check_solution_families(params, case, sweep["kernels"])
            for vec in fam["vectors"]:
                fsec.add(
                    f"case {case} at {point} {vec['label']}",
                    f"identity {'ok' if vec['identity_ok'] else 'violated'}, "
                    f"kernel member {'yes' if vec['in_solver_kernel'] else 'no'}")
            if case == "D":
                fsec.add("case D corrected generator in kernel",
                         fam["corrected_in_kernel"])
            if not fam["all_member"]:
                report.worsen(FINDINGS)

    nsec = report.section("findings")
    for finding in sweep["findings"]:
        # whole names only: the findings of Dias3_16 are not those of Dias3_1
        if name_filter and not re.search(rf"\b{re.escape(name_filter)}\b", finding):
            continue
        nsec.add("finding", finding)
        report.worsen(FINDINGS)
    nsec.add("total in full sweep", len(sweep["findings"]))

    if sweep["failures"]:
        xsec = report.section("failures")
        for failure in sweep["failures"]:
            xsec.add("failure", failure)
        report.worsen(FAIL)
    return report


def cmd_kxy(bound: int) -> Report:
    from . import kxy

    if bound < 4:
        raise InputError("kxy checks need --bound of at least 4")
    if bound > MAX_BOUND:
        raise InputError(f"kxy checks take --bound of at most {MAX_BOUND}")
    report = Report(f"polynomial dialgebra (bound {bound})", "kxy")
    P = kxy.BivariatePoly
    one, zero = P.one(bound), P.zero(bound)
    x, y, xy = P.var_x(bound), P.var_y(bound), P.monomial(1, 1, 1, bound)
    x_minus_y = x - y

    def add_sweep(sec: Section, label: str, rep: dict, verdict: str) -> None:
        """One identity sweep's line; a violation worsens to ``verdict``."""
        sec.add(label, f"{rep['pairs']} pairs, {len(rep['violations'])} violations")
        if rep["violations"]:
            report.worsen(verdict)

    asec = report.section("axioms")
    try:
        axioms = kxy.check_axioms_truncated(bound)
    except AssertionError:
        # every later sweep reads the product table that could not be built
        report.check(asec, "products of monomials are monomials of coefficient 1", False)
        return report
    asec.add("monomial triples", axioms["triples"])
    asec.add("violations", len(axioms["violations"]))
    if axioms["violations"]:
        report.worsen(FAIL)

    rng = random.Random(f"kxy:{bound}")
    agree = True
    for _ in range(200):
        coeffs = {}
        for _t in range(rng.randint(0, 6)):
            a = rng.randint(0, bound)
            b = rng.randint(0, bound - a)
            coeffs[(a, b)] = rng.randint(-4, 4)
        h = P(coeffs, bound)
        if rng.random() < 0.5 and h.total_degree() <= bound - 1:
            h = h * x_minus_y
        div, quot = kxy.divides_x_minus_y(h)
        if div != kxy.ann_membership(h):
            agree = False
        # a quotient of degree bound is wrong, and times x - y passes the bound
        if div and quot is not None and (quot.total_degree() >= bound or quot * x_minus_y != h):
            agree = False
    msec = report.section("annihilator and halo")
    msec.add("x - y in annihilator", kxy.ann_membership(x_minus_y))
    msec.add("x in annihilator", kxy.ann_membership(x))
    report.check(msec, "membership matches divisibility (200 seeded)", agree)
    for label, h in [("1 in halo", one), ("1 + (y-x)xy in halo", one + (y - x) * xy),
                     ("x in halo", x)]:
        try:
            msec.add(label, kxy.halo_membership(h))
        except AssertionError:
            report.check(msec, f"{label}, routes agree", False)

    dsec = report.section("derivation closed form")
    for label, f, g in [
        ("f=1, g=0", one, zero),
        ("f=x, g=xy", x, xy),
        ("f=3x^2-1, g=y^2+2x", P({(2, 0): 3, (0, 0): -1}, bound),
         P({(0, 2): 1, (1, 0): 2}, bound)),
    ]:
        add_sweep(dsec, label, kxy.check_derivation_identity(f, g), FAIL)

    ssec = report.section("diderivation closed form")
    same = P({(1, 1): 1, (0, 0): 2}, bound)
    for label, f in [("f=g=1", one), ("f=g=x+y", x + y), ("f=g=xy+2", same)]:
        add_sweep(ssec, label, kxy.check_dider_identity(f, f), FAIL)
    split = kxy.check_dider_identity(one, zero)
    # The two-generator form is only a diderivation when f = g; the tabled
    # claim admits arbitrary pairs, so a violation is a finding.
    add_sweep(ssec, "f=1, g=0 (two-generator claim)", split, FINDINGS)
    if split["violations"]:
        first = split["violations"][0]
        ssec.add("first violation",
                 f"product {first['product']}, pair {first['pair']}")

    spec = kxy.KxyOperatorSpec("dider", f=same, g=same)
    max_m = bound - same.total_degree() + 1
    telescope = all(spec.apply_monomial(m, 0) == same * kxy.geometric_sum(m, bound)
                    for m in range(max_m + 1))
    report.check(ssec, f"delta(x^m) telescoping (m <= {max_m})", telescope)
    halo_killed = all(
        not spec.apply(one + x_minus_y * q)
        for q in (one, xy, P({(2, 0): 1, (0, 1): -3}, bound))
    )
    report.check(ssec, "diderivation kills halo elements", halo_killed)

    def small_poly() -> kxy.BivariatePoly:
        """A seeded draw of 1 to 3 terms x^a y^b, a, b <= 2, coefficients -3..3."""
        return P({(rng.randint(0, 2), rng.randint(0, 2)): rng.randint(-3, 3)
                  for _t in range(rng.randint(1, 3))}, bound)

    isec = report.section("inner diderivations")
    routes_ok = True
    image_ok = True
    # Ad_x(x) last, its routes checked with the seeded pairs': when every
    # pair's routes agree, ``out`` is its image
    for p_, h_ in [(small_poly(), small_poly()) for _ in range(40)] + [(x, x)]:
        try:
            out = kxy.inner_dider_apply(p_, h_)
        except AssertionError:
            routes_ok = False
            continue
        except kxy.DegreeBoundError:
            continue
        if not kxy.ann_membership(out):
            image_ok = False
    report.check(isec, "closed form equals operator route (40 seeded)", routes_ok)
    report.check(isec, "image in annihilator", image_ok)
    if routes_ok:
        isec.add("Ad_x(x)", kxy.format_poly(out))

    fsec = report.section("inner derivation forward check")
    for label, h in [("h=x", x), ("h=x^2-x", P({(2, 0): 1, (1, 0): -1}, bound))]:
        ispec = kxy.inner_derivation_spec(h)
        add_sweep(fsec, label, kxy.check_derivation_identity(ispec.f, ispec.g), FAIL)
    return report


# ---------------------------------------------------------------------------
# Entry point


# Each subcommand once: its help line, the ``add_argument`` calls that
# come before ``--machine`` (positional and keyword arguments), and its
# ``run``.  Each ``run`` looks its ``cmd_*`` up when called, so a wrapper
# put on the module attribute afterwards is the one that runs.
_INPUT = (("input",), {})
_COMMANDS = {
    "verify": ("check the five axioms", (_INPUT,),
               lambda a: cmd_verify(a.input)),
    "spaces": ("compute operator spaces",
               (_INPUT, (("--which",), {"choices": sorted(_WHICH), "default": "dider"})),
               lambda a: cmd_spaces(a.input, a.which)),
    "invariants": ("annihilator, bar-center, halo, bracket", (_INPUT,),
                   lambda a: cmd_invariants(a.input)),
    "bider": ("combined-bracket checks", (_INPUT,),
              lambda a: cmd_bider(a.input)),
    "catalog": ("reproduce the classification tables",
                ((("filter",), {"nargs": "?", "default": None,
                                "help": "restrict to one entry name"}),
                 (("--samples",), {"type": int, "default": 3}),
                 (("--seed",), {"type": int, "default": 0})),
                lambda a: cmd_catalog(a.filter, a.samples, a.seed)),
    "kxy": ("polynomial dialgebra checks",
            ((("--bound",), {"type": int, "default": 6}),),
            lambda a: cmd_kxy(a.bound)),
}


def build_parser() -> argparse.ArgumentParser:
    """The argparse parser of every call ``read_plain`` leaves: help, usage
    and every option error.  It holds all six subcommands, so the help and
    the invalid-choice error list them all, and it parses the whole
    ``argv``.  ``argparse`` loads here and nowhere else."""
    import argparse

    class Parser(argparse.ArgumentParser):
        """An option error, in a subcommand too, is an ``InputError``: one
        ``error:`` line and exit status 2, as for any other bad input."""

        def error(self, message: str):
            raise InputError(message)

    parser = Parser(
        prog="diaskit",
        description="exact workbench for finite-dimensional dialgebras")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, arguments, run) in _COMMANDS.items():
        one = sub.add_parser(name, help=help_text)
        for args, kwargs in arguments:
            one.add_argument(*args, **kwargs)
        one.add_argument("--machine", action="store_true",
                         help="emit one JSON document instead of text")
        one.set_defaults(run=run)
    return parser


def read_plain(name: str, rest: Sequence[str]) -> SimpleNamespace | None:
    """The namespace ``build_parser().parse_args([name, *rest])`` gives,
    read from the declaration of subcommand ``name`` without argparse, when
    every token of ``rest`` reads one way: ``--machine``, a declared option
    spelt in full and a value not starting with ``-`` (an ``int`` value of
    ASCII digits, a ``choices`` value one of them), or the positional, once
    at most and present when required.  Anything else (help, an
    abbreviation, ``--opt=value``, ``--``, a signed number, a bad value)
    gives None, so that argparse reads the call.  The declarations are read
    as the six are written: one flag each, at most one positional, and no
    keywords but ``default``, ``type=int``, ``choices``, ``nargs="?"`` and
    ``help``."""
    _, arguments, run = _COMMANDS[name]
    # a value takes no token starting with "-", so a "--machine" in a call
    # that is read is the flag
    ns = {"command": name, "run": run, "machine": "--machine" in rest}
    options, positionals = {}, []
    for (flag,), kwargs in arguments:
        dest = flag.removeprefix("--")
        ns[dest] = kwargs.get("default")
        if dest == flag:
            positionals.append((dest, kwargs))
        else:
            options[flag] = dest, kwargs
    tokens = iter(rest)
    try:
        for token in tokens:
            if token in options:
                dest, kwargs = options[token]
                token = next(tokens, "-")
            elif token == "--machine":
                continue
            else:  # the positional, one too many, or another option
                dest, kwargs = positionals.pop()
            number = kwargs.get("type") is int
            value = int(token) if number else token  # ValueError past sys.get_int_max_str_digits()
            if (token.startswith("-") or number and not (token.isascii() and token.isdigit())
                    or value not in kwargs.get("choices", (value,))):
                return None
            ns[dest] = value
    except (IndexError, ValueError):
        return None
    # a positional left over must be optional
    return None if any("nargs" not in kwargs for _, kwargs in positionals) else SimpleNamespace(**ns)


def main(argv: Sequence[str] | None = None) -> int:
    """Run the command line ``argv`` (``sys.argv[1:]`` if None) and return
    its exit status.  A call that names its subcommand and that
    ``read_plain`` reads builds no parser; the rest go to the full parser
    of ``build_parser``."""
    if argv is None:
        argv = sys.argv[1:]
    try:
        args = read_plain(argv[0], argv[1:]) if argv and argv[0] in _COMMANDS else None
        if args is None:
            args = build_parser().parse_args(argv)
        report = args.run(args)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        print(render_machine(report) if args.machine else render_human(report),
              flush=True)
    except BrokenPipeError:
        # The reader has gone (``diaskit catalog | head -1``).  Point stdout
        # at the null device so the flush at exit does not fail again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    return 1 if report.verdict == FAIL else 0


if __name__ == "__main__":
    sys.exit(main())
