"""Each derivation and diderivation space is solved once per dialgebra,
each public call computes each invariant set, basis bracket and
polynomial operator image once, and a CLI call builds no argument parser
when it names its subcommand and every token reads one way, and the full
parser with all six for any other call.

The counts are taken by wrapping the solvers through monkeypatch, so a
change that solves a space twice, re-runs a sweep or goes back to a cubic
bracket loop fails here even when every report stays the same.
"""

import argparse
import contextlib
import io
import math
import os
import sys
from collections import Counter
from fractions import Fraction

import pytest

from diaskit import catalog, cli, core, invariants, kxy, poly, ratlin, spaces
from diaskit.core import phi_dialgebra

from test_ratlin import direct_sum


def counting(monkeypatch, owner, name, calls, key=None):
    """Replace ``owner.name`` by a wrapper that tallies each call under
    ``key(*args)``, or under ``name`` when no key is given."""
    original = getattr(owner, name)

    def wrapper(*args, **kwargs):
        calls[key(*args, **kwargs) if key else name] += 1
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, wrapper)


def run_cli(*argv):
    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main(list(argv))


def kernel_calls(monkeypatch) -> Counter:
    """Tally both row builders, each called once per solve: the rule system
    by rule, the operator route."""
    calls = Counter()
    counting(monkeypatch, spaces, "_rule_rows", calls, key=lambda d, rule: rule)
    counting(monkeypatch, spaces, "_operator_rows", calls)
    return calls


@pytest.mark.parametrize("selector", [
    "catalog:Dias3_8", "catalog:Dias3_9", "catalog:Dias3_10", "catalog:Dias3_13",
])
def test_bider_solves_once_and_forms_der_times_b_brackets(monkeypatch, selector):
    _, d = cli.load_input(selector)
    der = spaces.derivation_space(d).dim
    b = der + spaces.diderivation_space(d).dim

    solves = kernel_calls(monkeypatch)
    brackets = Counter()
    counting(monkeypatch, invariants, "commutator", brackets)
    assert run_cli("bider", selector) == 0

    assert solves == {"der": 1, "dider": 1}
    # <x, (s', 0)> = 0, so only the Der columns of the b x b table are
    # formed; the identities and both ideal checks are read off the table
    # by bilinearity
    assert brackets["commutator"] == der * b


def test_bider_above_the_cap_stops_before_the_table(monkeypatch):
    d = phi_dialgebra([1, -1, 2, -2, 3, -3, 1, -1])  # b = 56
    solves = kernel_calls(monkeypatch)
    brackets = Counter()
    counting(monkeypatch, invariants, "commutator", brackets)
    cap = invariants.MAX_BIDER_DIM
    with pytest.raises(invariants.BiderSizeError, match=f"at most {cap} elements, this one has 56"):
        invariants.check_bider_leibniz(d)
    assert solves == {"der": 1, "dider": 1}
    assert brackets["commutator"] == 0


def eliminate_runs(monkeypatch, record=lambda rows, ncols: len(rows)) -> list:
    """``record(rows, ncols)`` for each ``ratlin._eliminate`` run, in order:
    by default its number of rows."""
    runs = []
    original = ratlin._eliminate

    def wrapper(rows, ncols):
        rows = list(rows)
        runs.append(record(rows, ncols))
        return original(rows, ncols)

    monkeypatch.setattr(ratlin, "_eliminate", wrapper)
    return runs


def rows_read(monkeypatch) -> list:
    """The number of rows each ``ratlin._eliminate`` run pulls from its
    input, counted lazily as the core reads them; a column number, the
    equation of one unknown, is a row, and an empty dict row fails."""
    runs = []
    original = ratlin._eliminate

    def wrapper(rows, ncols):
        runs.append(0)

        def counted():
            for row in rows:
                assert type(row) is int or row, "an empty row reached the core"
                runs[-1] += 1
                yield row

        return original(counted(), ncols)

    monkeypatch.setattr(ratlin, "_eliminate", wrapper)
    return runs


def test_halo_eliminates_once_then_only_its_kernel(monkeypatch):
    runs = eliminate_runs(monkeypatch)
    for name in ("Dias2_4", "Dias3_1", "Dias3_10"):
        d = catalog.instantiate(name)
        runs.clear()
        h = invariants.halo(d)
        # the bar-unit system [A | b] of 2n^2 rows, then its kernel, the
        # bar-center, brought to canonical form, unital or not
        assert runs == [2 * d.dim ** 2, h.direction.dim], name


def dense_span_calls(monkeypatch) -> Counter:
    """Tally ``Subspace.__init__`` and ``ratlin.rref``, the dense way in."""
    calls = Counter()
    counting(monkeypatch, ratlin.Subspace, "__init__", calls)
    counting(monkeypatch, ratlin, "rref", calls)
    return calls


@pytest.mark.parametrize("run", [
    pytest.param(lambda: run_cli("bider", "catalog:Dias3_13") == 0, id="bider"),
    pytest.param(lambda: run_cli("invariants", "catalog:Dias3_1") == 0, id="invariants"),
    pytest.param(lambda: run_cli("spaces", "catalog:Dias3_10", "--which", "inn") == 0, id="inn"),
    pytest.param(lambda: run_cli("spaces", "catalog:Dias3_10", "--which", "dinn") == 0,
                 id="dinn"),
    pytest.param(lambda: bool(spaces.check_closures(catalog.instantiate("Dias3_13"))),
                 id="check_closures"),
])
def test_spans_of_sparse_rows_are_not_made_dense(monkeypatch, run):
    # every span these checks form is read off its sparse rows by ratlin.span
    calls = dense_span_calls(monkeypatch)
    assert run()
    assert not calls


def test_tabled_bases_still_enter_through_rref(monkeypatch):
    # the catalog tables its bases as dense matrices, which take the dense
    # way: one span per tabled point the sweep compares
    calls = dense_span_calls(monkeypatch)
    compared = len(catalog.verify_catalog(1)["entries"])
    assert compared and calls == {"__init__": compared, "rref": compared}


def dense_calls(monkeypatch) -> Counter:
    """Tally ``ratlin.dense`` in each module that calls it."""
    calls = Counter()
    for module in (ratlin, core, invariants):
        counting(monkeypatch, module, "dense", calls)
    return calls


def bider_or_cap(d):
    try:
        return invariants.check_bider_leibniz(d)
    except invariants.BiderSizeError:  # phi at n = 8 has b = 56
        return None


@pytest.mark.parametrize("make", [
    pytest.param(lambda: phi_dialgebra(PHI8), id="phi8"),
    pytest.param(lambda: direct_sum(*map(catalog.instantiate, ("Dias3_10", "Dias3_13",
                                                              "Dias2_4"))), id="sum8"),
])
def test_solvers_and_checks_make_no_row_dense(monkeypatch, make):
    # kernels are stored as sparse rows, and every check reads those
    d = make()
    calls = dense_calls(monkeypatch)
    for check in (spaces.derivation_space, spaces.diderivation_space,
                  spaces.check_characterizations, spaces.check_closures, bider_or_cap):
        check(d)
        assert not calls, check.__name__


def test_spaces_report_renders_basis_operators_from_sparse_rows(monkeypatch):
    calls = dense_calls(monkeypatch)
    counting(monkeypatch, ratlin.Matrix, "__init__", calls)
    assert run_cli("spaces", "catalog:Dias3_13", "--which", "der", "--machine") == 0
    assert not calls


def stored_exactly(x) -> bool:
    """An ``int`` when integral, a ``Fraction`` when not."""
    return type(x) is (int if x.denominator == 1 else Fraction)


# Factories, not instances: each test solves a fresh dialgebra.
PHI8 = [1, -1, 2, -2, 3, -3, 1, -1]
INT_CASES = [
    pytest.param(lambda: phi_dialgebra(PHI8), id="phi8"),
    pytest.param(lambda: catalog.instantiate("Dias2_3", {"lam": Fraction(1, 2)}),
                 id="Dias2_3[lam=1/2]"),
]


@pytest.mark.parametrize("make", INT_CASES)
def test_tables_and_rule_rows_stay_int_while_integral(monkeypatch, make):
    # Integer structure constants reach the elimination as ints; a Fraction
    # only where the constant, or a sum of constants, is not an integer.
    # In either solver route, contributions that cancel leave no key: a row
    # maps columns to nonzero entries, and a one-unknown equation is its
    # column number alone, an int in range.
    d = make()
    runs = eliminate_runs(monkeypatch, record=lambda rows, ncols: rows)
    spaces.derivation_space(d)
    spaces.diderivation_space(d)
    spaces.derivation_space_via_left_ops(d)
    spaces.derivation_space_via_right_ops(d)
    spaces.diderivation_space_via_ops(d)
    tables = [x for p in ("dashv", "vdash") for plane in d.table(p)
              for row in plane for x in row.values()]
    handed = [row for route_rows in runs for row in route_rows]
    columns = [row for row in handed if type(row) is int]
    dict_rows = [row for row in handed if type(row) is dict]
    assert len(columns) + len(dict_rows) == len(handed)
    assert columns and all(0 <= j < d.dim ** 2 for j in columns)
    rows = [x for row in dict_rows for x in row.values()]
    assert len(runs) == 5 and tables and rows
    assert all(stored_exactly(x) for x in tables + rows)
    assert all(x != 0 for x in rows)
    integral = all(x.denominator == 1 for plane in d.c_dashv + d.c_vdash
                   for row in plane for x in row)
    assert all(type(x) is int for x in tables + rows) is integral


# (product, o1, o2) of T(e_i * e_j) = T(e_i) o1 e_j + e_i o2 T(e_j)
RULE_TRIPLES = {
    "der": [("dashv", "dashv", "dashv"), ("vdash", "vdash", "vdash")],
    "dider": [("dashv", "dashv", "vdash"), ("vdash", "dashv", "vdash")],
}


def cube(d, product):
    return d.c_dashv if product == "dashv" else d.c_vdash


def nonzero(row):
    return {col: x for col, x in enumerate(row) if x}


def rule_slot_rows(d, rule):
    """((i, j, r), row) for each slot of the rule system, in order, the row
    summed densely: c[i][j][l] at T[r][l], -c_o1[k][j][r] at T[k][i] and
    -c_o2[i][k][r] at T[k][j]."""
    n = d.dim
    for product, o1, o2 in RULE_TRIPLES[rule]:
        c, c_first, c_second = cube(d, product), cube(d, o1), cube(d, o2)
        for i in range(n):
            for j in range(n):
                for r in range(n):
                    row = [Fraction(0)] * (n * n)
                    for k in range(n):
                        row[r * n + k] += c[i][j][k]
                        row[k * n + i] -= c_first[k][j][r]
                        row[k * n + j] -= c_second[i][k][r]
                    yield (i, j, r), nonzero(row)


def cubes(d):
    """Both dense cubes of d, by product, each read once."""
    return {"dashv": d.c_dashv, "vdash": d.c_vdash}


def operator_entry(c, kind, k, r, s):
    """Entry (r, s) of L_{e_k} or R_{e_k}: e_k * e_s or e_s * e_k, at e_r,
    from the cubes ``c`` by product."""
    side, product = kind
    c = c[product]
    return c[k][s][r] if side == "left" else c[s][k][r]


def operator_slot_rows(d, conditions):
    """((i, r, s), row) for each slot of ``S_{T(e_i)} = [T, M_{e_i}]``, in
    order, the row summed densely: S_k[r][s] at T[k][i], -M_i[t][s] at
    T[r][t] and M_i[r][t] at T[t][s]."""
    n, c = d.dim, cubes(d)
    for sub, inside in conditions:
        for i in range(n):
            for r in range(n):
                for s in range(n):
                    row = [Fraction(0)] * (n * n)
                    for k in range(n):
                        row[k * n + i] += operator_entry(c, sub, k, r, s)
                        row[r * n + k] -= operator_entry(c, inside, i, k, s)
                        row[k * n + s] += operator_entry(c, inside, i, r, k)
                    yield (i, r, s), nonzero(row)


def rule_rows(d, rule) -> int:
    """The slots of the system of ``rule`` whose terms do not all cancel."""
    return sum(1 for _, row in rule_slot_rows(d, rule) if row)


def operator_rows(d, conditions) -> int:
    """The slots of the operator-route system whose terms do not all cancel."""
    return sum(1 for _, row in operator_slot_rows(d, conditions) if row)


ROUTES = [
    ("derivation_space_via_left_ops",
     [(("left", "dashv"), ("left", "dashv")), (("left", "vdash"), ("left", "vdash"))]),
    ("derivation_space_via_right_ops",
     [(("right", "dashv"), ("right", "dashv")), (("right", "vdash"), ("right", "vdash"))]),
    ("diderivation_space_via_ops",
     [(("left", "dashv"), ("left", "vdash")), (("right", "vdash"), ("right", "dashv"))]),
]


@pytest.mark.parametrize("make", [
    pytest.param(lambda: phi_dialgebra(PHI8[:5]), id="phi5"),
    pytest.param(lambda: catalog.instantiate("Dias3_13"), id="Dias3_13"),
    pytest.param(lambda: direct_sum(*map(catalog.instantiate, ("Dias3_10", "Dias3_13",
                                                              "Dias2_4"))), id="sum8"),
])
def test_row_builders_form_one_row_per_slot_with_a_term(monkeypatch, make):
    # No row is handed over for a slot that no structure constant reaches,
    # nor for one whose terms all cancel.
    d = make()
    sizes = []
    original = spaces.kernel

    def counted(ncols, rows):
        rows = list(rows)
        assert all(type(row) is int or row for row in rows), "an empty row reached the kernel"
        sizes.append(len(rows))
        return original(ncols, rows)

    monkeypatch.setattr(spaces, "kernel", counted)
    spaces.derivation_space(d)
    spaces.diderivation_space(d)
    for name, _ in ROUTES:
        getattr(spaces, name)(d)
    expected = [rule_rows(d, "der"), rule_rows(d, "dider")]
    expected += [operator_rows(d, conditions) for _, conditions in ROUTES]
    assert sizes == expected
    if d.dim == 8:  # the sum is sparse: most of the 2n^3 slots have no term
        assert max(sizes) < d.dim ** 3


@pytest.mark.parametrize("n", [3, 5, 8, 12])
def test_phi_der_routes_hand_over_the_rows_that_do_not_cancel(monkeypatch, n):
    # Every slot of phi's Der systems has a term, but in 2n^3 - 2n^2 of them
    # the terms cancel; the 2n^2 rows left repeat n distinct rows.
    d = phi_dialgebra((PHI8 * 2)[:n])
    runs = eliminate_runs(monkeypatch, record=lambda rows, ncols: rows)
    spaces.derivation_space(d)
    spaces.derivation_space_via_left_ops(d)
    spaces.derivation_space_via_right_ops(d)
    assert [len(rows) for rows in runs] == [2 * n * n] * 3
    assert [len({frozenset(row.items()) for row in rows}) for rows in runs] == [n] * 3


@pytest.mark.parametrize("n", [8, 12])
def test_full_rank_systems_stop_after_one_pivot_per_column(monkeypatch, n):
    # Dider of phi is 0: the first n^2 rows already give n^2 pivots, and the
    # lazy row builder is never asked for the other 2n^3 - n^2
    d = phi_dialgebra((PHI8 * 2)[:n])
    runs = rows_read(monkeypatch)
    assert spaces.diderivation_space(d).dim == 0
    assert runs == [n * n]
    # Der has a nonzero kernel, so every row is read: the 2n^2 of its 2n^3
    # slots whose terms do not cancel
    runs.clear()
    assert spaces.derivation_space(d).dim > 0
    assert runs == [2 * n * n]


def test_operator_route_stops_at_full_rank(monkeypatch):
    d = phi_dialgebra((PHI8 * 2)[:12])
    runs = rows_read(monkeypatch)
    assert spaces.diderivation_space_via_ops(d).dim == 0
    assert runs == [1717]  # of 2n^3 = 3456


DIAS3_16_POINT = dict(zip("kmnpq", map(Fraction, (-2, 3, -3, -3, -2))))


def dider_ops_slot_rows(d):
    return operator_slot_rows(d, dict(ROUTES)["diderivation_space_via_ops"])


@pytest.mark.parametrize("make, solve, slot_rows", [
    # the 1,717 rows read are all one-entry rows, in 144 columns
    pytest.param(lambda: phi_dialgebra((PHI8 * 2)[:12]), spaces.diderivation_space_via_ops,
                 dider_ops_slot_rows, id="phi12-dider-ops"),
    # 16 of the 28 rows are one-entry rows, in 2 columns
    pytest.param(lambda: catalog.instantiate("Dias3_16", DIAS3_16_POINT),
                 spaces.diderivation_space, lambda d: rule_slot_rows(d, "dider"),
                 id="Dias3_16-dider"),
    pytest.param(lambda: direct_sum(catalog.instantiate("Dias3_10"),
                                    catalog.instantiate("Dias3_13"),
                                    catalog.instantiate("Dias3_16", DIAS3_16_POINT)),
                 spaces.derivation_space, lambda d: rule_slot_rows(d, "der"), id="sum9-der"),
])
def test_one_entry_multiples_reach_no_arithmetic(monkeypatch, make, solve, slot_rows):
    # A one-entry row T[a][b] = x after an earlier one-entry row in the
    # same column is skipped by its column before any arithmetic, however
    # its entry is written: the system costs the core no more calls than
    # the system without those rows, and gives the same result.  The
    # solvers hand a one-entry row over as its column alone, so the system
    # is fed here as the dense slot oracle writes it, entries and all; the
    # solver's own system reduces to the same rows.
    eliminate = ratlin._eliminate
    d = make()
    ncols = d.dim ** 2
    rows = [row for _, row in slot_rows(d) if row]
    first: dict = {}
    kept, respelled = [], 0
    for row in rows:
        if len(row) == 1:
            [j] = row
            if j in first:
                respelled += row != first[j]
                continue
            first[j] = row
        kept.append(row)
    assert respelled  # a key of the row as written would not skip these
    calls = Counter()
    for name in ("_axpy", "_quotient", "int_or_fraction"):
        counting(monkeypatch, ratlin, name, calls)
    expected = eliminate(kept, ncols)
    without = Counter(calls)
    calls.clear()
    assert eliminate(rows, ncols) == expected
    assert calls == without
    runs = eliminate_runs(monkeypatch, record=lambda rows, ncols: rows)
    solve(d)
    [handed] = runs
    assert eliminate(handed, ncols)[0] == expected[0]


def handed_kinds(rows) -> tuple[int, int]:
    """How many of the rows handed to the core are column numbers and how
    many are dict rows; nothing else is handed over."""
    columns = sum(type(row) is int for row in rows)
    dict_rows = sum(type(row) is dict for row in rows)
    assert columns + dict_rows == len(rows)
    return columns, dict_rows


def slot_kinds(slots) -> tuple[int, int]:
    """How many slots of a dense slot oracle have a row with exactly one
    nonzero entry, and how many have more."""
    lengths = [len(row) for _, row in slots]
    return lengths.count(1), sum(k > 1 for k in lengths)


SUM9 = pytest.param(lambda: direct_sum(catalog.instantiate("Dias3_10"),
                                       catalog.instantiate("Dias3_13"),
                                       catalog.instantiate("Dias3_16", DIAS3_16_POINT)),
                    ["derivation_space", "diderivation_space"] + [name for name, _ in ROUTES],
                    [(378, 34), (370, 36), (378, 34), (378, 34), (370, 36)], id="sum9")


@pytest.mark.parametrize("make, routes, expected", [
    # every slot of phi's Dider systems with a term has one unknown
    pytest.param(lambda: phi_dialgebra((PHI8 * 2)[:12]),
                 ["diderivation_space", "diderivation_space_via_ops"],
                 [(3456, 0), (3456, 0)], id="phi12-dider"),
    SUM9,
])
def test_one_unknown_equations_reach_the_core_as_columns(monkeypatch, make, routes, expected):
    # Each route hands the core a column number for every slot whose dense
    # row has exactly one nonzero entry, and a dict row for every slot
    # whose dense row has more (tests/test_row_builders.py checks them one
    # by one); the whole system is built here, past the core's stop.
    d = make()
    runs = eliminate_runs(monkeypatch, record=lambda rows, ncols: rows)
    for name in routes:
        getattr(spaces, name)(d)
    slots = {"derivation_space": lambda: rule_slot_rows(d, "der"),
             "diderivation_space": lambda: rule_slot_rows(d, "dider"),
             **{name: lambda c=c: operator_slot_rows(d, c) for name, c in ROUTES}}
    assert [handed_kinds(rows) for rows in runs] == \
        [slot_kinds(slots[name]()) for name in routes] == expected


@pytest.mark.parametrize("make, reads", [
    # the Dider route reaches full rank inside its first condition on phi
    pytest.param(lambda: phi_dialgebra((PHI8 * 2)[:12]), [2, 2, 2], id="phi12"),
    pytest.param(lambda: catalog.instantiate("Dias3_13"), [2, 2, 4], id="Dias3_13"),
])
def test_operator_routes_read_each_operator_set_once(monkeypatch, make, reads):
    # A Der condition's S and M are one set, read once; a Dider condition
    # reads its two, and only when the route reaches that condition.
    d = make()
    calls = Counter()
    counting(monkeypatch, core.Dialgebra, "basis_ops", calls)
    counts = []
    for name, _ in ROUTES:
        calls.clear()
        getattr(spaces, name)(d)
        counts.append(calls["basis_ops"])
    assert counts == reads


@pytest.mark.parametrize("make", [
    pytest.param(lambda: phi_dialgebra(PHI8[:5]), id="phi5"),
    pytest.param(lambda: phi_dialgebra([Fraction(1, 2), 0, -3]), id="phi3[1/2,0,-3]"),
    pytest.param(lambda: catalog.instantiate("Dias3_13"), id="Dias3_13"),
    pytest.param(lambda: direct_sum(*map(catalog.instantiate, ("Dias3_10", "Dias3_13",
                                                              "Dias2_4"))), id="sum8"),
])
def test_operator_rows_are_formed_only_where_a_term_cannot_cancel_away(make):
    # A slot's entries are summed before its row is built, so a slot whose
    # terms all cancel forms no row: the rows formed are the slots with a
    # nonzero dense row (tests/test_row_builders.py checks them row by row).
    d = make()
    for _, conditions in ROUTES:
        assert sum(1 for _ in spaces._operator_rows(d, conditions)) == \
            operator_rows(d, conditions)


def formed_rows(monkeypatch, builder) -> list:
    """The rows the builder ``spaces.<builder>`` forms in each call."""
    formed = []
    original = getattr(spaces, builder)

    def counted(*args):
        formed.append(0)
        for row in original(*args):
            formed[-1] += 1
            yield row

    monkeypatch.setattr(spaces, builder, counted)
    return formed


@pytest.mark.parametrize("n, formed", [(3, 18), (5, 50), (8, 128), (12, 288)])
def test_phi_der_operator_routes_skip_the_scalar_conditions(monkeypatch, n, formed):
    # L^vdash and R^dashv of phi are scalar, so their condition forms a row
    # only where S has a term, on the diagonal; in the other condition the
    # S part cancels the commutator in every slot but the n per i that
    # touch row or column i.  Each route forms just the 2n^2 rows the core
    # reads.  It adds terms into a row, n(n - 1) of them, only in the n
    # slots s = i = r of the scalar condition, where S has terms off k = r.
    d = phi_dialgebra((PHI8 * 2)[:n])
    counts = formed_rows(monkeypatch, "_operator_rows")
    runs = eliminate_runs(monkeypatch)
    summed = Counter()
    counting(monkeypatch, spaces, "_add", summed)
    spaces.derivation_space_via_left_ops(d)
    spaces.derivation_space_via_right_ops(d)
    assert counts == [formed] * 2 == [2 * n * n] * 2
    assert runs == [2 * n * n] * 2
    assert summed["_add"] == 2 * n * (n - 1)


@pytest.mark.parametrize("n, formed", [(3, 18), (5, 50), (8, 128), (12, 288)])
def test_phi_der_identity_route_forms_only_the_rows_that_do_not_cancel(monkeypatch, n, formed):
    # Every one of the 2n^3 slots of phi's Der system has a term, but in
    # 2n^3 - 2n^2 of them the terms cancel: the identity route forms just
    # the 2n^2 rows the core reads.  It adds terms into a row, n(n - 1) of
    # them, only in the n slots i = j = r of the dashv product, where o2
    # has terms off k = r.
    d = phi_dialgebra((PHI8 * 2)[:n])
    counts = formed_rows(monkeypatch, "_rule_rows")
    runs = eliminate_runs(monkeypatch)
    summed = Counter()
    counting(monkeypatch, spaces, "_add", summed)
    spaces.derivation_space(d)
    assert counts == [formed] == [2 * n * n]
    assert runs == [2 * n * n]
    assert summed["_add"] == n * (n - 1)


@pytest.mark.parametrize("make, targets", [
    # the annihilator and the bar-center are one target where they are equal
    pytest.param(lambda: phi_dialgebra(PHI8), 1, id="phi8"),
    pytest.param(lambda: catalog.instantiate("Dias2_4"), 1, id="Dias2_4"),  # unital
    pytest.param(lambda: catalog.instantiate("Dias3_7"), 2, id="Dias3_7"),
    pytest.param(lambda: direct_sum(*map(catalog.instantiate, ("Dias3_10", "Dias3_13",
                                                              "Dias2_4"))), 1, id="sum8"),
])
def test_invariant_actions_solve_each_target_once_and_reduce_no_image(monkeypatch, make,
                                                                      targets):
    d = make()
    spaces.derivation_space(d)
    spaces.diderivation_space(d)
    ann, h = invariants.annihilator(d), invariants.halo(d)
    assert (targets == 1) is (invariants.bar_center(d) == ann)
    calls = Counter()
    counting(monkeypatch, ratlin.Subspace, "coordinates", calls)
    # frame 0 is the key, frame 1 the counting wrapper
    counting(monkeypatch, invariants, "kernel", calls,
             key=lambda *args: sys._getframe(2).f_code.co_name)
    report = invariants.invariant_actions(d, ann, h)
    # the bar-center's own system, then the equations of each distinct
    # target; those of 0 need no kernel
    assert calls == {"bar_center": 1, "_equations": targets}
    assert all(value for key, value in report.items() if key != "unital")


def checks_on(d):
    """Every public check that reads Der or Dider, on one dialgebra."""
    spaces.derivation_space(d)
    spaces.diderivation_space(d)
    spaces.check_characterizations(d)
    spaces.check_closures(d)
    invariants.check_invariant_actions(d)
    spaces.check_characterizations(d)
    try:
        invariants.check_bider_leibniz(d)
    except invariants.BiderSizeError:
        pass


@pytest.mark.parametrize("make", [
    pytest.param(lambda: phi_dialgebra(PHI8), id="phi8"),  # b = 56, over the cap
    pytest.param(lambda: catalog.instantiate("Dias3_10"), id="Dias3_10"),
])
def test_each_rule_is_solved_once_per_dialgebra(monkeypatch, make):
    d = make()
    solves = kernel_calls(monkeypatch)
    checks_on(d)
    # the operator routes are a cross-check: three per check_characterizations
    assert solves == {"der": 1, "dider": 1, "_operator_rows": 6}
    assert spaces.derivation_space(d) is spaces.derivation_space(d)
    assert spaces.diderivation_space(d) is spaces.diderivation_space(d)
    # and those four calls solved nothing
    assert solves["der"] == solves["dider"] == 1


def test_equal_dialgebras_each_solve_their_own_spaces(monkeypatch):
    a, b = phi_dialgebra(PHI8), phi_dialgebra(PHI8)
    assert a == b and a is not b
    solves = kernel_calls(monkeypatch)
    der = spaces.derivation_space(a), spaces.derivation_space(b)
    dider = spaces.diderivation_space(a), spaces.diderivation_space(b)
    assert solves == {"der": 2, "dider": 2}
    assert der[0] == der[1] and der[0] is not der[1]
    assert dider[0] == dider[1] and dider[0] is not dider[1]


@pytest.mark.parametrize("name, unital", [("Dias2_4", True), ("Dias3_1", False)])
def test_invariants_solves_the_bar_unit_system_once(monkeypatch, name, unital):
    n = catalog.instantiate(name).dim
    runs = eliminate_runs(monkeypatch, record=lambda rows, ncols: (ncols, len(rows)))
    assert run_cli("invariants", f"catalog:{name}") == 0
    # both have 2n^2 rows: the bar-unit system [A | b] of the halo over
    # n + 1 columns, and the bar-center's own system A over n
    assert runs.count((n + 1, 2 * n * n)) == 1
    assert runs.count((n, 2 * n * n)) == 1
    assert invariants.halo(catalog.instantiate(name)).is_empty is not unital


@pytest.mark.parametrize("which, expected", [
    ("der", {"der": 1, "_operator_rows": 2}),
    ("dider", {"dider": 1, "_operator_rows": 1}),
    ("inn", {}),
    ("dinn", {}),
])
def test_spaces_checks_only_the_printed_kind(monkeypatch, which, expected):
    solves = kernel_calls(monkeypatch)
    assert run_cli("spaces", "catalog:Dias3_10", "--which", which) == 0
    assert solves == expected


def test_invariants_runs_each_sweep_and_set_once(monkeypatch):
    calls = kernel_calls(monkeypatch)
    for name in ("annihilator", "bar_center", "halo"):
        counting(monkeypatch, invariants, name, calls)
    for name in ("left_identity_violations", "right_identity_violations"):
        counting(monkeypatch, invariants.LeibnizAlgebra, name, calls)
    brackets = Counter()
    counting(monkeypatch, invariants, "bilinear", brackets)
    counting(monkeypatch, invariants, "composite", brackets)
    assert run_cli("invariants", "catalog:Dias3_1") == 0
    # the bar-center is solved on its own, as a check on the halo's direction
    assert calls == {
        "annihilator": 1, "bar_center": 1, "halo": 1,
        "left_identity_violations": 1, "right_identity_violations": 1,
        "der": 1, "dider": 1,
    }
    # both Leibniz identities come from one sweep over two composite
    # tensors, not from a bracket per basis triple
    assert brackets == {"composite": 2}


def test_leibniz_sweep_evaluates_the_shared_brackets_once(monkeypatch):
    leib = invariants.LeibnizAlgebra(catalog.instantiate("Dias3_1"))
    calls = Counter()
    counting(monkeypatch, invariants, "bilinear", calls)
    counting(monkeypatch, invariants, "composite", calls,
             key=lambda n, inner, outer, nested_left: ("composite", n, nested_left))
    right, left = leib.right_identity_violations(), leib.left_identity_violations()
    assert not right and left
    # [[x,y],z] and [x,[y,z]] once each over the bracket table, for both
    # identities, and no bracket per triple
    assert calls == {("composite", leib.dim, True): 1, ("composite", leib.dim, False): 1}
    assert invariants._violations(leib.table) == {"right": right, "left": left}


def test_instantiate_reads_each_coefficient_once(monkeypatch):
    # the six relation coefficients of Dias3_16 go straight into the
    # sparse tables; no dense cube is built and read back
    calls = Counter()
    counting(monkeypatch, core, "frac", calls)
    d = catalog.instantiate("Dias3_16", {"k": 1, "m": 2, "n": Fraction(1, 2), "p": 0, "q": -3})
    assert calls["frac"] == 6
    assert d.table("vdash")[0] == ({1: 2}, {}, {1: Fraction(1, 2)})


def sweep_points(sweep) -> set:
    """The distinct (entry, params) points a ``verify_catalog`` sweep compares."""
    def key(name, params):
        return name, tuple(sorted((params or {}).items()))

    points = {key(row["name"], row["params"]) for row in sweep["entries"]}
    # the Dias3_16 twin of each Dias3_17 point
    points |= {key("Dias3_16", dict(zip("kmnpq", row["params"].values())))
               for row in sweep["entries"] if row["name"] == "Dias3_17"}
    points |= {key("Dias3_16", dict(zip("kmnpq", s["params"])))
               for row in sweep["dias316_rows"] for s in row["samples"]}
    return points


def test_verify_catalog_solves_each_point_once(monkeypatch):
    calls = Counter()
    counting(monkeypatch, spaces, "diderivation_space", calls)
    sweep = catalog.verify_catalog(3, 0)
    # row 13 prints its single point once per requested sample
    assert [len(r["samples"]) for r in sweep["dias316_rows"] if r["row"] == 13] == [3]
    assert calls["diderivation_space"] == len(sweep_points(sweep))
    assert set(sweep["kernels"]) == sweep_points(sweep)


def test_catalog_command_solves_each_point_once(monkeypatch):
    points = sweep_points(catalog.verify_catalog(3, 0))
    # the solution-family points are case-table samples (rows 2, 3, 4)
    for point in catalog.FAMILY_POINTS.values():
        assert ("Dias3_16", tuple(sorted(zip("kmnpq", point)))) in points
    calls = Counter()
    counting(monkeypatch, spaces, "diderivation_space", calls)
    assert run_cli("catalog", "--samples", "3") == 0
    assert calls["diderivation_space"] == len(points) == 62


def test_determinant_probe_expands_once_and_eliminates_nothing(monkeypatch):
    # the printed 5x5 determinant is one polynomial evaluated at each
    # sample, not an elimination per sample
    calls = Counter()
    counting(monkeypatch, poly, "det", calls, key=lambda rows: "poly.det")
    counting(monkeypatch, ratlin, "det", calls, key=lambda m: "ratlin.det")
    runs = eliminate_runs(monkeypatch)
    probe_runs = []
    original = catalog.check_det_factorization

    def probe(samples):
        before = len(runs)
        try:
            return original(samples)
        finally:
            probe_runs.append(len(runs) - before)

    monkeypatch.setattr(catalog, "check_det_factorization", probe)
    assert run_cli("catalog", "Dias3_16", "--samples", "5") == 0
    assert calls == {"poly.det": 1}
    assert probe_runs == [0]
    assert runs  # the sweep itself still solves through the core


@pytest.mark.parametrize("bound", [3, 6, 10])
def test_axiom_sweep_takes_each_monomial_product_once(monkeypatch, bound):
    calls = Counter()
    for name in ("dashv", "vdash"):
        counting(monkeypatch, kxy, name, calls,
                 key=lambda f, g, name=name: (name, *f.terms, *g.terms))
    report = kxy.check_axioms_truncated(bound)
    assert report["violations"] == []
    # four exponents with sum at most the bound: C(bound + 4, 4) pairs,
    # each multiplied once by each product; the C(bound + 6, 6) triples
    # read every product from that table
    pairs = math.comb(bound + 4, 4)
    assert report["triples"] == math.comb(bound + 6, 6)
    assert Counter(key[0] for key in calls) == {"dashv": pairs, "vdash": pairs}
    assert max(calls.values()) == 1


def test_kxy_products_run_through_the_traced_multiplication(monkeypatch):
    # perfbench's tracer times kxy products as kxy.BivariatePoly.__mul__, in
    # the class's own namespace; a product that went around that name would
    # read 0 there.  Each monomial pair of the table is multiplied once by
    # each of dashv and vdash, which the rest of the command calls too.
    assert "__mul__" in vars(kxy.BivariatePoly)
    calls, renames, images = Counter(), Counter(), Counter()

    def caller(*args):
        # frame 0 is this key, frame 1 the counting wrapper
        return sys._getframe(2).f_code.co_name

    counting(monkeypatch, kxy.BivariatePoly, "__mul__", calls, key=caller)
    counting(monkeypatch, poly.Poly, "rename", renames, key=caller)
    for name in ("_der_image", "_dider_image"):
        counting(monkeypatch, kxy, name, images)
    kxy._build_product_table.cache_clear()
    assert run_cli("kxy", "--bound", "6") == 0
    pairs = math.comb(6 + 4, 4)
    assert calls["dashv"] >= pairs and calls["vdash"] >= pairs
    # the closed forms write each image term by term, with no product and
    # no renaming of their own
    assert images["_der_image"] > 0 and images["_dider_image"] > 0
    for name in images:
        assert calls[name] == renames[name] == 0, name


def test_annihilator_membership_renames_once(monkeypatch):
    # h(y,y) is h(x,x) renamed, so membership forms h(x,x) alone, for
    # members and non-members alike.
    calls = Counter()
    counting(monkeypatch, poly.Poly, "rename", calls, key=lambda h, *image: image)
    P = kxy.BivariatePoly
    x_minus_y = P.var_x(8) - P.var_y(8)
    cases = [(x_minus_y, True), (x_minus_y * P.monomial(2, 1, 3, 8), True),
             (P.zero(8), True), (P.var_x(8), False), (P.one(8), False)]
    assert [kxy.ann_membership(h) for h, _ in cases] == [member for _, member in cases]
    assert calls == {(0, 0): len(cases)}


def product_calls(monkeypatch) -> Counter:
    """Tally ``kxy.dashv`` and ``kxy.vdash`` by product and calling function."""
    calls = Counter()
    for name in ("dashv", "vdash"):
        # frame 0 is the key, frame 1 the counting wrapper
        counting(monkeypatch, kxy, name, calls,
                 key=lambda f, g, name=name: (name, sys._getframe(2).f_code.co_name))
    return calls


def test_kxy_command_builds_one_product_table(monkeypatch):
    calls = product_calls(monkeypatch)
    assert run_cli("kxy", "--bound", "8") == 0
    # the axiom sweep, the nine identity sweeps and nothing else read one
    # table of the C(12, 4) monomial pairs of degree sum at most 8; the
    # halo and inner-diderivation checks multiply polynomials directly
    pairs = math.comb(12, 4)
    assert {key: n for key, n in calls.items() if key[1] == "_build_product_table"} == \
        {("dashv", "_build_product_table"): pairs, ("vdash", "_build_product_table"): pairs}
    assert {key[1] for key in calls} == {
        "_build_product_table", "halo_membership", "inner_dider_apply"}

    # a second sweep at the same bound reads the same table
    calls.clear()
    f = kxy.BivariatePoly({(1, 1): 1, (0, 0): 2}, 8)
    assert kxy.check_dider_identity(f, f)["violations"] == []
    assert kxy.check_axioms_truncated(8)["violations"] == []
    assert not calls

    # another bound builds its own table, and going back to bound 8 reads
    # the kept one
    assert kxy.check_axioms_truncated(6)["violations"] == []
    assert kxy.check_axioms_truncated(8)["violations"] == []
    assert calls == {("dashv", "_build_product_table"): math.comb(10, 4),
                     ("vdash", "_build_product_table"): math.comb(10, 4)}


def test_kxy_benchmark_ops_build_each_bound_table_once(monkeypatch):
    # the kxy_sweep workload's ops, in its order: kxy at bounds 6, 8 and 10,
    # then two library sweeps at bound 8, which read the bound-8 table kept
    # since the second op
    monkeypatch.syspath_prepend(os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "perfbench"))
    import workloads

    calls, reads = product_calls(monkeypatch), []
    table = kxy._product_table
    monkeypatch.setattr(kxy, "_product_table", lambda bound: reads.append(bound) or table(bound))
    with contextlib.redirect_stdout(io.StringIO()):
        for op in workloads.build("kxy_sweep", 1, workloads.points(1)):
            op.call()
    bounds = {*workloads.KXY_BOUNDS, workloads.KXY_IDENTITY_BOUND}
    assert set(reads) == bounds == {6, 8, 10}
    assert reads[-1] == 8 and 10 in reads[reads.index(8):]
    pairs = sum(math.comb(bound + 4, 4) for bound in bounds)
    assert {key: n for key, n in calls.items() if key[1] == "_build_product_table"} == \
        {("dashv", "_build_product_table"): pairs, ("vdash", "_build_product_table"): pairs}


def test_replaced_product_builds_a_fresh_table(monkeypatch):
    calls = Counter()
    counting(monkeypatch, kxy, "vdash", calls)
    f = kxy.BivariatePoly({(1, 1): 1, (0, 0): 2}, 8)
    pairs = math.comb(12, 4)
    kxy.check_dider_identity(f, f)
    assert calls == {"vdash": pairs}
    # a table built by the old dashv is never read under the new one
    counting(monkeypatch, kxy, "dashv", calls)
    assert kxy.check_dider_identity(f, f)["violations"] == []
    assert calls == {"vdash": 2 * pairs, "dashv": pairs}


def image_calls(monkeypatch) -> Counter:
    """Tally ``KxyOperatorSpec.apply_monomial`` by exponent pair."""
    calls = Counter()
    counting(monkeypatch, kxy.KxyOperatorSpec, "apply_monomial", calls,
             key=lambda spec, m, n: (m, n))
    return calls


@pytest.mark.parametrize("check, f, g, limit", [
    # limit = bound - growth, the largest degree an image is taken at
    (kxy.check_dider_identity, {(1, 1): 1, (0, 0): 2}, {(1, 1): 1, (0, 0): 2}, 5),
    (kxy.check_dider_identity, {(0, 0): 1}, {}, 6),
    (kxy.check_derivation_identity, {(2, 0): 3, (0, 0): -1}, {(0, 2): 1, (1, 0): 2}, 3),
])
def test_identity_sweep_takes_each_image_once(monkeypatch, check, f, g, limit):
    calls = image_calls(monkeypatch)
    report = check(kxy.BivariatePoly(f, 6), kxy.BivariatePoly(g, 6))
    assert report["pairs"] > 0
    # every pair, and both products of it, are compared by lookup
    assert set(calls) == {(a, b) for a in range(limit + 1) for b in range(limit + 1 - a)}
    assert max(calls.values()) == 1


def test_kxy_command_takes_each_image_once_per_sweep(monkeypatch):
    calls = image_calls(monkeypatch)
    assert run_cli("kxy", "--bound", "8") == 0
    # nine sweeps, one image per monomial of degree at most bound - growth:
    # 45 + 21 + 21 (derivations), 45 + 45 + 36 + 45 (diderivations) and
    # 36 + 28 (inner derivations); then the 8 telescoping images x^m,
    # m <= 7, and 3 + 3 + 5 terms of the halo check
    assert sum(calls.values()) <= 341


def test_identity_sweep_adds_fractions_only_in_the_images(monkeypatch):
    # the sweep scales its images to integers, so with a non-integral
    # coefficient every Fraction addition is made computing the images
    calls = Counter()
    for name in ("__add__", "__radd__"):
        counting(monkeypatch, Fraction, name, calls, key=lambda *args: "add")
    f = kxy.BivariatePoly({(1, 0): 2, (0, 1): Fraction(1, 2), (0, 0): 3}, 8)
    spec = kxy.KxyOperatorSpec("dider", f=f, g=f)
    # f has degree 1, so the diderivation form keeps degrees: images up to 8
    for m in range(9):
        for n in range(9 - m):
            spec.apply_monomial(m, n)
    images = calls["add"]
    calls.clear()
    report = kxy.check_dider_identity(f, f)
    assert report == {"pairs": math.comb(8 + 4, 4), "violations": []}
    assert 0 < calls["add"] <= images


@pytest.mark.parametrize("argv, parsers", [
    # a plain call of the subcommand argv names: read by hand, no parser
    (["verify", "catalog:Dias3_8", "--machine"], 0),
    (["spaces", "catalog:Dias2_1", "--which", "der"], 0),
    (["invariants", "catalog:Dias2_1"], 0),
    (["bider", "catalog:Dias2_1"], 0),
    (["catalog", "Dias2_1", "--samples", "1"], 0),
    (["kxy", "--bound", "4"], 0),
    # any other call, whether it names a subcommand or not: the full
    # parser, the top-level one and the six of the subcommands
    (["--help"], 7),
    ([], 7),
    (["nosuch", "X"], 7),
    (["--machine", "verify", "X"], 7),
    (["verify", "--he"], 7),
    (["catalog", "--s", "3"], 7),
    (["kxy", "--bound=4"], 7),
    (["spaces", "X", "--which", "bad"], 7),
    (["catalog", "--seed", "-3", "--samples", "1", "Dias2_1"], 7),
])
def test_cli_call_builds_the_parsers_it_uses(monkeypatch, argv, parsers):
    calls = Counter()
    counting(monkeypatch, argparse.ArgumentParser, "__init__", calls)
    with contextlib.suppress(SystemExit):
        run_cli(*argv)
    assert calls["__init__"] == parsers
