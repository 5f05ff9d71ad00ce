"""Each derivation and diderivation space is solved once per dialgebra,
each public call computes each invariant set, basis bracket and
polynomial operator image once, and a CLI call that names its subcommand
builds that subcommand's parser alone (help, no arguments or an unknown
command build the full parser with all six).

The counts are taken by wrapping the solvers through monkeypatch, so a
change that solves a space twice, re-runs a sweep or goes back to a cubic
bracket loop fails here even when every report stays the same.
"""

import argparse
import contextlib
import io
import math
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
    """Tally both solver cores: the rule system by rule, the operator route."""
    calls = Counter()
    counting(monkeypatch, spaces, "_rule_kernel", calls, key=lambda d, rule: rule)
    counting(monkeypatch, spaces, "_operator_route_kernel", calls)
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
    input, counted lazily as the core reads them; an empty row fails."""
    runs = []
    original = ratlin._eliminate

    def wrapper(rows, ncols):
        runs.append(0)

        def counted():
            for row in rows:
                assert row, "an empty row reached the core"
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
    # maps columns to nonzero entries.
    d = make()
    runs = eliminate_runs(monkeypatch, record=lambda rows, ncols: rows)
    spaces.derivation_space(d)
    spaces.diderivation_space(d)
    spaces.derivation_space_via_left_ops(d)
    spaces.derivation_space_via_right_ops(d)
    spaces.diderivation_space_via_ops(d)
    tables = [x for p in ("dashv", "vdash") for plane in d.table(p)
              for row in plane for x in row.values()]
    rows = [x for route_rows in runs for row in route_rows for x in row.values()]
    assert len(runs) == 5 and tables and rows
    assert all(stored_exactly(x) for x in tables + rows)
    assert all(x != 0 for x in rows)
    integral = all(x.denominator == 1 for plane in d.c_dashv + d.c_vdash
                   for row in plane for x in row)
    assert all(type(x) is int for x in tables + rows) is integral


def rule_rows(d, twisted) -> int:
    """The (product, i, j, r) of the Leibniz-rule system whose terms do not
    all cancel, summed densely from the cubes: c[i][j][l] at T[r][l],
    -c_first[k][j][r] at T[k][i] and -c_second[i][k][r] at T[k][j]."""
    n, total = d.dim, 0
    for c in (d.c_dashv, d.c_vdash):
        c_first = d.c_dashv if twisted else c
        c_second = d.c_vdash if twisted else c
        for i in range(n):
            for j in range(n):
                for r in range(n):
                    row = [0] * (n * n)
                    for k in range(n):
                        row[r * n + k] += c[i][j][k]
                        row[k * n + i] -= c_first[k][j][r]
                        row[k * n + j] -= c_second[i][k][r]
                    total += any(row)
    return total


def operator_entry(d, kind, k, r, s):
    """Entry (r, s) of L_{e_k} or R_{e_k}: e_k * e_s or e_s * e_k, at e_r."""
    side, product = kind
    c = d.c_dashv if product == "dashv" else d.c_vdash
    return c[k][s][r] if side == "left" else c[s][k][r]


def operator_rows(d, conditions) -> int:
    """The (condition, i, r, s) of the operator-route system whose terms do
    not all cancel, summed densely from the cubes: S_k[r][s] at T[k][i],
    -M_i[t][s] at T[r][t] and M_i[r][t] at T[t][s]."""
    n, total = d.dim, 0
    for sub, inside in conditions:
        for i in range(n):
            for r in range(n):
                for s in range(n):
                    row = [0] * (n * n)
                    for k in range(n):
                        row[k * n + i] += operator_entry(d, sub, k, r, s)
                        row[r * n + k] -= operator_entry(d, inside, i, k, s)
                        row[k * n + s] += operator_entry(d, inside, i, r, k)
                    total += any(row)
    return total


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
        assert all(rows), "an empty row reached the kernel"
        sizes.append(len(rows))
        return original(ncols, rows)

    monkeypatch.setattr(spaces, "kernel", counted)
    spaces.derivation_space(d)
    spaces.diderivation_space(d)
    for name, _ in ROUTES:
        getattr(spaces, name)(d)
    expected = [rule_rows(d, False), rule_rows(d, True)]
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


def operator_slots(d, conditions) -> int:
    """The (condition, i, r, s) of the operator-route system with a term
    that summing cannot remove, or a term of S, read densely from the
    cubes: a gap M_i[r][r] - M_i[s][s], an off-diagonal entry of M_i in
    row r or column s, or a nonzero S_k[r][s]."""
    n, total = d.dim, 0

    def matrix(kind, k):
        return [[operator_entry(d, kind, k, r, s) for s in range(n)] for r in range(n)]

    for sub, inside in conditions:
        subs = [matrix(sub, k) for k in range(n)]
        for i in range(n):
            m = matrix(inside, i)
            for r in range(n):
                for s in range(n):
                    total += (m[r][r] != m[s][s]
                              or any(m[r][t] for t in range(n) if t != r)
                              or any(m[t][s] for t in range(n) if t != s)
                              or any(s_k[r][s] for s_k in subs))
    return total


@pytest.mark.parametrize("make", [
    pytest.param(lambda: phi_dialgebra(PHI8[:5]), id="phi5"),
    pytest.param(lambda: phi_dialgebra([Fraction(1, 2), 0, -3]), id="phi3[1/2,0,-3]"),
    pytest.param(lambda: catalog.instantiate("Dias3_13"), id="Dias3_13"),
    pytest.param(lambda: direct_sum(*map(catalog.instantiate, ("Dias3_10", "Dias3_13",
                                                              "Dias2_4"))), id="sum8"),
])
def test_operator_rows_are_formed_only_where_a_term_cannot_cancel_away(make):
    # The commutator part of a slot has one term per unknown, so only a
    # slot with no gap, no off-diagonal entry of M in its row or column and
    # no S term is skipped; a row whose S part cancels the rest comes out
    # empty (the nonempty ones are pinned by the test above).
    d = make()
    for _, conditions in ROUTES:
        assert sum(1 for _ in spaces._operator_rows(d, conditions)) == \
            operator_slots(d, conditions)


def formed_rows(monkeypatch) -> list:
    """The rows ``spaces._operator_rows`` forms in each operator-route
    call, empty ones included."""
    formed = []
    original = spaces._operator_rows

    def counted(d, conditions):
        formed.append(0)
        for row in original(d, conditions):
            formed[-1] += 1
            yield row

    monkeypatch.setattr(spaces, "_operator_rows", counted)
    return formed


@pytest.mark.parametrize("n, formed", [(3, 36), (5, 150), (8, 576), (12, 1872)])
def test_phi_der_operator_routes_skip_the_scalar_conditions(monkeypatch, n, formed):
    # L^vdash and R^dashv of phi are scalar, so their condition forms a row
    # only where S has a term, on the diagonal (n^2 slots); the other
    # condition forms one in each of its n^3 slots.  Each route formed
    # 2n^3 (3,456 at n = 12), and hands the core the same 2n^2 rows.
    d = phi_dialgebra((PHI8 * 2)[:n])
    counts = formed_rows(monkeypatch)
    runs = eliminate_runs(monkeypatch)
    spaces.derivation_space_via_left_ops(d)
    spaces.derivation_space_via_right_ops(d)
    assert counts == [formed] * 2 == [n ** 3 + n ** 2] * 2
    assert runs == [2 * n * n] * 2


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
    assert solves == {"der": 1, "dider": 1, "_operator_route_kernel": 6}
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
    ("der", {"der": 1, "_operator_route_kernel": 2}),
    ("dider", {"dider": 1, "_operator_route_kernel": 1}),
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
    assert run_cli("invariants", "catalog:Dias3_1") == 0
    # the bar-center is solved on its own, as a check on the halo's direction
    assert calls == {
        "annihilator": 1, "bar_center": 1, "halo": 1,
        "left_identity_violations": 1, "right_identity_violations": 1,
        "der": 1, "dider": 1,
    }
    # both Leibniz identities come from one sweep: four brackets per
    # triple of the three-dimensional algebra, not three for each identity
    assert brackets["bilinear"] == 4 * 3 ** 3


def test_leibniz_sweep_evaluates_the_shared_brackets_once(monkeypatch):
    leib = invariants.LeibnizAlgebra(catalog.instantiate("Dias3_1"))
    right, left = leib.right_identity_violations(), leib.left_identity_violations()
    assert not right and left
    calls = Counter()
    counting(monkeypatch, invariants, "bilinear", calls)
    n = leib.dim
    # [[x,y],z] and [x,[y,z]] once per triple, then one bracket per identity
    assert invariants._violations(leib.table, False) == \
        {"right": right, "left": left}
    assert calls["bilinear"] == 4 * n ** 3
    # each side stops at its first violation; the right one has none
    assert invariants._violations(leib.table, True) == \
        {"right": [], "left": left[:1]}


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

    # another bound replaces it
    assert kxy.check_axioms_truncated(6)["violations"] == []
    assert kxy.check_axioms_truncated(8)["violations"] == []
    assert calls == {("dashv", "_build_product_table"): math.comb(10, 4) + pairs,
                     ("vdash", "_build_product_table"): math.comb(10, 4) + pairs}


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
    # the parser of the subcommand argv names, alone
    (["verify", "catalog:Dias3_8", "--machine"], 1),
    (["spaces", "catalog:Dias2_1", "--which", "der"], 1),
    (["invariants", "catalog:Dias2_1"], 1),
    (["bider", "catalog:Dias2_1"], 1),
    (["catalog", "Dias2_1", "--samples", "1"], 1),
    (["kxy", "--bound", "4"], 1),
    # names no subcommand, so the help or the error lists all six: the
    # top-level parser and the six of the subcommands
    (["--help"], 7),
    ([], 7),
    (["nosuch", "X"], 7),
    (["--machine", "verify", "X"], 7),
])
def test_cli_call_builds_the_parsers_it_uses(monkeypatch, argv, parsers):
    calls = Counter()
    counting(monkeypatch, argparse.ArgumentParser, "__init__", calls)
    with contextlib.suppress(SystemExit):
        run_cli(*argv)
    assert calls["__init__"] == parsers
