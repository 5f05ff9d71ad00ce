"""The row builders of both solver routes, row by row, against rows summed
densely from the structure-constant cubes.

``spaces._rule_rows`` and ``spaces._operator_rows`` write most entries of
a row by plain assignment and sum terms only where two of them share an
unknown.  Each must yield, in slot order, exactly the slots whose dense
row is nonzero: a slot whose dense row has one nonzero entry as the
column number of that entry, every other slot as its row; nothing here
is read from ``spaces`` but the builders under test.
"""

from fractions import Fraction

import pytest

from diaskit import catalog, spaces
from diaskit.core import Dialgebra, phi_dialgebra

from test_call_counts import (
    ROUTES, RULE_TRIPLES, cubes, operator_entry, operator_slot_rows, rule_slot_rows,
)
from test_ratlin import direct_sum

PHI8 = [1, -1, 2, -2, 3, -3, 1, -1]
# The bracket [e_0, e_1] = e_1 of the non-abelian Lie algebra of dimension 2,
# taken as both products.  It is no dialgebra, but the builders take any
# cubes, and being antisymmetric it makes whole overlapping slots cancel.
LIE2 = [[[0, 0], [0, 1]], [[0, -1], [0, 0]]]
DIAS3_16_POINT = dict(zip("kmnpq", (Fraction(1, 2), Fraction(-2, 3), 3, Fraction(5, 4), -1)))
CASES = [
    pytest.param(lambda: phi_dialgebra(PHI8[:5]), id="phi5"),
    pytest.param(lambda: phi_dialgebra([Fraction(1, 2), 0, -3]), id="phi3[1/2,0,-3]"),
    pytest.param(lambda: catalog.instantiate("Dias3_13"), id="Dias3_13"),
    pytest.param(lambda: catalog.instantiate("Dias3_16", DIAS3_16_POINT),
                 id="Dias3_16[1/2,-2/3,3,5/4,-1]"),
    pytest.param(lambda: direct_sum(*map(catalog.instantiate, ("Dias3_10", "Dias3_13",
                                                              "Dias2_4"))), id="sum8"),
]
WITH_LIE2 = CASES + [pytest.param(lambda: Dialgebra(2, LIE2, LIE2), id="lie2")]


def handed_over(row):
    """A nonzero dense slot row as a builder yields it: the column of its
    one entry, or the row itself when it has more."""
    if len(row) == 1:
        [column] = row
        return column
    return row


def assert_builder_yields(built, oracle):
    """``built`` is exactly the nonzero oracle rows, in order, each with
    one entry as that entry's column, an ``int``, and each other one with
    every entry an ``int`` when integral and a ``Fraction`` when not."""
    built = list(built)
    assert built == [handed_over(row) for _, row in oracle if row]
    columns = [row for row in built if type(row) is int]
    rows = [row for row in built if type(row) is dict]
    assert len(columns) + len(rows) == len(built)
    assert all(len(row) > 1 for row in rows)
    assert all(type(x) is (int if x.denominator == 1 else Fraction)
               for row in rows for x in row.values())


@pytest.mark.parametrize("rule", ["der", "dider"])
@pytest.mark.parametrize("make", WITH_LIE2)
def test_rule_rows_are_the_nonzero_dense_slots(make, rule):
    d = make()
    assert_builder_yields(spaces._rule_rows(d, rule), rule_slot_rows(d, rule))


@pytest.mark.parametrize("route", [name for name, _ in ROUTES])
@pytest.mark.parametrize("make", WITH_LIE2)
def test_operator_rows_are_the_nonzero_dense_slots(make, route):
    d = make()
    conditions = dict(ROUTES)[route]
    assert_builder_yields(spaces._operator_rows(d, conditions),
                          operator_slot_rows(d, conditions))


@pytest.mark.parametrize("make", CASES)
def test_the_cases_reach_the_overlapping_slots(make):
    # The slots i = j of the rule systems, where the o1 and o2 terms share
    # each T[k][i], and s = i of the operator conditions, where the S terms
    # share T[k][i] with M's row r, have nonzero rows in every case above.
    d = make()
    for rule in RULE_TRIPLES:
        assert any(row for (i, j, _), row in rule_slot_rows(d, rule) if i == j)
    for _, conditions in ROUTES:
        assert any(row for (i, _, s), row in operator_slot_rows(d, conditions) if s == i)


def test_overlapping_slots_whose_terms_cancel_form_no_row():
    # Slot (i, i, r) = (1, 1, 1) of the Der system meets -c[0][1][1] from o1
    # and -c[1][0][1] from o2 at T[0][1], and nothing else; slot (i, r, s) =
    # (1, 1, 1) of the left route meets S_0[1][1] and M_1[1][0] there.  Both
    # sum to zero, so neither builder yields a row for them (the tests above
    # check that it yields every nonzero row), though both have terms.
    d = Dialgebra(2, LIE2, LIE2)
    c = d.c_dashv
    assert c[0][1][1] == -c[1][0][1] != 0
    assert dict(rule_slot_rows(d, "der"))[1, 1, 1] == {}
    left = dict(ROUTES)["derivation_space_via_left_ops"]
    c = cubes(d)
    assert operator_entry(c, left[0][0], 0, 1, 1) == -operator_entry(c, left[0][1], 1, 1, 0) != 0
    assert dict(operator_slot_rows(d, left[:1]))[1, 1, 1] == {}
