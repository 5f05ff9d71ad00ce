"""The published two- and three-dimensional dialgebra classification table.

Holds one entry per printed class of the two- and three-dimensional tables,
including the parametric families (``Dias2_3`` with one parameter,
``Dias3_16``/``Dias3_17`` with five).  The entries are not pairwise distinct
classes: Dias3_17 is Dias3_16 with k renamed l, and the repaired readings of
Dias3_2, Dias3_3 and Dias3_15, of Dias3_7 and Dias3_12, and of Dias3_9 and
Dias3_11 are isomorphic.  For each entry the module records

* the structure relations used to instantiate an axiom-valid ``Dialgebra``,
  declared as a table in which each coefficient is an exact number or the
  name of one of the entry's parameters; ``instantiate`` substitutes the
  given values and calls ``Dialgebra.from_relations``,
* the relation list exactly as printed in the source table (several printed
  lists are garbled or axiom-inconsistent; those entries carry a repair note).

Dias3_9 and Dias3_11 print the same list, so the two entries share one
declaration of it and of its relation table.

Entries are reached by name: ``ENTRY_NAMES`` lists them in table order,
``get_entry`` returns the record of one and ``instantiate`` builds it.  An
entry's parameters are its ``param_names``, empty for a fixed entry.
Dias3_16's parameter order is ``DIAS3_16_PARAMS``.  The tabled
diderivation spaces and the Dias3_16 case analysis are in ``catalog``;
this module needs only ``core`` and ``ratlin``, so building an entry
loads no solver.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Mapping
from fractions import Fraction

from .core import Dialgebra, DialgebraError
from .ratlin import frac

Params = Mapping[str, Fraction]
Relations = dict[tuple[str, int, int], list[tuple[int, Fraction | str]]]

ONE = Fraction(1)

# The parameter order of Dias3_16: its ``param_names``, the order of every
# (k, m, n, p, q) point and of the arguments of ``catalog.branch_for_params``.
DIAS3_16_PARAMS = ("k", "m", "n", "p", "q")


def _rel(*items: tuple[str, int, int, object]) -> Relations:
    """Assemble a relation dict from (product, i, j, value) items.

    ``value`` is either a single 1-based basis index (coefficient 1) or a
    list of (index, coefficient) pairs, a coefficient being a number or a
    parameter name.
    """
    out: Relations = {}
    for product, i, j, value in items:
        if isinstance(value, int):
            terms = [(value, ONE)]
        else:
            terms = [(k, c if isinstance(c, str) else frac(c)) for k, c in value]
        out[(product, i, j)] = terms
    return out


# ---------------------------------------------------------------------------
# Entry records


class CatalogEntry(namedtuple("CatalogEntry",
                              "name dim param_names relations printed note",
                              defaults=("",))):
    """One printed class: its relation table, whose coefficients name the
    entry's ``param_names`` where the printed list has a parameter."""

    __slots__ = ()


def _both(*items: tuple[int, int, object]) -> list[tuple[str, int, int, object]]:
    """The same relation list on both products."""
    out = []
    for i, j, value in items:
        out.append(("dashv", i, j, value))
        out.append(("vdash", i, j, value))
    return out


def _dias3_16(first: str) -> Relations:
    """The Dias3_16 table with its first parameter named ``first``: "k" for
    Dias3_16, "l" for Dias3_17."""
    return _rel(
        ("dashv", 1, 3, 2),
        ("dashv", 3, 1, [(2, first)]),
        ("vdash", 1, 1, [(2, "m")]),
        ("vdash", 1, 3, [(2, "n")]),
        ("vdash", 3, 1, [(2, "p")]),
        ("vdash", 3, 3, [(2, "q")]),
    )


_REPAIR_NOTE = (
    "printed relation list is not axiom-consistent; instantiation uses the "
    "nearest axiom-valid reading (see printed relations for the original)"
)
_LAYOUT_NOTE = (
    "printed table row collapses the two product columns; instantiation "
    "redistributes the relations so the axioms hold"
)

# Dias3_9 and Dias3_11 print one relation list, and both entries read
# this one declaration of it and of its repaired table.
_DIAS3_9_11 = (
    _rel(("dashv", 2, 3, 2), ("dashv", 3, 1, 1), ("dashv", 3, 3, 3),
         ("vdash", 3, 1, 1), ("vdash", 3, 2, 2), ("vdash", 3, 3, 3)),
    ("e3 |- e1 = e1", "e3 |- e2 = e2", "e3 |- e3 = e3"),
)

_ENTRIES: list[CatalogEntry] = [
    CatalogEntry(
        "Dias2_1", 2, (),
        _rel(("vdash", 1, 1, 1), ("dashv", 1, 1, 1), ("dashv", 2, 1, 2)),
        ("e1 |- e = e1", "e1 -| e1 = e1", "e2 -| e1 = e2"),
        "printed left factor 'e' read as e1",
    ),
    CatalogEntry(
        "Dias2_2", 2, (),
        _rel(("vdash", 1, 1, 1), ("dashv", 1, 1, 1), ("vdash", 1, 2, 2)),
        ("e1 |- e1 = e1", "e1 -| e1 = e1", "e1 -| e2 = e2"),
        _REPAIR_NOTE,
    ),
    CatalogEntry(
        "Dias2_3", 2, ("lam",),
        _rel(("vdash", 1, 1, 2), ("dashv", 1, 1, [(2, "lam")])),
        ("e1 |- e1 = e2", "e1 -| e1 = lam e2"),
    ),
    CatalogEntry(
        "Dias2_4", 2, (),
        _rel(("vdash", 1, 1, 1), ("dashv", 1, 1, 1),
             ("vdash", 1, 2, 2), ("dashv", 2, 1, 2)),
        ("e1 |- e1 = e1", "e1 -| e1 = e1", "e1 |- e2 = e2", "e2 -| e1 = e2"),
    ),
    CatalogEntry(
        "Dias3_1", 3, (),
        _rel(("dashv", 1, 2, 1), ("dashv", 2, 2, 2), ("dashv", 3, 3, 3),
             ("vdash", 2, 2, 2), ("vdash", 3, 3, 3)),
        ("e1 |- e2 = e1", "e2 |- e2 = e2", "e3 |- e3 = e3",
         "e2 -| e2 = e2", "e3 -| e3 = e3"),
        _REPAIR_NOTE,
    ),
    CatalogEntry(
        "Dias3_2", 3, (),
        _rel(("dashv", 1, 2, 1), ("dashv", 2, 2, 2), ("dashv", 3, 3, 3),
             ("vdash", 2, 1, 1), ("vdash", 2, 2, 2), ("vdash", 3, 3, 3)),
        ("e1 |- e2 = e1", "e2 |- e2 = e2", "e3 |- e3 = e3",
         "e2 -| e1 = e1", "e2 -| e2 = e2", "e3 -| e3 = e3"),
        _REPAIR_NOTE,
    ),
    CatalogEntry(
        "Dias3_3", 3, (),
        _rel(("dashv", 1, 3, 1), ("dashv", 2, 2, 2), ("dashv", 3, 3, 3),
             ("vdash", 2, 2, 2), ("vdash", 3, 1, 1), ("vdash", 3, 3, 3)),
        ("e1 |- e2 = e1", "e2 |- e2 = e2", "e3 |- e3 = e3",
         "e2 -| e2 = e2", "e3 |- e1 = e1", "e3 -| e3 = e3"),
        _REPAIR_NOTE,
    ),
    CatalogEntry(
        "Dias3_4", 3, (),
        _rel(*_both((1, 1, 2), (1, 2, 2), (1, 3, 2), (2, 1, 2), (2, 2, 2),
                    (2, 3, 2), (3, 1, 2), (3, 2, 2), (3, 3, 3))),
        ("e1 |- e3 = e2", "e2 |- e3 = e2", "e3 |- e3 = e3", "e3 -| e3 = e3"),
        _REPAIR_NOTE,
    ),
    CatalogEntry(
        "Dias3_5", 3, (),
        _rel(*_both((1, 1, 2), (1, 2, 2), (2, 1, 2), (2, 2, 2),
                    (1, 3, [(1, 1), (2, -1)]), (3, 1, [(1, 1), (2, -1)]),
                    (3, 3, 3))),
        ("e1 |- e3 = e2", "e2 |- e3 = e2", "e3 |- e3 = e3",
         "e3 |- e1 = e1 - e2", "e3 -| e3 = e3"),
        _REPAIR_NOTE,
    ),
    CatalogEntry(
        "Dias3_6", 3, (),
        _rel(("dashv", 1, 3, 1), ("dashv", 2, 3, 2), ("dashv", 3, 3, 3),
             ("vdash", 3, 1, 1), ("vdash", 3, 2, 2), ("vdash", 3, 3, 3)),
        ("e1 |- e3 = e2", "e2 |- e3 = e2", "e3 |- e3 = e3",
         "e3 |- e1 = e1", "e3 |- e2 = e2", "e3 -| e3 = e3"),
        _LAYOUT_NOTE,
    ),
    CatalogEntry(
        "Dias3_7", 3, (),
        _rel(("dashv", 1, 3, 2), ("dashv", 2, 3, 2), ("dashv", 3, 3, 3),
             ("vdash", 3, 1, 2), ("vdash", 3, 2, 2), ("vdash", 3, 3, 3)),
        ("e1 |- e3 = e2", "e2 |- e3 = e2", "e3 |- e3 = e3",
         "e3 |- e1 = e2", "e3 |- e2 = e2", "e3 -| e3 = e3"),
        _LAYOUT_NOTE,
    ),
    CatalogEntry(
        "Dias3_8", 3, (),
        _rel(("dashv", 2, 3, 2), ("dashv", 3, 3, 3),
             ("vdash", 3, 1, 1), ("vdash", 3, 2, 2), ("vdash", 3, 3, 3)),
        ("e1 |- e3 = e2", "e1 |- e3 = e2", "e2 |- e3 = e2", "e3 |- e3 = e3",
         "e3 |- e1 = e1 - e2", "e3 -| e3 = e3"),
        _REPAIR_NOTE,
    ),
    CatalogEntry(
        "Dias3_9", 3, (), *_DIAS3_9_11,
        _REPAIR_NOTE + "; printed list identical to Dias3_11",
    ),
    CatalogEntry(
        "Dias3_10", 3, (),
        _rel(("dashv", 1, 3, 1), ("dashv", 2, 3, 2), ("dashv", 3, 3, 3),
             ("vdash", 1, 3, 1), ("vdash", 3, 2, 2), ("vdash", 3, 3, 3)),
        ("e3 |- e1 = e1", "e3 |- e3 = e3"),
        _REPAIR_NOTE,
    ),
    CatalogEntry(
        "Dias3_11", 3, (), *_DIAS3_9_11,
        _REPAIR_NOTE + "; printed list identical to Dias3_9",
    ),
    CatalogEntry(
        "Dias3_12", 3, (),
        _rel(("dashv", 2, 3, 2), ("dashv", 3, 3, 3),
             ("vdash", 3, 2, 2), ("vdash", 3, 3, 3)),
        ("e1 |- e3 = e1", "e2 |- e3 = e2", "e3 |- e1 = e1", "e3 |- e3 = e3"),
        _REPAIR_NOTE,
    ),
    CatalogEntry(
        "Dias3_13", 3, (),
        _rel(("dashv", 1, 3, 1), ("dashv", 2, 3, 2), ("dashv", 3, 1, 1),
             ("dashv", 3, 3, 3),
             ("vdash", 1, 3, 1), ("vdash", 3, 1, 1), ("vdash", 3, 2, 2),
             ("vdash", 3, 3, 3)),
        ("e1 |- e3 = e1", "e2 |- e3 = e2", "e3 |- e1 = e1", "e3 |- e2 = e2",
         "e3 |- e3 = e3"),
        _LAYOUT_NOTE,
    ),
    CatalogEntry(
        "Dias3_14", 3, (),
        _rel(("dashv", 1, 3, 1), ("dashv", 2, 3, 2), ("dashv", 3, 1, 1),
             ("dashv", 3, 3, 3),
             ("vdash", 1, 3, [(1, 1), (2, 1)]), ("vdash", 3, 1, 1),
             ("vdash", 3, 2, 2), ("vdash", 3, 3, 3)),
        ("e1 |- e3 = e1 + e2", "e3 |- e1 = e1", "e3 |- e2 = e2",
         "e3 |- e3 = e3"),
        _LAYOUT_NOTE,
    ),
    CatalogEntry(
        "Dias3_15", 3, (),
        _rel(("dashv", 1, 1, 2), ("dashv", 1, 2, 2), ("dashv", 2, 1, 2),
             ("dashv", 2, 2, 2), ("dashv", 1, 3, [(1, 1), (2, -1)]),
             ("dashv", 3, 3, 3),
             ("vdash", 1, 1, 2), ("vdash", 1, 2, 2), ("vdash", 2, 1, 2),
             ("vdash", 2, 2, 2), ("vdash", 3, 1, [(1, 1), (2, -1)]),
             ("vdash", 3, 3, 3)),
        ("e1 |- e1 = e2", "e3 |- e3 = e3"),
        _REPAIR_NOTE,
    ),
    CatalogEntry(
        "Dias3_16", 3, DIAS3_16_PARAMS, _dias3_16("k"),
        ("e1 -| e3 = e2", "e3 |- e1 = k e2", "e1 -| e1 = m e2",
         "e1 |- e3 = n e2", "e3 -| e1 = p e2", "e3 |- e3 = q e2"),
        "printed product glyphs are inconsistent with the companion case "
        "analysis; instantiation follows the operator data of that analysis",
    ),
    CatalogEntry(
        "Dias3_17", 3, ("l",) + DIAS3_16_PARAMS[1:], _dias3_16("l"),
        ("e1 -| e3 = e2", "e3 |- e1 = l e2", "e1 -| e1 = m e2",
         "e1 |- e3 = n e2", "e3 -| e1 = p e2", "e3 |- e3 = q e2"),
        "same relation list as Dias3_16 up to the parameter letter",
    ),
]

_BY_NAME = {e.name: e for e in _ENTRIES}

ENTRY_NAMES = tuple(e.name for e in _ENTRIES)


def get_entry(name: str) -> CatalogEntry:
    try:
        return _BY_NAME[name]
    except KeyError:
        raise DialgebraError(f"unknown catalog entry: {name!r}") from None


def _coerce_params(entry: CatalogEntry, params: Params | None) -> dict[str, Fraction]:
    given = dict(params or {})
    out: dict[str, Fraction] = {}
    for pname in entry.param_names:
        if pname not in given:
            raise DialgebraError(
                f"missing parameter {pname!r} for {entry.name}")
        out[pname] = frac(given.pop(pname))
    if given:
        extra = ", ".join(sorted(given))
        raise DialgebraError(f"unknown parameter(s) for {entry.name}: {extra}")
    return out


def instantiate(name: str, params: Params | None = None) -> Dialgebra:
    """Build the named catalog dialgebra at the given rational parameters:
    its relation table with each parameter name replaced by its value.  A
    fixed entry's table has no name to replace and goes in unchanged."""
    entry = get_entry(name)
    values = _coerce_params(entry, params)
    if not entry.param_names:
        return Dialgebra.from_relations(entry.dim, entry.relations)
    return Dialgebra.from_relations(entry.dim, {
        key: [(k, values[c] if isinstance(c, str) else c) for k, c in terms]
        for key, terms in entry.relations.items()})

