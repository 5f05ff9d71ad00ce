"""Derivation and diderivation spaces of a dialgebra.

Both are Leibniz-type rules ``T(a * b) = T(a) o1 b + a o2 T(b)``, one
identity per product ``*``, and ``core.RULES`` holds each rule's
``(*, o1, o2)`` triples: a derivation takes ``o1 = o2 = *``, a
diderivation ``o1 = dashv`` and ``o2 = vdash`` for both products.  A rule
is linear in the matrix of the map, so its space is the kernel of an
explicit constraint system over the rationals, and ``rule_holds``
evaluates the rule on one operator.  The primary solvers below build
that system straight from the defining identity on basis pairs, and each
rule is solved once per dialgebra:
the first ``derivation_space`` or ``diderivation_space`` call on a
``Dialgebra`` keeps its kernel on that instance, and every later call,
so every check built on them, gets the same read-only ``Subspace``.  A
second, independent route phrases the same conditions as commutator
identities between multiplication operators; agreement of the two routes
is part of the verification surface, so the operator route never reuses
the defining-identity rows or kernels, and it is not memoised: every call
solves its system again.  Both routes read
the dialgebra's sparse structure-constant tables (``Dialgebra.table``),
which are built once and never written: the operator route takes the
entries of each basis operator straight off them.  Each operator set is
read once per condition, when the route reaches that condition: a Der
condition, whose S and M are one set, reads one, a Dider condition two.
Integral constants are
``int`` there and both routes keep them that way: integer structure
constants give integer rows.  A route forms a row only for a slot whose
summed row is nonzero, and hands the elimination core (``kernel``) just
those rows.  Each builder splits a slot's terms by unknown.  In slot
(i, j, r) of the rule system with i != j, the terms of ``T(e_i * e_j)``
meet the others only at T[r][i] and T[r][j]; in slot (i, r, s) of an
operator condition with s != i, the commutator's terms never share an
unknown and the S part meets them only at T[r][i].  Those few entries
are summed as numbers, every other entry is assigned, and a slot with
nothing left to write is skipped before any row is built.  Whole lists
of terms share unknowns only in the slots i = j and s = i; only there
are entries summed in the row, which is dropped if it comes out empty.
On ``phi_dialgebra`` every slot of the Der systems has a term, but only
2n^2 of the 2n^3 keep one (288 of 3,456 at n = 12), and each Der route
forms just those 2n^2 rows.  Rows equal up to a scalar are all formed:
skipping them by a normalised key made the Dider solve of phi at n = 12
over twice as slow.  The core skips the repeats it finds before any
arithmetic (``ratlin._eliminate`` states which).  Both routes yield their
rows one at a time, and each solver hands them straight to ``kernel``,
so the rows after the core stops are never built.  The closure report
brackets operators as sparse rows, through ``ratlin.commutator``; the
inner operators ``R_{e_i} - L_{e_i}`` are formed as sparse rows too, from
``Dialgebra.basis_ops``; their spans are read off the elimination core
by ``ratlin.span``; ``inner_derivations`` and ``inner_diderivations``
are those spans, Inn and DInn, and the one way to reach the inner
operators.  No solver or check here makes a row dense or builds a
``Subspace`` from dense vectors: a ``Matrix`` is built only to be
returned, by ``subspace_matrices``.

Operators are stored column-style: column ``j`` of the matrix of ``T``
holds the coordinates of ``T(e_j)``.  Flattening is row-major, matching
``Matrix.flatten``.
"""

from __future__ import annotations

from collections.abc import Iterator, Sequence

from .core import RULES, Dialgebra
from .ratlin import (
    Exact, Matrix, Row, Subspace, bilinear, commutator, columns, int_or_fraction, kernel, lincomb,
    span,
)


def subspace_matrices(space: Subspace, n: int) -> list[Matrix]:
    """Canonical basis of an operator subspace, as matrices."""
    if space.ambient_dim != n * n:
        raise ValueError("subspace is not a space of n-by-n operators")
    return [Matrix.from_flat(b, n, n) for b in space.basis]


# -- defining-identity solvers ------------------------------------------


def _add(row: Row, key: int, value: Exact) -> None:
    """``row[key] += value`` for a nonzero value, a sum of ``Fraction``
    kept as an ``int`` when integral; a sum of zero removes the key."""
    y = row.get(key)
    if y is not None:
        value += y
        if not value:
            del row[key]
            return
        if type(value) is not int:
            value = int_or_fraction(value)
    row[key] = value


# The split terms of a slot that has none: no entry at k = r, none off it.
_NO_TERMS = (0, ())


def _split(n: int, planes: Sequence[Sequence[Row]]) -> list[list]:
    """The entries ``-planes[j][k][r]`` of the o1 or o2 terms of a rule
    system, split by whether k = r: ``at[j][r]`` is None where all are
    zero, and otherwise ``[entry at k = r (or 0), list of the nonzero
    (k*n, entry) for k != r, by k]``."""
    at = [[None] * n for _ in range(n)]
    for j, plane in enumerate(planes):
        at_j = at[j]
        for k, terms in enumerate(plane):
            for r, x in terms.items():
                part = at_j[r]
                if part is None:
                    part = at_j[r] = [0, []]
                if r == k:
                    part[0] = -x
                else:
                    part[1].append((k * n, -x))
    return at


def _rule_rows(d: Dialgebra, rule: str) -> Iterator[Row]:
    """The rows of the system of ``RULES[rule]``: for each ``(*, o1, o2)``
    and basis pair, ``T(e_i * e_j) - T(e_i) o1 e_j - e_i o2 T(e_j) = 0``,
    one per slot (product, i, j, r) whose row is nonzero, in that order.
    Unknown T[a][b] sits at flat index a*n + b.  Rows are built sparse,
    from the nonzero structure constants only.

    Slot r of (i, j) holds ``sum_l c[i][j][l] T[r][l]``, ``-sum_k
    c_o1[k][j][r] T[k][i]`` and ``-sum_k c_o2[i][k][r] T[k][j]``.  For
    i != j the c-term meets the o1 terms only at T[r][i] (k = r) and the
    o2 terms only at T[r][j], and every other term has an unknown of its
    own: those two entries are summed first, a slot with nothing to write
    is skipped, and the row is written by plain assignment.  For i = j the
    o1 and o2 terms also share each T[k][i]; only there are entries summed
    in the row, which is dropped if they all cancel.
    """
    n = d.dim
    # the o1 terms of slot (i, j, r) are -c_o1[k][j][r], the o2 terms -c_o2[i][k][r];
    # both products of Dider share them
    firsts = {o1: _split(n, list(zip(*d.table(o1)))) for o1 in {t[1] for t in RULES[rule]}}
    seconds = {o2: _split(n, d.table(o2)) for o2 in {t[2] for t in RULES[rule]}}
    for product, o1, o2 in RULES[rule]:
        c, first, second = d.table(product), firsts[o1], seconds[o2]
        for i in range(n):
            s_at = second[i]
            for j in range(n):
                f_at, cij = first[j], c[i][j]
                c_i, c_j = cij.get(i, 0), cij.get(j, 0) if i != j else 0
                c_off = [(l, x) for l, x in cij.items() if l != i and l != j] if cij else ()
                same = i == j
                for r in range(n) if cij else [  # the slots with a term
                        r for r in range(n) if f_at[r] or s_at[r]]:
                    f_rr, f_off = f_at[r] or _NO_TERMS
                    s_rr, s_off = s_at[r] or _NO_TERMS
                    # the summed entries at T[r][i] and T[r][j], one entry if i = j
                    a, b = c_i + f_rr, c_j + s_rr
                    if same:
                        a, b = a + b, 0
                    if not (c_off or a or b or f_off or s_off):
                        continue
                    rn = r * n
                    row: Row = {}
                    for l, x in c_off:
                        row[rn + l] = x
                    if a:
                        row[rn + i] = a if type(a) is int else int_or_fraction(a)
                    if b:
                        row[rn + j] = b if type(b) is int else int_or_fraction(b)
                    for kn, x in f_off:
                        row[kn + i] = x
                    if not same:
                        for kn, x in s_off:
                            row[kn + j] = x
                    else:  # the o1 and o2 terms share each T[k][i], and may cancel
                        for kn, x in s_off:
                            _add(row, kn + j, x)
                        if not row:
                            continue
                    yield row


def rule_holds(d: Dialgebra, rule: str, op: Row) -> bool:
    """Whether the operator T, a sparse row over r*n + c, obeys
    ``RULES[rule]`` on every basis pair: ``T(e_i * e_j)`` equals
    ``T(e_i) o1 e_j + e_i o2 T(e_j)`` for each ``(*, o1, o2)``.  The images
    are the columns of T; no constraint row is formed."""
    n = d.dim
    cols = columns(n, op)
    unit = [{i: 1} for i in range(n)]
    return all(
        lincomb((x, cols[k]) for k, x in d.table(product)[i][j].items())
        == lincomb(((1, bilinear(d.table(o1), cols[i], unit[j])),
                    (1, bilinear(d.table(o2), unit[i], cols[j]))))
        for product, o1, o2 in RULES[rule] for i in range(n) for j in range(n))


def _solved(d: Dialgebra, rule: str) -> Subspace:
    """The kernel of ``rule`` ("der" or "dider") on d, solved on the first
    call and kept on d."""
    space = d._spaces.get(rule)
    if space is None:
        space = d._spaces[rule] = kernel(d.dim ** 2, _rule_rows(d, rule))
    return space


def derivation_space(d: Dialgebra) -> Subspace:
    """All derivations, as a subspace of Q^(n*n).

    Solved once per dialgebra: every call on the same ``d`` returns the
    same ``Subspace``, shared read-only.  The operator routes
    (``derivation_space_via_left_ops``/``_right_ops``) never read it."""
    return _solved(d, "der")


def diderivation_space(d: Dialgebra) -> Subspace:
    """All diderivations, as a subspace of Q^(n*n).

    Solved once per dialgebra: every call on the same ``d`` returns the
    same ``Subspace``, shared read-only.  The operator route
    (``diderivation_space_via_ops``) never reads it."""
    return _solved(d, "dider")


# -- inner operators ----------------------------------------------------


def _inner_ops(d: Dialgebra, right: str, left: str) -> list[Row]:
    """``R^right_{e_i} - L^left_{e_i}`` for each i, as sparse rows."""
    return [lincomb(((1, r), (-1, l)))
            for r, l in zip(d.basis_ops("right", right), d.basis_ops("left", left))]


def inner_derivations(d: Dialgebra) -> Subspace:
    """Inn, the span of the inner derivations
    ``ad_a = (x -> x dashv a - a vdash x)``."""
    return span(d.dim ** 2, _inner_ops(d, "dashv", "vdash"))


def inner_diderivations(d: Dialgebra) -> Subspace:
    """DInn, the span of the inner diderivations
    ``Ad_a = (x -> x vdash a - a dashv x)``."""
    return span(d.dim ** 2, _inner_ops(d, "vdash", "dashv"))


# -- operator-commutator route ------------------------------------------


def _operator_rows(
    d: Dialgebra,
    conditions: Sequence[tuple[tuple[str, str], tuple[str, str]]],
) -> Iterator[Row]:
    """The rows of stacked conditions ``S_{T(e_i)} = [T, M_{e_i}]`` for all
    i, one per slot (condition, i, r, s) whose row is nonzero, in that order.

    Each condition is a pair of (side, product) operator kinds, as
    ``Dialgebra.basis_ops`` takes them: ``S`` is the operator on the left of
    the equation, extended linearly to ``T(e_i)``, and ``M`` sits inside
    the commutator.  Slot (r, s) holds ``sum_k S_k[r][s] T[k][i]`` and

        -[T, M](r, s) = (M[r][r] - M[s][s]) T[r][s]
                        - sum_{t != s} M[t][s] T[r][t] + sum_{t != r} M[r][t] T[t][s],

    whose terms each have an unknown of their own.  For s != i the S part
    meets them only at T[r][i] (k = r against t = i): that entry is summed
    first, a slot with nothing to write is skipped, and the row is written
    by plain assignment.  For s = i the S part also shares each T[k][i]
    with the terms of M's row r; only there are entries summed in the row,
    which is dropped if they all cancel.
    """
    n = d.dim
    for subscript, inside in conditions:
        # sub_at[r][s]: None where every S_k[r][s] is 0, else [S_r[r][s] (or 0),
        # the nonzero (k*n, S_k[r][s]) for k != r]
        sub_at = [[None] * n for _ in range(n)]
        sub_ops = d.basis_ops(*subscript)
        for k, op in enumerate(sub_ops):
            for j, x in op.items():
                r, s = divmod(j, n)
                part = sub_at[r][s]
                if part is None:
                    part = sub_at[r][s] = [0, []]
                if r == k:
                    part[0] = x
                else:
                    part[1].append((k * n, x))
        sub_slots = [[s for s, part in enumerate(at) if part] for at in sub_at]
        for i, op in enumerate(sub_ops if inside == subscript else d.basis_ops(*inside)):
            # off_row[r]: the (t*n, M[r][t]); col_i[s] = -M[i][s]; off_col[s]: the
            # (t, -M[t][s]) for t != i; t off the diagonal
            diag, col_i = [0] * n, [0] * n
            off_row, off_col = [[] for _ in range(n)], [[] for _ in range(n)]
            for j, x in op.items():
                r, t = divmod(j, n)
                if r == t:
                    diag[r] = x
                else:
                    off_row[r].append((t * n, x))
                    if r == i:
                        col_i[t] = -x
                    else:
                        off_col[t].append((r, -x))
            # a scalar M has no commutator part: only the slots with an S term
            scalar = diag.count(diag[0]) == n and not any(off_row)
            for r in range(n):
                m_rr, s_at, row_r, rn = diag[r], sub_at[r], off_row[r], r * n
                for s in sub_slots[r] if scalar else range(n):
                    s_rr, s_off = s_at[s] or _NO_TERMS
                    # the summed entries at T[r][s] and T[r][i], one entry if s = i
                    gap, a = m_rr - diag[s], col_i[s] + s_rr
                    if s == i:
                        gap, a = 0, a + gap
                    if not (gap or a or off_col[s] or row_r or s_off):
                        continue
                    row: Row = {}
                    if gap:
                        row[rn + s] = gap if type(gap) is int else int_or_fraction(gap)
                    if a:
                        row[rn + i] = a if type(a) is int else int_or_fraction(a)
                    for t, v in off_col[s]:
                        row[rn + t] = v
                    for tn, w in row_r:
                        row[tn + s] = w
                    if s != i:
                        for kn, v in s_off:
                            row[kn + i] = v
                    else:  # the S terms share each T[k][i] with M's row r, and may cancel
                        for kn, v in s_off:
                            _add(row, kn + i, v)
                        if not row:
                            continue
                    yield row


def derivation_space_via_left_ops(d: Dialgebra) -> Subspace:
    """Derivations characterised by ``L_{T(a)} = [T, L_a]`` per product."""
    return kernel(d.dim ** 2, _operator_rows(
        d, [(("left", "dashv"), ("left", "dashv")), (("left", "vdash"), ("left", "vdash"))]))


def derivation_space_via_right_ops(d: Dialgebra) -> Subspace:
    """Derivations characterised by ``R_{T(a)} = [T, R_a]`` per product."""
    return kernel(d.dim ** 2, _operator_rows(
        d, [(("right", "dashv"), ("right", "dashv")), (("right", "vdash"), ("right", "vdash"))]))


def diderivation_space_via_ops(d: Dialgebra) -> Subspace:
    """Diderivations characterised by the mixed commutator pair.

    ``L^dashv_{delta(a)} = [delta, L^vdash_a]`` encodes the vdash rule
    and ``R^vdash_{delta(a)} = [delta, R^dashv_a]`` the dashv rule;
    stacking both recovers the full diderivation condition.
    """
    return kernel(d.dim ** 2, _operator_rows(
        d, [(("left", "dashv"), ("left", "vdash")), (("right", "vdash"), ("right", "dashv"))]))


def check_characterizations(d: Dialgebra) -> dict:
    """Compare the defining-identity kernels with the operator kernels."""
    der = derivation_space(d)
    der_left = derivation_space_via_left_ops(d)
    der_right = derivation_space_via_right_ops(d)
    dider = diderivation_space(d)
    dider_ops = diderivation_space_via_ops(d)
    return {
        "derivations": {
            "dim": der.dim,
            "left_route_dim": der_left.dim,
            "right_route_dim": der_right.dim,
            "left_route_equal": der == der_left,
            "right_route_equal": der == der_right,
        },
        "diderivations": {
            "dim": dider.dim,
            "operator_route_dim": dider_ops.dim,
            "operator_route_equal": dider == dider_ops,
        },
    }


# -- closure reports ----------------------------------------------------


def check_closures(d: Dialgebra) -> dict:
    """Lie-theoretic closure facts about Der, Dider and their inner parts.

    Every entry is computed, not assumed: containments are checked on
    canonical bases, with sparse brackets, and the two ideal identities
    ``[t, ad_a] = ad_(t a)`` are verified as exact operator equations.
    """
    n = d.dim
    der = derivation_space(d)
    dider = diderivation_space(d)
    ads, di_ads = _inner_ops(d, "dashv", "vdash"), _inner_ops(d, "vdash", "dashv")
    inn, dinn = span(n * n, ads), span(n * n, di_ads)

    def closed_under_der(space: Subspace) -> bool:
        return all(space.coordinates(commutator(n, a, t)) is not None
                   for a in space.rows for t in der.rows)

    def ideal_identity(ad: list[Row]) -> bool:
        # a -> ad_a is linear, so ad_(t e_i) = sum_k t[k][i] ad_(e_k).
        return all(
            commutator(n, t, ad[i]) == lincomb((x, ad[k]) for k, x in t_ei.items())
            for t in der.rows
            for i, t_ei in enumerate(columns(n, t))
        )

    report = {
        "der_dim": der.dim,
        "dider_dim": dider.dim,
        "inn_dim": inn.dim,
        "dinn_dim": dinn.dim,
        "inn_in_der": inn.is_subspace_of(der),
        "dinn_in_dider": dinn.is_subspace_of(dider),
        "der_bracket_closed": closed_under_der(der),
        "dider_der_bracket_in_dider": closed_under_der(dider),
        "dinn_der_bracket_in_dinn": closed_under_der(dinn),
        "inn_der_bracket_in_inn": closed_under_der(inn),
        "inner_ideal_identity": ideal_identity(ads),
        "inner_di_ideal_identity": ideal_identity(di_ads),
    }
    if d.products_coincide():
        report["associative_dider_equals_der"] = dider == der
        report["associative_dinn_equals_inn"] = dinn == inn
    return report
