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
entries of each basis operator straight off them.  Integral constants are
``int`` there and both routes keep them that way: integer structure
constants give integer rows.  A route hands the elimination core
(``kernel``) only rows with a nonzero entry: a slot no constant reaches
forms no row, and a slot whose terms cancel once summed is dropped.  On
``phi_dialgebra`` every slot of the Der systems has a term, but only 2n^2
of the 2n^3 keep one (288 of 3,456 at n = 12), on each route.  The
operator route writes each commutator from the gap between two diagonal
entries and the off-diagonal ones, terms that never share an unknown, so
a slot forms a row only where it has a gap, an off-diagonal entry or a
term of the subscripted operator, and only that last part can cancel the
rest: on phi, whose ``L^vdash`` and ``R^dashv`` basis operators are
scalar, each Der operator route forms n^3 + n^2 rows (1,872 at n = 12)
for the same 2n^2.  Rows
equal up to a scalar are all formed: skipping them by a normalised key
made the Dider solve of phi at n = 12 over twice as slow.  Both routes
yield their rows one at a time, so the rows after the elimination core
has a pivot in every column are never built.  The closure report
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


def _rule_kernel(d: Dialgebra, rule: str) -> Subspace:
    """Kernel of the system of ``RULES[rule]``: for each ``(*, o1, o2)``
    and basis pair, ``T(e_i * e_j) - T(e_i) o1 e_j - e_i o2 T(e_j) = 0``.
    Unknown T[a][b] sits at flat index a*n + b.  Rows are built sparse,
    from the nonzero structure constants only.
    """
    n = d.dim

    def rows():
        for product, o1, o2 in RULES[rule]:
            c, c_first, c_second = d.table(product), d.table(o1), d.table(o2)
            # first[j][r]: the (k, -c_first[k][j][r]) that are nonzero;
            # second[i][r]: the (k, -c_second[i][k][r]) that are nonzero.
            first = [[[] for _ in range(n)] for _ in range(n)]
            second = [[[] for _ in range(n)] for _ in range(n)]
            for k in range(n):
                for j in range(n):
                    for r, x in c_first[k][j].items():
                        first[j][r].append((k, -x))
                    for r, x in c_second[j][k].items():
                        second[j][r].append((k, -x))
            for i in range(n):
                for j in range(n):
                    for r in range(n) if c[i][j] else [  # the slots with a term
                            r for r in range(n) if first[j][r] or second[i][r]]:
                        row = {r * n + l: x for l, x in c[i][j].items()}
                        for k, a in first[j][r]:
                            _add(row, k * n + i, a)
                        for k, b in second[i][r]:
                            _add(row, k * n + j, b)
                        if row:  # its terms may all cancel
                            yield row

    return kernel(n * n, rows())


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
        space = d._spaces[rule] = _rule_kernel(d, rule)
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
    i, one per slot (condition, i, r, s) that has a term, in that order; a
    row whose terms all cancel comes out empty, and ``_operator_route_kernel``
    drops it.

    Each condition is a pair of (side, product) operator kinds, as
    ``Dialgebra.basis_ops`` takes them: ``S`` is the operator on the left of
    the equation, extended linearly to ``T(e_i)``, and ``M`` sits inside
    the commutator.  Slot (r, s) holds ``sum_k S_k[r][s] T[k][i]`` and

        -[T, M](r, s) = (M[r][r] - M[s][s]) T[r][s]
                        - sum_{t != s} M[t][s] T[r][t] + sum_{t != r} M[r][t] T[t][s],

    whose terms each have an unknown of their own: only the S part can
    cancel against them.  So a slot with no diagonal gap, no off-diagonal
    entry of M in row r or column s and no S part forms no row.
    """
    n = d.dim
    for subscript, inside in conditions:
        # subs_at[r][s]: the (k, S_k[r][s]) that are nonzero
        subs_at = [[[] for _ in range(n)] for _ in range(n)]
        for k, op in enumerate(d.basis_ops(*subscript)):
            for j, x in op.items():
                r, s = divmod(j, n)
                subs_at[r][s].append((k, x))
        for i, op in enumerate(d.basis_ops(*inside)):
            # off_row[r]: the (t, M[r][t]); off_col[s]: the (t, -M[t][s]); t off the diagonal
            diag = [0] * n
            off_row = [[] for _ in range(n)]
            off_col = [[] for _ in range(n)]
            for j, x in op.items():
                r, t = divmod(j, n)
                if r == t:
                    diag[r] = x
                else:
                    off_row[r].append((t, x))
                    off_col[t].append((r, -x))
            gapped = diag.count(diag[0]) != n
            for r in range(n):
                m_rr, subs_r, row_r = diag[r], subs_at[r], off_row[r]
                for s in range(n) if row_r else [  # the slots with a term
                        s for s in range(n)
                        if off_col[s] or subs_r[s] or gapped and diag[s] != m_rr]:
                    row: Row = {}
                    gap = m_rr - diag[s]
                    if gap:
                        row[r * n + s] = gap if type(gap) is int else int_or_fraction(gap)
                    for t, v in off_col[s]:
                        row[r * n + t] = v
                    for t, w in row_r:
                        row[t * n + s] = w
                    for k, v in subs_r[s]:
                        _add(row, k * n + i, v)
                    yield row


def _operator_route_kernel(
    d: Dialgebra,
    conditions: Sequence[tuple[tuple[str, str], tuple[str, str]]],
) -> Subspace:
    """Kernel of the rows of ``_operator_rows``, the empty ones left out."""
    return kernel(d.dim ** 2, filter(None, _operator_rows(d, conditions)))


def derivation_space_via_left_ops(d: Dialgebra) -> Subspace:
    """Derivations characterised by ``L_{T(a)} = [T, L_a]`` per product."""
    return _operator_route_kernel(
        d, [(("left", "dashv"), ("left", "dashv")), (("left", "vdash"), ("left", "vdash"))]
    )


def derivation_space_via_right_ops(d: Dialgebra) -> Subspace:
    """Derivations characterised by ``R_{T(a)} = [T, R_a]`` per product."""
    return _operator_route_kernel(
        d, [(("right", "dashv"), ("right", "dashv")), (("right", "vdash"), ("right", "vdash"))]
    )


def diderivation_space_via_ops(d: Dialgebra) -> Subspace:
    """Diderivations characterised by the mixed commutator pair.

    ``L^dashv_{delta(a)} = [delta, L^vdash_a]`` encodes the vdash rule
    and ``R^vdash_{delta(a)} = [delta, R^dashv_a]`` the dashv rule;
    stacking both recovers the full diderivation condition.
    """
    return _operator_route_kernel(
        d, [(("left", "dashv"), ("left", "vdash")), (("right", "vdash"), ("right", "dashv"))]
    )


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
