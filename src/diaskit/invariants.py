"""Structural invariants of a dialgebra.

The annihilator is the span of all differences ``a dashv b - a vdash b``;
it measures how far the two products are from coinciding.  The bar-center
collects the elements that multiply to zero from the outside on the bar
side (``z vdash x = 0`` and ``x dashv z = 0`` for all x).  Bar units are
the affine counterpart: ``e vdash x = x`` and ``x dashv e = x``.  The set
of bar units, the halo, is empty or a coset of the bar-center.

Skew-symmetrising the two products gives the bracket
``[a, b] = a dashv b - b vdash a``.  The bracket satisfies the Leibniz
identity in one chirality only; rather than hard-coding which one, the
checks below evaluate both on all basis triples and report what holds.
Both brackets here are kept as tables of sparse coordinates, one per
pair of basis elements: ``bilinear(LeibnizAlgebra(d).table, u, v)`` is
the bracket of two sparse vectors.  ``_violations`` is the one Leibniz
check.  It builds the two composites both chiralities share,
[[e_i,e_j],e_k] and [e_i,[e_j,e_k]], once with ``core.composite``, as
``verify_axioms`` builds those of the two products, and finds the
triples where each identity fails with ``core.unequal_triples``.

The combined space pairs diderivations with derivations under the
bracket ``<(s, d), (s', d')> = ([s, d'], [d, d'])``.  Its basis is the
Dider block followed by the Der block; flattened, that is already the
RREF basis of the combined space.  ``<x, (s', 0)>`` is 0, so
``check_bider_leibniz`` forms only the |Der| * b sparse brackets
``[s, d']`` and ``[d, d']`` of basis elements and reads their coordinates
in Dider and in Der.  Closure, both Leibniz identities and the two ideal
checks (each ideal generator written in coordinates over the same basis)
follow from that table by bilinearity.  The symmetrised squares need no
table of their own: ``<x, y> + <y, x>`` is ``(0, [d, d'] + [d', d]) = 0``
for x, y in the Der block, 0 for two Dider elements, and ``([s, d'], 0)``
for x = (s, 0) and y = (0, d').  Their span, the Leibniz kernel, is the
span of the [Dider, Der] brackets ``[s, d']`` already formed, whatever
the structure constants, and it lies in the Dider component exactly when
each ``[s, d']`` does: when no entry of the table's Dider rows is None.

Every span here (the annihilator, the halo's direction, each ideal and
the square span) is formed from sparse rows by ``ratlin.span``, one run of
the elimination core; no row is made dense on the way.  The bar-center is
solved twice on purpose: ``halo`` reads it off the homogenised bar-unit
system, ``bar_center`` solves the homogeneous system alone, and
``invariant_actions`` reports whether the two agree.

``invariant_actions`` decides whether operators T map a set S into a
target U as ``E T V = 0``.  The rows of E, the equations of U, are the
basis of ``kernel(n, U.rows)`` scaled to integers, solved once per target
and indexed by row (those of 0 are the identity); the columns of V are
the basis rows of S, scaled to integers and indexed by column.  Each
``E T V`` is formed in one pass over T's flat sparse row, T scaled to
integers too.  No image ``T v`` is formed and no ``Subspace.coordinates``
is called.
"""

from __future__ import annotations

import math
from collections.abc import Sequence

from .core import Dialgebra, composite, unequal_triples
from .ratlin import (
    AffineSubspace,
    Exact,
    Row,
    Subspace,
    bilinear,
    commutator,
    dense,
    kernel,
    lincomb,
    sparse,
    span,
)
from .spaces import (
    derivation_space,
    diderivation_space,
    inner_derivations,
    inner_diderivations,
)


def annihilator(d: Dialgebra) -> Subspace:
    """Span of all ``a dashv b - a vdash b`` over basis pairs."""
    n, dashv, vdash = d.dim, d.table("dashv"), d.table("vdash")
    return span(n, (lincomb(((1, dashv[i][j]), (-1, vdash[i][j])))
                    for i in range(n) for j in range(n)))


def halo(d: Dialgebra) -> AffineSubspace:
    """The set of bar units, as an affine subspace (possibly empty).

    One ``kernel`` solves the bar-unit system homogenised: coordinate c
    at column n - c, the right-hand side at column 0.  Column 0 is free
    exactly when a bar unit exists, and its free vector is then the one
    whose free coordinates are all 0.  The other free vectors, laid back
    with coordinate c at column c, span the bar-center, the direction,
    also when the halo is empty; ``span`` brings them to canonical form.
    """
    n = d.dim
    # R^vdash_{e_j} e = e_j and L^dashv_{e_j} e = e_j, for each j in turn:
    # row r of each operator, with -1 at column 0 when r = j
    rows: list[Row] = []
    for j, pair in enumerate(zip(d.basis_ops("right", "vdash"), d.basis_ops("left", "dashv"))):
        for op in pair:
            block: list[Row] = [{0: -1} if r == j else {} for r in range(n)]
            for k, x in op.items():
                block[k // n][n - k % n] = x
            rows += block
    # laid back: coordinate c at column c, the right-hand side at column n
    free = [{n - k: x for k, x in v.items()} for v in kernel(n + 1, rows).rows]
    point = dense(n + 1, free.pop(0))[:n] if free and n in free[0] else None
    return AffineSubspace(point, span(n, free))


def bar_center(d: Dialgebra) -> Subspace:
    """Elements z with ``z vdash x = 0`` and ``x dashv z = 0`` for all x.

    Solved on its own, not read off ``halo``, so that it checks the halo's
    direction: ``R^vdash_{e_j} z = 0`` and ``L^dashv_{e_j} z = 0`` for each
    j, row r of each operator over the n coordinates of z, one ``kernel``.
    """
    n = d.dim
    rows: list[Row] = [{} for _ in range(2 * n * n)]
    for j, pair in enumerate(zip(d.basis_ops("right", "vdash"), d.basis_ops("left", "dashv"))):
        for s, op in enumerate(pair):
            for k, x in op.items():
                rows[(2 * j + s) * n + k // n][k % n] = x
    return kernel(n, rows)


# -- the skew bracket ----------------------------------------------------


class LeibnizAlgebra:
    """The bracket algebra ``[a, b] = a dashv b - b vdash a``.

    ``table[i][j]`` holds the sparse coordinates of ``[e_i, e_j]``.  The
    first call for either Leibniz identity runs one sweep for both, which
    the other reads; each call returns a fresh list.
    """

    __slots__ = ("dim", "table", "_sweep")

    def __init__(self, d: Dialgebra):
        n = d.dim
        dashv, vdash = d.table("dashv"), d.table("vdash")
        self.dim = n
        self.table = [[lincomb(((1, dashv[i][j]), (-1, vdash[j][i]))) for j in range(n)]
                      for i in range(n)]
        self._sweep: dict[str, list[tuple[int, int, int]]] | None = None

    def left_identity_violations(self) -> list[tuple[int, int, int]]:
        """Triples where ``[x,[y,z]] != [[x,y],z] + [y,[x,z]]``."""
        return self._side("left")

    def right_identity_violations(self) -> list[tuple[int, int, int]]:
        """Triples where ``[[x,y],z] != [[x,z],y] + [x,[y,z]]``."""
        return self._side("right")

    def _side(self, side: str) -> list[tuple[int, int, int]]:
        if self._sweep is None:
            self._sweep = _violations(self.table)
        return list(self._sweep[side])


def _violations(table: Sequence[Sequence[Row]]) -> dict[str, list[tuple[int, int, int]]]:
    """For each side, "right" and "left", the basis triples, in order,
    where the bracket whose value on (e_i, e_j) has the coordinates
    ``table[i][j]`` breaks that Leibniz identity.

    Both sides are read off the two composites ``core.composite`` builds
    from the table, L(i,j,k) = [[e_i,e_j],e_k] and R(i,j,k) = [e_i,[e_j,e_k]]:
    the right identity fails where L(i,j,k) != L(i,k,j) + R(i,j,k), the
    left where R(i,j,k) != L(i,j,k) + R(j,i,k).
    """
    b = len(table)
    xy_z, x_yz = composite(b, table, table, True), composite(b, table, table, False)

    def plus(tensor: dict[int, Exact], weights: tuple[int, int],
             other: dict[int, Exact]) -> dict[int, Exact]:
        # other(i,j,k) + tensor(i,j,k) with the two indices of tensor's
        # triple whose weights in the key are ``weights`` swapped, zeros
        # dropped; i, j and k weigh b**3, b**2 and b
        hi, lo = weights
        out = dict(other)
        for key, x in tensor.items():
            key += (key // lo % b - key // hi % b) * (hi - lo)
            out[key] = out.get(key, 0) + x
        return {key: x for key, x in out.items() if x}

    sides = (("right", xy_z, plus(xy_z, (b * b, b), x_yz)),
             ("left", x_yz, plus(x_yz, (b ** 3, b * b), xy_z)))
    return {side: [(t // b // b, t // b % b, t % b) for t in sorted(unequal_triples(b, lhs, rhs))]
            for side, lhs, rhs in sides}


# -- combined derivation space -------------------------------------------

# Largest combined basis b (Dider block plus Der block) that
# ``check_bider_leibniz`` accepts.  The Leibniz check dominates its time,
# which follows the nonzero terms of the two composites, not b^3: on
# ``phi_dialgebra((1, -1, 2, -2, 3, -3, 1))`` (b = 42) it takes 0.046 to
# 0.049 s, with a last weight -1 added (b = 56, cap lifted) 0.084 to 0.086 s
# (ten runs each in two processes, Python 3.11, one core of a shared 2-vCPU
# Xeon).
MAX_BIDER_DIM = 42


class BiderSizeError(ValueError):
    """The combined basis is larger than ``MAX_BIDER_DIM``."""


def _shifted(row: Row | None, by: int) -> Row | None:
    return None if row is None else {j + by: x for j, x in row.items()}


def check_bider_leibniz(d: Dialgebra) -> dict:
    """Verify the combined bracket's identities and ideals by computation.

    Checks, on all basis triples of the combined space: closure of the
    bracket, both Leibniz chiralities, that inner-diderivations-plus-
    derivations and inner-diderivations-plus-inner-derivations are
    two-sided ideals, and where the span of symmetrised squares lands.
    That span is the span of the [Dider, Der] brackets ``[s, d']``:
    ``<x, y> + <y, x>`` is ``([s, d'], 0)`` for x = (s, 0) and
    y = (0, d'), and 0 when x and y lie in the same block, since
    ``[d, d'] + [d', d] = 0``.  The identity is exact for any structure
    constants, closed or not.
    A closure failure can only come from a wrong kernel, since [s, d] is
    a diderivation and [d, d'] a derivation whenever both kernels are
    right; the identities and both ideals are then reported as failing
    too.  Both ideals also fail when an inner (di)derivation lies outside
    the combined space, which a wrong kernel or a structure that is not a
    dialgebra can cause.

    Raises :class:`BiderSizeError`, before any bracket is formed, when
    the combined basis has more than ``MAX_BIDER_DIM`` elements.
    """
    n = d.dim
    der, dider = derivation_space(d), diderivation_space(d)
    b = dider.dim + der.dim
    if b > MAX_BIDER_DIM:
        raise BiderSizeError(
            f"combined bracket checks take a basis of at most {MAX_BIDER_DIM} "
            f"elements, this one has {b}")

    # table[i][j]: the coordinates of <x_i, x_j>, or None outside the
    # combined space.  Only the Der columns are nonzero: <(s, 0), (0, d')>
    # = ([s, d'], 0) has its coordinates in Dider, <(0, d), (0, d')> =
    # (0, [d, d']) in Der.  dider_der keeps the [s, d']: they span the squares,
    # which lie in Dider when no entry of the Dider rows is None.
    table: list[list[Row | None]] = [[{} for _ in range(b)] for _ in range(b)]
    dider_der: list[Row] = []
    for start, space in ((0, dider), (dider.dim, der)):
        for i, x in enumerate(space.rows, start=start):
            for j, y in enumerate(der.rows, start=dider.dim):
                bracket = commutator(n, x, y)
                if i < dider.dim:
                    dider_der.append(bracket)
                table[i][j] = _shifted(space.coordinates(bracket), start)
    closed = all(c is not None for row in table for c in row)

    # The ideal generators in coordinates over the same basis: DInn in the
    # Dider block, Inn in the Der block, and each Der basis element.
    unit: list[Row] = [{i: 1} for i in range(b)]
    dinn = [dider.coordinates(v) for v in inner_diderivations(d).rows]
    inn = [_shifted(der.coordinates(v), dider.dim) for v in inner_derivations(d).rows]
    generated = closed and None not in dinn + inn

    def is_ideal(members: list[Row]) -> bool:
        # By bilinearity <e_i, m> and <m, e_i> are read off the table.
        if not generated:
            return False
        ideal = span(b, members)
        return all(
            ideal.coordinates(bilinear(table, e, m)) is not None
            and ideal.coordinates(bilinear(table, m, e)) is not None
            for e in unit
            for m in members
        )

    leibniz = _violations(table) if closed else None
    return {
        "bider_dim": b,
        "bracket_closed": closed,
        "right_identity": closed and not leibniz["right"],
        "left_identity": closed and not leibniz["left"],
        "dinn_der_ideal": is_ideal(dinn + unit[dider.dim:]),
        "dinn_inn_ideal": is_ideal(dinn + inn),
        "square_span_dim": span(n * n, dider_der).dim,
        "square_span_in_dider_component": all(
            c is not None for row in table[:dider.dim] for c in row),
    }


# -- actions on the invariant sets ----------------------------------------


def check_invariant_actions(d: Dialgebra) -> dict:
    """How derivations and diderivations move the invariant sets.

    All facts are computed on canonical bases: derivations preserve the
    annihilator and the bar-center, diderivations kill the annihilator,
    and in the unital case the halo is a bar unit plus the annihilator,
    with derivations sending bar units into the annihilator and
    diderivations killing bar units and the bar-center.
    """
    return invariant_actions(d, annihilator(d), halo(d))


def _integral(row: Row) -> Row:
    """The row times the least common multiple of its denominators: the
    same line, spanned by a row of ints."""
    scale = math.lcm(*(x.denominator for x in row.values() if type(x) is not int))
    if scale == 1:
        return row
    return {j: x * scale if type(x) is int else x.numerator * (scale // x.denominator)
            for j, x in row.items()}


def _equations(target: Subspace) -> list[list[tuple[int, int]]]:
    """Integer equations of ``target``, indexed by row.

    The basis vectors of ``kernel(n, target.rows)``, each scaled to
    integers, are the rows of a matrix E with ``E w = 0`` exactly when w
    lies in target.  Entry r lists the (q, E[q][r]) that are nonzero."""
    n = target.ambient_dim
    by_row: list[list[tuple[int, int]]] = [[] for _ in range(n)]
    for q, e in enumerate(kernel(n, target.rows).rows):
        for r, x in _integral(e).items():
            by_row[r].append((q, x))
    return by_row


def _maps_into(ops: Sequence[Row], vectors: Sequence[Row],
               equations: list[list[tuple[int, int]]]) -> bool:
    """Whether each operator of ``ops`` (a sparse row over r*n + c) sends
    each of ``vectors`` into the subspace whose integer equations E are
    ``equations``, given by row as ``_equations`` gives them: whether
    ``E T V = 0`` for each T, where the columns of V are the vectors."""
    n, m = len(equations), len(vectors)
    # by_col[c]: the (k, V[c][k]) that are nonzero; E T V is 0 all the same
    # with each vector scaled to integers
    by_col: list[list[tuple[int, int]]] = [[] for _ in range(n)]
    for k, v in enumerate(vectors):
        for c, y in _integral(v).items():
            by_col[c].append((k, y))
    for t in ops:
        # (E T V)[q][k] at q*m + k, in one pass over T
        etv: Row = {}
        for j, x in t.items():
            r, c = divmod(j, n)
            if by_col[c]:
                for q, e in equations[r]:
                    for k, y in by_col[c]:
                        etv[q * m + k] = etv.get(q * m + k, 0) + e * x * y
        if any(etv.values()):
            return False
    return True


def invariant_actions(d: Dialgebra, ann: Subspace, h: AffineSubspace) -> dict:
    """``check_invariant_actions`` on the annihilator and halo of ``d``
    already computed by the caller; the bar-center is solved here, on its
    own, and compared with the halo's direction."""
    n = d.dim
    zb = bar_center(d)
    # each operator scaled to integers, once: E T v is 0 all the same
    der_ops, dider_ops = ([_integral(t) for t in space.rows]
                          for space in (derivation_space(d), diderivation_space(d)))
    # the equations of each distinct target; those of 0 are E = 1
    in_ann, zero = _equations(ann), [[(r, 1)] for r in range(n)]
    in_zb = in_ann if zb == ann else _equations(zb)
    identity = {r * n + r: 1 for r in range(n)}
    report = {
        "ann_dim": ann.dim,
        "bar_center_dim": zb.dim,
        "unital": not h.is_empty,
        "ann_in_bar_center": _maps_into([identity], ann.rows, in_zb),
        "der_preserves_ann": _maps_into(der_ops, ann.rows, in_ann),
        "der_preserves_bar_center": _maps_into(der_ops, zb.rows, in_zb),
        "dider_kills_ann": _maps_into(dider_ops, ann.rows, zero),
    }
    if not h.is_empty:
        unit = [sparse(h.point)]
        report["halo_direction_is_bar_center"] = h.direction == zb
        report["ann_equals_bar_center"] = ann == zb
        report["halo_is_point_plus_ann"] = h.direction == ann
        report["der_sends_unit_into_ann"] = _maps_into(der_ops, unit, in_ann)
        report["dider_kills_unit"] = _maps_into(dider_ops, unit, zero)
        report["dider_kills_bar_center"] = _maps_into(dider_ops, zb.rows, zero)
    return report
