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
pair of basis elements, and every identity is evaluated from such a
table by ``ratlin.bilinear``; ``_violations`` is the one Leibniz sweep.

The combined space pairs diderivations with derivations under the
bracket ``<(s, d), (s', d')> = ([s, d'], [d, d'])``.  Its basis is the
Dider block followed by the Der block; flattened, that is already the
RREF basis of the combined space, so the coordinates of a bracket are
its entries at the pivots.  ``check_bider_leibniz`` solves both spaces
once, forms the table of brackets of basis elements once (b^2 brackets
for a basis of size b) and reads their coordinates.  Closure, both
Leibniz identities, the two ideal checks (each ideal generator written in
coordinates over the same basis) and the span of symmetrised squares
follow from that table by bilinearity.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from typing import Iterator, Sequence

from .core import Dialgebra
from .ratlin import (
    AffineSubspace,
    Matrix,
    Row,
    Subspace,
    Vector,
    add_vectors,
    bilinear,
    commutator,
    dense,
    kernel,
    lincomb,
    solve_affine,
    sub_vectors,
    unit_vector,
    vector,
    zero_vector,
)
from .spaces import (
    derivation_space,
    diderivation_space,
    inner_derivations,
    inner_diderivations,
    subspace_matrices,
)


def annihilator(d: Dialgebra) -> Subspace:
    """Span of all ``a dashv b - a vdash b`` over basis pairs."""
    n = d.dim
    gens = []
    for i in range(n):
        for j in range(n):
            gens.append(sub_vectors(d.basis_product("dashv", i, j), d.basis_product("vdash", i, j)))
    return Subspace(n, gens)


def bar_center(d: Dialgebra) -> Subspace:
    """Elements z with ``z vdash x = 0`` and ``x dashv z = 0`` for all x."""
    n = d.dim
    rows: list[dict[int, Fraction]] = []
    for j in range(n):
        ej = unit_vector(n, j)
        for m in (d.right_op("vdash", ej), d.left_op("dashv", ej)):
            rows.extend(dict(enumerate(r)) for r in m.rows)
    return kernel(n, rows)


def halo(d: Dialgebra) -> AffineSubspace:
    """The set of bar units, as an affine subspace (possibly empty).

    The homogeneous part of the bar-unit system is the bar-center
    system, so a nonempty halo is automatically a bar-center coset.
    """
    n = d.dim
    rows: list[list[Fraction]] = []
    rhs: list[Fraction] = []
    for j in range(n):
        ej = unit_vector(n, j)
        for m in (d.right_op("vdash", ej), d.left_op("dashv", ej)):
            rows.extend(list(r) for r in m.rows)
            rhs.extend(ej)
    solution = solve_affine(Matrix(rows, ncols=n), rhs)
    if solution is None:
        return AffineSubspace(None, Subspace(n))
    point, kernel = solution
    return AffineSubspace(point, Subspace(n, kernel))


# -- the skew bracket ----------------------------------------------------


class LeibnizAlgebra:
    """The bracket algebra ``[a, b] = a dashv b - b vdash a``.

    ``table[i][j]`` holds the sparse coordinates of ``[e_i, e_j]``.
    """

    __slots__ = ("dim", "table")

    def __init__(self, d: Dialgebra):
        n = d.dim
        dashv, vdash = d.table("dashv"), d.table("vdash")
        self.dim = n
        self.table = [[lincomb(((1, dashv[i][j]), (-1, vdash[j][i]))) for j in range(n)]
                      for i in range(n)]

    def bracket(self, x: Sequence, y: Sequence) -> Vector:
        u, v = dict(enumerate(vector(x))), dict(enumerate(vector(y)))
        return dense(self.dim, bilinear(self.table, u, v))

    def left_identity_violations(self) -> list[tuple[int, int, int]]:
        """Triples where ``[x,[y,z]] != [[x,y],z] + [y,[x,z]]``."""
        return list(_violations(self.table, right=False))

    def right_identity_violations(self) -> list[tuple[int, int, int]]:
        """Triples where ``[[x,y],z] != [[x,z],y] + [x,[y,z]]``."""
        return list(_violations(self.table, right=True))


def _violations(table: Sequence[Sequence[Row]], right: bool) -> Iterator[tuple[int, int, int]]:
    """The basis triples, in order, where the bracket whose value on
    (e_i, e_j) has the coordinates ``table[i][j]`` breaks the right or the
    left Leibniz identity."""
    unit: list[Row] = [{i: Fraction(1)} for i in range(len(table))]
    for i, j, k in itertools.product(range(len(table)), repeat=3):
        xy_z = bilinear(table, table[i][j], unit[k])
        x_yz = bilinear(table, unit[i], table[j][k])
        if right:
            holds = xy_z == lincomb(((1, bilinear(table, table[i][k], unit[j])), (1, x_yz)))
        else:
            holds = x_yz == lincomb(((1, xy_z), (1, bilinear(table, unit[j], table[i][k]))))
        if not holds:
            yield (i, j, k)


# -- combined derivation space -------------------------------------------

BiderElement = tuple[Matrix, Matrix]

# Largest combined basis b (Dider block plus Der block) that
# ``check_bider_leibniz`` accepts.  Its time grows as b^3: on
# ``phi_dialgebra`` at n = 7 (b = 42) it takes 2.9 to 4.6 s, at n = 8
# (b = 56) 6.4 to 9.8 s (three runs each, Python 3.11, one core of a
# shared 2-vCPU Xeon).
MAX_BIDER_DIM = 42


class BiderSizeError(ValueError):
    """The combined basis is larger than ``MAX_BIDER_DIM``."""


def bider_bracket(x: BiderElement, y: BiderElement) -> BiderElement:
    """``<(s, d), (s', d')> = ([s, d'], [d, d'])``."""
    s, dd = x
    s2, dd2 = y
    return (commutator(s, dd2), commutator(dd, dd2))


def _flatten_pair(x: BiderElement) -> Vector:
    return x[0].flatten() + x[1].flatten()


def _coordinates(v: Vector, basis: Sequence[Vector], pivots: Sequence[int]) -> Row | None:
    """Coordinates of v in an RREF basis with the given pivot columns,
    or None when v lies outside its span."""
    coords = {k: v[p] for k, p in enumerate(pivots) if v[p]}
    rest = list(v)
    for k, c in coords.items():
        for idx, x in enumerate(basis[k]):
            if x:
                rest[idx] -= c * x
    return None if any(rest) else coords


def check_bider_leibniz(d: Dialgebra) -> dict:
    """Verify the combined bracket's identities and ideals by computation.

    Checks, on all basis triples of the combined space: closure of the
    bracket, both Leibniz chiralities, that inner-diderivations-plus-
    derivations and inner-diderivations-plus-inner-derivations are
    two-sided ideals, and where the span of symmetrised squares lands.
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
    zero = Matrix.zero(n, n)
    der_mats = subspace_matrices(derivation_space(d), n)
    dider_mats = subspace_matrices(diderivation_space(d), n)
    b = len(dider_mats) + len(der_mats)
    if b > MAX_BIDER_DIM:
        raise BiderSizeError(
            f"combined bracket checks take a basis of at most {MAX_BIDER_DIM} "
            f"elements, this one has {b}")
    basis = [(m, zero) for m in dider_mats] + [(zero, m) for m in der_mats]
    flat = [_flatten_pair(x) for x in basis]
    pivots = [next(j for j, v in enumerate(f) if v) for f in flat]

    table = [[_flatten_pair(bider_bracket(x, y)) for y in basis] for x in basis]
    coords = [[_coordinates(t, flat, pivots) for t in row] for row in table]
    closed = all(c is not None for row in coords for c in row)

    # The ideal generators in coordinates over the same basis: DInn in the
    # Dider block, Inn in the Der block, and each Der basis element.
    unit: list[Row] = [{i: Fraction(1)} for i in range(b)]
    dinn = [_coordinates(_flatten_pair((m, zero)), flat, pivots)
            for m in subspace_matrices(inner_diderivations(d), n)]
    inn = [_coordinates(_flatten_pair((zero, m)), flat, pivots)
           for m in subspace_matrices(inner_derivations(d), n)]
    generated = closed and None not in dinn + inn

    def is_ideal(members: list[Row]) -> bool:
        # By bilinearity <e_i, m> and <m, e_i> are read off the table.
        if not generated:
            return False
        ideal = Subspace(b, [dense(b, m) for m in members])
        return all(
            ideal.contains(dense(b, bilinear(coords, e, m)))
            and ideal.contains(dense(b, bilinear(coords, m, e)))
            for e in unit
            for m in members
        )

    squares = [add_vectors(table[i][j], table[j][i]) for i in range(b) for j in range(i + 1)]
    square_span = Subspace(2 * n * n, squares)
    dider_component = Subspace(2 * n * n, [m.flatten() + zero_vector(n * n) for m in dider_mats])

    return {
        "bider_dim": b,
        "bracket_closed": closed,
        "right_identity": closed and not any(_violations(coords, right=True)),
        "left_identity": closed and not any(_violations(coords, right=False)),
        "dinn_der_ideal": is_ideal(dinn + unit[len(dider_mats):]),
        "dinn_inn_ideal": is_ideal(dinn + inn),
        "square_span_dim": square_span.dim,
        "square_span_in_dider_component": square_span.is_subspace_of(dider_component),
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
    return invariant_actions(d, annihilator(d), bar_center(d), halo(d))


def invariant_actions(
    d: Dialgebra, ann: Subspace, zb: Subspace, h: AffineSubspace
) -> dict:
    """``check_invariant_actions`` on the annihilator, bar-center and halo
    of ``d`` already computed by the caller."""
    n = d.dim
    der_mats = subspace_matrices(derivation_space(d), n)
    dider_mats = subspace_matrices(diderivation_space(d), n)

    def maps_into(mats: Sequence[Matrix], space: Subspace, target: Subspace) -> bool:
        return all(target.contains(t.apply(b)) for t in mats for b in space.basis)

    def kills(mats: Sequence[Matrix], space: Subspace) -> bool:
        zero = zero_vector(n)
        return all(t.apply(b) == zero for t in mats for b in space.basis)

    report = {
        "ann_dim": ann.dim,
        "bar_center_dim": zb.dim,
        "unital": not h.is_empty,
        "ann_in_bar_center": ann.is_subspace_of(zb),
        "der_preserves_ann": maps_into(der_mats, ann, ann),
        "der_preserves_bar_center": maps_into(der_mats, zb, zb),
        "dider_kills_ann": kills(dider_mats, ann),
    }
    if not h.is_empty:
        point = h.point
        report["halo_direction_is_bar_center"] = h.direction == zb
        report["ann_equals_bar_center"] = ann == zb
        report["halo_is_point_plus_ann"] = h == AffineSubspace(point, ann)
        report["der_sends_unit_into_ann"] = all(
            ann.contains(t.apply(point)) for t in der_mats
        )
        report["dider_kills_unit"] = all(
            t.apply(point) == zero_vector(n) for t in dider_mats
        )
        report["dider_kills_bar_center"] = kills(dider_mats, zb)
    return report
