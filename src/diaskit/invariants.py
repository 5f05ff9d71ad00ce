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

The combined space pairs diderivations with derivations under the
bracket ``<(s, d), (s', d')> = ([s, d'], [d, d'])``.  Its basis is the
Dider block followed by the Der block; flattened, that is already the
RREF basis of the combined space, so the coordinates of a bracket are
its entries at the pivots.  ``check_bider_leibniz`` solves both spaces
once, forms the table of brackets of basis elements once (b^2 brackets
for a basis of size b) and reads their coordinates.  Closure, both
Leibniz identities and the span of symmetrised squares follow from that
table by bilinearity; the two ideal checks bracket the ideal generators
directly.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

from .core import Dialgebra
from .ratlin import (
    AffineSubspace,
    Matrix,
    Subspace,
    Vector,
    add_vectors,
    commutator,
    kernel,
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
    """The bracket algebra ``[a, b] = a dashv b - b vdash a``."""

    __slots__ = ("dim", "cube")

    def __init__(self, d: Dialgebra):
        n = d.dim
        self.dim = n
        self.cube = [
            [
                sub_vectors(d.basis_product("dashv", i, j), d.basis_product("vdash", j, i))
                for j in range(n)
            ]
            for i in range(n)
        ]

    def bracket(self, x: Sequence, y: Sequence) -> Vector:
        n = self.dim
        xv, yv = vector(x), vector(y)
        out = [Fraction(0)] * n
        for i, xi in enumerate(xv):
            if not xi:
                continue
            for j, yj in enumerate(yv):
                if not yj:
                    continue
                cij = self.cube[i][j]
                for k in range(n):
                    if cij[k]:
                        out[k] += xi * yj * cij[k]
        return tuple(out)

    def left_identity_violations(self) -> list[tuple[int, int, int]]:
        """Triples where ``[x,[y,z]] != [[x,y],z] + [y,[x,z]]``."""
        return self._violations(
            lambda x, y, z: self.bracket(x, self.bracket(y, z)),
            lambda x, y, z: vector(
                a + b
                for a, b in zip(
                    self.bracket(self.bracket(x, y), z),
                    self.bracket(y, self.bracket(x, z)),
                )
            ),
        )

    def right_identity_violations(self) -> list[tuple[int, int, int]]:
        """Triples where ``[[x,y],z] != [[x,z],y] + [x,[y,z]]``."""
        return self._violations(
            lambda x, y, z: self.bracket(self.bracket(x, y), z),
            lambda x, y, z: vector(
                a + b
                for a, b in zip(
                    self.bracket(self.bracket(x, z), y),
                    self.bracket(x, self.bracket(y, z)),
                )
            ),
        )

    def _violations(self, lhs, rhs) -> list[tuple[int, int, int]]:
        n = self.dim
        basis = [unit_vector(n, i) for i in range(n)]
        bad = []
        for i in range(n):
            for j in range(n):
                for k in range(n):
                    if lhs(basis[i], basis[j], basis[k]) != rhs(basis[i], basis[j], basis[k]):
                        bad.append((i, j, k))
        return bad


# -- combined derivation space -------------------------------------------

BiderElement = tuple[Matrix, Matrix]
Coords = dict[int, Fraction]


def bider_bracket(x: BiderElement, y: BiderElement) -> BiderElement:
    """``<(s, d), (s', d')> = ([s, d'], [d, d'])``."""
    s, dd = x
    s2, dd2 = y
    return (commutator(s, dd2), commutator(dd, dd2))


def _flatten_pair(x: BiderElement) -> Vector:
    return x[0].flatten() + x[1].flatten()


def _pair_space(n: int, firsts: Sequence[Matrix], seconds: Sequence[Matrix]) -> Subspace:
    gens = [m.flatten() + zero_vector(n * n) for m in firsts]
    gens += [zero_vector(n * n) + m.flatten() for m in seconds]
    return Subspace(2 * n * n, gens)


def _coordinates(v: Vector, basis: Sequence[Vector], pivots: Sequence[int]) -> Coords | None:
    """Coordinates of v in an RREF basis with the given pivot columns,
    or None when v lies outside its span."""
    coords = {k: v[p] for k, p in enumerate(pivots) if v[p]}
    rest = list(v)
    for k, c in coords.items():
        for idx, x in enumerate(basis[k]):
            if x:
                rest[idx] -= c * x
    return None if any(rest) else coords


def _lincomb(terms) -> Coords:
    """Sparse ``sum c * v`` over (c, v) pairs, zero entries dropped."""
    out: Coords = {}
    for c, vec in terms:
        for m, x in vec.items():
            out[m] = out.get(m, 0) + c * x
    return {m: x for m, x in out.items() if x}


def check_bider_leibniz(d: Dialgebra) -> dict:
    """Verify the combined bracket's identities and ideals by computation.

    Checks, on all basis triples of the combined space: closure of the
    bracket, both Leibniz chiralities, that inner-diderivations-plus-
    derivations and inner-diderivations-plus-inner-derivations are
    two-sided ideals, and where the span of symmetrised squares lands.
    A closure failure can only come from a wrong kernel, since [s, d] is
    a diderivation and [d, d'] a derivation whenever both kernels are
    right; the identities are then reported as failing too.
    """
    n = d.dim
    zero = Matrix.zero(n, n)
    der_mats = subspace_matrices(derivation_space(d), n)
    dider_mats = subspace_matrices(diderivation_space(d), n)
    inn_mats = subspace_matrices(inner_derivations(d), n)
    dinn_mats = subspace_matrices(inner_diderivations(d), n)
    basis = [(m, zero) for m in dider_mats] + [(zero, m) for m in der_mats]
    flat = [_flatten_pair(x) for x in basis]
    pivots = [next(j for j, v in enumerate(b) if v) for b in flat]

    table = [[_flatten_pair(bider_bracket(x, y)) for y in basis] for x in basis]
    coords = [[_coordinates(t, flat, pivots) for t in row] for row in table]
    closed = all(c is not None for row in coords for c in row)

    # With coords[i][j] the coordinates of [b_i, b_j], bilinearity gives
    # [[b_i, b_j], b_l] = sum_k coords[i][j][k] * coords[k][l], and so on.
    right_ok = left_ok = closed
    if closed:
        b = len(basis)
        columns = [[coords[k][l] for k in range(b)] for l in range(b)]
        for i in range(b):
            for j in range(b):
                for l in range(b):
                    xy_z = _lincomb((c, columns[l][k]) for k, c in coords[i][j].items())
                    xz_y = _lincomb((c, columns[j][k]) for k, c in coords[i][l].items())
                    x_yz = _lincomb((c, coords[i][k]) for k, c in coords[j][l].items())
                    y_xz = _lincomb((c, coords[j][k]) for k, c in coords[i][l].items())
                    if _lincomb(((1, xy_z), (-1, xz_y), (-1, x_yz))):
                        right_ok = False
                    if _lincomb(((1, x_yz), (-1, xy_z), (-1, y_xz))):
                        left_ok = False

    def is_ideal(space: Subspace, members: Sequence[BiderElement]) -> bool:
        return all(
            space.contains(_flatten_pair(bider_bracket(x, m)))
            and space.contains(_flatten_pair(bider_bracket(m, x)))
            for x in basis
            for m in members
        )

    dinn_members = [(m, zero) for m in dinn_mats]
    ideal_a = _pair_space(n, dinn_mats, der_mats)
    ideal_b = _pair_space(n, dinn_mats, inn_mats)

    squares = [
        add_vectors(table[i][j], table[j][i])
        for i in range(len(basis))
        for j in range(i + 1)
    ]
    square_span = Subspace(2 * n * n, squares)

    return {
        "bider_dim": len(basis),
        "bracket_closed": closed,
        "right_identity": right_ok,
        "left_identity": left_ok,
        "dinn_der_ideal": is_ideal(ideal_a, dinn_members + [(zero, m) for m in der_mats]),
        "dinn_inn_ideal": is_ideal(ideal_b, dinn_members + [(zero, m) for m in inn_mats]),
        "square_span_dim": square_span.dim,
        "square_span_in_dider_component": square_span.is_subspace_of(
            _pair_space(n, dider_mats, [])),
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
