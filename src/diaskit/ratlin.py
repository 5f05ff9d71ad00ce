"""Exact linear algebra over the rationals.

Everything here is exact, so results are free of rounding questions.
Vectors are tuples of :class:`fractions.Fraction`; matrices are row-major
lists of rows of ``Fraction``.  A subspace stores only the reduced row
echelon form (RREF) of a spanning set, as sparse rows, which makes
equality a data comparison; its dense ``basis`` is built on each read.

Sparse rows (``Row``) are the working form: dicts from column to nonzero
entry, where an entry is an ``int`` when integral and a ``Fraction``
otherwise (``int_or_fraction``; ``sparse`` applies it), because integer
arithmetic is several times faster than ``Fraction`` arithmetic and the
structure constants are mostly integers.  The elimination builds a
``Fraction`` only where a division leaves a remainder.  Every vector,
matrix, basis and determinant handed back to a caller is made of
``Fraction`` again (``dense``, ``frac``).  Only sparse rows may hold an ``int``: those
``lincomb``, ``commutator``, ``columns`` and ``Subspace.coordinates``
return, ``Subspace.rows``, ``Dialgebra.table`` and ``Dialgebra.basis_ops``.

All elimination goes through one sparse core, ``_eliminate``: each row
is pivoted on its highest column, and every division by a pivot goes
through ``_quotient``.  The kernel read off that form is already in
canonical form (see ``kernel``), so the structure-constant systems,
which have 2n^3 rows of at most 3n nonzeros over n^2 unknowns, are
solved in one pass.  Many of their rows repeat an earlier one (Der of
phi at n = 12: 288 rows, 12 of them distinct), and other callers hand
over empty rows too (the systems of ``invariants.halo``, ``bar_center``
and ``annihilator``).  The core skips such rows before any arithmetic
and stops at full column rank; ``_eliminate`` states which rows it
skips, how it keys them and where it stops.  The systems are built by
lazy generators, so the rows after the stop are never built.  Two
readouts of the core hand back a canonical ``Subspace``: ``kernel``, the
one place a kernel is read off it, and ``span``, the RREF of a span of
sparse rows, which lays the columns in reverse so that each row is
pivoted on its lowest column.  ``rref`` is the dense view of ``span``.
An affine system is solved as the kernel of its homogenised form (see
``invariants.halo``) and handed back as an ``AffineSubspace``, the plain
pair (point, direction): a coset is compared through its direction and
the membership of a vector v through ``direction.contains(v - point)``.

The same sparse rows carry coordinates: ``lincomb`` forms linear
combinations of them, and ``bilinear`` evaluates a bilinear map given by
the coordinates of its values on basis pairs (the dialgebra axioms and
both Leibniz identities of a bracket compare composite products of such
tables, built by ``core.composite``).  An n-by-n operator is a
sparse row over the row-major flat index ``r*n + c``; ``columns`` splits
it by column.  Every bracket of operators goes through ``commutator`` and
``Subspace.coordinates``, which also decides membership and visits only
the pivots present in the vector, through the pivot index of the basis.
"""

from __future__ import annotations

import math
from collections import namedtuple
from collections.abc import Iterable, Sequence
from fractions import Fraction

# The exact-scalar grammar lives in ``base``; it stays importable from here.
from .base import MAX_RATIONAL_DIGITS, Exact, Scalar, frac, int_or_fraction, parse_rational

Vector = tuple[Fraction, ...]
_ZERO = Fraction(0)


def vector(entries: Iterable[Scalar]) -> Vector:
    return tuple(frac(x) for x in entries)


class Matrix:
    """Immutable-by-convention rational matrix.  Its entries are read
    through ``rows``; a matrix compares by value and is not hashable."""

    __slots__ = ("rows", "nrows", "ncols")

    def __init__(self, rows: Sequence[Sequence[Scalar]], ncols: int | None = None):
        data = [[frac(x) for x in row] for row in rows]
        if not data and ncols is None:
            raise ValueError("empty matrix needs explicit ncols")
        width = len(data[0]) if data else ncols
        if any(len(row) != width for row in data):
            raise ValueError("ragged rows")
        if ncols is not None and ncols != width:
            raise ValueError("ncols disagrees with row width")
        self.rows, self.nrows, self.ncols = data, len(data), width

    # -- basic queries ------------------------------------------------

    @property
    def shape(self) -> tuple[int, int]:
        return (self.nrows, self.ncols)

    def flatten(self) -> Vector:
        """Row-major flattening, the convention used by the kernel solvers."""
        return tuple(x for row in self.rows for x in row)

    @staticmethod
    def from_flat(entries: Sequence[Scalar], nrows: int, ncols: int) -> "Matrix":
        if len(entries) != nrows * ncols:
            raise ValueError("wrong number of entries")
        return Matrix([entries[i * ncols:(i + 1) * ncols] for i in range(nrows)], ncols=ncols)

    # -- arithmetic ---------------------------------------------------

    def __mul__(self, other: "Matrix") -> "Matrix":
        if self.ncols != other.nrows:
            raise ValueError("inner dimension mismatch")
        cols = [self.apply([r[j] for r in other.rows]) for j in range(other.ncols)]
        return Matrix([[c[i] for c in cols] for i in range(self.nrows)], ncols=other.ncols)

    def apply(self, v: Sequence[Fraction]) -> Vector:
        """Matrix acting on a coordinate column."""
        if len(v) != self.ncols:
            raise ValueError("vector length mismatch")
        nonzero = [(k, x) for k, x in enumerate(v) if x]
        return tuple(
            sum((row[k] * x for k, x in nonzero if row[k]), Fraction(0))
            for row in self.rows
        )

    # -- comparisons --------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Matrix):
            return NotImplemented
        return self.shape == other.shape and self.rows == other.rows

    def __repr__(self) -> str:
        body = "; ".join(" ".join(str(x) for x in row) for row in self.rows)
        return f"Matrix[{self.nrows}x{self.ncols}: {body}]"


# -- the elimination core ---------------------------------------------------

Row = dict[int, Exact]


def _axpy(row: Row, a: Exact, other: Row) -> None:
    """``row += a * other`` in place, keeping only nonzero entries, each an
    ``int`` when integral: a product or sum of ``Fraction`` entries may be
    an integral ``Fraction``."""
    for j, x in other.items():
        y = row.get(j)
        if y is None:
            y = a * x
        else:
            y += a * x
            if not y:
                del row[j]
                continue
        row[j] = y if type(y) is int or y.denominator != 1 else y.numerator


def _quotient(x: Exact, s: Exact) -> Exact:
    """``x / s`` for a pivot ``s``: an ``int`` when the division is exact."""
    if type(x) is int and type(s) is int:
        q, r = divmod(x, s)
        if not r:
            return q
    return int_or_fraction(Fraction(x, s))


def _eliminate(rows: Iterable[Row | int], ncols: int) -> tuple[dict[int, Row], list[Exact]]:
    """Fully reduce sparse rows of Q^ncols, pivoting each on its highest
    column.

    Returns the reduced rows keyed by pivot column, in the order found,
    and each pivot's entry before its row was scaled to 1.  A reduced row
    omits its pivot entry (an implicit 1); its entries lie at non-pivot
    columns below its pivot.  Input rows are not changed; their entries
    are taken as ``int`` where integral, and an entry that is zero once
    converted (``"0"``, ``"0/5"``) is dropped.  Every reduced entry and
    every scale is an ``int`` when integral, a ``Fraction`` otherwise.

    A row equal, entry for entry as given, to an earlier row of the same
    call is skipped before its entries are read or checked, as the rows
    after the ncols-th pivot are: a repeat with a ``float`` entry does not
    raise.  That is exact: an earlier row already lies in the span of the
    reduced rows, so its repeat would reduce to zero and add neither a
    pivot nor a scale.  An ``int`` and an equal integral ``Fraction`` hash
    and compare equal, so they make the same repeat; a row that differs
    from an earlier one only by an explicit zero entry is not a repeat,
    but reduces to zero.  A row that is empty once normalised is skipped
    too.  Any other row with a column outside ``range(ncols)`` raises
    ``ValueError``, and one with a ``float`` entry ``TypeError``.

    A row whose one entry is a nonzero ``int`` or ``Fraction`` is keyed
    by its column j instead, so it is skipped, unread, after any earlier
    such row in column j, whatever either entry: the earlier row put e_j
    in the span.  Otherwise, if j is in ``range(ncols)`` and not yet a
    pivot, the row becomes the pivot j with an empty reduced row and its
    entry as the scale, and j's entry is dropped from the reduced rows
    that hold one: no copy, division or ``_axpy``.  A one-entry row with
    a zero, string or ``float`` entry, or in a column that is already a
    pivot or outside ``range(ncols)``, goes the general way, and a zero
    entry keys no column.  A row keyed by its column is not keyed as
    written, so a later ``{j: 2.0}`` raises ``TypeError`` after ``{j: 2}``
    as after ``{j: 3}``.  The column key skips the multiples among such
    rows that a key as written would not.

    A row may also be given as a bare ``int`` j, the equation x_j = 0.
    Many equations of the solver systems have one unknown, and they travel
    that way (see ``kernel``), so no dict is unpacked for them.  Column j is
    keyed by j as a one-entry row is, so it and ``{j: x}`` skip each
    other, and where that row would become a pivot, j becomes the pivot j
    with an empty reduced row and scale 1.  A column that is already a
    pivot, or outside ``range(ncols)``, goes the general way as ``{j: 1}``
    and so raises ``ValueError`` when out of range.

    Back-substitution visits only the reduced rows that held an entry
    when they were found: a reduced row with none is changed by no later
    pivot, since only a row holding the pivot's column is.

    The core stops reading rows once it holds ``ncols`` pivots: the
    reduced rows then span Q^ncols, so every later row would reduce to
    zero.  Rows after that point are neither read nor checked, and a lazy
    iterable never builds them.
    """
    reduced: dict[int, Row] = {}
    filled: list[Row] = []  # the reduced rows that held an entry when found
    scales: list[Exact] = []
    seen: set[int | frozenset] = set()
    for given in rows:
        # a column j, the equation x_j = 0: keyed by j, pivoted on with scale 1
        if type(given) is int:
            if given in seen:
                continue
            seen.add(given)
            if given not in reduced and 0 <= given < ncols:
                for other in filled:
                    if given in other:
                        del other[given]
                reduced[given] = {}
                scales.append(1)
                if len(reduced) == ncols:
                    break
                continue
            given = {given: 1}  # not through the branch below, which would skip it by its key
        # one nonzero int or Fraction: keyed by its column, pivoted on unread
        elif len(given) == 1:
            [(j, x)] = given.items()
            if x and (type(x) is int or type(x) is Fraction):
                if j in seen:
                    continue
                seen.add(j)
                if j not in reduced and 0 <= j < ncols:
                    for other in filled:
                        if j in other:
                            del other[j]
                    reduced[j] = {}
                    scales.append(int_or_fraction(x))
                    if len(reduced) == ncols:
                        break
                    continue
        key = frozenset(given.items())
        if key in seen:
            continue
        seen.add(key)
        # a loop: a comprehension is one more call per row, which mostly holds one or two entries
        row: Row = {}
        for j, x in given.items():
            if x and (type(x) is int or (x := int_or_fraction(x))):
                row[j] = x
        if not row:
            continue
        # Reduced rows are zero at other pivots, so one pass clears them all.
        for c in [c for c in row if c in reduced]:
            _axpy(row, -row.pop(c), reduced[c])
        if not row:
            continue
        # Entries outside range(ncols) are never cleared, so they survive
        # to here: only a row that gives a pivot needs the check.
        p = max(row)
        if p >= ncols or min(row) < 0:
            raise ValueError(f"row has a column outside range({ncols})")
        s = row.pop(p)
        if s != 1:
            row = {j: _quotient(x, s) for j, x in row.items()}
        for other in filled:
            if p in other:
                _axpy(other, -other.pop(p), row)
        reduced[p] = row
        if row:
            filled.append(row)
        scales.append(s)
        if len(reduced) == ncols:
            break
    return reduced, scales


def lincomb(terms: Iterable[tuple[Exact, Row]]) -> Row:
    """Sparse ``sum c * v`` over (c, v) pairs, zero entries dropped."""
    out: Row = {}
    for c, v in terms:
        if c:
            _axpy(out, c, v)
    return out


def bilinear(table: Sequence[Sequence[Row]], u: Row, v: Row) -> Row:
    """The image of (u, v) under the bilinear map whose value on the basis
    pair (e_i, e_j) has the coordinates ``table[i][j]``."""
    return lincomb((a * b, table[i][j]) for i, a in u.items() for j, b in v.items())


def commutator(n: int, a: Row, b: Row) -> Row:
    """``[a, b] = ab - ba`` of n-by-n operators given as sparse rows over
    the row-major flat index ``r*n + c``, as ``Matrix.flatten`` lays them
    out."""
    out: Row = {}
    for x, y, sign in ((a, b, 1), (b, a, -1)):
        # (xy)[r][c] = sum_k x[r][k] y[k][c]: entry (r, k) of x meets row k of y.
        y_rows: dict[int, list[tuple[int, Exact]]] = {}
        for j, v in y.items():
            y_rows.setdefault(j // n, []).append((j % n, v))
        for j, u in x.items():
            start = j - j % n
            for c, v in y_rows.get(j % n, ()):
                out[start + c] = out.get(start + c, 0) + sign * u * v
    return {j: x for j, x in out.items() if x}


def columns(n: int, op: Row) -> list[Row]:
    """The images ``T(e_c)`` of an n-by-n operator given as a sparse row
    over ``r*n + c``: column c holds entry ``T[r][c]`` at r."""
    cols: list[Row] = [{} for _ in range(n)]
    for j, x in op.items():
        cols[j % n][j // n] = x
    return cols


def sparse(v: Sequence[Scalar]) -> Row:
    """The nonzero entries of a vector, as a sparse row; an entry is
    tested again once converted, so ``"0"`` is dropped."""
    row: Row = {}
    for j, x in enumerate(v):
        if x and (x := int_or_fraction(x)):
            row[j] = x
    return row


def dense(ncols: int, row: Row) -> Vector:
    """The sparse row as a vector of Q^ncols, of ``Fraction`` entries."""
    v = [_ZERO] * ncols
    for j, x in row.items():
        v[j] = frac(x)
    return tuple(v)


def _subspace(ncols: int, by_pivot: dict[int, Row]) -> "Subspace":
    """The subspace of Q^ncols whose RREF basis has these sparse rows,
    keyed by pivot column in ascending order."""
    space = Subspace.__new__(Subspace)
    space.ambient_dim = ncols
    space._pivots = {p: k for k, p in enumerate(by_pivot)}
    space.rows = tuple(by_pivot.values())
    return space


def kernel(ncols: int, rows: Iterable[Row | int]) -> "Subspace":
    """The kernel ``{x in Q^ncols : sum_j row[j] x_j = 0 for every row}``
    in canonical form, from one elimination.

    The vector of free column f has 1 at f, 0 at the other free columns,
    and at each pivot column p the negated entry of p's row at f, nonzero
    only for p > f.  By f, these vectors are the kernel's RREF basis.

    A row may be a bare column number j in place of a row with one
    nonzero entry at j: the equation x_j = 0, which is all such a row
    says.  The solvers of ``spaces`` hand their one-unknown equations over
    that way; every other caller of the core gives dict rows.

    Rows are checked, skipped and read up to the ncols-th pivot as
    ``_eliminate`` states; when that pivot is found, the kernel is 0.
    """
    reduced, _ = _eliminate(rows, ncols)
    free: dict[int, Row] = {f: {f: 1} for f in range(ncols) if f not in reduced}
    for p, row in reduced.items():
        for f, x in row.items():
            free[f][p] = int_or_fraction(-x)
    return _subspace(ncols, free)


def span(ncols: int, rows: Iterable[Row]) -> "Subspace":
    """The span of sparse rows of Q^ncols in canonical form, from one
    elimination.

    Column j is laid at ``last - j`` on the way in, so the core pivots
    each row on its lowest column; the reduced row of the pivot c, laid
    back, is the RREF basis vector with pivot c.

    The laid rows are checked, skipped and read up to the ncols-th pivot
    as ``_eliminate`` states; laying moves columns only, so the same rows
    are skipped as unlaid.  When that pivot is found, the span is all of
    Q^ncols.
    """
    last = ncols - 1
    reduced, _ = _eliminate(({last - j: x for j, x in row.items()} for row in rows), ncols)
    return _subspace(ncols, {
        c: {c: 1, **{last - j: int_or_fraction(x) for j, x in reduced[last - c].items()}}
        for c in sorted(last - p for p in reduced)})


def rref(m: Matrix) -> tuple[Matrix, list[int]]:
    """Reduced row echelon form and the list of pivot columns: the dense
    view of ``span``."""
    space = span(m.ncols, map(sparse, m.rows))
    rows = list(space.basis) + [(_ZERO,) * m.ncols] * (m.nrows - space.dim)
    return Matrix(rows, ncols=m.ncols), list(space._pivots)


def nullspace(m: Matrix) -> list[Vector]:
    """Canonical basis of the right kernel {x : m x = 0}, as ``kernel``."""
    return list(kernel(m.ncols, map(sparse, m.rows)).basis)


def det(m: Matrix) -> Fraction:
    """Determinant: the product of the pivots, signed by the permutation
    taking each row to its pivot column."""
    if m.nrows != m.ncols:
        raise ValueError("determinant of a non-square matrix")
    reduced, scales = _eliminate(map(sparse, m.rows), m.ncols)
    if len(reduced) < m.nrows:
        return Fraction(0)
    result = frac(math.prod(scales))
    order = list(reduced)
    inversions = sum(a > b for i, a in enumerate(order) for b in order[i + 1:])
    return -result if inversions % 2 else result


class Subspace:
    """A linear subspace of Q^n in canonical (RREF) form, read-only.

    Only ``rows`` is stored: the RREF basis as sparse rows, in ascending
    order of pivot.  ``basis`` is the dense view of the same vectors,
    built of ``Fraction`` on each read.  ``Subspace(n, vectors)`` is the
    span of dense vectors; ``span`` and ``kernel`` build one straight from
    sparse rows."""

    __slots__ = ("ambient_dim", "rows", "_pivots")

    def __init__(self, ambient_dim: int, spanning: Iterable[Sequence[Scalar]] = ()):
        vectors = [vector(v) for v in spanning]
        if any(len(v) != ambient_dim for v in vectors):
            raise ValueError("vector does not live in the ambient space")
        # Through ``rref``, the dense view of ``span``, so that dense input
        # is still timed as ``ratlin.rref`` by perfbench's tracer.
        reduced, pivots = rref(Matrix(vectors, ncols=ambient_dim))
        self.ambient_dim = ambient_dim
        self.rows = tuple(map(sparse, reduced.rows[:len(pivots)]))
        self._pivots = {p: k for k, p in enumerate(pivots)}  # pivot -> basis index

    @property
    def basis(self) -> tuple[Vector, ...]:
        return tuple(dense(self.ambient_dim, row) for row in self.rows)

    @property
    def dim(self) -> int:
        return len(self.rows)

    def coordinates(self, v: Row) -> Row | None:
        """The coordinates of the sparse vector v, keyed by basis index in
        ascending order, or ``None`` when v lies outside the span.  An
        entry is tested once converted, so ``"0"`` is no entry."""
        # A member's coordinate on a basis vector is its entry at that
        # vector's pivot, where the others are 0: only the pivots in v are
        # visited, ascending as the basis index does.  What is left must be 0.
        rest: Row = {}
        for j, x in v.items():
            if x and (type(x) is int or (x := int_or_fraction(x))):
                rest[j] = x
        coords: Row = {}
        for p in sorted(p for p in rest if p in self._pivots):
            k = self._pivots[p]
            c = coords[k] = rest[p]
            _axpy(rest, -c, self.rows[k])  # the pivot entry is 1, so it clears p
        return None if rest else coords

    def contains(self, v: Sequence[Scalar]) -> bool:
        w = vector(v)
        if len(w) != self.ambient_dim:
            raise ValueError("vector does not live in the ambient space")
        return self.coordinates(dict(enumerate(w))) is not None

    def is_subspace_of(self, other: "Subspace") -> bool:
        if self.ambient_dim != other.ambient_dim:
            raise ValueError("ambient dimensions differ")
        return all(other.coordinates(row) is not None for row in self.rows)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Subspace):
            return NotImplemented
        return self.ambient_dim == other.ambient_dim and self.rows == other.rows

    def __hash__(self) -> int:
        return hash((self.ambient_dim, tuple(frozenset(row.items()) for row in self.rows)))

    def __repr__(self) -> str:
        rows = "; ".join(" ".join(str(x) for x in b) for b in self.basis)
        return f"Subspace(dim {self.dim} of Q^{self.ambient_dim}: {rows})"


class AffineSubspace(namedtuple("AffineSubspace", "point direction")):
    """A coset ``point + direction`` of a subspace, or, with no point, the
    empty set.  Equality is that of the pair (point, direction)."""

    __slots__ = ()

    @property
    def is_empty(self) -> bool:
        return self.point is None
