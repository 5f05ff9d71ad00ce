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
canonical form (see ``kernel``), so the structure-constant systems, which
have 2n^3 rows of at most 3n nonzeros over n^2 unknowns, are solved in
one pass.  Their builders in ``spaces`` drop each row whose terms
cancel, but many rows left repeat an earlier row (Der of phi at n = 12:
288 rows, 12 of them distinct), and other callers hand over empty rows
too (the systems of ``invariants.halo``, ``bar_center`` and
``annihilator``).  The core still skips both before any arithmetic: a
row equal, entry for entry
once normalised, to an earlier row of the same elimination already lies
in the reduced span, so it would reduce to zero.  Skipping it changes
neither the reduced rows nor the pivot scales, and so no kernel, RREF or
determinant.  The core also stops reading rows once it holds one pivot
per column: the reduced rows then span all of Q^ncols, so no later row
can change a pivot.  The systems are built by lazy generators, so the
rows after that point are never built: the Dider system of
``phi_dialgebra`` at n = 12 has full rank after its first 144 of 3,456
rows.  Two readouts of the core hand back a canonical ``Subspace``:
``kernel``, the one place a kernel is read off it, and ``span``, the
RREF of a span of sparse rows, which lays the columns in reverse so that
each row is pivoted on its lowest column.  ``rref`` is the dense view of
``span``.  An affine system is solved as the kernel of its homogenised
form (see ``invariants.halo``) and handed back as an ``AffineSubspace``,
the plain pair (point, direction): a coset is compared through its
direction and the membership of a vector v through
``direction.contains(v - point)``.

The same sparse rows carry coordinates: ``lincomb`` forms linear
combinations of them, and ``bilinear`` evaluates a bilinear map given by
the coordinates of its values on basis pairs; both Leibniz identities of
a bracket go through these two (the dialgebra axioms compare composite
products, built in ``Dialgebra.verify_axioms``).  An n-by-n operator is a
sparse row over the row-major flat index ``r*n + c``; ``columns`` splits
it by column.  Every bracket of operators goes through ``commutator`` and
``Subspace.coordinates``, which also decides membership and visits only
the pivots present in the vector, through the pivot index of the basis.
"""

from __future__ import annotations

import math
import re
from collections import namedtuple
from collections.abc import Iterable, Sequence
from fractions import Fraction

Scalar = int | str | Fraction
Exact = int | Fraction
Vector = tuple[Fraction, ...]
_ZERO = Fraction(0)

# Most digits of a rational in the input, numerator and denominator
# together: a short text such as 1e2000000 must not become a huge number.
MAX_RATIONAL_DIGITS = 40
_RATIONAL = re.compile(r"(-?[0-9]+)(?:/([0-9]+))?")


def parse_rational(text: str) -> Fraction:
    """An integer or a fraction such as ``-2/3``: an optional ``-``, digits,
    and an optional ``/`` with a nonzero denominator, at most
    ``MAX_RATIONAL_DIGITS`` digits in all.  Anything else raises
    ``ValueError`` before a ``Fraction`` is built."""
    match = _RATIONAL.fullmatch(text)
    if match is None:
        raise ValueError("expected an integer or a fraction like -2/3")
    num, den = match.group(1, 2)
    if len(num.lstrip("-")) + len(den or "") > MAX_RATIONAL_DIGITS:
        raise ValueError(f"more than {MAX_RATIONAL_DIGITS} digits")
    if den is not None and not den.strip("0"):
        raise ValueError("zero denominator")
    return Fraction(int(num), int(den or 1))


def frac(x: Scalar) -> Fraction:
    """Coerce ints, Fractions and strings in the ``parse_rational`` grammar
    to Fraction.  Anything else, a float included, is not an exact input
    and raises ``TypeError``."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        return parse_rational(x)
    raise TypeError(f"expected an int, a Fraction or a string, not {type(x).__name__}")


def int_or_fraction(x: Scalar) -> Exact:
    """An exact scalar as sparse rows store it: an ``int`` when it is
    integral, else a ``Fraction``.  Other inputs are read as by ``frac``."""
    if type(x) is int:
        return x
    x = frac(x)
    return x.numerator if x.denominator == 1 else x


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
    """``row += a * other`` in place, keeping only nonzero entries."""
    for j, x in other.items():
        y = row.get(j)
        if y is None:
            row[j] = a * x
        else:
            y += a * x
            if y:
                row[j] = y
            else:
                del row[j]


def _quotient(x: Exact, s: Exact) -> Exact:
    """``x / s`` for a pivot ``s``: an ``int`` when the division is exact."""
    if type(x) is int and type(s) is int:
        q, r = divmod(x, s)
        if not r:
            return q
    return int_or_fraction(Fraction(x, s))


def _eliminate(rows: Iterable[Row], ncols: int) -> tuple[dict[int, Row], list[Exact]]:
    """Fully reduce sparse rows of Q^ncols, pivoting each on its highest
    column.

    Returns the reduced rows keyed by pivot column, in the order found,
    and each pivot's entry before its row was scaled to 1.  A reduced row
    omits its pivot entry (an implicit 1); its entries lie at non-pivot
    columns below its pivot.  Input rows are not changed; their entries
    are taken as ``int`` where integral.

    Once its entries are normalised, a row that is empty, or equal to an
    earlier row of the same call, is skipped before any reduction.  That
    is exact: an earlier row already lies in the span of the reduced rows,
    so its repeat would reduce to zero and add neither a pivot nor a
    scale.  Any other row with a column outside ``range(ncols)`` raises
    ``ValueError``.

    The core stops reading rows once it holds ``ncols`` pivots: the
    reduced rows then span Q^ncols, so every later row would reduce to
    zero.  Rows after that point are neither read nor checked, and a lazy
    iterable never builds them.
    """
    reduced: dict[int, Row] = {}
    scales: list[Exact] = []
    seen: set[frozenset] = set()
    for row in rows:
        row = {j: x if type(x) is int else int_or_fraction(x) for j, x in row.items() if x}
        if not row:
            continue
        key = frozenset(row.items())
        if key in seen:
            continue
        seen.add(key)
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
        for other in reduced.values():
            if p in other:
                _axpy(other, -other.pop(p), row)
        reduced[p] = row
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
    """The nonzero entries of a vector, as a sparse row."""
    return {j: int_or_fraction(x) for j, x in enumerate(v) if x}


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


def kernel(ncols: int, rows: Iterable[Row]) -> "Subspace":
    """The kernel ``{x in Q^ncols : sum_j row[j] x_j = 0 for every row}``
    in canonical form, from one elimination.

    The vector of free column f has 1 at f, 0 at the other free columns,
    and at each pivot column p the negated entry of p's row at f, nonzero
    only for p > f.  By f, these vectors are the kernel's RREF basis.

    A row with a column outside ``range(ncols)`` raises ``ValueError``,
    unless it is empty or repeats an earlier row.  Rows after the ncols-th
    pivot are not read, so they are not checked: the kernel is then 0.
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

    Rows are checked as by ``kernel``; rows after the ncols-th pivot are
    not read, so they are not checked: the span is then all of Q^ncols.
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
        ascending order, or ``None`` when v lies outside the span."""
        # A member's coordinate on a basis vector is its entry at that
        # vector's pivot, where the others are 0: only the pivots in v are
        # visited, ascending as the basis index does.  What is left must be 0.
        rest = {j: x for j, x in v.items() if x}
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
