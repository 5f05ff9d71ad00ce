"""Sparse exact polynomials in a fixed number of variables.

A ``Poly`` maps exponent tuples, one exponent per variable, to nonzero
coefficients.  A coefficient is an ``int`` when integral and a
``Fraction`` otherwise (``ratlin.int_or_fraction``), as in sparse rows.
Nothing here divides, so a polynomial with integer coefficients evaluated
at an integer point gives an ``int``.  Besides the ring operations and
evaluation, ``rename`` puts variables in place of variables and
``degree`` reads the degree in one variable.  ``det`` expands a
determinant of polynomial entries without division.

A subclass may give its polynomials a total-degree ``bound``
(``kxy.BivariatePoly``): a result of arithmetic keeps the smaller bound of
its operands, a term beyond it raises ``DegreeBoundError``, and
arithmetic of a bounded and an unbounded polynomial raises ``ValueError``.
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence
from operator import add, itemgetter

from .ratlin import Exact, Scalar, int_or_fraction

Exponents = tuple[int, ...]


class DegreeBoundError(ValueError):
    """A result would exceed the ambient total-degree bound."""


def _check_variable(i: int, nvars: int) -> None:
    if not 0 <= i < nvars:
        raise ValueError(f"no variable {i} among {nvars}")


class Poly:
    """A polynomial in ``nvars`` variables.  ``terms`` maps exponent tuples
    of ``nvars`` nonnegative integers to coefficients; the constructor
    rejects any other key, drops the zero coefficients, stores the rest as
    ``int`` where integral and checks them against the bound.  Read-only.
    A scalar right operand of ``+``, ``-`` or ``*`` is read as a constant.
    Results of arithmetic have the type of the left operand."""

    __slots__ = ("nvars", "terms")
    # no total-degree bound; a subclass that has one sets it per instance,
    # before this constructor runs
    bound: int | None = None

    def __init__(self, nvars: int, terms: Mapping[Exponents, Scalar]):
        self.nvars = nvars
        self.terms = clean = {}
        bound = self.bound
        for exps, c in terms.items():
            if type(exps) is not tuple or len(exps) != nvars:
                raise ValueError(f"exponents {exps!r} are not {nvars} nonnegative integers")
            for e in exps:
                # exactly int: a bool, a float or a string is no exponent
                if type(e) is not int or e < 0:
                    raise ValueError(f"exponents {exps!r} are not {nvars} nonnegative integers")
            if type(c) is not int:
                c = int_or_fraction(c)
            if c:
                if bound is not None and sum(exps) > bound:
                    raise DegreeBoundError(
                        f"degree bound exceeded: a term {exps} with bound {bound}")
                clean[exps] = c

    @staticmethod
    def var(nvars: int, i: int) -> "Poly":
        """The i-th of ``nvars`` variables, 0-indexed."""
        _check_variable(i, nvars)
        return Poly(nvars, {tuple(int(j == i) for j in range(nvars)): 1})

    @staticmethod
    def const(nvars: int, c: Scalar) -> "Poly":
        return Poly(nvars, {(0,) * nvars: c})

    def _clean(self, terms: dict[Exponents, Exact], other: "Poly | None" = None,
               grown: bool = False) -> "Poly":
        """Wrap ``terms``, a result of arithmetic on ``self`` and, for a
        binary operation, the clean operand ``other``: drop the zero
        coefficients and store an integral ``Fraction`` (such as 1/2 + 1/2)
        as an ``int``, without checking the exponents again.  The result has
        the type, the variables and the bound of ``self``, or the smaller
        bound of ``other``.  Its terms are checked against the bound only
        where they may pass it: where the bounds differ, or where degrees
        have ``grown`` (a product)."""
        for c in terms.values():
            if type(c) is not int or not c:
                terms = {key: int_or_fraction(c) for key, c in terms.items() if c}
                break
        p = object.__new__(type(self))
        p.nvars = self.nvars
        p.terms = terms
        bound = self.bound
        if other is not None and other.bound != bound:
            if bound is None or other.bound is None:
                raise ValueError("arithmetic of a bounded and an unbounded polynomial")
            bound = min(bound, other.bound)
            grown = True
        if bound is not None:
            p.bound = bound
            if grown:
                for exps in terms:
                    if sum(exps) > bound:
                        raise DegreeBoundError(
                            f"degree bound exceeded: a term {exps} with bound {bound}")
        return p

    def _operand(self, other: Poly | Scalar) -> "Poly":
        if not isinstance(other, Poly):
            return self._clean({(0,) * self.nvars: int_or_fraction(other)})
        if other.nvars != self.nvars:
            raise ValueError(f"polynomials in {self.nvars} and {other.nvars} variables")
        return other

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, Poly):
            return self.nvars == other.nvars and self.terms == other.terms
        return NotImplemented

    def __hash__(self) -> int:
        return hash(frozenset(self.terms.items()))

    def __repr__(self) -> str:
        return f"Poly({self.nvars}, {self.terms!r})"

    def __add__(self, other: Poly | Scalar) -> "Poly":
        if not isinstance(other, Poly) or other.nvars != self.nvars:
            other = self._operand(other)
        out = dict(self.terms)
        for key, c in other.terms.items():
            out[key] = out.get(key, 0) + c
        return self._clean(out, other)

    def __neg__(self) -> "Poly":
        return self._clean({key: -c for key, c in self.terms.items()})

    def __sub__(self, other: Poly | Scalar) -> "Poly":
        return self + -self._operand(other)

    def __mul__(self, other: Poly | Scalar) -> "Poly":
        if not isinstance(other, Poly) or other.nvars != self.nvars:
            other = self._operand(other)
        out: dict[Exponents, Exact] = {}
        # two variables, kxy's case, spelled out: the generic tuple(map(...))
        # costs several times as much per pair of terms there
        two = self.nvars == 2
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                key = (e1[0] + e2[0], e1[1] + e2[1]) if two else tuple(map(add, e1, e2))
                out[key] = out.get(key, 0) + c1 * c2
        return self._clean(out, other, True)

    def rename(self, *image: int) -> "Poly":
        """The polynomial with variable ``image[k]`` in place of variable
        ``k``, for each k: in two variables ``rename(1, 0)`` swaps them and
        ``rename(0, 0)`` puts the first in place of both."""
        n = self.nvars
        if len(image) != n:
            raise ValueError(f"no renaming of {n} variables to {image}")
        for i in image:
            if not 0 <= i < n:
                raise ValueError(f"no variable {i} among {n}")
        out: dict[Exponents, Exact] = {}
        # two variables, kxy's case, spelled out as in ``__mul__``, since the
        # list-and-tuple loop below doubles the cost of a monomial's rename:
        # x^a y^b goes to x^(a(1-i) + b(1-j)) y^(ai + bj) for the image (i, j)
        two = n == 2
        if two:
            i, j = image
        for exps, c in self.terms.items():
            if two:
                a, b = exps
                key = (a * (1 - i) + b * (1 - j), a * i + b * j)
            else:
                new = [0] * n
                for k, e in zip(image, exps):
                    new[k] += e
                key = tuple(new)
            out[key] = out.get(key, 0) + c
        return self._clean(out)

    def degree(self, i: int) -> int:
        """The degree in variable ``i``, -1 for the zero polynomial."""
        _check_variable(i, self.nvars)
        return max(map(itemgetter(i), self.terms), default=-1)

    def __call__(self, point: Sequence[Exact]) -> Exact:
        """The value at ``point``, one exact scalar per variable: an
        ``int`` when every coefficient and coordinate is one."""
        if len(point) != self.nvars:
            raise ValueError(f"a point of {len(point)} coordinates for {self.nvars} variables")
        total = 0
        for exps, c in self.terms.items():
            for x, e in zip(point, exps):
                if e:
                    c *= x ** e
            total += c
        return total


def det(rows: Sequence[Sequence[Poly]]) -> Poly:
    """Determinant of a square matrix of ``Poly`` entries in one number of
    variables, by cofactor expansion along the first row, skipping zero
    entries.  Division-free, and factorial in the size: meant for matrices
    of five rows or so."""
    size = len(rows)
    if not size or any(len(row) != size for row in rows):
        raise ValueError("determinant of an empty or non-square matrix")
    zero = Poly(rows[0][0].nvars, {})

    def expand(rows: list[list[Poly]]) -> Poly:
        if len(rows) == 1:
            return rows[0][0]
        total = zero
        for j, entry in enumerate(rows[0]):
            if entry:
                term = entry * expand([row[:j] + row[j + 1:] for row in rows[1:]])
                total = total - term if j % 2 else total + term
        return total

    return expand([list(row) for row in rows])
