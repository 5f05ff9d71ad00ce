"""Sparse exact polynomials in a fixed number of variables.

A ``Poly`` maps exponent tuples, one exponent per variable, to nonzero
coefficients.  A coefficient is an ``int`` when integral and a
``Fraction`` otherwise (``ratlin.int_or_fraction``), as in sparse rows.
Nothing here divides, so a polynomial with integer coefficients evaluated
at an integer point gives an ``int``.  ``det`` expands a determinant of
polynomial entries without division.
"""

from __future__ import annotations

from typing import Sequence, Union

from .ratlin import Exact, Scalar, int_or_fraction

Exponents = tuple[int, ...]


class Poly:
    """A polynomial in ``nvars`` variables.  ``terms`` maps exponent tuples
    of length ``nvars`` to coefficients; the constructor drops the zero
    ones and stores the rest as ``int`` where integral.  Read-only.  A
    scalar right operand of ``+``, ``-`` or ``*`` is read as a constant."""

    __slots__ = ("nvars", "terms")

    def __init__(self, nvars: int, terms: dict[Exponents, Scalar]):
        self.nvars = nvars
        self.terms = {key: v for key, c in terms.items() if (v := int_or_fraction(c))}

    @classmethod
    def var(cls, nvars: int, i: int) -> "Poly":
        """The i-th of ``nvars`` variables, 0-indexed."""
        if not 0 <= i < nvars:
            raise ValueError(f"no variable {i} among {nvars}")
        return cls(nvars, {tuple(int(j == i) for j in range(nvars)): 1})

    @classmethod
    def const(cls, nvars: int, c: Scalar) -> "Poly":
        return cls(nvars, {(0,) * nvars: c})

    def _operand(self, other: Union["Poly", Scalar]) -> "Poly":
        if not isinstance(other, Poly):
            return Poly.const(self.nvars, other)
        if other.nvars != self.nvars:
            raise ValueError(f"polynomials in {self.nvars} and {other.nvars} variables")
        return other

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, Poly):
            return self.nvars == other.nvars and self.terms == other.terms
        return NotImplemented

    def __repr__(self) -> str:
        return f"Poly({self.nvars}, {self.terms!r})"

    def __add__(self, other: Union["Poly", Scalar]) -> "Poly":
        out = dict(self.terms)
        for key, c in self._operand(other).terms.items():
            out[key] = out.get(key, 0) + c
        return Poly(self.nvars, out)

    def __neg__(self) -> "Poly":
        return Poly(self.nvars, {key: -c for key, c in self.terms.items()})

    def __sub__(self, other: Union["Poly", Scalar]) -> "Poly":
        return self + -self._operand(other)

    def __mul__(self, other: Union["Poly", Scalar]) -> "Poly":
        other = self._operand(other)
        out: dict[Exponents, Exact] = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                key = tuple(a + b for a, b in zip(e1, e2))
                out[key] = out.get(key, 0) + c1 * c2
        return Poly(self.nvars, out)

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
