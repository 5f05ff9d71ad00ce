"""Sparse exact polynomials: ring operations, stored coefficients,
evaluation and the division-free determinant."""

from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from diaskit import poly
from diaskit.poly import Poly

import exact_oracle as oracle

NVARS = 3
rationals = st.fractions(min_value=-6, max_value=6, max_denominator=4)
# Integral values drawn as Fractions too, so the test sees them stored as int.
scalars = st.one_of(st.integers(-6, 6), st.integers(-6, 6).map(Fraction), rationals)
polys = st.dictionaries(
    st.tuples(*[st.integers(0, 3)] * NVARS), scalars, max_size=6,
).map(lambda terms: Poly(NVARS, terms))
int_points = st.tuples(*[st.integers(-5, 5)] * NVARS)
points = st.one_of(int_points, st.tuples(*[rationals] * NVARS))


def stored_exactly(c) -> bool:
    """Nonzero, and an ``int`` when integral, a ``Fraction`` when not."""
    return c != 0 and type(c) is (int if Fraction(c).denominator == 1 else Fraction)


class TestRing:
    @given(polys, polys, points)
    def test_operations_agree_with_arithmetic_on_values(self, a, b, x):
        assert (a + b)(x) == a(x) + b(x)
        assert (a - b)(x) == a(x) - b(x)
        assert (-a)(x) == -a(x)
        assert (a * b)(x) == a(x) * b(x)

    @given(polys, scalars, points)
    def test_a_scalar_operand_is_a_constant(self, a, c, x):
        assert (a + c)(x) == a(x) + c
        assert (a - c)(x) == a(x) - c
        assert (a * c)(x) == a(x) * c

    @given(polys, polys)
    def test_coefficients_stay_int_while_integral(self, a, b):
        for p in (a, b, a + b, a - b, -a, a * b):
            assert all(stored_exactly(c) for c in p.terms.values())

    def test_zero_terms_are_dropped(self):
        x, y = Poly.var(2, 0), Poly.var(2, 1)
        assert (x - x).terms == {} and not (x - x)
        assert ((x + y) * (x - y)).terms == {(2, 0): 1, (0, 2): -1}
        half = Poly.const(2, Fraction(1, 2))
        assert (half + half).terms == {(0, 0): 1}
        assert type((half + half).terms[(0, 0)]) is int
        assert Poly(2, {(1, 0): 0, (0, 1): Fraction(4, 2)}).terms == {(0, 1): 2}
        assert Poly.const(2, 0).terms == {}

    @given(polys, int_points)
    def test_integer_point_gives_int(self, a, x):
        a = a * 12  # clears every denominator the strategy draws
        assert type(a(x)) is int

    def test_mismatched_arity_is_rejected(self):
        with pytest.raises(ValueError):
            Poly.var(2, 0) + Poly.var(3, 0)
        with pytest.raises(ValueError):
            Poly.var(2, 0)((1, 2, 3))
        with pytest.raises(ValueError):
            Poly.var(2, 2)


constant_squares = st.integers(1, 5).flatmap(lambda n: st.lists(
    st.lists(st.one_of(st.just(0), st.just(0), rationals), min_size=n, max_size=n),
    min_size=n, max_size=n))


class TestDet:
    @given(constant_squares)
    def test_constant_matrices_match_the_oracle(self, rows):
        value = poly.det([[Poly.const(1, x) for x in row] for row in rows])
        assert set(value.terms) <= {(0,)}
        assert value((0,)) == oracle.det(rows)

    def test_linear_entries(self):
        x, y = Poly.var(2, 0), Poly.var(2, 1)
        assert poly.det([[x, y], [y, x]]) == x * x - y * y
        assert poly.det([[x, Poly.const(2, 0)], [y, x + 1]]) == x + x * x

    def test_non_square_is_rejected(self):
        one = Poly.const(1, 1)
        with pytest.raises(ValueError):
            poly.det([[one, one]])
        with pytest.raises(ValueError):
            poly.det([])
