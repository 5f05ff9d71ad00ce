"""Sparse exact polynomials: ring operations, stored coefficients,
evaluation, renaming variables, degrees in one variable, and the
division-free determinant."""

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


def polys_in(nvars: int):
    return st.dictionaries(
        st.tuples(*[st.integers(0, 3)] * nvars), scalars, max_size=6,
    ).map(lambda terms: Poly(nvars, terms))


polys = polys_in(NVARS)
int_points = st.tuples(*[st.integers(-5, 5)] * NVARS)
points = st.one_of(int_points, st.tuples(*[rationals] * NVARS))
variables = st.integers(0, NVARS - 1)
images = st.tuples(*[variables] * NVARS)


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

    @pytest.mark.parametrize("exps", [(1,), (1, 0, 5), (-1, 0), (0, -2),
                                      (1.5, 0), (True, 0), ("a", 0)])
    def test_malformed_exponents_are_rejected(self, exps):
        # a short tuple used to lose a variable in products, a long one in
        # evaluation; a float, a bool or a string is no exponent, bounded or not
        from diaskit.kxy import BivariatePoly
        with pytest.raises(ValueError, match="are not 2 nonnegative integers"):
            Poly(2, {exps: 1})
        with pytest.raises(ValueError, match="are not 2 nonnegative integers"):
            BivariatePoly({exps: 1}, 8)

    @given(polys)
    def test_equal_polynomials_hash_equal(self, a):
        as_fractions = Poly(NVARS, {e: Fraction(c) for e, c in a.terms.items()})
        assert as_fractions == a and hash(as_fractions) == hash(a)
        assert len({a, as_fractions}) == 1

    def test_a_bounded_subclass_compares_by_terms(self):
        from diaskit.kxy import BivariatePoly
        b = BivariatePoly({(1, 0): 2, (0, 1): Fraction(1, 2)}, 5)
        p = Poly(2, {(1, 0): Fraction(2), (0, 1): Fraction(1, 2)})
        assert b == p and p == b and hash(b) == hash(p)

    def test_bounded_and_unbounded_operands_do_not_mix(self):
        # a plain Poly has no bound to keep, so neither order may drop one
        from diaskit.kxy import BivariatePoly
        b, p = BivariatePoly({(8, 0): 1}, 8), Poly.var(2, 0)
        for op in (lambda u, v: u + v, lambda u, v: u - v, lambda u, v: u * v):
            for u, v in ((b, p), (p, b)):
                with pytest.raises(ValueError, match="unbounded"):
                    op(u, v)


class TestVariables:
    @given(polys, images, points)
    def test_rename_reads_each_variable_at_its_image(self, a, image, x):
        assert a.rename(*image)(x) == a(tuple(x[i] for i in image))

    @given(polys_in(2), st.tuples(*[st.integers(0, 1)] * 2),
           st.tuples(*[rationals] * 2))
    def test_rename_in_two_variables(self, a, image, x):
        # two variables take their own spelled-out exponent map: it agrees
        # with the general one, run in three variables with the third fixed
        renamed = a.rename(*image)
        assert renamed(x) == a(tuple(x[i] for i in image))
        lifted = Poly(3, {e + (0,): c for e, c in a.terms.items()}).rename(*image, 2)
        assert renamed.terms == {e[:2]: c for e, c in lifted.terms.items()}

    @given(polys, variables)
    def test_degree_is_the_largest_exponent_present(self, a, i):
        d = a.degree(i)
        assert d == max((e[i] for e in a.terms), default=-1)
        assert (a * Poly.var(NVARS, i)).degree(i) == (d + 1 if a else -1)

    def test_bad_variables_are_rejected(self):
        x = Poly.var(2, 0)
        for image in ((0,), (0, 2), (-1, 0), (0, 1, 1)):
            with pytest.raises(ValueError):
                x.rename(*image)
        for i in (-1, 2):
            with pytest.raises(ValueError):
                x.degree(i)


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
