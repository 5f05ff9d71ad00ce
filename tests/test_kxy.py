"""Truncated two-variable polynomial dialgebra and its operator forms."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from diaskit.kxy import (
    BivariatePoly,
    DegreeBoundError,
    KxyOperatorSpec,
    ann_membership,
    check_axioms_truncated,
    check_derivation_identity,
    check_dider_identity,
    dashv,
    derivation_apply,
    diderivation_apply,
    divides_x_minus_y,
    format_poly,
    geometric_sum,
    halo_membership,
    inner_derivation_spec,
    inner_dider_apply,
    vdash,
)

B = 8

coeff_dicts = st.dictionaries(
    st.tuples(st.integers(min_value=0, max_value=4),
              st.integers(min_value=0, max_value=3)),
    st.fractions(min_value=-5, max_value=5, max_denominator=4),
    max_size=5)

polys = coeff_dicts.map(lambda d: BivariatePoly(d, B))


def mono(a, b, c=1):
    return BivariatePoly.monomial(a, b, c, B)


class TestPolyRing:
    def test_zero_drops_and_degree(self):
        p = BivariatePoly({(1, 0): 0, (0, 2): 3}, B)
        assert (1, 0) not in p.coeffs
        assert p.total_degree() == 2
        assert BivariatePoly.zero(B).total_degree() == -1

    def test_negative_exponent_rejected(self):
        with pytest.raises(ValueError):
            BivariatePoly({(-1, 0): 1}, B)

    def test_bound_enforced_on_build_and_mul(self):
        with pytest.raises(DegreeBoundError):
            BivariatePoly({(5, 4): 1}, B)
        with pytest.raises(DegreeBoundError):
            mono(4, 1) * mono(4, 0)

    @given(polys, polys, polys)
    @settings(max_examples=60)
    def test_ring_laws(self, f, g, h):
        try:
            assert f * g == g * f
            assert (f + g) * h == f * h + g * h
        except DegreeBoundError:
            pass

    @given(polys)
    def test_substitutions_collapse_variables(self, f):
        assert f.subs_xx().is_univariate_x()
        assert f.subs_yy().swap_vars().is_univariate_x()

    @given(polys, polys)
    @settings(max_examples=60)
    def test_subs_xx_is_multiplicative(self, f, g):
        try:
            assert (f * g).subs_xx() == f.subs_xx() * g.subs_xx()
        except DegreeBoundError:
            pass


class TestProducts:
    def test_monomial_products(self):
        one, x, y = BivariatePoly.one(B), BivariatePoly.var_x(B), \
            BivariatePoly.var_y(B)
        assert dashv(one, x) == y
        assert vdash(x, one) == x
        assert dashv(x, x) == mono(1, 1)
        assert vdash(y, one) == x

    def test_axiom_sweep_clean(self):
        report = check_axioms_truncated(5)
        assert report["violations"] == []
        assert report["triples"] > 0

    def test_axiom_sweep_needs_room(self):
        with pytest.raises(ValueError):
            check_axioms_truncated(2)


class TestAnnihilatorAndHalo:
    def test_difference_generator(self):
        x_minus_y = BivariatePoly.var_x(B) - BivariatePoly.var_y(B)
        assert ann_membership(x_minus_y)
        assert not ann_membership(BivariatePoly.var_x(B))

    @given(polys)
    @settings(max_examples=80)
    def test_membership_equals_divisibility(self, h):
        divisible, quotient = divides_x_minus_y(h)
        assert divisible == ann_membership(h)
        if divisible and not h.is_zero():
            x_minus_y = BivariatePoly.var_x(B) - BivariatePoly.var_y(B)
            assert quotient * x_minus_y == h

    @given(polys)
    @settings(max_examples=40)
    def test_constructed_multiples_are_members(self, h):
        x_minus_y = BivariatePoly.var_x(B) - BivariatePoly.var_y(B)
        try:
            prod = x_minus_y * h
        except DegreeBoundError:
            return
        assert ann_membership(prod)

    def test_halo_is_one_plus_annihilator(self):
        one = BivariatePoly.one(B)
        assert halo_membership(one)
        shift = (BivariatePoly.var_y(B) - BivariatePoly.var_x(B)) * mono(2, 1)
        assert halo_membership(one + shift)
        assert not halo_membership(BivariatePoly.var_y(B))


class TestDerivationForm:
    def test_geometric_sum_values(self):
        assert geometric_sum(0, B).is_zero()
        assert geometric_sum(1, B) == BivariatePoly.one(B)
        assert geometric_sum(3, B) == mono(2, 0) + mono(1, 1) + mono(0, 2)

    def test_closed_form_samples(self):
        one, zero = BivariatePoly.one(B), BivariatePoly.zero(B)
        assert derivation_apply((one, zero), 1, 0) == one
        assert derivation_apply((one, zero), 0, 1) == one
        # pure multiplier part: d(x^2) gains the (x - y) g correction
        g = BivariatePoly.one(B)
        out = derivation_apply((zero, g), 2, 0)
        x_minus_y = BivariatePoly.var_x(B) - BivariatePoly.var_y(B)
        assert out == mono(2, 0) * x_minus_y * g

    def test_identity_holds_for_valid_specs(self):
        f = BivariatePoly({(1, 0): 2, (0, 0): -1}, B)
        g = mono(1, 1, Fraction(1, 2))
        report = check_derivation_identity(f, g, bound=6)
        assert report["violations"] == []
        assert report["pairs"] > 0

    def test_derivation_spec_requires_univariate_f(self):
        with pytest.raises(ValueError, match="univariate"):
            KxyOperatorSpec("derivation", f=mono(0, 1), g=mono(0, 0))

    def test_inner_derivations_take_this_form(self):
        h = BivariatePoly({(2, 0): 1, (1, 0): -3}, B)
        spec = inner_derivation_spec(h)
        assert spec.kind == "derivation"
        report = check_derivation_identity(spec.f, spec.g, bound=6)
        assert report["violations"] == []

    def test_inner_derivation_spec_rejects_bivariate(self):
        with pytest.raises(ValueError):
            inner_derivation_spec(mono(1, 1))


class TestDiderivationForm:
    def test_single_generator_identity_clean(self):
        w = BivariatePoly({(1, 0): 1, (0, 1): 1, (0, 0): -2}, B)
        report = check_dider_identity(w, w, bound=6)
        assert report["violations"] == []

    def test_two_generator_claim_fails(self):
        # f = 1, g = 0 is the smallest split pair; the pair (1, x) under
        # the left product already breaks the defining identity.
        report = check_dider_identity(
            BivariatePoly.one(B), BivariatePoly.zero(B), bound=5)
        assert report["violations"]
        assert {"product": "dashv", "pair": ((0, 0), (1, 0))} in \
            report["violations"]

    def test_split_pair_counterexample_by_hand(self):
        one, zero = BivariatePoly.one(B), BivariatePoly.zero(B)
        u, v = mono(0, 0), mono(1, 0)
        lhs = diderivation_apply((one, zero), 0, 1)    # image of u -| v = y
        du = diderivation_apply((one, zero), 0, 0)
        dv = diderivation_apply((one, zero), 1, 0)
        rhs = dashv(du, v) + vdash(u, dv)
        assert lhs != rhs

    def test_monomial_image_telescopes(self):
        w = BivariatePoly({(0, 1): 1, (0, 0): 1}, B)
        for m in range(1, 6):
            assert diderivation_apply((w, w), m, 0) == \
                w * geometric_sum(m, B)

    def test_kills_halo_members(self):
        w = mono(1, 0) + mono(0, 1)
        spec = KxyOperatorSpec("diderivation", f=w, g=w)
        x_minus_y = BivariatePoly.var_x(B) - BivariatePoly.var_y(B)
        member = BivariatePoly.one(B) + x_minus_y * mono(1, 1)
        assert spec.apply(member).is_zero()


class TestInnerDiderivations:
    def test_routes_agree_on_samples(self):
        p = BivariatePoly({(1, 0): 1, (0, 2): -1}, B)
        h = BivariatePoly({(2, 1): 2, (0, 0): 5}, B)
        out = inner_dider_apply(p, h)
        assert out == p * (h.subs_xx() - h.subs_yy())

    def test_adjoint_of_x_on_x(self):
        x = BivariatePoly.var_x(B)
        assert inner_dider_apply(x, x) == mono(2, 0) - mono(1, 1)

    @given(polys, polys)
    @settings(max_examples=50)
    def test_image_lands_in_annihilator(self, p, h):
        try:
            out = inner_dider_apply(p, h)
        except DegreeBoundError:
            return
        assert ann_membership(out)


def read_poly(text):
    """Read `format_poly` output back into a polynomial.

    A reader kept beside the tests: the round trip shows that the text form
    loses nothing (every term, sign, coefficient and exponent is recoverable).
    """
    if text == "0":
        return BivariatePoly.zero(B)
    tokens = text.split(" ")
    signs = ["-" if tokens[0].startswith("-") else "+"] + tokens[1::2]
    bodies = [tokens[0].removeprefix("-")] + tokens[2::2]
    assert len(signs) == len(bodies) and set(signs) <= {"+", "-"}, text
    coeffs = {}
    for sign, body in zip(signs, bodies):
        c, a, b = Fraction(1), 0, 0
        for factor in body.split("*"):
            var, _, exp = factor.partition("^")
            if var == "x":
                a = int(exp or 1)
            elif var == "y":
                b = int(exp or 1)
            else:
                c = Fraction(factor)
        assert (a, b) not in coeffs, text
        coeffs[(a, b)] = -c if sign == "-" else c
    return BivariatePoly(coeffs, B)


class TestTextForm:
    @given(polys)
    @settings(max_examples=80)
    def test_format_parse_roundtrip(self, p):
        assert read_poly(format_poly(p)) == p

    def test_parse_examples(self):
        for text, p in (
                ("x - y", BivariatePoly.var_x(B) - BivariatePoly.var_y(B)),
                ("3*x^2*y - 1/2", mono(2, 1, 3) + mono(0, 0, Fraction(-1, 2))),
                ("-x*y", mono(1, 1, -1))):
            assert read_poly(text) == p
            assert format_poly(p) == text

    def test_format_examples(self):
        assert format_poly(BivariatePoly.zero(B)) == "0"
        assert format_poly(BivariatePoly.one(B)) == "1"
        assert format_poly(
            BivariatePoly.var_x(B) - BivariatePoly.var_y(B)) == "x - y"
        assert format_poly(
            mono(2, 1, 3) + mono(0, 0, Fraction(-1, 2))) == "3*x^2*y - 1/2"
        assert format_poly(mono(1, 1, -1)) == "-x*y"
        assert format_poly(mono(0, 2, Fraction(4, 3)) + mono(3, 0, 1)
                           + mono(1, 2, -2)) == "x^3 - 2*x*y^2 + 4/3*y^2"
