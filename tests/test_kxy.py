"""Truncated two-variable polynomial dialgebra and its operator forms."""

import contextlib
import hashlib
import io
import random
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from diaskit import cli, kxy
from diaskit.core import RULES, DialgebraError
from diaskit.kxy import (
    BivariatePoly,
    DegreeBoundError,
    KxyOperatorSpec,
    ann_membership,
    check_axioms_truncated,
    check_derivation_identity,
    check_dider_identity,
    dashv,
    divides_x_minus_y,
    format_poly,
    geometric_sum,
    halo_membership,
    inner_derivation_spec,
    inner_dider_apply,
    truncation,
    vdash,
)
from diaskit.ratlin import Matrix, sparse
from diaskit.spaces import derivation_space, diderivation_space

import exact_oracle as oracle
from test_call_counts import counting

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
        assert (1, 0) not in p.terms
        assert p.total_degree() == 2
        assert BivariatePoly.zero(B).total_degree() == -1

    def test_negative_exponent_rejected(self):
        with pytest.raises(ValueError):
            BivariatePoly({(-1, 0): 1}, B)

    @pytest.mark.parametrize("bound", [1.5, True, -1])
    def test_bound_not_a_nonnegative_int_is_rejected(self, bound):
        # a float or a bool bound used to be kept, and a sweep on the
        # polynomial failed later inside ``range``
        with pytest.raises(ValueError, match="is not a nonnegative integer"):
            BivariatePoly({(0, 0): 1}, bound)

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
        assert f.rename(0, 0).degree(1) <= 0
        assert f.rename(1, 1).rename(1, 0).degree(1) <= 0

    @given(polys, polys)
    @settings(max_examples=60)
    def test_subs_xx_is_multiplicative(self, f, g):
        try:
            assert (f * g).rename(0, 0) == f.rename(0, 0) * g.rename(0, 0)
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

    @pytest.mark.parametrize("seed", range(6))
    def test_seeded_products_against_the_oracle(self, seed):
        rng = random.Random(seed)

        def draw(rational):
            # up to five terms of degree at most 4, so both products fit B
            terms = {}
            for _ in range(rng.randint(1, 5)):
                a = rng.randint(0, 4)
                c = rng.randint(-5, 5)
                terms[a, rng.randint(0, 4 - a)] = Fraction(c, rng.randint(1, 4)) if rational else c
            return terms

        for rational in (False, True):
            f, g = draw(rational), draw(rational)
            for product, expected in ((dashv, oracle.poly_dashv), (vdash, oracle.poly_vdash)):
                out = product(BivariatePoly(f, B), BivariatePoly(g, B)).terms
                assert out == expected(as_oracle(f), as_oracle(g)), (product, f, g)
                if not rational:
                    assert all(type(c) is int for c in out.values())

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
        if divisible and h:
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
        assert not geometric_sum(0, B)
        assert geometric_sum(1, B) == BivariatePoly.one(B)
        assert geometric_sum(3, B) == mono(2, 0) + mono(1, 1) + mono(0, 2)

    def test_closed_form_samples(self):
        one, zero = BivariatePoly.one(B), BivariatePoly.zero(B)
        assert KxyOperatorSpec("der", one, zero).apply_monomial(1, 0) == one
        assert KxyOperatorSpec("der", one, zero).apply_monomial(0, 1) == one
        # pure multiplier part: d(x^2) gains the (x - y) g correction
        g = BivariatePoly.one(B)
        out = KxyOperatorSpec("der", zero, g).apply_monomial(2, 0)
        x_minus_y = BivariatePoly.var_x(B) - BivariatePoly.var_y(B)
        assert out == mono(2, 0) * x_minus_y * g

    @pytest.mark.parametrize("kind", sorted(RULES))
    def test_negative_exponents_are_rejected(self, kind):
        one = BivariatePoly.one(B)
        for m, n in ((-1, 0), (0, -1)):
            with pytest.raises(ValueError, match="no monomial"):
                KxyOperatorSpec(kind, one, one).apply_monomial(m, n)

    def test_identity_holds_for_valid_specs(self):
        f = BivariatePoly({(1, 0): 2, (0, 0): -1}, 6)
        g = BivariatePoly.monomial(1, 1, Fraction(1, 2), 6)
        report = check_derivation_identity(f, g)
        assert report["violations"] == []
        assert report["pairs"] > 0

    def test_derivation_spec_requires_univariate_f(self):
        with pytest.raises(ValueError, match="univariate"):
            KxyOperatorSpec("der", f=mono(0, 1), g=mono(0, 0))

    def test_inner_derivations_take_this_form(self):
        h = BivariatePoly({(2, 0): 1, (1, 0): -3}, 6)
        spec = inner_derivation_spec(h)
        assert spec.kind == "der"
        report = check_derivation_identity(spec.f, spec.g)
        assert report["violations"] == []

    @pytest.mark.parametrize("call, message", [
        (lambda: truncation(-1), "truncation degree must be nonnegative"),
        (lambda: geometric_sum(-1, B), "m must be nonnegative"),
        (lambda: KxyOperatorSpec("other", f=mono(0, 0), g=mono(0, 0)),
         "unknown operator kind 'other'"),
    ])
    def test_bad_arguments_are_rejected(self, call, message):
        with pytest.raises(ValueError) as exc:
            call()
        assert str(exc.value) == message

    @pytest.mark.parametrize("kind", ["der", "dider", "derivation", "diderivation", "inn"])
    def test_kinds_are_the_rule_names(self, kind):
        # a spec's kind is the core.RULES key of its rule, and nothing else
        one = BivariatePoly.one(B)
        if kind in RULES:
            assert KxyOperatorSpec(kind, one, one).kind == kind
        else:
            with pytest.raises(ValueError, match=f"^unknown operator kind '{kind}'$"):
                KxyOperatorSpec(kind, one, one)

    def test_inner_derivation_spec_rejects_bivariate(self):
        with pytest.raises(ValueError):
            inner_derivation_spec(mono(1, 1))


class TestDiderivationForm:
    def test_single_generator_identity_clean(self):
        w = BivariatePoly({(1, 0): 1, (0, 1): 1, (0, 0): -2}, 6)
        report = check_dider_identity(w, w)
        assert report["violations"] == []

    def test_two_generator_claim_fails(self):
        # f = 1, g = 0 is the smallest split pair; the pair (1, x) under
        # the left product already breaks the defining identity.
        report = check_dider_identity(BivariatePoly.one(5), BivariatePoly.zero(5))
        assert report["violations"]
        assert {"product": "dashv", "pair": ((0, 0), (1, 0))} in \
            report["violations"]

    def test_split_pair_counterexample_by_hand(self):
        one, zero = BivariatePoly.one(B), BivariatePoly.zero(B)
        u, v = mono(0, 0), mono(1, 0)
        spec = KxyOperatorSpec("dider", one, zero)
        lhs = spec.apply_monomial(0, 1)    # image of u -| v = y
        du = spec.apply_monomial(0, 0)
        dv = spec.apply_monomial(1, 0)
        rhs = dashv(du, v) + vdash(u, dv)
        assert lhs != rhs

    def test_monomial_image_telescopes(self):
        w = BivariatePoly({(0, 1): 1, (0, 0): 1}, B)
        spec = KxyOperatorSpec("dider", w, w)
        for m in range(1, 6):
            assert spec.apply_monomial(m, 0) == w * geometric_sum(m, B)

    def test_kills_halo_members(self):
        w = mono(1, 0) + mono(0, 1)
        spec = KxyOperatorSpec("dider", f=w, g=w)
        x_minus_y = BivariatePoly.var_x(B) - BivariatePoly.var_y(B)
        member = BivariatePoly.one(B) + x_minus_y * mono(1, 1)
        assert not spec.apply(member)

    @pytest.mark.parametrize("kind", sorted(RULES))
    def test_apply_takes_the_smallest_bound(self, kind):
        spec = KxyOperatorSpec(kind, f=BivariatePoly.one(6), g=BivariatePoly.one(7))
        # the zero polynomial as well as any other argument
        for h in (BivariatePoly.zero(10), BivariatePoly.var_x(10)):
            assert spec.apply(h).bound == 6
        assert spec.apply(BivariatePoly.zero(5)).bound == 5


def composed_derivation_apply(spec, m, n):
    """The derivation image of x^m y^n composed from ``BivariatePoly``
    products, each summand formed, checked against the bound and added on
    its own: the reference for the images of ``KxyOperatorSpec("der", f, g)``."""
    f, g = spec
    bound = min(f.bound, g.bound)
    out = BivariatePoly.zero(bound)
    if m > 0:
        out = out + BivariatePoly.monomial(m - 1, n, m, bound) * f
    if g:
        out = out + BivariatePoly({(m + 1, n): 1, (m, n + 1): -1}, bound) * g
    if n > 0:
        out = out + BivariatePoly.monomial(m, n - 1, n, bound) * f.rename(1, 0)
    return out


def composed_diderivation_apply(spec, m, n):
    """The diderivation image of x^m y^n composed from ``BivariatePoly``
    products, as ``composed_derivation_apply``: the reference for the
    images of ``KxyOperatorSpec("dider", f, g)``."""
    f, g = spec
    bound = min(f.bound, g.bound)
    out = BivariatePoly.zero(bound)
    if m > 0 and f:
        out = out + f * BivariatePoly({(k, n + m - 1 - k): 1 for k in range(m)}, bound)
    if n > 0 and g:
        out = out + g * BivariatePoly({(m + k, n - 1 - k): 1 for k in range(n)}, bound)
    return out


COMPOSED = {"der": composed_derivation_apply, "dider": composed_diderivation_apply}


@st.composite
def closed_form_cases(draw):
    """(kind, f, g, m, n): f and g of bounds 3 to 8, f univariate for a
    derivation, and m, n up to one past the smaller bound."""
    kind = draw(st.sampled_from(sorted(COMPOSED)))
    spec = []
    for univariate in (kind == "der", False):
        bound = draw(st.integers(3, 8))
        if univariate:
            exps = st.integers(0, bound).map(lambda a: (a, 0))
        else:
            exps = st.integers(0, bound).flatmap(
                lambda t: st.integers(0, t).map(lambda a, t=t: (a, t - a)))
        terms = draw(st.dictionaries(
            exps, st.integers(-2, 2) | st.fractions(-2, 2, max_denominator=3), max_size=4))
        spec.append(BivariatePoly(terms, bound))
    top = min(p.bound for p in spec) + 1
    return kind, *spec, draw(st.integers(0, top)), draw(st.integers(0, top))


class TestClosedFormsAgainstComposedProducts:
    """The closed forms write each image term by term into one dict; they
    equal the sum of the summands' products and raise where one of those
    products passes the bound, even when the sum cancels it."""

    @given(closed_form_cases())
    @settings(max_examples=300)
    # f y S_1 + g x S_1 = x^7 y - x^7 y: the sum is 0, the summands pass bound 7
    @example(("dider", BivariatePoly({(7, 0): 1}, 7),
              BivariatePoly({(6, 1): -1}, 7), 1, 1))
    # f = g = 0, yet the factor m x^(m-1) y^n alone passes the bound
    @example(("der", BivariatePoly.zero(8), BivariatePoly.zero(8), 9, 1))
    def test_images_equal_the_composed_formula(self, case):
        kind, f, g, m, n = case
        spec = KxyOperatorSpec(kind, f, g)
        try:
            expected = COMPOSED[kind]((f, g), m, n)
        except DegreeBoundError:
            bound = min(f.bound, g.bound)
            with pytest.raises(DegreeBoundError,
                               match=f"^degree bound exceeded: .* with bound {bound}$"):
                spec.apply_monomial(m, n)
            return
        image = spec.apply_monomial(m, n)
        assert type(image) is BivariatePoly and image.bound == expected.bound
        assert {e: (c, type(c)) for e, c in image.terms.items()} == \
            {e: (c, type(c)) for e, c in expected.terms.items()}


class TestInnerDiderivations:
    def test_routes_agree_on_samples(self):
        p = BivariatePoly({(1, 0): 1, (0, 2): -1}, B)
        h = BivariatePoly({(2, 1): 2, (0, 0): 5}, B)
        out = inner_dider_apply(p, h)
        assert out == p * (h.rename(0, 0) - h.rename(1, 1))

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


class TestCoefficients:
    def test_integral_coefficients_are_ints(self):
        p, q = BivariatePoly({(0, 0): 2}, B), BivariatePoly({(0, 0): Fraction(2)}, B)
        assert p == q and hash(p) == hash(q)
        assert format_poly(p) == format_poly(q) == "2"
        assert type(p.terms[(0, 0)]) is int and type(q.terms[(0, 0)]) is int
        assert type(BivariatePoly({(0, 0): "-3/1"}, B).terms[(0, 0)]) is int

    def test_halves_survive_arithmetic_exactly(self):
        half = Fraction(1, 2)
        p = BivariatePoly({(1, 0): half, (0, 1): Fraction(-3, 2)}, B)
        assert (p + p).terms == {(1, 0): 1, (0, 1): -3}
        assert type((p + p).terms[(1, 0)]) is int
        assert (p + mono(1, 0)).terms == {(1, 0): Fraction(3, 2), (0, 1): Fraction(-3, 2)}
        assert (p * p).terms == {(2, 0): Fraction(1, 4), (1, 1): Fraction(-3, 2),
                                  (0, 2): Fraction(9, 4)}
        assert (p * Fraction(2, 3)).terms == {(1, 0): Fraction(1, 3), (0, 1): -1}
        assert (p * 2).terms == {(1, 0): 1, (0, 1): -3}
        assert p.rename(0, 0).terms == {(1, 0): -1}
        assert p.rename(1, 1).terms == {(0, 1): -1}
        assert p.rename(1, 0).terms == {(0, 1): half, (1, 0): Fraction(-3, 2)}
        collapsed = BivariatePoly({(1, 0): half, (0, 1): half}, B).rename(1, 1)
        assert collapsed.terms == {(0, 1): 1} and type(collapsed.terms[(0, 1)]) is int
        assert not p - p
        assert format_poly(p) == "1/2*x - 3/2*y"

    def test_scale_by_zero_is_the_zero_polynomial(self):
        p = BivariatePoly({(1, 0): Fraction(1, 2), (0, 3): 4}, B)
        for zero in (0, Fraction(0), "0"):
            assert not p * zero
            assert (p * zero).bound == B

    def test_every_bound_check_still_raises(self):
        with pytest.raises(DegreeBoundError):
            BivariatePoly({(3, 4): Fraction(1, 2)}, 6)
        with pytest.raises(DegreeBoundError):
            BivariatePoly({(3, 0): 2}, 6) * BivariatePoly({(2, 2): Fraction(1, 3)}, 6)
        high = BivariatePoly({(5, 0): 1}, 6)
        for low in (BivariatePoly.zero(4), BivariatePoly.one(4)):
            with pytest.raises(DegreeBoundError):
                high + low
            with pytest.raises(DegreeBoundError):
                low + high
        assert (high + BivariatePoly.one(6)).bound == 6

    @given(st.data())
    @settings(max_examples=150)
    def test_products_raise_exactly_past_the_bound(self, data):
        # over Q the top-degree parts of nonzero factors cannot cancel, so a
        # product leaves the smaller bound exactly when the oracle's does
        def draw():
            bound = data.draw(st.integers(3, 8))
            total = st.integers(0, bound).flatmap(
                lambda t: st.tuples(st.integers(0, t), st.just(t)))
            terms = data.draw(st.dictionaries(
                total.map(lambda at: (at[0], at[1] - at[0])),
                st.fractions(min_value=-4, max_value=4, max_denominator=3), max_size=4))
            return BivariatePoly(terms, bound), as_oracle(terms)

        (f, of), (g, og) = draw(), draw()
        expected = oracle.poly_mul(of, og)
        if oracle.poly_degree(expected) > min(f.bound, g.bound):
            with pytest.raises(DegreeBoundError):
                f * g
        else:
            assert (f * g).terms == expected
            assert (f * g).bound == min(f.bound, g.bound)

    @pytest.mark.parametrize("text", ["1e40", "1.5", "0.5", "1_000", " 1", "1/0"])
    def test_strings_outside_the_grammar_are_rejected(self, text):
        # the grammar check runs before any number is built from the text
        with pytest.raises(ValueError, match="expected an integer|zero denominator"):
            BivariatePoly({(0, 0): text}, B)

    def test_floats_are_rejected(self):
        with pytest.raises(TypeError):
            BivariatePoly({(0, 0): 0.1}, B)
        with pytest.raises(TypeError):
            mono(1, 0) * 0.5

    def test_strings_in_the_grammar_are_read(self):
        assert BivariatePoly({(1, 0): "-2/4"}, B) == mono(1, 0, Fraction(-1, 2))


# the operators that ``diaskit kxy`` checks
KXY_DERIVATIONS = [
    ({(0, 0): 1}, {}),
    ({(1, 0): 1}, {(1, 1): 1}),
    ({(2, 0): 3, (0, 0): -1}, {(0, 2): 1, (1, 0): 2}),
]
KXY_DIDERIVATIONS = [
    ({(0, 0): 1}, {(0, 0): 1}),
    ({(1, 0): 1, (0, 1): 1}, {(1, 0): 1, (0, 1): 1}),
    ({(1, 1): 1, (0, 0): 2}, {(1, 1): 1, (0, 0): 2}),
    ({(0, 0): 1}, {}),
]
# operators with denominators 2 and 3, some coefficients int and some
# Fraction; the last diderivation has f != g, so it has violations
FRACTIONAL_DERIVATIONS = [
    ({(1, 0): Fraction(1, 2), (0, 0): 3}, {(0, 1): Fraction(2, 3), (1, 0): -1}),
    ({(2, 0): Fraction(-1, 3), (0, 0): Fraction(5, 2)}, {(1, 1): Fraction(1, 6)}),
]
FRACTIONAL_DIDERIVATIONS = [
    ({(1, 0): 2, (0, 1): Fraction(1, 2), (0, 0): 3},
     {(1, 0): 2, (0, 1): Fraction(1, 2), (0, 0): 3}),
    ({(1, 1): Fraction(2, 3), (0, 0): Fraction(-1, 2)},
     {(1, 1): Fraction(2, 3), (0, 0): Fraction(-1, 2)}),
    ({(0, 1): Fraction(1, 3), (0, 0): Fraction(1, 2)}, {(1, 0): Fraction(2, 3), (0, 0): 1}),
]


def as_oracle(terms):
    return {e: Fraction(c) for e, c in terms.items()}


class TestAgainstOracle:
    """The sweeps against ``exact_oracle``, which expands every product from
    its exponent map on plain dicts and shares no code with ``kxy``."""

    def test_axiom_sweep(self):
        triples, violations = oracle.kxy_axiom_sweep(6)
        report = check_axioms_truncated(6)
        assert violations == [] and report["violations"] == []
        # six exponents with sum at most 6: C(12, 6) triples
        assert report["triples"] == triples == 924

    @pytest.mark.parametrize("f, g", KXY_DERIVATIONS + FRACTIONAL_DERIVATIONS)
    def test_derivation_sweeps(self, f, g):
        pairs, violations = oracle.kxy_identity_sweep(
            as_oracle(f), as_oracle(g), 6, twisted=False)
        report = check_derivation_identity(BivariatePoly(f, 6), BivariatePoly(g, 6))
        assert (report["pairs"], report["violations"]) == (pairs, violations)
        assert pairs > 0 and violations == []

    @pytest.mark.parametrize("f, g", KXY_DIDERIVATIONS + FRACTIONAL_DIDERIVATIONS)
    def test_diderivation_sweeps(self, f, g):
        pairs, violations = oracle.kxy_identity_sweep(
            as_oracle(f), as_oracle(g), 6, twisted=True)
        report = check_dider_identity(BivariatePoly(f, 6), BivariatePoly(g, 6))
        assert (report["pairs"], report["violations"]) == (pairs, violations)
        assert pairs > 0
        assert bool(violations) is (f != g)
        if f != g:
            # criterion 9: 1 -| x = y, and delta(y) - (delta(1) -| x + 1 |- delta(x)) = g - f
            assert violations[0] == {"product": "dashv", "pair": ((0, 0), (1, 0))}

    @pytest.mark.parametrize("check, f, g", [
        *((check_derivation_identity, f, g) for f, g in KXY_DERIVATIONS + FRACTIONAL_DERIVATIONS),
        *((check_dider_identity, f, g) for f, g in KXY_DIDERIVATIONS + FRACTIONAL_DIDERIVATIONS),
    ])
    @pytest.mark.parametrize("c", [Fraction(-2, 3), 6, Fraction(7, 5)])
    def test_scaled_operator_keeps_the_report(self, check, f, g, c):
        # both sides of the identity are linear in the operator, so c * spec
        # has the same pairs and the same violations as spec
        report = check(BivariatePoly(f, 6), BivariatePoly(g, 6))
        scaled = check(BivariatePoly(f, 6) * c, BivariatePoly(g, 6) * c)
        assert scaled == report

    @pytest.mark.parametrize("f, g", KXY_DERIVATIONS[1:] + FRACTIONAL_DERIVATIONS[1:])
    def test_cancelled_right_sides_compare_equal(self, f, g):
        # a right side summed term by term can hold a coefficient that
        # cancels to zero, which an image never holds: for g = xy,
        # d(1) = x^2 y - x y^2 and 1 -| d(1) sums to y^3 - y^3.  Each of
        # these specs, with g of degree 2, meets 70 such sides at bound 6,
        # and they still compare equal to the left side
        f, g = as_oracle(f), as_oracle(g)
        growth = max(oracle.poly_degree(f) - 1, oracle.poly_degree(g) + 1, 0)
        cancelled = 0
        for u in oracle.monomials(6 - growth):
            for v in oracle.monomials(6 - growth - sum(u)):
                image_u, image_v = (oracle.derivation_image(f, g, *e) for e in (u, v))
                for mul in (oracle.poly_dashv, oracle.poly_vdash):
                    # d(u) o v + u o d(v), summed without dropping zeros
                    side = {}
                    for t, c in image_u.items():
                        (w,) = mul({t: 1}, {v: 1})
                        side[w] = side.get(w, 0) + c
                    for t, c in image_v.items():
                        (w,) = mul({u: 1}, {t: 1})
                        side[w] = side.get(w, 0) + c
                    cancelled += 0 in side.values()
        assert cancelled > 0
        report = check_derivation_identity(BivariatePoly(f, 6), BivariatePoly(g, 6))
        assert report["violations"] == []

    def test_monomial_images(self):
        for spec_kind, specs, image in (
                ("der", KXY_DERIVATIONS + FRACTIONAL_DERIVATIONS,
                 oracle.derivation_image),
                ("dider", KXY_DIDERIVATIONS + FRACTIONAL_DIDERIVATIONS,
                 oracle.diderivation_image)):
            for f, g in specs:
                spec = KxyOperatorSpec(spec_kind, f=BivariatePoly(f, 12),
                                       g=BivariatePoly(g, 12))
                for m, n in oracle.monomials(6):
                    assert spec.apply_monomial(m, n).terms == \
                        image(as_oracle(f), as_oracle(g), m, n), (spec_kind, f, g, m, n)


class TestProductTable:
    """The sweeps read every product of monomials from a table built by
    ``dashv`` and ``vdash`` themselves, so a wrong product shows in the
    report and a product that is not a monomial of coefficient 1 raises."""

    @pytest.mark.parametrize("product, wrong, exponent, count", [
        # f -| g = f * g instead of f * g(y,y)
        ("dashv", lambda f, g: f * g, lambda a, b, p, q: (a + p, b + q), 210),
        # f -| g = f * g(y,x)
        ("dashv", lambda f, g: f * g.rename(1, 0), lambda a, b, p, q: (a + q, b + p), 650),
        # f |- g = (f * g)(x,x) instead of f(x,x) * g
        ("vdash", lambda f, g: (f * g).rename(0, 0), lambda a, b, p, q: (a + b + p + q, 0), 336),
        # f -| g = f * g(x,x) gives a dialgebra as well
        ("dashv", lambda f, g: f * g.rename(0, 0), lambda a, b, p, q: (a + p + q, b), 0),
    ])
    def test_wrong_product_matches_the_oracle(self, monkeypatch, product, wrong, exponent,
                                              count):
        triples, expected = oracle.kxy_axiom_sweep(5, **{product: exponent})
        monkeypatch.setattr(kxy, product, wrong)
        report = check_axioms_truncated(5)
        assert report["triples"] == triples == 462 and len(expected) == count
        assert [(v["axiom"], v["triple"]) for v in report["violations"]] == expected

    @pytest.mark.parametrize("product", ["dashv", "vdash"])
    @pytest.mark.parametrize("sweep", [
        lambda: check_axioms_truncated(4),
        lambda: check_dider_identity(BivariatePoly.one(B), BivariatePoly.one(B)),
        lambda: check_derivation_identity(BivariatePoly.var_x(B), BivariatePoly.zero(B)),
    ])
    def test_non_unit_monomial_product_raises(self, monkeypatch, product, sweep):
        original = getattr(kxy, product)
        monkeypatch.setattr(kxy, product, lambda f, g: original(f, g) * 2)
        with pytest.raises(AssertionError, match="not a monomial of coefficient 1"):
            sweep()

    @pytest.mark.parametrize("product, wrong, exponent", [
        ("dashv", lambda f, g: f * g.rename(1, 0), lambda a, b, p, q: (a + q, b + p)),
        ("vdash", lambda f, g: (f * g).rename(0, 0), lambda a, b, p, q: (a + b + p + q, 0)),
        # a dialgebra, under which the derivation forms stay derivations
        ("dashv", lambda f, g: f * g.rename(0, 0), lambda a, b, p, q: (a + p + q, b)),
    ])
    @pytest.mark.parametrize("check, twisted, f, g", [
        (check_derivation_identity, False, *KXY_DERIVATIONS[2]),
        (check_dider_identity, True, *KXY_DIDERIVATIONS[2]),
        (check_dider_identity, True, *KXY_DIDERIVATIONS[3]),
    ])
    def test_wrong_product_in_identity_sweeps_matches_the_oracle(
            self, monkeypatch, product, wrong, exponent, check, twisted, f, g):
        # both sides of the identities take their products from the table,
        # the right side by bilinearity; the oracle expands every product
        pairs, expected = oracle.kxy_identity_sweep(
            as_oracle(f), as_oracle(g), 6, twisted, **{product: exponent})
        monkeypatch.setattr(kxy, product, wrong)
        report = check(BivariatePoly(f, 6), BivariatePoly(g, 6))
        assert (report["pairs"], report["violations"]) == (pairs, expected)

    @pytest.mark.parametrize("check, f, g, bound, growth", [
        (check_derivation_identity, {(1, 0): 1}, {(2, 1): 1}, 3, 4),
    ])
    def test_growth_past_the_bound_raises(self, monkeypatch, check, f, g, bound, growth):
        # no pair is in range, and a sweep of no pairs would pass silently;
        # the check raises before it builds a product table
        monkeypatch.setattr(kxy, "_build_product_table", None)
        with pytest.raises(DegreeBoundError, match=f"by {growth}, above the bound {bound}"):
            check(BivariatePoly(f, bound), BivariatePoly(g, bound))

    def test_product_of_two_terms_raises(self, monkeypatch):
        monkeypatch.setattr(kxy, "dashv", lambda f, g: f * g.rename(1, 1) + BivariatePoly.var_x(B))
        with pytest.raises(AssertionError, match="not a monomial of coefficient 1"):
            check_axioms_truncated(4)


def truncated_operator(spec, n):
    """The matrix of a closed form that does not lower degree on
    ``truncation(n)``: column j is the image of the j-th monomial with its
    terms of degree above n dropped."""
    index = {e: i for i, e in enumerate(oracle.monomials(n))}
    cols = []
    for m, k in index:
        col = [Fraction(0)] * len(index)
        for e, c in spec.apply_monomial(m, k).terms.items():
            if sum(e) <= n:
                col[index[e]] = Fraction(c)
        cols.append(col)
    return Matrix(list(zip(*cols)))


class TestTruncation:
    @pytest.mark.parametrize("n", range(1, 7))
    def test_is_a_dialgebra(self, n):
        d = truncation(n)
        assert d.dim == (n + 1) * (n + 2) // 2
        assert d.verify_axioms() == []

    def test_products_against_the_oracle(self):
        n = 3
        d = truncation(n)
        index = {e: i for i, e in enumerate(oracle.monomials(n))}
        for name, product in (("dashv", oracle.poly_dashv), ("vdash", oracle.poly_vdash)):
            for u, i in index.items():
                for v, j in index.items():
                    (w,) = product({u: Fraction(1)}, {v: Fraction(1)})
                    expected = oracle.unit(d.dim, index[w]) if sum(w) <= n else [0] * d.dim
                    assert d.table(name)[i][j] == sparse(expected), (name, u, v)

    def test_above_the_dimension_cap(self, monkeypatch):
        # rejected before the product table of bound 7 is built
        calls = Counter()
        counting(monkeypatch, kxy, "_product_table", calls)
        with pytest.raises(DialgebraError, match="dimension 36 outside supported range"):
            truncation(7)
        assert calls["_product_table"] == 0

    # Closed forms that do not lower degree descend to truncation(5); the
    # solver's kernels agree with the bounded sweep on each of them.
    @pytest.mark.parametrize("f, g", [
        ({(1, 0): 1}, {}),
        ({}, {(1, 0): 1}),
        ({(1, 0): 1}, {(1, 1): 1}),    # f=x, g=xy of the kxy report
    ])
    def test_derivation_forms_lie_in_der(self, f, g):
        spec = KxyOperatorSpec("der", f=BivariatePoly(f, 9), g=BivariatePoly(g, 9))
        assert derivation_space(truncation(5)).contains(truncated_operator(spec, 5).flatten())
        assert check_derivation_identity(spec.f, spec.g)["violations"] == []

    @pytest.mark.parametrize("f, g, member", [
        ({(1, 0): 1, (0, 1): 1}, {(1, 0): 1, (0, 1): 1}, True),    # f=g=x+y of the kxy report
        ({(1, 0): 1}, {}, False),
        ({(1, 0): 1}, {(0, 1): 1}, False),
        ({(0, 1): 1}, {(1, 0): 1}, False),
    ])
    def test_diderivation_forms_against_dider(self, f, g, member):
        spec = KxyOperatorSpec("dider", f=BivariatePoly(f, 9), g=BivariatePoly(g, 9))
        assert diderivation_space(truncation(5)).contains(
            truncated_operator(spec, 5).flatten()) is member
        assert (check_dider_identity(spec.f, spec.g)["violations"] == []) is member


# sha256 of the stdout of ``diaskit kxy --bound B --machine`` for the bounds
# the benchmark reference does not cover (it pins 6, 8 and 10)
KXY_REPORT_DIGESTS = {
    4: "69b7d1f8a8ba911176f9392e41858486b6448138269bf8daddb9f9cb8c5661d9",
    5: "4bf4709ffd8f9deb60493bcaa0bdb4d9374b292d94552c8a5eb27b535fc8097f",
    7: "c6a6c616defe56296fb53abca3d303e2665f9e3fa87cf8710974c7f6b2883835",
    9: "b5910d32f677aee7f9cbc8f1a8cab9a68638a2e6396b74baaabc5e600906c57b",
    11: "51d60dd50d4492d6018d3e36dad5fa83dcaa118052abe2336b3696b84e6a0b04",
    12: "7f5ce258fd081d22c90e822b6465ca088fac6f0275bda2bcb6147fe501dcd591",
}


@pytest.mark.parametrize("bound", sorted(KXY_REPORT_DIGESTS))
def test_machine_report_is_unchanged(bound):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(["kxy", "--bound", str(bound), "--machine"]) == 0
    assert hashlib.sha256(out.getvalue().encode()).hexdigest() == KXY_REPORT_DIGESTS[bound]
