"""Annihilator, bar-center, halo, induced bracket, and combined space."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from diaskit import invariants
from diaskit.catalog import ENTRY_NAMES, instantiate
from diaskit.core import Dialgebra, phi_dialgebra
from diaskit.invariants import (
    LeibnizAlgebra,
    annihilator,
    bar_center,
    check_bider_leibniz,
    check_invariant_actions,
    halo,
)
from diaskit.ratlin import Subspace
from diaskit.spaces import derivation_space, diderivation_space

import exact_oracle as oracle
from test_ratlin import kernel_cases

phis = st.integers(min_value=2, max_value=4).flatmap(
    lambda n: st.lists(
        st.fractions(min_value=-3, max_value=3, max_denominator=2),
        min_size=n, max_size=n)
).filter(lambda w: any(x != 0 for x in w))

# Random structure constants in {-1, 0, 1}: almost never a dialgebra.
random_cubes = st.integers(min_value=2, max_value=3).flatmap(
    lambda n: st.tuples(*[st.lists(st.lists(st.lists(
        st.sampled_from((-1, 0, 1)), min_size=n, max_size=n),
        min_size=n, max_size=n), min_size=n, max_size=n)] * 2))

FIXED_ENTRIES = [name for name in ENTRY_NAMES
                 if name not in ("Dias2_3", "Dias3_16", "Dias3_17")]


class TestInvariantSets:
    def test_annihilator_measures_product_gap(self):
        d = instantiate("Dias2_1")
        assert annihilator(d) == Subspace(2, [(0, 1)])
        assert bar_center(d) == Subspace(2, [(0, 1)])
        assert halo(d).is_empty

    def test_three_dim_sample(self):
        d = instantiate("Dias3_1")
        assert annihilator(d) == Subspace(3, [(1, 0, 0)])
        assert halo(d).is_empty

    @given(phis)
    @settings(max_examples=25, deadline=None)
    def test_phi_family_is_unital_with_hyperplane_annihilator(self, weights):
        d = phi_dialgebra(weights)
        n = d.dim
        ann = annihilator(d)
        assert ann.dim == n - 1
        assert ann == bar_center(d)
        units = halo(d)
        assert not units.is_empty
        assert units.direction == ann
        # the unit functional evaluates to 1 on any bar unit
        e = units.point
        assert sum(w * x for w, x in zip(weights, e)) == 1

    def test_halo_membership(self):
        d = phi_dialgebra((1, 0))
        units = halo(d)
        assert units.contains((1, 0))
        assert units.contains((1, 7))
        assert not units.contains((2, 0))

    @pytest.mark.parametrize("d", [pytest.param(d, id=label) for label, d in kernel_cases()])
    def test_bar_center_and_halo_match_oracle(self, d):
        # the catalog and phi n = 2..6
        check_halo_against_oracle(d)

    @given(random_cubes, st.booleans())
    @settings(max_examples=80, deadline=None)
    def test_halo_on_random_cubes(self, cubes, unital):
        # Almost never a dialgebra, and almost never with a bar unit unless
        # e1 is made one: e1 |- e_j = e_j = e_j -| e1.  The halo point then
        # sets every free coordinate to 0, so it need not be e1.
        c_vdash, c_dashv = cubes
        n = len(c_vdash)
        if unital:
            for j in range(n):
                c_vdash[0][j] = c_dashv[j][0] = [int(k == j) for k in range(n)]
        check_halo_against_oracle(Dialgebra(n, c_vdash, c_dashv))


def check_halo_against_oracle(d):
    """The bar-center and the halo against the oracle, which takes the
    bar-center as the kernel of the bar-unit system and the halo from the
    RREF of the augmented system, with its own elimination."""
    n = d.dim
    rows, rhs = oracle.bar_unit_system(d.c_vdash, d.c_dashv)
    center = oracle.rref(oracle.nullspace(rows, n))[0]
    reduced, pivots = oracle.rref([row + [y] for row, y in zip(rows, rhs)])
    assert [list(v) for v in bar_center(d).basis] == center
    units = halo(d)
    assert [list(v) for v in units.direction.basis] == center
    assert all(type(x) is Fraction for v in units.direction.basis for x in v)
    unital = n not in pivots
    report = check_invariant_actions(d)
    assert report["unital"] is unital
    assert units.is_empty is not unital
    if not unital:
        return
    # the particular point of the RREF: every free variable is 0
    point = [Fraction(0)] * n
    for row, p in zip(reduced, pivots):
        point[p] = row[n]
    assert list(units.point) == point
    assert all(type(x) is Fraction for x in units.point)
    assert report["halo_direction_is_bar_center"]


class TestBracket:
    def test_chirality_is_computed_not_assumed(self):
        leib = LeibnizAlgebra(instantiate("Dias3_1"))
        assert not leib.right_identity_violations()
        assert leib.left_identity_violations()

    def test_right_identity_on_all_fixed_entries(self):
        for name in FIXED_ENTRIES:
            leib = LeibnizAlgebra(instantiate(name))
            assert not leib.right_identity_violations(), name

    @given(phis)
    @settings(max_examples=15, deadline=None)
    def test_phi_bracket_vanishes(self, weights):
        d = phi_dialgebra(weights)
        leib = LeibnizAlgebra(d)
        n = d.dim
        basis = [tuple(Fraction(int(t == i)) for t in range(n))
                 for i in range(n)]
        assert all(leib.bracket(x, y) == tuple([0] * n)
                   for x in basis for y in basis)


class TestBracketAgainstOracle:
    """The violation triples read off the sparse bracket table, against the
    oracle's brackets of dense vectors."""

    @staticmethod
    def check(d):
        leib = LeibnizAlgebra(d)
        for right, found in ((True, leib.right_identity_violations()),
                             (False, leib.left_identity_violations())):
            assert found == oracle.leibniz_violations(d.c_vdash, d.c_dashv, right)

    @given(random_cubes)
    @settings(max_examples=60, deadline=None)
    def test_random_cubes(self, cubes):
        self.check(Dialgebra(len(cubes[0]), *cubes))

    @pytest.mark.parametrize("d", [pytest.param(d, id=label) for label, d in kernel_cases()])
    def test_catalog(self, d):
        self.check(d)


class TestActions:
    @given(phis)
    @settings(max_examples=12, deadline=None)
    def test_phi_family_actions_all_hold(self, weights):
        report = check_invariant_actions(phi_dialgebra(weights))
        assert report["unital"]
        for key, value in report.items():
            if isinstance(value, bool):
                assert value, key

    def test_fixed_entries_actions_all_hold(self):
        for name in FIXED_ENTRIES:
            report = check_invariant_actions(instantiate(name))
            for key, value in report.items():
                if isinstance(value, bool) and key != "unital":
                    assert value, (name, key)


class TestCombinedSpace:
    def test_bider_report_on_samples(self):
        for name in ("Dias2_1", "Dias3_8", "Dias3_13"):
            report = check_bider_leibniz(instantiate(name))
            assert report["bracket_closed"], name
            assert report["right_identity"], name
            assert report["dinn_inn_ideal"], name
            assert report["square_span_in_dider_component"], name

    def test_dinn_der_ideal_fails_where_it_must(self):
        # With delta = E21 in Dider, d = E11 in Der and DInn = 0, the
        # bracket <(delta,0),(0,d)> = [delta,d] + 0 = E21 + 0 leaves
        # DInn + Der, so the combined space only has the one-sided
        # closure.  check_bider_leibniz must report that, not assume
        # the two-sided claim.
        report = check_bider_leibniz(instantiate("Dias3_13"))
        assert report["dinn_der_ideal"] is False
        assert report["dinn_inn_ideal"] is True
        report = check_bider_leibniz(
            instantiate("Dias2_3", {"lam": Fraction(1)}))
        assert report["dinn_der_ideal"] is False

    def test_left_identity_and_squares_match_oracle(self):
        # The report reads these from the bracket table by bilinearity;
        # the oracle brackets the basis operators directly.
        cases = [(name, None) for name in FIXED_ENTRIES] + [
            ("Dias2_3", {"lam": Fraction(1)}),
            ("Dias3_16", dict(zip("kmnpq", map(Fraction, (0, 0, 0, -1, 0))))),
            ("Dias3_16", dict(zip("kmnpq", map(Fraction, (1, 1, 1, 1, 1))))),
        ]
        for name, params in cases:
            d = instantiate(name, params)
            n = d.dim
            zero = [[Fraction(0)] * n for _ in range(n)]

            def mats(space):
                return [[list(v[r * n:(r + 1) * n]) for r in range(n)]
                        for v in space.basis]

            dider = mats(diderivation_space(d))
            basis = [(s, zero) for s in dider]
            basis += [(zero, t) for t in mats(derivation_space(d))]

            def br(x, y):
                return oracle.bider_bracket(x, y)

            def flat(x):
                return oracle.flatten(x[0]) + oracle.flatten(x[1])

            def add(x, y):
                return [a + b for a, b in zip(flat(x), flat(y))]

            left = all(flat(br(x, br(y, z))) == add(br(br(x, y), z), br(y, br(x, z)))
                       for x in basis for y in basis for z in basis)
            squares = [add(br(x, y), br(y, x)) for x in basis for y in basis]
            component = [flat((s, zero)) for s in dider]
            report = check_bider_leibniz(d)
            assert report["left_identity"] is left, name
            assert report["square_span_dim"] == oracle.rank(squares), name
            assert report["square_span_in_dider_component"] is all(
                oracle.in_span(component, v) for v in squares), name

    def test_wrong_kernel_breaks_closure(self, monkeypatch):
        # span(E12, E21) is not closed under commutators: [E12, E21] =
        # E11 - E22.  Served as the derivation space, closure must fail
        # and both identities must be reported as failing with it.
        monkeypatch.setattr(invariants, "derivation_space",
                            lambda d: Subspace(4, [(0, 1, 0, 0), (0, 0, 1, 0)]))
        report = check_bider_leibniz(instantiate("Dias2_4"))
        assert report["bider_dim"] == 2
        assert report["bracket_closed"] is False
        assert report["right_identity"] is False
        assert report["left_identity"] is False
        assert report["dinn_der_ideal"] is False
        assert report["dinn_inn_ideal"] is False

    def test_generator_outside_the_space_breaks_both_ideals(self, monkeypatch):
        # With Der served as 0, Dias2_1's combined space is its Dider line,
        # whose table is closed (all brackets are 0), but its inner
        # derivation has no coordinates there.
        monkeypatch.setattr(invariants, "derivation_space", lambda d: Subspace(4))
        report = check_bider_leibniz(instantiate("Dias2_1"))
        assert report["bider_dim"] == 1
        assert report["bracket_closed"] is True
        assert report["right_identity"] is True
        assert report["dinn_der_ideal"] is False
        assert report["dinn_inn_ideal"] is False

    @given(phis)
    @settings(max_examples=6, deadline=None)
    def test_bider_report_on_phi_family(self, weights):
        report = check_bider_leibniz(phi_dialgebra(weights))
        assert report["bracket_closed"]
        assert report["right_identity"]
        assert report["dinn_der_ideal"]
        assert report["dinn_inn_ideal"]
