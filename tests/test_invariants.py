"""Annihilator, bar-center, halo, induced bracket, and combined space."""

import contextlib
import io
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from diaskit import cli, invariants
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
from diaskit.ratlin import AffineSubspace, Subspace, bilinear, sparse, span
from diaskit.spaces import derivation_space, diderivation_space

import exact_oracle as oracle
from test_ratlin import direct_sum, kernel_cases

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

        def member(v):
            return units.direction.contains([a - b for a, b in zip(v, units.point)])

        assert member((1, 0))
        assert member((1, 7))
        assert not member((2, 0))

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
        assert all(bilinear(leib.table, {i: 1}, {j: 1}) == {}
                   for i in range(n) for j in range(n))


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


def dense_leibniz_violations(table):
    """Both sides of ``invariants._violations``, one basis triple at a
    time, with the bracket expanded over a dense cube of the table."""
    b = len(table)
    cube = [[[table[i][j].get(k, 0) for k in range(b)] for j in range(b)] for i in range(b)]

    def br(u, v):
        out = [0] * b
        for i, x in enumerate(u):
            for j, y in enumerate(v):
                if x and y:
                    out = [w + x * y * c for w, c in zip(out, cube[i][j])]
        return out

    def add(u, v):
        return [x + y for x, y in zip(u, v)]

    e = [[int(i == j) for j in range(b)] for i in range(b)]
    found = {"right": [], "left": []}
    for i in range(b):
        for j in range(b):
            for k in range(b):
                x, y, z = e[i], e[j], e[k]
                if br(br(x, y), z) != add(br(br(x, z), y), br(x, br(y, z))):
                    found["right"].append((i, j, k))
                if br(x, br(y, z)) != add(br(br(x, y), z), br(y, br(x, z))):
                    found["left"].append((i, j, k))
    return found


class TestViolationsOnAnyTable:
    """``_violations`` on bracket tables that no dialgebra gives, against
    a dense evaluation triple by triple."""

    def test_random_tables(self):
        rng = random.Random(46)
        both = 0
        for _ in range(60):
            b = rng.randint(1, 6)
            density = rng.random()
            table = [[{k: Fraction(rng.choice((-2, -1, 1, 3)), rng.randint(1, 3))
                       for k in range(b) if rng.random() < density}
                      for _ in range(b)] for _ in range(b)]
            found = invariants._violations(table)
            assert found == dense_leibniz_violations(table)
            both += bool(found["right"]) and bool(found["left"])
        # some tables break both identities, so each side is found in full
        # while the other has violations too
        assert both >= 10

    def test_bider_table_with_an_empty_dider_block(self, monkeypatch):
        # phi has Dider = 0, so its combined table is the Der block alone
        tables = []

        def violations(table):
            tables.append(table)
            return sweep(table)

        sweep = invariants._violations
        monkeypatch.setattr(invariants, "_violations", violations)
        d = phi_dialgebra((1, -2, 3))
        report = check_bider_leibniz(d)
        assert diderivation_space(d).dim == 0
        (table,) = tables
        assert len(table) == report["bider_dim"] > 0
        assert sweep(table) == dense_leibniz_violations(table) == {"right": [], "left": []}


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

    def test_wrong_halo_direction_is_reported(self, monkeypatch):
        # Dias2_4 is unital with bar-center span(e2).  A halo with the right
        # point and a zero direction must fail the check against the
        # bar-center solved on its own, and fail the command with it.
        d = instantiate("Dias2_4")
        right = halo(d)
        assert right.direction.dim == 1
        monkeypatch.setattr(invariants, "halo",
                            lambda d: AffineSubspace(right.point, Subspace(d.dim)))
        report = check_invariant_actions(d)
        assert report["bar_center_dim"] == 1
        assert report["halo_direction_is_bar_center"] is False
        with contextlib.redirect_stdout(io.StringIO()) as out:
            assert cli.main(["invariants", "catalog:Dias2_4"]) == 1
        assert "halo direction is bar center: no" in out.getvalue()


def action_cases():
    """The catalog, phi for n = 2..8, the direct sums of the solve ladder's
    summands (dimensions 9 and 12) and the zero algebra, whose annihilator
    is 0 and whose bar-center is all of Q^2."""
    point = dict(zip("kmnpq", map(Fraction, (1, 1, 1, 1, 1))))
    zero = [[[0, 0], [0, 0]], [[0, 0], [0, 0]]]
    return kernel_cases() + [
        ("phi7", phi_dialgebra([1, -1, 2, -2, 3, -3, 1])),
        ("phi8", phi_dialgebra([1, -1, 2, -2, 3, -3, 1, -1])),
        ("Dias3_10+Dias3_13+Dias3_14+Dias3_16", direct_sum(*(
            instantiate(name) for name in ("Dias3_10", "Dias3_13", "Dias3_14")),
            instantiate("Dias3_16", point))),
        ("zero2", Dialgebra(2, zero, zero)),
    ]


def oracle_actions(d, der, dider):
    """Each operator-action key of ``check_invariant_actions`` for the
    operators ``der`` and ``dider`` (n-by-n lists), by the oracle's rank
    test; the annihilator and the bar-center are the oracle's own, the bar
    unit is the halo's point."""
    n = d.dim
    units = [oracle.unit(n, i) for i in range(n)]
    ann = oracle.rref([[x - y for x, y in zip(oracle.product(d.c_dashv, a, b),
                                              oracle.product(d.c_vdash, a, b))]
                       for a in units for b in units])[0]
    center = oracle.nullspace(oracle.bar_unit_system(d.c_vdash, d.c_dashv)[0], n)
    keys = {
        "ann_in_bar_center": oracle.maps_into([units], ann, center),  # the identity
        "der_preserves_ann": oracle.maps_into(der, ann, ann),
        "der_preserves_bar_center": oracle.maps_into(der, center, center),
        "dider_kills_ann": oracle.maps_into(dider, ann, []),
    }
    h = halo(d)
    if not h.is_empty:
        keys["der_sends_unit_into_ann"] = oracle.maps_into(der, [h.point], ann)
        keys["dider_kills_unit"] = oracle.maps_into(dider, [h.point], [])
        keys["dider_kills_bar_center"] = oracle.maps_into(dider, center, [])
    return keys


class TestFailingActions:
    """Spaces holding an operator that is not a (di)derivation, put in
    place of Der and Dider: every action key against the oracle."""

    @staticmethod
    def matrices(space, n):
        return [[list(v[r * n:(r + 1) * n]) for r in range(n)] for v in space.basis]

    @pytest.mark.parametrize("case", [pytest.param(d, id=label) for label, d in action_cases()])
    def test_each_action_key_against_the_rank_test(self, case):
        n = case.dim
        d = Dialgebra(n, case.c_vdash, case.c_dashv)
        der, dider = derivation_space(d), diderivation_space(d)
        held = check_invariant_actions(d)
        expected = oracle_actions(d, self.matrices(der, n), self.matrices(dider, n))
        assert {key: held[key] for key in expected} == expected
        # a dense operator, which moves a set of every algebra but the zero
        # one out of its target, and the matrix unit sending e_1 to e_n
        dense = [[Fraction((3 * r + 5 * c) % 7 - 3) for c in range(n)] for r in range(n)]
        corner = oracle.matrix_unit(n, n - 1, 0)
        for t in (dense, corner):
            flat = sparse(oracle.flatten(t))
            d._spaces["der"] = span(n * n, [flat, *der.rows])
            d._spaces["dider"] = span(n * n, [flat, *dider.rows])
            report = check_invariant_actions(d)
            expected = oracle_actions(d, [t, *self.matrices(der, n)],
                                      [t, *self.matrices(dider, n)])
            # the keys t alone moves out of their target read False
            moved = {key for key, holds in oracle_actions(d, [t], [t]).items() if not holds}
            # the other keys do not read Der or Dider
            assert report == {**held, **expected}
            assert not any(report[key] for key in moved)
            if t is dense and held["bar_center_dim"] < n:  # all but the zero algebra
                assert moved


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

    def test_left_identity_and_squares_match_oracle(self, monkeypatch):
        # The report reads these from the bracket table by bilinearity;
        # the oracle brackets the basis operators directly.  The last two
        # cases serve wrong kernels, set on invariants so that the oracle
        # reads the same spaces: with Dider served as span(E11) the square
        # span leaves the Dider component, and with Der served as the
        # non-closed span(E12, E21) (Dider is 0) its brackets, which leave
        # Der, cancel in every symmetrised square.
        e11, off_diagonal = Subspace(4, [(1, 0, 0, 0)]), Subspace(4, [(0, 1, 0, 0), (0, 0, 1, 0)])
        cases = [(name, None, {}) for name in FIXED_ENTRIES] + [
            ("Dias2_3", {"lam": Fraction(1)}, {}),
            ("Dias3_16", dict(zip("kmnpq", map(Fraction, (0, 0, 0, -1, 0)))), {}),
            ("Dias3_16", dict(zip("kmnpq", map(Fraction, (1, 1, 1, 1, 1)))), {}),
            ("Dias2_4", None, {"diderivation_space": e11}),
            ("Dias2_4", None, {"derivation_space": off_diagonal}),
        ]
        keys = []
        for name, params, served in cases:
            d = instantiate(name, params)
            n = d.dim
            zero = [[Fraction(0)] * n for _ in range(n)]
            monkeypatch.undo()
            for solver, space in served.items():
                monkeypatch.setattr(invariants, solver, lambda d, s=space: s)

            def mats(space):
                return [[list(v[r * n:(r + 1) * n]) for r in range(n)]
                        for v in space.basis]

            dider = mats(invariants.diderivation_space(d))
            basis = [(s, zero) for s in dider]
            basis += [(zero, t) for t in mats(invariants.derivation_space(d))]

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
            # neither served kernel is closed, so the report fails both identities
            assert report["left_identity"] is (left and not served), name
            assert report["square_span_dim"] == oracle.rank(squares), name
            assert report["square_span_in_dider_component"] is all(
                oracle.in_span(component, v) for v in squares), name
            keys.append((report["square_span_dim"], report["square_span_in_dider_component"]))
        assert keys[-2:] == [(1, False), (0, True)]

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

    def test_dinn_inn_ideal_fails_on_its_right_side_only(self, monkeypatch):
        # Dias3_14 has DInn = span(E21) and Inn = span(E23).  Served as Der,
        # span(E13, E23) holds Inn and commutes with it, and span(E21, E23)
        # as Dider is closed under it, so the table is closed and both
        # generators lie in the combined space.  Every <x, m> of a generator
        # m stays in DInn + Inn, but <(E21, 0), (0, E13)> = ([E21, E13], 0)
        # = (E23, 0) leaves it: only the right side of the ideal check can
        # see that.  For true kernels [Ad_a, d'] = -Ad_(d'(a)) lies in DInn.
        d = instantiate("Dias3_14")
        n = d.dim
        e13, e21, e23 = ([int(j == k) for j in range(n * n)] for k in (2, 3, 5))
        monkeypatch.setattr(invariants, "diderivation_space", lambda d: Subspace(9, [e21, e23]))
        monkeypatch.setattr(invariants, "derivation_space", lambda d: Subspace(9, [e13, e23]))
        zero = [[Fraction(0)] * n for _ in range(n)]

        def mats(space):
            return [[list(v[r * n:(r + 1) * n]) for r in range(n)] for v in space.basis]

        def flat(x):
            return oracle.flatten(x[0]) + oracle.flatten(x[1])

        basis = [(s, zero) for s in mats(invariants.diderivation_space(d))]
        basis += [(zero, t) for t in mats(invariants.derivation_space(d))]
        units = [oracle.unit(n, a) for a in range(n)]
        members = [(oracle.inner_diderivation(d.c_vdash, d.c_dashv, a), zero) for a in units]
        members += [(zero, oracle.inner_derivation(d.c_vdash, d.c_dashv, a)) for a in units]
        combined, ideal = [flat(x) for x in basis], [flat(m) for m in members]
        assert all(oracle.in_span(combined, flat(oracle.bider_bracket(x, y)))
                   for x in basis for y in basis)
        assert all(oracle.in_span(combined, v) for v in ideal)
        assert oracle.rank(ideal) == 2
        assert all(oracle.in_span(ideal, flat(oracle.bider_bracket(x, m)))
                   for x in basis for m in members)
        assert not all(oracle.in_span(ideal, flat(oracle.bider_bracket(m, x)))
                       for x in basis for m in members)

        report = check_bider_leibniz(d)
        assert report["bracket_closed"] is True
        assert report["dinn_inn_ideal"] is False

    @given(phis)
    @settings(max_examples=6, deadline=None)
    def test_bider_report_on_phi_family(self, weights):
        report = check_bider_leibniz(phi_dialgebra(weights))
        assert report["bracket_closed"]
        assert report["right_identity"]
        assert report["dinn_der_ideal"]
        assert report["dinn_inn_ideal"]
