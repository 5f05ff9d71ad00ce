"""Derivation and diderivation solvers and their cross-characterizations."""

import random
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from diaskit.catalog import (
    DIAS3_17_SAMPLES, ENTRY_NAMES, LAMBDA_SAMPLES, case_family_vectors, get_entry, instantiate,
)
from diaskit import spaces
from diaskit.core import Dialgebra, phi_dialgebra
from diaskit.ratlin import Matrix, sparse
from diaskit.spaces import (
    check_characterizations,
    check_closures,
    derivation_space,
    derivation_space_via_left_ops,
    derivation_space_via_right_ops,
    diderivation_space,
    diderivation_space_via_ops,
    inner_derivations,
    inner_diderivations,
    rule_holds,
    subspace_matrices,
)

import exact_oracle as oracle
from test_ratlin import kernel_cases

phis = st.integers(min_value=2, max_value=4).flatmap(
    lambda n: st.lists(
        st.fractions(min_value=-3, max_value=3, max_denominator=2),
        min_size=n, max_size=n)
).filter(lambda w: any(x != 0 for x in w))


def basis_vectors(n):
    return [tuple(oracle.unit(n, i)) for i in range(n)]


def is_derivation(d: Dialgebra, t: Matrix) -> bool:
    for prod in ("vdash", "dashv"):
        for x in basis_vectors(d.dim):
            for y in basis_vectors(d.dim):
                lhs = t.apply(d.multiply(prod, x, y))
                rhs = tuple(
                    a + b for a, b in zip(
                        d.multiply(prod, t.apply(x), y),
                        d.multiply(prod, x, t.apply(y))))
                if lhs != rhs:
                    return False
    return True


def is_diderivation(d: Dialgebra, t: Matrix) -> bool:
    # One shared expansion for both products: the left factor is absorbed
    # on the left, the right factor on the right.
    for prod in ("vdash", "dashv"):
        for x in basis_vectors(d.dim):
            for y in basis_vectors(d.dim):
                lhs = t.apply(d.multiply(prod, x, y))
                rhs = tuple(
                    a + b for a, b in zip(
                        d.multiply("dashv", t.apply(x), y),
                        d.multiply("vdash", x, t.apply(y))))
                if lhs != rhs:
                    return False
    return True


class TestKnownSpaces:
    def test_two_dim_corner(self):
        space = diderivation_space(instantiate("Dias2_1"))
        assert space.dim == 1
        assert subspace_matrices(space, 2) == [Matrix([[0, 0], [1, 0]])]
        with pytest.raises(ValueError) as exc:
            subspace_matrices(space, 3)
        assert str(exc.value) == "subspace is not a space of n-by-n operators"

    def test_two_dim_zero_space(self):
        assert diderivation_space(instantiate("Dias2_4")).dim == 0

    def test_three_dim_samples(self):
        assert diderivation_space(instantiate("Dias3_8")).contains(
            Matrix([[0, 0, 1], [0, 0, 0], [0, 0, 0]]).flatten())
        ten = diderivation_space(instantiate("Dias3_10"))
        assert ten.dim == 2

    def test_associative_case_spaces_agree(self):
        rel = {}
        for prod in ("vdash", "dashv"):
            rel[(prod, 1, 1)] = [(2, 1)]
        d = Dialgebra.from_relations(3, rel)
        assert d.products_coincide()
        assert derivation_space(d) == diderivation_space(d)


class TestDefiningIdentities:
    @given(phis)
    @settings(max_examples=20, deadline=None)
    def test_derivation_basis_satisfies_rule(self, weights):
        d = phi_dialgebra(weights)
        for t in subspace_matrices(derivation_space(d), d.dim):
            assert is_derivation(d, t)

    @given(phis)
    @settings(max_examples=20, deadline=None)
    def test_diderivation_basis_satisfies_rule(self, weights):
        d = phi_dialgebra(weights)
        for t in subspace_matrices(diderivation_space(d), d.dim):
            assert is_diderivation(d, t)

    def test_diderivation_rule_constrains_zero_products(self):
        # In Dias2_1 the product e2 * e2 vanishes for both products, yet
        # the mixed expansion of the rule still rules out candidates such
        # as the identity matrix.
        d = instantiate("Dias2_1")
        assert not is_diderivation(d, Matrix([[1, 0], [0, 1]]))


def rule_cases():
    """Every fixed catalog entry and sample points of the three parametric
    ones, each with the operators to try besides random ones: at six
    admissible Dias3_16 points, the boxed solution family of a case."""
    for name in ENTRY_NAMES:
        if not get_entry(name).param_names:
            yield pytest.param(instantiate(name), [], id=name)
    for lam in LAMBDA_SAMPLES:
        yield pytest.param(instantiate("Dias2_3", {"lam": lam}), [], id=f"Dias2_3[{lam}]")
    for case, point in [("B", (1, 1, 2, 1, 1)), ("B", (2, 1, 1, 2, 0)),
                        ("C", (1, 1, 1, 1, 4)), ("C", (1, 2, 1, 0, 1)),
                        ("D", (1, 1, -3, 1, -4)), ("D", (1, 2, -2, 0, Fraction(-1, 2)))]:
        params = dict(zip("kmnpq", map(Fraction, point)))
        family = [op for _label, op in case_family_vectors(case, params)]
        yield pytest.param(instantiate("Dias3_16", params), family,
                           id=f"Dias3_16[{','.join(map(str, point))}]")
    for point in DIAS3_17_SAMPLES:
        yield pytest.param(instantiate("Dias3_17", dict(zip("lmnpq", point))), [],
                           id=f"Dias3_17[{','.join(map(str, point))}]")


@pytest.mark.parametrize("rule, twisted", [("der", False), ("dider", True)])
@pytest.mark.parametrize("d, family", rule_cases())
def test_rule_holds_matches_oracle(d, family, rule, twisted, request):
    """``rule_holds`` against the oracle's residuals, on random integer
    operators (almost never in the space) and random integer members of
    the oracle's kernel, each also with a matrix unit added, and on the
    given family."""
    n = d.dim
    rng = random.Random(request.node.name)
    kernel = oracle.kernel_basis(d.c_vdash, d.c_dashv, twisted)
    ops = [list(op.flatten()) for op in family]
    for _ in range(20):
        coeffs = [rng.randint(-3, 3) for _ in kernel]
        member = [sum(c * v[i] for c, v in zip(coeffs, kernel)) for i in range(n * n)]
        for op in ([rng.randint(-3, 3) for _ in range(n * n)], member):
            ops += [op, op[:]]
            ops[-1][rng.randrange(n * n)] += 1
    outcomes = set()
    for flat in ops:
        rows = [flat[r * n:(r + 1) * n] for r in range(n)]
        expected = oracle.satisfies(d.c_vdash, d.c_dashv, rows, twisted)
        assert rule_holds(d, rule, sparse(flat)) is expected, rows
        outcomes.add(expected)
    assert outcomes == {True, False}


class TestInnerOperators:
    @pytest.mark.parametrize("d", [pytest.param(d, id=label) for label, d in kernel_cases()])
    def test_inner_matrices_at_random_points(self, d):
        # on phi every ad_a is 0, so the catalog and the direct sum carry
        # the nonzero cases: the oracle's ad_a and Ad_a are R_a - L_a of
        # the multiplication operators, and lie in Inn and DInn
        rng = random.Random(f"inner:{d.dim}")
        inn, dinn = inner_derivations(d), inner_diderivations(d)
        for _ in range(3):
            a = [Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(d.dim)]
            for space, oracle_op, right, left in (
                    (inn, oracle.inner_derivation, "dashv", "vdash"),
                    (dinn, oracle.inner_diderivation, "vdash", "dashv")):
                op = oracle_op(d.c_vdash, d.c_dashv, a)
                assert [[x - y for x, y in zip(*rows)] for rows in
                        zip(d.right_op(right, a).rows, d.left_op(left, a).rows)] == op
                assert space.contains(oracle.flatten(op))

    @given(phis)
    @settings(max_examples=15, deadline=None)
    def test_inner_inside_full_spaces(self, weights):
        d = phi_dialgebra(weights)
        assert inner_derivations(d).is_subspace_of(derivation_space(d))
        assert inner_diderivations(d).is_subspace_of(diderivation_space(d))


class TestCharacterizations:
    @given(phis)
    @settings(max_examples=15, deadline=None)
    def test_routes_agree_on_phi_family(self, weights):
        report = check_characterizations(phi_dialgebra(weights))
        assert report["derivations"]["left_route_equal"]
        assert report["derivations"]["right_route_equal"]
        assert report["diderivations"]["operator_route_equal"]

    def test_routes_agree_on_fixed_entries(self):
        for name, params in (("Dias2_2", None),
                             ("Dias2_3", {"lam": Fraction(2)}),
                             ("Dias3_4", None),
                             ("Dias3_13", None)):
            report = check_characterizations(instantiate(name, params))
            assert report["diderivations"]["operator_route_equal"], name


class TestClosures:
    @given(phis)
    @settings(max_examples=10, deadline=None)
    def test_closure_report_all_green(self, weights):
        report = check_closures(phi_dialgebra(weights))
        for key, value in report.items():
            if isinstance(value, bool):
                assert value, key


def oracle_closures(d: Dialgebra) -> dict:
    """The ``check_closures`` report from ``exact_oracle`` alone: its kernel
    bases, its inner (di)derivations evaluated from the products, dense
    commutators and rank-based span tests."""
    cv, cd, n = d.c_vdash, d.c_dashv, d.dim
    units = [oracle.unit(n, i) for i in range(n)]

    def ops(flat):
        return [[v[r * n:(r + 1) * n] for r in range(n)] for v in flat]

    def spans(target, vectors):
        # every vector lies in span(target); duplicates and zeros dropped
        vectors = [list(v) for v in {tuple(v) for v in vectors} if any(v)]
        return oracle.rank(target + vectors) == oracle.rank(target)

    der = oracle.kernel_basis(cv, cd, twisted=False)
    dider = oracle.kernel_basis(cv, cd, twisted=True)
    ads = [oracle.inner_derivation(cv, cd, e) for e in units]
    di_ads = [oracle.inner_diderivation(cv, cd, e) for e in units]
    inn, dinn = [oracle.flatten(m) for m in ads], [oracle.flatten(m) for m in di_ads]

    def brackets_into(left, target):
        return spans(target, [oracle.flatten(oracle.commutator(a, t))
                              for a in left for t in ops(der)])

    def ideal_identity(inner):
        return all(oracle.commutator(t, inner(cv, cd, e)) == inner(cv, cd, oracle.apply(t, e))
                   for t in ops(der) for e in units)

    report = {
        "der_dim": len(der),
        "dider_dim": len(dider),
        "inn_dim": oracle.rank(inn),
        "dinn_dim": oracle.rank(dinn),
        "inn_in_der": spans(der, inn),
        "dinn_in_dider": spans(dider, dinn),
        "der_bracket_closed": brackets_into(ops(der), der),
        "dider_der_bracket_in_dider": brackets_into(ops(dider), dider),
        "dinn_der_bracket_in_dinn": brackets_into(di_ads, dinn),
        "inn_der_bracket_in_inn": brackets_into(ads, inn),
        "inner_ideal_identity": ideal_identity(oracle.inner_derivation),
        "inner_di_ideal_identity": ideal_identity(oracle.inner_diderivation),
    }
    if cv == cd:
        report["associative_dider_equals_der"] = oracle.same_span(dider, der)
        report["associative_dinn_equals_inn"] = oracle.same_span(dinn, inn)
    return report


def phi_weights(n):
    return [(-1) ** i * (i % 3 + 1) for i in range(n)]


@pytest.mark.parametrize("d", [pytest.param(d, id=label) for label, d in kernel_cases()] + [
    pytest.param(phi_dialgebra(phi_weights(n)), id=f"phi{n}") for n in (7, 8)])
def test_closure_report_matches_oracle(d):
    assert check_closures(d) == oracle_closures(d)


def random_structure_constants(seed: int, count: int):
    """Seeded integer structure constants of dimension 1..4, with both
    products equal in every third pair.  Each pair has its own share of
    nonzero constants, from 5 to 40 percent, so that some kernels are
    nonzero; almost none of the pairs is a dialgebra."""
    rng = random.Random(f"cubes:{seed}")

    def cube(n, share):
        return [[[rng.choice((1, -1, 2)) if rng.random() < share else 0
                  for _ in range(n)] for _ in range(n)] for _ in range(n)]

    for index in range(count):
        n, share = rng.randint(1, 4), rng.choice((0.05, 0.1, 0.2, 0.4))
        c_vdash = cube(n, share)
        yield c_vdash, c_vdash if index % 3 == 0 else cube(n, share)


# Structure constants mixing integers with rationals that are not: the
# solvers keep integral entries as ``int`` inside, so both kinds must meet
# in one elimination.
mixed_entries = st.one_of(st.just(0), st.just(0), st.integers(-3, 3),
                          st.fractions(min_value=-3, max_value=3, max_denominator=3))
mixed_cubes = st.integers(1, 3).flatmap(lambda n: st.tuples(*[st.lists(st.lists(st.lists(
    mixed_entries, min_size=n, max_size=n), min_size=n, max_size=n), min_size=n, max_size=n)] * 2))


def phi_cubes(weights):
    """The cubes (c_vdash, c_dashv) of ``e_i |- e_j = w_i e_j`` and
    ``e_i -| e_j = w_j e_i``, built here from the weights: at n >= 2 the
    terms of most slots of their Der systems cancel, on either route."""
    n = len(weights)
    return ([[[weights[i] * (k == j) for k in range(n)] for j in range(n)] for i in range(n)],
            [[[weights[j] * (k == i) for k in range(n)] for j in range(n)] for i in range(n)])


cancelling_cubes = st.integers(2, 3).flatmap(
    lambda n: st.lists(mixed_entries, min_size=n, max_size=n)).map(phi_cubes)


@given(st.one_of(mixed_cubes, cancelling_cubes))
@settings(max_examples=60, deadline=None)
def test_kernels_of_mixed_cubes_match_oracle_in_fractions(cubes):
    d = Dialgebra(len(cubes[0]), *cubes)
    handed = []
    original = spaces.kernel

    def kept(ncols, rows):
        rows = list(rows)
        handed.append(rows)
        return original(ncols, rows)

    with mock.patch.object(spaces, "kernel", kept):
        for solve, twisted in ((derivation_space, False), (diderivation_space, True),
                               (derivation_space_via_left_ops, False),
                               (derivation_space_via_right_ops, False),
                               (diderivation_space_via_ops, True)):
            basis = solve(d).basis
            assert [list(v) for v in basis] == oracle.kernel_basis(d.c_vdash, d.c_dashv, twisted)
            assert all(type(x) is Fraction for v in basis for x in v)
    # neither row builder hands over a row whose terms all cancel
    assert len(handed) == 5 and all(row for rows in handed for row in rows)


@pytest.mark.parametrize("seed", range(8))
def test_operator_routes_on_arbitrary_products(seed):
    """``L_{T(a)} = [T, L_a]``, ``R_{T(a)} = [T, R_a]`` and the mixed pair
    restate the Leibniz rules for any bilinear products, so every operator
    route gives the oracle's kernel on structure constants that need not
    satisfy the axioms."""
    nonzero = 0
    for c_vdash, c_dashv in random_structure_constants(seed, 12):
        d = Dialgebra(len(c_vdash), c_vdash, c_dashv)
        der = oracle.kernel_basis(c_vdash, c_dashv, twisted=False)
        dider = oracle.kernel_basis(c_vdash, c_dashv, twisted=True)
        assert [list(v) for v in derivation_space_via_left_ops(d).basis] == der
        assert [list(v) for v in derivation_space_via_right_ops(d).basis] == der
        assert [list(v) for v in diderivation_space_via_ops(d).basis] == dider
        nonzero += bool(der) + bool(dider)
    assert nonzero
