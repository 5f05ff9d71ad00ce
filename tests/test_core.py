"""Structure-constant container, axiom checker, and the text format."""

import itertools
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from diaskit import spaces
from diaskit.catalog import ENTRY_NAMES, get_entry, instantiate
from diaskit.core import (
    MAX_DIM,
    Dialgebra,
    DialgebraError,
    parse_dialgebra,
    parse_rational,
    phi_dialgebra,
    serialize_dialgebra,
)
from diaskit.invariants import LeibnizAlgebra, check_bider_leibniz, check_invariant_actions
from diaskit.ratlin import sparse

import exact_oracle as oracle
from test_ratlin import direct_sum, kernel_cases

phis = st.integers(min_value=2, max_value=4).flatmap(
    lambda n: st.lists(
        st.fractions(min_value=-4, max_value=4, max_denominator=3),
        min_size=n, max_size=n)
).filter(lambda w: any(x != 0 for x in w))

# Random structure constants in {-1, 0, 1}: almost never a dialgebra.
random_cubes = st.integers(min_value=2, max_value=3).flatmap(
    lambda n: st.tuples(*[st.lists(st.lists(st.lists(
        st.sampled_from((-1, 0, 1)), min_size=n, max_size=n),
        min_size=n, max_size=n), min_size=n, max_size=n)] * 2))


def sparse_cube_pair(n, entries):
    """(c_vdash, c_dashv) of dimension n, zero apart from ``entries``."""
    cubes = {p: [[[0] * n for _ in range(n)] for _ in range(n)] for p in ("vdash", "dashv")}
    for (product, i, j, k), x in entries.items():
        cubes[product][i][j][k] = x
    return cubes["vdash"], cubes["dashv"]


# Dimension 4 to 6 with at most 2n nonzero constants: a few satisfy the
# axioms, most violate them.
sparse_cubes = st.integers(min_value=4, max_value=6).flatmap(
    lambda n: st.dictionaries(
        st.tuples(st.sampled_from(("vdash", "dashv")), *[st.integers(0, n - 1)] * 3),
        st.sampled_from((-2, -1, 1, 2, Fraction(1, 2))), max_size=2 * n,
    ).map(lambda entries: sparse_cube_pair(n, entries)))


def truncated_poly_algebra():
    # Q[t]/(t^3) with both products equal: e_i e_j = e_{i+j} while in range.
    rel = {}
    for prod in ("vdash", "dashv"):
        for i in range(1, 4):
            for j in range(1, 4):
                if i + j - 1 <= 3:
                    rel[(prod, i, j)] = [(i + j - 1, 1)]
    return Dialgebra.from_relations(3, rel)


class TestConstruction:
    def test_from_relations_basis_products(self):
        d = Dialgebra.from_relations(
            2, {("vdash", 1, 1): [(2, Fraction(1, 2))], ("dashv", 2, 1): [(1, 1)]})
        assert d.basis_product("vdash", 0, 0) == (0, Fraction(1, 2))
        assert d.basis_product("dashv", 1, 0) == (1, 0)
        assert d.basis_product("dashv", 0, 0) == (0, 0)

    def test_unknown_product_rejected(self):
        with pytest.raises(DialgebraError, match="unknown product"):
            Dialgebra.from_relations(2, {("times", 1, 1): [(1, 1)]})
        d = Dialgebra.zero(2)
        with pytest.raises(DialgebraError, match="unknown product"):
            d.multiply("star", (1, 0), (0, 1))

    def test_index_out_of_range_rejected(self):
        with pytest.raises(DialgebraError, match="out of range"):
            Dialgebra.from_relations(2, {("vdash", 1, 3): [(1, 1)]})
        with pytest.raises(DialgebraError, match="out of range"):
            Dialgebra.from_relations(2, {("vdash", 1, 1): [(5, 1)]})

    def test_dimension_bounds(self):
        with pytest.raises(DialgebraError):
            Dialgebra.zero(0)
        with pytest.raises(DialgebraError):
            Dialgebra.zero(MAX_DIM + 1)

    def test_vector_length_checked(self):
        d = Dialgebra.zero(3)
        with pytest.raises(DialgebraError, match="length"):
            d.vdash((1, 0), (0, 1, 0))

    def test_relations_roundtrip(self):
        d = truncated_poly_algebra()
        again = Dialgebra.from_relations(3, d.relations())
        assert again == d


class TestAxioms:
    def test_associative_algebra_is_dialgebra(self):
        d = truncated_poly_algebra()
        assert d.is_dialgebra()
        assert d.products_coincide()

    def test_violation_reported_with_axiom_name(self):
        # e1 |- e1 = e2 with e1 -| e1 = 0 breaks (x -| y) |- z = (x |- y) |- z.
        d = Dialgebra.from_relations(2, {("vdash", 1, 1): [(2, 1)],
                                         ("vdash", 2, 1): [(2, 1)]})
        violations = d.verify_axioms()
        assert violations
        names = {v["axiom"] for v in violations}
        assert names <= {"assoc_dashv", "absorb_dashv", "inner",
                         "absorb_vdash", "assoc_vdash"}
        assert all(len(v["triple"]) == 3 for v in violations)
        assert not d.is_dialgebra()

    @given(phis)
    @settings(max_examples=30, deadline=None)
    def test_phi_construction_satisfies_axioms(self, weights):
        d = phi_dialgebra(weights)
        assert d.is_dialgebra()

    def test_dense_check_holds_few_composite_tensors(self):
        # phi is dense, so its composite products are large: holding all
        # eight at once peaks near 9.5 MiB at n = 24, holding at most three
        # near 3 MiB
        d = phi_dialgebra(range(1, 25))
        tracemalloc.start()
        try:
            assert d.verify_axioms() == []
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 6.5 * 2 ** 20

    def test_phi_zero_rejected(self):
        with pytest.raises(DialgebraError, match="nonzero"):
            phi_dialgebra((0, 0, 0))

    def test_phi_products(self):
        d = phi_dialgebra((2, 3))
        assert d.vdash((1, 0), (0, 1)) == (0, 2)
        assert d.dashv((1, 0), (0, 1)) == (3, 0)


class TestAxiomsAgainstOracle:
    """``verify_axioms`` compares composite products built from the nonzero
    constants of the sparse tables; the oracle multiplies dense vectors."""

    @staticmethod
    def records(d):
        return [(r["axiom"], r["triple"], list(r["lhs"]), list(r["rhs"]))
                for r in d.verify_axioms()]

    @given(random_cubes)
    @settings(max_examples=60, deadline=None)
    def test_random_cubes(self, cubes):
        d = Dialgebra(len(cubes[0]), *cubes)
        assert self.records(d) == oracle.axiom_records(d.c_vdash, d.c_dashv)
        assert all(isinstance(x, Fraction)
                   for r in d.verify_axioms() for x in r["lhs"] + r["rhs"])

    @given(sparse_cubes)
    @settings(max_examples=80, deadline=None)
    def test_random_sparse_cubes(self, cubes):
        d = Dialgebra(len(cubes[0]), *cubes)
        assert self.records(d) == oracle.axiom_records(d.c_vdash, d.c_dashv)

    @pytest.mark.parametrize("d", [pytest.param(d, id=label) for label, d in kernel_cases()])
    def test_catalog(self, d):
        assert self.records(d) == oracle.axiom_records(d.c_vdash, d.c_dashv) == []

    @pytest.mark.parametrize("parts", [("Dias2_1", "Dias2_4"), ("Dias3_8", "Dias2_2"),
                                       ("Dias3_10", "Dias3_13")])
    def test_sparse_sums_with_one_constant_changed(self, parts):
        # A direct sum of catalog entries holds; copying one of its first
        # nonzero constants to the next target may break it, and the
        # checker and the oracle agree on every record.
        d = direct_sum(*map(instantiate, parts))
        assert self.records(d) == oracle.axiom_records(d.c_vdash, d.c_dashv) == []
        n = d.dim
        nonzero = [(p, i, j, k) for p in ("vdash", "dashv")
                   for i, j, k in itertools.product(range(n), repeat=3)
                   if getattr(d, "c_" + p)[i][j][k]]
        violating = 0
        for product, i, j, k in nonzero[:4]:
            cubes = {p: [[list(row) for row in plane] for plane in getattr(d, "c_" + p)]
                     for p in ("vdash", "dashv")}
            cubes[product][i][j][(k + 1) % n] += cubes[product][i][j][k]
            changed = Dialgebra(n, cubes["vdash"], cubes["dashv"])
            records = self.records(changed)
            assert records == oracle.axiom_records(changed.c_vdash, changed.c_dashv)
            violating += bool(records)
        assert violating


class TestOperators:
    def test_left_op_columns(self):
        d = phi_dialgebra((1, 1))
        a = (1, 2)
        m = d.left_op("vdash", a)
        for j in range(2):
            ej = tuple(Fraction(int(t == j)) for t in range(2))
            assert m.column(j) == d.vdash(a, ej)

    def test_right_op_columns(self):
        d = phi_dialgebra((1, 2))
        a = (3, 1)
        m = d.right_op("dashv", a)
        for j in range(2):
            ej = tuple(Fraction(int(t == j)) for t in range(2))
            assert m.column(j) == d.dashv(ej, a)

    @pytest.mark.parametrize("d", [pytest.param(d, id=label) for label, d in kernel_cases()]
                             + [pytest.param(phi_dialgebra((1, "-1/2", "2/3")), id="phi-frac")])
    def test_basis_ops_are_the_flattened_unit_operators(self, d):
        # same entries as the dense operators of e_k, an int where integral
        def typed(row):
            return {j: (type(x), x) for j, x in row.items()}

        for product in ("dashv", "vdash"):
            for side, op in (("left", d.left_op), ("right", d.right_op)):
                assert [typed(r) for r in d.basis_ops(side, product)] == [
                    typed(sparse(op(product, oracle.unit(d.dim, k)).flatten()))
                    for k in range(d.dim)]
        with pytest.raises(DialgebraError, match="unknown side"):
            d.basis_ops("middle", "vdash")

    def test_integer_tables_give_fraction_results(self):
        # the tables hold ints; products, operators and relations do not
        d = phi_dialgebra((2, -1, 3))
        assert all(type(x) is int for p in ("dashv", "vdash")
                   for plane in d.table(p) for row in plane for x in row.values())
        a, b = (1, 2, 0), (0, 1, 1)
        vectors = [d.vdash(a, b), d.dashv(a, b), d.basis_product("vdash", 0, 2)]
        vectors += [m.flatten() for m in (d.left_op("dashv", a), d.right_op("vdash", b))]
        assert all(type(x) is Fraction for v in vectors for x in v)
        assert all(type(c) is Fraction for terms in d.relations().values() for _, c in terms)


class TestTextFormat:
    @given(phis)
    @settings(max_examples=25, deadline=None)
    def test_roundtrip(self, weights):
        d = phi_dialgebra(weights)
        assert parse_dialgebra(serialize_dialgebra(d)) == d

    def test_comments_and_blanks_ignored(self):
        text = ("dialgebra v1\n\n# a comment\ndim 2\n"
                "# another\nvdash 1 1 -> 2:1\n")
        d = parse_dialgebra(text)
        assert d.basis_product("vdash", 0, 0) == (0, 1)

    @pytest.mark.parametrize("text,lineno,fragment", [
        ("", 1, "empty file"),
        ("dialgebra v2\n", 1, "header"),
        ("dialgebra v1\n", 1, "missing 'dim"),
        ("dialgebra v1\ndim two\n", 2, "not an integer"),
        ("dialgebra v1\ndim 0\n", 2, "outside supported range"),
        ("dialgebra v1\ndim 2\nvdash 1 1 2:1\n", 3, "missing '->'"),
        ("dialgebra v1\ndim 2\ntimes 1 1 -> 2:1\n", 3, "unknown product"),
        ("dialgebra v1\ndim 2\nvdash 1 x -> 2:1\n", 3, "integers"),
        ("dialgebra v1\ndim 2\nvdash 1 3 -> 2:1\n", 3, "out of range"),
        ("dialgebra v1\ndim 2\nvdash 1 1 ->\n", 3, "empty term list"),
        ("dialgebra v1\ndim 2\nvdash 1 1 -> 2\n", 3, "<k>:<coeff>"),
        ("dialgebra v1\ndim 2\nvdash 1 1 -> 3:1\n", 3, "out of range"),
        ("dialgebra v1\ndim 2\nvdash 1 1 -> 2:q\n", 3, "coeff"),
        ("dialgebra v1\ndim 2\nvdash 1 1 -> 2:1\nvdash 1 1 -> 2:5\n", 4, "dup"),
    ])
    def test_errors_carry_line_numbers(self, text, lineno, fragment):
        with pytest.raises(DialgebraError) as exc:
            parse_dialgebra(text)
        message = str(exc.value)
        assert message.startswith(f"line {lineno}:")
        assert fragment in message

    @pytest.mark.parametrize("text, value", [
        ("-2/3", Fraction(-2, 3)), ("4/6", Fraction(2, 3)), ("007", Fraction(7)),
        ("-0", Fraction(0)), ("1/2", Fraction(1, 2))])
    def test_parse_rational(self, text, value):
        assert parse_rational(text) == value

    def test_fractional_coefficients_survive(self):
        d = Dialgebra.from_relations(
            2, {("dashv", 1, 2): [(1, Fraction(-2, 3)), (2, Fraction(1, 7))]})
        assert parse_dialgebra(serialize_dialgebra(d)) == d


def catalog_point(name):
    """The entry at 1 for every parameter."""
    return instantiate(name, {p: Fraction(1) for p in get_entry(name).param_names})


class TestSharedTables:
    """``Dialgebra.table`` is built once and every caller shares it, so no
    check may write to it."""

    @pytest.mark.parametrize("name", ENTRY_NAMES)
    def test_checks_leave_the_tables_unchanged(self, name):
        d = catalog_point(name)
        tables = {p: d.table(p) for p in ("dashv", "vdash")}
        d.verify_axioms()
        for solve in (spaces.derivation_space, spaces.diderivation_space,
                      spaces.derivation_space_via_left_ops,
                      spaces.derivation_space_via_right_ops,
                      spaces.diderivation_space_via_ops):
            solve(d)
        spaces.check_closures(d)
        check_invariant_actions(d)
        check_bider_leibniz(d)
        bracket = LeibnizAlgebra(d)
        bracket.left_identity_violations()
        bracket.right_identity_violations()
        for product, cube in (("dashv", d.c_dashv), ("vdash", d.c_vdash)):
            assert d.table(product) is tables[product]
            assert d.table(product) == tuple(
                tuple({k: x for k, x in enumerate(row) if x} for row in plane)
                for plane in cube)

    def test_unknown_product(self):
        with pytest.raises(DialgebraError, match="unknown product 'star'"):
            catalog_point("Dias2_1").table("star")
