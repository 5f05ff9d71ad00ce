"""Catalog reconstruction, case-table resolution, and the sweeps."""

import itertools
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from diaskit import catalog, cli, entries, poly
from diaskit.catalog import (
    BRANCHES,
    ENTRY_NAMES,
    LAMBDA_SAMPLES,
    branch_for_params,
    branch_samples,
    case_family_vectors,
    check_det_factorization,
    check_solution_families,
    corrected_case_d_vector,
    delta1,
    delta2,
    dias316_matrix,
    expected_dider,
    get_entry,
    instantiate,
    verify_catalog,
)
from diaskit.core import Dialgebra, DialgebraError, parse_dialgebra, serialize_dialgebra
from diaskit.ratlin import det
from diaskit.spaces import diderivation_space

import exact_oracle as oracle

F = Fraction

rationals = st.fractions(min_value=-5, max_value=5, max_denominator=3)


def params316(k, m, n, p, q):
    return dict(zip("kmnpq", (F(k), F(m), F(n), F(p), F(q))))


class TestEntries:
    def test_catalog_size_and_names(self):
        assert len(ENTRY_NAMES) == 21
        assert ENTRY_NAMES[0] == "Dias2_1"
        assert ENTRY_NAMES[-1] == "Dias3_17"

    def test_unknown_entry(self):
        with pytest.raises(DialgebraError, match="unknown catalog entry"):
            get_entry("Dias9_9")

    @pytest.mark.parametrize("name", ["instantiate", "get_entry", "ENTRY_NAMES",
                                      "DIAS3_16_PARAMS", "CatalogEntry"])
    def test_catalog_binds_the_table_of_entries(self, name):
        # a copy would split what the tracer, TestSweepFailures and load_input reach
        assert getattr(catalog, name) is getattr(entries, name)

    def test_parameter_validation(self):
        with pytest.raises(DialgebraError, match="missing parameter"):
            instantiate("Dias2_3")
        with pytest.raises(DialgebraError, match="unknown parameter"):
            instantiate("Dias2_1", {"lam": F(1)})

    @pytest.mark.parametrize("text", ["1e40", "1.5", "1_000", "1" * 41])
    def test_parameter_strings_follow_the_text_grammar(self, text):
        # rejected before a number is built from the text, so "1e40" is
        # never evaluated
        with pytest.raises(ValueError, match="expected an integer|more than 40 digits"):
            instantiate("Dias2_3", {"lam": text})

    def test_parameter_strings_in_the_grammar(self):
        assert instantiate("Dias2_3", {"lam": "-2/3"}) == \
            instantiate("Dias2_3", {"lam": F(-2, 3)})

    def test_every_entry_satisfies_axioms(self):
        for name in ENTRY_NAMES:
            if not get_entry(name).param_names:
                assert not instantiate(name).verify_axioms(), name
        for lam in LAMBDA_SAMPLES:
            assert not instantiate("Dias2_3", {"lam": lam}).verify_axioms()
        assert not instantiate(
            "Dias3_16", params316(1, 2, 3, 4, 5)).verify_axioms()
        assert not instantiate(
            "Dias3_17", {"l": F(1), "m": F(2), "n": F(3), "p": F(4),
                         "q": F(5)}).verify_axioms()

    def test_serialize_roundtrip_all_fixed_entries(self):
        for name in ENTRY_NAMES:
            if get_entry(name).param_names:
                continue
            d = instantiate(name)
            assert parse_dialgebra(serialize_dialgebra(d)) == d

    def test_repair_notes_present(self):
        assert get_entry("Dias2_2").note
        assert get_entry("Dias2_1").note

    def test_relations_name_exactly_the_declared_parameters(self):
        for name in ENTRY_NAMES:
            entry = get_entry(name)
            named = {c for terms in entry.relations.values()
                     for _k, c in terms if isinstance(c, str)}
            assert named == set(entry.param_names), name

    def test_only_a_parametric_table_is_copied(self, monkeypatch):
        # a fixed entry's table holds no parameter name, so it goes in as is
        tables = []
        real = Dialgebra.from_relations

        def recording(dim, relations):
            tables.append(relations)
            return real(dim, relations)

        monkeypatch.setattr(Dialgebra, "from_relations", staticmethod(recording))
        assert instantiate("Dias3_8") == real(3, get_entry("Dias3_8").relations)
        instantiate("Dias2_3", {"lam": F(1, 2)})
        assert tables[0] is get_entry("Dias3_8").relations
        assert tables[1] is not get_entry("Dias2_3").relations
        assert tables[1].keys() == get_entry("Dias2_3").relations.keys()
        assert not any(isinstance(c, str) for terms in tables[1].values() for _k, c in terms)

    def test_dias3_17_table_is_dias3_16_with_k_renamed_l(self):
        rename = {"k": "l"}
        renamed = {key: [(k, rename.get(c, c)) for k, c in terms]
                   for key, terms in get_entry("Dias3_16").relations.items()}
        assert renamed == get_entry("Dias3_17").relations
        assert get_entry("Dias3_17").param_names == tuple(
            rename.get(s, s) for s in get_entry("Dias3_16").param_names)


_PRODUCTS = {"|-": "vdash", "-|": "dashv"}


def parse_printed(line, names):
    """One printed relation ``eI |- eJ = t [+ t | - t ...]`` (or ``-|``) as
    ((product, i, j), terms), each term t being ``eK``, ``- eK`` or ``c eK``
    with c an integer or one of ``names``; None for any other line."""
    head = re.fullmatch(r"e(\d+) (\|-|-\|) e(\d+) = (.+)", line)
    if head is None:
        return None
    terms = []
    for piece in re.split(r" (?=[+-] )", head[4]):
        term = re.fullmatch(r"(?:([+-]) )?(?:(\w+) )?e(\d+)", piece)
        if term is None:
            return None
        sign, coeff, k = term.groups()
        if coeff is None:
            value = F(-1 if sign == "-" else 1)
        elif coeff.isdigit():
            value = F(-int(coeff) if sign == "-" else int(coeff))
        elif coeff in names and sign != "-":
            value = coeff
        else:
            return None
        terms.append((int(k), value))
    return (_PRODUCTS[head[2]], int(head[1]), int(head[3])), terms


def parse_printed_list(entry):
    """An entry's printed list as a relation table, or None when a line
    does not parse or two lines give the same product of basis elements."""
    parsed = [parse_printed(line, entry.param_names) for line in entry.printed]
    if None in parsed or len({key for key, _ in parsed}) < len(parsed):
        return None
    return dict(parsed)


class TestPrintedLists:
    """The printed relation lists, read against the declared tables."""

    def test_parser_reads_each_term_form(self):
        assert parse_printed("e3 |- e1 = e1 - e2", ()) == \
            (("vdash", 3, 1), [(1, F(1)), (2, F(-1))])
        assert parse_printed("e1 -| e1 = lam e2", ("lam",)) == \
            (("dashv", 1, 1), [(2, "lam")])
        assert parse_printed("e2 -| e1 = - e1 + 3 e2", ()) == \
            (("dashv", 2, 1), [(1, F(-1)), (2, F(3))])
        assert parse_printed("e1 -| e1 = lam e2", ()) is None

    def test_an_entry_has_no_note_exactly_when_its_list_is_its_table(self):
        plain = [name for name in ENTRY_NAMES
                 if parse_printed_list(get_entry(name)) == get_entry(name).relations]
        assert plain == [name for name in ENTRY_NAMES if not get_entry(name).note]
        assert plain == ["Dias2_3", "Dias2_4"]

    def test_garbled_lines(self):
        printed = get_entry("Dias2_1").printed
        assert parse_printed(printed[0], ()) is None
        assert printed[0] == "e1 |- e = e1"
        assert get_entry("Dias3_8").printed.count("e1 |- e3 = e2") == 2

    def test_dias3_9_and_dias3_11_print_one_list(self):
        assert get_entry("Dias3_9").printed == get_entry("Dias3_11").printed

    def test_dias3_9_and_dias3_11_share_one_declaration(self):
        # one declaration, so the two tables cannot drift apart
        nine, eleven = get_entry("Dias3_9"), get_entry("Dias3_11")
        assert nine.relations is eleven.relations
        assert nine.printed is eleven.printed

    def test_dias3_17_prints_dias3_16_with_k_renamed_l(self):
        assert tuple(line.replace("k", "l") for line in get_entry("Dias3_16").printed) \
            == get_entry("Dias3_17").printed


class TestTabledExpectations:
    def test_expected_dimensions(self):
        assert expected_dider("Dias2_1")[0] == 1
        assert expected_dider("Dias2_4")[0] == 0
        assert expected_dider("Dias3_10")[0] == 2
        assert expected_dider("Dias3_15")[0] == 0

    def test_expected_basis_is_checkable(self):
        dim, basis = expected_dider("Dias3_8")
        assert dim == 1 and len(basis) == 1
        space = diderivation_space(instantiate("Dias3_8"))
        assert space.contains(basis[0].flatten())

    def test_parametric_expected_dim_uses_case_table(self):
        dim, basis = expected_dider("Dias3_16", params316(1, 1, 1, 1, 1))
        assert dim == 2 and basis is None


    def test_sweep_reads_every_expectation_through_expected_dider(self, monkeypatch):
        calls = []
        real = catalog.expected_dider

        def recording(name, params=None):
            calls.append((name, params))
            return real(name, params)

        monkeypatch.setattr(catalog, "expected_dider", recording)
        sweep = verify_catalog(sample_count=2, seed=0)
        samples = [dict(zip("kmnpq", s["params"]))
                   for row in sweep["dias316_rows"] for s in row["samples"]]
        assert samples and calls == [(r["name"], r["params"]) for r in sweep["entries"]] + \
            [("Dias3_16", params) for params in samples]


class TestCaseTable:
    def test_thirteen_rows(self):
        assert len(BRANCHES) == 13
        assert [b.index for b in BRANCHES] == list(range(1, 14))

    @pytest.mark.parametrize("point,row,dim", [
        ((1, 1, 1, 1, 1), 1, 2),       # generic, both deltas nonzero
        ((1, 1, 2, 1, 1), 2, 3),       # delta1 = 0 only
        ((1, 1, 1, 1, 4), 3, 3),       # delta2 = 0 only
        ((1, 1, -3, 1, -4), 4, 4),     # both deltas vanish
        ((1, 1, 1, -1, 0), 5, 4),      # p = -1, q = 0 composes row 3 plus one
        ((1, 1, -1, -1, 0), 5, 5),     # same locus with delta1 = 0
        ((1, 1, 1, -1, 1), 1, 2),      # p = -1 with q nonzero: no overlay
        ((1, 0, 1, 2, 1), 6, 2),
        ((2, 0, 1, 2, 1), 7, 3),       # k = np
        ((2, 0, -2, 1, 1), 9, 3),      # n + k = 0, q nonzero
        ((-1, 0, 1, 1, 1), 10, 4),     # k = -1 branch
        ((2, 0, -2, 1, 0), 11, 4),
        ((0, 0, 0, 1, 0), 12, 5),
        ((0, 0, 0, -1, 0), 13, 6),
    ])
    def test_resolution(self, point, row, dim):
        branch, got_dim = branch_for_params(*map(F, point))
        assert (branch.index, got_dim) == (row, dim)

    def test_deltas(self):
        assert delta1(F(1), F(1), F(2), F(1), F(1)) == 0
        assert delta2(F(1), F(1), F(1), F(1), F(4)) == 0
        assert delta1(F(1), F(1), F(1), F(1), F(1)) == -1

    def test_row8_is_empty(self):
        assert branch_samples(8, 5, seed=0) == []

    def test_sample_count_zero_or_negative(self):
        assert branch_samples(1, 0) == []
        with pytest.raises(ValueError, match="negative sample count"):
            branch_samples(1, -1)

    @given(st.integers(min_value=0, max_value=50))
    @settings(max_examples=15, deadline=None)
    def test_samples_resolve_to_their_row(self, seed):
        for branch in BRANCHES:
            for point in branch_samples(branch.index, 4, seed):
                assert branch_for_params(*point)[0].index == branch.index

    def test_samples_deterministic(self):
        for row in (1, 4, 9):
            assert branch_samples(row, 6, seed=3) == branch_samples(
                row, 6, seed=3)

    def test_row13_single_point(self):
        samples = branch_samples(13, 4, seed=1)
        assert samples and set(samples) == {(F(0), F(0), F(0), F(-1), F(0))}


class TestCaseTableRows:
    """The rows ``branch_samples`` takes and the points it can give."""

    @pytest.mark.parametrize("row", [0, 14, "1", None])
    def test_rows_outside_the_table_are_refused(self, row):
        with pytest.raises(ValueError, match="no branch row"):
            branch_samples(row, 1)

    def test_max_samples_is_what_the_sampler_can_give(self):
        for seed in range(21):
            for branch in BRANCHES:
                samples = branch_samples(branch.index, cli.MAX_SAMPLES, seed)
                if branch.index == 8:
                    assert samples == []
                elif branch.index == 13:
                    assert samples == [tuple(map(F, branch.samples[0]))] * cli.MAX_SAMPLES
                else:
                    assert len(set(samples)) == cli.MAX_SAMPLES
            with pytest.raises(RuntimeError, match="could not sample branch row 12"):
                branch_samples(12, cli.MAX_SAMPLES + 1, seed)


class TestDeterminantProbe:
    def test_matrix_shape_and_sample_value(self):
        m = dias316_matrix(params316(1, 1, 2, 1, 1))
        assert m.shape == (5, 5)
        # delta1 vanishes here, yet the printed matrix has nonzero det
        assert det(m) == 4

    def test_zero_m_point_nonzero_det(self):
        assert det(dias316_matrix(params316(1, 0, 0, 0, 0))) == -1

    def test_probe_reports_mismatches(self):
        pts = [tuple(map(F, p)) for p in
               [(1, 1, 2, 1, 1), (1, 0, 0, 0, 0), (1, 1, 1, 1, 1)]]
        report = check_det_factorization(pts)
        assert report["sample_count"] == 3
        assert not report["locus_agreement"]
        assert len(report["locus_mismatches"]) == 2
        assert report["nonvanishing_count"] >= 1

    def test_expanded_determinant_is_the_printed_one(self):
        # Both sides are polynomials in (k, m, n, p, q).  An entry linear in
        # a variable raises a determinant term's degree in it by at most
        # one, so the determinant's degree in a variable is at most the
        # number of rows that hold it.  Agreement on a product grid with one
        # more point per variable than the larger of that bound and the
        # expansion's degree proves the two polynomials equal.
        printed = catalog._DIAS316_PRINTED
        expanded = poly.det(printed)
        grid = []
        for i in range(5):
            in_rows = sum(any(e[i] for entry in row for e in entry.terms) for row in printed)
            degree = max(e[i] for e in expanded.terms)
            grid.append(range(-2, max(in_rows, degree) - 1))
        points = list(itertools.product(*grid))
        assert len(points) == 4 * 3 * 3 * 4 * 4
        probe = [s for seed in (0, 7) for s in cli._det_probe_samples(seed)]
        # seeds 0 and 7 have 7 and 10 points with a non-integral q
        assert sum(s[4].denominator != 1 for s in probe) == 17
        for point in points + probe:
            rows = dias316_matrix(dict(zip("kmnpq", map(F, point)))).rows
            assert expanded(point) == oracle.det(rows), point

    def test_report_values_are_fractions(self):
        pts = [(2, 0, 5, 0, 4), (1, 1, 2, 1, 1), (F(1), F(2), F(1), F(1), F(1, 2)),
               (-1, 0, 0, 0, F(1, 2)), ("1", "3", "-2", "2", "5/3")]
        report = check_det_factorization(pts)
        assert report["nonvanishing_count"] == 2
        assert [m["params"] for m in report["locus_mismatches"]] == [
            (2, 0, 5, 0, 4), (1, 1, 2, 1, 1), (-1, 0, 0, 0, F(1, 2))]
        values = [report["ratio_first"]] + [
            x for m in report["locus_mismatches"]
            for x in (*m["params"], m["det"], m["target"])]
        # det -2 over m*D1*D2 = -6 at the third point
        assert report["ratio_first"] == F(1, 3)
        assert all(type(x) is Fraction for x in values)
        with pytest.raises(TypeError):
            check_det_factorization([(1, 1, 1, 1, 0.5)])


class TestSolutionFamilies:
    def test_case_b_membership(self):
        params = params316(1, 1, 2, 1, 1)
        label, mat = case_family_vectors("B", params)[0]
        report = check_solution_families(params, "B")
        assert report["all_member"]
        assert label == "t=1"
        assert mat.rows[2][2] == 1
        assert mat.rows[1][0] == 0 and mat.rows[1][2] == 0

    def test_case_c_membership(self):
        report = check_solution_families(params316(1, 1, 1, 1, 4), "C")
        assert report["all_member"]

    def test_case_d_printed_generators_fail(self):
        params = params316(1, 1, -3, 1, -4)
        report = check_solution_families(params, "D")
        assert not report["all_member"]
        labelled = {v["label"]: v for v in report["vectors"]}
        assert not labelled["(d31,d33)=(1,0)"]["in_solver_kernel"]
        assert report["corrected_in_kernel"]

    def test_corrected_vector_satisfies_line_constraint(self):
        params = params316(1, 1, -3, 1, -4)
        mat = corrected_case_d_vector(params)
        d31, d33 = mat.rows[2][0], mat.rows[2][2]
        assert (params["p"] + 1) * d31 == params["m"] * d33

    @pytest.mark.parametrize("case,row", [("B", 2), ("C", 3), ("D", 4)])
    def test_family_points_lie_in_the_row_their_case_assumes(self, case, row):
        point = catalog.FAMILY_POINTS[case]
        assert branch_for_params(*point)[0].index == row
        assert case_family_vectors(case, params316(*point))

    def test_inadmissible_point_names_condition(self):
        with pytest.raises(ValueError, match="delta1"):
            case_family_vectors("B", params316(1, 1, 1, 1, 1))
        with pytest.raises(ValueError, match="m != 0"):
            case_family_vectors("C", params316(1, 0, -1, 1, 1))
        with pytest.raises(ValueError) as exc:
            case_family_vectors("E", params316(1, 1, 1, 1, 1))
        assert str(exc.value) == "unknown case 'E' (expected B, C or D)"


class TestSweep:
    def test_verify_catalog_shape_and_findings(self):
        result = verify_catalog(sample_count=2, seed=5)
        assert {r["status"] for r in result["entries"]} <= {"match", "finding"}
        assert not result["failures"]
        text = "\n".join(result["findings"])
        assert "Dias3_9" in text
        assert "row 8" in text
        assert "row 12" in text

    def test_sweep_deterministic(self):
        a = verify_catalog(sample_count=3, seed=11)
        b = verify_catalog(sample_count=3, seed=11)
        assert a["findings"] == b["findings"]
        assert a["dias316_rows"] == b["dias316_rows"]

    def test_rejects_empty_sample_request(self):
        with pytest.raises(ValueError):
            verify_catalog(sample_count=0)


class TestSweepFailures:
    def test_failures_name_each_point_once(self, monkeypatch):
        """Axiom failures at a fixed entry, a Dias2_3 point and a case-table
        sample, and a Dias3_17 point whose kernel differs from its twin:
        each is reported once, in the text that names its point in a
        finding."""
        broken = {("vdash", 1, 1): [(2, 1)], ("vdash", 2, 1): [(2, 1)]}
        swaps = {
            ("Dias2_1", ()): Dialgebra.from_relations(2, broken),
            ("Dias2_3", (F(1, 2),)): Dialgebra.from_relations(2, broken),
            ("Dias3_17", (2, 1, 0, 1, 1)): Dialgebra.from_relations(3, {}),
            ("Dias3_16", (0, 0, 0, -1, 0)): Dialgebra.from_relations(3, broken),
        }
        real = catalog.instantiate

        def instantiate_with_swaps(name, params=None):
            point = tuple(params.values()) if params else ()
            if (name, point) in swaps:
                return swaps[name, point]
            return real(name, params)

        monkeypatch.setattr(catalog, "instantiate", instantiate_with_swaps)
        result = verify_catalog(sample_count=3, seed=0)
        assert result["failures"] == [
            "Dias2_1: axiom violations",
            "Dias2_3: axiom violations at lam=1/2",
            "Dias3_17: kernel differs from Dias3_16 twin at (2, 1, 0, 1, 1)",
            "Dias3_16: axiom violations row 13 at (0, 0, 0, -1, 0)",
        ]
        # the broken row-13 point is compared three times, solved once
        assert len(result["kernels"]) == 62


class TestCoincidences:
    """Pairs of entries whose instantiations are one isomorphism class:
    every entry here is a repaired reading of its printed list."""

    @pytest.mark.parametrize("a, b, p", [
        ("Dias3_2", "Dias3_3", [[-1, -1, 0], [0, 0, 1], [0, 1, 0]]),
        ("Dias3_2", "Dias3_15", [[-1, -1, 0], [1, 1, 1], [0, 1, 0]]),
        ("Dias3_7", "Dias3_12", [[-1, 0, 0], [-1, -1, -1], [0, 0, 1]]),
        ("Dias3_9", "Dias3_11", [[-1, 0, -1], [0, -1, -1], [0, 0, 1]]),
    ])
    def test_isomorphic_pair(self, a, b, p):
        da, db = instantiate(a), instantiate(b)
        assert oracle.is_isomorphism((da.c_vdash, da.c_dashv),
                                     (db.c_vdash, db.c_dashv), p)

    def test_oracle_rejects_non_isomorphisms(self):
        d2, d3 = instantiate("Dias3_2"), instantiate("Dias3_3")
        cubes2, cubes3 = (d2.c_vdash, d2.c_dashv), (d3.c_vdash, d3.c_dashv)
        identity = [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
        assert oracle.is_isomorphism(cubes2, cubes2, identity)
        assert not oracle.is_isomorphism(cubes2, cubes3, identity)
        # the zero map respects every product but is not invertible
        assert not oracle.is_isomorphism(cubes2, cubes2, [[0] * 3] * 3)
