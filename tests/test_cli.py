"""Command-line interface: selectors, verdicts, exit codes, machine mode."""

import contextlib
import functools
import io
import json
import os
import subprocess
import sys

import pytest

from fractions import Fraction

from diaskit import catalog, cli, kxy
from diaskit.cli import MAX_BOUND, MAX_INPUT_BYTES, MAX_SAMPLES, main
from diaskit.core import (
    MAX_DIM, MAX_RATIONAL_DIGITS, Dialgebra, phi_dialgebra, serialize_dialgebra,
)
from diaskit.invariants import MAX_BIDER_DIM

GOOD = """dialgebra v1
dim 2
vdash 1 1 -> 1:1
dashv 1 1 -> 1:1
dashv 2 1 -> 2:1
"""

# e1 |- e1 = e2 with e2 absorbing nothing violates the bar-side axioms
BROKEN = """dialgebra v1
dim 2
vdash 1 1 -> 2:1
vdash 2 1 -> 2:1
"""


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestVerify:
    @pytest.mark.parametrize("text", ["-2/3", "1/2", "7", "-0", "1" * MAX_RATIONAL_DIGITS])
    def test_rationals_in_the_grammar(self, tmp_path, capsys, text):
        path = tmp_path / "good.dlg"
        path.write_text(f"dialgebra v1\ndim 2\nvdash 1 1 -> 2:{text}\n")
        assert run(capsys, "verify", str(path))[0] in (0, 1)
        assert run(capsys, "verify", f"catalog:Dias2_3?lam={text}")[0] == 0

    def test_pass_exit_zero(self, capsys):
        code, out, _ = run(capsys, "verify", "catalog:Dias2_1")
        assert code == 0
        assert "verdict: pass" in out

    def test_axiom_violation_exits_one(self, tmp_path, capsys):
        path = tmp_path / "broken.dlg"
        path.write_text(BROKEN)
        code, out, _ = run(capsys, "verify", str(path))
        assert code == 1
        assert "verdict: fail" in out

    def test_file_input_matches_selector(self, tmp_path, capsys):
        path = tmp_path / "good.dlg"
        path.write_text(GOOD)
        code, out, _ = run(capsys, "verify", str(path))
        assert code == 0


# Outside the grammar: an optional '-', digits, an optional '/' and a
# nonzero denominator, at most MAX_RATIONAL_DIGITS digits in all.
BAD_RATIONALS = ["1.5", "1_000", "1e400", "1e2000000", "+1", "--1", "1/0", "1/00",
                 "1/-2", "-1/", "/2", "0x10", "\u0663", "1 2", "1" * (MAX_RATIONAL_DIGITS + 1),
                 "1" * 30 + "/" + "1" * 11]


class TestInputErrors:
    def test_missing_file(self, capsys):
        code, _, err = run(capsys, "verify", "/no/such/file.dlg")
        assert code == 2
        assert "cannot read" in err

    def test_parse_error_carries_line_number(self, tmp_path, capsys):
        path = tmp_path / "bad.dlg"
        path.write_text("dialgebra v1\ndim 2\nvdash 1 9 -> 1:1\n")
        code, _, err = run(capsys, "verify", str(path))
        assert code == 2
        assert "line 3" in err

    def test_unknown_catalog_name(self, capsys):
        code, _, err = run(capsys, "verify", "catalog:Dias5_1")
        assert code == 2
        assert "unknown catalog entry" in err

    def test_bad_parameter_syntax(self, capsys):
        code, _, err = run(capsys, "verify", "catalog:Dias2_3?lam")
        assert code == 2
        assert "key=value" in err

    def test_repeated_parameter(self, capsys):
        code, out, err = run(capsys, "spaces", "catalog:Dias2_3?lam=0,lam=1")
        assert code == 2
        assert out == ""
        assert err.splitlines() == ["error: parameter 'lam' given more than once"]

    @pytest.mark.parametrize("query", ["lam=1,=3", "= 3", "lam=1, =3"])
    def test_empty_parameter_name(self, capsys, query):
        code, out, err = run(capsys, "spaces", f"catalog:Dias2_3?{query}")
        assert code == 2
        assert out == ""
        [line] = err.splitlines()
        assert line.startswith("error: bad parameter ")
        assert line.endswith(", empty name before '='")

    def test_trailing_comma_is_accepted(self, capsys):
        # an empty piece of the query is skipped, as a blank one is
        assert run(capsys, "spaces", "catalog:Dias2_3?lam=1,")[:2] == \
            (0, run(capsys, "spaces", "catalog:Dias2_3?lam=1")[1].replace("lam=1", "lam=1,"))

    def test_missing_parameter(self, capsys):
        code, _, err = run(capsys, "verify", "catalog:Dias2_3")
        assert code == 2
        assert "missing parameter" in err

    def test_unknown_catalog_filter(self, capsys):
        code, out, err = run(capsys, "catalog", "NoSuch")
        assert code == 2
        assert out == ""
        assert err.splitlines() == ["error: unknown catalog entry: 'NoSuch'"]

    @pytest.mark.parametrize("samples", ["0", "-1"])
    def test_catalog_samples_below_one(self, capsys, samples):
        code, out, err = run(capsys, "catalog", "--samples", samples)
        assert code == 2
        assert out == ""
        assert err.splitlines() == [
            "error: catalog checks need --samples of at least 1"]


    def test_catalog_samples_above_cap(self, capsys):
        code, out, err = run(capsys, "catalog", "--samples", str(MAX_SAMPLES + 1))
        assert code == 2
        assert out == ""
        assert err.splitlines() == [
            f"error: catalog checks take --samples of at most {MAX_SAMPLES}"]

    def test_kxy_bound_above_cap(self, capsys):
        code, out, err = run(capsys, "kxy", "--bound", str(MAX_BOUND + 1))
        assert code == 2
        assert out == ""
        assert err.splitlines() == [
            f"error: kxy checks take --bound of at most {MAX_BOUND}"]

    def test_file_dimension_above_cap(self, tmp_path, capsys):
        path = tmp_path / "big.dlg"
        path.write_text("dialgebra v1\ndim 33\n")
        code, out, err = run(capsys, "verify", str(path))
        assert code == 2
        assert out == ""
        assert err.splitlines() == [
            f"error: {path}: line 2: dimension 33 outside supported range 1..32"]

    @pytest.mark.parametrize("text", BAD_RATIONALS)
    def test_bad_rational_in_file(self, tmp_path, capsys, text):
        path = tmp_path / "bad.dlg"
        path.write_text(f"dialgebra v1\ndim 2\nvdash 1 1 -> 2:{text}\n", encoding="utf-8")
        code, out, err = run(capsys, "verify", str(path))
        assert code == 2
        assert out == ""
        [line] = err.splitlines()
        assert line.startswith(f"error: {path}: line 3: bad coefficient ")

    @pytest.mark.parametrize("text", BAD_RATIONALS)
    def test_bad_rational_in_selector(self, capsys, text):
        code, out, err = run(capsys, "verify", f"catalog:Dias2_3?lam={text}")
        assert code == 2
        assert out == ""
        [line] = err.splitlines()
        assert line.startswith("error: bad rational ")

    def test_file_above_the_byte_cap(self, tmp_path, capsys):
        # GOOD padded by a comment to the cap is read; one byte more is not
        path = tmp_path / "padded.dlg"
        path.write_text(GOOD + "#" * (MAX_INPUT_BYTES - len(GOOD)))
        assert run(capsys, "verify", str(path))[0] == 0
        path.write_text(GOOD + "#" * (MAX_INPUT_BYTES + 1 - len(GOOD)))
        code, out, err = run(capsys, "verify", str(path))
        assert code == 2
        assert out == ""
        assert err.splitlines() == [f"error: {path}: larger than {MAX_INPUT_BYTES} bytes"]

    def test_largest_canonical_file_fits_the_byte_cap(self, tmp_path):
        # every constant at MAX_DIM has MAX_RATIONAL_DIGITS digits and a sign
        x = Fraction(-(10 ** 20 - 1), 10 ** 19)
        assert len(str(x)) == MAX_RATIONAL_DIGITS + 2
        cube = [[[x] * MAX_DIM for _ in range(MAX_DIM)] for _ in range(MAX_DIM)]
        d = Dialgebra(MAX_DIM, cube, cube)
        path = tmp_path / "largest.dlg"
        path.write_text(serialize_dialgebra(d))
        assert 3 * 10 ** 6 < path.stat().st_size <= MAX_INPUT_BYTES
        assert cli.load_input(str(path))[1] == d

    @pytest.mark.parametrize("argv, start", [
        (["kxy", "--bound", "x"], "argument --bound: invalid int value: 'x'"),
        (["spaces", "catalog:Dias2_1", "--which", "bad"],
         "argument --which: invalid choice: 'bad'"),
        (["spaces", "--which", "der"], "the following arguments are required: input"),
        (["nosuch", "catalog:Dias2_1"], "argument command: invalid choice: 'nosuch'"),
    ])
    def test_option_error_is_one_line(self, capsys, argv, start):
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert out == ""
        [line] = err.splitlines()
        assert line.startswith(f"error: {start}")

    @pytest.mark.parametrize("argv", [
        ["--help"], ["spaces", "--help"], ["verify", "--help"], ["invariants", "--help"],
        ["bider", "--help"], ["catalog", "--help"], ["kxy", "--help"],
    ])
    def test_help_prints_usage_and_exits_zero(self, capsys, argv):
        with pytest.raises(SystemExit) as stop:
            main(argv)
        assert stop.value.code == 0
        captured = capsys.readouterr()
        if argv == ["--help"]:
            # names no subcommand, so the parser holds and lists all six
            assert captured.out.startswith("usage: diaskit ")
            assert "{verify,spaces,invariants,bider,catalog,kxy}" in captured.out
        else:
            assert captured.out.startswith(f"usage: diaskit {argv[0]} ")
        assert captured.err == ""

    def test_bider_basis_above_cap(self, tmp_path, capsys):
        # phi at n = 8 has Der of dimension 56 and Dider = 0
        path = tmp_path / "phi8.dlg"
        path.write_text(serialize_dialgebra(phi_dialgebra([1, -1, 2, -2, 3, -3, 1, -1])))
        code, out, err = run(capsys, "bider", str(path))
        assert code == 2
        assert out == ""
        assert err.splitlines() == [
            f"error: combined bracket checks take a basis of at most {MAX_BIDER_DIM} "
            "elements, this one has 56"]


@pytest.mark.parametrize("argv, name, expected", [
    (["verify", "X"], "cmd_verify", ("X",)),
    (["spaces", "X", "--which", "inn"], "cmd_spaces", ("X", "inn")),
    (["invariants", "X"], "cmd_invariants", ("X",)),
    (["bider", "X"], "cmd_bider", ("X",)),
    (["catalog", "Dias3_1", "--samples", "2", "--seed", "5"], "cmd_catalog", ("Dias3_1", 2, 5)),
    (["kxy", "--bound", "7"], "cmd_kxy", (7,)),
])
def test_main_dispatches_to_the_module_attribute(monkeypatch, capsys, argv, name, expected):
    # a wrapper put on ``cli.cmd_*`` (as a tracer does) is what runs
    calls = []

    def stub(*args):
        calls.append(args)
        return cli.Report("stub", argv[0])

    monkeypatch.setattr(cli, name, stub)
    assert run(capsys, *argv)[0] == 0
    assert calls == [expected]


def parse_outcome(parser, argv):
    """What ``parser.parse_args(argv)`` gives: the namespace without
    ``run``, the ``InputError`` message, or the ``SystemExit`` code and
    what was printed."""
    out = io.StringIO()
    try:
        with contextlib.redirect_stdout(out):
            args = vars(parser.parse_args(argv))
    except cli.InputError as exc:
        return "error", str(exc)
    except SystemExit as exc:
        return "exit", exc.code, out.getvalue()
    del args["run"]
    return "namespace", args


@pytest.mark.parametrize("columns", ["80", "40"])
@pytest.mark.parametrize("argv", [
    ["spaces", "--machine", "--which", "der", "catalog:Dias2_1"],
    ["spaces", "catalog:Dias2_1", "--which=inn"],
    ["catalog", "--samp", "2", "--mach"],
    ["catalog"],
    ["kxy"],
    ["verify", "-h", "X"],
    ["verify", "--he"],
    ["verify"],
    ["verify", "X", "extra"],
    ["verify", "X", "--bogus"],
    ["verify", "--", "catalog:Dias2_1"],
    ["verify", "--machine=1", "X"],
    ["spaces", "X", "--which"],
    ["spaces", "X", "--which", "bad"],
    ["spaces", "X", "--wh", "dinn"],
    ["catalog", "--s", "3"],
    ["catalog", "--seed", "x"],
    ["catalog", "--seed", "-3", "--samples", "1", "Dias2_1"],
    ["kxy", "--bou=4", "--mach"],
    ["kxy", "extra"],
])
def test_parser_of_one_subcommand_parses_as_the_full_parser(monkeypatch, argv, columns):
    # ``build_parser(argv)`` is the parser of the subcommand ``argv[0]``
    # names and parses ``argv[1:]``; ``build_parser([])`` holds all six
    # and hands that parser the rest of ``argv``
    monkeypatch.setenv("COLUMNS", columns)
    own = parse_outcome(cli.build_parser(argv), argv[1:])
    assert own == parse_outcome(cli.build_parser([]), argv)


def test_console_script_reads_sys_argv(monkeypatch, capsys):
    # the ``diaskit`` entry point calls ``main()`` with no argument
    monkeypatch.setattr(sys, "argv", ["diaskit", "verify", "catalog:Dias2_1"])
    assert main() == 0
    out = capsys.readouterr().out
    assert out.startswith("subject: catalog:Dias2_1\n\n[axioms]\n")
    assert out.endswith("verdict: pass\n")


@pytest.mark.parametrize("which, name", [
    ("der", "derivation_space"), ("dider", "diderivation_space"),
    ("inn", "inner_derivations"), ("dinn", "inner_diderivations"),
])
def test_spaces_runs_the_solver_on_the_module_attribute(monkeypatch, capsys, tmp_path,
                                                         which, name):
    # a wrapper put on ``spaces.*`` after ``cli`` is imported (as a tracer
    # does) is what ``spaces --which`` runs
    from diaskit import spaces

    original = getattr(spaces, name)
    calls = []

    def wrapper(d):
        calls.append(d.dim)
        return original(d)

    monkeypatch.setattr(spaces, name, wrapper)
    path = tmp_path / "good.dlg"
    path.write_text(GOOD, encoding="utf-8")
    assert run(capsys, "spaces", str(path), "--which", which)[0] == 0
    assert calls == [2]


def test_closed_pipe_ends_quietly():
    """``diaskit catalog | head -1``: the reader is gone before the report
    is written, so the write fails with EPIPE."""
    read_end, write_end = os.pipe()
    os.close(read_end)
    src = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
    env = dict(os.environ, PYTHONPATH=src)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "diaskit.cli", "verify", "catalog:Dias2_1"],
            stdout=write_end, stderr=subprocess.PIPE, env=env, timeout=60)
    finally:
        os.close(write_end)
    assert proc.stderr == b""
    assert proc.returncode == 0


class TestSpaces:
    def test_default_space_dimension_and_basis(self, capsys):
        code, out, _ = run(capsys, "spaces", "catalog:Dias2_1", "--machine")
        assert code == 0
        doc = json.loads(out)
        assert doc["schema"] == "diaskit.report/1"
        section = doc["sections"][0]
        assert ["dim", "1"] in section["items"]
        assert section["matrices"] == [["basis 1", [["0", "0"], ["1", "0"]]]]

    @pytest.mark.parametrize("which", ["der", "dider", "inn", "dinn"])
    def test_all_kinds_run(self, capsys, which):
        code, out, _ = run(capsys, "spaces", "catalog:Dias3_8",
                           "--which", which)
        assert code == 0
        assert "dim:" in out


class TestReports:
    def test_invariants_sections(self, capsys):
        code, out, _ = run(capsys, "invariants", "catalog:Dias3_1")
        assert code == 0
        assert "[invariant sets]" in out
        assert "[induced bracket]" in out
        assert "chirality: right" in out

    def test_bider_finding_for_one_sided_closure(self, capsys):
        code, out, _ = run(capsys, "bider", "catalog:Dias3_13")
        assert code == 0
        assert "verdict: findings" in out
        assert "inner-dider + der is ideal: no" in out

    def test_kxy_reports_split_pair_finding(self, capsys):
        code, out, _ = run(capsys, "kxy", "--bound", "4")
        assert code == 0
        assert "two-generator claim" in out
        assert "verdict: findings" in out

    def test_kxy_bound_floor(self, capsys):
        code, _, err = run(capsys, "kxy", "--bound", "3")
        assert code == 2
        assert "at least 4" in err


# Dialgebra files on which the induced bracket breaks the right Leibniz
# identity only, or both identities.
RIGHT_LEIBNIZ_BROKEN = """dialgebra v1
dim 2
dashv 2 1 -> 1:1
"""
BOTH_LEIBNIZ_BROKEN = """dialgebra v1
dim 2
vdash 1 1 -> 1:-1
vdash 1 2 -> 2:-1
dashv 1 1 -> 1:-1
dashv 2 2 -> 2:-1
"""


def routes_disagree(real, p, h):
    """``kxy.inner_dider_apply`` whose two routes disagree on every pair,
    the report's closing Ad_x(x) included."""
    raise AssertionError("inner diderivation routes disagree")


class TestFailVerdicts:
    """Each command's fail verdict ends with exit status 1."""

    @pytest.mark.parametrize("text, right, left, chirality", [
        (RIGHT_LEIBNIZ_BROKEN, 1, 0, "left"),
        (BOTH_LEIBNIZ_BROKEN, 2, 4, "neither"),
    ])
    def test_invariants_right_identity_violation(self, tmp_path, capsys, text, right, left,
                                                 chirality):
        path = tmp_path / "bracket.dlg"
        path.write_text(text, encoding="utf-8")
        code, out, _ = run(capsys, "invariants", str(path))
        assert code == 1
        assert f"  right identity violations: {right}\n" \
            f"  left identity violations: {left}\n  chirality: {chirality}\n" in out
        assert out.endswith("verdict: fail\n")

    def test_catalog_failure_section(self, monkeypatch, capsys):
        # Dias2_1 swapped for a table that breaks the axioms
        broken = Dialgebra.from_relations(2, {("vdash", 1, 1): [(2, 1)], ("vdash", 2, 1): [(2, 1)]})
        real = catalog.instantiate
        monkeypatch.setattr(catalog, "instantiate",
                            lambda name, params=None: broken if name == "Dias2_1"
                            else real(name, params))
        code, out, _ = run(capsys, "catalog", "Dias2_1", "--samples", "1")
        assert code == 1
        assert "\n[failures]\n  failure: Dias2_1: axiom violations\n\nverdict: fail\n" in out

    @pytest.mark.parametrize("name, wrong, line", [
        # -| with x and y swapped where the right factor is a nonconstant
        # monomial.  The bar unit's products, by a constant or a binomial,
        # stay right, so the halo's cross-check does not raise; the product
        # table, keyed on the product, is built afresh and breaks the axioms.
        ("dashv", lambda real, f, g: real(f, g).rename(1, 0)
         if len(g.terms) == 1 and g.total_degree() > 0 else real(f, g),
         "[axioms]\n  monomial triples: 210\n  violations: 160\n"),
        # twice the true product where the right factor has degree 2: the
        # product table cannot be built, and every later sweep reads it
        ("dashv", lambda real, f, g: real(f, g) * 2 if g.total_degree() == 2 else real(f, g),
         "[axioms]\n  products of monomials are monomials of coefficient 1: no\n\n"
         "verdict: fail\n"),
        # membership read off the constant term, which the halo's three
        # differences 0, (y-x)xy and x-1 do not tell from the true test
        ("ann_membership", lambda real, h: (0, 0) not in h.terms,
         "membership matches divisibility (200 seeded): no"),
        # nothing a member: the halo's two routes disagree on 1 and on
        # 1 + (y-x)xy, and agree on x
        ("ann_membership", lambda real, h: False,
         "  1 in halo, routes agree: no\n  1 + (y-x)xy in halo, routes agree: no\n"
         "  x in halo: no\n"),
        # the right verdict with a wrong quotient, 0
        ("divides_x_minus_y", lambda real, h: (real(h)[0], h - h),
         "membership matches divisibility (200 seeded): no"),
        # every h divisible, with quotient h: times x - y, an h of degree
        # 4 passes the bound
        ("divides_x_minus_y", lambda real, h: (True, h),
         "membership matches divisibility (200 seeded): no"),
        ("inner_dider_apply", lambda real, p, h: p * h, "image in annihilator: no"),
        # Ad_x(x) as well, so its line is left out
        ("inner_dider_apply", routes_disagree,
         "  closed form equals operator route (40 seeded): no\n"
         "  image in annihilator: yes\n\n"),
    ])
    def test_kxy_fail(self, monkeypatch, capsys, name, wrong, line):
        monkeypatch.setattr(kxy, name, functools.partial(wrong, getattr(kxy, name)))
        code, out, _ = run(capsys, "kxy", "--bound", "4")
        assert code == 1
        assert line in out
        assert out.endswith("verdict: fail\n")

class TestCatalog:
    def test_filter_restricts_entries(self, capsys):
        code, out, _ = run(capsys, "catalog", "Dias3_9", "--samples", "1")
        assert code == 0
        assert "entries shown: 1" in out
        assert "Dias3_16 case table" not in out

    def test_filter_shows_only_the_named_entrys_findings(self, capsys):
        # Dias3_16, Dias3_17 and the Dias3_9/Dias3_11 pair all have findings;
        # none of them is Dias3_1's
        code, out, _ = run(capsys, "catalog", "Dias3_1", "--samples", "1")
        assert code == 0
        assert "finding:" not in out
        assert "verdict: pass" in out
        code, out, _ = run(capsys, "catalog", "Dias3_11", "--samples", "1")
        assert code == 0
        assert [line for line in out.splitlines() if "finding:" in line] == [
            "  finding: Dias3_9 and Dias3_11 share one printed relation list "
            "and one computed kernel, yet the table assigns them different spaces"]
        assert "verdict: findings" in out

    def test_filtered_run_counts_every_finding_of_the_full_sweep(self, capsys):
        # why a filter cannot skip the other entries: the total is theirs too
        code, out, _ = run(capsys, "catalog", "Dias2_1", "--machine")
        assert code == 0
        items = [item for section in json.loads(out)["sections"]
                 if section["title"] == "findings" for item in section["items"]]
        assert items == [["total in full sweep",
                          str(len(catalog.verify_catalog(3, 0)["findings"]))]]

    def test_machine_output_deterministic(self, capsys):
        first = run(capsys, "catalog", "--samples", "5", "--seed", "7",
                    "--machine")
        second = run(capsys, "catalog", "--samples", "5", "--seed", "7",
                     "--machine")
        assert first == second
        assert first[0] == 0
        doc = json.loads(first[1])
        assert doc["verdict"] == "findings"

    def test_seed_changes_samples_not_verdict(self, capsys):
        a = run(capsys, "catalog", "--samples", "3", "--seed", "1",
                "--machine")
        b = run(capsys, "catalog", "--samples", "3", "--seed", "2",
                "--machine")
        assert json.loads(a[1])["verdict"] == json.loads(b[1])["verdict"]


class TestFileEncodingAndIntegers:
    def test_non_utf8_file_is_an_input_error(self, tmp_path, capsys):
        path = tmp_path / "bytes.dlg"
        path.write_bytes(b"\xff\xfe")
        code, out, err = run(capsys, "verify", str(path))
        assert code == 2
        assert out == ""
        [line] = err.splitlines()
        assert line.startswith(f"error: {path}: not UTF-8 text")

    @pytest.mark.parametrize("lines, message", [
        ("dim 1_0", "line 2: dimension '1_0' is not an integer"),
        ("dim ٣", "line 2: dimension '٣' is not an integer"),
        ("dim +2", "line 2: dimension '+2' is not an integer"),
        ("dim 2\nvdash +1 1 -> 1:1",
         "line 3: indices must be integers in 'vdash +1 1 '"),
        ("dim 2\ndashv 1 0_1 -> 1:1",
         "line 3: indices must be integers in 'dashv 1 0_1 '"),
        ("dim 2\nvdash 1 1 -> 0_1:1", "line 3: target index '0_1' is not an integer"),
        ("dim 2\nvdash 1 1 -> ١:1", "line 3: target index '١' is not an integer"),
    ])
    def test_integers_are_ascii_digits(self, tmp_path, capsys, lines, message):
        path = tmp_path / "bad.dlg"
        path.write_text(f"dialgebra v1\n{lines}\n", encoding="utf-8")
        code, out, err = run(capsys, "verify", str(path))
        assert code == 2
        assert out == ""
        assert err.splitlines() == [f"error: {path}: {message}"]
