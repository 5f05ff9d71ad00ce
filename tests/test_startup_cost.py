"""``tools/startup_cost.py``: its command-line split and its reading of
``-X importtime`` output, on canned text without a subprocess."""

import importlib.util
import pathlib

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
_SPEC = importlib.util.spec_from_file_location("startup_cost", ROOT / "tools" / "startup_cost.py")
startup_cost = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(startup_cost)

IMPORTTIME = """\
import time: self [us] | cumulative | imported package
import time:       183 |        183 |             _typing
import time:      3864 |       4300 |           typing
import time:      6729 |       6729 |       diaskit.ratlin
import time:      7703 |      17889 |     diaskit.core
import time:       400 |      18288 |   diaskit
import time:      9428 |      32890 | diaskit.cli
import time:       670 |        670 |   gettext
import time:       936 |       1606 | argparse
import time:        41 |         41 |   diaskitty
import time:      2953 |       2953 |   diaskit.poly
import time:      7318 |      10270 | diaskit.kxy
"""


def test_reads_the_diaskit_modules_in_line_order():
    assert startup_cost.diaskit_self_us(IMPORTTIME) == [
        ("diaskit.ratlin", 6729), ("diaskit.core", 7703), ("diaskit", 400),
        ("diaskit.cli", 9428), ("diaskit.poly", 2953), ("diaskit.kxy", 7318)]


def test_ignores_lines_that_are_not_import_times():
    text = "Traceback (most recent call last):\nimport time: self [us] | cumulative\n"
    assert startup_cost.diaskit_self_us(text) == []
    assert startup_cost.loaded_us(text) == 0


def test_total_counts_each_top_level_import_from_the_cli_on():
    # diaskit.cli, argparse and diaskit.kxy, each with what it imports;
    # typing and the others nested in diaskit.cli are inside its time
    assert startup_cost.loaded_us(IMPORTTIME) == 32890 + 1606 + 10270
    earlier = "import time:       500 |        500 | site\n"
    assert startup_cost.loaded_us(earlier + IMPORTTIME) == 32890 + 1606 + 10270


def test_render_lists_each_modules_median_and_the_totals_range():
    modules = startup_cost.diaskit_self_us(IMPORTTIME)
    total = startup_cost.loaded_us(IMPORTTIME)  # 44.77 ms
    slower = [(name, us + 1000) for name, us in modules]
    runs = [(0, modules, total), (1, slower, total + 6000), (0, modules, total)]
    lines = startup_cost.render(["kxy", "--bound", "6"], runs).splitlines()
    # each exit status once, in order
    assert lines[0] == "$ diaskit kxy --bound 6  (exit 0, 1; median of 3 runs)"
    assert lines[1] == "  diaskit.ratlin     6.73 ms"
    assert lines[-1] == "  total             44.77 ms  (min 44.77, max 50.77)"
    assert len(lines) == 8


def test_each_command_runs_a_fixed_number_of_times(monkeypatch, capsys):
    calls = []

    def measure(argv):
        calls.append(argv)
        return 0, [("diaskit", 1000 * len(calls))], 1000 * len(calls)

    monkeypatch.setattr(startup_cost, "measure", measure)
    assert startup_cost.main(["--", "verify", "--", "kxy"]) == 0
    runs = startup_cost.RUNS
    assert runs == 5 and calls == [["verify"]] * runs + [["kxy"]] * runs
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "$ diaskit verify  (exit 0; median of 5 runs)"
    assert out[2] == "  total       3.00 ms  (min 1.00, max 5.00)"
    assert out[5] == "  total       8.00 ms  (min 6.00, max 10.00)"


def test_commands_split_on_double_dash():
    argv = ["--", "verify", "catalog:Dias3_8", "--", "kxy", "--bound", "6"]
    assert startup_cost.split_commands(argv) == [
        ["verify", "catalog:Dias3_8"], ["kxy", "--bound", "6"]]


@pytest.mark.parametrize("argv", [[], ["kxy"], ["--"], ["--", "kxy", "--"]])
def test_a_missing_or_empty_command_is_refused(argv):
    with pytest.raises(ValueError):
        startup_cost.split_commands(argv)
    assert startup_cost.main(argv) == 2
