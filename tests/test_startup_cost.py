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


def test_render_lists_each_module_and_the_total():
    modules = startup_cost.diaskit_self_us(IMPORTTIME)
    lines = startup_cost.render(["kxy", "--bound", "6"], 0, modules).splitlines()
    assert lines[0] == "$ diaskit kxy --bound 6  (exit 0)"
    assert lines[1] == "  diaskit.ratlin     6.73 ms"
    assert lines[-1] == "  total             34.53 ms"
    assert len(lines) == 8


def test_commands_split_on_double_dash():
    argv = ["--", "verify", "catalog:Dias3_8", "--", "kxy", "--bound", "6"]
    assert startup_cost.split_commands(argv) == [
        ["verify", "catalog:Dias3_8"], ["kxy", "--bound", "6"]]


@pytest.mark.parametrize("argv", [[], ["kxy"], ["--"], ["--", "kxy", "--"]])
def test_a_missing_or_empty_command_is_refused(argv):
    with pytest.raises(ValueError):
        startup_cost.split_commands(argv)
    assert startup_cost.main(argv) == 2
