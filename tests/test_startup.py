"""The command line loads each diaskit module only in the commands that
run it.

Importing ``diaskit.cli`` loads no other diaskit module: the package root
resolves its ``__all__`` names on first use, so ``import diaskit`` loads
nothing more either.  ``verify`` of a file loads ``core``, which imports
``ratlin`` and ``base``, and needs no more.  ``spaces`` loads ``spaces``;
``invariants`` and ``bider`` load ``invariants``, which imports
``spaces``; a ``catalog:`` selector adds the table module ``entries`` and
nothing more; ``catalog`` loads ``catalog``, which imports ``entries``,
``poly`` and ``spaces``; ``kxy`` loads ``kxy``, ``poly`` and ``base``, and
neither ``core`` nor ``ratlin``.  No command loads ``dataclasses`` or
``inspect``, whose import and generated code would be paid at every start,
or ``typing``, and ``json`` loads only to write ``--machine`` output.
``argparse`` loads only where a call needs its help or its error
messages: a plain call of a subcommand is read without it.

Each check starts a fresh interpreter, so the modules this test session
has already imported do not count: it notes ``sys.modules``, imports
``diaskit.cli``, optionally runs ``main`` on the given arguments (help's
``SystemExit`` gives its status), and prints the modules then in
``sys.modules`` that were not there before (``site`` may import some of
its own first).  The ``typing`` check runs
the interpreter with ``-S``, so that neither ``site`` nor a ``.pth`` file
it reads imports ``typing`` before the probe looks.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

from diaskit.core import phi_dialgebra, serialize_dialgebra

SRC = Path(__file__).resolve().parent.parent / "src"

# prints with repr, not json: whether a command loads json is checked
PROBE = """
import contextlib, io, sys
before = set(sys.modules)
from diaskit import cli
code = None
if sys.argv[1:]:
    with contextlib.redirect_stdout(io.StringIO()):
        try:
            code = cli.main(sys.argv[1:])
        except SystemExit as exc:  # help
            code = exc.code
print([code, sorted(set(sys.modules) - before)])
"""

SOLVERS = {"diaskit.spaces", "diaskit.invariants"}
GENERATED = {"dataclasses", "inspect"}


def fresh(source, *argv, flags=()):
    """The value that ``source`` prints with repr, run with ``argv`` in a
    fresh process started with the interpreter ``flags``."""
    proc = subprocess.run([sys.executable, *flags, "-c", source, *argv], capture_output=True,
                          env=dict(os.environ, PYTHONPATH=str(SRC)), timeout=60, check=True)
    return ast.literal_eval(proc.stdout.decode())


def added_modules(*argv, flags=()):
    """Exit status of ``main(argv)`` (None for a bare import) and the
    modules that importing ``diaskit.cli`` and running the command added
    to a fresh process started with the interpreter ``flags``; fails if
    they include ``dataclasses`` or ``inspect``."""
    code, added = fresh(PROBE, *argv, flags=flags)
    assert not GENERATED & set(added)
    return code, set(added)


def loaded(*argv):
    """Exit status of ``main(argv)`` and the diaskit modules it loaded."""
    code, added = added_modules(*argv)
    return code, {m for m in added if m.startswith("diaskit")}


@pytest.fixture(scope="module")
def dlg_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("startup") / "phi.dlg"
    path.write_text(serialize_dialgebra(phi_dialgebra((1, 2))), encoding="utf-8")
    return str(path)


# what reading an input file loads
READER = {"diaskit", "diaskit.cli", "diaskit.core", "diaskit.ratlin", "diaskit.base"}


def test_import_loads_cli_only():
    code, modules = loaded()
    assert code is None
    assert modules == {"diaskit", "diaskit.cli"}


def test_verify_of_a_file_loads_no_solver(dlg_file):
    code, modules = loaded("verify", dlg_file)
    assert code == 0
    assert modules == READER


def test_kxy_loads_kxy_but_no_solver_and_not_catalog():
    # neither core nor ratlin: kxy and poly read the scalars and rule
    # tables from base, and only kxy.truncation builds a Dialgebra
    code, modules = loaded("kxy", "--bound", "4")
    assert code == 0
    assert modules == {"diaskit", "diaskit.cli", "diaskit.kxy", "diaskit.poly", "diaskit.base"}


def test_spaces_loads_spaces_but_not_invariants(dlg_file):
    code, modules = loaded("spaces", dlg_file, "--which", "der")
    assert code == 0
    assert "diaskit.spaces" in modules
    assert not modules & {"diaskit.invariants", "diaskit.catalog", "diaskit.kxy"}


@pytest.mark.parametrize("command", ["invariants", "bider"])
def test_invariants_and_bider_load_both_solvers(dlg_file, command):
    code, modules = loaded(command, dlg_file)
    assert code == 0
    assert SOLVERS <= modules
    assert not modules & {"diaskit.catalog", "diaskit.kxy"}


def test_catalog_selector_loads_the_table_only():
    code, modules = loaded("verify", "catalog:Dias3_8")
    assert code == 0
    assert modules == READER | {"diaskit.entries"}


def test_catalog_command_loads_the_study_but_not_invariants_or_kxy():
    code, modules = loaded("catalog", "Dias2_1", "--samples", "1")
    assert code == 0
    assert {"diaskit.catalog", "diaskit.entries", "diaskit.spaces", "diaskit.poly"} <= modules
    assert not modules & {"diaskit.invariants", "diaskit.kxy"}


@pytest.mark.parametrize("argv", [
    ["verify", "catalog:Dias3_8"],
    ["catalog", "--samples", "1"],
    ["kxy", "--bound", "4"],
    ["bider", "catalog:Dias3_8", "--machine"],
])
def test_no_command_loads_typing(argv):
    code, added = added_modules(*argv, flags=("-S",))
    assert code == 0
    assert "typing" not in added


def test_json_loads_only_for_machine_output(dlg_file):
    assert "json" not in added_modules("verify", dlg_file)[1]
    assert "json" in added_modules("verify", dlg_file, "--machine")[1]


@pytest.mark.parametrize("argv, status, parses", [
    (["verify", "catalog:Dias3_8"], 0, False),
    (["kxy", "--bound", "4"], 0, False),
    (["--help"], 0, True),
    (["verify"], 2, True),
])
def test_argparse_loads_only_for_help_and_errors(argv, status, parses):
    # a plain call is read without a parser; help and the missing input's
    # error are argparse's own
    code, added = added_modules(*argv)
    assert code == status
    assert ("argparse" in added) == parses


# The package root resolves its ``__all__`` names on first use.

def test_importing_the_package_loads_nothing_else():
    added = fresh("import sys; before = set(sys.modules); import diaskit\n"
                  "print(sorted(m for m in set(sys.modules) - before if m.startswith('diaskit')))")
    assert added == ["diaskit"]


def test_reading_matrix_loads_ratlin_but_not_core():
    added = fresh("import sys, diaskit; before = set(sys.modules); diaskit.Matrix\n"
                  "print(sorted(m for m in set(sys.modules) - before if m.startswith('diaskit')))")
    assert added == ["diaskit.base", "diaskit.ratlin"]


def test_every_exported_name_is_the_one_of_its_module():
    same = fresh("import diaskit\n"
                 "from diaskit import core, ratlin\n"
                 "print({name: getattr(diaskit, name) is getattr(ratlin if name in "
                 "('Matrix', 'Subspace') else core, name) for name in diaskit.__all__})")
    assert same == {name: True for name in ("Dialgebra", "DialgebraError", "Matrix", "Subspace",
                                            "parse_dialgebra", "serialize_dialgebra")}


def test_star_import_binds_exactly_all():
    names = fresh("import diaskit\n"
                  "namespace = {}\n"
                  "exec('from diaskit import *', namespace)\n"
                  "print([sorted(set(namespace) - {'__builtins__'}), sorted(diaskit.__all__)])")
    assert names[0] == names[1]


def test_from_import_still_imports_a_submodule():
    assert fresh("from diaskit import cli\nprint(repr(cli.__name__))") == "diaskit.cli"


def test_an_unknown_name_is_an_attribute_error_and_an_import_error():
    errors = fresh("import diaskit\n"
                   "out = []\n"
                   "for source in ('diaskit.nosuch', 'from diaskit import nosuch'):\n"
                   "    try:\n"
                   "        exec(source)\n"
                   "    except Exception as exc:\n"
                   "        out.append(type(exc).__name__)\n"
                   "print(out)")
    assert errors == ["AttributeError", "ImportError"]
