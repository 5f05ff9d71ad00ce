"""The command line loads each diaskit module only in the commands that
run it.

Importing ``diaskit.cli`` loads ``core`` and ``ratlin``, and ``verify`` of
a file needs no more.  ``spaces`` loads ``spaces``; ``invariants`` and
``bider`` load ``invariants``, which imports ``spaces``; a ``catalog:``
selector loads the table module ``entries`` and nothing more; ``catalog``
loads ``catalog``, which imports ``entries``, ``poly`` and ``spaces``;
``kxy`` loads ``kxy`` and ``poly``.  No command loads ``dataclasses`` or
``inspect``, whose import and generated code would be paid at every start,
or ``typing``, and ``json`` loads only to write ``--machine`` output.

Each check starts a fresh interpreter, so the modules this test session
has already imported do not count: it notes ``sys.modules``, imports
``diaskit.cli``, optionally runs ``main`` on the given arguments, and
prints the modules then in ``sys.modules`` that were not there before
(``site`` may import some of its own first).  The ``typing`` check runs
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
        code = cli.main(sys.argv[1:])
print([code, sorted(set(sys.modules) - before)])
"""

SOLVERS = {"diaskit.spaces", "diaskit.invariants"}
GENERATED = {"dataclasses", "inspect"}


def added_modules(*argv, flags=()):
    """Exit status of ``main(argv)`` (None for a bare import) and the
    modules that importing ``diaskit.cli`` and running the command added
    to a fresh process started with the interpreter ``flags``; fails if
    they include ``dataclasses`` or ``inspect``."""
    proc = subprocess.run([sys.executable, *flags, "-c", PROBE, *argv], capture_output=True,
                          env=dict(os.environ, PYTHONPATH=str(SRC)), timeout=60, check=True)
    code, added = ast.literal_eval(proc.stdout.decode())
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


def test_import_loads_core_and_ratlin_only():
    code, modules = loaded()
    assert code is None
    assert modules == {"diaskit", "diaskit.cli", "diaskit.core", "diaskit.ratlin"}


def test_verify_of_a_file_loads_no_solver(dlg_file):
    code, modules = loaded("verify", dlg_file)
    assert code == 0
    assert modules == {"diaskit", "diaskit.cli", "diaskit.core", "diaskit.ratlin"}


def test_kxy_loads_kxy_but_no_solver_and_not_catalog():
    code, modules = loaded("kxy", "--bound", "4")
    assert code == 0
    assert {"diaskit.kxy", "diaskit.poly"} <= modules
    assert not modules & (SOLVERS | {"diaskit.catalog"})


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
    assert modules == {"diaskit", "diaskit.cli", "diaskit.core", "diaskit.ratlin",
                       "diaskit.entries"}


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
