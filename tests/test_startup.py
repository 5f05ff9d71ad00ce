"""The command line loads ``catalog`` and ``kxy`` only on the paths that
run them.

Each check starts a fresh interpreter, so the modules this test session
has already imported do not count: it imports ``diaskit.cli``, optionally
runs ``main`` on the given arguments, and prints the diaskit modules then
in ``sys.modules``.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

from diaskit.core import phi_dialgebra, serialize_dialgebra

SRC = Path(__file__).resolve().parent.parent / "src"

PROBE = """
import contextlib, io, json, sys
from diaskit import cli
code = None
if sys.argv[1:]:
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(sys.argv[1:])
print(json.dumps([code, sorted(m for m in sys.modules if m.startswith("diaskit"))]))
"""


def loaded(*argv):
    """Exit status of ``main(argv)`` (None for a bare import) and the
    diaskit modules a fresh process holds afterwards."""
    proc = subprocess.run([sys.executable, "-c", PROBE, *argv], capture_output=True,
                          env=dict(os.environ, PYTHONPATH=str(SRC)), timeout=60, check=True)
    code, modules = json.loads(proc.stdout)
    return code, set(modules)


def test_import_loads_neither():
    code, modules = loaded()
    assert code is None
    assert "diaskit.cli" in modules
    assert not modules & {"diaskit.catalog", "diaskit.kxy"}


def test_verify_of_a_file_loads_neither(tmp_path):
    path = tmp_path / "phi.dlg"
    path.write_text(serialize_dialgebra(phi_dialgebra((1, 2))), encoding="utf-8")
    code, modules = loaded("verify", str(path))
    assert code == 0
    assert not modules & {"diaskit.catalog", "diaskit.kxy"}


def test_kxy_loads_kxy_but_not_catalog():
    code, modules = loaded("kxy", "--bound", "4")
    assert code == 0
    assert "diaskit.kxy" in modules and "diaskit.catalog" not in modules


def test_catalog_selector_loads_catalog():
    code, modules = loaded("verify", "catalog:Dias3_8")
    assert code == 0
    assert "diaskit.catalog" in modules
