"""The runtime imports nothing outside the standard library."""

import ast
import sys
from pathlib import Path

SOURCES = sorted((Path(__file__).resolve().parent.parent / "src" / "diaskit").glob("*.py"))


def absolute_imports(path: Path) -> set[str]:
    """Top-level names of the modules ``path`` imports absolutely."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            names.update(alias.name.partition(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module.partition(".")[0])
    return names


def test_sources_found():
    assert any(path.name == "core.py" for path in SOURCES)


def test_runtime_is_standard_library_only():
    allowed = sys.stdlib_module_names | {"diaskit"}
    outside = {path.name: sorted(absolute_imports(path) - allowed) for path in SOURCES}
    assert {name: mods for name, mods in outside.items() if mods} == {}
