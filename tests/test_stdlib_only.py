"""The runtime and the tools import nothing outside the standard library,
and every import inside the package names a module and a name that
exist."""

import ast
import importlib
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted((ROOT / "src" / "diaskit").glob("*.py"))
TOOLS = sorted((ROOT / "tools").glob("*.py"))


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
    assert TOOLS
    allowed = sys.stdlib_module_names | {"diaskit"}
    outside = {path.name: sorted(absolute_imports(path) - allowed) for path in SOURCES + TOOLS}
    assert {name: mods for name, mods in outside.items() if mods} == {}


def relative_imports(path: Path) -> list[tuple[str | None, str]]:
    """(module, name) of every ``from .module import name`` in ``path``,
    module None for ``from . import name``, wherever the import stands."""
    return [(node.module, alias.name)
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
            if isinstance(node, ast.ImportFrom) and node.level == 1
            for alias in node.names]


def test_relative_imports_name_what_exists():
    # An import inside a function runs only when its command does, so a
    # misspelt one would fail there and nowhere else.
    modules = {path.stem for path in SOURCES}
    found, missing = 0, []
    for path in SOURCES:
        for module, name in relative_imports(path):
            found += 1
            if module is None:
                ok = name in modules
            else:
                ok = module in modules and hasattr(
                    importlib.import_module(f"diaskit.{module}"), name)
            if not ok:
                missing.append(f"{path.name}: from .{module or ''} import {name}")
    assert found
    assert missing == []
