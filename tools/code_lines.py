"""Count the code lines of Python sources: the one counter behind every
net line delta that CHANGES.md states.

A code line is a physical line that holds a token other than a comment,
a newline or indentation, and that is not part of a module, class or
function docstring.  A statement spread over several lines counts each
line it covers; a blank line, a comment line and a docstring line count
nothing.

Usage, from the root of a checkout:

    python3 tools/code_lines.py [PATH ...]

Each PATH is a ``.py`` file or a directory searched for ``*.py`` files;
the default is ``src/diaskit``.  Prints the count of each file, then the
total.  Standard library only.
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
             tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}
_DOCUMENTED = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def code_lines(source: str) -> int:
    """The number of code lines in one module's source."""
    lines: set[int] = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _NOT_CODE:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, _DOCUMENTED) and ast.get_docstring(node, clean=False) is not None:
            doc = node.body[0]
            lines.difference_update(range(doc.lineno, doc.end_lineno + 1))
    return len(lines)


def sources(paths: list[str]) -> list[Path]:
    """The ``.py`` files named by ``paths``, directories searched in sorted
    order."""
    found = []
    for path in map(Path, paths):
        found += sorted(path.rglob("*.py")) if path.is_dir() else [path]
    return found


def main(argv: list[str]) -> int:
    total = 0
    for path in sources(argv or ["src/diaskit"]):
        count = code_lines(path.read_text(encoding="utf-8"))
        total += count
        print(f"{count:6d}  {path}")
    print(f"{total:6d}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
