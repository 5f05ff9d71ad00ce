"""``tools/code_lines.py``: code lines counted without comments, blank
lines and docstrings, and a total that is the sum of its files."""

import contextlib
import importlib.util
import io
import pathlib

ROOT = pathlib.Path(__file__).resolve().parent.parent
_SPEC = importlib.util.spec_from_file_location("code_lines", ROOT / "tools" / "code_lines.py")
code_lines = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(code_lines)

FIXTURE = '''"""Module docstring,
over two lines."""

# a comment line

import os  # a comment after code


class Box:
    """Class docstring."""

    size = 1


def area(width,
         height):
    """Function docstring.

    With a blank line inside.
    """
    # why: nothing
    text = """a string that is
not a docstring"""
    return (width
            * height)
'''


def test_counts_code_lines_of_a_fixture():
    # import, class, size, def over 2 lines, text over 2 lines, return over 2
    assert code_lines.code_lines(FIXTURE) == 9


def test_total_is_the_sum_of_the_files(tmp_path):
    (tmp_path / "a.py").write_text(FIXTURE, encoding="utf-8")
    (tmp_path / "sub").mkdir()
    (tmp_path / "sub" / "b.py").write_text("x = 1\n\n\ny = [\n    2,\n]\n", encoding="utf-8")
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert code_lines.main([str(tmp_path)]) == 0
    *files, total = [line.split() for line in out.getvalue().splitlines()]
    assert [(int(count), pathlib.Path(path).name) for count, path in files] == \
        [(9, "a.py"), (4, "b.py")]
    assert total == ["13", "total"]
