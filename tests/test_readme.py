"""The README's Python examples run as written, and its layout is complete.

Every ```python block of README.md runs, in order, in one namespace, and
the quick tour prints the line its comment shows, so renaming a documented
name or changing a documented result fails here.  The layout block names
every module of the package, so a new module cannot land undocumented.
"""

import contextlib
import io
import pathlib
import re

ROOT = pathlib.Path(__file__).resolve().parent.parent
README = ROOT / "README.md"
BLOCKS = re.findall(r"^```python\n(.*?)^```$", README.read_text(encoding="utf-8"), re.M | re.S)


def test_python_blocks_run_and_print_what_they_show():
    assert len(BLOCKS) >= 2
    # the quick tour's one print call, and the comment line after it
    tour = BLOCKS[0].splitlines()
    printed = next(i for i, line in enumerate(tour) if line.startswith("print("))
    shown = tour[printed + 1]
    assert shown.startswith("# ")
    namespace: dict = {}
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        for block in BLOCKS:
            exec(compile(block, str(README), "exec"), namespace)
    assert out.getvalue().splitlines() == [shown[2:]]


def test_layout_names_every_module():
    layout = re.search(r"^## Layout\n\n```\n(.*?)^```$",
                       README.read_text(encoding="utf-8"), re.M | re.S).group(1)
    listed = set(re.findall(r"^  (\w+\.py) ", layout, re.M))
    modules = {p.name for p in (ROOT / "src" / "diaskit").glob("*.py")} - {"__init__.py"}
    assert modules and listed == modules
