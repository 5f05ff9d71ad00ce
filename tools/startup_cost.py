"""Show what each diaskit module costs a command at start-up.

Usage, from anywhere:

    python3 tools/startup_cost.py -- ARGV [-- ARGV ...]

e.g. ``python3 tools/startup_cost.py -- verify catalog:Dias3_8 -- kxy``.
Each ARGV is one command line of ``diaskit``.  It runs in a fresh
``python -X importtime`` that imports ``diaskit.cli`` and calls its
``main`` on ARGV, with this checkout's ``src`` on ``PYTHONPATH``; ``-m
diaskit.cli`` would run ``cli`` as ``__main__``, which ``-X importtime``
does not list.  Each command runs ``RUNS`` times, one after the other,
because one start-up varies by tens of percent on a shared machine.  For
each command the tool prints its exit status, the median self import time
of each diaskit module loaded, in the order their imports ended, and the
median, least and greatest of the runs' totals.  A module's self time is
the time to find, compile and run it, without the modules it imports;
where bytecode is not written (``PYTHONDONTWRITEBYTECODE``) every start
compiles every line again.  A run's total is the import time of every
module the command loads, standard library included: the cumulative time
of each top-level import from ``diaskit.cli`` on, so a module that
``diaskit.cli`` or a command imports (``argparse``, ``json``) counts.
The report goes to stdout, the command's own output nowhere.  Standard
library only.
"""

from __future__ import annotations

import os
import re
import statistics
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
RUNS = 5
RUN = "import sys; from diaskit.cli import main; sys.exit(main(sys.argv[1:]))"
# "import time:  self [us] | cumulative | imported package", the name
# after one space and two more per level of nesting
_LINE = re.compile(r"import time:\s*(\d+)\s*\|\s*(\d+)\s*\| ( *)(\S+)\s*$")


def split_commands(argv: list[str]) -> list[list[str]]:
    """The command lines of ``-- ARGV [-- ARGV ...]``; ``ValueError``
    unless ``argv`` starts with ``--`` and every command is nonempty."""
    if not argv or argv[0] != "--":
        raise ValueError("expected -- ARGV [-- ARGV ...]")
    commands: list[list[str]] = []
    for arg in argv:
        if arg == "--":
            commands.append([])
        else:
            commands[-1].append(arg)
    if not all(commands):
        raise ValueError("an empty command between two --")
    return commands


def diaskit_self_us(text: str) -> list[tuple[str, int]]:
    """Each diaskit module in ``-X importtime`` output ``text``, with its
    self time in microseconds, in the order of the lines."""
    out = []
    for line in text.splitlines():
        m = _LINE.match(line)
        if m and (m[4] == "diaskit" or m[4].startswith("diaskit.")):
            out.append((m[4], int(m[1])))
    return out


def loaded_us(text: str) -> int:
    """The import time in microseconds of everything a command loads: the
    cumulative times of the top-level lines of ``-X importtime`` output
    ``text`` from the ``diaskit.cli`` line on."""
    total, started = 0, False
    for line in text.splitlines():
        m = _LINE.match(line)
        if m and not m[3]:
            started = started or m[4] == "diaskit.cli"
            total += int(m[2]) if started else 0
    return total


def render(argv: list[str], runs: list[tuple[int, list[tuple[str, int]], int]]) -> str:
    """The report on the runs of one command: each run's exit status,
    diaskit modules' self times and total, as ``measure`` gives them."""
    times: dict[str, list[int]] = {}
    for _, modules, _ in runs:
        for name, us in modules:
            times.setdefault(name, []).append(us)
    totals = [total / 1000 for _, _, total in runs]
    codes = ", ".join(str(code) for code in sorted({code for code, _, _ in runs}))
    width = max([len(name) for name in times] + [len("total")])
    lines = [f"$ diaskit {' '.join(argv)}  (exit {codes}; median of {len(runs)} runs)"]
    lines += [f"  {name:{width}}  {statistics.median(us) / 1000:7.2f} ms"
              for name, us in times.items()]
    lines.append(f"  {'total':{width}}  {statistics.median(totals):7.2f} ms"
                 f"  (min {min(totals):.2f}, max {max(totals):.2f})")
    return "\n".join(lines)


def measure(argv: list[str]) -> tuple[int, list[tuple[str, int]], int]:
    """Exit status of one command in a fresh process, its diaskit modules'
    self import times and the import time of all it loads."""
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", "-c", RUN, *argv],
        env=dict(os.environ, PYTHONPATH=str(SRC)), stdout=subprocess.DEVNULL,
        stderr=subprocess.PIPE, text=True)
    return proc.returncode, diaskit_self_us(proc.stderr), loaded_us(proc.stderr)


def main(argv: list[str] | None = None) -> int:
    try:
        commands = split_commands(sys.argv[1:] if argv is None else argv)
    except ValueError as exc:
        print(f"usage: startup_cost.py -- ARGV [-- ARGV ...]\nerror: {exc}", file=sys.stderr)
        return 2
    for command in commands:
        print(render(command, [measure(command) for _ in range(RUNS)]), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
