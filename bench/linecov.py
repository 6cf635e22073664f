"""Line coverage of src/dquant under pytest, with the standard library only.

A pytest plugin. Run it from the root of a checkout with the tier-1 suite:

    PYTHONPATH=bench python -m pytest -q -p no:cacheprovider -p linecov

From pytest_configure on, sys.settrace (and threading.settrace, for threads
the tests start) traces the frames of files under src/dquant and no others.
The executable lines are those the compiled code objects of each file name
in co_lines(), nested code objects included. At the end of the session it
prints how many of them no test ran, then each one as path:line. Lines run
only in a subprocess a test starts are not seen, so they count as not run.

The name does not match test_*.py, so tier-1 collection skips it.
"""

import sys
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "dquant"

_files = {str(p): p for p in sorted(SRC.glob("*.py"))}
_hit = {name: set() for name in _files}


def _executable(path):
    """Line numbers of every code object compiled from the file."""
    lines, todo = set(), [compile(path.read_text(), str(path), "exec")]
    while todo:
        code = todo.pop()
        lines.update(line for _, _, line in code.co_lines() if line)
        todo.extend(c for c in code.co_consts if hasattr(c, "co_lines"))
    return lines


def _trace(frame, event, arg):
    """Global trace function: a local tracer for frames of src/dquant only."""
    hit = _hit.get(frame.f_code.co_filename)
    if hit is None:
        return None
    hit.add(frame.f_lineno)

    def local(frame, event, arg):
        hit.add(frame.f_lineno)
        return local

    return local


def pytest_configure(config):
    threading.settrace(_trace)
    sys.settrace(_trace)


def pytest_unconfigure(config):
    sys.settrace(None)
    threading.settrace(None)


def pytest_terminal_summary(terminalreporter):
    missed, total = [], 0
    for name, path in _files.items():
        lines = _executable(path)
        total += len(lines)
        missed += [f"{path.relative_to(ROOT)}:{n}" for n in sorted(lines - _hit[name])]
    write = terminalreporter.write_line
    write(f"linecov: {len(missed)} of {total} executable lines in src/dquant not run")
    for where in missed:
        write(f"  {where}")
