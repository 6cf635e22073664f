"""No quoted timing in the docstrings or comments of src/dquant.

A timing goes stale with the host, so the package's text states rules and
their reasons, and the measurements behind them are kept in CHANGES.md.
This scans every module, class and function docstring (through ast) and
every comment token (through tokenize) for a digit followed by a time or
throughput unit: ms, us, µs, ns, GF/s or %.
"""

import ast
import io
import re
import tokenize
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "dquant"
TIMING = re.compile(r"\d\s*(?:(?:ms|us|µs|ns)\b|GF/s|%)")
DOCUMENTED = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def texts(source):
    """(line, text) of each docstring and comment in a module's source."""
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, DOCUMENTED) and ast.get_docstring(node) is not None:
            yield node.body[0].lineno, node.body[0].value.value
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type == tokenize.COMMENT:
            yield tok.start[0], tok.string


def test_the_pattern_finds_each_unit():
    found = ["30 ms", "0.5 us", "4-6 µs", "2ns", "100-153 GF/s", "5-7%", "12 %"]
    assert all(TIMING.search(t) for t in found)
    kept = ["64 rows", "8 * TILE_ELEMENTS", "2 msb", "a 4 usage", "1e-4", "p % 2"]
    assert not any(TIMING.search(t) for t in kept)


def test_the_scan_reads_docstrings_and_comments():
    source = '"""mod 1 ms"""\nclass A:\n    """cls 2 us"""\n    def f(self):\n'
    source += '        """fn 3 ns"""\n        return "4 ms"  # comment 5%\n'
    assert [TIMING.findall(t) for _, t in texts(source)] == [
        ["1 ms"], ["2 us"], ["3 ns"], ["5%"]
    ]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_quoted_timing(path):
    hits = [
        f"{path.name}:{line}: {match}"
        for line, text in texts(path.read_text(encoding="utf-8"))
        for match in TIMING.findall(text)
    ]
    assert hits == []
