"""Source-level invariants of the library, read from its syntax trees: it
imports nothing outside the standard library, it states no invariant as an
`assert`, which `python -O` would strip, and it never asks `json` for indented
output, which CPython writes with its pure-Python encoder."""

import ast
import sys
from pathlib import Path

import pytest

SRC = sorted((Path(__file__).resolve().parent.parent / "src" / "ewm").glob("*.py"))


def _tree(path):
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def test_source_files_found():
    assert {"__init__.py", "cli.py", "core.py"} <= {p.name for p in SRC}


@pytest.mark.parametrize("path", SRC, ids=lambda p: p.name)
def test_imports_are_package_relative_or_stdlib(path):
    outside = []
    for node in ast.walk(_tree(path)):
        if isinstance(node, ast.Import):
            names = [a.name for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module]
        else:
            continue
        outside += [(node.lineno, n) for n in names
                    if n.split(".")[0] not in sys.stdlib_module_names | {"ewm"}]
    assert outside == []


@pytest.mark.parametrize("path", SRC, ids=lambda p: p.name)
def test_no_assert_statements(path):
    assert [n.lineno for n in ast.walk(_tree(path)) if isinstance(n, ast.Assert)] == []


@pytest.mark.parametrize("path", SRC, ids=lambda p: p.name)
def test_no_indented_json_dumps(path):
    calls = [n.lineno for n in ast.walk(_tree(path))
             if isinstance(n, ast.Call)
             and getattr(n.func, "attr", getattr(n.func, "id", None)) in ("dump", "dumps")
             and any(k.arg == "indent" for k in n.keywords)]
    assert calls == []
