"""Source-level invariants of the library, read from its syntax trees: it
imports nothing outside the standard library, it states no invariant as an
`assert`, which `python -O` would strip, it never asks `json` for indented
output, which CPython writes with its pure-Python encoder, each module
binds every name its `__all__` exports, every error class it exports is
raised or caught by name somewhere, and every function the benchmark's
stage trace wraps by name, or imports from `ewm`, still exists."""

import ast
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = sorted((ROOT / "src" / "ewm").glob("*.py"))


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


def _bound_names(tree):
    """Names bound by the module's top-level statements."""
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names |= {(a.asname or a.name).split(".")[0] for a in node.names}
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names |= {n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)}
    return names


@pytest.mark.parametrize("path", SRC, ids=lambda p: p.name)
def test_all_exports_are_bound(path):
    tree = _tree(path)
    exported = [ast.literal_eval(node.value) for node in tree.body
                if isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)]
    assert [name for names in exported for name in names
            if name not in _bound_names(tree)] == []


def test_traced_functions_are_defined():
    """`perfbench/spans.py` wraps library functions by name and counts a
    missing one as absent; a rename must fail here instead."""
    tree = _tree(ROOT / "perfbench" / "spans.py")
    wrapped = next(ast.literal_eval(node.value) for node in tree.body
                   if isinstance(node, ast.Assign)
                   and any(isinstance(t, ast.Name) and t.id == "WRAPPED" for t in node.targets))
    assert wrapped
    missing = [(module, name) for module, names in wrapped.items()
               for name in names
               if name not in _bound_names(_tree(ROOT / "src" / f"{module.replace('.', '/')}.py"))]
    assert missing == []


@pytest.mark.parametrize("path", sorted((ROOT / "perfbench").glob("*.py")), ids=lambda p: p.name)
def test_benchmark_imports_are_bound(path):
    """Every name the benchmark imports from `ewm.*` is still bound there, so
    an API cut fails here instead of inside a benchmark run."""
    missing = []
    for node in ast.walk(_tree(path)):
        if isinstance(node, ast.ImportFrom) and node.level == 0 and node.module.startswith("ewm"):
            module = ROOT / "src" / f"{node.module.replace('.', '/')}.py"
            if node.module == "ewm":
                module = ROOT / "src" / "ewm" / "__init__.py"
            missing += [(node.module, a.name) for a in node.names
                        if not module.exists() or a.name not in _bound_names(_tree(module))]
    assert missing == []


def _names_in(node):
    """The bare names of an exception expression: `E`, `E(...)` or `(E, F)`."""
    if isinstance(node, ast.Call):
        node = node.func
    if isinstance(node, ast.Tuple):
        return {n for elt in node.elts for n in _names_in(elt)}
    return {node.id} if isinstance(node, ast.Name) else set()


def test_every_error_class_is_raised_or_caught():
    """An error class whose last `raise` and `except` are gone is dead API:
    it fails here instead of lingering in `errors.__all__`."""
    tree = _tree(ROOT / "src" / "ewm" / "errors.py")
    exported = next(ast.literal_eval(node.value) for node in tree.body
                    if isinstance(node, ast.Assign)
                    and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets))
    used = set()
    for path in SRC:
        for node in ast.walk(_tree(path)):
            if isinstance(node, ast.Raise) and node.exc is not None:
                used |= _names_in(node.exc)
            elif isinstance(node, ast.ExceptHandler) and node.type is not None:
                used |= _names_in(node.type)
    assert [name for name in exported if name not in used] == []
