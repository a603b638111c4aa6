"""Mutation fuzz of the CLI: replace one leaf of a checked-in document with a
hostile value, or repeat one element of one of its lists; the run must end in
a documented exit code, never a traceback."""

import json
from contextlib import redirect_stderr, redirect_stdout
from io import StringIO
from pathlib import Path
from unittest import mock

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from ewm.cli import run  # noqa: E402

DATA = Path(__file__).resolve().parent.parent / "data"
DOCS = {p.name: json.loads(p.read_text(encoding="utf-8")) for p in sorted(DATA.glob("*.json"))}
POOL = [-1, 0, 1, 7, True, None, "x", [], {}]


def _leaf_paths(node, path=()):
    """Paths to every scalar, empty list and empty object in a JSON value."""
    if isinstance(node, dict) and node:
        for k, v in node.items():
            yield from _leaf_paths(v, path + (k,))
    elif isinstance(node, list) and node:
        for i, v in enumerate(node):
            yield from _leaf_paths(v, path + (i,))
    else:
        yield path


def _list_paths(node, path=()):
    """Paths to every non-empty list in a JSON value."""
    if isinstance(node, dict):
        for k, v in node.items():
            yield from _list_paths(v, path + (k,))
    elif isinstance(node, list) and node:
        yield path
        for i, v in enumerate(node):
            yield from _list_paths(v, path + (i,))


def _at(node, path):
    for k in path:
        node = node[k]
    return node


SITES = [(name, path) for name, doc in DOCS.items() for path in _leaf_paths(doc)]
# (document, path to a list, index of the element to repeat)
REPEATS = [(name, path, i) for name, doc in DOCS.items() for path in _list_paths(doc)
           for i in range(len(_at(doc, path)))]


def _exit_code(name, doc):
    with mock.patch("sys.stdin", StringIO(json.dumps(doc))), \
            redirect_stdout(StringIO()), redirect_stderr(StringIO()):
        return run([DOCS[name]["mode"]])


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(site=st.sampled_from(SITES), value=st.sampled_from(POOL))
def test_mutated_document_exits_with_documented_code(site, value):
    name, path = site
    doc = json.loads(json.dumps(DOCS[name]))
    _at(doc, path[:-1])[path[-1]] = value
    code = _exit_code(name, doc)
    assert code in (0, 2, 3, 4), (name, path, value, code)


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(site=st.sampled_from(REPEATS))
def test_repeated_list_element_exits_with_documented_code(site):
    """Repeated active roots, iota rows, module weights and Xi2 entries."""
    name, path, i = site
    doc = json.loads(json.dumps(DOCS[name]))
    seq = _at(doc, path)
    seq.insert(i, json.loads(json.dumps(seq[i])))
    code = _exit_code(name, doc)
    assert code in (0, 2, 3, 4), (name, path, i, code)
