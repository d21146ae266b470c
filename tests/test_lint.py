"""Static checks on the package source; no linter is a test dependency."""

import ast
import functools
from collections import Counter
from pathlib import Path

import pytest

import graphcm

MODULES = sorted(p for p in Path(graphcm.__file__).parent.glob("*.py") if p.name != "__init__.py")
ROOT = Path(__file__).resolve().parent.parent
# where a definition in the package may be named: the code that calls it,
# tests that exercise it, scripts, and the benchmark, which looks some up
# by string
READERS = sorted(p for d in ("src", "tests", "scripts", "perfbench") for p in (ROOT / d).rglob("*.py"))


def _unused_imports(source: str) -> list:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                imported[(alias.asname or alias.name).split(".")[0]] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items() if name not in used)


def test_detector_flags_an_unused_import():
    assert _unused_imports("import os\nfrom a import b, c as d\nprint(d)\n") == [(1, "os"), (2, "b")]
    assert _unused_imports("from __future__ import annotations\nimport os.path\nos.sep\n") == []


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_no_unused_imports(path):
    assert _unused_imports(path.read_text()) == []


def _names(tree) -> Counter:
    """How often each identifier is named: as a variable, an attribute, an
    imported name or a string that is exactly the identifier."""
    out = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            out[node.id] += 1
        elif isinstance(node, ast.Attribute):
            out[node.attr] += 1
        elif isinstance(node, ast.alias):
            out[node.name.split(".")[-1]] += 1
        elif isinstance(node, ast.Constant) and isinstance(node.value, str) and node.value.isidentifier():
            out[node.value] += 1
    return out


def _named(sources) -> Counter:
    out = Counter()
    for source in sources:
        out += _names(ast.parse(source))
    return out


@functools.cache
def _named_by_readers() -> Counter:
    return _named(p.read_text() for p in READERS)


def _dead_definitions(defining: str, named: Counter) -> list:
    """(line, name) of each non-dunder function or method in ``defining``
    that ``named`` (the counts of ``_named``) holds no more often than its
    own body names it."""
    out = []
    for node in ast.walk(ast.parse(defining)):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            name = node.name
            if not (name.startswith("__") and name.endswith("__")) and named[name] <= _names(node)[name]:
                out.append((node.lineno, name))
    return sorted(out)


def test_detector_flags_a_dead_definition():
    src = (
        "def used():\n    return 1\n"
        "def recursive(k):\n    return recursive(k - 1)\n"
        "class C:\n    def method(self):\n        pass\n    def __repr__(self):\n        return ''\n"
    )
    assert _dead_definitions(src, _named([src, "used()\n"])) == [(3, "recursive"), (6, "method")]
    assert _dead_definitions(src, _named([src, "used()\nC().method\nrecursive(3)\n"])) == []
    assert _dead_definitions(src, _named([src, "used()\nfrom m import method\nx = ('recursive',)\n"])) == []


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_no_dead_definitions(path):
    assert _dead_definitions(path.read_text(), _named_by_readers()) == []
