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


def _self_delegating_generators(source: str) -> list:
    """(line, name) of each function with a ``yield from`` of a call to
    itself: a recursive generator, which passes every item up through one
    frame per level."""
    out = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for sub in ast.walk(node):
                if isinstance(sub, ast.YieldFrom) and isinstance(sub.value, ast.Call):
                    func = sub.value.func
                    if getattr(func, "id", None) == node.name or getattr(func, "attr", None) == node.name:
                        out.append((sub.lineno, node.name))
    return sorted(out)


def test_detector_flags_a_recursive_generator():
    # the recursive Bron-Kerbosch that _mis_masks replaced
    src = (
        "def _mis_masks(g):\n"
        "    def expand(r, p, x):\n"
        "        if p == 0 and x == 0:\n"
        "            yield r\n"
        "            return\n"
        "        for v in bits(p):\n"
        "            yield from expand(r | 1 << v, p & compat[v], x & compat[v])\n"
        "    yield from expand(0, g.full_mask, 0)\n"
        "class T:\n"
        "    def walk(self, k):\n"
        "        yield k\n"
        "        yield from self.walk(k - 1)\n"
        "def flat(xs):\n"
        "    yield from iter(xs)\n"
    )
    assert _self_delegating_generators(src) == [(7, "expand"), (12, "walk")]


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_no_recursive_generators(path):
    assert _self_delegating_generators(path.read_text()) == []


def _recursive_closures(source: str) -> list:
    """(line, name) of each function nested in another that calls itself by
    name: its cell and its function object refer to each other, a
    reference cycle per call left for the cyclic collector."""
    out = []
    for outer in ast.walk(ast.parse(source)):
        if isinstance(outer, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for node in ast.walk(outer):
                if node is outer or not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    continue
                calls = (sub.func for sub in ast.walk(node) if isinstance(sub, ast.Call))
                if any(getattr(func, "id", None) == node.name for func in calls):
                    out.append((node.lineno, node.name))
    return sorted(set(out))


def test_detector_flags_a_recursive_closure():
    # the branch and bound that independence_number ran as a closure
    src = (
        "def independence_number(g):\n"
        "    best = 0\n"
        "    def bb(cand, size):\n"
        "        nonlocal best\n"
        "        if cand:\n"
        "            bb(cand & cand - 1, size + 1)\n"
        "    bb(g.full_mask, 0)\n"
        "    return best\n"
        "def _max_independent(adj, cand):\n"
        "    return _max_independent(adj, cand & cand - 1) if cand else 0\n"
        "def _orbits(n):\n"
        "    def find(x):\n"
        "        return x\n"
        "    return [find(x) for x in range(n)]\n"
    )
    assert _recursive_closures(src) == [(3, "bb")]


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_no_recursive_closures(path):
    assert _recursive_closures(path.read_text()) == []


def test_only_complexes_keys_the_class_table():
    # every other module reaches the records through complexes._parts, so
    # a disconnected graph is never keyed
    assert [p.name for p in MODULES if p.name != "complexes.py" and _names(ast.parse(p.read_text()))["_class_of"]] == []


# -- every process-wide cache is emptied by the benchmark's reset ------------------


def _starts_empty(value) -> bool:
    if isinstance(value, ast.Dict):
        return not value.keys
    if isinstance(value, ast.List):
        return not value.elts
    return (
        isinstance(value, ast.Call) and isinstance(value.func, ast.Name) and value.func.id in ("set", "dict", "list")
        and not value.args and not value.keywords
    )


def _empty_containers(source: str) -> list:
    """Names bound at module level to a container that starts empty: ``{}``,
    ``[]``, ``set()``, ``dict()`` or ``list()``.  A non-empty constant is no
    cache."""
    out = []
    for node in ast.parse(source).body:
        if isinstance(node, ast.Assign) and _starts_empty(node.value):
            out += [t.id for t in node.targets if isinstance(t, ast.Name)]
        elif isinstance(node, ast.AnnAssign) and _starts_empty(node.value) and isinstance(node.target, ast.Name):
            out.append(node.target.id)
    return out


def test_detector_flags_an_empty_module_container():
    src = (
        "A = {}\nB: dict = {}\nC = []\nD = set()\nE = dict()\n"
        "F = {'x': 1}\nG = (1,)\nH = set('ab')\nI = dict(a=1)\nJ: int\n"
        "def f():\n    K = {}\n    return K\n"
    )
    assert _empty_containers(src) == ["A", "B", "C", "D", "E"]


def test_the_benchmark_reset_empties_every_module_cache():
    # a cache the reset missed would carry one benchmark pass's work into the next
    import importlib
    import importlib.util

    from graphcm.enumeration import verify_theorem
    from graphcm.families import gen_G
    from graphcm.recognition import classify

    spec = importlib.util.spec_from_file_location("bench_workloads", ROOT / "perfbench" / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    caches = {
        f"{path.stem}.{name}": getattr(importlib.import_module(f"graphcm.{path.stem}"), name)
        for path in MODULES
        for name in _empty_containers(path.read_text())
    }
    assert {"canon._KEPT", "complexes._PROFILE_CACHE", "enumeration._LEVELS"} <= set(caches)
    verify_theorem("COR2", 6)
    classify(gen_G(3))
    # a cache this run leaves empty proves nothing below; extend the run
    assert [name for name, cache in caches.items() if not cache] == []
    workloads.clear_caches()
    assert [name for name, cache in caches.items() if cache] == []


# -- the exact reference rank stays off the program's path ---------------------


def _calls_of(tree, name: str) -> list:
    """Lines of the calls of ``name``, plain or as an attribute, in the tree."""
    return sorted(
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and (getattr(node.func, "id", None) == name or getattr(node.func, "attr", None) == name)
    )


def _bareiss_on_the_path(path: Path) -> list:
    """Where a package module reaches rank_bareiss: linalg may define it
    but not call it, and no other module may name it."""
    tree = ast.parse(path.read_text())
    if path.name == "linalg.py":
        return _calls_of(tree, "rank_bareiss")
    return ["named"] if _names(tree)["rank_bareiss"] else []


def test_detector_flags_a_call_of_bareiss(tmp_path):
    # the rank_char0 that ran Bareiss on every rank its modular bound left open
    parent = (
        "def rank_bareiss(rows):\n    return len(rows)\n"
        "def rank_char0(rows, upper):\n"
        "    if not rows or not rows[0]:\n        return 0\n"
        "    r = rank_mod_p(rows, LARGE_PRIME)\n"
        "    if r == upper:\n        return r\n"
        "    return rank_bareiss(rows)\n"
    )
    (tmp_path / "linalg.py").write_text(parent)
    (tmp_path / "complexes.py").write_text("from . import linalg\nrank = linalg.rank_bareiss\n")
    assert _bareiss_on_the_path(tmp_path / "linalg.py") == [9]
    assert _bareiss_on_the_path(tmp_path / "complexes.py") == ["named"]


def test_no_package_module_reaches_bareiss():
    linalg = ast.parse((MODULES[0].parent / "linalg.py").read_text())
    assert "rank_bareiss" in {node.name for node in linalg.body if isinstance(node, ast.FunctionDef)}
    assert {p.name: _bareiss_on_the_path(p) for p in MODULES if _bareiss_on_the_path(p)} == {}


# -- one builder of punched graphs per module -----------------------------------


# Graph.keep_mask and the Graph methods that punch or split through it
PUNCHES = ("keep_mask", "delete_vertices", "punch_closed", "punch_edge", "induced_components")


def _punchers(source: str) -> list:
    """The module-level definitions that punch a graph, in source order."""
    return [
        node.name
        for node in ast.parse(source).body
        if hasattr(node, "name") and any(_calls_of(node, name) for name in PUNCHES)
    ]


def test_detector_names_the_callers_of_keep_mask():
    # the VD search that punched its own G minus v and G minus N[v]
    parent = (
        "def _vd_parts(g):\n    return all(_vd(p) for p in _parts(g))\n"
        "def _vd(rec):\n"
        "    g = rec.graph\n"
        "    return all(_vd_parts(g.keep_mask(g.full_mask & ~m)) for m in (1, 3))\n"
        "def _walk(g):\n    return [_walk(g.keep_mask(m)) for m in g.component_masks()]\n"
        "def _children(rec):\n    return _parts(rec.graph.punch_closed(0))\n"
        "class C:\n    def f(self, g):\n        return g.keep_mask(1)\n"
    )
    assert _punchers(parent) == ["_vd", "_walk", "_children", "C"]


def test_complexes_minus_alone_punches_the_class_records():
    # the records' punches are made in complexes._minus, which builds only
    # the components of the punch, through _parts; the VD search reads them
    # there, only the certificate replay, which trusts no table, builds its
    # own, and the shedding test builds none
    package = MODULES[0].parent
    assert _punchers((package / "complexes.py").read_text()) == ["_parts"]
    assert _punchers((package / "decomposability.py").read_text()) == ["_walk"]
    assert _punchers((package / "independence.py").read_text()) == []


# -- one alpha-sum rule in complexes ------------------------------------------------


def _is_alpha_sum(node) -> bool:
    """``sum(map(_alpha, ...))``: the independence number of a punch's parts."""
    return (
        isinstance(node, ast.Call)
        and getattr(node.func, "id", None) == "sum"
        and len(node.args) == 1
        and isinstance(node.args[0], ast.Call)
        and getattr(node.args[0].func, "id", None) == "map"
        and getattr(node.args[0].args[0], "id", None) == "_alpha"
    )


def _alpha_sum_tests(source: str) -> list:
    """(line, function) of each comparison in a module-level function with
    an operand that holds a sum of the parts' independence numbers."""
    out = []
    for func in ast.parse(source).body:
        if isinstance(func, ast.FunctionDef):
            for node in ast.walk(func):
                if isinstance(node, ast.Compare) and any(
                    _is_alpha_sum(sub) for side in [node.left, *node.comparators] for sub in ast.walk(side)
                ):
                    out.append((node.lineno, func.name))
    return sorted(out)


def test_detector_flags_each_hand_written_alpha_sum():
    # the punch rule and the split of _reisner, each written out by hand;
    # alpha's own split takes a max and tests nothing
    parent = (
        "def _punch_cm(punch, alpha, char):\n"
        "    return sum(map(_alpha, punch)) == alpha and all(_reisner(p, char) for p in punch)\n"
        "def _reisner(rec, char):\n"
        "    minus, link = _split(rec)\n"
        "    return sum(map(_alpha, minus)) == sum(map(_alpha, link)) + 1 and all(\n"
        "        _reisner(p, char) for p in minus + link\n"
        "    )\n"
        "def _alpha(rec):\n"
        "    minus, link = _split(rec)\n"
        "    return max(sum(map(_alpha, minus)), sum(map(_alpha, link)) + 1)\n"
    )
    assert _alpha_sum_tests(parent) == [(2, "_punch_cm"), (5, "_reisner")]


def test_complexes_holds_alone_tests_an_alpha_sum():
    # CM, purity, doubly CM and the edge punches all read the rule from _holds
    source = (MODULES[0].parent / "complexes.py").read_text()
    assert [name for _, name in _alpha_sum_tests(source)] == ["_holds"]


# -- one writer per field of the class records ---------------------------------------


def _attribute_writers(source: str, attr: str) -> list:
    """The module-level functions that assign an attribute named attr."""
    return sorted(
        func.name
        for func in ast.parse(source).body
        if isinstance(func, ast.FunctionDef)
        and any(
            isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store) and node.attr == attr
            for node in ast.walk(func)
        )
    )


def test_detector_flags_each_writer_of_alpha():
    # purity, the greedy marking and the Betti numbers each set alpha
    parent = (
        "def _pure(rec):\n"
        "    size = _well_covered_alpha(rec.graph)\n"
        "    rec.pure = size is not None\n"
        "    if rec.pure:\n"
        "        rec.alpha = size\n"
        "def _known_pure(parts):\n"
        "    for p in parts:\n"
        "        p.pure = True\n"
        "        if p.alpha is None:\n"
        "            p.alpha = _greedy_independent(p.graph)\n"
        "def _betti(rec, char):\n"
        "    out = rec.betti[char] = _profiles(_relative_cells(rec.graph, rec.alpha), char)\n"
        "    rec.alpha = len(out) - 1\n"
        "    return out\n"
    )
    assert _attribute_writers(parent, "alpha") == ["_betti", "_known_pure", "_pure"]
    assert _attribute_writers(parent, "pure") == ["_known_pure", "_pure"]


def test_complexes_writes_alpha_and_purity_in_one_place_each():
    source = (MODULES[0].parent / "complexes.py").read_text()
    assert _attribute_writers(source, "alpha") == ["_alpha"]
    assert _attribute_writers(source, "pure") == ["_known_pure", "_pure"]
