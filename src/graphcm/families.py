"""The two infinite graph families, the three-point extension step that
generates one of them, and the fixed catalog of named graphs.

``gen_G(n)`` has vertices x1..x_{3n-1}: the edge x1x2, for each k < n the
four edges x_{3k-1}x_{3k}, x_{3k}x_{3k+1}, x_{3k+1}x_{3k+2},
x_{3k+2}x_{3k-2}, and for 2 <= l <= n-1 the chord x_{3l-3}x_{3l}.  So
gen_G(1) is an edge, gen_G(2) a pentagon, and from n = 3 on a planar
girth-4 graph.  ``gen_H(n)`` deletes the last vertex x_{3n-1}.

Figure-derived fixtures (T10, P10, P13, Q13, P14) ship as data files; the
transcriptions come from published drawings, so each is paired with a
property oracle (``fixture_expectations`` / ``validate_fixture``) and any
suite that depends on a fixture must run its oracle first.
"""

from __future__ import annotations

from importlib import resources

from .complexes import DEFAULT_FIELDS, is_cm_graph
from .graph import Graph, GraphInputError, PreconditionError, complete_graph, cycle_graph, path_graph
from .graphio import from_edge_list
from .independence import is_well_covered
from .recognition import _has_cycle_of_length, recognize_pc


def _family_labels(count: int) -> tuple:
    return tuple(f"x{i}" for i in range(1, count + 1))


def gen_G(n: int) -> Graph:
    if n < 1:
        raise GraphInputError("family index must be at least 1")
    labels = _family_labels(3 * n - 1)
    edges = [("x1", "x2")]
    for k in range(1, n):
        edges += [
            (f"x{3 * k - 1}", f"x{3 * k}"),
            (f"x{3 * k}", f"x{3 * k + 1}"),
            (f"x{3 * k + 1}", f"x{3 * k + 2}"),
            (f"x{3 * k + 2}", f"x{3 * k - 2}"),
        ]
    for l in range(2, n):
        edges.append((f"x{3 * l - 3}", f"x{3 * l}"))
    return Graph.from_edges(labels, edges)


def gen_H(n: int) -> Graph:
    if n < 1:
        raise GraphInputError("family index must be at least 1")
    return gen_G(n).delete_vertices([f"x{3 * n - 1}"])


def pinter_extend(g: Graph, x, y) -> Graph:
    """Three-point extension at an adjacent degree-2 pair (x, y).

    With u the neighbour of x other than y, three new vertices a, b, c are
    added with edges ax, ab, bc, cu, cy.  Fresh labels are chosen when
    a/b/c already exist.
    """
    if not g.has_vertex(x) or not g.has_vertex(y):
        raise PreconditionError("x and y must be vertices of the graph")
    if not g.has_edge(x, y):
        raise PreconditionError("x and y must be adjacent")
    if g.degree(x) != 2 or g.degree(y) != 2:
        raise PreconditionError("x and y must both have degree 2")
    (u,) = [w for w in g.neighbors(x) if w != y]

    def fresh(base):
        name = base
        k = 0
        while g.has_vertex(name):
            k += 1
            name = f"{base}{k}"
        return name

    a, b, c = fresh("a"), fresh("b"), fresh("c")
    out = g.add_vertex(a, [x])
    out = out.add_vertex(b, [a])
    out = out.add_vertex(c, [b, u, y])
    return out


# -- fixed catalog ---------------------------------------------------------------

_FIGURE_FIXTURES = ("T10", "P10", "P13", "Q13", "P14")

#: Fixtures whose edge lists were transcribed from published drawings and
#: are therefore gated by their property oracles.
TRANSCRIBED_FIXTURES = ("P10", "P13", "Q13", "P14")


def _load_fixture(name: str) -> Graph:
    data = resources.files("graphcm.data").joinpath(f"{name.lower()}.edges").read_text()
    return from_edge_list(data)


def catalog(name: str) -> Graph:
    """Named graphs: K1..Kn, C3..Cn, P1..Pn, paw, G3, and the exceptional
    fixtures C7, T10, P10, P13, Q13, P14."""
    key = name.strip()
    if key in _FIGURE_FIXTURES:
        return _load_fixture(key)
    if key == "G3":
        return gen_G(3)
    if key == "paw":
        return Graph.from_edges(4, [(0, 1), (1, 2), (2, 0), (0, 3)])
    if len(key) >= 2 and key[0] in "KCP" and key[1:].isdigit():
        k = int(key[1:])
        try:
            if key[0] == "K":
                return complete_graph(k)
            if key[0] == "C":
                return cycle_graph(k)
            return path_graph(k)
        except GraphInputError as e:
            raise GraphInputError(f"catalog name {name!r}: {e}") from None
    raise GraphInputError(f"unknown catalog name {name!r}")


def fixture_expectations(name: str) -> dict:
    """The property oracle each figure-derived fixture must pass."""
    common = {"connected": True, "well_covered": True, "cm": False}
    if name == "C7":
        return {**common, "girth": 7}
    if name == "T10":
        return {**common, "girth": 3, "no_c4_c5": True}
    if name in TRANSCRIBED_FIXTURES:
        return {**common, "min_girth": 5, "pc": False}
    if name == "K1":
        return {"connected": True, "well_covered": True, "cm": True}
    raise GraphInputError(f"no property oracle for {name!r}")


def validate_fixture(name: str, fields=DEFAULT_FIELDS) -> list:
    """Check a fixture against its oracle; returns a list of failure
    messages (empty when the fixture is good)."""
    g = catalog(name)
    want = fixture_expectations(name)
    bad = []
    if want.get("connected") and not g.is_connected():
        bad.append("not connected")
    if want.get("well_covered") and not is_well_covered(g):
        bad.append("not well-covered")
    gi = g.girth()
    if "girth" in want and gi != want["girth"]:
        bad.append(f"girth {gi} != {want['girth']}")
    if "min_girth" in want and not gi >= want["min_girth"]:
        bad.append(f"girth {gi} < {want['min_girth']}")
    if want.get("no_c4_c5"):
        if _has_cycle_of_length(g, 4) or _has_cycle_of_length(g, 5):
            bad.append("has a 4- or 5-cycle")
    cm_all = all(is_cm_graph(g, f) for f in fields)
    if want["cm"] != cm_all:
        bad.append(f"cm over all fields is {cm_all}, expected {want['cm']}")
    if "pc" in want and (recognize_pc(g) is not None) != want["pc"]:
        bad.append(f"pc membership is {recognize_pc(g) is not None}, expected {want['pc']}")
    return bad
