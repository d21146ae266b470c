"""Vertex decomposability of independence complexes, decided at graph level.

Delta(G) is vertex decomposable iff G is edgeless, or some vertex v is
shedding (no maximal independent set of G minus v avoids N(v); Woodroofe,
Proc. AMS 2009) with G minus v and G minus N[v] vertex decomposable.  G
is so iff its components are, and an isolated vertex is a simplex, so the
search runs on the class records of the components with an edge
(``complexes._parts``), as the Reisner recursion does.  It tries one
vertex per automorphism orbit, by descending degree: an automorphism
carrying v to w carries the shedding condition, G minus v and G minus
N[v] along, so the verdict is that of a search over every vertex.  The
record keeps each vertex's shedding test (``complexes._sheds``) for W2 too,
and the search reads its punches G minus v and G minus N[v] from the
record's memo (``complexes._minus``), which the Reisner and Stanley
recursions fill with the same G minus N[v].

A record's ``shed`` is the canonical position in its graph of the shedding
vertex its search chose, or -1.  Positions survive relabeling: isomorphic
graphs place corresponding vertices at equal canonical positions.  One
walk (``_walk``) follows positions through the components of G minus v
and G minus N[v], built from vertex masks, and checks once per class that
the vertex sheds.  Fed from
the table it writes a certificate; fed from a certificate it replays one.
"""

from __future__ import annotations

from dataclasses import dataclass

from .canon import canonical_order
from .complexes import _PROFILE_CACHE, _minus, _parts, _reps, _sheds, clear_caches
from .graph import Graph, bits
from .graphio import to_graph6
from .independence import _is_shedding

# verdicts are kept on the class table, so this resets them with the rest
clear_cache = clear_caches


def is_shedding_vertex(g: Graph, v) -> bool:
    """True iff every maximal independent set of G minus v meets N(v)."""
    return _is_shedding(g, g.index(v))


@dataclass(frozen=True)
class SheddingCertificate:
    """One shedding step per distinct connected subgraph met in the
    recursion, in first-visit pre-order.

    Each step records the subgraph (canonical form plus a graph6 copy) and
    its shedding vertex, both as the label in the graph that was decomposed
    and as a canonical position so the step applies to any isomorphic copy.
    Replaying from the root graph re-checks the shedding condition at every
    step, recurses into G minus v and G minus N[v], and bottoms out at
    edgeless graphs only.  Steps are looked up by canonical form and
    position, so a certificate replays only under the canonical labelling
    that wrote it: a change to ``canon`` that changes forms or positions
    leaves old certificates unreplayable.
    """

    root_graph6: str
    steps: tuple  # ((canonical form, graph6, shed label, shed canonical position), ...)

    def step_map(self) -> dict:
        return {canon: pos for canon, _g6, _shed, pos in self.steps}

    def to_text(self) -> str:
        lines = [f"root {self.root_graph6}"]
        for canon, g6, shed, pos in self.steps:
            lines.append(f"{canon.hex()} {g6} shed={shed} pos={pos}")
        return "\n".join(lines) + "\n"


def is_vertex_decomposable(g: Graph, want_certificate: bool = False):
    """Decide vertex decomposability: (verdict, SheddingCertificate or
    None).  The order candidates are tried in picks the certificate, never
    the verdict."""
    ok = all(_vd(p) for p in _parts(g) if p.graph.n > 1)
    cert = None
    if ok and want_certificate:
        steps = {}
        _walk(g, g.full_mask, lambda key: _PROFILE_CACHE[key].shed, steps)
        cert = SheddingCertificate(to_graph6(g), tuple((key,) + step for key, step in steps.items()))
    return ok, cert


def _vd(rec) -> bool:
    if rec.shed is None:
        rec.shed = -1
        adj = rec.graph.adj
        for i in sorted(_reps(rec), key=lambda i: -adj[i].bit_count()):
            # g minus v, then g minus N[v]; a K1 part is a simplex
            if _sheds(rec, i) and all(
                _vd(p) for mask in (1 << i, adj[i] | 1 << i) for p in _minus(rec, mask) if p.graph.n > 1
            ):
                rec.shed = canonical_order(rec.graph).index(i)
                break
    return rec.shed >= 0


def _walk(g: Graph, keep: int, position, steps: dict) -> bool:
    """Decompose the subgraph of g induced on the vertex mask keep along
    the canonical positions ``position(form)`` gives (None when it has
    none), component by component: True iff every step's vertex sheds and
    every leaf is edgeless.  ``steps`` maps each class met to its graph6,
    shed label and position; a class met again is done, since a false step
    ends the walk and a class's subtrees hold only smaller graphs."""
    if not any(g.adj[i] & keep for i in bits(keep)):
        return True  # edgeless, so no component is built
    for h in g.induced_components(keep):
        key = h.n > 1 and h.canonical_form()
        if not key or key in steps:
            continue  # a K1, or a class already walked
        pos = position(key)
        if pos is None or not 0 <= pos < h.n:
            return False
        i = canonical_order(h)[pos]
        if not _is_shedding(h, i):
            return False
        steps[key] = (to_graph6(h), h.labels[i], pos)
        full = h.full_mask
        if not (_walk(h, full & ~(1 << i), position, steps) and _walk(h, full & ~(h.adj[i] | 1 << i), position, steps)):
            return False
    return True


def replay_certificate(g: Graph, cert: SheddingCertificate) -> bool:
    """Re-execute a certificate: the shedding condition must hold at every
    recorded step and every leaf must be edgeless."""
    return _walk(g, g.full_mask, cert.step_map().get, {})
