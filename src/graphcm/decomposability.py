"""Vertex decomposability of independence complexes, decided at graph level.

Delta(G) is vertex decomposable iff G is edgeless, or some vertex v is a
shedding vertex (no maximal independent set of G minus v avoids N(v)) with
both G minus v and G minus N[v] vertex decomposable.  The search runs over
all vertices, so a negative answer is a genuine negative, and it splits
into connected components first since a graph is vertex decomposable
exactly when all its components are.

Verdicts and shedding choices are memoised process-wide on canonical
forms; positive answers come with a replayable certificate.
"""

from __future__ import annotations

from dataclasses import dataclass

from .canon import canonical_order
from .graph import Graph
from .graphio import to_graph6
from .independence import _mis_masks

# canonical form -> (decomposable, canonical position of the shedding vertex
# or None).  Positions survive relabeling: isomorphic graphs place
# corresponding vertices at equal canonical positions.
_VD_CACHE: dict = {}


def clear_cache():
    _VD_CACHE.clear()


def is_shedding_vertex(g: Graph, v) -> bool:
    """True iff every maximal independent set of G minus v meets N(v)."""
    return _is_shedding_index(g, g.index(v))


def _is_shedding_index(g: Graph, i: int) -> bool:
    nmask = g.adj[i]
    h = g.keep_mask(g.full_mask & ~(1 << i))
    # indices above i shift down by one in h
    nmask_h = (nmask & ((1 << i) - 1)) | ((nmask >> (i + 1)) << i)
    for mask in _mis_masks(h):
        if mask & nmask_h == 0:
            return False
    return True


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
    """Decide vertex decomposability; optionally return a certificate.

    Returns (verdict, SheddingCertificate or None).  Shedding candidates
    are tried by descending degree with label-order ties, which only
    affects which certificate is found, never the verdict.
    """
    steps = [] if want_certificate else None
    ok = _vd(g, steps)
    cert = None
    if ok and want_certificate:
        cert = SheddingCertificate(root_graph6=to_graph6(g), steps=tuple(steps))
    return ok, cert


def _record(steps, canon, g, idx):
    if all(s[0] != canon for s in steps):
        steps.append((canon, to_graph6(g), g.labels[idx], canonical_order(g).index(idx)))


def _vd(g: Graph, steps) -> bool:
    if g.is_edgeless():
        return True
    comps = g.component_masks()
    if len(comps) > 1:
        results = [_vd(g.keep_mask(mask), steps) for mask in comps]
        return all(results)
    canon_order = canonical_order(g)  # before the form: one search gives both
    canon = g.canonical_form()
    full = g.full_mask
    hit = _VD_CACHE.get(canon)
    if hit is not None:
        verdict, pos = hit
        if not verdict or steps is None:
            return verdict
        idx = canon_order[pos]
        _record(steps, canon, g, idx)
        _vd(g.keep_mask(full & ~(1 << idx)), steps)
        _vd(g.keep_mask(full & ~(g.adj[idx] | 1 << idx)), steps)
        return True

    order = sorted(range(g.n), key=lambda i: (-g.adj[i].bit_count(), str(g.labels[i])))
    for idx in order:
        if not _is_shedding_index(g, idx):
            continue
        rest = g.keep_mask(full & ~(1 << idx))
        punched = g.keep_mask(full & ~(g.adj[idx] | 1 << idx))
        sub = [] if steps is not None else None
        if _vd(rest, sub) and _vd(punched, sub):
            _VD_CACHE[canon] = (True, canon_order.index(idx))
            if steps is not None:
                _record(steps, canon, g, idx)
                for entry in sub:
                    if all(s[0] != entry[0] for s in steps):
                        steps.append(entry)
            return True
    _VD_CACHE[canon] = (False, None)
    return False


def replay_certificate(g: Graph, cert: SheddingCertificate) -> bool:
    """Re-execute a certificate: the shedding condition must hold at every
    recorded step and every leaf must be edgeless."""
    table = cert.step_map()

    def walk(h: Graph) -> bool:
        if h.is_edgeless():
            return True
        comps = h.component_masks()
        if len(comps) > 1:
            return all(walk(h.keep_mask(mask)) for mask in comps)
        order = canonical_order(h)  # before the form: one search gives both
        pos = table.get(h.canonical_form())
        if pos is None:
            return False
        idx = order[pos]
        if not _is_shedding_index(h, idx):
            return False
        full = h.full_mask
        return walk(h.keep_mask(full & ~(1 << idx))) and walk(
            h.keep_mask(full & ~(h.adj[idx] | 1 << idx))
        )

    return walk(g)
