"""Exhaustive generation of small connected graphs up to isomorphism and
machine verification of the classification theorems at desk scale.

Generation grows graphs one vertex at a time (every connected graph has a
non-cut vertex, so joining a new vertex to each nonempty subset of a
connected (n-1)-vertex graph reaches every connected n-vertex graph) and
keeps one child per isomorphism class.  Filters whose graph classes are
closed under deleting a non-cut vertex (girth lower bounds, forbidden
short cycles, planarity, block-cactus, cactus) prune during generation;
girth upper bounds only apply to the finished graphs.

A filtered level never builds a child its filters reject, apart from
planarity.  A new vertex v joined to the set S of a connected parent
creates exactly the cycles v-a-...-b-v, where a, b are in S and a...b is a
path in the parent, and the parent already passes the filter.  So
``EnumFilter.admissible_masks`` decides each filter on S alone:

* girth >= k (k >= 4): every pair of S at distance >= k-2 in the parent;
* no 4-cycle: no two vertices of S with a common neighbour;
* no 5-cycle: no two vertices of S joined by a path a-x-y-b on four
  distinct vertices;
* cactus: S is one vertex, or a pair whose a-b path consists of bridges
  only (then the new block is a cycle);
* block-cactus: as cactus, or S is the vertex set of a complete block with
  at least 3 vertices (then S + v is a clique).

The first three are pairwise conflicts, so S ranges over the independent
sets of a conflict graph on the parent; the cactus candidates are filtered
by the same conflicts.  Planarity has no such local rule (joining v can
complete a Kuratowski subdivision anywhere), so it is still tested on the
child.

Most admissible children never reach the canonical form: two exact rules
(after McKay, "Isomorph-free exhaustive generation", J. Algorithms 1998)
drop them first.

* Orbit pruning.  The filters are isomorphism-invariant, so Aut(p)
  permutes the admissible masks of a parent p, and sigma(S) gives a child
  isomorphic to the one from S.  Only the first admissible mask of each
  orbit under the automorphisms canon stored for p is tried; they
  generate all of Aut(p) (``canon``).
* Canonical deletion.  A child is dropped when a non-cut vertex u != v
  outranks the new vertex v by (degree, sum of neighbour degrees), an
  isomorphism invariant of the child.  No class is lost: a connected H in
  the class has a non-cut vertex u* of top rank; H - u* is connected and,
  by the closure, in the class, so level n-1 holds a parent p isomorphic
  to it, the isomorphism taking N(u*) to an admissible mask S' (and a
  planar one, as H is).  The tried mask S of the orbit of S' gives
  p + S isomorphic to H with v in the role of u*, so v has top rank and
  that child is kept.  The test needs no child: with deg and nsum (sum
  of neighbour degrees) taken in p, the child has deg'(u) = deg(u) +
  [u in S] and nsum'(u) = nsum(u) + |N(u) & S| + [u in S]|S|, and v has
  (|S|, |S| + the sum of deg over S); u is a non-cut vertex of p + S iff
  S meets every component of p - u (vacuously so if p - u is empty).
  Aut(p) fixing v preserves the test, so orbits are taken of survivors.

A survivor is settled when every non-cut vertex tying v on that rank is a
twin of v, and is kept without a canonical search; the others are
deduplicated by canonical form.  No vertex has a false twin u and a true
twin w (w in N(v) = N(u) puts u in N[w] = N[v]), so twin transpositions
make the top-ranked non-cut vertices of a settled child one orbit.  Being
settled is then a property of the class, so settled and searched copies
never mix, and an isomorphism of two settled copies p + S, p' + S' can be
taken to send v to v': it maps p onto p', one graph of level n-1, and S
onto S' by an automorphism of p.  Orbit pruning tries one mask per orbit,
so S = S'.  Each level lists each class once; which representatives it
keeps, and their order, are not part of the contract.

Levels are cached per hereditary-filter signature, so repeated suites over
the same class reuse one generation pass.  Verification is embarrassingly
parallel over the enumerated stream: counterexample lists are sorted, so
results do not depend on worker count or stream order.
"""

from __future__ import annotations

import functools
import time
from dataclasses import dataclass

from . import recognition
from .canon import automorphisms, is_isomorphic
from .complexes import DEFAULT_FIELDS, _char, is_cm_graph, is_gorenstein_graph
from .decomposability import is_vertex_decomposable
from .families import gen_G
from .graph import Graph, GraphInputError, UnsupportedSizeError, bits, components
from .graphio import from_graph6, read_graph6_file, to_graph6
from .independence import is_w2, is_well_covered
from .planarity import is_planar
from .recognition import (
    is_block_cactus,
    is_cactus,
    recognize_pc,
    recognize_sqc,
    square_cm_criterion,
    t3_partition_condition,
    t3_simplicial_condition,
)

HARD_CAP = 10


@dataclass(frozen=True)
class EnumFilter:
    min_girth: object = None
    max_girth: object = None
    forbid_c4: bool = False
    forbid_c5: bool = False
    planar_only: bool = False
    block_cactus_only: bool = False
    cactus_only: bool = False

    def __post_init__(self):
        if self.min_girth is not None and self.max_girth is not None:
            if self.min_girth > self.max_girth:
                raise GraphInputError("min_girth exceeds max_girth")

    def hereditary_key(self):
        # every cycle has length >= 3, so min_girth <= 3 filters nothing
        min_girth = self.min_girth if self.min_girth is not None and self.min_girth > 3 else None
        return (
            min_girth,
            self.forbid_c4,
            self.forbid_c5,
            self.planar_only,
            self.block_cactus_only,
            self.cactus_only,
        )

    def passes_hereditary(self, g: Graph) -> bool:
        if self.min_girth is not None and g.girth() < self.min_girth:
            return False
        if self.forbid_c4 and recognition._has_cycle_of_length(g, 4):
            return False
        if self.forbid_c5 and recognition._has_cycle_of_length(g, 5):
            return False
        if self.block_cactus_only and not is_block_cactus(g):
            return False
        if self.cactus_only and not is_cactus(g):
            return False
        if self.planar_only and not is_planar(g):
            return False
        return True

    def admissible_masks(self, g: Graph):
        """The neighbour masks S, in increasing order, for which joining a
        new vertex to S keeps the connected parent g, which passes the
        filter, inside every hereditary class but the planar one.

        Every cycle through the new vertex v is v-a-P-b-v with a, b in S and
        P an a-b path in g, so each filter is a rule on S (module docstring):
        girth >= k forbids pairs at distance < k-2, no C4 forbids pairs with
        a common neighbour, no C5 forbids pairs joined by a path a-x-y-b.
        Under the cactus filters v gets degree 2 in its block unless that
        block is S + v complete; the block is a cycle exactly when S = {a, b}
        and the a-b path in g runs over bridges only, and S + v is a clique
        exactly when S is a whole complete block of g."""
        n, adj = g.n, g.adj
        conflict = [0] * n
        k = self.min_girth
        for a in range(n):
            own = 1 << a
            if k is not None and k > 3:
                conflict[a] = _ball(adj, a, k - 3)
            for x in bits(adj[a]):
                if self.forbid_c4:
                    conflict[a] |= adj[x]
                if self.forbid_c5:
                    for y in bits(adj[x] & ~own):
                        conflict[a] |= adj[y] & ~(1 << x)
            conflict[a] &= ~own
        if self.cactus_only or self.block_cactus_only:
            return [s for s in self._cactus_candidates(g) if all(not s & conflict[a] for a in bits(s))]
        if not any(conflict):
            return range(1, 1 << n)
        sets = [0]
        for a in range(n):
            # sets holds the independent subsets of 0..a-1 in increasing
            # order, and every new set is above all of them
            sets += [s | 1 << a for s in sets if not s & conflict[a]]
        return sets[1:]

    def _cactus_candidates(self, g: Graph) -> list:
        n = g.n
        blocks = g.block_masks()
        bridge = [0] * n
        for b in blocks:
            if b.bit_count() == 2:
                for a in bits(b):
                    bridge[a] |= b & ~(1 << a)
        out = [1 << a for a in range(n)]
        # the bridges alone form a forest: a and b lie in one of its trees
        # iff the a-b path of g runs over bridges only
        for tree in components(bridge, (1 << n) - 1):
            out += [1 << a | 1 << b for a in bits(tree) for b in bits(tree >> (a + 1) << (a + 1))]
        if not self.cactus_only:
            out += [b for b in blocks if b.bit_count() >= 3 and g.is_clique(b)]
        return sorted(out)

    def passes(self, g: Graph) -> bool:
        if not g.is_connected():
            return False
        if self.max_girth is not None and not g.girth() <= self.max_girth:
            return False
        return self.passes_hereditary(g)


def _ball(adj, a: int, radius) -> int:
    """Mask of the vertices within distance radius of a over the rows adj."""
    reach = frontier = 1 << a
    while frontier and radius > 0:
        nxt = 0
        for u in bits(frontier):
            nxt |= adj[u]
        frontier = nxt & ~reach
        reach |= frontier
        radius -= 1
    return reach


def _check_cap(n: int):
    if n > HARD_CAP:
        raise UnsupportedSizeError(f"enumeration capped at {HARD_CAP} vertices (got {n})")


# level cache: (hereditary key, n) -> tuple of graphs on exactly n vertices
_LEVELS: dict = {}


def clear_cache():
    _LEVELS.clear()


def _level(n: int, filt: EnumFilter):
    key = (filt.hereditary_key(), n)
    got = _LEVELS.get(key)
    if got is not None:
        return got
    if n == 1:
        out = (Graph.empty(1),) if filt.passes_hereditary(Graph.empty(1)) else ()
    else:
        seen = set()
        out = []
        for g in _level(n - 1, filt):
            images = [[1 << i for i in perm] for perm in automorphisms(g)]
            done = set()
            leads = _lead_rule(g.adj)
            for nbr_mask in filt.admissible_masks(g):
                lead = nbr_mask not in done and leads(nbr_mask)
                if not lead:
                    continue
                if images:
                    done |= _orbit(nbr_mask, images)
                h = g._extend(nbr_mask)
                if filt.planar_only and not is_planar(h):
                    continue
                if lead != _SETTLED:
                    c = h.canonical_form()
                    if c in seen:
                        continue
                    seen.add(c)
                out.append(h)
        out = tuple(out)
    _LEVELS[key] = out
    return out


def _orbit(mask: int, images) -> set:
    """The orbit of a vertex mask under the permutations given as images,
    ``images[k][i]`` being the bit that permutation k sends bit i to."""
    orbit = {mask}
    todo = [mask]
    while todo:
        s = todo.pop()
        for image in images:
            t = 0
            for i in bits(s):
                t |= image[i]
            if t not in orbit:
                orbit.add(t)
                todo.append(t)
    return orbit


_SETTLED = 2


def _lead_rule(adj):
    """The canonical-deletion test on the parent with rows adj (module
    docstring): ``leads(S)`` is 0 when a non-cut vertex of the child p + S
    outranks its new vertex v by (degree, sum of neighbour degrees),
    ``_SETTLED`` when every non-cut vertex tying v is a twin of v, and 1
    otherwise.  u is a twin of v iff adj[u] | (S & 1 << u) == S."""
    n = len(adj)
    deg = [row.bit_count() for row in adj]
    dsum = [0]  # dsum[S]: the sum of deg over S
    for d in deg:
        dsum += [x + d for x in dsum]
    rows = []  # by falling degree, so a scan can stop below |S| - 1
    for u in sorted(range(n), key=deg.__getitem__, reverse=True):
        rows.append((u, deg[u], dsum[adj[u]], adj[u], components(adj, ((1 << n) - 1) ^ 1 << u)))

    def leads(mask):
        s = mask.bit_count()
        t = s + dsum[mask]
        out = _SETTLED
        for u, d, nsum, nbrs, comps in rows:
            if d + 1 < s:
                break
            if mask >> u & 1:
                d += 1
                nsum += s
            if d < s:
                continue
            nsum += (nbrs & mask).bit_count()
            if d > s or nsum > t:
                if all(c & mask for c in comps):
                    return 0
            elif nsum == t and out == _SETTLED and nbrs | (mask & 1 << u) != mask and all(c & mask for c in comps):
                out = 1
        return out

    return leads


def enumerate_connected(n: int, filt: EnumFilter = EnumFilter()):
    """Every connected graph on exactly n vertices satisfying the filter,
    exactly once up to isomorphism."""
    if n < 1:
        return
    _check_cap(n)
    for g in _level(n, filt):
        # level graphs are connected and pass every hereditary filter
        if filt.max_girth is None or g.girth() <= filt.max_girth:
            yield g


def enumerate_connected_upto(n_max: int, filt: EnumFilter = EnumFilter()):
    _check_cap(n_max)
    for n in range(1, n_max + 1):
        yield from enumerate_connected(n, filt)


def connected_counts(n_max: int) -> list:
    """Number of connected graphs on 1..n_max vertices, up to isomorphism."""
    _check_cap(n_max)
    return [len(_level(n, EnumFilter())) for n in range(1, n_max + 1)]


# -- theorem verification -----------------------------------------------------------


@dataclass(frozen=True)
class VerificationReport:
    theorem: str
    n_max: int
    fields: tuple
    graphs_checked: int
    counterexamples: tuple
    elapsed_s: float
    notes: tuple = ()

    def ok(self) -> bool:
        return not self.counterexamples

    def to_text(self, structured: bool = False) -> str:
        lines = [
            f"theorem: {self.theorem}",
            f"n_max: {self.n_max}",
            f"fields: {','.join(str(c) for c in self.fields)}",
            f"graphs_checked: {self.graphs_checked}",
            f"counterexample_count: {len(self.counterexamples)}",
        ]
        for g6 in self.counterexamples:
            lines.append(f"counterexample: {g6}")
        for note in self.notes:
            lines.append(f"note: {note}")
        if structured:
            lines.append(f"# elapsed_s: {self.elapsed_s:.2f}")
        else:
            lines.append(f"elapsed_s: {self.elapsed_s:.2f}")
        return "\n".join(lines) + "\n"


# CM and Gorenstein graphs are well-covered.  Purity on g itself reads no
# class record, so a settled graph that fails it is never searched.


def _cm_all_fields(g: Graph, chars) -> bool:
    return is_well_covered(g) and all(is_cm_graph(g, c) for c in chars)


def _gorenstein_all_fields(g: Graph, chars) -> bool:
    return is_well_covered(g) and all(is_gorenstein_graph(g, c) for c in chars)


def _is_family_member(g: Graph) -> bool:
    if (g.n + 1) % 3 != 0:
        return False
    k = (g.n + 1) // 3
    # G_k has 1 + 4(k-1) + (k-2) edges
    return k >= 3 and g.m == 5 * k - 5 and is_isomorphic(g, gen_G(k))


def _pred_t1(g, chars):
    cert = recognize_sqc(g)
    if cert is None:
        return True
    return is_vertex_decomposable(g)[0] and _cm_all_fields(g, chars)


def _pred_t2(g, chars):
    return _cm_all_fields(g, chars) == (g.n == 1 or recognize_pc(g) is not None)


def _pred_cor_g6(g, chars):
    if g.n == 1:
        return True
    return _cm_all_fields(g, chars) == (recognition._pendant_mask(g) == g.full_mask)


def _pred_t3(g, chars):
    cm = _cm_all_fields(g, chars)
    return cm == t3_partition_condition(g) == t3_simplicial_condition(g)


def _wc_vd_cm(g, chars) -> tuple:
    """Well-covered and vertex decomposable; CM over every field.  Both
    need purity, tested once."""
    if not is_well_covered(g):
        return False, False
    return is_vertex_decomposable(g)[0], all(is_cm_graph(g, c) for c in chars)


def _pred_cor2(g, chars):
    wc_vd, cm = _wc_vd_cm(g, chars)
    return wc_vd == cm == (recognize_sqc(g) is not None)


def _pred_cor3(g, chars):
    wc_vd, cm = _wc_vd_cm(g, chars)
    return wc_vd == cm == recognition.cactus_cm_condition(g)


def _pred_t4(g, chars):
    return _gorenstein_all_fields(g, chars) == _is_family_member(g)


def _pred_lemma_p(g, chars):
    return is_w2(g) == _is_family_member(g)


def _pred_w2_gor(g, chars):
    if g.isolated_vertices():
        return True
    if not _gorenstein_all_fields(g, chars):
        return True
    return is_w2(g)


def _pred_eg1(g, chars):
    return all(square_cm_criterion(g, c) for c in chars)


_THEOREMS = {
    "T1": ("SQC membership implies vertex decomposable and CM", EnumFilter(), 8, _pred_t1),
    "T2": ("girth >= 5 connected: CM iff K1 or PC", EnumFilter(min_girth=5), 9, _pred_t2),
    "COR_G6": (
        "girth >= 6 connected, not K1: CM iff pendant edges perfectly match V",
        EnumFilter(min_girth=6),
        9,
        _pred_cor_g6,
    ),
    "T3": (
        "no 4- or 5-cycles: CM iff the bounded-degree simplex partition exists",
        EnumFilter(forbid_c4=True, forbid_c5=True),
        8,
        _pred_t3,
    ),
    "COR2": (
        "block-cactus: well-covered+VD iff CM iff SQC",
        EnumFilter(block_cactus_only=True),
        8,
        _pred_cor2,
    ),
    "COR3": (
        "cactus: well-covered+VD iff CM iff incidence conditions (a),(b)",
        EnumFilter(cactus_only=True),
        8,
        _pred_cor3,
    ),
    "T4": (
        "connected planar girth 4: Gorenstein iff isomorphic to a family graph",
        EnumFilter(min_girth=4, max_girth=4, planar_only=True),
        8,
        _pred_t4,
    ),
    "LEMMA_P": (
        "connected planar girth 4: W2 iff isomorphic to a family graph",
        EnumFilter(min_girth=4, max_girth=4, planar_only=True),
        8,
        _pred_lemma_p,
    ),
    "W2_GOR": (
        "Gorenstein without isolated vertices implies W2",
        EnumFilter(),
        7,
        _pred_w2_gor,
    ),
    # no filter: EG1 runs over the family G_k, k = 1..n_max
    "EG1": ("square criterion holds along the family", None, 5, _pred_eg1),
}


def theorem_ids() -> tuple:
    return tuple(_THEOREMS)


def verify_theorem(
    theorem_id: str,
    n_max: int = None,
    fields=DEFAULT_FIELDS,
    workers: int = 1,
    input_path=None,
) -> VerificationReport:
    """Run one theorem's biconditional over the filtered enumeration (or
    over the family for EG1) and collect counterexamples.  An input stream
    is checked whole unless ``n_max`` is given (otherwise the report's
    ``n_max`` is the largest order checked); notes count the graphs skipped
    for lying outside the theorem's class or above ``n_max``."""
    if theorem_id not in _THEOREMS:
        raise GraphInputError(f"unknown theorem id {theorem_id!r}; know {sorted(_THEOREMS)}")
    desc, filt, default_cap, pred = _THEOREMS[theorem_id]
    if n_max is None and input_path is None:
        n_max = default_cap
    if n_max is not None and n_max < 1:
        raise GraphInputError(f"n_max must be at least 1, got {n_max}")
    if workers < 1:
        raise GraphInputError(f"workers must be at least 1, got {workers}")
    chars = tuple(map(_char, fields))
    if not chars:
        raise GraphInputError("empty field list")
    start = time.monotonic()
    notes = [desc]

    if filt is None:
        if input_path is not None:
            raise GraphInputError(f"{theorem_id} runs over the family G_k and reads no input stream")
        stream = [gen_G(k) for k in range(1, n_max + 1)]
        notes.insert(0, "n indexes the family here")
    elif input_path is not None:
        graphs = list(read_graph6_file(input_path))
        stream = [g for g in graphs if filt.passes(g)]
        notes.append(f"external stream: {input_path}")
        if len(stream) < len(graphs):
            notes.append(f"skipped input graphs outside the theorem's class: {len(graphs) - len(stream)}")
        if n_max is None:
            n_max = max((g.n for g in stream), default=0)
        else:
            kept = [g for g in stream if g.n <= n_max]
            if len(kept) < len(stream):
                notes.append(f"skipped input graphs with more than {n_max} vertices: {len(stream) - len(kept)}")
            stream = kept
    else:
        stream = list(enumerate_connected_upto(n_max, filt))

    check = functools.partial(pred, chars=chars)
    if workers > 1:
        # imported only here: multiprocessing and what it loads (pickle,
        # socket, selectors) are about 1 MB of every process's memory
        from multiprocessing import get_context

        with get_context("fork").Pool(workers) as pool:
            holds = pool.map(check, stream, chunksize=16)
    else:
        holds = map(check, stream)
    bad = sorted(to_graph6(g) for g, ok in zip(stream, holds) if not ok)
    # CM means CM over every configured field; a counterexample that is CM
    # over some fields but not others is a finding worth calling out
    for g6 in bad:
        verdicts = {c: is_cm_graph(from_graph6(g6), c) for c in chars}
        if len(set(verdicts.values())) > 1:
            notes.append(f"field-dependent CM for {g6}: {verdicts}")
    return VerificationReport(
        theorem=theorem_id,
        n_max=n_max,
        fields=chars,
        graphs_checked=len(stream),
        counterexamples=tuple(bad),
        elapsed_s=time.monotonic() - start,
        notes=tuple(notes),
    )
