"""Simplicial complexes, exact reduced homology, and the homological
decision procedures for Cohen-Macaulay / Gorenstein / doubly-CM graphs.

Cohen-Macaulayness of a complex is decided by the Reisner criterion: for
every face F (the empty face included), the reduced homology of the link
of F vanishes below the link's own dimension.  Gorensteinness of a graph
is decided by the Stanley criterion on the core of its independence
complex: every link must have the reduced homology of a sphere of its
dimension (all zero below, exactly one at the top); the void complex,
the complex {emptyset} and a pair of points all count as Gorenstein.

All homology is exact and per field characteristic.  Faces are bitmasks
over vertex positions.  Over GF(2) the boundary ranks come from bitset
elimination, over GF(p) from sparse elimination mod p.  Over Q the ranks
are certified for the chain complex as a whole (see ``_rational_ranks``):
ranks mod primes bound each rational rank from below, d*d = 0 bounds it
from above through its neighbours, and a rank whose bounds meet is exact.
When the mod-p Betti numbers vanish below the top dimension every rank is
pinned, so the rational profile equals the mod-p one (the universal
coefficient theorem seen through ranks); more primes certify the ranks
the bounds leave open.  The GF(2) ranks are that first stage, so a
rational profile brings the GF(2) profile with it.  Verdicts never
collapse fields silently; callers pass the characteristics they care about.

A class with a dominating vertex y, one with N[x] inside N[y] for a
neighbour x (``_dom``), splits with no faces at all.  Write Delta(G) as
Delta(G minus y) u st y, glued along Delta(G minus N[y]), the cone st y
acyclic (as below).  Every face of Delta(G minus N[y]) misses N[x] and
takes x in Delta(G minus y), so the inclusion factors through a cone, is
zero in homology, and Mayer-Vietoris splits: Delta(G) ~ Delta(G minus y)
v the suspension of Delta(G minus N[y]) (Adamaszek, "Splittings of
independence complexes and the powers of cycles", JCTA 119, 2012).  So
over every field, indexed by cardinality, b_c(G) = b_c(G minus y) +
b_{c-1}(G minus N[y]) (``_betti``), and alpha(G) = max(alpha(G minus y),
alpha(G minus N[y]) + 1) (``_alpha``).  G is CM iff G minus y and
G minus N[y] are, with alpha(G minus y) = alpha(G) = alpha(G minus N[y]) + 1
(``_reisner``), and G is well-covered iff G minus y and G minus N[y] are,
with the same equation (``_pure``); both read it from ``_split_holds``.
Let d = alpha(G) - 1.
* If: Delta(G) glues Delta(G minus y) and the cone y * Delta(G minus N[y]),
  CM of dimension d, along Delta(G minus N[y]), CM of dimension d - 1, so
  Mayer-Vietoris on each link makes it CM (the gluing lemma).
* Only if: Delta(G minus N[y]) is the link of y.  y sheds (``independence``),
  so on the pure Delta(G), Delta(G minus y) is pure of dimension d.  Take a
  face F of it.  If F meets N(y), no face of lk F holds y, and lk F is F's
  link in Delta(G minus y) too.  If not, x survives in G minus N[F] (a
  neighbour of x in F would be in N(y)), still dominated by y, so
  Mayer-Vietoris on lk F = Delta(G minus N[F]) splits as above and
  H~_i(lk F minus y) injects into H~_i(lk F), zero below the dimension
  d - |F| of both links.
* Purity: a maximal independent set of G that holds y is y plus one of
  G minus N[y], and one that misses y is maximal in G minus y.  Conversely
  every maximal independent set of G minus y meets N(y), because y sheds,
  so it is maximal in G.  So the two kinds are exactly the two sides'
  maximal independent sets, of sizes those of G minus y and those of
  G minus N[y] plus one, and all have one size iff each side is
  well-covered and alpha(G minus y) = alpha(G minus N[y]) + 1.

A class with no dominating vertex has its Betti numbers ranked on a
smaller complex than Delta(G).  Take a vertex w.  Delta(G) is
Delta(G minus w) u st w, where the star
st w = w * Delta(G minus N[w]) is a cone and meets Delta(G minus w) in
Delta(G minus N[w]) (the splitting used in Jonsson, "Simplicial Complexes
of Graphs", LNM 1928, 2008).  The cone is acyclic over Z and holds the
empty face, so the quotient of the augmented chain complexes
C(Delta)/C(st w) has the reduced homology of Delta, in every degree (the
lowest included) and over every field; by excision it is the chain
complex of the pair (Delta(G minus w), Delta(G minus N[w])).  Its cells
are the faces outside the star: the independent sets of G minus w that
meet N(w) (``_relative_cells``, for a least-degree w).  Its boundary is
the usual one with every term that lands in Delta(G minus N[w]) dropped;
a dropped term keeps its place in the signs of the others
(``_boundary_columns``).  It is still a chain complex, d*d = 0, so the
certification of the rational ranks above holds unchanged.  The empty
face is no cell, so the number at cardinality 0 is 0, and the profile
keeps its length alpha(G) + 1, with
alpha(G) = max(alpha(G minus w), alpha(G minus N[w]) + 1).

The functions on a ``SimplicialComplex`` (``link``, ``delete``, ``core``,
``betti_profile``, ``is_cm``, ``is_doubly_cm``) work face by face on any
complex, an independence complex included; they are the slow, direct
definitions and serve as oracles.  Graphs have their own entry points
(``graph_betti``, ``is_cm_graph``, ``is_gorenstein_graph``, ...), which run
at graph level: the link of a face F in Delta(G) is Delta(G minus N[F]),
again an independence complex.  These recursions walk one process-wide
table of isomorphism classes of connected graphs keyed by canonical form
(``_PROFILE_CACHE``).  A class record holds one memo of its punched
graphs, ``minus``: a vertex mask maps to the classes of the components of
G minus the mask, with multiplicity, made once by ``_minus`` and then
followed by reference.  The children of the link recursions (the distinct
classes of G minus N[v] over the vertices v), the graphs G minus v for
doubly CM, the edge punches G minus N(x) | N(y) for the square criterion
and both branches of the vertex-decomposability search all read it, so a
punch is made once, whichever test reaches it first.  A punch or a side
of a split is tested as a whole by one rule, ``_holds``: its parts'
independence numbers add up to the one it must have, and every part passes
the test, read from its own record.  The record also holds its purity; its
independence number; its dominating vertex; its vertices' shedding
verdicts; its vertex-decomposability verdict
(``decomposability``); and per characteristic its Betti numbers, its
Reisner verdict and its Stanley verdict.  A second field, the other
engine or another entry point on a class already met computes no
canonical form again.  The Stanley engine, and the Reisner engine on a
class that does not split, test purity before any homology: Gorenstein*
implies Cohen-Macaulay, which implies pure, and purity needs no homology,
only the maximal independent sets of a class that does not split, or the
sides' purity and independence numbers of one that does.

Doubly CM is decided cheapest test first: Reisner, then Gorenstein*, then
W2, and only then the graphs g minus v.  Two implications make this exact.
* Gorenstein* implies doubly CM (Baclawski, "Cohen-Macaulay connectivity
  and geometric lattices", Europ. J. Combin. 3, 1982).  Take a vertex v
  and a face F not containing v, and let L = lk F, of dimension e; the
  link of F in Delta minus v is L minus v, or L itself when v is not in
  L.  L and lk_L v are homology spheres of dimensions e and e - 1.
  Mayer-Vietoris for L = (L minus v) u st_L v, whose pieces meet in
  lk_L v, with the star a cone, gives H~_i(L minus v) = 0 for i < e - 1
  and the exact sequence 0 -> H~_e(L minus v) -> H~_e(L) -> H~_{e-1}(lk_L v)
  -> H~_{e-1}(L minus v) -> 0.  The fundamental cycle z of L has every
  e-face in its support, so the connecting map sends it to the boundary
  of z's part on the star of v, sum of c_t * t over the facets t of
  lk_L v with every c_t non-zero: a non-zero cycle of a complex of
  dimension e - 1, so a non-zero class.  The connecting map is onto, hence
  an isomorphism of one-dimensional spaces, and L minus v is acyclic.  It
  keeps dimension e, since a complex whose facets all contain v is a cone,
  not a sphere.  So every link of Delta minus v vanishes below its
  dimension, and Delta minus v (F empty) has the dimension of Delta.
* Doubly CM implies W2.  G is well-covered, since CM complexes are pure,
  and Delta(G minus v) = Delta(G) minus v is CM of the dimension of
  Delta(G), so G minus v is well-covered with alpha(G minus v) = alpha(G),
  which on the well-covered G means v sheds (see ``independence``).
W2 (``_w2``) reads shedding verdicts (``_sheds``, shared with the VD
search) at one vertex per orbit, as shedding is invariant under
automorphisms; ``classify`` reads alpha, well-coveredness and W2 off the
records, so a class's maximal independent sets are enumerated at most once,
and only when it has no dominating vertex.

Components come first: a disconnected graph is never searched or
face-enumerated, and every entry point reads it off its components'
records (``_parts``).  Delta(G1 + G2) of a disjoint union is the join
Delta(G1) * Delta(G2), and the link of a face F1 + F2 is the join of the
two links.  Over a field the Kunneth formula for joins,
H~_{i+j+1}(A * B) = sum of H~_i(A) (x) H~_j(B), makes a join's Betti
numbers, indexed by face cardinality, the convolution of its factors'
({emptyset}'s (1,) is the unit), and since the links of a join are joins
of links, a join is Cohen-Macaulay, or Gorenstein*, iff both factors are.
In algebra: k[Delta(G1 + G2)] is the tensor product over k of the factors'
rings, and such a product is CM (Gorenstein) iff both factors are
(Stanley, "Combinatorics and Commutative Algebra").  Purity ANDs and alpha
adds up.  Deleting a vertex or punching an edge touches one component,
which reduces doubly-CM and the edge-punch condition to components too.

Children are punched at one vertex per orbit.  The one canonical search
of a graph (``canon``) gives its form and stores automorphisms of it, and
``canon`` keeps both.  A record keys on the form of its graph, and when its
children are first needed it keeps each vertex's orbit under the group the
automorphisms generate.  An automorphism s of G carries G minus N[v] onto
G minus N[s(v)], so vertices of one orbit have isomorphic punches, and the
same holds for G minus v.  The stored automorphisms generate all of
Aut(G) (``canon``), so no two punches of one orbit are made.  Twin
transpositions are among them, so twins need no rule of their own.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field as dc_field

from . import canon, linalg
from .canon import automorphisms, canonical_form
from .graph import Graph, GraphInputError, bits
from .independence import _dominates, _is_shedding, _max_independent, _mis_masks, _nonadj, independence_number, is_well_covered


def _char(field) -> int:
    """A FieldSpec's characteristic, or an int checked as FieldSpec checks
    its own; every homology entry point takes its field through this."""
    if isinstance(field, FieldSpec):
        return field.characteristic
    if field >= linalg._MR_LIMIT:
        raise GraphInputError(f"field characteristic {field} is too large to certify as prime")
    if field != 0 and not linalg._is_prime(field):
        raise GraphInputError(f"field characteristic must be 0 or a prime, got {field}")
    return field


@dataclass(frozen=True)
class FieldSpec:
    """A coefficient field, identified by its characteristic (0 or a prime)."""

    characteristic: int = 0

    def __post_init__(self):
        _char(self.characteristic)

    def __str__(self):
        return f"char{self.characteristic}"


DEFAULT_FIELDS = (FieldSpec(0), FieldSpec(2))


def parse_fields(text: str):
    """Parse a comma-separated characteristic list such as "0,2,3"."""
    try:
        chars = [int(part) for part in text.split(",") if part.strip() != ""]
    except ValueError:
        raise GraphInputError(f"bad field list {text!r}") from None
    if not chars:
        raise GraphInputError("empty field list")
    return tuple(FieldSpec(c) for c in chars)


@dataclass(frozen=True)
class HomologyProfile:
    """Reduced Betti numbers of one complex over one field.

    ``betti[c]`` is the reduced Betti number in dimension c-1, so index 0
    holds the (-1)-dimensional number; the void complex has an empty tuple.
    """

    characteristic: int
    betti: tuple

    def betti_number(self, dim: int) -> int:
        c = dim + 1
        if 0 <= c < len(self.betti):
            return self.betti[c]
        return 0

    @property
    def dim(self) -> int:
        return len(self.betti) - 2


@dataclass(frozen=True)
class SimplicialComplex:
    """A finite simplicial complex given by its facets.

    The void complex (no faces at all) and the complex {emptyset} are
    distinguished: the former has no facets, the latter the single facet
    emptyset.  Facets are stored inclusion-maximal and deduplicated.
    """

    universe: tuple
    facets: tuple

    def __post_init__(self):
        pos = {v: i for i, v in enumerate(self.universe)}
        if len(pos) != len(self.universe):
            raise GraphInputError("universe vertices must be unique")
        fsets = [frozenset(f) for f in self.facets]
        for f in fsets:
            for v in f:
                if v not in pos:
                    raise GraphInputError(f"facet vertex {v!r} not in universe")
        maximal = [f for f in fsets if not any(f < g for g in fsets)]
        seen = set()
        uniq = []
        for f in maximal:
            if f not in seen:
                seen.add(f)
                uniq.append(f)
        uniq.sort(key=lambda f: (len(f), sorted(pos[v] for v in f)))
        object.__setattr__(self, "facets", tuple(uniq))

    def is_void(self) -> bool:
        return not self.facets

    @property
    def dim(self):
        """Dimension; -1 for {emptyset}, None for the void complex."""
        if not self.facets:
            return None
        return max(len(f) for f in self.facets) - 1

    def vertices(self) -> frozenset:
        out = set()
        for f in self.facets:
            out |= f
        return frozenset(out)

    def faces(self) -> set:
        out = set()
        for f in self.facets:
            elems = tuple(f)
            for k in range(len(elems) + 1):
                for c in itertools.combinations(elems, k):
                    out.add(frozenset(c))
        return out

    def has_face(self, f) -> bool:
        fs = frozenset(f)
        return any(fs <= g for g in self.facets)

    def is_pure(self) -> bool:
        return len({len(f) for f in self.facets}) <= 1

    def f_vector(self) -> tuple:
        """Face counts by cardinality; entry c counts the (c-1)-faces."""
        counts = {}
        for f in self.faces():
            counts[len(f)] = counts.get(len(f), 0) + 1
        if not counts:
            return ()
        return tuple(counts.get(c, 0) for c in range(max(counts) + 1))


def independence_complex(g: Graph) -> SimplicialComplex:
    """Delta(G): faces are the independent sets, facets the maximal ones."""
    facets = tuple(g.label_set(mask) for mask in sorted(_mis_masks(g)))
    return SimplicialComplex(g.labels, facets)


def to_facet_list(delta: SimplicialComplex) -> str:
    """One facet per line, vertices space-separated; the empty facet is an
    empty line, so {emptyset} serialises to a single blank line and the
    void complex to nothing."""
    pos = {v: i for i, v in enumerate(delta.universe)}
    lines = []
    for f in delta.facets:
        lines.append(" ".join(str(v) for v in sorted(f, key=lambda x: pos[x])))
    return "\n".join(lines) + ("\n" if lines else "")


def from_facet_list(text: str) -> SimplicialComplex:
    """Parse the facet-list format; vertex names are kept as strings."""
    facets = []
    universe = []
    seen = set()
    for raw in text.splitlines():
        names = raw.split()
        facets.append(frozenset(names))
        for v in names:
            if v not in seen:
                seen.add(v)
                universe.append(v)
    return SimplicialComplex(tuple(universe), tuple(facets))


def link(delta: SimplicialComplex, face) -> SimplicialComplex:
    f = frozenset(face)
    if not delta.has_face(f):
        raise GraphInputError(f"{set(face)!r} is not a face of the complex")
    facets = tuple(s - f for s in delta.facets if f <= s)
    universe = tuple(v for v in delta.universe if v not in f)
    return SimplicialComplex(universe, facets)


def delete(delta: SimplicialComplex, vertices) -> SimplicialComplex:
    u = frozenset(vertices)
    unknown = u - set(delta.universe)
    if unknown:
        raise GraphInputError(f"vertices {sorted(map(repr, unknown))} not in universe")
    facets = tuple(s - u for s in delta.facets)
    universe = tuple(v for v in delta.universe if v not in u)
    return SimplicialComplex(universe, facets)


def cone_points(delta: SimplicialComplex) -> frozenset:
    """Vertices lying in every facet (st(x) = Delta)."""
    if not delta.facets:
        return frozenset()
    common = set(delta.facets[0])
    for f in delta.facets[1:]:
        common &= f
    return frozenset(common)


def core(delta: SimplicialComplex) -> SimplicialComplex:
    return delete(delta, cone_points(delta))


# -- reduced homology ---------------------------------------------------------


def _faces_by_card_from_complex(delta: SimplicialComplex):
    """Faces of the complex as bitmasks over universe positions, listed by
    cardinality (entry c holds the (c-1)-faces); [] for the void complex."""
    pos = {v: i for i, v in enumerate(delta.universe)}
    faces = set()
    for f in delta.facets:
        top = sum(1 << pos[v] for v in f)
        sub = top
        while True:  # every submask of the facet
            faces.add(sub)
            if not sub:
                break
            sub = (sub - 1) & top
    by_card = {}
    for f in faces:
        by_card.setdefault(f.bit_count(), []).append(f)
    if not by_card:
        return []
    return [sorted(by_card[c]) for c in range(max(by_card) + 1)]


def _relative_cells(g: Graph, alpha: int | None = None) -> list:
    """The cells of the pair (Delta(g minus w), Delta(g minus N[w])) for a
    least-degree vertex w of g (the least such index): the independent
    sets of g minus w that meet N(w) (see the module docstring), as
    bitmasks listed by cardinality over alpha(g) + 1 levels.  A cell is
    walked from its least vertex u in N(w), so each is listed once.  A
    largest independent set of g minus w is a cell or lies in g minus
    N[w], so unless the caller knows alpha(g), it is the larger of the top
    cell and alpha(g minus N[w]) + 1; the branch and bound for the second
    starts from the first."""
    adj = g.adj
    w = min(range(g.n), key=lambda v: adj[v].bit_count())
    near = adj[w]
    nonadj = _nonadj(g)
    cells = [[], []]
    stack = []  # (cell, the vertices that may join it)
    for u in bits(near):
        cells[1].append(1 << u)
        rest = nonadj[u] & ~(near & ((1 << u) - 1))
        if rest:
            stack.append((1 << u, rest))
    while stack:
        cur, allowed = stack.pop()
        size = cur.bit_count() + 1
        if size == len(cells):
            cells.append([])
        level = cells[size]
        for v in bits(allowed):
            cell = cur | 1 << v
            level.append(cell)
            rest = allowed & nonadj[v] & -(2 << v)
            if rest:
                stack.append((cell, rest))
    if alpha is None:
        # with no cell at all (N(w) empty), alpha(g minus N[w]) + 1 >= 1 wins
        alpha = _max_independent(adj, g.full_mask & ~(near | 1 << w), 0, len(cells) - 2) + 1
    return [sorted(level) for level in cells] + [[]] * (alpha + 1 - len(cells))


def _boundary_columns(prev_faces, cur_faces):
    """The boundary map from cur_faces (cardinality c) to prev_faces
    (cardinality c-1), faces being bitmasks: one column per face of
    cur_faces, listing the rows of the faces it covers in increasing order
    of the dropped vertex, so the entries along a column are +1, -1, ...
    A face missing from prev_faces, a term of a relative complex that
    lies in the subcomplex, is None: it keeps its place in the signs and
    is skipped when ranked."""
    row_of = {f: i for i, f in enumerate(prev_faces)}.get
    cols = []
    for f in cur_faces:
        col = []
        rest = f
        while rest:  # faces reach past one byte, where this beats bits()
            low = rest & -rest
            col.append(row_of(f ^ low))
            rest ^= low
        cols.append(col)
    return cols


def _signed(cols):
    """The columns of _boundary_columns as {row: +1 or -1} dicts."""
    return ({i: -1 if t & 1 else 1 for t, i in enumerate(col) if i is not None} for col in cols)


def _rank_mod(cols, p: int) -> int:
    """Rank modulo the prime p of a map given by _boundary_columns."""
    if p != 2:
        return linalg.rank_mod_p(_signed(cols), p)
    masks = []
    for col in cols:
        mask = 0
        for i in col:
            if i is not None:
                mask |= 1 << i
        masks.append(mask)
    return linalg.rank_gf2(masks)


def _rational_ranks(sizes, cols, lo) -> list:
    """Ranks over Q of the boundary maps d_c (cardinality c to c-1), with
    ranks[0] = ranks[top+1] = 0, certified for the chain complex as a whole;
    lo holds the GF(2) ranks in the same layout.

    Write n_c = sizes[c] and r_c for the rational rank of d_c.
    * Lower bounds: r_c >= rank of d_c mod p for every prime p, since a
      minor that is non-zero mod p is a non-zero integer.
    * Upper bounds: d_{c-1} d_c = 0 puts im d_c inside ker d_{c-1}, and
      d_c d_{c+1} = 0 puts im d_{c+1} inside ker d_c, so
      r_c <= min(n_{c-1} - r_{c-1}, n_c - r_{c+1})
          <= min(n_{c-1} - lo_{c-1}, n_c - lo_{c+1}) = hi_c.
    * A rank with lo_c = hi_c is exact, and an exact rank can pin its
      neighbours in turn.
    In particular, if the mod-p Betti numbers n_c - lo_c - lo_{c+1} vanish
    for every c below the top cardinality T, then hi_c <= n_c - lo_{c+1}
    = lo_c for c < T and hi_T <= n_{T-1} - lo_{T-1} = lo_T: every rank is
    pinned and the rational profile equals the mod-p one.

    Each stage runs only on the maps the stages before it left open:
    1. the GF(2) ranks lo, from bitset columns (the caller's, see _profiles);
    2. ranks modulo linalg.LARGE_PRIME;
    3. linalg.rank_char0 with the chain upper bound, one map at a time:
       ranks modulo further primes until their product certifies the rank,
       settling the bounds again after each exact rank.
    """
    top = len(sizes) - 2
    lo = list(lo)
    hi = [0] + [min(sizes[c - 1], sizes[c]) for c in range(1, top + 1)] + [0]

    def settle():
        for c in range(1, top + 1):
            hi[c] = min(hi[c], sizes[c - 1] - lo[c - 1], sizes[c] - lo[c + 1])
            if hi[c] < lo[c]:
                raise ArithmeticError(f"rank bounds crossed at cardinality {c}")
        return [c for c in range(1, top + 1) if lo[c] < hi[c]]

    open_maps = settle()
    for c in open_maps:
        lo[c] = max(lo[c], _rank_mod(cols[c], linalg.LARGE_PRIME))
    open_maps = settle()
    while open_maps:
        c = open_maps[0]
        lo[c] = hi[c] = linalg.rank_char0(_signed(cols[c]), hi[c])
        open_maps = settle()
    return lo


def _profiles(faces_by_card, char: int) -> dict:
    """Reduced Betti numbers indexed by cardinality (index c = dim c-1),
    keyed by characteristic; faces_by_card[c] lists the faces of
    cardinality c as bitmasks: every face of a complex, or the cells of
    the relative complex of _relative_cells, whose homology is the same.
    Over Q the GF(2) ranks are the first stage of _rational_ranks, so the
    GF(2) profile comes with the rational one."""
    if not faces_by_card:
        return {char: ()}
    top = len(faces_by_card) - 1
    sizes = [len(level) for level in faces_by_card] + [0]
    cols = [None] + [
        _boundary_columns(faces_by_card[c - 1], faces_by_card[c]) for c in range(1, top + 1)
    ]

    def betti(ranks):
        return tuple(sizes[c] - ranks[c] - ranks[c + 1] for c in range(top + 1))

    ranks = [0] + [_rank_mod(cols[c], char or 2) for c in range(1, top + 1)] + [0]
    out = {char or 2: betti(ranks)}
    if char == 0:
        out[0] = betti(_rational_ranks(sizes, cols, ranks))
    return out


def _profile_from_cards(faces_by_card, char: int) -> tuple:
    return _profiles(faces_by_card, char)[char]


def betti_profile(delta: SimplicialComplex, field) -> HomologyProfile:
    """Exact reduced homology ranks of the complex over the given field,
    empty face included (so {emptyset} has a single 1 in dimension -1)."""
    char = _char(field)
    return HomologyProfile(char, _profile_from_cards(_faces_by_card_from_complex(delta), char))


# -- graph-level engines over one table of classes ---------------------------------


@dataclass(slots=True, eq=False)
class _Class:
    """One isomorphism class of connected graphs met by the link recursions.

    ``graph`` is the first member seen; ``orbit`` maps each of its vertices
    to the least vertex of its orbit under the automorphisms its canonical
    search stored; ``minus`` maps a vertex mask to the tuple of the
    component classes of ``graph`` minus the mask, with multiplicity
    (``_minus``): the punches N[v] of the link recursions and of the
    vertex-decomposability search, the deletions v and the edge punches
    N(x) | N(y), each made once and read through ``_children``,
    ``_deletions`` and ``_edge_punches``; ``pure`` is well-coveredness;
    ``alpha`` the independence number; ``dom`` an orbit representative
    that dominates a neighbour, or -1 (``_dom``); ``sheds`` is an int with
    bit 2v set once v's shedding test ran and bit 2v + 1 if v sheds;
    ``shed`` the canonical position in ``graph`` of the shedding vertex the
    vertex-decomposability search chose, or -1 (``decomposability``);
    ``betti``, ``cm`` and ``gor`` map a characteristic to the reduced Betti
    numbers, the Reisner verdict and the Gorenstein* verdict."""

    graph: Graph
    orbit: bytes | None = None
    minus: dict = dc_field(default_factory=dict)
    pure: bool | None = None
    alpha: int | None = None
    dom: int | None = None
    shed: int | None = None
    sheds: int = 0
    betti: dict = dc_field(default_factory=dict)
    cm: dict = dc_field(default_factory=dict)
    gor: dict = dc_field(default_factory=dict)


# canonical form of a connected graph -> _Class, shared by every field and
# both engines
_PROFILE_CACHE: dict = {}


def clear_caches():
    """Empty the class table and the canonical searches it was keyed by."""
    _PROFILE_CACHE.clear()
    canon._KEPT.clear()


def _orbits(n: int, autos) -> bytes:
    """Each vertex's least orbit-mate under the group the permutations
    generate (bytes: n is at most 64)."""
    root = list(range(n))

    def find(x):
        while root[x] != x:
            x = root[x]
        return x

    for perm in autos:
        for x in range(n):
            a, b = find(x), find(perm[x])
            if a != b:
                root[max(a, b)] = min(a, b)
    return bytes(find(x) for x in range(n))


def _class_of(g: Graph) -> _Class:
    """The record of the connected graph g's class, keyed by its canonical
    form."""
    key = canonical_form(g)
    rec = _PROFILE_CACHE.get(key)
    if rec is None:
        rec = _PROFILE_CACHE[key] = _Class(g)
    return rec


def _parts(g: Graph, keep: int = -1) -> tuple:
    """The records of the components of g restricted to the vertex mask
    ``keep`` (all of g by default); none for an empty graph or mask."""
    return tuple(map(_class_of, g.induced_components(keep)))


def _orbit(rec: _Class) -> bytes:
    if rec.orbit is None:
        rec.orbit = _orbits(rec.graph.n, automorphisms(rec.graph))
    return rec.orbit


def _reps(rec: _Class) -> list:
    """One vertex per orbit."""
    return [v for v, r in enumerate(_orbit(rec)) if v == r]


def _minus(rec: _Class, mask: int) -> tuple:
    """The records of the components of rec's graph minus the vertex set
    ``mask``, with multiplicity, since alpha sums over them.  Only the
    components are built, so an empty punch builds nothing."""
    out = rec.minus.get(mask)
    if out is None:
        out = rec.minus[mask] = _parts(rec.graph, ~mask)
    return out


def _children(rec: _Class) -> tuple:
    """The distinct component classes of g minus N[v] over the vertices v
    of g, from one v per orbit: an automorphism carrying v to w carries g
    minus N[v] onto g minus N[w]."""
    adj = rec.graph.adj
    return tuple(dict.fromkeys(c for v in _reps(rec) for c in _minus(rec, adj[v] | 1 << v)))


def _deletions(rec: _Class) -> tuple:
    """The distinct graphs g minus v, from one v per orbit."""
    return tuple(dict.fromkeys(_minus(rec, 1 << v) for v in _reps(rec)))


def _edge_punches(rec: _Class) -> tuple:
    """The distinct graphs g minus N(x) | N(y) over the edges xy of g.
    Name each orbit by its least vertex.  Given an edge, let x be the end
    whose orbit has the smaller name: an automorphism carrying x to that
    name carries the edge onto one from a name to a vertex whose orbit's
    name is no smaller, so those edges are enough."""
    adj = rec.graph.adj
    orbit = _orbit(rec)
    return tuple(
        dict.fromkeys(_minus(rec, adj[x] | adj[y]) for x in _reps(rec) for y in bits(adj[x]) if orbit[y] >= x)
    )


def _dom(rec: _Class) -> int:
    """The first orbit representative y that dominates a neighbour x,
    N[x] inside N[y], or -1: the class splits at y (module docstring)."""
    if rec.dom is None:
        adj = rec.graph.adj
        rec.dom = next((y for y in _reps(rec) if _dominates(adj, y)), -1)
    return rec.dom


def _split(rec: _Class) -> tuple:
    """The parts of G minus y and of G minus N[y] at the dominating y."""
    y = _dom(rec)
    return _minus(rec, 1 << y), _minus(rec, rec.graph.adj[y] | 1 << y)


def _holds(parts, alpha: int, test, *args) -> bool:
    """The parts' independence numbers add up to alpha, and every part
    passes test; every alpha is read before any test."""
    return sum(map(_alpha, parts)) == alpha and all(test(p, *args) for p in parts)


def _split_holds(rec: _Class, test, *args) -> bool:
    """At the dominating y: alpha(G minus y) = alpha(G minus N[y]) + 1, and
    every part of both sides passes test (module docstring).  alpha(G) is
    the larger side, so the one equation holds both."""
    minus, link = _split(rec)
    return _holds(minus, sum(map(_alpha, link)) + 1, test, *args) and all(test(p, *args) for p in link)


def _pure(rec: _Class) -> bool:
    if rec.pure is None:
        rec.pure = _split_holds(rec, _pure) if _dom(rec) >= 0 else is_well_covered(rec.graph)
    return rec.pure


def _alpha(rec: _Class) -> int:
    if rec.alpha is None:
        if _dom(rec) >= 0:
            minus, link = _split(rec)
            rec.alpha = max(sum(map(_alpha, minus)), sum(map(_alpha, link)) + 1)
        else:
            rec.alpha = independence_number(rec.graph)
    return rec.alpha


def _sheds(rec: _Class, v: int) -> bool:
    if not rec.sheds >> 2 * v & 1:
        rec.sheds |= (1 + 2 * _is_shedding(rec.graph, v)) << 2 * v
    return rec.sheds >> 2 * v & 2 > 0


def _w2(rec: _Class) -> bool:
    """Well-covered with every vertex shedding, tested at one vertex per
    orbit: an automorphism carrying v to w carries the maximal independent
    sets of g minus v onto those of g minus w, and N(v) onto N(w)."""
    return _pure(rec) and all(_sheds(rec, v) for v in _reps(rec))


def _join(parts, char: int) -> tuple:
    """Reduced Betti numbers of the join of the parts' complexes, indexed
    by face cardinality: the convolution of their numbers, starting from
    {emptyset}'s."""
    out = (1,)
    for p in parts:
        b = _betti(p, char)
        join = [0] * (len(out) + len(b) - 1)
        for i, x in enumerate(out):
            for j, y in enumerate(b):
                join[i + j] += x * y
        out = tuple(join)
    return out


def _betti(rec: _Class, char: int) -> tuple:
    """The class's Betti numbers: split at a dominating vertex, or ranked
    on the relative complex; either way their length gives alpha."""
    out = rec.betti.get(char)
    if out is None:
        if _dom(rec) >= 0:
            minus, link = (_join(punch, char) for punch in _split(rec))
            # b_c(G) = b_c(G minus y) + b_{c-1}(G minus N[y])
            out = [0] * max(len(minus), len(link) + 1)
            for c, b in itertools.chain(enumerate(minus), enumerate(link, 1)):
                out[c] += b
            out = rec.betti[char] = tuple(out)
        else:
            rec.betti.update(_profiles(_relative_cells(rec.graph, rec.alpha), char))
            out = rec.betti[char]
        rec.alpha = len(out) - 1
    return out


def graph_betti(g: Graph, field) -> tuple:
    """Reduced Betti numbers of Delta(g): the join of its components'."""
    return _join(_parts(g), _char(field))


def _reisner(rec: _Class, char: int) -> bool:
    """Reisner criterion for Delta(g): faces containing a vertex v are
    handled by recursing into the punched graph g minus N[v].  A class with
    a dominating vertex y is CM iff G minus y and G minus N[y] are, with
    alpha(G minus y) = alpha(G) = alpha(G minus N[y]) + 1 (module
    docstring)."""
    out = rec.cm.get(char)
    if out is None:
        if _dom(rec) >= 0:
            out = _split_holds(rec, _reisner, char)
        else:
            # CM complexes are pure
            out = (
                _pure(rec)
                and not any(_betti(rec, char)[:-1])
                and all(_reisner(child, char) for child in _children(rec))
            )
        rec.cm[char] = out
    return out


def _gorenstein_star(rec: _Class, char: int) -> bool:
    """Stanley links-are-spheres condition over all faces of Delta(g).  It
    contains the Reisner criterion, so purity is tested before homology."""
    out = rec.gor.get(char)
    if out is None:
        # Betti numbers are non-negative: a sphere's sum to its top one, 1
        out = (
            _pure(rec)
            and _betti(rec, char)[-1] == sum(_betti(rec, char)) == 1
            and all(_gorenstein_star(child, char) for child in _children(rec))
        )
        rec.gor[char] = out
    return out


def is_cm_graph(g: Graph, field) -> bool:
    char = _char(field)
    return all(_reisner(p, char) for p in _parts(g))


def is_cm(delta: SimplicialComplex, field) -> bool:
    """Reisner criterion, one link per face."""
    char = _char(field)
    if delta.is_void():
        return True
    if not delta.is_pure():
        return False
    for f in delta.faces():
        lk = link(delta, f)
        betti = _profile_from_cards(_faces_by_card_from_complex(lk), char)
        if any(betti[c] != 0 for c in range(len(betti) - 1)):
            return False
    return True


def is_doubly_cm(delta: SimplicialComplex, field) -> bool:
    if not is_cm(delta, field):
        return False
    d = delta.dim
    for x in sorted(delta.vertices(), key=str):
        dx = delete(delta, [x])
        if dx.dim != d or not is_cm(dx, field):
            return False
    return True


def _doubly_cm(rec: _Class, char: int) -> bool:
    """Cheapest test first: Reisner; then Gorenstein*, which implies doubly
    CM and after Reisner reads only Betti numbers already on the records;
    then W2, which doubly CM implies; and only then the graphs g minus v
    (see the module docstring for both implications)."""
    return _reisner(rec, char) and (
        _gorenstein_star(rec, char)
        or _w2(rec) and all(_holds(d, _alpha(rec), _reisner, char) for d in _deletions(rec))
    )


def is_doubly_cm_graph(g: Graph, field) -> bool:
    """CM, and so is g minus v with the same independence number, for
    every vertex v.  Deleting v leaves the other components whole, so g is
    doubly CM iff every component is.  The graphs g minus v stay on the
    component's record, so only the first field builds them, and only for
    W2 components that are not Gorenstein*."""
    char = _char(field)
    return all(_doubly_cm(p, char) for p in _parts(g))


def edge_punches_cm(g: Graph, field) -> bool:
    """Punching any edge xy of g (deleting N(x) | N(y)) leaves a CM graph
    with independence number alpha(g) - 1; the empty graph counts as CM
    with alpha 0.  Punching an edge of one component leaves the others
    whole, so each punch is one of the component's punches plus the other
    components.  The punched graphs stay on the component's record, so
    only the first field builds them."""
    char = _char(field)
    parts = _parts(g)
    a = sum(map(_alpha, parts))
    return all(
        _holds(e + parts[:i] + parts[i + 1:], a - 1, _reisner, char)
        for i, p in enumerate(parts)
        for e in _edge_punches(p)
    )


def is_gorenstein_graph(g: Graph, field) -> bool:
    """Gorenstein over the field, via the Stanley criterion on the core of
    Delta(g).  The cone points of Delta(g) are exactly the isolated
    vertices of g, so the core is the join of the other components'
    complexes, and a join is Gorenstein* iff each factor is.  The empty
    graph's complex {emptyset} is Gorenstein, which makes K1 and K2 come
    out Gorenstein as they should."""
    char = _char(field)
    return all(_gorenstein_star(p, char) for p in _parts(g) if p.graph.n > 1)
