"""The three benchmark workloads, driven through graphcm's public functions.

Each workload builds its inputs once (the set-up the benchmark times as
``setup_s``), then hands out one list of top-level calls per pass.  The
runner clears every graphcm cache at the start of each pass, and every
call builds fresh ``Graph`` objects, so each pass starts as cold as a new
process would.

* ``suite`` -- the theorem suites in ``scripts/verify_all.py`` order, the
  paper's machine-verification use; canonical forms dominate.
* ``family`` -- one ``graphcm analyze``-style classification per family or
  catalog graph, caches cleared per graph; exact char-0 rank dominates.
* ``stream`` -- the T1 predicate, as ``graphcm verify T1 --input`` applies
  it, over random connected graphs read back from a graph6 file; cycle
  enumeration and exact cover dominate.
"""

from __future__ import annotations

import random

from graphcm import complexes, decomposability, enumeration, families, graphio, recognition
from graphcm.complexes import FieldSpec
from graphcm.graph import Graph

CHARS = (0, 2)


def clear_caches():
    """Empty every process-wide graphcm cache."""
    enumeration.clear_cache()
    complexes.clear_caches()
    decomposability.clear_cache()


# -- suite --------------------------------------------------------------------------

# (theorem, n_max) in verify_all.py order.  EG1 (pure homology) and
# unfiltered n=8 (canon alone, 37 s on a 2-core box) stay out.
SUITE_PLAN = (
    ("T1", 7),
    ("T2", 9),
    ("COR_G6", 9),
    ("T3", 8),
    ("COR2", 8),
    ("COR3", 8),
    ("T4", 8),
    ("LEMMA_P", 8),
    ("W2_GOR", 7),
)
SUITE_SMOKE_N = 5

# graphs_checked per (theorem, n_max), at the benchmark sizes and at the
# self-test size n<=5.  The unfiltered suites (T1, W2_GOR) are sums of OEIS
# A001349.  selftest.py cross-checks the filtered counts up to n=7 against
# the networkx graph atlas; the n=8 and n=9 counts are pinned from graphcm
# 0.1.0 as first imported, with no independent source.
A001349 = (1, 1, 2, 6, 21, 112, 853)
SUITE_COUNTS = {
    ("T1", 7): sum(A001349[:7]),
    ("W2_GOR", 7): sum(A001349[:7]),
    ("T2", 9): 219,
    ("COR_G6", 9): 130,
    ("T3", 8): 198,
    ("COR2", 8): 385,
    ("COR3", 8): 291,
    ("T4", 8): 233,
    ("LEMMA_P", 8): 233,
    ("T1", 5): sum(A001349[:5]),
    ("W2_GOR", 5): sum(A001349[:5]),
    ("T2", 5): 9,
    ("COR_G6", 5): 8,
    ("T3", 5): 14,
    ("COR2", 5): 20,
    ("COR3", 5): 17,
    ("T4", 5): 3,
    ("LEMMA_P", 5): 3,
}


class Suite:
    name = "suite"
    repeat_short = False  # later suites reuse the levels earlier ones generated

    def __init__(self, seed: int, workdir, smoke: bool = False):
        # the suites are exhaustive: the seed changes nothing
        self.plan = tuple((tid, SUITE_SMOKE_N if smoke else n) for tid, n in SUITE_PLAN)

    def items(self):
        return [(f"{tid}@{n}", _verify(tid, n)) for tid, n in self.plan]

    def check(self, label, report):
        tid, n = label.split("@")
        want = SUITE_COUNTS[(tid, int(n))]
        failures = [f"{label}: counterexample {g6}" for g6 in report.counterexamples]
        if report.graphs_checked != want:
            failures.append(f"{label}: checked {report.graphs_checked} graphs, expected {want}")
        return 2, failures


def _verify(tid, n):
    return lambda: enumeration.verify_theorem(tid, n_max=n, fields=CHARS)


# -- family -------------------------------------------------------------------------

# Expected verdicts, from the paper: every G_k is Gorenstein and W2 over
# both fields, every H_k is CM, and the catalog graphs are well-covered and
# not CM, the four transcribed ones also not PC.
FAMILY_NOT_PC = ("P10", "P13", "Q13", "P14")
FAMILY_CATALOG = ("C7", "T10") + FAMILY_NOT_PC


class Family:
    name = "family"
    repeat_short = True  # every call clears the caches first

    def __init__(self, seed: int, workdir, smoke: bool = False):
        # fixed graphs: the seed changes nothing.  Inputs are kept as graph6,
        # as `graphcm analyze --g6` receives them, so each call parses a
        # fresh Graph.
        ks = (3,) if smoke else (3, 4, 5)
        catalog = ("C7", "P10") if smoke else FAMILY_CATALOG
        entries = [(f"G{k}", families.gen_G(k)) for k in ks]
        entries += [(f"H{k}", families.gen_H(k)) for k in ks]
        entries += [(name, families.catalog(name)) for name in catalog]
        self.analyze = [(label, graphio.to_graph6(g)) for label, g in entries]
        gor_k = 4 if smoke else 6
        self.gorenstein = (f"G{gor_k}:gorenstein", graphio.to_graph6(families.gen_G(gor_k)))

    def items(self):
        out = [(label, _classify(g6)) for label, g6 in self.analyze]
        label, g6 = self.gorenstein
        out.append((label, _gorenstein(g6)))
        return out

    def check(self, label, verdict):
        fails = []

        def expect(name, got, want):
            if got != want:
                fails.append(f"{label}: {name} is {got}, expected {want}")

        if label.endswith(":gorenstein"):
            for c in CHARS:
                expect(f"gorenstein[char{c}]", verdict[c], True)
            return len(CHARS), fails
        rep = verdict
        if label.startswith("G"):
            for c in CHARS:
                expect(f"gorenstein[char{c}]", rep.gorenstein[c], True)
            expect("w2", rep.w2, True)
            return len(CHARS) + 1, fails
        if label.startswith("H"):
            for c in CHARS:
                expect(f"cm[char{c}]", rep.cm[c], True)
            return len(CHARS), fails
        expect("well_covered", rep.well_covered, True)
        for c in CHARS:
            expect(f"cm[char{c}]", rep.cm[c], False)
        if label in FAMILY_NOT_PC:
            expect("pc", rep.pc is not None, False)
            return len(CHARS) + 2, fails
        return len(CHARS) + 1, fails


def _classify(g6):
    def call():
        clear_caches()  # one graph per CLI call
        return recognition.classify(graphio.from_graph6(g6), fields=CHARS)

    return call


def _gorenstein(g6):
    def call():
        clear_caches()
        g = graphio.from_graph6(g6)
        return {c: complexes.is_gorenstein_graph(g, FieldSpec(c)) for c in CHARS}

    return call


# -- stream -------------------------------------------------------------------------

# Graphs on n = 9..12 vertices with edge density 0.2..0.6, drawn as
# uniformly random edge sets of a fixed size, connected ones only.  Every
# seed draws the same multiset of (n, edge count) pairs, spread evenly over
# the range, so seeds differ in which graphs they draw but not in the mix
# of sizes and densities that sets most of the run time.  The densest
# graphs are where 5-cycle enumeration blows up; the sparsest hold most of
# the SQC graphs, the only ones that reach the homology half of T1.
STREAM_NS = (9, 10, 11, 12)
STREAM_DENSITY = (0.2, 0.6)
STREAM_GRAPHS = 4000
STREAM_SMOKE_GRAPHS = 48


def stream_plan(count: int) -> list:
    """(n, edge count) for each of `count` random graphs."""
    lo, hi = STREAM_DENSITY
    per_n = -(-count // len(STREAM_NS))
    plan = []
    for i in range(count):
        n = STREAM_NS[i % len(STREAM_NS)]
        pairs = n * (n - 1) // 2
        m_lo, m_hi = max(n - 1, round(lo * pairs)), round(hi * pairs)
        j = i // len(STREAM_NS)
        plan.append((n, m_lo + (j * (m_hi - m_lo + 1)) // per_n))
    return plan


def _random_connected(rng, n, m):
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    while True:
        edges = rng.sample(pairs, m)
        if Graph.from_edges(n, edges).is_connected():
            return edges


def draw_stream(seed: int, count: int) -> list:
    """`count` random connected graphs as graph6 strings, from the seed."""
    rng = random.Random(seed)
    plan = stream_plan(count)
    rng.shuffle(plan)
    return [graphio.to_graph6(Graph.from_edges(n, _random_connected(rng, n, m))) for n, m in plan]


class Stream:
    name = "stream"
    repeat_short = False  # 4000 calls: their median needs no repeats

    def __init__(self, seed: int, workdir, smoke: bool = False):
        count = STREAM_SMOKE_GRAPHS if smoke else STREAM_GRAPHS
        self.path = workdir / f"stream-{seed}.g6"
        self.path.write_text("".join(s + "\n" for s in draw_stream(seed, count)), encoding="ascii")

    def items(self):
        with open(self.path, encoding="ascii") as fh:
            lines = fh.read().split()
        return [(str(i), _t1(s)) for i, s in enumerate(lines)]

    def check(self, label, outcome):
        g6, cert, holds = outcome
        if cert is None:
            return 1, []
        fails = []
        if not holds:
            fails.append(f"{g6}: SQC but not both vertex decomposable and CM")
        g = graphio.from_graph6(g6)
        if not cert.validate(g):
            fails.append(f"{g6}: SQC certificate does not validate")
        ok, vd_cert = decomposability.is_vertex_decomposable(g, want_certificate=True)
        if not ok or not decomposability.replay_certificate(g, vd_cert):
            fails.append(f"{g6}: shedding certificate does not replay")
        return 3, fails


def _t1(g6):
    """The T1 predicate: SQC implies vertex decomposable and CM over every
    field.  The verdict and certificate are kept for the checks, which run
    after the pass."""

    def call():
        g = graphio.from_graph6(g6)
        cert = recognition.recognize_sqc(g)
        if cert is None:
            return g6, None, True
        holds = decomposability.is_vertex_decomposable(g)[0] and all(complexes.is_cm_graph(g, c) for c in CHARS)
        return g6, cert, holds

    return call


WORKLOADS = {w.name: w for w in (Suite, Family, Stream)}
