"""Span tracing of graphcm's layers from outside the package.

The tracer wraps public functions of the graphcm modules and rebinds every
name that refers to them, in every loaded ``graphcm`` module: modules such
as ``enumeration``, ``recognition`` and ``families`` import functions of
``complexes``, ``decomposability`` and ``recognition`` by name, so patching
only the defining module would miss those call sites.  Calls made through
a module attribute (``linalg.rank_char0``) or a module global of the
defining module pick the wrapper up as well.

Spans are held in flat arrays with a parent link each and written out when
the run ends.  A span's self time is its duration minus the durations of
its direct children.
"""

from __future__ import annotations

import gzip
import json
import sys
import time
from array import array

# (module, function) pairs wrapped by the traced run.  Order is irrelevant.
TRACED = (
    ("canon", "canonical_form"),
    ("linalg", "rank_bareiss"),
    ("linalg", "rank_char0"),
    ("linalg", "rank_mod_p"),
    ("linalg", "rank_gf2"),
    ("complexes", "graph_betti"),
    ("complexes", "is_cm_graph"),
    ("complexes", "is_gorenstein_graph"),
    ("recognition", "recognize_sqc"),
    ("recognition", "basic_5_cycles"),
    ("recognition", "basic_4_cycles"),
    ("recognition", "simplicial_vertices"),
    ("recognition", "recognize_pc"),
    ("decomposability", "is_vertex_decomposable"),
    ("independence", "is_well_covered"),
    ("independence", "independence_number"),
    ("independence", "is_w2"),
    ("planarity", "is_planar"),
    ("graphio", "from_graph6"),
    ("enumeration", "verify_theorem"),
    ("enumeration", "enumerate_connected_upto"),
)

# per-layer metric -> (unit, better, what it should move).  BENCHMARK.json
# lists the same names; selftest.py checks that the two agree.
PER_LAYER = {
    "canon.canonical_form.calls": ("count", "lower", "wall_s and peak_rss_mb on suite; flat on family and stream"),
    "canon.canonical_form.self_s": ("s", "lower", "wall_s on suite; flat on family and stream"),
    "enumeration.canon_calls_per_graph": ("ratio", "lower", "wall_s and peak_rss_mb on suite"),
    "linalg.rank_bareiss.calls": ("count", "lower", "wall_s on family, item_tail_ms on stream"),
    "linalg.rank_bareiss.self_s": ("s", "lower", "wall_s on family, item_tail_ms on stream"),
    "linalg.rank_bareiss.entries": ("count", "lower", "wall_s on family, item_tail_ms on stream"),
    "linalg.rank_char0.bareiss_ratio": ("ratio", "lower", "wall_s on family, item_tail_ms on stream"),
    "linalg.rank_mod_p.self_s": ("s", "lower", "wall_s on family, item_tail_ms on stream"),
    "linalg.rank_gf2.self_s": ("s", "lower", "wall_s on family, item_tail_ms on stream"),
    "complexes.graph_betti.calls": ("count", "lower", "wall_s and peak_rss_mb on suite, wall_s on family"),
    "complexes.graph_betti.self_s": ("s", "lower", "wall_s and peak_rss_mb on suite, wall_s on family"),
    "complexes.graph_betti.hit_ratio": ("ratio", "higher", "wall_s on suite"),
    "complexes.is_cm_graph.self_s": ("s", "lower", "wall_s on suite and family"),
    "complexes.is_gorenstein_graph.self_s": ("s", "lower", "wall_s on suite and family"),
    "recognition.recognize_sqc.calls": ("count", "lower", "item_p50_ms and wall_s on stream"),
    "recognition.recognize_sqc.self_s": ("s", "lower", "item_p50_ms and wall_s on stream, minor wall_s on suite"),
    "recognition.recognize_sqc.hit_ratio": ("ratio", "higher", "item_tail_ms on stream"),
    "recognition.basic_5_cycles.self_s": ("s", "lower", "item_p50_ms and wall_s on stream"),
    "recognition.basic_4_cycles.self_s": ("s", "lower", "item_p50_ms and wall_s on stream"),
    "recognition.simplicial_vertices.self_s": ("s", "lower", "item_p50_ms and wall_s on stream"),
    "recognition.recognize_pc.self_s": ("s", "lower", "wall_s on suite"),
    "decomposability.is_vertex_decomposable.calls": ("count", "lower", "wall_s on suite, item_tail_ms on stream"),
    "decomposability.is_vertex_decomposable.self_s": ("s", "lower", "wall_s on suite, item_tail_ms on stream"),
    "independence.is_well_covered.self_s": ("s", "lower", "wall_s on suite and family"),
    "independence.independence_number.self_s": ("s", "lower", "wall_s on suite and family"),
    "independence.is_w2.self_s": ("s", "lower", "wall_s on suite and family"),
    "planarity.is_planar.calls": ("count", "lower", "wall_s on suite and family"),
    "planarity.is_planar.self_s": ("s", "lower", "wall_s on suite and family"),
    "graphio.from_graph6.self_s": ("s", "lower", "wall_s on stream"),
    "enumeration.verify_theorem.self_s": ("s", "lower", "wall_s on suite"),
    "graph.residual_s": ("s", "lower", "wall_s on every workload"),
    "trace.overhead_s": ("s", "lower", "none; the cost of tracing itself"),
}


SPAN_COLUMNS = ["id", "name", "parent", "item", "start", "end", "info"]


class Tracer:
    """Records one span per call of each wrapped function, timed by `clock`."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.names = [f"{mod}.{fn}" for mod, fn in TRACED]
        self.name_id = {name: i for i, name in enumerate(self.names)}
        self.name = array("H")
        self.parent = array("l")
        self.start = array("d")
        self.end = array("d")
        self.info = array("q")  # per-span datum: matrix entries, cache hit, graphs kept
        self.item = array("l")  # the top-level call (request) the span belongs to
        self.current_item = -1
        self._stack = [-1]
        self._saved = []

    # -- recording -----------------------------------------------------------

    def _wrap(self, name, fn, probe):
        nid = self.name_id[name]
        names, parents, starts, ends, infos = self.name, self.parent, self.start, self.end, self.info
        items, stack = self.item, self._stack
        clock = self.clock
        tracer = self

        def traced(*args, **kwargs):
            idx = len(names)
            names.append(nid)
            items.append(tracer.current_item)
            parents.append(stack[-1])
            ends.append(0.0)
            infos.append(0)
            stack.append(idx)
            starts.append(clock())
            try:
                out, infos[idx] = probe(fn, args, kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            return out

        traced.__wrapped__ = fn
        traced.__name__ = fn.__name__
        traced.__doc__ = fn.__doc__
        return traced

    def install(self):
        """Wrap every function in TRACED and rebind each name bound to it in
        any loaded graphcm module."""
        mods = {k: v for k, v in sys.modules.items() if k == "graphcm" or k.startswith("graphcm.")}
        for mod_name, fn_name in TRACED:
            home = mods[f"graphcm.{mod_name}"]
            orig = getattr(home, fn_name)
            probe = _PROBES.get(fn_name, lambda mods: _plain)(mods)
            wrapper = self._wrap(f"{mod_name}.{fn_name}", orig, probe)
            for mod in mods.values():
                for attr, val in list(vars(mod).items()):
                    if val is orig:
                        self._saved.append((mod, attr, orig))
                        setattr(mod, attr, wrapper)

    def uninstall(self):
        for mod, attr, orig in reversed(self._saved):
            setattr(mod, attr, orig)
        self._saved.clear()

    # -- analysis --------------------------------------------------------------

    def per_name(self):
        """name -> {calls, self_s, info} summed over spans; plus the number of
        canonical forms computed inside enumeration, and the summed duration
        of the root spans."""
        n = len(self.name)
        self_s = [self.end[i] - self.start[i] for i in range(n)]
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                self_s[p] -= self.end[i] - self.start[i]
        enum_id = self.name_id["enumeration.enumerate_connected_upto"]
        canon_id = self.name_id["canon.canonical_form"]
        in_enum = [False] * n
        canon_in_enum = 0
        for i in range(n):
            p = self.parent[i]
            in_enum[i] = self.name[i] == enum_id or (p >= 0 and in_enum[p])
            if in_enum[i] and self.name[i] == canon_id:
                canon_in_enum += 1
        out = {name: {"calls": 0, "self_s": 0.0, "info": 0} for name in self.names}
        for i in range(n):
            rec = out[self.names[self.name[i]]]
            rec["calls"] += 1
            rec["self_s"] += self_s[i]
            rec["info"] += self.info[i]
        roots = sum(self.end[i] - self.start[i] for i in range(n) if self.parent[i] < 0)
        return out, canon_in_enum, roots

    def write(self, path):
        """Write every span as one JSON line [id, name, parent, item, start,
        end, info], after a header line naming the name ids."""
        with gzip.open(path, "wt", encoding="ascii", compresslevel=1) as fh:
            fh.write(json.dumps({"names": self.names, "columns": SPAN_COLUMNS}) + "\n")
            for i in range(len(self.name)):
                fh.write(
                    f"[{i},{self.name[i]},{self.parent[i]},{self.item[i]},"
                    f"{self.start[i]:.9f},{self.end[i]:.9f},{self.info[i]}]\n"
                )


# A probe makes the wrapped call and returns (result, per-span datum).


def _plain(fn, args, kwargs):
    return fn(*args, **kwargs), 0


def _bareiss_entries(fn, args, kwargs):
    rows = args[0]
    return fn(*args, **kwargs), len(rows) * len(rows[0]) if rows else 0


def _sqc_hit(fn, args, kwargs):
    out = fn(*args, **kwargs)
    return out, int(out is not None)


def _drain(fn, args, kwargs):
    # the enumeration is a generator: drain it inside the span so the span
    # covers generation, and record how many graphs it yielded
    out = list(fn(*args, **kwargs))
    return iter(out), len(out)


def _betti_cache_probe(cache):
    # the profile cache grows only on a miss
    def probe(fn, args, kwargs):
        before = len(cache)
        out = fn(*args, **kwargs)
        return out, int(len(cache) == before)

    return probe


_PROBES = {
    "rank_bareiss": lambda mods: _bareiss_entries,
    "graph_betti": lambda mods: _betti_cache_probe(mods["graphcm.complexes"]._PROFILE_CACHE),
    "recognize_sqc": lambda mods: _sqc_hit,
    "enumerate_connected_upto": lambda mods: _drain,
}


def per_layer_metrics(tracer: Tracer, traced_wall_s: float, overhead_s: float) -> dict:
    """The PER_LAYER metrics of one traced pass, given its wall time and
    the tracing overhead (traced minus untraced pass time)."""
    agg, canon_in_enum, roots = tracer.per_name()

    def ratio(num, den):
        return num / den if den else 0.0

    canon = agg["canon.canonical_form"]
    enum = agg["enumeration.enumerate_connected_upto"]
    bareiss = agg["linalg.rank_bareiss"]
    betti = agg["complexes.graph_betti"]
    sqc = agg["recognition.recognize_sqc"]
    vd = agg["decomposability.is_vertex_decomposable"]
    planar = agg["planarity.is_planar"]
    values = {
        "canon.canonical_form.calls": canon["calls"],
        "canon.canonical_form.self_s": canon["self_s"],
        "enumeration.canon_calls_per_graph": ratio(canon_in_enum, enum["info"]),
        "linalg.rank_bareiss.calls": bareiss["calls"],
        "linalg.rank_bareiss.self_s": bareiss["self_s"],
        "linalg.rank_bareiss.entries": bareiss["info"],
        "linalg.rank_char0.bareiss_ratio": ratio(bareiss["calls"], agg["linalg.rank_char0"]["calls"]),
        "linalg.rank_mod_p.self_s": agg["linalg.rank_mod_p"]["self_s"],
        "linalg.rank_gf2.self_s": agg["linalg.rank_gf2"]["self_s"],
        "complexes.graph_betti.calls": betti["calls"],
        "complexes.graph_betti.self_s": betti["self_s"],
        "complexes.graph_betti.hit_ratio": ratio(betti["info"], betti["calls"]),
        "complexes.is_cm_graph.self_s": agg["complexes.is_cm_graph"]["self_s"],
        "complexes.is_gorenstein_graph.self_s": agg["complexes.is_gorenstein_graph"]["self_s"],
        "recognition.recognize_sqc.calls": sqc["calls"],
        "recognition.recognize_sqc.self_s": sqc["self_s"],
        "recognition.recognize_sqc.hit_ratio": ratio(sqc["info"], sqc["calls"]),
        "recognition.basic_5_cycles.self_s": agg["recognition.basic_5_cycles"]["self_s"],
        "recognition.basic_4_cycles.self_s": agg["recognition.basic_4_cycles"]["self_s"],
        "recognition.simplicial_vertices.self_s": agg["recognition.simplicial_vertices"]["self_s"],
        "recognition.recognize_pc.self_s": agg["recognition.recognize_pc"]["self_s"],
        "decomposability.is_vertex_decomposable.calls": vd["calls"],
        "decomposability.is_vertex_decomposable.self_s": vd["self_s"],
        "independence.is_well_covered.self_s": agg["independence.is_well_covered"]["self_s"],
        "independence.independence_number.self_s": agg["independence.independence_number"]["self_s"],
        "independence.is_w2.self_s": agg["independence.is_w2"]["self_s"],
        "planarity.is_planar.calls": planar["calls"],
        "planarity.is_planar.self_s": planar["self_s"],
        "graphio.from_graph6.self_s": agg["graphio.from_graph6"]["self_s"],
        "enumeration.verify_theorem.self_s": agg["enumeration.verify_theorem"]["self_s"],
        "graph.residual_s": traced_wall_s - roots,
        "trace.overhead_s": overhead_s,
    }
    assert set(values) == set(PER_LAYER)
    return {name: {"value": values[name], "unit": PER_LAYER[name][0]} for name in PER_LAYER}
