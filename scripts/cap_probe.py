#!/usr/bin/env python3
"""Run the engines on inputs near the 64-vertex cap, one child process per
row, each under an address-space limit and a time limit set on that child
only; print the time, the peak RSS and the verdict, or which limit stopped
the row.

    python scripts/cap_probe.py            # a markdown table
    python scripts/cap_probe.py --json     # the table, then the rows as JSON
"""

import argparse
import json
import random
import resource
import subprocess
import sys
import time

MEMORY_BYTES = 3 * 1024**3
TIMEOUT_S = 60


def _whiskered_path(k):
    from graphcm.families import whiskered
    from graphcm.graph import path_graph

    return whiskered(path_graph(k))


def _whiskered_tree(k, seed):
    from graphcm.families import whiskered
    from graphcm.graph import Graph

    rng = random.Random(seed)
    return whiskered(Graph.from_edges(k, [(rng.randrange(v), v) for v in range(1, k)]))


def _cm(g):
    from graphcm.complexes import is_cm_graph

    return is_cm_graph(g, 0)


def _gorenstein(g):
    from graphcm.complexes import is_gorenstein_graph

    return is_gorenstein_graph(g, 0)


def _classify(g):
    from graphcm.recognition import classify

    r = classify(g, (0, 2))
    return f"well-covered {r.well_covered}, W2 {r.w2}, CM {r.cm}, Gorenstein {r.gorenstein}"


def _betti(char):
    def call(g):
        from graphcm.complexes import graph_betti

        b = graph_betti(g, char)
        return f"{sum(b)} non-zero over {len(b)} cardinalities" if any(b) else f"0 in all {len(b)} cardinalities"

    return call


def _vd(g):
    from graphcm.decomposability import is_vertex_decomposable, replay_certificate

    ok, cert = is_vertex_decomposable(g, want_certificate=True)
    return f"{ok}, certificate replays" if ok and replay_certificate(g, cert) else ok


def _family(name, k):
    def build():
        from graphcm import families

        return getattr(families, name)(k)

    return build


# (input, call, graph builder, engine)
ROWS = [(f"whiskered P{k}", "is_cm_graph, char 0", lambda k=k: _whiskered_path(k), _cm) for k in (12, 14, 16, 24, 32)]
ROWS += [("whiskered P32", f"graph_betti, char {c}", lambda: _whiskered_path(32), _betti(c)) for c in (0, 2)]
ROWS += [("whiskered P32", call, lambda: _whiskered_path(32), engine)
         for call, engine in (("is_vertex_decomposable + replay", _vd), ("is_gorenstein_graph, char 0", _gorenstein),
                              ("classify, chars 0 and 2", _classify))]
for seed in (1, 2, 3):
    tree = f"whiskered random tree, 32 base vertices, seed {seed}"
    ROWS += [(tree, call, lambda seed=seed: _whiskered_tree(32, seed), engine)
             for call, engine in (("is_cm_graph, char 0", _cm), ("graph_betti, char 0", _betti(0)),
                                  ("is_vertex_decomposable + replay", _vd),
                                  ("is_gorenstein_graph, char 0", _gorenstein))]
ROWS += [(f"gen_H({k})", "is_cm_graph, char 0", _family("gen_H", k), _cm) for k in (10, 12)]


def run_child(index: int) -> None:
    """Build one row's input, run its engine and print one JSON line."""
    _name, _call, build, engine = ROWS[index]
    g = build()
    start = time.perf_counter()
    try:
        verdict = str(engine(g))
    except MemoryError:
        verdict = None
    out = {
        "seconds": round(time.perf_counter() - start, 3),
        "peak_mb": round(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024),
        "verdict": verdict,
    }
    print(json.dumps(out))


def _limit():
    resource.setrlimit(resource.RLIMIT_AS, (MEMORY_BYTES, MEMORY_BYTES))


def probe(index: int) -> dict:
    name, call, build, _engine = ROWS[index]
    row = {"input": name, "vertices": build().n, "call": call}
    cmd = [sys.executable, __file__, "--child", str(index)]
    try:
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=TIMEOUT_S, preexec_fn=_limit)
    except subprocess.TimeoutExpired:
        return row | {"stopped": f"over {TIMEOUT_S} s"}
    if done.returncode:
        return row | {"stopped": f"exit {done.returncode}: {done.stderr.strip().splitlines()[-1:]}"}
    row |= json.loads(done.stdout.splitlines()[-1])
    if row["verdict"] is None:
        row["stopped"] = f"MemoryError at {MEMORY_BYTES // 1024**3} GB"
    return row


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--json", action="store_true", help="print the rows as one JSON list after the table")
    ap.add_argument("--child", type=int, help=argparse.SUPPRESS)
    args = ap.parse_args()
    if args.child is not None:
        run_child(args.child)
        return 0
    print("| input | vertices | call | result | peak RSS |")
    print("| --- | --- | --- | --- | --- |")
    rows = []
    for i in range(len(ROWS)):
        row = probe(i)
        rows.append(row)
        result = row.get("stopped") or f"{row['verdict']} in {row['seconds']} s"
        peak = f"{row['peak_mb']} MB" if "peak_mb" in row else "—"
        print(f"| {row['input']} | {row['vertices']} | `{row['call']}` | {result} | {peak} |", flush=True)
    if args.json:
        print(json.dumps(rows))
    return 0


if __name__ == "__main__":
    sys.exit(main())
