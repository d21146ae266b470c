#!/usr/bin/env python3
"""Self-test of the benchmark harness at tiny sizes.

    python3 perfbench/selftest.py

Checks, in about a minute:

* BENCHMARK.json names the same per-layer metrics, with the same units and
  directions, as spans.PER_LAYER, and the end-to-end metrics run.py prints;
* every workload, at ``--smoke`` size, traced and untraced, prints a result
  object of the required shape with every output check passing;
* each workload's dominant layer records calls in the traced run (canon on
  suite, Bareiss rank on family, SQC recognition on stream), which catches
  a call site the tracer failed to rebind;
* the suite's filtered graph counts up to n=7 agree with the networkx graph
  atlas, using networkx's girth, planarity and biconnected components;
* run.py exits non-zero, printing no result, in a directory holding only
  BENCHMARK.json and the benchmark's own files.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
DOMINANT = {
    "suite": "canon.canonical_form.calls",
    "family": "linalg.rank_bareiss.calls",
    "stream": "recognition.recognize_sqc.calls",
}


def run_bench(workload, trace, cwd=ROOT, script=HERE / "run.py"):
    cmd = [sys.executable, str(script), "--workload", workload, "--seed", "7", "--seconds", "1"]
    cmd += ["--trace", str(trace), "--smoke"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=180)


def check_result(line, names, units):
    res = json.loads(line)
    assert set(res) == {"correct", "attempted", "failed", "metrics"}, sorted(res)
    assert res["correct"] is True and res["failed"] == 0, res
    assert isinstance(res["attempted"], int) and res["attempted"] >= 1, res
    assert set(res["metrics"]) == set(names), set(res["metrics"]) ^ set(names)
    for name, m in res["metrics"].items():
        assert set(m) == {"value", "unit"} and m["unit"] == units[name], (name, m)
        assert isinstance(m["value"], (int, float)) and math.isfinite(m["value"]), (name, m)
    return res["metrics"]


def test_benchmark_json():
    sys.path.insert(0, str(HERE))
    from spans import PER_LAYER

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    layers = {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]}
    assert layers == {k: v[:2] for k, v in PER_LAYER.items()}, set(layers) ^ set(PER_LAYER)
    assert [w["name"] for w in spec["workloads"]] == list(DOMINANT)
    return spec


def test_runs(spec):
    e2e_units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    layer_units = {m["name"]: m["unit"] for m in spec["per_layer"]}
    for wl in DOMINANT:
        out = run_bench(wl, 0)
        assert out.returncode == 0, out.stderr
        metrics = check_result(out.stdout.splitlines()[-1], e2e_units, e2e_units)
        assert all(m["value"] > 0 for m in metrics.values()), metrics
        out = run_bench(wl, 1)
        assert out.returncode == 0, out.stderr
        metrics = check_result(out.stdout.splitlines()[-1], layer_units, layer_units)
        assert metrics[DOMINANT[wl]]["value"] > 0, (wl, DOMINANT[wl])
        print(f"ok   {wl}: schema, checks, {DOMINANT[wl]} = {metrics[DOMINANT[wl]]['value']}")


def test_atlas_counts():
    import networkx as nx

    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    from graphcm.enumeration import verify_theorem
    from workloads import SUITE_COUNTS, SUITE_SMOKE_N

    def blocks(h):
        return [h.subgraph(b) for b in nx.biconnected_components(h)]

    def is_cycle(b):
        return b.number_of_nodes() >= 3 and all(d == 2 for _, d in b.degree())

    def is_clique(b):
        k = b.number_of_nodes()
        return b.number_of_edges() == k * (k - 1) // 2

    def has_cycle_of_length(h, lengths):
        return any(len(c) in lengths for c in nx.simple_cycles(h, length_bound=max(lengths)))

    filters = {
        "T2": lambda h: nx.girth(h) >= 5,
        "COR_G6": lambda h: nx.girth(h) >= 6,
        "T3": lambda h: not has_cycle_of_length(h, (4, 5)),
        "COR2": lambda h: all(is_clique(b) or is_cycle(b) for b in blocks(h)),
        "COR3": lambda h: all(b.number_of_nodes() <= 2 or is_cycle(b) for b in blocks(h)),
        "T4": lambda h: nx.girth(h) == 4 and nx.check_planarity(h)[0],
        "LEMMA_P": lambda h: nx.girth(h) == 4 and nx.check_planarity(h)[0],
    }
    atlas = [h for h in nx.graph_atlas_g()[1:] if nx.is_connected(h)]
    for tid, keep in filters.items():
        by_n = [0] * 8
        for h in atlas:
            if keep(h):
                by_n[h.number_of_nodes()] += 1
        got7 = verify_theorem(tid, n_max=7).graphs_checked
        assert got7 == sum(by_n), (tid, got7, by_n)
        assert SUITE_COUNTS[(tid, SUITE_SMOKE_N)] == sum(by_n[: SUITE_SMOKE_N + 1]), (tid, by_n)
        print(f"ok   {tid}: atlas counts n<=7 {by_n[1:]} agree")


def test_without_source():
    with tempfile.TemporaryDirectory(prefix=".perfbench-selftest-", dir=ROOT) as tmp:
        bare = Path(tmp)
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
        out = run_bench("suite", 0, cwd=bare, script=bare / HERE.name / "run.py")
        assert out.returncode != 0 and not out.stdout.strip(), (out.returncode, out.stdout)
    print("ok   run.py refuses a directory without the graphcm source")


def main() -> int:
    spec = test_benchmark_json()
    print("ok   BENCHMARK.json agrees with the harness")
    test_runs(spec)
    test_atlas_counts()
    test_without_source()
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
