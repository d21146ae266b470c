#!/usr/bin/env python3
"""graphcm benchmark: runs one workload in this process and prints its metrics.

    python3 perfbench/run.py --workload suite --seed 1 --seconds 25 --trace 0

Run it from a graphcm source checkout; it imports the package from the
checkout's ``src/`` and exits with status 2 when there is none.

``--trace 0`` times whole passes over the workload until ``--seconds`` is
about used up (at least one pass), and prints the end-to-end metrics:

* ``setup_s``: fresh-process import plus input construction, the median of
  several child processes started for the purpose;
* ``wall_s``: median pass time, until every verdict of the pass is in;
* ``item_p50_ms``: median time of one top-level call (a theorem suite, a
  family graph, a stream graph), each call's time being its median over
  the passes;
* ``item_tail_ms``: the highest of the percentiles 90, 99, 99.9, ... of
  those call times with at least ten calls beyond it, or the slowest call
  when there are too few calls for p90 (suite and family); the detail line
  records which percentile and how many calls;
* ``peak_rss_mb``: this process's peak resident set size.

Every time is normalised to a reference machine speed by a probe sampled
during the run (see speed.py): the shared 2-vCPU host this was built on
runs the same work 20-60% slower for tens of seconds at a time.  The raw
pass times are kept in the detail line.  Sub-second family calls are timed
several times (see run_pass).  ``attempted`` and ``failed`` count the
output checks, so their ratio is the failed-check ratio.

``--trace 1`` runs one untraced pass, then one pass with every graphcm layer
wrapped (see spans.py), prints the per-layer metrics and writes the spans to
``.perfbench_out/`` in the checkout.  Span times are raw; only
``trace.overhead_s``, the difference of the two normalised pass times, is
normalised.

Every pass starts with graphcm's caches cleared and builds new graphs, and
every pass's outputs are checked.  The last line of standard output is the
result object; the line before it is a detail object with the run's
metadata.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import speed

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKLOAD_NAMES = ("suite", "family", "stream")  # workloads.WORKLOADS, known before graphcm loads
SETUP_PROBES = 5
TAIL_BEYOND = 10
MIN_CALL_S = 1.0
MAX_REPEATS = 15
TAIL_PERCENTILES = (90.0, 99.0, 99.9, 99.99)


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true", help="tiny inputs, for selftest.py")
    # internal: build the inputs in the given directory and exit (set-up timing)
    ap.add_argument("--setup-probe", type=Path, help=argparse.SUPPRESS)
    return ap.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "graphcm" / "__init__.py").is_file():
        print(f"perfbench: no graphcm package under {SRC}; run from a graphcm source checkout", file=sys.stderr)
        return 2
    if args.setup_probe is not None:
        return setup_probe(args)
    sys.path.insert(0, str(SRC))
    import workloads

    cls = workloads.WORKLOADS[args.workload]
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as tmp:
        workdir = Path(tmp)
        if args.trace:
            detail, metrics, attempted, failures = traced_run(args, cls, workdir)
        else:
            detail, metrics, attempted, failures = timed_run(args, cls, workdir)

    detail["failures"] = failures[:20]
    detail["meta"] = metadata(args.seed)
    result = {"correct": not failures, "attempted": attempted, "failed": len(failures), "metrics": metrics}
    print(json.dumps(detail))
    print(json.dumps(result))
    return 0


# -- passes ------------------------------------------------------------------------


def run_pass(wl, sampler, tracer=None):
    """One cold pass under the speed sampler.  Returns (raw wall seconds,
    normalised wall seconds, normalised per-call seconds, [(label, result)]);
    the sampler's handler time is taken out of every interval first.

    For a workload whose calls are independent (``repeat_short``), an
    untraced pass times each call again until MIN_CALL_S of it has run, and
    takes the median: sub-second machine noise is too fast for the sampler
    to follow.  The repeats are not part of the pass's wall time."""
    import workloads

    workloads.clear_caches()
    repeat = wl.repeat_short and tracer is None
    clock = time.perf_counter
    t0, spent0 = clock(), sampler.spent
    calls = wl.items()
    spans, results = [], []
    repeated = 0.0
    for i, (label, call) in enumerate(calls):
        if tracer is not None:
            tracer.current_item = i
        runs = []
        while True:
            s, spent = clock(), sampler.spent
            out = call()
            runs.append((s, clock(), sampler.spent - spent))
            if not repeat or len(runs) == MAX_REPEATS or sum(e - s for s, e, _ in runs) >= MIN_CALL_S:
                break
        repeated += sum(e - s - h for s, e, h in runs[1:])
        spans.append(runs)
        results.append((label, out))
    t1 = clock()
    raw = t1 - t0 - (sampler.spent - spent0) - repeated
    window = speed.INTERVAL_S * speed.MIN_SAMPLES / 2
    times = [
        statistics.median((e - s - h) * sampler.factor(s - window, e + window) for s, e, h in runs) for runs in spans
    ]
    return raw, raw * sampler.factor(t0, t1), times, results


def check(wl, results):
    attempted, failures = 0, []
    for label, out in results:
        n, bad = wl.check(label, out)
        attempted += n
        failures += bad
    return attempted, failures


def setup_probe(args) -> int:
    """Child side of setup_seconds: import graphcm, build the inputs, and
    report the machine speed on this process's CPU around that work."""
    t0 = time.perf_counter()
    before = speed.factor_now()
    probing = time.perf_counter() - t0
    sys.path.insert(0, str(SRC))
    import workloads

    workloads.WORKLOADS[args.workload](args.seed, args.setup_probe, args.smoke)
    t1 = time.perf_counter()
    after = speed.factor_now()
    probing += time.perf_counter() - t1
    print(json.dumps({"factor": (before + after) / 2, "probe_s": probing}))
    return 0


def setup_seconds(args, workdir) -> list:
    """Wall time of SETUP_PROBES fresh processes that import graphcm and
    build this workload's inputs, less the time they spend probing the
    machine speed, normalised by that speed."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload, "--seed", str(args.seed)]
    cmd += ["--seconds", "0", "--setup-probe", str(workdir)] + (["--smoke"] if args.smoke else [])
    out = []
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        child = subprocess.run(cmd, check=True, capture_output=True, text=True)
        elapsed = time.perf_counter() - t0
        report = json.loads(child.stdout.splitlines()[-1])
        out.append((elapsed - report["probe_s"]) * report["factor"])
    return out


def tail(values):
    """(value, percentile, calls beyond it): the highest of the percentiles
    90, 99, 99.9, ... with at least TAIL_BEYOND calls beyond it, by nearest
    rank; the slowest call when even p90 has fewer."""
    ordered = sorted(values)
    n = len(ordered)
    best = None
    for pct in TAIL_PERCENTILES:
        rank = math.ceil(pct / 100 * n)
        if n - rank < TAIL_BEYOND:
            break
        best = (ordered[rank - 1], pct, n - rank)
    return best or (ordered[-1], 100.0, 0)


def timed_run(args, cls, workdir):
    setups = setup_seconds(args, workdir)
    wl = cls(args.seed, workdir, args.smoke)
    raw_walls, walls, columns = [], [], []
    attempted, failures = 0, []
    start = time.perf_counter()
    with speed.SpeedSampler() as sampler:
        while True:
            raw, wall, times, results = run_pass(wl, sampler)
            n, bad = check(wl, results)
            attempted += n
            failures += bad
            raw_walls.append(raw)
            walls.append(wall)
            columns.append(times)
            # stop once another pass would end more than half a pass past the budget
            if time.perf_counter() - start + 0.5 * raw >= args.seconds:
                break
    per_call = [statistics.median(col) for col in zip(*columns)]
    tail_s, tail_pct, beyond = tail(per_call)
    metrics = {
        "setup_s": {"value": statistics.median(setups), "unit": "s"},
        "wall_s": {"value": statistics.median(walls), "unit": "s"},
        "item_p50_ms": {"value": statistics.median(per_call) * 1e3, "unit": "ms"},
        "item_tail_ms": {"value": tail_s * 1e3, "unit": "ms"},
        "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "unit": "MB"},
    }
    detail = {
        "workload": args.workload,
        "passes": len(walls),
        "pass_wall_s": walls,
        "pass_wall_raw_s": raw_walls,
        "probe_samples": len(sampler.samples),
        "setup_samples_s": setups,
        "items": len(per_call),
        "item_tail": {"percentile": tail_pct, "samples": len(per_call), "beyond": beyond},
    }
    return detail, metrics, attempted, failures


def traced_run(args, cls, workdir):
    from spans import Tracer, per_layer_metrics

    wl = cls(args.seed, workdir, args.smoke)
    with speed.SpeedSampler() as sampler:
        _, untraced_wall, _, results = run_pass(wl, sampler)
        attempted, failures = check(wl, results)
        # span times leave out the sampler's handler, as pass times do
        tracer = Tracer(clock=lambda: time.perf_counter() - sampler.spent)
        tracer.install()
        try:
            traced_raw, traced_wall, _, results = run_pass(wl, sampler, tracer)
        finally:
            tracer.uninstall()
    n, bad = check(wl, results)
    metrics = per_layer_metrics(tracer, traced_raw, traced_wall - untraced_wall)
    out_dir = ROOT / ".perfbench_out"
    out_dir.mkdir(exist_ok=True)
    span_file = out_dir / f"spans-{args.workload}-{args.seed}.jsonl.gz"
    tracer.write(span_file)
    detail = {
        "workload": args.workload,
        "untraced_wall_s": untraced_wall,
        "traced_wall_s": traced_wall,
        "spans": len(tracer.name),
        "span_file": str(span_file.relative_to(ROOT)),
    }
    return detail, metrics, attempted + n, failures + bad


# -- metadata ----------------------------------------------------------------------


def metadata(seed: int) -> dict:
    import numpy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "git_commit": _git_commit(),
        "seed": seed,
        "src_graphcm_lines": sum(len(p.read_text().splitlines()) for p in (SRC / "graphcm").rglob("*.py")),
    }


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="ascii", errors="replace") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.machine()


def _git_commit() -> str:
    # stop git from finding a repository above the checkout
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, env=env, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


if __name__ == "__main__":
    sys.exit(main())
