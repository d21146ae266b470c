"""Machine-speed sampling, to take a shared host's speed swings out of timings.

On a small shared virtual machine the same pure-Python work can run 20-60%
slower for tens of seconds at a time while neighbours are busy.  The guest
sees no steal time, so neither wall clock nor CPU time can tell.  While a
workload runs, a ``SpeedSampler`` times a fixed probe from a SIGALRM
handler every ``INTERVAL_S`` seconds.  The probe is a frozen copy of the
kind of loop graphcm spends its time in (colour refinement and cycle DFS
over bitmask adjacency), so it slows down with the workload, and it does
not change when graphcm does.

``factor(t0, t1)`` is ``REF_PROBE_S`` over the mean probe time seen in that
interval.  A measured time multiplied by it is the time the same work takes
with the machine at the reference speed; the handler's own time is counted
in ``spent`` so that callers subtract it first.
"""

from __future__ import annotations

import bisect
import random
import signal
import statistics
import time

# Probe time at the reference speed: its time on a quiet 2-vCPU Intel Xeon
# (KVM) guest running CPython 3.11.
REF_PROBE_S = 0.0011
INTERVAL_S = 0.2
MIN_SAMPLES = 5


def _probe_graph(n=11, p=0.4, seed=5):
    rng = random.Random(seed)
    adj = [0] * n
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < p:
                adj[i] |= 1 << j
                adj[j] |= 1 << i
    return tuple(adj)


_ADJ = _probe_graph()


def _bits(mask):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _refine(adj, colors):
    n = len(adj)
    while True:
        sigs = [(colors[v], tuple(sorted(colors[w] for w in _bits(adj[v])))) for v in range(n)]
        rank = {s: i for i, s in enumerate(sorted(set(sigs)))}
        new = [rank[s] for s in sigs]
        if new == colors:
            return new
        colors = new


def _count_cycles(adj, length):
    count = 0

    def dfs(start, path, used):
        nonlocal count
        u = path[-1]
        if len(path) == length:
            count += adj[u] >> start & 1 and path[1] < path[-1]
            return
        for v in _bits(adj[u] & ~used):
            if v > start:
                path.append(v)
                dfs(start, path, used | 1 << v)
                path.pop()

    for a in range(len(adj)):
        dfs(a, [a], 1 << a)
    return count


def probe() -> int:
    """Fixed work: individualise-and-refine from every vertex of an
    11-vertex graph, then count its 4-cycles."""
    n = len(_ADJ)
    total = 0
    for v in range(n):
        colors = [0] * n
        colors[v] = 1
        total += sum(_refine(_ADJ, colors))
    return total + _count_cycles(_ADJ, 4)


def time_probe() -> float:
    """Seconds for one probe, run once untimed first so that it is timed
    with its code and data in cache, as the workload's loops are."""
    probe()
    t = time.perf_counter()
    probe()
    return time.perf_counter() - t


def _factor(probe_times) -> float:
    return REF_PROBE_S / statistics.fmean(probe_times)


def factor_now(count: int = MIN_SAMPLES) -> float:
    return _factor([time_probe() for _ in range(count)])


class SpeedSampler:
    """Samples the probe from a timer signal between ``with`` entry and exit."""

    def __init__(self):
        self.times = []  # perf_counter at each sample
        self.samples = []  # probe seconds
        self.spent = 0.0  # seconds spent inside the handler
        self._old = None

    def _handler(self, signum, frame):
        t0 = time.perf_counter()
        d = time_probe()
        self.times.append(t0)
        self.samples.append(d)
        self.spent += time.perf_counter() - t0

    def __enter__(self):
        self._old = signal.signal(signal.SIGALRM, self._handler)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._old)

    def factor(self, t0: float, t1: float) -> float:
        """Speed factor over [t0, t1], widened to the MIN_SAMPLES nearest
        samples when the interval holds fewer."""
        lo = bisect.bisect_left(self.times, t0)
        hi = bisect.bisect_right(self.times, t1)
        if hi - lo < MIN_SAMPLES:
            if len(self.samples) < MIN_SAMPLES:
                return factor_now()
            mid = (lo + hi) // 2
            lo = max(0, min(mid - MIN_SAMPLES // 2, len(self.samples) - MIN_SAMPLES))
            hi = lo + MIN_SAMPLES
        return _factor(self.samples[lo:hi])

