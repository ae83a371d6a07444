"""A fixed piece of work that measures how fast the host runs right now.

The host's speed drifts by a quarter over tens of minutes, and process CPU
time drifts with it, so neither wall nor CPU seconds of dtq's work can be
compared between runs made at different times.  Each unit of work therefore
also times this probe, which calls no dtq code and whose work never changes.
Its mix follows dtq's: Python loops over numpy scalars with heap and RNG
calls (the simulators), CSV text written and parsed (trace export and
import) and whole-array numpy passes over 10^6 elements (paths and
estimators).
"""
from __future__ import annotations

import csv
import heapq
import io
import time


def probe(np) -> float:
    """Seconds the probe took: about 0.4 s on a 2-core x86_64 host."""
    begin = time.perf_counter()
    rng = np.random.default_rng(12345)
    arrivals = np.cumsum(rng.integers(0, 3, 40_000))
    services = rng.integers(1, 6, 40_000)

    # a two-server FIFO with random assignment, as engine._fifo_multi
    free = [(0, 0), (0, 1)]
    total = 0
    for a, s in zip(arrivals, services):
        idle = [f for f in free if f[0] <= a]
        pick = idle[rng.integers(len(idle))] if idle else free[0]
        free.remove(pick)
        heapq.heapify(free)
        start = max(a, pick[0])
        total += int(start)
        heapq.heappush(free, (start + int(s), pick[1]))

    # a slot loop over Python lists, as engine.simulate_finite_population
    u = rng.random(150_001)
    entered, leaves, gone = [], [], 0
    for t in range(1, 150_001):
        while gone < len(leaves) and leaves[gone] <= t - 1:
            gone += 1
        idle = 5 - (len(entered) - gone)
        if idle > 0 and u[t] < idle * 0.05:
            entered.append(t)
            leaves.append(max(t, leaves[-1] if leaves else 0) + 2)
    total += len(entered)

    # CSV rows written and parsed, as engine.write_trace_csv / read_trace_csv
    buf = io.StringIO()
    writer = csv.writer(buf)
    for k in range(30_000):
        writer.writerow([k + 1, int(arrivals[k]), int(services[k]), k, k + 3])
    buf.seek(0)
    total += sum(int(row[1]) for row in csv.reader(buf))

    # whole-array passes, as the queue paths and estimators
    x = rng.random(1_000_000)
    for _ in range(6):
        path = np.cumsum(x > 0.5)
        total += int(np.count_nonzero(np.diff(path) > 0)) + int(np.argsort(x[:100_000])[0])
    a = np.cumsum(rng.integers(0, 2, 1_000_000))
    for _ in range(2):
        d = a + rng.integers(1, 4, a.size)
        grid = np.arange(a[-1])
        n = np.searchsorted(a, grid, side="right") - np.searchsorted(d, grid, side="right")
        total += int(np.bincount(np.minimum(n, 50)).sum())

    if total < 0:  # every result is consumed, so that none is skipped
        raise AssertionError(total)
    return time.perf_counter() - begin
