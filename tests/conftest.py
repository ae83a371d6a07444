"""Shared fixtures and independent oracles for the test suite.

The micro-time oracle here models the slot-edge neighborhood with exact
rational positions instead of the package's integer grid: observation
positions sit on fixed fractions around the edge and scheduled events
strictly inside the gaps between them.  Everything derived from it is
an independent check on the production encoding.
"""
import csv
import heapq
import importlib
import math
import sys
import tracemalloc
import warnings
from fractions import Fraction
from functools import cache
from types import SimpleNamespace

import numpy as np
import pytest

from dtq import engine as engine_mod
from dtq.engine import (
    Bernoulli,
    DiscreteDist,
    External,
    Fifo,
    FinitePopulation,
    InfiniteServer,
    Trace,
    build_trace,
    run_discipline,
)
from dtq.timebase import EPOCHS, Phase, SchedulingRule, span_shift


def _import_unrewritten(name):
    """Import library module ``name`` past pytest's assertion rewriter, which
    re-parses all of hypothesis (it ships a pytest plugin) on each run with
    no bytecode cache: ~1 s of tier-1 on a 2-core host.  Tests still rewrite."""
    rewriters = [f for f in sys.meta_path if type(f).__module__ == "_pytest.assertion.rewrite"]
    sys.meta_path[:] = [f for f in sys.meta_path if f not in rewriters]
    try:
        importlib.import_module(name)
    finally:
        sys.meta_path[:0] = rewriters


_import_unrewritten("hypothesis.strategies")

R = SchedulingRule

# The paper's three phase tables, written out independently of the
# package: the scheduled arrival phase, the scheduled departure (slot
# offset, phase), and the sampling phase per rule, one entry per epoch in
# EPOCHS order.  The rational oracle below reads only these.
ARRIVAL_PHASES = {
    R.EAS: Phase.P,
    R.LAS_IA: Phase.M,
    R.LAS_DA: Phase.M,
    R.LA_AF: Phase.MM,
    R.LA_DF: Phase.M,
}

DEPARTURE_SHIFTS = {
    R.EAS: (0, Phase.M),
    R.LAS_IA: (-1, Phase.P),
    R.LAS_DA: (0, Phase.P),
    R.LA_AF: (0, Phase.M),
    R.LA_DF: (0, Phase.MM),
}

EPOCH_PHASES = {
    R.EAS: (Phase.EDGE, Phase.CENTER, Phase.EDGE, Phase.P, Phase.M, Phase.EDGE),
    R.LAS_IA: (Phase.EDGE, Phase.CENTER, Phase.M, Phase.EDGE, Phase.EDGE, Phase.P),
    R.LAS_DA: (Phase.EDGE, Phase.CENTER, Phase.M, Phase.EDGE, Phase.EDGE, Phase.P),
    R.LA_AF: (Phase.EDGE, Phase.CENTER, Phase.MM, Phase.M, Phase.M, Phase.EDGE),
    R.LA_DF: (Phase.EDGE, Phase.CENTER, Phase.M, Phase.EDGE, Phase.MM, Phase.M),
}


def sampling_phase(rule, epoch) -> Phase:
    return EPOCH_PHASES[rule][EPOCHS.index(epoch)]


EPS = Fraction(1, 16)

_POINT_OFFSET = {
    Phase.CENTER: Fraction(-1, 2),
    Phase.MM: -2 * EPS,
    Phase.M: -EPS,
    Phase.EDGE: Fraction(0),
    Phase.P: EPS,
}

# events live strictly inside the gap named by their tag:
# "+" in (edge, +), "-" in (-, edge), "--" in (--, -)
_EVENT_OFFSET = {
    Phase.P: EPS / 2,
    Phase.M: -EPS / 2,
    Phase.MM: -3 * EPS / 2,
    Phase.EDGE: Fraction(0),
}


def point_pos(slot, phase) -> Fraction:
    return slot + _POINT_OFFSET[phase]


def event_pos(slot, phase) -> Fraction:
    return slot + _EVENT_OFFSET[phase]


def oracle_observed_wait(rule, epoch, a, d) -> int:
    """Direct indicator sum over rational positions."""
    a_ev = event_pos(a, ARRIVAL_PHASES[rule])
    delta, dphase = DEPARTURE_SHIFTS[rule]
    d_ev = event_pos(d + delta, dphase)
    u_phase = sampling_phase(rule, epoch)
    total = 0
    for tau in range(1, d + 3):
        u = point_pos(tau, u_phase)
        if a_ev < u <= d_ev:
            total += 1
    return total


def oracle_observed_path(trace, rule, epoch) -> np.ndarray:
    """Observed number-in-system by direct per-customer comparison: a
    customer counts at slot tau when its arrival event lies before the
    sampling point of tau and its departure event not after it.  Only the
    slots floor(arrival event)..ceil(departure event) are visited: the
    sampling point of tau lies in [tau - 1/2, tau + EPS], and an event
    within 2 EPS of its slot, so no other point falls between the two."""
    u_phase = sampling_phase(rule, epoch)
    delta, dphase = DEPARTURE_SHIFTS[rule]
    a_ph = ARRIVAL_PHASES[rule]
    out = np.zeros(trace.horizon + 1, dtype=np.int64)
    for a, d in zip(trace.arrivals.tolist(), trace.departures.tolist()):
        a_ev, d_ev = event_pos(a, a_ph), event_pos(d + delta, dphase)
        for tau in range(max(1, math.floor(a_ev)), min(trace.horizon, math.ceil(d_ev)) + 1):
            if a_ev < point_pos(tau, u_phase) <= d_ev:
                out[tau] += 1
    return out


def oracle_shift_path(trace, s0, e0) -> np.ndarray:
    """Number of customers seen at slot index j = 0..horizon when each is
    seen at A + s0 .. D + e0, from two bincount difference arrays, one
    entry per customer span."""
    T = trace.horizon
    lo = np.clip(trace.arrivals + s0, 0, T + 1)
    hi = np.clip(trace.departures + e0 + 1, 0, T + 1)
    delta = np.bincount(lo, minlength=T + 2) - np.bincount(hi, minlength=T + 2)
    return np.cumsum(delta[: T + 1])


def oracle_queue_path(trace, convention="strict-left") -> np.ndarray:
    """Number-in-system path: A < j <= D ("strict-left") or A <= j < D."""
    return oracle_shift_path(trace, *{"strict-left": (1, 0), "strict-right": (0, -1)}[convention])


def observed_shift_path(trace, rule, epoch) -> np.ndarray:
    """The observed number-in-system of a rule/epoch combo at slot index
    j = 0..horizon: the oracle path of the combo's production span shift,
    entry 0 set to 0 as no sampling point lies at slot 0.  Not an oracle of
    the shift itself: :func:`oracle_observed_path` is that."""
    path = oracle_shift_path(trace, *span_shift(rule, epoch))
    path[0] = 0
    return path


def oracle_cycles(path, arrivals=None) -> SimpleNamespace:
    """The complete busy cycles of a number-in-system path that starts
    empty, as per-cycle int64 arrays: a cycle starts (U) at the first
    nonempty index after an empty one and clears (V) at the first empty
    index after a busy run, and its lengths are C = U_{k+1} - U_k,
    B = V - U and I = C - B.  Given the arrival slots, E counts the
    arrivals in slots [U_k - 1, U_{k+1} - 1), a cycle's customers; else E
    is None."""
    occ = np.asarray(path) >= 1
    if occ[0]:
        raise ValueError("path must start with an empty system")
    flips = np.flatnonzero(occ[1:] != occ[:-1]) + 1
    starts, clears = flips[~occ[flips - 1]], flips[occ[flips - 1]]
    m = max(len(starts) - 1, 0)
    U = starts[: m + 1].astype(np.int64) if m else np.empty(0, dtype=np.int64)
    V = clears[:m].astype(np.int64)
    E = None
    if arrivals is not None:
        counts = np.searchsorted(arrivals, U - 1, side="left")
        E = (counts[1:] - counts[:-1]).astype(np.int64)
    return SimpleNamespace(U=U[:-1], V=V, C=U[1:] - U[:-1], B=V - U[:-1], I=U[1:] - V, E=E, n_cycles=m)


def oracle_state_rates(trace, n=0):
    """(pi_n, alpha_n, alpha) on the strict-left queue path: the fraction
    of slots 1..T in state n, the arrivals in slots <= T that find state
    n per slot in state n, where an arrival in slot a finds the path's
    entry a, and the arrivals in slots <= T per slot; None when no slot
    1..T is in state n.  At n = 0 these are the empty-state rates
    (pi0, alpha0, alpha)."""
    T = trace.horizon
    path = oracle_queue_path(trace)
    slots = int(np.count_nonzero(path[1:] == n))
    if not slots:
        return None
    found = path[trace.arrivals[trace.arrivals <= T]]
    return slots / T, int(np.count_nonzero(found == n)) / slots, len(found) / T


def oracle_sandwich(trace):
    """The three sums of the basic inequality at every slot index
    0..horizon, int64: the waits of the customers arrived by it, the
    cumulative number in system, and the waits of those departed by it."""
    T = trace.horizon

    def waits_by(slots):
        seen = slots <= T
        waits = np.bincount(slots[seen], weights=trace.waits[seen], minlength=T + 1)
        return np.cumsum(waits.astype(np.int64))

    return waits_by(trace.arrivals), np.cumsum(oracle_queue_path(trace)), waits_by(trace.departures)


def oracle_queue_length(trace, tau, convention="strict-left") -> int:
    a, d = trace.arrivals, trace.departures
    if convention == "strict-left":
        return int(np.count_nonzero((a < tau) & (tau <= d)))
    return int(np.count_nonzero((a <= tau) & (tau < d)))


def oracle_workload_lindley(trace) -> np.ndarray:
    """Workload via the slot recursion V(t+1) = max(V(t) + new work - 1, 0)."""
    T = trace.horizon
    incoming = np.zeros(T + 2, dtype=np.int64)
    keep = trace.arrivals <= T
    np.add.at(incoming, trace.arrivals[keep], trace.services[keep])
    v = np.zeros(T + 1, dtype=np.int64)
    for t in range(T):
        v[t + 1] = max(v[t] + incoming[t] - 1, 0)
    return v


def oracle_indicator_rate(trace, k, tau) -> float:
    """Per-slot indicator cost rate: one unit while in the system."""
    return 1.0 if trace.arrivals[k] < tau <= trace.departures[k] else 0.0


def oracle_remaining_work_rate(trace, k, tau) -> float:
    """Per-slot remaining work: full service while waiting, then the
    slots still to serve."""
    a = int(trace.arrivals[k])
    b = int(trace.starts[k])
    d = int(trace.departures[k])
    if a < tau <= b:
        return float(trace.services[k])
    if b < tau <= d:
        return float(d - tau)
    return 0.0


def oracle_cost_profile(trace, rate):
    """Total cost rate at slot indices 0..horizon and each customer's total
    over its window (A, D], both summed slot by slot from a per-slot rate."""
    T = trace.horizon
    path = np.zeros(T + 1)
    totals = np.zeros(trace.n)
    # the rate reads the columns as lists, which index faster than arrays
    columns = SimpleNamespace(
        **{name: getattr(trace, name).tolist() for name in ("arrivals", "services", "starts", "departures")}
    )
    for k in range(trace.n):
        for tau in range(columns.arrivals[k] + 1, columns.departures[k] + 1):
            r = rate(columns, k, tau)
            totals[k] += r
            if tau <= T:
                path[tau] += r
    return path, totals


def oracle_fifo_multi(arrivals, services, c, assignment, rng):
    """FIFO with c servers, one heap step per customer on numpy scalars;
    "random" rescans the heap for idle servers and draws with
    ``rng.integers``, so only its start slots are comparable; see
    :func:`oracle_fifo_servers` for the labels."""
    starts = np.empty(len(arrivals), dtype=np.int64)
    chosen = np.empty(len(arrivals), dtype=np.int64)
    free = [(0, i) for i in range(c)]  # (free-at slot, server index)
    heapq.heapify(free)
    for k, (a, s) in enumerate(zip(arrivals, services)):
        if assignment == "random":
            idle = [f for f in free if f[0] <= a]
            if idle:
                pick = idle[rng.integers(len(idle))]
                free.remove(pick)
                heapq.heapify(free)
            else:
                pick = heapq.heappop(free)
        else:
            pick = heapq.heappop(free)
        t_free, i = pick
        start = max(a, t_free)
        starts[k] = start
        chosen[k] = i
        heapq.heappush(free, (start + int(s), i))
    return starts, chosen


_BLOCK = 1 << 16  # customers converted to plain ints per block


def oracle_fifo_servers(arrivals, services, c, assignment, rng):
    """Start slots and servers for FIFO with c servers, arrivals nondecreasing.

    "lowest" takes the server that frees up first (lowest index on ties).
    "random" picks uniformly among the servers idle at the arrival: a server
    leaves the busy heap for the idle list once it is free by the arrival
    slot, which stays valid because later arrivals come no earlier.  The
    start slot never depends on which idle server is picked.

    Starts and labels in one pass, where the engine splits them into
    :func:`dtq.engine._fifo_starts` and a label replay.  It draws its
    uniforms as ``rng.random`` per block, the stream of one
    ``rng.random(n)``, so "random" labels compare bit for bit.
    """
    starts = np.empty(len(arrivals), dtype=np.int64)
    chosen = np.empty(len(arrivals), dtype=np.int64)
    heap = [(0, i) for i in range(c)]  # (free-at slot, server index)
    idle: list[int] = []
    pick_random = assignment == "random"
    for lo in range(0, len(arrivals), _BLOCK):
        a_blk = arrivals[lo : lo + _BLOCK].tolist()
        s_blk = services[lo : lo + _BLOCK].tolist()
        st_blk: list[int] = []
        ch_blk: list[int] = []
        if pick_random:
            u_blk = rng.random(len(a_blk)).tolist()
            for a, s, u in zip(a_blk, s_blk, u_blk):
                while heap and heap[0][0] <= a:
                    idle.append(heapq.heappop(heap)[1])
                if idle:
                    j = int(u * len(idle))
                    i = idle[j]
                    idle[j] = idle[-1]
                    idle.pop()
                    start = a
                else:
                    start, i = heapq.heappop(heap)
                heapq.heappush(heap, (start + s, i))
                st_blk.append(start)
                ch_blk.append(i)
        else:
            for a, s in zip(a_blk, s_blk):
                t_free, i = heap[0]
                start = a if a > t_free else t_free
                heapq.heapreplace(heap, (start + s, i))
                st_blk.append(start)
                ch_blk.append(i)
        starts[lo : lo + len(st_blk)] = st_blk
        chosen[lo : lo + len(ch_blk)] = ch_blk
    return starts, chosen


def oracle_finite_population(n_sources, alpha, service, seed, horizon):
    """Finite-population path stepped slot by slot over the same random
    streams as :func:`dtq.engine.simulate_finite_population`."""
    spec = FinitePopulation(n_sources, alpha)
    rng = np.random.default_rng(seed)
    u = rng.random(horizon + 1).tolist()
    svc_rng = np.random.default_rng(np.random.SeedSequence(seed).spawn(1)[0])

    arrivals: list[int] = []
    services: list[int] = []
    departures: list[int] = []
    svc_buf: np.ndarray = np.empty(0, dtype=np.int64)
    svc_used = 0
    dep_ptr = 0  # departures with D <= t-1, FIFO keeps them sorted
    last_free = 0  # slot at which the single server frees up
    for t in range(1, horizon + 1):
        while dep_ptr < len(departures) and departures[dep_ptr] <= t - 1:
            dep_ptr += 1
        n_in_system = len(arrivals) - dep_ptr  # counts A <= t-1 minus D <= t-1
        idle = spec.n_sources - n_in_system
        if idle <= 0:
            continue
        if u[t] < idle * alpha:
            if svc_used >= len(svc_buf):
                svc_buf = service.sample(svc_rng, 1024)
                svc_used = 0
            s = int(svc_buf[svc_used])
            svc_used += 1
            start = max(t, last_free)
            arrivals.append(t)
            services.append(s)
            departures.append(start + s)
            last_free = start + s
    arr = np.asarray(arrivals, dtype=np.int64)
    svc = np.asarray(services, dtype=np.int64)
    dep = np.asarray(departures, dtype=np.int64)
    return Trace(arr, svc, dep - svc, dep, horizon, np.zeros(len(arr), dtype=np.int64))


def oracle_trace_csv(trace, path):
    """The row-by-row csv.writer encoding of a trace file."""
    header = ["k", "A", "S", "Astart", "D"]
    cols = [trace.arrivals, trace.services, trace.starts, trace.departures]
    if trace.servers is not None:
        header.append("server")
        cols.append(trace.servers)
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        for k in range(trace.n):
            w.writerow([k + 1] + [int(c[k]) for c in cols])


_TRACE_HEADERS = (["k", "A", "S", "Astart", "D"], ["k", "A", "S", "Astart", "D", "server"])
_LOADTXT_ROWS = 1 << 14  # rows per np.loadtxt call


def oracle_read_trace_csv(path, horizon=None) -> Trace:
    """The ``np.loadtxt`` trace reader, kept as the oracle of the byte
    decoder: it parses a fixed number of rows per call in text mode, which
    reads LF, CRLF and CR line ends and skips blank lines, and joins the
    chunks once at the end."""
    with open(path) as fh:
        header = fh.readline().rstrip("\r\n").split(",")
        if header not in _TRACE_HEADERS:
            raise ValueError(f"{path}: {','.join(header)!r} is not a trace header")
        chunks = [np.empty((0, len(header)), dtype=np.int64)]
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)  # the last chunk may have no rows
            while True:  # each call resumes at the next row of fh and skips blank lines
                rows = np.loadtxt(fh, delimiter=",", dtype=np.int64, ndmin=2, max_rows=_LOADTXT_ROWS)
                if not rows.size:
                    break
                if rows.shape[1] != len(header):
                    raise ValueError(f"{path}: a row has {rows.shape[1]} values, the header {len(header)}")
                chunks.append(rows)
                if len(rows) < _LOADTXT_ROWS:
                    break
    cols = np.concatenate(chunks).T[1:]
    n = cols.shape[1]
    deps = cols[3]
    T = horizon if horizon is not None else (int(deps.max()) if n else 1)
    servers = cols[4] if len(cols) == 5 else None
    return Trace(cols[0], cols[1], cols[2], deps, T, servers)


@pytest.fixture()
def engine_block(request, monkeypatch):
    """One block size of :mod:`dtq.engine` set for the test from its (name,
    size) parameter: ``_SLOT_BLOCK``, the slots, customers or file bytes of
    every blocked numpy pass, ``_LOOP_BLOCK``, the customers per block of
    every Python loop that walks all customers, ``_LANE``, the customers
    per lane of the FIFO-2 wavefront, or ``_CSV_CHUNK``, the rows per
    trace-file write; returns the size.  Parametrize it through :func:`engine_blocks`."""
    name, size = request.param
    monkeypatch.setattr(engine_mod, name, size)
    return size


def engine_blocks(name, *sizes):
    """Run a test that takes ``engine_block`` once per block size of
    :mod:`dtq.engine`'s ``name``, the size as the test id."""
    return pytest.mark.parametrize(
        "engine_block", [(name, size) for size in sizes], indirect=True, ids=map(str, sizes)
    )


@pytest.fixture()
def label_replays(monkeypatch):
    """Every server-label replay run while the test lasts, one entry per
    call of :func:`dtq.engine._fifo_labels`."""
    calls = []
    replay = engine_mod._fifo_labels

    def counted(*args, **kwargs):
        calls.append(args)
        return replay(*args, **kwargs)

    monkeypatch.setattr(engine_mod, "_fifo_labels", counted)
    return calls


def small_random_traces(seed, count):
    """Fixed-seed small traces for exact sweeps: FIFO with 1-3 servers,
    infinite server and external departures in turn, horizons below 60,
    arrivals up to two slots past the horizon and, in about one trace in
    twenty, from slot 0."""
    rng = np.random.default_rng(seed)
    for case in range(count):
        T = int(rng.integers(1, 60))
        n = int(rng.integers(0, T + 3))
        arrivals = np.sort(rng.integers(int(rng.random() >= 0.05), T + 3, size=n))
        services = rng.integers(1, 9, size=n)
        if case % 3 == 0:
            disc = Fifo(int(rng.integers(1, 4)))
        elif case % 3 == 1:
            disc = InfiniteServer()
        else:
            disc = External(tuple((arrivals + services).tolist()))
        yield run_discipline(arrivals, services, disc, horizon=T)


@cache
def _reference_columns():
    tr = build_trace(Bernoulli(0.3), DiscreteDist.geometric(0.5), Fifo(1), 42, 1_000_000)
    columns = tr.arrivals, tr.services, tr.starts, tr.departures, tr.servers
    for column in columns:
        column.flags.writeable = False
    return columns, tr.horizon


def reference_trace():
    """ROADMAP's reference path: Bernoulli(0.3) arrivals, geometric(0.5)
    services, one FIFO server, 10^6 slots, seed 42 (~3·10^5 customers).
    Each call returns a fresh trace, with nothing memoized, over columns
    simulated once per session."""
    (a, s, b, d, servers), horizon = _reference_columns()
    return Trace(a, s, b, d, horizon, servers)


def traced_peak_mb(fn, *args) -> float:
    """Peak of the memory ``fn(*args)`` allocates, in MB; numpy buffers are traced.

    A no-op profile hook runs alongside: it makes CPython 3.11 keep a line
    array per code object it sees, so tracemalloc finds each allocation's
    line number by one lookup instead of a scan of the line table.  That
    makes Python-heavy callees, numpy's ``loadtxt`` in the trace reader's
    oracle say, six times faster under tracing; the hook's
    own allocations are transient, ~0.01 MB at a peak.  A profiler already
    installed (cProfile, say) has the same effect and is left in place.
    """
    hooked = sys.getprofile() is None
    if hooked:
        sys.setprofile(lambda frame, event, arg: None)
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()
        if hooked:
            sys.setprofile(None)


@pytest.fixture(scope="session")
def bgeom1_trace():
    """Medium reference path: Bernoulli(0.3) arrivals, geometric(0.5) services."""
    return build_trace(Bernoulli(0.3), DiscreteDist.geometric(0.5), Fifo(1), 7, 200_000)


@pytest.fixture(scope="session")
def small_bgeom1_trace():
    return build_trace(Bernoulli(0.3), DiscreteDist.geometric(0.5), Fifo(1), 3, 10_000)


def prefix_trace(trace, slots):
    """The customers arriving by ``slots`` over a horizon of ``slots``, so
    the ones still in the system depart after the horizon."""
    keep = trace.arrivals <= slots
    return Trace(
        trace.arrivals[keep], trace.services[keep], trace.starts[keep],
        trace.departures[keep], slots,
    )


@pytest.fixture()
def worked_example_trace():
    """Three customers: arrivals (1, 2, 5), departures (4, 5, 7)."""
    return run_discipline([1, 2, 5], None, External((4, 5, 7)), horizon=7)


@pytest.fixture()
def two_customer_trace():
    """Arrivals (1, 3) with services (5, 4) on one server, repeated once
    with period 10 so the first cycle closes."""
    arrivals = [1, 3, 11, 13]
    services = [5, 4, 5, 4]
    return run_discipline(arrivals, services, Fifo(1), horizon=21)
