"""Sample-path generation: input processes, service draws, and disciplines.

The engine produces one *actual* trace per model: integer arrival slots
A_k, service requirements S_k, service starts and departure slots.  The
five scheduling rules never change these integers; they are pure
micro-time shifts applied on top (see :mod:`dtq.timebase`).
"""
from __future__ import annotations

import bisect
import heapq
import itertools
from collections import deque
from dataclasses import dataclass
from functools import cached_property, partial
from typing import NamedTuple

import numpy as np

__all__ = [
    "DiscreteDist",
    "Bernoulli",
    "Renewal",
    "FinitePopulation",
    "Explicit",
    "Fifo",
    "InfiniteServer",
    "External",
    "Trace",
    "convention_shift",
    "gen_arrivals",
    "sample_services",
    "run_discipline",
    "simulate_finite_population",
    "build_trace",
    "write_trace_csv",
    "read_trace_csv",
]

_PROB_TOL = 1e-12
_TAIL_TOL = 1e-15
_BUCKETS = 1 << 12  # uniform buckets of DiscreteDist.sample's table, a power of two


# dtq's records are NamedTuples, not frozen dataclasses: every answer starts
# a fresh process, and a NamedTuple class costs ~0.1 ms to create against
# ~0.6 ms for a frozen dataclass, whose generated methods are compiled at
# import.  A record that validates is a NamedTuple of its fields and a
# subclass whose __new__ runs the checks.  Trace stays a dataclass: its
# _Labels field and _memo cache store into its __dict__, and its fields()
# are part of its contract.

class _DiscreteDistFields(NamedTuple):
    values: tuple[int, ...]
    probs: tuple[float, ...]


class DiscreteDist(_DiscreteDistFields):
    """A service-time or inter-arrival law: a pmf on 1, 2, ... slots.

    Unbounded laws (geometric) are truncated where the tail drops below
    1e-15 and renormalized, so stored masses always sum to one within
    1e-12 and sampling can use a plain inverse-CDF table.
    """

    # no __slots__: the cached _arrays table lives in the instance __dict__

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        vals = self.values
        if len(vals) == 0:
            raise ValueError("distribution needs at least one support point")
        if len(vals) != len(self.probs):
            raise ValueError("values and probs must have equal length")
        if any(v < 1 for v in vals):
            raise ValueError("support must be at least one slot")
        if any(vals[i] >= vals[i + 1] for i in range(len(vals) - 1)):
            raise ValueError("support must be strictly increasing")
        if any(not p >= 0 for p in self.probs):  # NaN is not >= 0 either
            raise ValueError("probabilities must be nonnegative")
        total = sum(self.probs)
        if abs(total - 1.0) > _PROB_TOL:
            raise ValueError(f"probabilities sum to {total!r}, expected 1")
        return self

    @classmethod
    def from_pmf(cls, pmf: dict[int, float]) -> "DiscreteDist":
        items = sorted((int(v), float(p)) for v, p in pmf.items() if p != 0.0)
        return cls(tuple(v for v, _ in items), tuple(p for _, p in items))

    @classmethod
    def point(cls, n: int) -> "DiscreteDist":
        return cls((int(n),), (1.0,))

    @classmethod
    def geometric(cls, p: float) -> "DiscreteDist":
        """Slots-to-success law P(n) = (1-p)^(n-1) p on n = 1, 2, ..."""
        if not 0.0 < p <= 1.0:
            raise ValueError(f"geometric parameter must be in (0, 1], got {p}")
        if p == 1.0:
            return cls.point(1)
        n_max = 1
        while (1.0 - p) ** n_max > _TAIL_TOL:
            n_max += 1
        ns = np.arange(1, n_max + 1)
        probs = (1.0 - p) ** (ns - 1) * p
        probs = probs / probs.sum()
        return cls(tuple(int(n) for n in ns), tuple(float(q) for q in probs))

    @cached_property
    def _arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The support, its cdf with the last point set to 1, and the
        bucket table of :meth:`sample`: per bucket [b, b + 1)/2^12 of the
        uniforms, the draw every uniform in it maps to, or 0 where a cdf
        point lies strictly inside the bucket and the draw depends on u."""
        vals = np.asarray(self.values, dtype=np.int64)
        cdf = np.cumsum(np.asarray(self.probs, dtype=float))
        cdf[-1] = 1.0
        edges = np.arange(_BUCKETS + 1) / _BUCKETS
        below = np.searchsorted(cdf, edges[:-1], side="right")  # cdf points <= b/2^12
        short = np.searchsorted(cdf, edges[1:], side="left")  # cdf points < (b+1)/2^12
        table = np.where(short > below, 0, vals[np.minimum(below, len(vals) - 1)])
        return vals, cdf, table

    def mean(self) -> float:
        return float(sum(v * p for v, p in zip(self.values, self.probs)))

    def pgf(self, z: float) -> float:
        """Evaluate sum_n P(n) z^n for z in [0, 1]."""
        if not 0.0 <= z <= 1.0:
            raise ValueError(f"pgf argument must be in [0, 1], got {z}")
        return float(sum(p * z**v for v, p in zip(self.values, self.probs)))

    def sample(self, rng: np.random.Generator, n: int) -> np.ndarray:
        """Inverse-CDF sampling: n draws as an int64 array, the values at
        ``searchsorted(cdf, u, "right")``, clipped to the last point, of
        the uniforms u of ``rng.random(n)``.

        The uniforms come in blocks of :func:`_uniform_blocks`, and each
        is first looked up in a table by its bucket b = floor(u·2^12).
        That product is exact, u being a multiple of 2^-53 below 1, so u
        lies in [b, b + 1)/2^12.  Where no cdf point lies strictly inside
        that interval, the count of cdf points <= u is the same for every
        u in it, and the table holds the value it selects.  Only the
        uniforms of the other buckets, those the table marks 0 (no
        support point is 0), go through ``searchsorted``: 0.3% of draws
        for geometric(0.5), 3% for geometric(0.05).
        """
        vals, cdf, table = self._arrays
        out = np.empty(n, dtype=np.int64)
        bucket = np.empty(min(n, _SLOT_BLOCK), dtype=np.int64)
        for x0, u in _uniform_blocks(rng, n):
            b = bucket[: len(u)]
            np.multiply(u, _BUCKETS, out=b, casting="unsafe")  # truncates: floor of u·2^12
            got = np.take(table, b, out=out[x0 : x0 + len(u)], mode="clip")  # b is in range; "raise" buffers out
            split = np.flatnonzero(got == 0)
            if len(split):
                idx = np.searchsorted(cdf, u[split], side="right")
                got[split] = vals[np.minimum(idx, len(vals) - 1, out=idx)]
        return out


# --- model specs -----------------------------------------------------------

class _BernoulliFields(NamedTuple):
    alpha: float


class Bernoulli(_BernoulliFields):
    """At most one arrival per slot, probability alpha each."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if not 0.0 < self.alpha < 1.0:
            raise ValueError(f"arrival probability must be in (0, 1), got {self.alpha}")
        return self


class Renewal(NamedTuple):
    """Independent integer inter-arrival times, first arrival at the first gap."""

    interarrival: DiscreteDist


class _FinitePopulationFields(NamedTuple):
    n_sources: int
    alpha: float


class FinitePopulation(_FinitePopulationFields):
    """n_sources on/off sources, each firing with probability alpha when idle."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if self.n_sources < 1:
            raise ValueError("need at least one source")
        if not 0.0 < self.alpha < 1.0:
            raise ValueError(f"arrival probability must be in (0, 1), got {self.alpha}")
        if self.n_sources * self.alpha > 1.0:
            raise ValueError(
                "n_sources * alpha must not exceed 1 for the single-arrival dynamics"
            )
        return self


class _ExplicitFields(NamedTuple):
    slots: tuple[int, ...]


class Explicit(_ExplicitFields):
    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if any(s < 1 for s in self.slots):
            raise ValueError("explicit arrival slots must be >= 1")
        if any(self.slots[i] > self.slots[i + 1] for i in range(len(self.slots) - 1)):
            raise ValueError("explicit arrival slots must be nondecreasing")
        return self


ArrivalSpec = Bernoulli | Renewal | FinitePopulation | Explicit


class _FifoFields(NamedTuple):
    servers: int = 1
    assignment: str = "lowest"  # or "random": pick uniformly among idle servers


class Fifo(_FifoFields):
    """Work conserving FIFO with c identical unit-rate servers.

    The assignment policy names the server a customer gets ("lowest" or
    "random") and nothing else: start slots and departures are the same
    under both, so only the trace's server labels depend on it.
    """

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if self.servers < 1:
            raise ValueError("need at least one server")
        if self.assignment not in ("lowest", "random"):
            raise ValueError(f"unknown assignment policy {self.assignment!r}")
        return self


class InfiniteServer(NamedTuple):
    """Every customer starts service in its arrival slot.  A record with no
    field is an empty tuple, so it is falsy."""


class External(NamedTuple):
    """Departure slots supplied verbatim; the discipline is outside the model."""

    departures: tuple[int, ...]


DisciplineSpec = Fifo | InfiniteServer | External


# --- traces ----------------------------------------------------------------

class _Labels:
    """The ``servers`` field of :class:`Trace`, a data descriptor.

    It stores what the constructor is given: None, an index array, or a
    deferred replay, a callable that computes the labels from the trace.
    A replay runs on the first read of the field, and the trace keeps the
    array it returns; a class access reads None, the field's default.
    """

    def __set_name__(self, owner, name):
        self.name = name

    def __get__(self, trace, owner=None):
        if trace is None:
            return None
        labels = trace.__dict__[self.name]
        if callable(labels):
            labels = trace.__dict__[self.name] = labels(trace)
        return labels

    def __set__(self, trace, labels):
        trace.__dict__[self.name] = labels


@dataclass(frozen=True)
class Trace:
    """One actual sample path over (0, horizon] slots.

    arrivals, services, starts and departures are aligned per-customer
    int64 arrays with D_k = start_k + S_k; servers (when present) holds
    the serving-server index per customer.  The server labels may be
    derived on first read: :func:`run_discipline` passes FIFO with c > 1
    servers a deferred label replay, which nothing runs until
    ``trace.servers`` is read, because no arrival-departure quantity needs
    them; in dtq only :func:`write_trace_csv` reads them.  Validation
    applies to stored labels only.

    No function in dtq allocates an array of horizon length: slot passes
    run in blocks of ``_SLOT_BLOCK`` slots, and whole slot paths live only
    in the test oracles of ``tests/conftest.py``.
    """

    arrivals: np.ndarray
    services: np.ndarray
    starts: np.ndarray
    departures: np.ndarray
    horizon: int
    servers: np.ndarray | None = _Labels()

    def __post_init__(self):
        n = len(self.arrivals)
        for name in ("services", "starts", "departures"):
            if len(getattr(self, name)) != n:
                raise ValueError("per-customer arrays must have equal length")
        labels = self.__dict__["servers"]
        if callable(labels):  # a deferred replay labels every customer
            labels = None
        if labels is not None and len(labels) != n:
            raise ValueError("servers must hold one index per customer")
        if self.horizon < 1:
            raise ValueError("horizon must be at least one slot")
        if not n:
            return
        a, s, b, d = self.arrivals, self.services, self.starts, self.departures
        # checked in blocks of _SLOT_BLOCK customers over one reused
        # block of start plus service and one of check outcomes
        step = min(n, _SLOT_BLOCK)
        total = np.empty(step, dtype=np.int64)
        hit = np.empty(step, dtype=bool)

        def anywhere(test, x, y) -> bool:
            """Whether test(x, y) holds at some customer, y a column like x or a scalar."""
            for lo in range(0, len(x), step):
                xs = x[lo : lo + step]
                ys = y[lo : lo + step] if np.ndim(y) else y
                if test(xs, ys, out=hit[: len(xs)]).any():
                    return True
            return False

        if anywhere(np.less, a[1:], a[:-1]):
            raise ValueError("arrival slots must be nondecreasing")
        if anywhere(np.less, a, 0):
            raise ValueError("arrival slots must be nonnegative")
        if anywhere(np.less, s, 1):
            raise ValueError("service times must be at least one slot")
        if anywhere(np.less, b, a):
            raise ValueError("service cannot start before arrival")
        for lo in range(0, n, step):
            bs = np.add(b[lo : lo + step], s[lo : lo + step], out=total[: min(step, n - lo)])
            if anywhere(np.not_equal, d[lo : lo + step], bs):
                raise ValueError("departures must equal start plus service")
        if labels is not None and anywhere(np.less, labels, 0):
            raise ValueError("server indices must be nonnegative")

    @property
    def n(self) -> int:
        return len(self.arrivals)

    @cached_property
    def _memo(self) -> dict:
        """Derived summaries, filled lazily: per warmup, the averaging
        window of :func:`dtq.observer.window`, which every time average and
        cost-rate law reads, and whose sojourn total gives W_obs of every
        combo, so no entry is kept per combo; L and pi of all five span
        shifts, from one blocked pass over the slots with one window per
        coherence class; :func:`dtq.littles.workload_moments`, whose EV is
        a closed-form piece sum over customers; under
        ``("offsets", s0, e0)``, the observed-minus-actual wait histogram
        of :func:`dtq.coherence.verify_on_trace`, one per span shift,
        summed in blocks of ``_SLOT_BLOCK`` customers with no
        customer-length temporary; and
        the busy periods of :mod:`dtq.busy`.  Entries never go stale
        because a trace is immutable; they hold scalars, state histograms
        and read-only customer-length arrays, never a slot-length array.
        """
        return {}

    @property
    def waits(self) -> np.ndarray:
        """Actual sojourn times D_k - A_k."""
        return self.departures - self.arrivals


_CONVENTION_SHIFT = {"strict-left": (1, 0), "strict-right": (0, -1)}


def convention_shift(convention: str) -> tuple[int, int]:
    """Span shift (s0, e0) of an actual-path indicator convention."""
    try:
        return _CONVENTION_SHIFT[convention]
    except KeyError:
        raise ValueError(f"unknown indicator convention {convention!r}") from None


# slots per block of every numpy slot pass, customers per block of the
# blocked numpy customer passes, and bytes per block of the file passes, the
# trace reader's included: a block's arrays (~0.5 MB each) stay in cache, and
# no pass holds an array of slot length
_SLOT_BLOCK = 1 << 16
# customers per block of every Python loop that walks all customers, and
# draws per chunk of the finite-population service stream.  A loop walks
# Python lists, ~36 bytes an item with its int object against 8 in an
# array, so lists of 2^16 items cost more than the cache-sized numpy blocks
# they come from.  On the bench's FIFO-2 input (3·10^5 customers, a 2.3 MiB
# label column) the server-label replay on 2^16-item lists holds a 10.3 MiB
# traced peak; on 2^12-item lists it holds 2.8 MiB.
_LOOP_BLOCK = 1 << 12
# customers per lane of the FIFO-c wavefront, and lane positions per tile
# of it: per transposed block, per kept state and per coupling test of a
# repair.  The wavefront costs one numpy step per lane position and the
# repair a few Python steps per lane, so the lane balances the two near the
# square root of the bench's 3·10^5 customers.  There, on a 2-core x86_64
# host, the c = 2 starts take ~6 ms against ~45 ms for a heap loop.
_LANE = 1 << 9
_TILE = 32


def _slot_blocks(first: int, end: int):
    """The slot ranges [x0, x1) of at most ``_SLOT_BLOCK`` slots that
    cover [first, end) in order."""
    for x0 in range(first, end, _SLOT_BLOCK):
        yield x0, min(x0 + _SLOT_BLOCK, end)


def _counts(a: np.ndarray, d: np.ndarray, first: int, end: int, order=None):
    """The one builder of the per-slot event counts of the sorted arrival
    slots ``a`` and the departure slots ``d``, sorted or read in the order
    ``order`` sorts them: a pair of int64 arrays per block [x0, x1) of
    ``_slot_blocks(first, end)``, each the number of events at
    x = x0-1..x1, except that entry 0 also counts every event before
    x0 - 1 (the carry-in, found by ``searchsorted``).  So the cumsum of a
    column is its counting process, N_A(x) = #{A <= x} or N_D(x) =
    #{D <= x}, at x = x0-1..x1 (a count at -1 is 0), and a caller takes
    only the cumsums it needs.  The events inside a block add one
    ``bincount``."""
    for x0, x1 in _slot_blocks(first, end):
        pair = []
        for events, sorter in ((a, None), (d, order)):
            lo, hi = np.searchsorted(events, (x0 - 1, x1 + 1), sorter=sorter)
            inside = events[lo:hi] if sorter is None else events[sorter[lo:hi]]
            counts = np.bincount(inside - (x0 - 1), minlength=x1 - x0 + 2)
            counts[0] += lo
            pair.append(counts)
        yield pair


def _uniform_blocks(rng: np.random.Generator, n: int):
    """The n uniforms of ``rng.random(n)``, in order, as (offset, block)
    pairs; every block is a view of one reused buffer of at most
    ``_SLOT_BLOCK`` draws."""
    buf = np.empty(min(n, _SLOT_BLOCK))
    for x0, x1 in _slot_blocks(0, n):
        u = buf[: x1 - x0]
        rng.random(out=u)
        yield x0, u


def gen_arrivals(spec: ArrivalSpec, seed: int, horizon: int) -> np.ndarray:
    """Arrival slots in (0, horizon], deterministic given (spec, seed).

    Finite-population arrivals depend on the service process and are
    produced by :func:`simulate_finite_population` instead.
    """
    if horizon < 1:
        raise ValueError("horizon must be at least one slot")
    if isinstance(spec, Explicit):
        slots = np.asarray(spec.slots, dtype=np.int64)
        return slots[slots <= horizon]
    if isinstance(spec, Bernoulli):
        rng = np.random.default_rng(seed)
        blocks = _uniform_blocks(rng, horizon)
        return np.concatenate([np.flatnonzero(u < spec.alpha) + (x0 + 1) for x0, u in blocks])
    if isinstance(spec, Renewal):
        rng = np.random.default_rng(seed)
        mean_gap = spec.interarrival.mean()
        chunk = max(64, int(1.2 * horizon / mean_gap) + 16)
        slots: list[np.ndarray] = []
        last = 0
        while last <= horizon:
            gaps = spec.interarrival.sample(rng, chunk)
            cum = last + np.cumsum(gaps)
            slots.append(cum)
            last = int(cum[-1])
        all_slots = np.concatenate(slots)
        return all_slots[all_slots <= horizon]
    if isinstance(spec, FinitePopulation):
        raise ValueError(
            "finite-population arrivals are state dependent; "
            "use simulate_finite_population"
        )
    raise TypeError(f"unknown arrival spec {spec!r}")


def sample_services(dist: DiscreteDist, seed: int, n: int) -> np.ndarray:
    if n < 0:
        raise ValueError("sample count must be nonnegative")
    return dist.sample(np.random.default_rng(seed), n)


def _fifo_single(arrivals: np.ndarray, services: np.ndarray) -> np.ndarray:
    # start B_k = max(A_k, B_{k-1} + S_{k-1}) = P_k + max_{j <= k}(A_j - P_j)
    # for the exclusive prefix sum P_k of the services: P in one array,
    # the running maximum in place in the other, which is returned
    psum = np.empty(len(arrivals), dtype=np.int64)
    psum[:1] = 0
    np.cumsum(services[:-1], out=psum[1:])
    starts = np.subtract(arrivals, psum)
    np.maximum.accumulate(starts, out=starts)
    starts += psum
    return starts


def _fifo_starts(arrivals, services, c):
    """Start slots for FIFO with c servers, arrivals nondecreasing.

    The Kiefer-Wolfowitz recursion (Kiefer and Wolfowitz, 1955) on the
    servers' sorted free-at slots f_0 <= ... <= f_{c-1}: customer k
    starts at t = max(A_k, f_0), and its server is next free at
    d = t + S_k.  Which server serves whom never enters it, so the starts
    are the same under every assignment policy: a policy only chooses
    among servers free by A_k, and every later arrival finds all of them
    free.  The step pops f_0 and inserts d in order, ties included.

    It runs in two passes, after Greenberg, Lubachevsky and Mitrani's
    parallel FIFO simulation (ACM TOCS, 1991) but exact in integers.  The
    customers are cut into lanes of ``_LANE``, and :func:`_wavefront` runs
    every full lane at once from an empty system, keeping each lane's
    state G at the start of every tile of ``_TILE`` customers.  A repair
    then walks the lanes in order with the true carried state F and stops
    a lane at customer k when (a) k lies in the lane's first tile and
    A_k >= max F, all servers free, or (b) k starts a later tile and
    max(F_i, A_k) = max(G_i, A_k) for every i.  The argument is a clamp.
    The step is monotone in f, so G <= F.  And clamping commutes with it:
    for an arrival A' >= A, step(max(f, A)) = max(step(f), A), with the
    same start.  So states equal once clamped at A_k give the same starts
    from customer k on, and end states equal once clamped at A_k: the
    wavefront's starts are exact from k on, and its end state serves as
    the carry for the next lane, which arrives no earlier.  Rule (a) is
    the case F <= A_k; rule (b) needs only the servers where G and F
    differ to be free.  A lane that stops by neither rule, the last
    partial lane among them, is repaired to its end and carries F.
    """
    n = len(arrivals)
    starts = np.empty(n, dtype=np.int64)
    full = n - n % _LANE
    ends, snaps = _wavefront(arrivals[:full], services[:full], starts[:full], c) if full else (None, None)
    free = [0] * c
    for lane, lo in enumerate(range(0, n, _LANE)):
        hi = min(lo + _LANE, n)
        st_lane: list[int] = []
        stopped = _repair(arrivals, services, lo, hi, free, st_lane.append, snaps[:, :, lane] if hi <= full else None)
        starts[lo : lo + len(st_lane)] = st_lane
        if stopped:  # the wavefront holds from the stop, and its end state is the carry
            free = ends[lane].tolist()
    return starts


def _repair(arrivals, services, lo, hi, free, keep, snaps) -> bool:
    """Run the step on customers [lo, hi) from the heap ``free``, in
    place, handing each start to ``keep``, until a rule of
    :func:`_fifo_starts` stops it, given the lane's (tiles, c) wavefront
    states ``snaps`` (None: no stop); returns whether one did.  Rule (a)
    tracks ``top``, the maximum of ``free``: the step pops f_0 and pushes
    d > f_0, so max(top, d) stays the maximum.  Past the first tile, where
    most repairs stop, the loop is the bare step."""
    replace = heapq.heapreplace
    top = max(free)
    k = min(lo + _TILE, hi)
    for a, s in zip(arrivals[lo:k].tolist(), services[lo:k].tolist()):
        if a >= top and snaps is not None:  # (a)
            return True
        t = free[0]
        if a > t:
            t = a
        keep(t)
        d = t + s
        replace(free, d)
        if d > top:
            top = d
    a_rest, s_rest = arrivals[k:hi].tolist(), services[k:hi].tolist()
    g_lane = None if snaps is None else snaps.tolist()
    for j, i in enumerate(range(0, hi - k, _TILE), 1):
        # (b): as G <= F, both clamp to A_k where F does, so they need
        # only agree past it
        f = sorted(free)
        p = bisect.bisect_right(f, a_rest[i])
        if g_lane is not None and f[p:] == g_lane[j][p:]:
            return True
        for a, s in zip(a_rest[i : i + _TILE], s_rest[i : i + _TILE]):
            t = free[0]
            if a > t:
                t = a
            keep(t)
            replace(free, t + s)
    return False


def _wavefront(arrivals, services, starts, c):
    """Write the FIFO-c starts of every lane of ``_LANE`` customers run
    from an empty system, all lanes at once: one numpy step per lane
    position on the sorted state held as c rows of lanes, t = max(A, f_0),
    d = t + S, g_i = min(f_{i+1}, max(f_i, d)) for i < c - 1, where
    g_0 = min(f_1, d), and g_{c-1} = max(f_{c-1}, d).  A row above every
    slot stands for f_c, so c = 1 gives g_0 = d.  The columns go in and
    out through transposed tiles of ``_TILE`` positions, three
    (tile, lanes) buffers; a whole-column transpose would hold three more
    columns.  Returns the lanes' end states, a (lanes, c) array, and their
    states at the start of every tile, a (tiles, c, lanes) array."""
    m = len(arrivals) // _LANE
    rows = np.zeros((c + 1, m), dtype=np.int64)
    rows[c] = np.iinfo(np.int64).max
    free = rows[:c]
    first, second, last = rows[0], rows[1], rows[c - 1]
    middle = list(zip(rows[1 : c - 1], rows[2:c]))  # (f_i, f_{i+1}), 0 < i < c - 1
    snaps = np.empty((-(-_LANE // _TILE), c, m), dtype=np.int64)
    d = np.empty(m, dtype=np.int64)
    a_tile, s_tile, t_tile = np.empty((3, min(_TILE, _LANE), m), dtype=np.int64)
    lanes_a, lanes_s, lanes_t = (x.reshape(m, _LANE) for x in (arrivals, services, starts))
    for j, j0 in enumerate(range(0, _LANE, _TILE)):
        snaps[j] = free
        j1 = min(j0 + _TILE, _LANE)
        w = j1 - j0
        a_tile[:w] = lanes_a[:, j0:j1].T
        s_tile[:w] = lanes_s[:, j0:j1].T
        for a, s, t in zip(a_tile[:w], s_tile[:w], t_tile[:w]):
            np.maximum(a, first, out=t)
            np.add(t, s, out=d)
            np.minimum(d, second, out=first)
            for f, g in middle:
                np.maximum(f, d, out=f)
                np.minimum(f, g, out=f)
            np.maximum(last, d, out=last)
        lanes_t[:, j0:j1] = t_tile[:w].T
    return free.T, snaps


def _fifo_labels(trace, c, assignment, seed):
    """Server index per customer of a FIFO trace with c servers, replayed
    from its known departures under the assignment policy.

    Busy servers sit in a heap of (free-at slot, server index).  "lowest"
    takes the heap minimum: the server that frees up first, lowest index
    on ties.  "random" picks uniformly among the servers idle at the
    arrival, one uniform of ``default_rng(seed)`` per customer, drawn per
    block of ``_LOOP_BLOCK`` customers as the loop walks them: a server
    leaves the busy heap for the idle list once it is free by the arrival
    slot, which stays valid because later arrivals come no earlier, and
    the pick is swapped out of the list.
    """
    arrivals, departures = trace.arrivals, trace.departures
    chosen = np.empty(len(arrivals), dtype=np.int64)
    # (free-at slot, server index); a sentinel above every slot keeps the
    # heap nonempty and is never popped
    heap = [(0, i) for i in range(c)] + [(1 << 63, c)]
    idle: list[int] = []
    rng = np.random.default_rng(seed) if assignment == "random" else None
    pop, push, replace, to_idle = heapq.heappop, heapq.heappush, heapq.heapreplace, idle.append
    for lo in range(0, len(arrivals), _LOOP_BLOCK):
        hi = lo + _LOOP_BLOCK
        a_blk = arrivals[lo:hi].tolist()
        d_blk = departures[lo:hi].tolist()
        ch_blk: list[int] = []
        keep = ch_blk.append
        if rng is not None:
            for a, d, u in zip(a_blk, d_blk, rng.random(len(a_blk)).tolist()):
                while heap[0][0] <= a:
                    to_idle(pop(heap)[1])
                if idle:
                    j = int(u * len(idle))
                    i = idle[j]
                    idle[j] = idle[-1]
                    idle.pop()
                else:
                    i = pop(heap)[1]
                push(heap, (d, i))
                keep(i)
        else:
            for d in d_blk:
                i = heap[0][1]
                replace(heap, (d, i))
                keep(i)
        chosen[lo:hi] = ch_blk
    return chosen


def run_discipline(
    arrivals,
    services,
    disc: DisciplineSpec,
    horizon: int | None = None,
    seed: int | None = None,
) -> Trace:
    """Compute service starts and departures under a queueing discipline.

    Arrival slots must be nondecreasing.  Simultaneous arrivals are served
    in customer-index order.  For External the given departures are copied
    verbatim and the sojourn is recorded as the service requirement.

    FIFO with one server gets its starts from prefix sums and all-zero
    server labels.  With c > 1 servers the starts come at once from
    :func:`_fifo_starts`, a numpy wavefront over lanes of customers and a
    short Python repair per lane, the same code for every c.  The server
    labels are left to a deferred :func:`_fifo_labels` replay of
    (c, policy, seed) that runs on the first read of ``trace.servers``,
    which only :func:`write_trace_csv` makes in dtq.  A "random" policy
    needs the seed here all the same.
    """
    arrivals = np.asarray(arrivals, dtype=np.int64)
    servers = None
    if isinstance(disc, External):
        given = np.asarray(disc.departures, dtype=np.int64)
        if len(given) != len(arrivals):
            raise ValueError("need one departure per arrival")
        if np.any(given < arrivals + 1):
            raise ValueError("departures must be at least one slot after arrivals")
        services = given - arrivals
        starts = arrivals.copy()
    else:
        services = np.asarray(services, dtype=np.int64)
        if len(services) != len(arrivals):
            raise ValueError("need one service time per arrival")
        if isinstance(disc, InfiniteServer):
            starts = arrivals.copy()
        elif isinstance(disc, Fifo):
            if disc.servers == 1:
                starts = _fifo_single(arrivals, services)
                servers = np.zeros(len(arrivals), dtype=np.int64)
            else:
                if disc.assignment == "random" and seed is None:
                    raise ValueError("random server assignment needs a seed")
                starts = _fifo_starts(arrivals, services, disc.servers)
                servers = partial(
                    _fifo_labels, c=disc.servers, assignment=disc.assignment, seed=seed
                )
        else:
            raise TypeError(f"unknown discipline {disc!r}")
    deps = starts + services
    if horizon is None:
        horizon = int(deps.max(initial=1))
    return Trace(arrivals, services, starts, deps, horizon, servers)


def simulate_finite_population(
    n_sources: int,
    alpha: float,
    service: DiscreteDist,
    seed: int,
    horizon: int,
) -> Trace:
    """Closed-loop single-server FIFO path for a finite source population.

    At most one customer arrives per slot; with n in the system the
    per-slot arrival probability is (n_sources - n) * alpha, which makes
    the path an exact state-dependent chain.  Slot t has an arrival when
    u[t] falls below that probability, one uniform u[t] per slot
    t = 0..horizon, drawn in blocks of ``_SLOT_BLOCK``.  The k-th arrival
    is served for the k-th draw of the service stream, a generator
    spawned from ``seed`` and drawn in chunks of ``_LOOP_BLOCK``.

    The loop only decides which slots hold an arrival.  It visits the
    candidate slots, those with u[t] below the empty-system probability
    n_sources * alpha, the largest: no other slot can hold an arrival
    whatever the state, and the state changes only at arrivals and
    departures.  It keeps the slot at which the server frees up and, in a
    deque, the departure slots of the at most n_sources customers in the
    system; a candidate after that slot finds the system empty and is an
    arrival.  So the arrivals equal those of a slot-by-slot walk over the
    same uniforms.  Starts and departures come afterwards from the one
    FIFO kernel, :func:`_fifo_single`.
    """
    FinitePopulation(n_sources, alpha)  # validates parameters
    if horizon < 1:
        raise ValueError("horizon must be at least one slot")
    rng = np.random.default_rng(seed)
    rng.random()  # the uniform of slot 0, drawn to keep the stream, holds no arrival
    svc_rng = np.random.default_rng(np.random.SeedSequence(seed).spawn(1)[0])
    # the service stream in the chunks drawn, after an empty chunk that
    # serves a path with no arrival, which draws none
    drawn = [np.empty(0, dtype=np.int64)]

    def service_draws():
        while True:
            drawn.append(service.sample(svc_rng, _LOOP_BLOCK))
            yield drawn[-1].tolist()

    next_service = partial(next, itertools.chain.from_iterable(service_draws()))
    p = [(n_sources - n) * alpha for n in range(n_sources)]
    p_max = p[0]
    in_system: deque[int] = deque()  # departure slots, FIFO keeps them sorted
    depart, leave, clear = in_system.append, in_system.popleft, in_system.clear
    last_free = 0  # slot at which the single server frees up
    blocks: list[np.ndarray] = []
    for x0, u in _uniform_blocks(rng, horizon):
        cand = np.flatnonzero(u < p_max)
        block: list[int] = []
        arrive = block.append
        for t, u_t in zip((cand + (x0 + 1)).tolist(), u[cand].tolist()):
            if t > last_free:  # empty system: u_t < p_max is an arrival
                clear()
                last_free = t + next_service()
            else:
                while in_system[0] < t:  # departed by t-1
                    leave()
                n = len(in_system)
                if n >= n_sources or u_t >= p[n]:
                    continue
                last_free += next_service()
            depart(last_free)
            arrive(t)
        blocks.append(np.array(block, dtype=np.int64))
    arr = np.concatenate(blocks)
    del blocks
    svc = np.concatenate(drawn)[: len(arr)]
    drawn.clear()
    starts = _fifo_single(arr, svc)
    return Trace(arr, svc, starts, starts + svc, horizon, np.zeros(len(arr), dtype=np.int64))


def build_trace(
    arrival: ArrivalSpec,
    service: DiscreteDist,
    disc: DisciplineSpec,
    seed: int,
    horizon: int,
) -> Trace:
    """One-stop path construction: arrivals seeded with ``seed``, services
    with ``seed + 1``, random server picks with ``seed + 2``.  Finite
    population input runs :func:`simulate_finite_population` on one FIFO
    server; a path with given departures comes from :func:`run_discipline`."""
    if isinstance(arrival, FinitePopulation):
        if not (isinstance(disc, Fifo) and disc.servers == 1):
            raise ValueError("finite-population model requires a single FIFO server")
        return simulate_finite_population(
            arrival.n_sources, arrival.alpha, service, seed, horizon
        )
    slots = gen_arrivals(arrival, seed, horizon)
    services = sample_services(service, seed + 1, len(slots))
    return run_discipline(slots, services, disc, horizon, seed=seed + 2)


# --- trace files -----------------------------------------------------------

_CSV_HEADER = ["k", "A", "S", "Astart", "D"]
_CSV_SERVER = "server"
_CSV_HEADERS = (_CSV_HEADER, _CSV_HEADER + [_CSV_SERVER])
# rows encoded per write: 2^14 keeps a block's cells (~1 MB) in cache and
# spares a fresh process the page faults of a larger first block
_CSV_CHUNK = 1 << 14
_CSV_GROUP = 10_000  # cells hold base-10^4 digit groups
_CSV_SEPS = np.frombuffer(b",\0\0\0\r\n\0\0", dtype=np.uint32)  # between cells, row end


def _csv_digit_cells() -> tuple[np.ndarray, np.ndarray]:
    """The four-byte text of every base-10^4 digit group v as
    :func:`write_trace_csv` looks it up: at v null-padded, as the leading
    group, and at 10^4 + v zero-padded, as a group below it.  The first
    table serves the least significant group and prints a 0 there; the
    second serves every other group, where a 0 leads nothing and its cell
    is all null."""
    # the ASCII digits of group 1000a + 100b + 10c + d at [a, b, c, d]
    text = np.empty((10, 10, 10, 10, 4), dtype=np.uint8)
    digits = np.arange(ord("0"), ord("9") + 1, dtype=np.uint8)
    for place in range(4):
        text[..., place] = digits.reshape((10,) + (1,) * (3 - place))
    inner = text.view("<u4").ravel()
    groups = np.arange(_CSV_GROUP)
    width = 1 + (groups >= 10) + (groups >= 100) + (groups >= 1000)
    # shifting a cell's bytes toward its start drops the leading zeros
    lead = inner >> (8 * (4 - width)).astype("<u4")
    first = np.concatenate([lead, inner]).view(np.uint32)
    later = first.copy()
    later[0] = 0
    return first, later


def write_trace_csv(trace: Trace, path) -> None:
    """Write one row per customer, byte for byte what ``csv.writer``
    emits, CRLF line ends included; a ``server`` column follows exactly
    when the trace carries a server assignment.

    Rows are encoded in blocks of ``_CSV_CHUNK`` without formatting a
    single int: each value is split into base-10^4 digit groups, as many
    as the trace's largest value (or row count) needs, and each group is
    looked up as one four-byte cell of ASCII digits, null-padded where the
    group leads and all null above that.  A ``,`` or ``\\r\\n`` cell ends
    each value, and the block is written with the nulls deleted.  This
    relies on the ``Trace`` invariant that every column is nonnegative.

    The digit tables and the scratch of one block are allocated once per
    call, and every block is encoded into the scratch in place: the
    stacked values, which are also the first dividend, a quotient, an
    index and a cell plane, and the cells with their separators written
    once.  Only each block's text is fresh, its cells' bytes and their
    translation, so on the reference trace a call peaks at 6.3 MB traced.
    Nothing outlives the call: tables kept for later calls would sit in
    the heap above the trace being written and keep its pages once freed.
    """
    header = list(_CSV_HEADER)
    cols = [trace.arrivals, trace.services, trace.starts, trace.departures]
    if trace.servers is not None:
        header.append(_CSV_SERVER)
        cols.append(trace.servers)
    with open(path, "wb") as fh:
        fh.write((",".join(header) + "\r\n").encode())
        n = trace.n
        if not n:
            return
        # groups above a value's leading one are null cells, so one group
        # count for the whole trace writes the same bytes as any larger one
        top = max(n, *(int(c.max()) for c in cols))
        n_groups = 1
        while top >= _CSV_GROUP**n_groups:
            n_groups += 1
        rows = min(n, _CSV_CHUNK)
        shape = (rows, len(cols) + 1)
        ks = np.arange(1, rows + 1)
        values, quotient, index = (np.empty(shape, dtype=np.int64) for _ in range(3))
        plane = np.empty(shape, dtype=np.uint32)
        cells = np.empty(shape + (n_groups + 1,), dtype=np.uint32)
        cells[..., n_groups] = _CSV_SEPS[0]
        cells[:, -1, n_groups] = _CSV_SEPS[1]
        first, later = _csv_digit_cells()
        for i in range(0, n, rows):
            m = min(rows, n - i)
            low, high, idx, pl = values[:m], quotient[:m], index[:m], plane[:m]
            np.add(ks[:m], i, out=low[:, 0])
            for j, c in enumerate(cols, 1):
                low[:, j] = c[i : i + m]
            for g in range(n_groups):  # least significant group first
                at = low  # the top group: low < 10^4, so low is the cell index
                if g < n_groups - 1:
                    # low - 10^4 · max(low // 10^4 - 1, 0): the group plus
                    # 10^4 below the leading group, low from there on up
                    np.floor_divide(low, _CSV_GROUP, out=high)
                    np.subtract(high, 1, out=idx)
                    np.maximum(idx, 0, out=idx)
                    np.multiply(idx, _CSV_GROUP, out=idx)
                    at = np.subtract(low, idx, out=idx)
                np.take(later if g else first, at, out=pl, mode="clip")  # a strided out would be copied
                cells[:m, :, n_groups - 1 - g] = pl
                low, high = high, low
            fh.write(cells[:m].tobytes().translate(None, b"\0"))


def _line_ends(path) -> int:
    """LF count of a file, or its CR count when it has no LF, read in
    blocks of ``_SLOT_BLOCK`` bytes: an upper bound on the rows after the
    header of a file with LF, CRLF or CR line ends.  Blank lines only
    over-count; bare CR line ends among LF ones under-count."""
    for end in (b"\n", b"\r"):
        with open(path, "rb") as fh:
            n = sum(block.count(end) for block in iter(partial(fh.read, _SLOT_BLOCK), b""))
        if n:
            return n
    return 0


def _line_of(path, offset: int) -> int:
    """The 1-based line of a file that byte ``offset`` sits on; a CRLF
    ends one line.  Read only to name the line of an error."""
    with open(path, "rb") as fh:
        head = fh.read(offset)
    return head.count(b"\n") + head.count(b"\r") - head.count(b"\r\n") + 1


# zero bytes in front of the reader's block, so that the eight bytes up to
# any value's last digit lie inside the buffer
_PAD = 8
_MAX_DIGITS = 18  # so every value is below 10^18 and exact in int64
# per value length L = 0..8, the low nibbles of the top L bytes of a word:
# masking with it keeps the value's own bytes and subtracts ASCII 0 from each
_DIGIT_MASKS = np.array(
    [(0x0F0F0F0F0F0F0F0F << 8 * (8 - L)) & (2**64 - 1) for L in range(9)], dtype=np.uint64
)


def _swar8(w: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """The values of the last ``lengths`` (1 to 8, more count as 8) bytes of
    the little-endian words ``w``, read as ASCII digits, most significant
    first: Lemire's eight-digit SWAR parse ("Number parsing at a gigabyte
    per second", 2021), in place on ``w``.  Each step adds neighbouring
    digit groups, 1 to 2, 2 to 4 and 4 to 8 digits, in every lane at once."""
    w &= _DIGIT_MASKS.take(lengths, mode="clip")  # lengths above 8 read 8
    low = w >> 8
    w *= 10
    w += low  # 10 w + (w >> 8): digit pairs in bytes 0, 2, 4, 6
    w &= 0x00FF00FF00FF00FF
    w *= 6553601  # 100 * 2^16 + 1: four-digit groups in bytes 2-3 and 6-7
    w >>= 16
    w &= 0x0000FFFF0000FFFF
    w *= 42949672960001  # 10^4 * 2^32 + 1: the eight digits in bytes 4-7
    w >>= 32
    return w


def _csv_rows(fh, body: bytes, width: int, path, offset: int):
    """The rows of a trace file's body as (rows, ``width``) int64 blocks.

    ``body`` is what was read past the header, from its line end on, and
    ``offset`` the file position of that line end; ``fh`` reads the rest.
    The body goes through one reused uint8 buffer, ``_SLOT_BLOCK`` bytes
    per ``readinto``, behind ``_PAD`` zero bytes; the rows after a block's
    last line end carry over to the next block, which always starts with
    that line end, and the buffer doubles when a row is longer than a
    block.  Per block, the non-digits (``b - 48 > 9`` on uint8) are found
    at once; the bytes between two of them are one value, parsed by
    :func:`_swar8` from the word that ends at its last digit (a second and
    third word serve values of 9 to 18 digits).  See
    :func:`read_trace_csv` for the grammar and its errors.
    """
    if not body:  # the header has no line end: the file holds no rows
        return
    buf = np.zeros(_PAD + 2 * _SLOT_BLOCK + 1, dtype=np.uint8)
    carry = len(body)
    buf[_PAD : _PAD + carry] = np.frombuffer(body, dtype=np.uint8)
    while True:
        if _PAD + carry + _SLOT_BLOCK + 1 > len(buf):  # a row longer than a block
            grown = np.zeros(2 * (_PAD + carry + _SLOT_BLOCK + 1), dtype=np.uint8)
            grown[: _PAD + carry] = buf[: _PAD + carry]
            buf = grown
        got = fh.readinto(memoryview(buf)[_PAD + carry : _PAD + carry + _SLOT_BLOCK])
        end = _PAD + carry + got
        if not got and int(buf[end - 1]) not in b"\r\n":
            buf[end] = ord("\n")  # the last row's line end
            end += 1
        data = buf[_PAD:end]
        sep = np.flatnonzero((data - 48) > 9)
        byte = data[sep]
        is_end = (byte == ord("\n")) | (byte == ord("\r"))
        known = is_end | (byte == ord(","))
        if not known.all():
            at = int(sep[np.argmin(known)])
            line = _line_of(path, offset + at)
            if data[at] == ord("-"):
                raise ValueError(f"{path}: line {line}: a negative value; trace values are nonnegative")
            raise ValueError(
                f"{path}: line {line}: byte {bytes(data[at : at + 1])!r} is not a digit, ',' or a line end"
            )
        last = len(is_end) - 1 - int(np.argmax(is_end[::-1]))  # sep[0] is a line end
        if last:
            yield _parse_rows(buf, sep[: last + 1], is_end[: last + 1], width, path, offset)
        if not got:
            return
        cut = int(sep[last])
        carry = len(data) - cut
        buf[_PAD : _PAD + carry] = data[cut:]
        offset += cut


def _parse_rows(buf, sep, is_end, width, path, offset) -> np.ndarray:
    """The rows between the separators at ``sep`` of ``buf[_PAD:]``, the
    first and last of them line ends, as a (rows, ``width``) int64 array."""
    lengths = np.diff(sep)
    lengths -= 1
    ends, ended = sep[1:], is_end[1:]
    empty = lengths == 0
    if empty.any():
        blank = empty & is_end[:-1] & ended  # a line end on both sides
        if not np.array_equal(empty, blank):
            at = int(ends[np.argmax(empty != blank)])
            raise ValueError(f"{path}: line {_line_of(path, offset + at)}: an empty value")
        keep = np.flatnonzero(lengths)
        lengths, ends, ended = lengths[keep], ends[keep], ended[keep]
    n = len(lengths) // width
    if len(lengths) != n * width or np.count_nonzero(ended) != n or not ended[width - 1 :: width].all():
        firsts = np.flatnonzero(ended) + 1  # each row's first value, one past the last row
        widths = np.diff(firsts, prepend=0)
        row = int(np.argmax(widths != width))
        at = int(ends[firsts[row] - widths[row]] - lengths[firsts[row] - widths[row]])
        raise ValueError(
            f"{path}: rows have {widths[row]} values, the header {width}"
            f" (line {_line_of(path, offset + at)})"
        )
    words = np.ndarray((len(buf) - 7,), dtype="<u8", buffer=buf, strides=(1,))
    values = _swar8(words[ends], lengths)  # word i ends at buf[i + 7] = data[i - 1]
    if lengths.max(initial=0) > 8:
        if lengths.max() > _MAX_DIGITS:
            i = int(np.argmax(lengths > _MAX_DIGITS))
            line = _line_of(path, offset + int(ends[i] - lengths[i]))
            raise ValueError(f"{path}: line {line}: a value of {lengths[i]} digits; at most {_MAX_DIGITS} are read")
        for k in (1, 2):  # the second word, then the third
            long = np.flatnonzero(lengths > 8 * k)
            if not long.size:
                break
            values[long] += _swar8(words[ends[long] - 8 * k], lengths[long] - 8 * k) * 10 ** (8 * k)
    return values.view(np.int64).reshape(n, width)


def read_trace_csv(path, horizon: int | None = None) -> Trace:
    """Load a trace file that :func:`write_trace_csv` wrote.

    The header is ``k,A,S,Astart,D``, or that header plus ``server``, and
    every row has one value per header name; any other file raises
    ValueError.  The rows are the stored path verbatim, server assignment
    included when the file has a ``server`` column.  The horizon is
    ``horizon``, or else the last departure (1 for a file of no rows).

    The grammar is what :func:`write_trace_csv` writes: the header line
    ends at the first CR or LF; each later line is a row of ``,``-separated
    values of 1 to 18 ASCII digits (leading zeros allowed), or blank.
    Line ends are LF, CRLF or CR, mixed freely, and the last line needs
    none.  Each of these raises ValueError naming the file and line:

    - a ``-``: "a negative value; trace values are nonnegative"
    - any other byte that is not a digit, ``,``, CR or LF, such as a
      space, a tab, ``+`` or ``#``: "byte ... is not a digit, ',' or a
      line end"
    - a value of no digits that is not a blank line, as in ``1,,2`` or a
      row ending in ``,``: "an empty value"
    - a value of more than 18 digits: "a value of ... digits"
    - a row of other than the header's number of values: "rows have w
      values, the header h"

    The body is decoded block by block without a Python loop per row or
    value (see :func:`_csv_rows`) into one int64 row per kept column,
    preallocated for :func:`_line_ends` rows and doubled when bare CR line
    ends under-count them; the ``k`` column is dropped.  So the call holds
    the trace's columns plus one block's scratch; the trace's own checks
    take less, one block of ``_SLOT_BLOCK`` customers (0.6 MB).  On the
    3·10^5-row reference file: 11.4 MB of columns and a 13.0 MB peak.
    """
    with open(path, "rb") as fh:
        head = bytearray()
        while True:  # the header is the bytes before the first CR or LF
            block = fh.read(_SLOT_BLOCK)
            cut = min((i for i in (block.find(b"\r"), block.find(b"\n")) if i >= 0), default=len(block))
            head += block[:cut]
            if cut < len(block) or not block:
                break
        header = head.decode("latin-1").split(",")
        if header not in _CSV_HEADERS:
            known = " or ".join(",".join(h) for h in _CSV_HEADERS)
            raise ValueError(f"{path}: header {','.join(header)!r} is not a trace header ({known})")
        cols = np.empty((len(header) - 1, _line_ends(path)), dtype=np.int64)
        n = 0
        for rows in _csv_rows(fh, block[cut:], len(header), path, len(head)):
            if n + len(rows) > cols.shape[1]:  # bare CR line ends among LF ones
                grown = np.empty((len(cols), max(2 * cols.shape[1], n + len(rows))), dtype=np.int64)
                grown[:, :n] = cols[:, :n]
                cols = grown
            cols[:, n : n + len(rows)] = rows[:, 1:].T
            n += len(rows)
    cols = cols[:, :n]  # blank lines were counted as rows
    T = horizon if horizon is not None else (int(cols[3].max()) if n else 1)
    return Trace(cols[0], cols[1], cols[2], cols[3], T, cols[4] if len(cols) == 5 else None)
