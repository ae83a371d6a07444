"""Sample-path generation: input processes, service draws, and disciplines.

The engine produces one *actual* trace per model: integer arrival slots
A_k, service requirements S_k, service starts and departure slots.  The
five scheduling rules never change these integers; they are pure
micro-time shifts applied on top (see :mod:`dtq.timebase`).
"""
from __future__ import annotations

import heapq
import warnings
from dataclasses import dataclass
from functools import cached_property, partial

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


@dataclass(frozen=True)
class DiscreteDist:
    """Probability mass function on nonnegative integers.

    Unbounded laws (geometric) are truncated where the tail drops below
    1e-15 and renormalized, so stored masses always sum to one within
    1e-12 and sampling can use a plain inverse-CDF table.
    """

    values: tuple[int, ...]
    probs: tuple[float, ...]

    def __post_init__(self):
        vals = self.values
        if len(vals) == 0:
            raise ValueError("distribution needs at least one support point")
        if len(vals) != len(self.probs):
            raise ValueError("values and probs must have equal length")
        if any(v < 0 for v in vals):
            raise ValueError("support must be nonnegative integers")
        if any(vals[i] >= vals[i + 1] for i in range(len(vals) - 1)):
            raise ValueError("support must be strictly increasing")
        if any(p < 0 for p in self.probs):
            raise ValueError("probabilities must be nonnegative")
        total = sum(self.probs)
        if abs(total - 1.0) > _PROB_TOL:
            raise ValueError(f"probabilities sum to {total!r}, expected 1")

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

    @property
    def support_min(self) -> int:
        return self.values[0]

    @cached_property
    def _arrays(self) -> tuple[np.ndarray, np.ndarray]:
        vals = np.asarray(self.values, dtype=np.int64)
        cdf = np.cumsum(np.asarray(self.probs, dtype=float))
        cdf[-1] = 1.0
        return vals, cdf

    def mean(self) -> float:
        return float(sum(v * p for v, p in zip(self.values, self.probs)))

    def second_moment(self) -> float:
        return float(sum(v * v * p for v, p in zip(self.values, self.probs)))

    def pgf(self, z: float) -> float:
        """Evaluate sum_n P(n) z^n for z in [0, 1]."""
        if not 0.0 <= z <= 1.0:
            raise ValueError(f"pgf argument must be in [0, 1], got {z}")
        return float(sum(p * z**v for v, p in zip(self.values, self.probs)))

    def sample(self, rng: np.random.Generator, n: int) -> np.ndarray:
        """Inverse-CDF sampling: n draws as an int64 array."""
        vals, cdf = self._arrays
        u = rng.random(n)
        idx = np.searchsorted(cdf, u, side="right")
        return vals[np.minimum(idx, len(vals) - 1, out=idx)]


# --- model specs -----------------------------------------------------------

@dataclass(frozen=True)
class Bernoulli:
    """At most one arrival per slot, probability alpha each."""

    alpha: float

    def __post_init__(self):
        if not 0.0 < self.alpha < 1.0:
            raise ValueError(f"arrival probability must be in (0, 1), got {self.alpha}")


@dataclass(frozen=True)
class Renewal:
    """Independent integer inter-arrival times, first arrival at the first gap."""

    interarrival: DiscreteDist

    def __post_init__(self):
        if self.interarrival.support_min < 1:
            raise ValueError("inter-arrival times must be at least one slot")


@dataclass(frozen=True)
class FinitePopulation:
    """n_sources on/off sources, each firing with probability alpha when idle."""

    n_sources: int
    alpha: float

    def __post_init__(self):
        if self.n_sources < 1:
            raise ValueError("need at least one source")
        if not 0.0 < self.alpha < 1.0:
            raise ValueError(f"arrival probability must be in (0, 1), got {self.alpha}")
        if self.n_sources * self.alpha > 1.0:
            raise ValueError(
                "n_sources * alpha must not exceed 1 for the single-arrival dynamics"
            )


@dataclass(frozen=True)
class Explicit:
    slots: tuple[int, ...]

    def __post_init__(self):
        if any(s < 1 for s in self.slots):
            raise ValueError("explicit arrival slots must be >= 1")
        if any(self.slots[i] > self.slots[i + 1] for i in range(len(self.slots) - 1)):
            raise ValueError("explicit arrival slots must be nondecreasing")


ArrivalSpec = Bernoulli | Renewal | FinitePopulation | Explicit


@dataclass(frozen=True)
class Fifo:
    """Work conserving FIFO with c identical unit-rate servers.

    The assignment policy names the server a customer gets ("lowest" or
    "random") and nothing else: start slots and departures are the same
    under both, so only the trace's server labels depend on it.
    """

    servers: int = 1
    assignment: str = "lowest"  # or "random": pick uniformly among idle servers

    def __post_init__(self):
        if self.servers < 1:
            raise ValueError("need at least one server")
        if self.assignment not in ("lowest", "random"):
            raise ValueError(f"unknown assignment policy {self.assignment!r}")


@dataclass(frozen=True)
class InfiniteServer:
    pass


@dataclass(frozen=True)
class External:
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
    them.  Validation applies to stored labels only.
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
        cost-rate law reads; L and pi of all five span shifts, from one
        blocked pass over the slots with one window per coherence class;
        :func:`dtq.littles.workload_moments`, whose EV is a closed-form
        piece sum over customers; under ``("offsets", s0, e0)``, the
        observed-minus-actual wait histogram of
        :func:`dtq.coherence.verify_on_trace`, one per span shift; and the
        busy periods of :mod:`dtq.busy`.  Entries never go stale because a
        trace is immutable; they hold scalars, state histograms and
        read-only customer-length arrays, never a slot-length array.
        """
        return {}

    @property
    def waits(self) -> np.ndarray:
        """Actual sojourn times D_k - A_k."""
        return self.departures - self.arrivals

    def shift_path(self, s0: int, e0: int, first: int = 0) -> np.ndarray:
        """Number of customers whose span A + s0 .. D + e0 covers j, for
        j = first..horizon: N_A[j - s0] - N_D[j - e0 - 1], a count at a
        negative index being 0, for the counting processes
        N_A[x] = #{A <= x} and N_D[x] = #{D <= x}, x = 0..horizon+1, each
        one full-range call of :func:`_running_count`.

        The one materializer of a slot-length path, read by
        :meth:`queue_path`, :func:`dtq.observer.observed_queue_path` and
        the tests.  Checks and time averages take the same counts block by
        block and never hold them whole.
        """
        T = self.horizon
        k = e0 + 1  # departures leave the count k slots after D
        if not (0 <= s0 <= 1 and -1 <= k <= 1 and 0 <= first <= T):
            raise ValueError(f"span shift ({s0}, {e0}) from slot {first} is out of range")
        n_a = _running_count(self.arrivals, 0, T + 2)
        n_d = _running_count(np.sort(self.departures, kind="stable"), 0, T + 2)
        path = np.empty(T + 1 - first, dtype=np.int64)
        j0 = max(first, s0, k)  # from j0 on, both count indices are nonnegative
        np.subtract(n_a[j0 - s0 : T + 1 - s0], n_d[j0 - k : T + 1 - k], out=path[j0 - first :])
        for j in range(first, j0):
            path[j - first] = (n_a[j - s0] if j >= s0 else 0) - (n_d[j - k] if j >= k else 0)
        return path

    def queue_path(self, convention: str = "strict-left") -> np.ndarray:
        """Number-in-system path L(j) for j = 0..horizon.

        "strict-left" counts a customer at j when A < j <= D, span shift
        (1, 0), so index 0 is 0; the "strict-right" variant uses
        A <= j < D, span shift (0, -1), so index 0 counts the arrivals at
        slot 0.  Both give the same time average over a full cycle.
        """
        return self.shift_path(*convention_shift(convention))


_CONVENTION_SHIFT = {"strict-left": (1, 0), "strict-right": (0, -1)}


def convention_shift(convention: str) -> tuple[int, int]:
    """Span shift (s0, e0) of an actual-path indicator convention."""
    try:
        return _CONVENTION_SHIFT[convention]
    except KeyError:
        raise ValueError(f"unknown indicator convention {convention!r}") from None


# slots per block of every slot pass, and customers or bytes per block of the
# blocked customer and file passes: a block's arrays (~0.5 MB each) stay in
# cache, and no pass holds an array of slot length
_SLOT_BLOCK = 1 << 16


def _slot_blocks(first: int, end: int):
    """The slot ranges [x0, x1) of at most ``_SLOT_BLOCK`` slots that
    cover [first, end) in order."""
    for x0 in range(first, end, _SLOT_BLOCK):
        yield x0, min(x0 + _SLOT_BLOCK, end)


def _running_count(events: np.ndarray, x0: int, x1: int, sorter=None) -> np.ndarray:
    """Running count #{events <= x} for x = x0..x1-1 (x1 > x0) of an
    array of nonnegative event slots, sorted or read in the order
    ``sorter`` sorts it, as in ``np.searchsorted``.

    The events before x0 are the carry-in, found by ``searchsorted``; the
    events inside the block add one cumulative ``bincount``.  The running
    weight sum of the same events is the prefix sum of their weights, in
    event order, read at this count.
    """
    lo, hi = np.searchsorted(events, (x0, x1), sorter=sorter)
    inside = events[lo:hi] if sorter is None else events[sorter[lo:hi]]
    counts = np.bincount(inside - x0, minlength=x1 - x0)
    counts[0] += lo
    return np.cumsum(counts, out=counts)


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
    if dist.support_min < 1:
        raise ValueError("service distributions must have support >= 1")
    return dist.sample(np.random.default_rng(seed), n)


def _fifo_single(arrivals: np.ndarray, services: np.ndarray) -> np.ndarray:
    # D_k = max(A_k, D_{k-1}) + S_k, vectorized through prefix sums, in
    # place on one array besides them
    psum = np.cumsum(services)
    deps = np.empty_like(psum)
    deps[:1] = 0
    deps[1:] = psum[:-1]
    np.subtract(arrivals, deps, out=deps)
    np.maximum.accumulate(deps, out=deps)
    deps += psum
    return deps


_FIFO_BLOCK = 1 << 16  # customers converted to plain ints per block


def _fifo_starts(arrivals, services, c):
    """Start slots for FIFO with c servers, arrivals nondecreasing.

    The Kiefer-Wolfowitz recursion (Kiefer and Wolfowitz, 1955) on a heap
    of the servers' c free-at slots: customer k starts at
    max(A_k, the earliest free-at slot), and that server is next free
    S_k slots later.  Which server serves whom never enters it, so the
    starts are the same under every assignment policy: a policy only
    chooses among servers free by A_k, and every later arrival finds all
    of them free.
    """
    starts = np.empty(len(arrivals), dtype=np.int64)
    free = [0] * c
    replace = heapq.heapreplace
    for lo in range(0, len(arrivals), _FIFO_BLOCK):
        a_blk = arrivals[lo : lo + _FIFO_BLOCK].tolist()
        s_blk = services[lo : lo + _FIFO_BLOCK].tolist()
        st_blk: list[int] = []
        keep = st_blk.append
        for a, s in zip(a_blk, s_blk):
            t = free[0]
            if a > t:
                t = a
            replace(free, t + s)
            keep(t)
        starts[lo : lo + len(st_blk)] = st_blk
    return starts


def _fifo_labels(trace, c, assignment, seed):
    """Server index per customer of a FIFO trace with c servers, replayed
    from its known departures under the assignment policy.

    Busy servers sit in a heap of (free-at slot, server index).  "lowest"
    takes the heap minimum: the server that frees up first, lowest index
    on ties.  "random" picks uniformly among the servers idle at the
    arrival, one uniform of ``default_rng(seed)`` per customer: a server
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
    for lo in range(0, len(arrivals), _FIFO_BLOCK):
        a_blk = arrivals[lo : lo + _FIFO_BLOCK].tolist()
        d_blk = departures[lo : lo + _FIFO_BLOCK].tolist()
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
        chosen[lo : lo + len(ch_blk)] = ch_blk
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

    FIFO with one server gets its departures from prefix sums and all-zero
    server labels.  With c > 1 servers the starts come from
    :func:`_fifo_starts` at once, while the server labels are left to a
    deferred :func:`_fifo_labels` replay of (c, policy, seed) that runs on
    the first read of ``trace.servers``.  A "random" policy needs the seed
    here all the same.
    """
    arrivals = np.asarray(arrivals, dtype=np.int64)
    if np.any(arrivals[1:] < arrivals[:-1]):
        raise ValueError("arrival slots must be nondecreasing")
    servers = deps = None
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
        if np.any(services < 1):
            raise ValueError("service times must be at least one slot")
        if isinstance(disc, InfiniteServer):
            starts = arrivals.copy()
        elif isinstance(disc, Fifo):
            if disc.servers == 1:
                deps = _fifo_single(arrivals, services)
                starts = deps - services
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
    if deps is None:
        deps = starts + services
    if horizon is None:
        horizon = int(deps.max()) if len(deps) else 1
    return Trace(arrivals, services, starts, deps, horizon, servers)


def simulate_finite_population(
    n_sources: int,
    alpha: float,
    service: DiscreteDist,
    seed: int,
    horizon: int,
    arrival_form: str = "linear",
) -> Trace:
    """Closed-loop single-server FIFO path for a finite source population.

    At most one customer arrives per slot; with n in the system the
    per-slot arrival probability is (n_sources - n) * alpha ("linear",
    the default, which makes the path an exact state-dependent chain) or
    1 - (1-alpha)^(n_sources - n) ("at-least-one").  Slot t has an
    arrival when u[t] falls below that probability, one uniform u[t] per
    slot t = 0..horizon, drawn in blocks of ``_SLOT_BLOCK``.

    Only candidate slots, those with u[t] below the largest per-state
    probability, are visited: no other slot can hold an arrival whatever
    the state, and the state changes only at arrivals and departures.  So
    the path equals a slot-by-slot walk over the same uniforms.
    """
    FinitePopulation(n_sources, alpha)  # validates parameters
    if service.support_min < 1:
        raise ValueError("service distributions must have support >= 1")
    if arrival_form not in ("linear", "at-least-one"):
        raise ValueError(f"unknown arrival form {arrival_form!r}")
    rng = np.random.default_rng(seed)
    rng.random()  # the uniform of slot 0, drawn to keep the stream, holds no arrival
    svc_rng = np.random.default_rng(np.random.SeedSequence(seed).spawn(1)[0])
    if arrival_form == "linear":
        p = [(n_sources - n) * alpha for n in range(n_sources)]
    else:
        p = [1.0 - (1.0 - alpha) ** (n_sources - n) for n in range(n_sources)]
    p_max = max(p)

    arrivals: list[int] = []
    services: list[int] = []
    departures: list[int] = []
    svc_buf: list[int] = []
    svc_used = 0
    dep_ptr = 0  # departures with D <= t-1, FIFO keeps them sorted
    last_free = 0  # slot at which the single server frees up
    for x0, u in _uniform_blocks(rng, horizon):
        cand = np.flatnonzero(u < p_max)
        for t, u_t in zip((cand + (x0 + 1)).tolist(), u[cand].tolist()):
            while dep_ptr < len(departures) and departures[dep_ptr] < t:
                dep_ptr += 1
            n_in_system = len(arrivals) - dep_ptr  # counts A <= t-1 minus D <= t-1
            if n_in_system >= n_sources or u_t >= p[n_in_system]:
                continue
            if svc_used >= len(svc_buf):
                svc_buf = service.sample(svc_rng, 1024).tolist()
                svc_used = 0
            s = svc_buf[svc_used]
            svc_used += 1
            start = t if t > last_free else last_free
            last_free = start + s
            arrivals.append(t)
            services.append(s)
            departures.append(last_free)
    arr = np.asarray(arrivals, dtype=np.int64)
    svc = np.asarray(services, dtype=np.int64)
    dep = np.asarray(departures, dtype=np.int64)
    return Trace(arr, svc, dep - svc, dep, horizon, np.zeros(len(arr), dtype=np.int64))


def build_trace(
    arrival: ArrivalSpec,
    service: DiscreteDist | None,
    disc: DisciplineSpec,
    seed: int,
    horizon: int,
) -> Trace:
    """One-stop path construction; arrival and service streams get
    distinct seeds derived from the base seed."""
    if isinstance(arrival, FinitePopulation):
        if not (isinstance(disc, Fifo) and disc.servers == 1):
            raise ValueError("finite-population model requires a single FIFO server")
        if service is None:
            raise ValueError("finite-population model needs a service distribution")
        return simulate_finite_population(
            arrival.n_sources, arrival.alpha, service, seed, horizon
        )
    slots = gen_arrivals(arrival, seed, horizon)
    if isinstance(disc, External):
        return run_discipline(slots, None, disc, horizon)
    if service is None:
        raise ValueError("need a service distribution")
    services = sample_services(service, seed + 1, len(slots))
    return run_discipline(slots, services, disc, horizon, seed=seed + 2)


# --- trace files -----------------------------------------------------------

_CSV_HEADER = ["k", "A", "S", "Astart", "D"]
_CSV_SERVER = "server"
_CSV_HEADERS = (_CSV_HEADER[:3], _CSV_HEADER, _CSV_HEADER + [_CSV_SERVER])
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


def read_trace_csv(path, disc: DisciplineSpec | None = None, horizon: int | None = None) -> Trace:
    """Load a trace file.

    The header is ``k,A,S``, the full ``k,A,S,Astart,D`` or the full
    header plus ``server``, and every row has one value per header name;
    any other file raises ValueError.  Full rows reproduce the stored path
    verbatim, server assignment included when the file has a ``server``
    column; files carrying only (A, S) columns are re-run through the
    given discipline (FIFO single server when omitted).

    The rows are parsed ``_CSV_CHUNK`` at a time into one int64 row per
    kept column, preallocated for :func:`_line_ends` rows; the ``k``
    column is dropped.  So the call holds the trace's columns plus one
    chunk of rows; the trace's own checks take less, one block of
    ``_SLOT_BLOCK`` customers (0.6 MB).  On the 3·10^5-row reference
    file: 11.4 MB of columns and a 13.0 MB peak.
    """
    with open(path) as fh:
        header = fh.readline().rstrip("\r\n").split(",")
        if header not in _CSV_HEADERS:
            known = " or ".join(",".join(h) for h in _CSV_HEADERS)
            raise ValueError(f"{path}: header {','.join(header)!r} is not a trace header ({known})")
        cols = np.empty((len(header) - 1, _line_ends(path)), dtype=np.int64)
        n = 0
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)  # the last chunk may have no rows
            while True:  # each call resumes at the next row of fh and skips blank lines
                rows = np.loadtxt(fh, delimiter=",", dtype=np.int64, ndmin=2, max_rows=_CSV_CHUNK)
                if not rows.size:
                    break
                if rows.shape[1] != len(header):
                    raise ValueError(f"{path}: rows have {rows.shape[1]} values, the header {len(header)}")
                if n + len(rows) > cols.shape[1]:  # bare CR line ends among LF ones
                    cols = np.hstack((cols[:, :n], np.empty((len(cols), n + len(rows)), np.int64)))
                cols[:, n : n + len(rows)] = rows.T[1:]
                n += len(rows)
                if len(rows) < _CSV_CHUNK:
                    break
    cols = cols[:, :n]  # blank lines were counted as rows
    if len(cols) > 2:  # full rows
        deps = cols[3]
        T = horizon if horizon is not None else (int(deps.max()) if n else 1)
        servers = cols[4] if len(cols) == 5 else None
        return Trace(cols[0], cols[1], cols[2], deps, T, servers)
    return run_discipline(cols[0], cols[1], disc or Fifo(1), horizon)
