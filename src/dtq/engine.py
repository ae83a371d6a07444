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
from functools import cached_property

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
        return vals[np.minimum(idx, len(vals) - 1)]


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
    """Work conserving FIFO with c identical unit-rate servers."""

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

@dataclass(frozen=True)
class Trace:
    """One actual sample path over (0, horizon] slots.

    arrivals, services, starts and departures are aligned per-customer
    int64 arrays with D_k = start_k + S_k; servers (when present) holds
    the serving-server index per customer.
    """

    arrivals: np.ndarray
    services: np.ndarray
    starts: np.ndarray
    departures: np.ndarray
    horizon: int
    servers: np.ndarray | None = None

    def __post_init__(self):
        n = len(self.arrivals)
        for name in ("services", "starts", "departures"):
            if len(getattr(self, name)) != n:
                raise ValueError("per-customer arrays must have equal length")
        if self.servers is not None and len(self.servers) != n:
            raise ValueError("servers must hold one index per customer")
        if self.horizon < 1:
            raise ValueError("horizon must be at least one slot")
        if n:
            a, s, b, d = self.arrivals, self.services, self.starts, self.departures
            if np.any(a[1:] < a[:-1]):
                raise ValueError("arrival slots must be nondecreasing")
            if np.any(a < 0):
                raise ValueError("arrival slots must be nonnegative")
            if np.any(s < 1):
                raise ValueError("service times must be at least one slot")
            if np.any(b < a):
                raise ValueError("service cannot start before arrival")
            if np.any(d != b + s):
                raise ValueError("departures must equal start plus service")
            if self.servers is not None and np.any(self.servers < 0):
                raise ValueError("server indices must be nonnegative")

    @property
    def n(self) -> int:
        return len(self.arrivals)

    @cached_property
    def _memo(self) -> dict:
        """Derived summaries, filled lazily per warmup: the averaging
        window of :func:`dtq.observer.window`, which every time average and
        cost-rate law reads; L and pi of all five span shifts, from one
        build of :meth:`counting_processes` and one window per coherence
        class; and :func:`dtq.littles.workload_moments`, whose EV is a
        closed-form piece sum over customers.  Entries never go stale
        because a trace is immutable; they hold scalars, state histograms
        and read-only customer-length masks, never a slot-length array.
        """
        return {}

    @property
    def waits(self) -> np.ndarray:
        """Actual sojourn times D_k - A_k."""
        return self.departures - self.arrivals

    @property
    def queue_waits(self) -> np.ndarray:
        """Waiting times in queue, start minus arrival."""
        return self.starts - self.arrivals

    def counting_processes(self) -> tuple[np.ndarray, np.ndarray]:
        """Cumulative counts N_A[x] = #{A <= x} and N_D[x] = #{D <= x}
        for x = 0..horizon+1.

        Every queue path is a slice of these two (see :meth:`shift_path`).
        """
        T = self.horizon
        out = []
        for slots in (self.arrivals, self.departures):
            # slots past T + 1 all land in bin T + 2, which is dropped
            counts = np.bincount(np.minimum(slots, T + 2), minlength=T + 3)
            np.cumsum(counts, out=counts)
            out.append(counts[: T + 2])
        return out[0], out[1]

    def shift_path(self, s0: int, e0: int, first: int = 0, counts=None) -> np.ndarray:
        """Number of customers whose span A + s0 .. D + e0 covers j, for
        j = first..horizon: N_A[j - s0] - N_D[j - e0 - 1], a count at a
        negative index being 0.

        ``counts`` is the result of :meth:`counting_processes` when the
        caller already holds it.
        """
        T = self.horizon
        k = e0 + 1  # departures leave the count k slots after D
        if not (0 <= s0 <= 1 and -1 <= k <= 1 and 0 <= first <= T):
            raise ValueError(f"span shift ({s0}, {e0}) from slot {first} is out of range")
        n_a, n_d = counts if counts is not None else self.counting_processes()
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
        return np.flatnonzero(rng.random(horizon) < spec.alpha).astype(np.int64) + 1
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
    # D_k = max(A_k, D_{k-1}) + S_k, vectorized through prefix sums.
    psum = np.cumsum(services)
    prev = np.concatenate(([0], psum[:-1]))
    return psum + np.maximum.accumulate(arrivals - prev)


_FIFO_BLOCK = 1 << 16  # customers converted to plain ints per block


def _fifo_multi(arrivals, services, c, assignment, rng):
    """Start slots and servers for FIFO with c servers, arrivals nondecreasing.

    "lowest" takes the server that frees up first (lowest index on ties).
    "random" picks uniformly among the servers idle at the arrival: a server
    leaves the busy heap for the idle list once it is free by the arrival
    slot, which stays valid because later arrivals come no earlier.  The
    start slot never depends on which idle server is picked.
    """
    starts = np.empty(len(arrivals), dtype=np.int64)
    chosen = np.empty(len(arrivals), dtype=np.int64)
    heap = [(0, i) for i in range(c)]  # (free-at slot, server index)
    idle: list[int] = []
    pick_random = assignment == "random"
    for lo in range(0, len(arrivals), _FIFO_BLOCK):
        a_blk = arrivals[lo : lo + _FIFO_BLOCK].tolist()
        s_blk = services[lo : lo + _FIFO_BLOCK].tolist()
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
    """
    arrivals = np.asarray(arrivals, dtype=np.int64)
    if np.any(arrivals[1:] < arrivals[:-1]):
        raise ValueError("arrival slots must be nondecreasing")
    servers = None
    if isinstance(disc, External):
        deps = np.asarray(disc.departures, dtype=np.int64)
        if len(deps) != len(arrivals):
            raise ValueError("need one departure per arrival")
        if np.any(deps < arrivals + 1):
            raise ValueError("departures must be at least one slot after arrivals")
        services = deps - arrivals
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
                rng = None
                if disc.assignment == "random":
                    if seed is None:
                        raise ValueError("random server assignment needs a seed")
                    rng = np.random.default_rng(seed)
                starts, servers = _fifo_multi(
                    arrivals, services, disc.servers, disc.assignment, rng
                )
        else:
            raise TypeError(f"unknown discipline {disc!r}")
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
    slot.

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
    u = rng.random(horizon + 1)
    svc_rng = np.random.default_rng(np.random.SeedSequence(seed).spawn(1)[0])
    if arrival_form == "linear":
        p = [(n_sources - n) * alpha for n in range(n_sources)]
    else:
        p = [1.0 - (1.0 - alpha) ** (n_sources - n) for n in range(n_sources)]
    cand = np.flatnonzero(u[1:] < max(p)) + 1

    arrivals: list[int] = []
    services: list[int] = []
    departures: list[int] = []
    svc_buf: list[int] = []
    svc_used = 0
    dep_ptr = 0  # departures with D <= t-1, FIFO keeps them sorted
    last_free = 0  # slot at which the single server frees up
    for t, u_t in zip(cand.tolist(), u[cand].tolist()):
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
_CSV_CHUNK = 1 << 16  # rows formatted per write, bounds the transient int list


def write_trace_csv(trace: Trace, path) -> None:
    """Write one row per customer, with the CRLF line ends ``csv.writer``
    emits; a ``server`` column follows exactly when the trace carries a
    server assignment."""
    header = list(_CSV_HEADER)
    cols = [np.arange(1, trace.n + 1), trace.arrivals, trace.services, trace.starts, trace.departures]
    if trace.servers is not None:
        header.append(_CSV_SERVER)
        cols.append(trace.servers)
    table = np.column_stack(cols)
    row = ",".join(["%d"] * len(cols)) + "\r\n"
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\r\n")
        for i in range(0, trace.n, _CSV_CHUNK):
            block = table[i : i + _CSV_CHUNK]
            fh.write(row * len(block) % tuple(block.ravel().tolist()))


def read_trace_csv(path, disc: DisciplineSpec | None = None, horizon: int | None = None) -> Trace:
    """Load a trace file.

    Full rows reproduce the stored path verbatim, server assignment
    included when the file has a ``server`` column; files carrying only
    (A, S) columns are re-run through the given discipline (FIFO single
    server when omitted).
    """
    with open(path) as fh:
        header = fh.readline().rstrip("\r\n").split(",")
        if header[:2] != ["k", "A"]:
            raise ValueError(f"{path}: not a trace file")
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)  # a header-only file has no rows
            body = np.loadtxt(fh, delimiter=",", dtype=np.int64, ndmin=2)
    if body.size == 0:
        body = body.reshape(0, len(header))
    if body.shape[1] < 3:
        raise ValueError(f"{path}: need at least the k, A and S columns")
    cols = body.T.copy()  # one contiguous row per column
    if header in (_CSV_HEADER, _CSV_HEADER + [_CSV_SERVER]) and len(cols) == len(header):
        deps = cols[4]
        T = horizon if horizon is not None else (int(deps.max()) if len(deps) else 1)
        servers = cols[5] if len(cols) == 6 else None
        return Trace(cols[1], cols[2], cols[3], deps, T, servers)
    return run_discipline(cols[1], cols[2], disc or Fifo(1), horizon)
