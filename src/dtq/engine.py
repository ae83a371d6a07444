"""Sample-path generation: input processes, service draws, and disciplines.

The engine produces one *actual* trace per model: integer arrival slots
A_k, service requirements S_k, service starts and departure slots.  The
five scheduling rules never change these integers; they are pure
micro-time shifts applied on top (see :mod:`dtq.timebase`).
"""
from __future__ import annotations

import csv
import heapq
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .timebase import MicroTime, SchedulingRule, shift_arrival, shift_departure

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
    "gen_arrivals",
    "sample_services",
    "run_discipline",
    "shift_trace",
    "pgf_eval",
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


def pgf_eval(dist: DiscreteDist, z: float) -> float:
    return dist.pgf(z)


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

    @property
    def n(self) -> int:
        return len(self.arrivals)

    @cached_property
    def _memo(self) -> dict:
        """Derived summaries, filled lazily by :func:`dtq.observer.time_averages`.

        Entries never go stale because a trace is immutable; they hold no
        slot-length path.
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

    def queue_path(self, convention: str = "strict-left") -> np.ndarray:
        """Number-in-system path L(j) for j = 0..horizon (index 0 is 0).

        "strict-left" counts a customer at j when A < j <= D; the
        "strict-right" variant uses A <= j < D.  Both give the same time
        average over a full cycle.
        """
        T = self.horizon
        if convention == "strict-left":
            first, last = self.arrivals + 1, self.departures
        elif convention == "strict-right":
            first, last = self.arrivals, self.departures - 1
        else:
            raise ValueError(f"unknown indicator convention {convention!r}")
        lo = np.clip(first, 0, T + 1)
        hi = np.clip(last + 1, 0, T + 1)
        delta = np.bincount(lo, minlength=T + 2) - np.bincount(hi, minlength=T + 2)
        return np.cumsum(delta[: T + 1])


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


def _fifo_multi(arrivals, services, c, assignment, rng):
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


def run_discipline(
    arrivals,
    services,
    disc: DisciplineSpec,
    horizon: int | None = None,
    seed: int | None = None,
) -> Trace:
    """Compute service starts and departures under a queueing discipline.

    Simultaneous arrivals are served in customer-index order.  For
    External the given departures are copied verbatim and the sojourn is
    recorded as the service requirement.
    """
    arrivals = np.asarray(arrivals, dtype=np.int64)
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
            else:
                rng = None
                if disc.assignment == "random":
                    if seed is None:
                        raise ValueError("random server assignment needs a seed")
                    rng = np.random.default_rng(seed)
                starts, chosen = _fifo_multi(
                    arrivals, services, disc.servers, disc.assignment, rng
                )
                deps = starts + services
                if horizon is None:
                    horizon = int(deps.max()) if len(deps) else 1
                return Trace(arrivals, services, starts, deps, horizon, chosen)
        else:
            raise TypeError(f"unknown discipline {disc!r}")
        deps = starts + services
    if horizon is None:
        horizon = int(deps.max()) if len(deps) else 1
    servers = np.zeros(len(arrivals), dtype=np.int64) if isinstance(disc, Fifo) else None
    return Trace(arrivals, services, starts, deps, horizon, servers)


def shift_trace(trace: Trace, rule: SchedulingRule) -> list[tuple[MicroTime, MicroTime]]:
    """Scheduled (arrival, departure) instant pairs under a rule."""
    return [
        (shift_arrival(rule, int(a)), shift_departure(rule, int(d)))
        for a, d in zip(trace.arrivals, trace.departures)
    ]


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
    1 - (1-alpha)^(n_sources - n) ("at-least-one").
    """
    spec = FinitePopulation(n_sources, alpha)  # validates parameters
    if service.support_min < 1:
        raise ValueError("service distributions must have support >= 1")
    if arrival_form not in ("linear", "at-least-one"):
        raise ValueError(f"unknown arrival form {arrival_form!r}")
    rng = np.random.default_rng(seed)
    u = rng.random(horizon + 1)
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
        if arrival_form == "linear":
            p = idle * alpha
        else:
            p = 1.0 - (1.0 - alpha) ** idle
        if u[t] < p:
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


def write_trace_csv(trace: Trace, path) -> None:
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(_CSV_HEADER)
        for k in range(trace.n):
            w.writerow(
                [
                    k + 1,
                    int(trace.arrivals[k]),
                    int(trace.services[k]),
                    int(trace.starts[k]),
                    int(trace.departures[k]),
                ]
            )


def read_trace_csv(path, disc: DisciplineSpec | None = None, horizon: int | None = None) -> Trace:
    """Load a trace file.

    Full rows reproduce the stored path verbatim; files carrying only
    (A, S) columns are re-run through the given discipline (FIFO single
    server when omitted).
    """
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    if not rows or rows[0][: 2] != ["k", "A"]:
        raise ValueError(f"{path}: not a trace file")
    header = rows[0]
    body = [r for r in rows[1:] if r]
    arrivals = np.asarray([int(r[1]) for r in body], dtype=np.int64)
    if header == _CSV_HEADER and all(len(r) == 5 for r in body):
        services = np.asarray([int(r[2]) for r in body], dtype=np.int64)
        starts = np.asarray([int(r[3]) for r in body], dtype=np.int64)
        deps = np.asarray([int(r[4]) for r in body], dtype=np.int64)
        T = horizon if horizon is not None else (int(deps.max()) if len(deps) else 1)
        return Trace(arrivals, services, starts, deps, T)
    services = np.asarray([int(r[2]) for r in body], dtype=np.int64)
    return run_discipline(arrivals, services, disc or Fifo(1), horizon)
