"""Actual and observed waiting times, queue lengths, and time averages.

The actual system counts a customer at slot index j when A < j <= D.
Under a scheduling rule and observation epoch the same customer is seen
exactly at the slot indices A + s0 .. D + e0, where (s0, e0) is the
combo's :func:`dtq.timebase.span_shift`; all observed quantities here
are indicator sums over that span.  The 30 combos share only five span
shifts, so every observed quantity is a function of the shift alone.

:func:`time_averages` memoizes on the trace, lazily: the actual block
(lambda, W, L, pi and the completed-customer mask) per (warmup,
convention) and the observed block (W_obs, L_obs, pi_obs) per (s0, e0,
warmup).  The memo relies on traces being immutable: a Trace is frozen
and its arrays must not be modified in place once averages are taken.
It holds scalars, state histograms and one customer-length mask, never
a slot-length path, and it hands out copies, so callers cannot alter it.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import busy as busy_mod
from .engine import Trace
from .timebase import ObservationEpoch, SchedulingRule, observation_span, span_shift

__all__ = [
    "InsufficientDataError",
    "QueueEstimates",
    "CycleVisitCounts",
    "actual_wait",
    "observed_wait",
    "observed_waits",
    "queue_length",
    "queue_length_observed",
    "observed_queue_path",
    "observed_service_spans",
    "time_averages",
    "cycle_visit_counts",
]


class InsufficientDataError(ValueError):
    """No customer both arrived and departed inside the averaging window."""


def actual_wait(arrival_slot: int, departure_slot: int) -> int:
    """Sojourn D - A in slots; equal to the per-slot indicator count."""
    if departure_slot < arrival_slot + 1:
        raise ValueError(
            f"departure {departure_slot} must be at least one slot after arrival {arrival_slot}"
        )
    return departure_slot - arrival_slot


def observed_wait(
    rule: SchedulingRule, epoch: ObservationEpoch, arrival_slot: int, departure_slot: int
) -> int:
    """Number of observation instants u(t), t >= 1, seeing the customer."""
    if departure_slot < arrival_slot + 1:
        raise ValueError(
            f"departure {departure_slot} must be at least one slot after arrival {arrival_slot}"
        )
    start, end = observation_span(rule, epoch, arrival_slot, departure_slot)
    return max(0, end - max(start, 1) + 1)


def observed_waits(trace: Trace, rule: SchedulingRule, epoch: ObservationEpoch) -> np.ndarray:
    """Per-customer observed waiting times as an array."""
    s0, e0 = span_shift(rule, epoch)
    return np.maximum(0, trace.departures + e0 - np.maximum(trace.arrivals + s0, 1) + 1)


def queue_length(trace: Trace, tau: int, convention: str = "strict-left") -> int:
    """Number of customers in the actual system at slot index tau."""
    if not 0 <= tau <= trace.horizon:
        raise ValueError(f"slot index {tau} outside (0, {trace.horizon}]")
    return int(trace.queue_path(convention)[tau])


def queue_length_observed(
    trace: Trace, rule: SchedulingRule, epoch: ObservationEpoch, tau: int
) -> int:
    """Number of customers seen at the observation instant of slot tau."""
    if not 0 <= tau <= trace.horizon:
        raise ValueError(f"slot index {tau} outside (0, {trace.horizon}]")
    start, end = observation_span(rule, epoch, trace.arrivals, trace.departures)
    return int(np.count_nonzero((start <= tau) & (tau <= end)))


def observed_queue_path(
    trace: Trace, rule: SchedulingRule, epoch: ObservationEpoch
) -> np.ndarray:
    """Observed number-in-system at u(j) for j = 0..horizon (entry 0 is 0)."""
    T = trace.horizon
    s0, e0 = span_shift(rule, epoch)
    lo = np.clip(trace.arrivals + s0, 1, T + 1)
    hi = np.clip(trace.departures + (e0 + 1), 1, T + 1)
    delta = np.bincount(lo, minlength=T + 2) - np.bincount(hi, minlength=T + 2)
    return np.cumsum(delta[: T + 1])


def observed_service_spans(
    trace: Trace, rule: SchedulingRule, epoch: ObservationEpoch
) -> np.ndarray:
    """Observed in-service slot counts per customer.

    A customer that waits begins service at the previous departure
    instant, so its service-start shifts like a departure; a customer
    entering an idle system starts at its own (shifted) arrival.
    """
    waited = trace.starts > trace.arrivals
    s_arr, e_arr = observation_span(rule, epoch, trace.starts, trace.departures)
    # re-derive the span with the start treated as a departure-tagged event
    dep_spans = observation_span(rule, epoch, trace.starts, trace.starts)
    # dep_spans[1] is the last index seeing a departure at the start slot,
    # so the in-service window opens one index later
    start = np.where(waited, dep_spans[1] + 1, s_arr)
    return np.maximum(0, e_arr - np.maximum(start, 1) + 1)


@dataclass(frozen=True)
class QueueEstimates:
    """Sample-path averages over the post-warmup window."""

    lam: float
    W: float
    L: float
    W_obs: float
    L_obs: float
    pi: np.ndarray
    pi_obs: np.ndarray
    horizon: int
    warmup: int
    rule: SchedulingRule | None
    epoch: ObservationEpoch | None
    n_completed: int = 0

    def to_json(self) -> dict:
        return {
            "lambda": self.lam,
            "L": self.L,
            "W": self.W,
            "L_obs": self.L_obs,
            "W_obs": self.W_obs,
            "pi": [float(p) for p in self.pi],
            "pi_obs": [float(p) for p in self.pi_obs],
            "horizon": self.horizon,
            "warmup": self.warmup,
            "rule": self.rule.label if self.rule else None,
            "epoch": self.epoch.label if self.epoch else None,
        }


def time_averages(
    trace: Trace,
    rule: SchedulingRule | None = None,
    epoch: ObservationEpoch | None = None,
    warmup: int | None = None,
    convention: str = "strict-left",
) -> QueueEstimates:
    """Arrival rate, mean waits, mean queue lengths and state histograms.

    W averages only customers that both arrive and depart inside the
    window; lambda counts arrivals per window slot.  With no rule/epoch
    the observed columns coincide with the actual ones.  Results are
    memoized on the trace (see the module docstring).
    """
    T = trace.horizon
    if warmup is None:
        warmup = T // 10
    if not 0 <= warmup < T:
        raise ValueError(f"warmup {warmup} must lie in [0, horizon)")
    lam, W, L, pi, n_completed, completed = _actual_block(trace, warmup, convention)
    if rule is None or epoch is None:
        W_obs, L_obs, pi_obs = W, L, pi
    else:
        W_obs, L_obs, pi_obs = _observed_block(trace, rule, epoch, warmup, completed)
    return QueueEstimates(
        lam, W, L, W_obs, L_obs, pi.copy(), pi_obs.copy(), T, warmup, rule, epoch, n_completed
    )


def _actual_block(trace: Trace, warmup: int, convention: str):
    key = ("actual", warmup, convention)
    block = trace._memo.get(key)
    if block is not None:
        return block
    T = trace.horizon
    span = T - warmup
    inside = trace.arrivals > warmup
    n_arrived = int(np.count_nonzero(inside & (trace.arrivals <= T)))
    lam = n_arrived / span

    completed = inside & (trace.departures <= T)
    n_completed = int(np.count_nonzero(completed))
    if n_completed == 0:
        raise InsufficientDataError(
            f"no customer arrives and departs inside ({warmup}, {T}]"
        )
    W = float(trace.waits[completed].mean())

    path = trace.queue_path(convention)[warmup + 1 :]
    L = float(path.mean())
    pi = np.bincount(path) / span
    block = trace._memo[key] = (lam, W, L, pi, n_completed, completed)
    return block


def _observed_block(
    trace: Trace,
    rule: SchedulingRule,
    epoch: ObservationEpoch,
    warmup: int,
    completed: np.ndarray,
):
    # the completed mask depends on the warmup alone, so the key needs no convention
    key = ("observed", *span_shift(rule, epoch), warmup)
    block = trace._memo.get(key)
    if block is not None:
        return block
    W_obs = float(observed_waits(trace, rule, epoch)[completed].mean())
    opath = observed_queue_path(trace, rule, epoch)[warmup + 1 :]
    L_obs = float(opath.mean())
    pi_obs = np.bincount(opath) / (trace.horizon - warmup)
    block = trace._memo[key] = (W_obs, L_obs, pi_obs)
    return block


@dataclass(frozen=True)
class CycleVisitCounts:
    """State-visit counts per busy cycle at a chosen observation epoch."""

    boundaries: np.ndarray  # cycle start indices, one more than cycles
    counts: list[np.ndarray] = field(default_factory=list)

    @property
    def n_cycles(self) -> int:
        return len(self.counts)


def cycle_visit_counts(
    trace: Trace,
    rule: SchedulingRule | None = None,
    epoch: ObservationEpoch | None = None,
) -> CycleVisitCounts:
    """Visits to each state during each complete busy cycle.

    Counts are taken on the observed path of the given combo (the actual
    path when rule/epoch are omitted) over the slots (U_k, U_{k+1}],
    where the U_k are that same path's cycle starts.  A coherent combo's
    path is the actual path up to a uniform one-slot lag, so its cycles
    align index by index with the actual ones.
    """
    if rule is None or epoch is None:
        path = trace.queue_path()
    else:
        path = observed_queue_path(trace, rule, epoch)
    stats = busy_mod.cycles_from_path(path)
    if stats.n_cycles == 0:
        return CycleVisitCounts(np.empty(0, dtype=np.int64), [])
    bounds = np.append(stats.U, stats.U[-1] + stats.C[-1])
    counts = [
        np.bincount(path[bounds[k] + 1 : bounds[k + 1] + 1])
        for k in range(stats.n_cycles)
    ]
    return CycleVisitCounts(bounds, counts)
