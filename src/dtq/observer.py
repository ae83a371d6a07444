"""Actual and observed waiting times, queue lengths, and time averages.

The actual system counts a customer at slot index j when A < j <= D.
Under a scheduling rule and observation epoch the same customer is seen
exactly at the slot indices A + s0 .. D + e0, where (s0, e0) is the
combo's :func:`dtq.timebase.span_shift`; all observed quantities here
are indicator sums over that span.  The 30 combos share only five span
shifts, so every observed quantity is a function of the shift alone.

Every queue path is a slice of the two counting processes of a trace:
the path of shift (s0, e0) is N_A(j - s0) - N_D(j - e0 - 1), and the
actual path is shift (1, 0) (strict-left) or (0, -1) (strict-right)
(see :meth:`dtq.engine.Trace.shift_path`).

:func:`time_averages` memoizes on the trace, lazily.  The first call for
a warmup builds the counting processes once and three windows of them,
one per coherence class: the two shifts of a class, (0, e0) and
(1, e0 + 1), are one-slot lags of each other, so one window gives L and
pi of both.  It keeps those five and drops the counts and windows.
The actual block (lambda, W and the completed-customer mask) is kept per
warmup and reads L and pi off its convention's shift; W_obs is kept per
(s0, e0, warmup).  The memo relies on traces being immutable: a Trace
is frozen and its arrays must not be modified in place once averages
are taken.  It holds scalars, state histograms and one customer-length
mask, never a slot-length array, and it hands out copies, so callers
cannot alter it.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import busy as busy_mod
from .engine import Trace, convention_shift
from .timebase import (
    EPOCHS,
    RULES,
    ObservationEpoch,
    SchedulingRule,
    observation_span,
    span_shift,
)

__all__ = [
    "InsufficientDataError",
    "QueueEstimates",
    "CycleVisitCounts",
    "observed_waits",
    "observed_queue_path",
    "observed_service_spans",
    "time_averages",
    "cycle_visit_counts",
]


class InsufficientDataError(ValueError):
    """No customer both arrived and departed inside the averaging window."""


def observed_waits(trace: Trace, rule: SchedulingRule, epoch: ObservationEpoch) -> np.ndarray:
    """Per-customer observed waiting times as an array."""
    s0, e0 = span_shift(rule, epoch)
    return np.maximum(0, trace.departures + e0 - np.maximum(trace.arrivals + s0, 1) + 1)


def observed_queue_path(
    trace: Trace, rule: SchedulingRule, epoch: ObservationEpoch
) -> np.ndarray:
    """Observed number-in-system at u(j) for j = 0..horizon (entry 0 is 0)."""
    path = trace.shift_path(*span_shift(rule, epoch))
    path[0] = 0
    return path


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


# the five span shifts the 30 rule/epoch combos reduce to
_SHIFTS = tuple(sorted({span_shift(rule, epoch) for rule in RULES for epoch in EPOCHS}))


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
    actual = convention_shift(convention)
    lam, W, n_completed, completed = _actual_block(trace, warmup)
    windows = _window_block(trace, warmup)
    L, pi = windows[actual]
    if rule is None or epoch is None:
        W_obs, L_obs, pi_obs = W, L, pi
    else:
        W_obs = _observed_wait(trace, rule, epoch, warmup, completed)
        L_obs, pi_obs = windows[span_shift(rule, epoch)]
    return QueueEstimates(
        lam, W, L, W_obs, L_obs, pi.copy(), pi_obs.copy(), T, warmup, rule, epoch, n_completed
    )


def _actual_block(trace: Trace, warmup: int):
    key = ("actual", warmup)
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
    block = trace._memo[key] = (lam, W, n_completed, completed)
    return block


def _window_block(trace: Trace, warmup: int) -> dict:
    """L and pi over the window (warmup, T] for every span shift, from one
    build of the counting processes and one window per coherence class.

    Shift (1, e0 + 1) is shift (0, e0) one slot later, so the window of
    (0, e0) over slots warmup..T serves both: (0, e0) reads its last span
    entries and (1, e0 + 1) its first.  Sums and histograms stay integer
    until the one division by the span, so both equal a direct mean and
    bincount bit for bit.
    """
    key = ("windows", warmup)
    block = trace._memo.get(key)
    if block is not None:
        return block
    span = trace.horizon - warmup
    counts = trace.counting_processes()
    block = {}
    for s0, e0 in _SHIFTS:
        if s0:
            continue
        window = trace.shift_path(0, e0, warmup, counts)
        head, tail = int(window[0]), int(window[-1])
        total = int(window[1:].sum())
        hist = np.bincount(window[1:], minlength=head + 1)
        block[0, e0] = (total / span, np.trim_zeros(hist, "b") / span)
        if (1, e0 + 1) in _SHIFTS:
            hist[head] += 1
            hist[tail] -= 1
            block[1, e0 + 1] = ((total + head - tail) / span, np.trim_zeros(hist, "b") / span)
    trace._memo[key] = block
    return block


def _observed_wait(trace: Trace, rule, epoch, warmup: int, completed: np.ndarray) -> float:
    # the completed mask depends on the warmup alone, so the key needs no convention
    key = ("observed", *span_shift(rule, epoch), warmup)
    W_obs = trace._memo.get(key)
    if W_obs is None:
        W_obs = trace._memo[key] = float(observed_waits(trace, rule, epoch)[completed].mean())
    return W_obs


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
