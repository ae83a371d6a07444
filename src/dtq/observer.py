"""Actual and observed waiting times, queue lengths, and time averages.

The actual system counts a customer at slot index j when A < j <= D.
Under a scheduling rule and observation epoch the same customer is seen
exactly at the slot indices A + s0 .. D + e0, where (s0, e0) is the
combo's :func:`dtq.timebase.span_shift`; all observed quantities here
are indicator sums over that span.  The 30 combos share only five span
shifts, so every observed quantity is a function of the shift alone.

Every queue path is a difference of the two counting processes of a
trace: the path of shift (s0, e0) is N_A(j - s0) - N_D(j - e0 - 1), and
the actual path is shift (1, 0) (strict-left) or (0, -1) (strict-right).
No time average holds a slot-length array: the slots are taken in
blocks of ``dtq.engine._SLOT_BLOCK``, and each block's counts come from
:func:`dtq.engine._running_count` on the sorted arrival and departure
slots, with the counts before the block as its carry-in.  Only the
materializers :meth:`dtq.engine.Trace.shift_path` and
:func:`observed_queue_path` build a whole path.

:func:`window` owns the averaging window (warmup, T]: the default
warmup T // 10 and its range check, lambda, W and the completed-customer
mask.  Every time average here and every cost-rate law in
:mod:`dtq.littles` reads it, memoized on the trace per warmup.

:func:`time_averages` memoizes too, lazily.  The first call for a warmup
makes one blocked pass over the window and sums one window per
coherence class: the two shifts of a class, (0, e0) and (1, e0 + 1), are
one-slot lags of each other, so one window gives L and pi of both.  It
keeps those five as integer totals and histograms carried from block to
block; W_obs is kept per (s0, e0, warmup).  The memo relies on traces
being immutable: a Trace is frozen and its arrays must not be modified
in place once averages are taken.  It holds scalars, state histograms
and one read-only customer-length mask, never a slot-length array, and
it hands out copies of the histograms, so callers cannot alter it.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .engine import Trace, _running_count, _slot_blocks, convention_shift
from .timebase import (
    EPOCHS,
    RULES,
    ObservationEpoch,
    SchedulingRule,
    span_shift,
)

__all__ = [
    "InsufficientDataError",
    "QueueEstimates",
    "Window",
    "observed_waits",
    "observed_queue_path",
    "time_averages",
    "window",
]


class InsufficientDataError(ValueError):
    """No customer both arrived and departed inside the averaging window."""


def observed_waits(trace: Trace, rule: SchedulingRule, epoch: ObservationEpoch) -> np.ndarray:
    """Per-customer observed waiting times as an array."""
    return _seen_slots(trace.arrivals.copy(), trace.departures.copy(), *span_shift(rule, epoch))


def _seen_slots(a: np.ndarray, d: np.ndarray, s0: int, e0: int) -> np.ndarray:
    """Slot indices from max(A + s0, 1) to D + e0 per customer, at least
    0, computed in place on the caller's fresh copies ``a`` and ``d``."""
    a += s0
    np.maximum(a, 1, out=a)
    d += e0 + 1
    d -= a
    return np.maximum(d, 0, out=d)


def observed_queue_path(
    trace: Trace, rule: SchedulingRule, epoch: ObservationEpoch
) -> np.ndarray:
    """Observed number-in-system at u(j) for j = 0..horizon (entry 0 is 0)."""
    path = trace.shift_path(*span_shift(rule, epoch))
    path[0] = 0
    return path


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


@dataclass(frozen=True)
class Window:
    """The averaging window (warmup, T] and its actual-customer summaries."""

    warmup: int
    span: int  # T - warmup slots
    lam: float  # arrivals in the window per window slot
    W: float  # mean sojourn of the completed customers
    completed: np.ndarray  # read-only mask: arrived and departed in the window
    n_completed: int


def window(trace: Trace, warmup: int | None = None) -> Window:
    """The window every time average and cost-rate law of a trace reads.

    The warmup defaults to T // 10 and must lie in [0, T).  A customer is
    completed when it both arrives and departs inside the window; raises
    InsufficientDataError when none is.  Memoized on the trace per warmup.
    """
    T = trace.horizon
    warmup = T // 10 if warmup is None else warmup
    if not 0 <= warmup < T:
        raise ValueError(f"warmup {warmup} must lie in [0, horizon)")
    win = trace._memo.get(("window", warmup))
    if win is None:
        # arrivals are sorted: the ones in the window are a run of customers
        first, end = np.searchsorted(trace.arrivals, (warmup, T), side="right")
        completed = trace.departures <= T
        completed[:first] = False
        completed.flags.writeable = False
        n = int(np.count_nonzero(completed))
        if n == 0:
            raise InsufficientDataError(f"no customer arrives and departs inside ({warmup}, {T}]")
        span = T - warmup
        lam = int(end - first) / span
        # an integer sum below 2**53 makes W equal the float mean; the waits
        # are the one customer-length temporary, summed under the mask
        W = int(trace.waits.sum(where=completed)) / n
        win = trace._memo["window", warmup] = Window(warmup, span, lam, W, completed, n)
    return win


def time_averages(
    trace: Trace,
    rule: SchedulingRule | None = None,
    epoch: ObservationEpoch | None = None,
    warmup: int | None = None,
    convention: str = "strict-left",
) -> QueueEstimates:
    """Arrival rate, mean waits, mean queue lengths and state histograms
    over the :func:`window` of the given warmup.

    W averages only the window's completed customers; lambda counts
    arrivals per window slot.  With no rule/epoch the observed columns
    coincide with the actual ones.  Results are memoized on the trace
    (see the module docstring).
    """
    actual = convention_shift(convention)
    win = window(trace, warmup)
    windows = _window_block(trace, win.warmup)
    L, pi = windows[actual]
    if rule is None or epoch is None:
        W_obs, L_obs, pi_obs = win.W, L, pi
    else:
        W_obs = _observed_wait(trace, rule, epoch, win)
        L_obs, pi_obs = windows[span_shift(rule, epoch)]
    return QueueEstimates(
        win.lam, win.W, L, W_obs, L_obs, pi.copy(), pi_obs.copy(),
        trace.horizon, win.warmup, rule, epoch, win.n_completed,
    )


def _window_block(trace: Trace, warmup: int) -> dict:
    """L and pi over the window (warmup, T] for every span shift, from one
    pass over the slots in blocks of ``_SLOT_BLOCK`` and one window per
    coherence class.

    The window of shift (0, e0) is N_A(j) - N_D(j - e0 - 1); each block
    takes N_A and one run of N_D from :func:`dtq.engine._running_count`
    and reads the three class windows off them.  Shift (1, e0 + 1) is
    shift (0, e0) one slot later, so the window of (0, e0) over slots
    warmup..T serves both: (0, e0) reads its last span entries and
    (1, e0 + 1) its first; the head (slot warmup) and the tail (slot T)
    are scalars.  Sums and histograms stay integer until the one division
    by the span, so both equal a direct mean and bincount bit for bit.
    """
    key = ("windows", warmup)
    block = trace._memo.get(key)
    if block is not None:
        return block
    T = trace.horizon
    span = T - warmup
    a, d = trace.arrivals, np.sort(trace.departures, kind="stable")
    lags = [e0 + 1 for s0, e0 in _SHIFTS if not s0]  # N_D lags behind N_A by k slots
    # each window's head, at slot warmup before the blocks, and its tail at slot T
    arrived = np.searchsorted(a, (warmup, T), "right")
    ends = {k: arrived - np.searchsorted(d, (warmup - k, T - k), "right") for k in lags}
    totals = dict.fromkeys(lags, 0)
    hists = {k: np.zeros(int(ends[k][0]) + 1, dtype=np.int64) for k in lags}
    for x0, x1 in _slot_blocks(warmup + 1, T + 1):
        n_a = _running_count(a, x0, x1)
        n_d = _running_count(d, x0 - 1, x1 + 1)  # N_D(j - k) for k = 1, 0, -1
        for k in lags:
            window = n_a - n_d[1 - k : 1 - k + x1 - x0]
            totals[k] += int(window.sum())
            hist = np.bincount(window, minlength=len(hists[k]))
            hist[: len(hists[k])] += hists[k]
            hists[k] = hist
    block = {}
    for k in lags:
        total, hist, (head, tail) = totals[k], hists[k], map(int, ends[k])
        block[0, k - 1] = (total / span, np.trim_zeros(hist, "b") / span)
        if (1, k) in _SHIFTS:
            hist[head] += 1
            hist[tail] -= 1
            block[1, k] = ((total + head - tail) / span, np.trim_zeros(hist, "b") / span)
    trace._memo[key] = block
    return block


def _observed_wait(trace: Trace, rule, epoch, win: Window) -> float:
    # the completed mask depends on the warmup alone, so the key needs no convention
    s0, e0 = span_shift(rule, epoch)
    key = ("observed", s0, e0, win.warmup)
    W_obs = trace._memo.get(key)
    if W_obs is None:
        done = win.completed
        seen = _seen_slots(trace.arrivals[done], trace.departures[done], s0, e0)
        W_obs = trace._memo[key] = float(seen.mean())
    return W_obs
