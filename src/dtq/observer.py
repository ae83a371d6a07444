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
:func:`dtq.engine._counts`, the one builder of per-slot counts, yields
the arrivals and departures per slot block by block, each block's carry
in its first entry, so a cumsum gives N_A, N_D or their difference, and
nothing joins the blocks into a whole path:
no function in dtq allocates an array of horizon length, and slot paths
live only in the test oracles of ``tests/conftest.py``.

:func:`window` owns the averaging window (warmup, T]: the default
warmup T // 10 and its range check, lambda, W and the completed-customer
mask.  Every time average here and every cost-rate law in
:mod:`dtq.littles` reads it, memoized on the trace per warmup.

:func:`time_averages` memoizes too, lazily.  The first call for a warmup
makes one blocked pass over the window and counts one window per
coherence class: the two shifts of a class, (0, e0) and (1, e0 + 1), are
one-slot lags of each other, so one window gives L and pi of both.  One
cumsum per block gives the in-system count, and the other two class
windows are it plus or minus the departures of one slot.  Only the three
integer histograms are carried from block to block; each window's total
is sum n * h[n] of its histogram.  W_obs needs no pass of its own: a
completed customer arrives after the warmup, so A + s0 >= 1, and serves
at least one slot, so it is seen at exactly W + k slots for the class
offset k = e0 + 1 - s0, and W_obs is the window's integer sojourn total
plus n * k, divided once by n.  The memo relies on traces being
immutable: a Trace is frozen and its arrays must not be modified in place
once averages are taken.  It holds scalars, state histograms and one
read-only customer-length mask, never a slot-length array, and it hands
out copies of the histograms, so callers cannot alter it.
"""
from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .engine import Trace, _counts, convention_shift
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
    "time_averages",
    "window",
]


class InsufficientDataError(ValueError):
    """No customer both arrived and departed inside the averaging window."""


def observed_waits(trace: Trace, rule: SchedulingRule, epoch: ObservationEpoch) -> np.ndarray:
    """Per-customer observed waiting times as an array."""
    a, d = trace.arrivals, trace.departures
    return _seen_slots(a, d, *span_shift(rule, epoch), np.empty_like(a), np.empty_like(d))


def _seen_slots(
    a: np.ndarray, d: np.ndarray, s0: int, e0: int, first: np.ndarray, seen: np.ndarray
) -> np.ndarray:
    """Slot indices from max(A + s0, 1) to D + e0 per customer, at least
    0, written into ``seen``; ``first`` receives max(A + s0, 1).  Both are
    the caller's buffers of the length of ``a``, so the caller decides
    whether a customer-length array is made.  Returns ``seen``."""
    np.add(a, s0, out=first)
    np.maximum(first, 1, out=first)
    np.add(d, e0 + 1, out=seen)
    seen -= first
    return np.maximum(seen, 0, out=seen)


class QueueEstimates(NamedTuple):
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


class Window(NamedTuple):
    """The averaging window (warmup, T] and its actual-customer summaries.

    ``sojourn`` is the integer sum of D - A over the completed customers;
    it is below 2**53, so W = sojourn / n equals their float mean, and any
    class offset k gives their observed mean wait (sojourn + n * k) / n.
    """

    warmup: int
    span: int  # T - warmup slots
    lam: float  # arrivals in the window per window slot
    W: float  # mean sojourn of the completed customers
    completed: np.ndarray  # read-only mask: arrived and departed in the window
    n_completed: int
    sojourn: int  # total sojourn of the completed customers


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
        # masked sums of D and of A: no customer-length D - A is built
        sojourn = int(trace.departures.sum(where=completed)) - int(trace.arrivals.sum(where=completed))
        win = trace._memo["window", warmup] = Window(
            warmup, span, lam, sojourn / n, completed, n, sojourn
        )
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
    arrivals per window slot.  W_obs is (sojourn + n * k) / n for the
    combo's class offset k = e0 + 1 - s0: each completed customer is seen
    at exactly W + k slots, because neither clip of :func:`observed_waits`
    binds on it (see the module docstring).  With no rule/epoch the
    observed columns coincide with the actual ones.  Results are memoized
    on the trace.
    """
    actual = convention_shift(convention)
    win = window(trace, warmup)
    windows = _window_block(trace, win.warmup)
    L, pi = windows[actual]
    if rule is None or epoch is None:
        W_obs, L_obs, pi_obs = win.W, L, pi
    else:
        s0, e0 = span_shift(rule, epoch)
        n = win.n_completed
        W_obs = (win.sojourn + n * (e0 + 1 - s0)) / n
        L_obs, pi_obs = windows[s0, e0]
    return QueueEstimates(
        win.lam, win.W, L, W_obs, L_obs, pi.copy(), pi_obs.copy(),
        trace.horizon, win.warmup, rule, epoch, win.n_completed,
    )


def _window_block(trace: Trace, warmup: int) -> dict:
    """L and pi over the window (warmup, T] for every span shift, from one
    pass over the slots in blocks of ``_SLOT_BLOCK`` and one window per
    coherence class.

    The window of shift (0, e0) is N_A(j) - N_D(j - e0 - 1).  Each block
    of :func:`dtq.engine._counts` holds the arrivals and departures per
    slot, one slot past both ends, with the carry-in in entry 0, so one
    cumsum of their difference is the in-system count
    W0(j) = N_A(j) - N_D(j), and the other two class windows follow from
    it and the departures dep(j) in slot j: N_A(j) - N_D(j - 1) =
    W0(j) + dep(j) and N_A(j) - N_D(j + 1) = W0(j) - dep(j + 1), each
    written into one reused block buffer.  Shift (1, e0 + 1) is shift
    (0, e0) one slot later, so the window of (0, e0) over slots warmup..T
    serves both: (0, e0) reads its last span entries and (1, e0 + 1) its
    first; the head (slot warmup) and the tail (slot T) are scalars.  Only
    the histograms are carried from block to block; each total is
    sum n * h[n] of its histogram.  Both stay integer until the one
    division by the span, so they equal a direct mean and bincount bit for
    bit.
    """
    key = ("windows", warmup)
    block = trace._memo.get(key)
    if block is not None:
        return block
    T = trace.horizon
    span = T - warmup
    a, d = trace.arrivals, _in_order(trace.departures)
    lags = [e0 + 1 for s0, e0 in _SHIFTS if not s0]  # N_D lags behind N_A by k slots
    # each window's head, at slot warmup before the blocks, and its tail at slot T
    arrived = np.searchsorted(a, (warmup, T), "right")
    ends = {k: arrived - np.searchsorted(d, (warmup - k, T - k), "right") for k in lags}
    hists = {k: np.zeros(int(ends[k][0]) + 1, dtype=np.int64) for k in lags}

    def count(k, window):
        hist = np.bincount(window, minlength=len(hists[k]))
        hist[: len(hists[k])] += hists[k]
        hists[k] = hist

    buf = None
    for arr, dep in _counts(a, d, warmup + 1, T + 1):  # events at x = x0-1..x1
        np.subtract(arr, dep, out=arr)
        in_system = np.cumsum(arr, out=arr)[1:-1]  # W0(j) at j = x0..x1-1
        if buf is None:  # the first block is the longest
            buf = np.empty_like(in_system)
        window = buf[: len(in_system)]
        count(0, in_system)
        count(1, np.add(in_system, dep[1:-1], out=window))
        count(-1, np.subtract(in_system, dep[2:], out=window))
        del arr, dep, in_system, window  # let go of this block before _counts builds the next
    block = {}
    for k in lags:
        hist, (head, tail) = hists[k], map(int, ends[k])
        total = int(hist @ np.arange(len(hist)))
        block[0, k - 1] = (total / span, np.trim_zeros(hist, "b") / span)
        if (1, k) in _SHIFTS:
            hist[head] += 1
            hist[tail] -= 1
            block[1, k] = ((total + head - tail) / span, np.trim_zeros(hist, "b") / span)
    trace._memo[key] = block
    return block


def _in_order(d: np.ndarray) -> np.ndarray:
    """``d`` itself when it is nondecreasing, else a sorted copy: FIFO-1
    and finite-population departures come in order and skip the sort."""
    return np.sort(d, kind="stable") if (d[1:] < d[:-1]).any() else d
