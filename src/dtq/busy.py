"""Busy periods, busy cycles, and their closed-form mean identities.

On the number-in-system path a cycle starts at the first slot index
showing a nonempty system after an empty one, and the system clears at
the first empty index after a busy run.  Only complete cycles (those with
a following start) enter the averages.

The boundaries come from the customers alone, with no path: customer k
is counted at the slot indices A_k + 1 .. D_k, and in arrival order it
opens a busy period exactly when A_k exceeds every earlier departure.
:func:`detect_cycles` and :func:`empty_state_rates` read cycles and the
empty-state rates off those openers in O(customers), and no function here
allocates an array of horizon length; the slot-path forms of both live
only in the test oracles of ``tests/conftest.py``.  A :class:`CycleStats`
keeps only the cycle boundaries; the per-cycle lengths and counts are
derived on access, and its means are telescoping integer sums over the
boundaries.
"""
from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .engine import DiscreteDist, Trace

__all__ = [
    "CycleStats",
    "detect_cycles",
    "empty_state_rates",
    "cycle_means_from_rates",
    "sigma_solve",
    "ggeo1_busy",
    "CycleMeans",
]


class CycleMeans(NamedTuple):
    idle: float
    cycle: float
    busy: float
    customers: float


class CycleStats(NamedTuple):
    """Complete busy cycles, stored as their boundaries.

    ``starts`` holds the m + 1 cycle starts U_0..U_m, ``V`` the m clears
    V_0..V_{m-1}, and ``openers`` the index of each start's first
    customer.  Cycle k runs from U_k to U_{k+1}: the lengths
    C = U_{k+1} - U_k, B = V_k - U_k and I = C - B and the customers
    E = opener_{k+1} - opener_k are derived on access.
    """

    starts: np.ndarray
    V: np.ndarray
    openers: np.ndarray

    @property
    def n_cycles(self) -> int:
        return len(self.V)

    @property
    def U(self) -> np.ndarray:
        return self.starts[:-1]

    @property
    def C(self) -> np.ndarray:
        return np.diff(self.starts)

    @property
    def B(self) -> np.ndarray:
        return self.V - self.U

    @property
    def I(self) -> np.ndarray:
        return self.starts[1:] - self.V

    @property
    def E(self) -> np.ndarray:
        return np.diff(self.openers)

    def means(self) -> CycleMeans:
        """Mean idle, cycle and busy lengths and customers per cycle.

        The sums telescope, so no per-cycle array is built: sum C =
        U_m - U_0, sum E = opener_m - opener_0, sum B = sum V - sum U and
        sum I = sum C - sum B.  Each is an integer below 2**53 divided
        once by m, the same float as the mean of the per-cycle array.
        """
        m = self.n_cycles
        if m == 0:
            raise ValueError("no complete busy cycle on the path: no cycle means to take")
        starts, openers = self.starts, self.openers
        cycle = int(starts[-1]) - int(starts[0])
        busy = int(self.V.sum()) - int(starts[:-1].sum())
        customers = int(openers[-1]) - int(openers[0])
        return CycleMeans((cycle - busy) / m, cycle / m, busy / m, customers / m)


def _busy_runs(trace: Trace) -> tuple[np.ndarray, np.ndarray]:
    """Index of each busy period's first customer, and the last slot index
    of each busy period (the latest departure among its customers).

    Customers are in arrival order; one opens a new busy period when it
    arrives after every earlier departure.  The first customer always
    opens one.  Memoized on the trace as two read-only arrays.
    """
    runs = trace._memo.get("busy")
    if runs is None:
        a = trace.arrivals
        reach = np.maximum.accumulate(trace.departures)
        opens = np.empty(len(a), dtype=bool)
        opens[:1] = True
        np.greater(a[1:], reach[:-1], out=opens[1:])
        first = np.flatnonzero(opens)
        runs = trace._memo["busy"] = (first, np.append(reach[first[1:] - 1], reach[-1:]))
        for arr in runs:
            arr.flags.writeable = False
    return runs


def detect_cycles(trace: Trace) -> CycleStats:
    """Cycle statistics on the actual path of a trace, from its customers.

    The cycles of the strict-left queue path: busy period r starts at
    U = A + 1 of its first customer and clears at one past its last slot
    index, and E counts the customers from one opener to the next.  Only
    periods starting by the horizon are on the path.
    """
    a = trace.arrivals
    if len(a) and a[0] < 1:
        raise ValueError("cycle detection needs the system empty at slot 0")
    first, last = _busy_runs(trace)
    # openers arrive in order: those by the horizon are a prefix
    U = a[first]
    m = int(np.searchsorted(U, trace.horizon, side="left")) - 1
    if m < 1:
        empty = np.empty(0, dtype=np.int64)
        return CycleStats(empty, empty, empty)
    U = U[: m + 1]
    U += 1
    V = last[:m] + 1
    return CycleStats(U, V, first[: m + 1])


def empty_state_rates(trace: Trace) -> tuple[float, float, float]:
    """(pi0, alpha0, alpha) on the actual path of a trace, from its customers.

    pi0 is the fraction of slots 1..T with an empty system, alpha0 the
    arrivals in slots <= T that find it empty per empty slot, and alpha
    the arrivals in slots <= T per slot, where an arrival in slot a finds
    the strict-left queue path's state at index a.  An arrival finds the
    system empty exactly when it arrives in the slot that opened its busy
    period.
    """
    T = trace.horizon
    a = trace.arrivals
    first, last = _busy_runs(trace)
    opened = a[first]
    empty = T - int(np.maximum(np.minimum(last, T) - opened, 0).sum())
    if empty == 0:
        raise ValueError("the system is never empty: no empty-state arrival rate")
    arrived = int(np.searchsorted(a, T, side="right"))
    # the customers arriving in an opener's slot are the opener and those
    # after it up to the next later arrival, all of its busy period
    m = np.searchsorted(opened, T, side="right")
    found = int((np.searchsorted(a, opened[:m], side="right") - first[:m]).sum())
    return empty / T, found / empty, arrived / T


def cycle_means_from_rates(pi0: float, alpha0: float, alpha: float) -> CycleMeans:
    """Mean idle/cycle/busy lengths and customers per cycle from the
    empty-state occupancy pi0, the empty-state arrival rate alpha0, and
    the overall arrival rate alpha."""
    if not 0.0 < pi0 < 1.0:
        raise ValueError(f"pi0 must be in (0, 1), got {pi0}")
    if alpha0 <= 0.0:
        raise ValueError(f"alpha0 must be positive, got {alpha0}")
    idle = 1.0 / alpha0
    cycle = 1.0 / (alpha0 * pi0)
    busy = (1.0 - pi0) / (alpha0 * pi0)
    customers = alpha / (alpha0 * pi0)
    return CycleMeans(idle, cycle, busy, customers)


def sigma_solve(interarrival: DiscreteDist, beta: float, tol: float = 1e-12) -> tuple[float, float]:
    """Root sigma in (0, 1) of sigma = F(sigma*beta + 1 - beta) where F is
    the inter-arrival pgf, plus sigma* = sigma / (sigma*beta + 1 - beta).

    Bisection; a missing sign change means the queue is unstable or the
    input degenerate.
    """
    if not 0.0 < beta < 1.0:
        raise ValueError(f"beta must be in (0, 1), got {beta}")

    def g(s: float) -> float:
        return interarrival.pgf(s * beta + 1.0 - beta) - s

    lo, hi = 0.0, 1.0 - 1e-9
    if g(lo) <= 0.0 or g(hi) >= 0.0:
        raise ValueError("no interior fixed point; check stability (alpha < beta)")
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if g(mid) > 0.0:
            lo = mid
        else:
            hi = mid
    sigma = 0.5 * (lo + hi)
    sigma_star = sigma / (sigma * beta + 1.0 - beta)
    return sigma, sigma_star


def ggeo1_busy(alpha: float, sigma_star: float, rho: float) -> CycleMeans:
    """Cycle means for renewal input and geometric services from the
    pre-arrival empty probability 1 - sigma*."""
    if not 0.0 < sigma_star < 1.0:
        raise ValueError(f"sigma_star must be in (0, 1), got {sigma_star}")
    denom = alpha * (1.0 - sigma_star)
    return CycleMeans(
        idle=(1.0 - rho) / denom,
        cycle=1.0 / denom,
        busy=rho / denom,
        customers=1.0 / (1.0 - sigma_star),
    )
