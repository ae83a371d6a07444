"""Shared fixtures and independent oracles for the test suite.

The micro-time oracle here models the slot-edge neighborhood with exact
rational positions instead of the package's integer grid: observation
positions sit on fixed fractions around the edge and scheduled events
strictly inside the gaps between them.  Everything derived from it is
an independent check on the production encoding.
"""
from fractions import Fraction

import numpy as np
import pytest

from dtq.engine import Bernoulli, DiscreteDist, External, Fifo, build_trace, run_discipline
from dtq.timebase import Phase, arrival_phase, departure_shift, epoch_phase

EPS = Fraction(1, 16)

_POINT_OFFSET = {
    Phase.CENTER: Fraction(-1, 2),
    Phase.MM: -2 * EPS,
    Phase.M: -EPS,
    Phase.EDGE: Fraction(0),
    Phase.P: EPS,
    Phase.PP: 2 * EPS,
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
    a_ev = event_pos(a, arrival_phase(rule))
    delta, dphase = departure_shift(rule)
    d_ev = event_pos(d + delta, dphase)
    u_phase = epoch_phase(rule, epoch)
    total = 0
    for tau in range(1, d + 3):
        u = point_pos(tau, u_phase)
        if a_ev < u <= d_ev:
            total += 1
    return total


def oracle_observed_path(trace, rule, epoch) -> np.ndarray:
    """Observed number-in-system by direct per-customer comparison."""
    u_phase = epoch_phase(rule, epoch)
    delta, dphase = departure_shift(rule)
    a_ph = arrival_phase(rule)
    out = np.zeros(trace.horizon + 1, dtype=np.int64)
    events = [
        (event_pos(int(a), a_ph), event_pos(int(d) + delta, dphase))
        for a, d in zip(trace.arrivals, trace.departures)
    ]
    for tau in range(1, trace.horizon + 1):
        u = point_pos(tau, u_phase)
        out[tau] = sum(1 for a_ev, d_ev in events if a_ev < u <= d_ev)
    return out


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
    for k in range(trace.n):
        for tau in range(int(trace.arrivals[k]) + 1, int(trace.departures[k]) + 1):
            r = rate(trace, k, tau)
            totals[k] += r
            if tau <= T:
                path[tau] += r
    return path, totals


@pytest.fixture(scope="session")
def bgeom1_trace():
    """Medium reference path: Bernoulli(0.3) arrivals, geometric(0.5) services."""
    return build_trace(Bernoulli(0.3), DiscreteDist.geometric(0.5), Fifo(1), 7, 200_000)


@pytest.fixture(scope="session")
def small_bgeom1_trace():
    return build_trace(Bernoulli(0.3), DiscreteDist.geometric(0.5), Fifo(1), 3, 10_000)


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
