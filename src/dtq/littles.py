"""Little's-law checks, cost-rate identities, workload, and utilization.

Every check reports the simulated value, the predicted value, the
residual and the tolerance it was held to, so failures are diagnosable
from the report alone.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .coherence import CoherenceClass, classify
from .engine import Trace, _running_count, _slot_blocks
from .observer import time_averages, window
from .timebase import ObservationEpoch, SchedulingRule

__all__ = [
    "LittleReport",
    "ObservedLittleReport",
    "CostFunction",
    "CostContractError",
    "HLGReport",
    "WorkloadMoments",
    "PKReport",
    "UtilizationReport",
    "check_little",
    "check_little_observed",
    "basic_inequality",
    "basic_inequality_path",
    "indicator_cost",
    "remaining_work_cost",
    "check_h_lambda_g",
    "workload_moments",
    "verify_pk",
    "utilization",
]


def _tolerance(span: int, level: float, target: float) -> float:
    return max(3.0 * (level + 1.0) / math.sqrt(span), 0.01 * abs(target))


@dataclass(frozen=True)
class LittleReport:
    L: float
    lam: float
    W: float
    residual: float
    tolerance: float
    passed: bool
    n_completed: int


def check_little(trace: Trace, warmup: int | None = None) -> LittleReport:
    """Time-average number in system against arrival rate times mean wait."""
    if trace.n == 0:
        return LittleReport(0.0, 0.0, 0.0, 0.0, 0.0, True, 0)
    est = time_averages(trace, warmup=warmup)
    residual = abs(est.L - est.lam * est.W)
    tol = _tolerance(est.horizon - est.warmup, est.L, est.lam * est.W)
    return LittleReport(est.L, est.lam, est.W, residual, tol, residual <= tol, est.n_completed)


@dataclass(frozen=True)
class ObservedLittleReport:
    rule: SchedulingRule
    epoch: ObservationEpoch
    klass: CoherenceClass
    lam: float
    W: float
    W_obs: float
    L: float
    L_obs: float
    residual_obs: float      # |L_obs - lam * W_obs|
    class_target: float      # lam * (W + class offset)
    residual_class: float    # |L_obs - class_target|
    shift_residual: float    # |(L_obs - L) - lam * offset|
    tolerance: float
    passed: bool


def check_little_observed(
    trace: Trace,
    rule: SchedulingRule,
    epoch: ObservationEpoch,
    warmup: int | None = None,
) -> ObservedLittleReport:
    """Observed-system law L_obs = lam * W_obs plus the class identities.

    The observed mean queue length must also match lam*(W + offset) for
    the combo's coherence class and sit exactly offset*lam away from the
    actual L.
    """
    est = time_averages(trace, rule, epoch, warmup=warmup)
    klass = classify(rule, epoch)
    offset = klass.offset
    target = est.lam * (est.W + offset)
    residual_obs = abs(est.L_obs - est.lam * est.W_obs)
    residual_class = abs(est.L_obs - target)
    shift_residual = abs((est.L_obs - est.L) - est.lam * offset)
    tol = _tolerance(est.horizon - est.warmup, est.L_obs, target)
    passed = residual_obs <= tol and residual_class <= tol and shift_residual <= tol
    return ObservedLittleReport(
        rule, epoch, klass, est.lam, est.W, est.W_obs, est.L, est.L_obs,
        residual_obs, target, residual_class, shift_residual, tol, passed,
    )


def basic_inequality(trace: Trace, tau: int) -> tuple[int, int, int, bool]:
    """Exact sandwich at slot index tau: the waits of the customers arrived
    by tau >= the cumulative number in system sum_{j <= tau} L(j) >= the
    waits of those departed by tau.  Each sum is a closed form over the
    customers; customer k is in the system at the min(D_k, tau) - A_k
    indices A_k < j <= tau, when that is positive."""
    if not 0 <= tau <= trace.horizon:
        raise ValueError(f"slot index {tau} outside [0, {trace.horizon}]")
    a, d, waits = trace.arrivals, trace.departures, trace.waits
    upper = int(waits[a <= tau].sum())
    middle = int(np.maximum(np.minimum(d, tau) - a, 0).sum())
    lower = int(waits[d <= tau].sum())
    return upper, middle, lower, upper >= middle >= lower


def _inequality_blocks(trace: Trace):
    """The three sums of :func:`basic_inequality` at every slot index
    0..horizon, as int64 arrays over consecutive blocks of
    ``_SLOT_BLOCK`` indices.

    Per block, :func:`dtq.engine._running_count` gives N_A and N_D at
    x = x0-1..x1-1, so the customers that arrive in the block are
    N_A(x0-1)..N_A(x1-1) - 1 in arrival order, and those that depart in it
    the same run of the departure order.  The outer sums are prefix sums
    of those customers' waits, carried from block to block and read at
    N_A(tau) and N_D(tau); the middle sum is the running sum of
    L(j) = N_A(j-1) - N_D(j-1), carried the same way.  The one
    customer-length temporary is the stable departure order, which reads
    the departures sorted without a sorted copy, so the pass holds that
    order and about three blocks of slots: 4.6 MB at the peak of
    :func:`basic_inequality_path` on the 3·10^5-customer reference trace.
    """
    a, d = trace.arrivals, trace.departures
    order = np.argsort(d, kind="stable")
    upper = middle = lower = 0  # the sums before the block
    for x0, x1 in _slot_blocks(0, trace.horizon + 1):
        n_a = _running_count(a, x0 - 1, x1)
        n_d = _running_count(d, x0 - 1, x1, order)
        in_system = np.subtract(n_a[:-1], n_d[:-1])
        np.cumsum(in_system, out=in_system)
        in_system += middle
        middle = int(in_system[-1])
        departed = order[n_d[0] : n_d[-1]]
        upper = _read_carried_sums(upper, n_a, d[n_a[0] : n_a[-1]] - a[n_a[0] : n_a[-1]])
        lower = _read_carried_sums(lower, n_d, d[departed] - a[departed])
        yield n_a[1:], in_system, n_d[1:]


def _read_carried_sums(carry: int, counts: np.ndarray, values: np.ndarray) -> int:
    """Overwrite a block's running counts, counts[0] to counts[-1], with
    carry plus the sum of the first counts[i] - counts[0] of ``values``,
    in int64; returns the block's last sum, the next carry."""
    sums = np.empty(len(values) + 1, dtype=np.int64)
    sums[0] = carry
    np.cumsum(values, out=sums[1:])
    sums[1:] += carry
    counts -= counts[0]
    np.take(sums, counts, out=counts, mode="clip")  # in range: clip never acts
    return int(sums[-1])


def _sandwich_holds(sums) -> bool:
    upper, middle, lower = sums
    return bool(np.all(upper >= middle) and np.all(middle >= lower))


def basic_inequality_path(trace: Trace) -> bool:
    """The sandwich at every slot index up to the horizon, integer exact,
    one block of slots at a time; ``map`` lets go of each block's sums
    before the next block is built."""
    return all(map(_sandwich_holds, _inequality_blocks(trace)))


class CostContractError(ValueError):
    """A cost function charged outside its declared support window."""


@dataclass(frozen=True)
class CostFunction:
    """Per-customer cost rate, piecewise linear in the slot index, with a
    declared finite support.

    ``pieces(trace)`` returns five equal-length arrays
    ``(owner, lo, hi, const, slope)``: piece i charges customer
    ``owner[i]`` the rate ``const[i] - slope[i] * tau`` at every slot
    index ``lo[i] <= tau <= hi[i]`` (a piece with ``hi < lo`` is empty).
    A customer's rate is the sum of its pieces.  ``support(trace)`` gives
    each customer's window length w_k; every nonempty piece must lie in
    (A_k, A_k + w_k], or :func:`check_h_lambda_g` raises
    :class:`CostContractError`.
    """

    pieces: Callable[[Trace], tuple[np.ndarray, ...]]
    support: Callable[[Trace], np.ndarray]
    name: str = "cost"


def _indicator_pieces(trace: Trace):
    n = trace.n
    return np.arange(n), trace.arrivals + 1, trace.departures, np.ones(n), np.zeros(n)


def indicator_cost() -> CostFunction:
    """One unit per slot while in the system; reduces to Little's law."""
    return CostFunction(_indicator_pieces, lambda trace: trace.waits, "indicator")


def _work_pieces(a, b, s, d):
    # (lo, hi, const, slope) of every customer's waiting piece, flat at S_k
    # on (A_k, B_k], and of its service piece, D_k - tau on (B_k, D_k],
    # from the customers' A, B, S and D; yielded one at a time, so a caller
    # summing them holds one lo array
    yield a + 1, b, s, 0
    yield b + 1, d, d, 1


def _remaining_work_pieces(trace: Trace):
    owner = np.arange(trace.n)
    columns = trace.arrivals, trace.starts, trace.services, trace.departures
    waiting, serving = (np.broadcast_arrays(owner, *piece) for piece in _work_pieces(*columns))
    return tuple(np.concatenate(arrays) for arrays in zip(waiting, serving))


def remaining_work_cost() -> CostFunction:
    """Work still owed to the customer: full service while waiting, then
    decreasing by one per served slot."""
    return CostFunction(_remaining_work_pieces, lambda trace: trace.waits, "remaining-work")


def _piece_sums(lo, hi, const, slope, first=None, last=None):
    """The one kernel of every cost functional: each piece's value summed
    over its slots lo..hi in closed form, const times the number of slots
    minus slope times the sum of their indices (0 for an empty piece).
    Clipped to the window first..last it returns the window total instead,
    as dot products.  Integer pieces sum exactly in int64.
    """
    if first is None:
        n_slots = np.maximum(hi - lo + 1, 0)
        return const * n_slots - slope * ((lo + hi) * n_slots // 2)
    # in place on two clipped copies, which keeps EV no slower than inline sums
    lo = np.maximum(lo, first)
    n_slots = np.minimum(hi, last)
    n_slots -= lo
    n_slots += 1
    np.maximum(n_slots, 0, out=n_slots)
    if not np.any(slope):  # flat pieces need no index sums
        return const @ n_slots
    # a nonempty clipped piece ends at lo + n_slots - 1, so its slot indices
    # sum to (2 lo + n_slots - 1) n_slots / 2; an empty one has n_slots 0
    lo *= 2
    lo += n_slots
    lo -= 1
    lo *= n_slots
    lo //= 2
    return const @ n_slots - (slope @ lo if np.ndim(slope) else slope * lo.sum())


def _cost_profile(trace: Trace, cost: CostFunction, warmup: int):
    """Total cost charged over the window (warmup, horizon] and each
    customer's total over its full support, unclipped by the horizon.
    Raises CostContractError when a nonempty piece leaves the support."""
    owner, lo, hi, const, slope = (np.asarray(x) for x in cost.pieces(trace))
    w = np.asarray(cost.support(trace))
    a = trace.arrivals[owner]
    bad = (lo <= hi) & ((lo <= a) | (hi > a + w[owner]))
    if np.any(bad):
        k = int(owner[np.argmax(bad)])
        raise CostContractError(
            f"{cost.name}: customer {k} charged outside (A, A + {int(w[k])}]"
        )
    total = _piece_sums(lo, hi, const, slope, warmup + 1, trace.horizon)
    totals = np.bincount(owner, weights=_piece_sums(lo, hi, const, slope), minlength=trace.n)
    return total, totals


@dataclass(frozen=True)
class HLGReport:
    H: float
    lam: float
    G: float
    residual: float
    tolerance: float
    passed: bool


def check_h_lambda_g(trace: Trace, cost: CostFunction, warmup: int | None = None) -> HLGReport:
    """Cost-rate law: time-average total cost rate equals arrival rate
    times mean per-customer cost.

    H is the cost charged over the :func:`dtq.observer.window` per window
    slot, G the mean cost of its completed customers, both closed-form
    piece sums, so no slot path is built.  Raises CostContractError when
    a piece leaves its declared support.
    """
    win = window(trace, warmup)
    total, totals = _cost_profile(trace, cost, win.warmup)
    H = float(total / win.span)
    G = float(np.mean(totals[win.completed]))
    residual = abs(H - win.lam * G)
    tol = _tolerance(win.span, H, win.lam * G)
    return HLGReport(H, win.lam, G, residual, tol, residual <= tol)


@dataclass(frozen=True)
class WorkloadMoments:
    ES: float
    ES2: float
    EWq: float
    ESWq: float
    EV: float


def workload_moments(trace: Trace, warmup: int | None = None) -> WorkloadMoments:
    """Service, queueing-delay and workload moments over the
    :func:`dtq.observer.window`: the first four over its completed
    customers, EV the remaining work of every customer summed over its
    slots by :func:`_piece_sums`, in int64, per window slot.  No workload
    path is built.  Every sum is an integer below 2**53, so each moment
    equals its float mean, and EV, bit for bit, the mean over the window
    of the workload path V(tau), the remaining work summed over customers
    slot by slot (the tests' ``oracle_cost_profile`` with the
    remaining-work rate).  Memoized on the trace per warmup.

    The sums are taken over blocks of ``_SLOT_BLOCK`` customers, so the
    call holds no customer-length temporary besides the window's
    completed mask: 2.6 MB at its peak on a fresh 3·10^5-customer trace,
    the window's own sum included.
    """
    win = window(trace, warmup)
    key = ("workload", win.warmup)
    moments = trace._memo.get(key)
    if moments is not None:
        return moments
    window_slots = (win.warmup + 1, trace.horizon)
    columns = trace.arrivals, trace.starts, trace.services, trace.departures
    work = es = es2 = ewq = eswq = 0
    for i0, i1 in _slot_blocks(0, trace.n):
        a, b, s, d = (x[i0:i1] for x in columns)
        work += sum(int(_piece_sums(*piece, *window_slots)) for piece in _work_pieces(a, b, s, d))
        completed = win.completed[i0:i1]
        s = s[completed]
        wq = b[completed]
        wq -= a[completed]
        es += int(s.sum())
        es2 += int(s @ s)
        ewq += int(wq.sum())
        eswq += int(s @ wq)
    m = win.n_completed
    moments = trace._memo[key] = WorkloadMoments(
        ES=es / m, ES2=es2 / m, EWq=ewq / m, ESWq=eswq / m, EV=work / win.span
    )
    return moments


@dataclass(frozen=True)
class PKReport:
    lam: float
    rho: float
    EWq_sim: float
    EWq_formula: float
    EV_sim: float
    EV_formula: float
    uncorrelated_gap: float  # ESWq - ES * EWq, near zero for FIFO
    tolerance: float
    passed: bool


def verify_pk(trace: Trace, warmup: int | None = None, rel_tol: float = 0.02) -> PKReport:
    """Mean queueing delay and mean workload against their closed forms.

    Uses the trace's own arrival rate and service moments, so the check
    compares two different path functionals rather than restating one.
    """
    win = window(trace, warmup)
    m = workload_moments(trace, win.warmup)
    lam = win.lam
    rho = lam * m.ES
    if rho >= 1.0:
        raise ValueError(f"unstable trace: utilization {rho} >= 1")
    ewq_formula = lam * (m.ES2 - m.ES) / (2.0 * (1.0 - rho))
    ev_formula = lam * m.ES * m.EWq + lam * (m.ES2 - m.ES) / 2.0
    gap = m.ESWq - m.ES * m.EWq

    def ok(sim, ref):
        # delay averages are heavily serially correlated, hence the wide
        # noise floor; at the reference horizon the relative term dominates
        scale = max(abs(ref), 1e-9)
        return abs(sim - ref) <= rel_tol * scale + 30.0 / math.sqrt(win.span)

    passed = ok(m.EWq, ewq_formula) and ok(m.EV, ev_formula)
    return PKReport(lam, rho, m.EWq, ewq_formula, m.EV, ev_formula, gap, rel_tol, passed)


@dataclass(frozen=True)
class UtilizationReport:
    per_server: np.ndarray
    total: float


def utilization(trace: Trace, servers: int | None = None) -> UtilizationReport:
    """Fraction of slots each server spends busy, clipped to the horizon."""
    if trace.servers is None:
        raise ValueError("trace carries no server assignment")
    c = servers if servers is not None else int(trace.servers.max(initial=-1)) + 1
    c = max(c, 1)
    T = trace.horizon
    spans = np.maximum(
        0, np.minimum(trace.departures, T) - np.maximum(trace.starts, 0)
    )
    busy = np.bincount(trace.servers, weights=spans, minlength=c)
    if len(busy) > c:
        raise ValueError(f"server index {len(busy) - 1} outside the {c} servers")
    per = busy / T
    return UtilizationReport(per, float(per.sum()))
