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
from .engine import Trace
from .observer import InsufficientDataError, time_averages
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
    "workload_path",
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


def _cumulative_sums(trace: Trace, tau: int):
    arr_mask = trace.arrivals <= tau
    dep_mask = trace.departures <= tau
    waits = trace.waits
    upper = int(waits[arr_mask].sum())
    lower = int(waits[dep_mask].sum())
    path = trace.queue_path()
    middle = int(path[1 : tau + 1].sum())
    return upper, middle, lower


def basic_inequality(trace: Trace, tau: int) -> tuple[int, int, int, bool]:
    """Exact sandwich: waits of arrived >= cumulative L >= waits of departed."""
    if not 0 <= tau <= trace.horizon:
        raise ValueError(f"slot index {tau} outside [0, {trace.horizon}]")
    upper, middle, lower = _cumulative_sums(trace, tau)
    return upper, middle, lower, upper >= middle >= lower


def basic_inequality_path(trace: Trace) -> bool:
    """The sandwich at every slot index up to the horizon, integer exact."""
    T = trace.horizon
    waits = trace.waits
    arrived = trace.arrivals <= T
    departed = trace.departures <= T
    upper = np.bincount(trace.arrivals[arrived], weights=waits[arrived], minlength=T + 1)
    lower = np.bincount(trace.departures[departed], weights=waits[departed], minlength=T + 1)
    upper = np.cumsum(upper.astype(np.int64))
    lower = np.cumsum(lower.astype(np.int64))
    middle = np.cumsum(trace.queue_path()[: T + 1])
    return bool(np.all(upper >= middle) and np.all(middle >= lower))


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


def _remaining_work_spans(trace: Trace):
    # (lo, hi, const, slope) of every customer's waiting piece, flat at S_k
    # on (A_k, B_k], then of its service piece, D_k - tau on (B_k, D_k]
    a, b, s, d = trace.arrivals, trace.starts, trace.services, trace.departures
    lo = np.concatenate((a, b))
    lo += 1
    return lo, np.concatenate((b, d)), np.concatenate((s, d), dtype=float), np.repeat([0.0, 1.0], trace.n)


def _remaining_work_pieces(trace: Trace):
    owner = np.arange(trace.n)
    return (np.concatenate((owner, owner)), *_remaining_work_spans(trace))


def remaining_work_cost() -> CostFunction:
    """Work still owed to the customer: full service while waiting, then
    decreasing by one per served slot."""
    return CostFunction(_remaining_work_pieces, lambda trace: trace.waits, "remaining-work")


def _piece_path(horizon: int, lo, hi, const, slope) -> np.ndarray:
    """Sum of the pieces' values at every slot index 0..horizon.

    Two difference arrays, one for the constant and one for the slope
    terms, clipped to the horizon; the path is their prefix sums
    combined as ``C(tau) - tau * S(tau)``.
    """
    T = horizon
    lo_c = np.clip(lo, 0, T + 1)
    hi_c = hi + 1
    np.maximum(hi_c, lo, out=hi_c)  # an empty piece cancels
    np.clip(hi_c, 0, T + 1, out=hi_c)

    # in place throughout: the kernel sets the peak memory of a verify run
    def prefix(w):
        w = np.asarray(w, dtype=float)
        # bincount returns integers when there are no pieces
        delta = np.bincount(lo_c, weights=w, minlength=T + 2).astype(float, copy=False)
        delta -= np.bincount(hi_c, weights=w, minlength=T + 2)
        return np.cumsum(delta[: T + 1], out=delta[: T + 1])

    path = prefix(const)
    tau_slope = prefix(slope)
    tau_slope *= np.arange(T + 1, dtype=float)
    path -= tau_slope
    return path


def _slots_between(lo, hi) -> np.ndarray:
    """Number of slot indices in lo..hi, elementwise (0 when hi < lo)."""
    return np.maximum(hi - lo + 1, 0)


def _piece_sums(lo, hi, const, slope) -> np.ndarray:
    """Each piece's value summed over its slots lo..hi, in closed form
    (0 for an empty piece)."""
    n_slots = _slots_between(lo, hi)
    tau_sum = (lo + hi) * n_slots // 2
    return const * n_slots - slope * tau_sum


def _cost_profile(trace: Trace, cost: CostFunction) -> tuple[np.ndarray, np.ndarray]:
    """Total cost rate at slot indices 0..horizon and each customer's
    total cost over its full support, unclipped by the horizon.

    Checks every nonempty piece against the declared support and raises
    CostContractError on a violation.
    """
    owner, lo, hi, const, slope = (np.asarray(x) for x in cost.pieces(trace))
    w = np.asarray(cost.support(trace))
    a = trace.arrivals[owner]
    bad = (lo <= hi) & ((lo <= a) | (hi > a + w[owner]))
    if np.any(bad):
        k = int(owner[np.argmax(bad)])
        raise CostContractError(
            f"{cost.name}: customer {k} charged outside (A, A + {int(w[k])}]"
        )
    path = _piece_path(trace.horizon, lo, hi, const, slope)
    totals = np.bincount(owner, weights=_piece_sums(lo, hi, const, slope), minlength=trace.n)
    return path, totals


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

    Checks the declared support of every piece and raises
    CostContractError on a violation.
    """
    T = trace.horizon
    if warmup is None:
        warmup = T // 10
    span = T - warmup
    rate_path, totals = _cost_profile(trace, cost)
    H = float(rate_path[warmup + 1 : T + 1].sum() / span)

    inside = (trace.arrivals > warmup) & (trace.departures <= T)
    if not np.any(inside):
        raise InsufficientDataError("no completed customers in the window")
    G = float(np.mean(totals[inside]))
    lam = int(np.count_nonzero((trace.arrivals > warmup) & (trace.arrivals <= T))) / span
    residual = abs(H - lam * G)
    tol = _tolerance(span, H, lam * G)
    return HLGReport(H, lam, G, residual, tol, residual <= tol)


def workload_path(trace: Trace) -> np.ndarray:
    """Workload at every slot index 0..horizon: the remaining-work cost
    rate summed over customers."""
    return _piece_path(trace.horizon, *_remaining_work_spans(trace))


@dataclass(frozen=True)
class WorkloadMoments:
    ES: float
    ES2: float
    EWq: float
    ESWq: float
    EV: float


def workload_moments(trace: Trace, warmup: int | None = None) -> WorkloadMoments:
    """Service, queueing-delay and workload moments over the window.

    EV is the exact sum of every customer's remaining work over the
    slots in (warmup, T], divided by the window length, so no workload
    path is built: S_k at each slot of (A_k, B_k] and D_k - tau at each
    slot tau of (B_k, D_k], summed per customer in closed form in int64.
    Every partial sum is an integer below 2**53, so EV equals the mean
    of :func:`workload_path` over the window bit for bit.  Memoized on
    the trace per warmup, like :func:`dtq.observer.time_averages`.
    """
    T = trace.horizon
    if warmup is None:
        warmup = T // 10
    key = ("workload", warmup)
    moments = trace._memo.get(key)
    if moments is not None:
        return moments
    inside = (trace.arrivals > warmup) & (trace.departures <= T)
    if not np.any(inside):
        raise InsufficientDataError("no completed customers in the window")
    s = trace.services[inside].astype(float)
    wq = trace.queue_waits[inside].astype(float)
    # slots of (warmup, T] in each waiting piece (A, B] and service piece (B, D]
    waiting = _slots_between(np.maximum(trace.arrivals, warmup) + 1, np.minimum(trace.starts, T))
    lo = np.maximum(trace.starts, warmup) + 1
    hi = np.minimum(trace.departures, T)
    serving = _slots_between(lo, hi)
    work = (
        int(trace.services @ waiting)
        + int(trace.departures @ serving)
        - int(((lo + hi) * serving // 2).sum())
    )
    moments = trace._memo[key] = WorkloadMoments(
        ES=float(s.mean()),
        ES2=float((s * s).mean()),
        EWq=float(wq.mean()),
        ESWq=float((s * wq).mean()),
        EV=float(work) / (T - warmup),
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
    T = trace.horizon
    if warmup is None:
        warmup = T // 10
    m = workload_moments(trace, warmup)
    span = T - warmup
    lam = len(np.flatnonzero((trace.arrivals > warmup) & (trace.arrivals <= T))) / span
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
        return abs(sim - ref) <= rel_tol * scale + 30.0 / math.sqrt(span)

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
