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
    "workload",
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
    upper = np.zeros(T + 1, dtype=np.int64)
    lower = np.zeros(T + 1, dtype=np.int64)
    a = np.clip(trace.arrivals, 0, T)
    d = np.clip(trace.departures, 0, T + 1)
    np.add.at(upper, a[trace.arrivals <= T], waits[trace.arrivals <= T])
    np.add.at(lower, d[trace.departures <= T], waits[trace.departures <= T])
    upper = np.cumsum(upper)
    lower = np.cumsum(lower)
    middle = np.cumsum(trace.queue_path()[: T + 1])
    return bool(np.all(upper >= middle) and np.all(middle >= lower))


class CostContractError(ValueError):
    """A cost function charged outside its declared support window."""


@dataclass(frozen=True)
class CostFunction:
    """Per-customer cost rate with a declared finite support.

    ``rate(trace, k, tau)`` is the cost rate of customer k at slot index
    tau and must vanish outside (A_k, A_k + support(trace, k)].
    """

    rate: Callable[[Trace, int, int], float]
    support: Callable[[Trace, int], int]
    name: str = "cost"


def indicator_cost() -> CostFunction:
    """One unit per slot while in the system; reduces to Little's law."""

    def rate(trace: Trace, k: int, tau: int) -> float:
        return 1.0 if trace.arrivals[k] < tau <= trace.departures[k] else 0.0

    return CostFunction(rate, lambda trace, k: int(trace.waits[k]), "indicator")


def remaining_work_cost() -> CostFunction:
    """Work still owed to the customer: full service while waiting, then
    decreasing by one per served slot."""

    def rate(trace: Trace, k: int, tau: int) -> float:
        a = int(trace.arrivals[k])
        b = int(trace.starts[k])
        d = int(trace.departures[k])
        if a < tau <= b:
            return float(trace.services[k])
        if b < tau <= d:
            return float(d - tau)
        return 0.0

    return CostFunction(rate, lambda trace, k: int(trace.waits[k]), "remaining-work")


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

    Spot checks the declared support at both boundaries and raises
    CostContractError on a violation.
    """
    T = trace.horizon
    if warmup is None:
        warmup = T // 10
    span = T - warmup
    rate_path = np.zeros(T + 2)
    for k in range(trace.n):
        a = int(trace.arrivals[k])
        w = cost.support(trace, k)
        if cost.rate(trace, k, a) != 0.0 or cost.rate(trace, k, a + w + 1) != 0.0:
            raise CostContractError(
                f"{cost.name}: customer {k} charged outside (A, A + {w}]"
            )
        for tau in range(a + 1, min(a + w, T) + 1):
            rate_path[tau] += cost.rate(trace, k, tau)
    H = float(rate_path[warmup + 1 : T + 1].sum() / span)

    inside = (trace.arrivals > warmup) & (trace.departures <= T)
    idx = np.flatnonzero(inside)
    if len(idx) == 0:
        raise InsufficientDataError("no completed customers in the window")
    totals = [
        sum(
            cost.rate(trace, k, tau)
            for tau in range(int(trace.arrivals[k]) + 1, int(trace.arrivals[k]) + cost.support(trace, k) + 1)
        )
        for k in idx
    ]
    G = float(np.mean(totals))
    lam = len(np.flatnonzero(trace.arrivals > warmup)) / span
    residual = abs(H - lam * G)
    tol = _tolerance(span, H, lam * G)
    return HLGReport(H, lam, G, residual, tol, residual <= tol)


def workload(trace: Trace, tau: int) -> int:
    """Unfinished work at slot index tau: full service per waiting
    customer plus the remaining slots of anyone in service."""
    if not 0 <= tau <= trace.horizon:
        raise ValueError(f"slot index {tau} outside [0, {trace.horizon}]")
    a, b, s, d = trace.arrivals, trace.starts, trace.services, trace.departures
    waiting = (a < tau) & (tau <= b)
    serving = (b < tau) & (tau <= d)
    return int(s[waiting].sum() + (d[serving] - tau).sum())


def workload_path(trace: Trace) -> np.ndarray:
    """Workload at every slot index 0..horizon (vectorized)."""
    T = trace.horizon
    a, b, s, d = trace.arrivals, trace.starts, trace.services, trace.departures
    const = np.zeros(T + 2)
    slope = np.zeros(T + 2)

    def add_const(lo, hi, vals):  # vals on slots [lo, hi]
        lo_c = np.clip(lo, 0, T + 1)
        hi_c = np.clip(hi + 1, 0, T + 1)
        np.add.at(const, lo_c, vals)
        np.add.at(const, hi_c, -vals)

    add_const(a + 1, b, s.astype(float))  # waiting phase: flat at S_k
    add_const(b + 1, d, d.astype(float))  # service phase: (d - tau), split
    lo_c = np.clip(b + 1, 0, T + 1)
    hi_c = np.clip(d + 1, 0, T + 1)
    np.add.at(slope, lo_c, 1.0)
    np.add.at(slope, hi_c, -1.0)
    taus = np.arange(T + 1, dtype=float)
    return np.cumsum(const[: T + 1]) - taus * np.cumsum(slope[: T + 1])


@dataclass(frozen=True)
class WorkloadMoments:
    ES: float
    ES2: float
    EWq: float
    ESWq: float
    EV: float


def workload_moments(trace: Trace, warmup: int | None = None) -> WorkloadMoments:
    T = trace.horizon
    if warmup is None:
        warmup = T // 10
    inside = (trace.arrivals > warmup) & (trace.departures <= T)
    if not np.any(inside):
        raise InsufficientDataError("no completed customers in the window")
    s = trace.services[inside].astype(float)
    wq = trace.queue_waits[inside].astype(float)
    v = workload_path(trace)[warmup + 1 :]
    return WorkloadMoments(
        ES=float(s.mean()),
        ES2=float((s * s).mean()),
        EWq=float(wq.mean()),
        ESWq=float((s * wq).mean()),
        EV=float(v.mean()),
    )


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
    busy = np.zeros(c)
    spans = np.maximum(
        0, np.minimum(trace.departures, T) - np.maximum(trace.starts, 0)
    )
    np.add.at(busy, trace.servers, spans)
    per = busy / T
    return UtilizationReport(per, float(per.sum()))
