"""Little's-law checks, cost-rate identities, workload, and utilization.

Every check returns its verdict as :class:`Rows`, one :class:`Row` per
quantity: simulated value, formula value and tolerance, so failures are
diagnosable from the rows alone and the CLI reports them as they are.
"""
from __future__ import annotations

import math
from typing import Callable, Iterable, NamedTuple

import numpy as np

from .coherence import classify
from .engine import Trace, _counts, _slot_blocks
from .observer import time_averages, window
from .timebase import ObservationEpoch, SchedulingRule

__all__ = [
    "Row",
    "Rows",
    "CostFunction",
    "CostContractError",
    "WorkloadMoments",
    "UtilizationReport",
    "check_little",
    "check_little_observed",
    "basic_inequality_path",
    "indicator_cost",
    "remaining_work_cost",
    "check_h_lambda_g",
    "workload_moments",
    "verify_pk",
    "check_workload",
    "utilization",
]


class Row(NamedTuple):
    """One quantity of a check: simulated against formula, within a tolerance."""

    quantity: str
    simulated: float
    formula: float
    tolerance: float

    @property
    def residual(self) -> float:
        return abs(self.simulated - self.formula)

    @property
    def passed(self) -> bool:
        return self.residual <= self.tolerance


class Rows(tuple):
    """A check's rows; the check passes when every row does."""

    @property
    def passed(self) -> bool:
        return all(row.passed for row in self)


def _tolerance(span: int, level: float, target: float) -> float:
    return max(3.0 * (level + 1.0) / math.sqrt(span), 0.01 * abs(target))


def check_little(trace: Trace, warmup: int | None = None) -> Rows:
    """Time-average number in system against arrival rate times mean wait;
    InsufficientDataError when no customer arrives and departs in the window."""
    est = time_averages(trace, warmup=warmup)
    target = est.lam * est.W
    tol = _tolerance(est.horizon - est.warmup, est.L, target)
    return Rows([Row("L - lam*W", est.L, target, tol)])


def check_little_observed(
    trace: Trace,
    rule: SchedulingRule,
    epoch: ObservationEpoch,
    warmup: int | None = None,
) -> Rows:
    """The observed mean queue length of a combo against lam*(W + offset)
    for its coherence class, then the observed-system law L_obs = lam * W_obs.
    """
    est = time_averages(trace, rule, epoch, warmup=warmup)
    klass = classify(rule, epoch)
    target = est.lam * (est.W + klass.offset)
    tol = _tolerance(est.horizon - est.warmup, est.L_obs, target)
    combo = f"{rule.label}/{epoch.label}"
    return Rows([
        Row(f"L_obs[{combo}] ({klass.label})", est.L_obs, target, tol),
        Row(f"L_obs - lam*W_obs [{combo}]", est.L_obs, est.lam * est.W_obs, tol),
    ])


def _inequality_blocks(trace: Trace):
    """The exact sandwich at every slot index tau = 0..horizon, as int64
    arrays over consecutive blocks of ``_SLOT_BLOCK`` indices: the waits of
    the customers arrived by tau >= sum_{j <= tau} L(j) >= the waits of
    those departed by tau.

    Each block of :func:`dtq.engine._counts`, read at x = x0-1..x1-1,
    gives N_A and N_D, so the customers that arrive in the block are
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
    for n_a, n_d in _counts(a, d, 0, trace.horizon + 1, order):
        n_a, n_d = n_a[:-1], n_d[:-1]  # x = x0-1..x1-1
        in_system = np.subtract(n_a[:-1], n_d[:-1])
        np.cumsum(in_system, out=in_system)
        in_system += middle
        middle = int(in_system[-1])
        departed = order[n_d[0] : n_d[-1]]
        upper = _read_carried_sums(upper, n_a, d[n_a[0] : n_a[-1]] - a[n_a[0] : n_a[-1]])
        lower = _read_carried_sums(lower, n_d, d[departed] - a[departed])
        yield n_a[1:], in_system, n_d[1:]
        del n_a, n_d  # let go of this block before _counts builds the next


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
    """A cost function charged a customer outside its sojourn."""


class CostFunction(NamedTuple):
    """Per-customer cost rate, piecewise linear in the slot index.

    ``pieces(trace)`` yields groups ``(lo, hi, const, slope)`` aligned with
    the customers, each entry one value per customer or a scalar for all:
    customer k pays ``const[k] - slope[k] * tau`` at each slot index
    ``lo[k] <= tau <= hi[k]`` (none if hi < lo), and its rate is the sum
    over the groups.  Every charge must lie in the sojourn (A_k, D_k], or
    :func:`check_h_lambda_g` raises :class:`CostContractError`.
    """

    pieces: Callable[[Trace], Iterable[tuple]]
    name: str


def indicator_cost() -> CostFunction:
    """One unit per slot while in the system; reduces to Little's law."""
    return CostFunction(lambda t: [(t.arrivals + 1, t.departures, np.ones(t.n), 0)], "indicator")


def _work_pieces(a, b, s, d):
    # (lo, hi, const, slope) of every customer's waiting piece, flat at S_k
    # on (A_k, B_k], and of its service piece, D_k - tau on (B_k, D_k],
    # from the customers' A, B, S and D; yielded one at a time, so a caller
    # summing them holds one lo array
    yield a + 1, b, s, 0
    yield b + 1, d, d, 1


def remaining_work_cost() -> CostFunction:
    """Work still owed to the customer: full service while waiting, then
    decreasing by one per served slot."""
    return CostFunction(lambda t: _work_pieces(t.arrivals, t.starts, t.services, t.departures),
                        "remaining-work")


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
    customer's total over its sojourn, unclipped by the horizon, group by
    group.  Raises CostContractError when a nonempty piece leaves it."""
    a, d = trace.arrivals, trace.departures
    total, totals = 0, np.zeros(trace.n)
    for lo, hi, const, slope in cost.pieces(trace):
        bad = (lo <= hi) & ((lo <= a) | (hi > d))
        if np.any(bad):
            k = int(np.argmax(bad))
            raise CostContractError(f"{cost.name}: customer {k} charged outside ({a[k]}, {d[k]}]")
        total += _piece_sums(lo, hi, const, slope, warmup + 1, trace.horizon)
        totals += _piece_sums(lo, hi, const, slope)
    return total, totals


def check_h_lambda_g(trace: Trace, cost: CostFunction, warmup: int | None = None) -> Rows:
    """Cost-rate law: time-average total cost rate equals arrival rate
    times mean per-customer cost.

    H is the cost charged over the :func:`dtq.observer.window` per window
    slot, G the mean cost of its completed customers, both closed-form
    piece sums over the cost's customer-aligned groups, so no slot path is
    built.  Raises CostContractError when a piece leaves its customer's
    sojourn (A, D].
    """
    win = window(trace, warmup)
    total, totals = _cost_profile(trace, cost, win.warmup)
    H = float(total / win.span)
    target = win.lam * float(np.mean(totals[win.completed]))
    return Rows([Row("H - lam*G", H, target, _tolerance(win.span, H, target))])


class WorkloadMoments(NamedTuple):
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


def _pk_tolerance(ewq: float, span: int) -> float:
    # delay averages are serially correlated, hence the wide noise floor
    return 0.02 * max(abs(ewq), 1e-9) + 30.0 / math.sqrt(span)


def verify_pk(trace: Trace, warmup: int | None = None) -> Rows:
    """Mean queueing delay and mean workload against their closed forms.

    Uses the trace's own arrival rate and service moments, so the check
    compares two different path functionals rather than restating one.
    Both rows are held to :func:`_pk_tolerance` of the delay formula.
    """
    win = window(trace, warmup)
    m = workload_moments(trace, win.warmup)
    lam = win.lam
    rho = lam * m.ES
    if rho >= 1.0:
        raise ValueError(f"unstable trace: utilization {rho} >= 1")
    ewq_formula = lam * (m.ES2 - m.ES) / (2.0 * (1.0 - rho))
    ev_formula = lam * m.ES * m.EWq + lam * (m.ES2 - m.ES) / 2.0
    tol = _pk_tolerance(ewq_formula, win.span)
    return Rows([Row("EWq", m.EWq, ewq_formula, tol), Row("EV", m.EV, ev_formula, tol)])


def check_workload(trace: Trace, warmup: int | None = None) -> Rows:
    """Mean workload against mean queueing delay, equal under FIFO Bernoulli input."""
    win = window(trace, warmup)
    m = workload_moments(trace, win.warmup)
    return Rows([Row("EV vs EWq", m.EV, m.EWq, _pk_tolerance(m.EWq, win.span))])


class UtilizationReport(NamedTuple):
    total: float


def utilization(trace: Trace) -> UtilizationReport:
    """Mean number of busy servers: the service spans clipped to the
    horizon, summed as integers and divided by it.  Which server serves
    whom never enters the sum, so no server label is read."""
    T = trace.horizon
    # one span array, clipped at T in place; a Trace has starts >= 0
    spans = np.minimum(trace.departures, T)
    spans -= trace.starts
    np.maximum(spans, 0, out=spans)
    return UtilizationReport(int(spans.sum()) / T)
