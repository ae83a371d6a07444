"""Stationary distributions for discrete birth-death queues.

The general product form covers any state-dependent single-arrival,
single-departure slot chain; the Bernoulli/geometric single-server
specializations come in three variants, one per coherence class, that
differ only in the effective service-completion probabilities at the
lowest states:

    coherent:       beta(0) = 0,  beta(n >= 1) = beta
    sub-coherent:   beta(n) = beta for all n
    super-coherent: beta(0) = 0,  beta(1) = beta / (1 + beta),  else beta

The super-coherent beta(1) above is the unique choice reproducing the
class's closed-form distribution; see the closed forms in bgeom1_pi.
"""
from __future__ import annotations

from typing import Callable, NamedTuple

import numpy as np

from .coherence import CoherenceClass, classification_table
from .timebase import render_grid

__all__ = [
    "BDParams",
    "BGeom1Params",
    "UnstableChainError",
    "product_form",
    "class_profile",
    "finite_population_profile",
    "bgeom1_pi",
    "bgeom1_L",
    "one_or_more",
    "occupancy_grid",
    "render_occupancy_text",
]

_TAIL_TOL = 1e-13
_HARD_CAP = 2_000_000


class UnstableChainError(ValueError):
    """The product-form series does not converge (unstable chain)."""


class BDParams(NamedTuple):
    """State-dependent arrival/completion probabilities, optional cap."""

    alpha_fn: Callable[[int], float]
    beta_fn: Callable[[int], float]
    n_max: int | None = None


def product_form(params: BDParams) -> np.ndarray:
    """Stationary distribution of the generalized birth-death balance
    alpha(n)(1-beta(n)) pi(n) = (1-alpha(n+1)) beta(n+1) pi(n+1).

    Truncates adaptively once the running tail drops below 1e-13 of the
    accumulated mass, then renormalizes.
    """
    alpha, beta = params.alpha_fn, params.beta_fn
    weights = [1.0]
    w = total = 1.0
    n = 0
    cap = params.n_max if params.n_max is not None else _HARD_CAP
    while True:
        up = alpha(n) * (1.0 - beta(n))
        if up <= 0.0:
            break
        down = beta(n + 1) * (1.0 - alpha(n + 1))
        if down <= 0.0:
            raise UnstableChainError(
                f"state {n + 1} is absorbing upward: completion probability is zero"
            )
        w *= up / down
        if w > 1e100:  # partial products of a stable chain must decay
            raise UnstableChainError(f"diverging state weights near state {n + 1}")
        weights.append(w)
        total += w
        n += 1
        if params.n_max is not None and n >= params.n_max:
            break
        if params.n_max is None and w < _TAIL_TOL * total:
            break
        if n >= cap:
            raise UnstableChainError(
                f"no convergence after {cap} states; chain looks unstable"
            )
    pi = np.asarray(weights, dtype=float)
    return pi / pi.sum()


def _check_stable(alpha: float, beta: float) -> float:
    rho = alpha / beta
    if not 0.0 < alpha < 1.0 or not 0.0 < beta < 1.0:
        raise ValueError(f"need 0 < alpha, beta < 1, got alpha={alpha}, beta={beta}")
    if rho >= 1.0:
        raise UnstableChainError(f"unstable: alpha/beta = {rho} >= 1")
    return rho


class _BGeom1Fields(NamedTuple):
    alpha: float
    beta: float
    klass: CoherenceClass


class BGeom1Params(_BGeom1Fields):
    """Bernoulli arrivals, geometric services, one server, one class."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        _check_stable(self.alpha, self.beta)
        return self

    @property
    def rho(self) -> float:
        return self.alpha / self.beta

    @property
    def gamma(self) -> float:
        return self.alpha * (1.0 - self.beta) / (self.beta * (1.0 - self.alpha))


def class_profile(p: BGeom1Params) -> BDParams:
    """State-dependent profile whose product form matches the class."""
    beta = p.beta
    if p.klass is CoherenceClass.COHERENT:
        beta_fn = lambda n: 0.0 if n == 0 else beta
    elif p.klass is CoherenceClass.SUB_COHERENT:
        beta_fn = lambda n: beta
    else:
        beta1 = beta / (1.0 + beta)
        beta_fn = lambda n: 0.0 if n == 0 else (beta1 if n == 1 else beta)
    return BDParams(alpha_fn=lambda n: p.alpha, beta_fn=beta_fn)


def finite_population_profile(n_sources: int, alpha: float, beta: float) -> BDParams:
    """Profile for the finite-source single-server model: arrival
    probability (n_sources - n) * alpha with n in the system, the law of
    :func:`dtq.engine.simulate_finite_population`."""
    return BDParams(
        alpha_fn=lambda n: max(0.0, (n_sources - n) * alpha),
        beta_fn=lambda n: 0.0 if n == 0 else beta,
        n_max=n_sources,
    )


def _tail_states(gamma: float) -> int:
    n = 8
    while gamma**n > _TAIL_TOL:
        n += 1
    return n


def bgeom1_pi(p: BGeom1Params, n_max: int | None = None) -> np.ndarray:
    """Closed-form stationary distribution of the class, as an array."""
    rho, gamma, alpha = p.rho, p.gamma, p.alpha
    size = (n_max if n_max is not None else _tail_states(gamma)) + 1
    n = np.arange(size)
    pi = np.empty(size)
    if p.klass is CoherenceClass.COHERENT:
        pi[0] = 1.0 - rho
        pi[1:] = rho * (1.0 - gamma) * gamma ** (n[1:] - 1)
    elif p.klass is CoherenceClass.SUB_COHERENT:
        pi = (1.0 - gamma) * gamma**n
    else:
        pi[0] = (1.0 - alpha) * (1.0 - rho)
        if size > 1:
            pi[1] = (alpha + rho) * (1.0 - rho)
        if size > 2:
            pi[2:] = rho**2 * (1.0 - gamma) * gamma ** (n[2:] - 2)
    return pi


def bgeom1_L(p: BGeom1Params) -> float:
    """Mean number in system for the class."""
    rho, gamma, alpha, beta = p.rho, p.gamma, p.alpha, p.beta
    if p.klass is CoherenceClass.COHERENT:
        return alpha * (1.0 - alpha) / (beta - alpha)
    if p.klass is CoherenceClass.SUB_COHERENT:
        return alpha * (1.0 - beta) / (beta - alpha)
    # super-coherent: sum n pi(n) with the geometric tail folded in
    return (alpha + rho) * (1.0 - rho) + rho**2 * (2.0 + gamma / (1.0 - gamma))


def one_or_more(p: BGeom1Params) -> float:
    """Probability the observed system holds at least one customer."""
    if p.klass is CoherenceClass.COHERENT:
        return p.rho
    if p.klass is CoherenceClass.SUB_COHERENT:
        return p.gamma
    return p.rho + p.alpha * (1.0 - p.rho)


def occupancy_grid(alpha: float, beta: float) -> dict:
    """Per rule/epoch value of the nonempty-system probability."""
    table = classification_table()
    return {
        key: one_or_more(BGeom1Params(alpha, beta, cls))
        for key, cls in table.items()
    }


def render_occupancy_text(grid) -> str:
    return render_grid({k: f"{v:.6f}" for k, v in grid.items()}, 10)
