"""Exact micro-time lattice for slot-indexed queueing sample paths.

Time advances in unit slots (tau, tau+1] and all activity clusters around
the integer slot edges.  Around each edge tau there are five tagged
positions, totally ordered as

    tau-0.5  <  tau--  <  tau-  <  tau  <  tau+

Observation instants sit exactly on these positions.  Scheduled arrival
and departure events do not: an event tagged "tau+" happens inside the
gap (tau, tau+), i.e. just before the tau+ position, while events tagged
"tau-" and "tau--" happen inside (tau-, tau) and (tau--, tau-), just
after their positions.  Placing positions on an even integer grid leaves
the odd coordinates free for in-gap events, so every ordering decision
in the package is an exact integer comparison; no floating point enters
the time base.

The rule/epoch encoding is three tables: the phase of the scheduled
arrival per rule (:func:`arrival_phase`), the slot offset and phase of
the scheduled departure per rule (:func:`departure_shift`), and the
sampling phase per rule and epoch (:func:`epoch_phase`).
:func:`span_shift` is the one place they are read, and it reduces a
combination to one integer pair (s0, e0): a customer with actual slots
(A, D) is observed exactly at the slot indices A + s0 .. D + e0.  Only
five pairs occur over the 30 combinations: (0, -1) x 9, (1, 0) x 8,
(1, -1) x 7, (0, 0) x 5 and (0, -2) x 1.  Everything observed depends on
the pair alone: the observed queue path is N_A(j - s0) - N_D(j - e0 - 1)
for the trace's arrival and departure counting processes, the cumsums of
the per-slot counts that :func:`dtq.engine._counts` yields block by
block, so every pair's time averages come from one blocked pass over
those counts (see :mod:`dtq.observer`), and the
observed-wait offset e0 - s0 + 1 gives the coherence class (see
:mod:`dtq.coherence`).
"""
from __future__ import annotations

from enum import Enum, IntEnum

__all__ = [
    "Phase",
    "SchedulingRule",
    "ObservationEpoch",
    "RULES",
    "EPOCHS",
    "arrival_phase",
    "departure_shift",
    "epoch_phase",
    "span_shift",
    "render_grid",
]


class Phase(IntEnum):
    """Tagged positions around slot edge tau, ranked in time order."""

    CENTER = 0  # tau - 0.5, the slot midpoint
    MM = 1      # tau--
    M = 2       # tau-
    EDGE = 3    # tau, the edge itself
    P = 4       # tau+


# Side of its tagged position on which a scheduled event falls: events
# tagged "-"/"--" land just after the position, "+" events just before
# it.  Edge-tagged events (the plain actual system) sit on the edge and
# keep the conventional open-left/closed-right slot accounting.
_EVENT_SIDE = {Phase.MM: +1, Phase.M: +1, Phase.EDGE: 0, Phase.P: -1}


class SchedulingRule(Enum):
    """The five ways of ordering potential arrivals and departures in a slot."""

    EAS = "EAS"        # early arrivals: departure before edge, arrival after
    LAS_IA = "LAS-IA"  # late arrival, immediate access
    LAS_DA = "LAS-DA"  # late arrival, delayed access
    LA_AF = "LA-AF"    # late arrivals, arrival first
    LA_DF = "LA-DF"    # late arrivals, departure first

    @property
    def label(self) -> str:
        return self.value


class ObservationEpoch(Enum):
    """Where in each slot the system state is sampled."""

    RANDOM_OBSERVER = "random-observer"    # slot edges
    OUTSIDE_OBSERVER = "outside-observer"  # slot centers
    POT_PRE_ARRIVAL = "pre-arrival"
    POT_POST_ARRIVAL = "post-arrival"
    POT_PRE_DEPARTURE = "pre-departure"
    POT_POST_DEPARTURE = "post-departure"

    @property
    def label(self) -> str:
        return self.value


RULES = tuple(SchedulingRule)
EPOCHS = tuple(ObservationEpoch)

# Phase of the scheduled arrival in its arrival slot.
_ARRIVAL_PHASE = {
    SchedulingRule.EAS: Phase.P,
    SchedulingRule.LAS_IA: Phase.M,
    SchedulingRule.LAS_DA: Phase.M,
    SchedulingRule.LA_AF: Phase.MM,
    SchedulingRule.LA_DF: Phase.M,
}

# (slot offset, phase) of the scheduled departure relative to the actual
# departure slot.  LAS-IA departures fire just after the previous edge.
_DEPARTURE_SHIFT = {
    SchedulingRule.EAS: (0, Phase.M),
    SchedulingRule.LA_AF: (0, Phase.M),
    SchedulingRule.LA_DF: (0, Phase.MM),
    SchedulingRule.LAS_DA: (0, Phase.P),
    SchedulingRule.LAS_IA: (-1, Phase.P),
}

# Sampling phase per rule for the four event-anchored epochs.  Random and
# outside observers are rule independent (EDGE and CENTER).
_EPOCH_ROWS = {
    SchedulingRule.EAS: (Phase.EDGE, Phase.P, Phase.M, Phase.EDGE),
    SchedulingRule.LAS_IA: (Phase.M, Phase.EDGE, Phase.EDGE, Phase.P),
    SchedulingRule.LAS_DA: (Phase.M, Phase.EDGE, Phase.EDGE, Phase.P),
    SchedulingRule.LA_AF: (Phase.MM, Phase.M, Phase.M, Phase.EDGE),
    SchedulingRule.LA_DF: (Phase.M, Phase.EDGE, Phase.MM, Phase.M),
}

_EVENT_EPOCH_INDEX = {
    ObservationEpoch.POT_PRE_ARRIVAL: 0,
    ObservationEpoch.POT_POST_ARRIVAL: 1,
    ObservationEpoch.POT_PRE_DEPARTURE: 2,
    ObservationEpoch.POT_POST_DEPARTURE: 3,
}


def arrival_phase(rule: SchedulingRule) -> Phase:
    return _ARRIVAL_PHASE[rule]


def departure_shift(rule: SchedulingRule) -> tuple[int, Phase]:
    return _DEPARTURE_SHIFT[rule]


def epoch_phase(rule: SchedulingRule, epoch: ObservationEpoch) -> Phase:
    if epoch is ObservationEpoch.RANDOM_OBSERVER:
        return Phase.EDGE
    if epoch is ObservationEpoch.OUTSIDE_OBSERVER:
        return Phase.CENTER
    return _EPOCH_ROWS[rule][_EVENT_EPOCH_INDEX[epoch]]


def span_shift(rule: SchedulingRule, epoch: ObservationEpoch) -> tuple[int, int]:
    """Slot shifts (s0, e0) of the observed span under a rule/epoch combo.

    A customer with actual arrival/departure slots (a, d) is observed at
    slot index t exactly when its scheduled arrival precedes the
    observation instant u(t), the :func:`epoch_phase` position at edge t,
    and its scheduled departure does not.  Events live on odd grid
    coordinates and observation instants on even ones, so the boundary
    cases reduce to two integer threshold tests, independent of (a, d):
    the customer is seen at t = a + s0 .. d + e0.
    """
    a_phase = _ARRIVAL_PHASE[rule]
    arr_coord = 2 * int(a_phase) + _EVENT_SIDE[a_phase]
    d_delta, d_phase = _DEPARTURE_SHIFT[rule]
    dep_coord = 2 * int(d_phase) + _EVENT_SIDE[d_phase]
    obs_coord = 2 * int(epoch_phase(rule, epoch))
    s0 = 1 if arr_coord >= obs_coord else 0
    e0 = d_delta - (1 if obs_coord > dep_coord else 0)
    return s0, e0


_EPOCH_HEADERS = ("Random", "Outside", "Pre-Arr", "Post-Arr", "Pre-Dep", "Post-Dep")


def render_grid(cells: dict, width: int) -> str:
    """Text grid of one string per (rule, epoch): rules down, epochs across,
    every cell left-justified to ``width``."""
    rows = [("", _EPOCH_HEADERS)] + [(r.label, [cells[(r, e)] for e in EPOCHS]) for r in RULES]
    return "\n".join(label.ljust(8) + "".join(c.ljust(width) for c in row) for label, row in rows)
