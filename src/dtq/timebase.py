"""Exact micro-time lattice for slot-indexed queueing sample paths.

Time advances in unit slots (tau, tau+1] and all activity clusters around
the integer slot edges.  Around each edge tau there are six tagged
positions, totally ordered as

    tau-0.5  <  tau--  <  tau-  <  tau  <  tau+  <  tau++

Observation instants sit exactly on these positions.  Scheduled arrival
and departure events do not: an event tagged "tau+" happens inside the
gap (tau, tau+), i.e. just before the tau+ position, while events tagged
"tau-" and "tau--" happen inside (tau-, tau) and (tau--, tau-), just
after their positions.  Placing positions on an even integer grid leaves
the odd coordinates free for in-gap events, so every ordering decision
in the package is an exact integer comparison; no floating point enters
the time base.

A rule/epoch combination acts on a customer with actual slots (A, D)
only through one integer pair, its span shift (s0, e0): the customer is
observed exactly at the slot indices A + s0 .. D + e0.  :func:`span_shift`
is the one place the rule/epoch encoding is reduced to that pair.  Only
five pairs occur over the 30 combinations: (0, -1) x 9, (1, 0) x 8,
(1, -1) x 7, (0, 0) x 5 and (0, -2) x 1.  Everything observed depends on
the pair alone, so downstream code computes and memoizes per pair (see
:mod:`dtq.observer`), and the observed-wait offset e0 - s0 + 1 gives the
coherence class (see :mod:`dtq.coherence`).
"""
from __future__ import annotations

from dataclasses import dataclass
from enum import Enum, IntEnum

__all__ = [
    "Phase",
    "MicroTime",
    "SchedulingRule",
    "ObservationEpoch",
    "RULES",
    "EPOCHS",
    "compare",
    "shift_arrival",
    "shift_departure",
    "arrival_phase",
    "departure_shift",
    "epoch_phase",
    "epoch_point",
    "span_shift",
    "observation_span",
]


class Phase(IntEnum):
    """Tagged positions around slot edge tau, ranked in time order."""

    CENTER = 0  # tau - 0.5, the slot midpoint
    MM = 1      # tau--
    M = 2       # tau-
    EDGE = 3    # tau, the edge itself
    P = 4       # tau+
    PP = 5      # tau++


_PHASE_SUFFIX = {
    Phase.CENTER: "-0.5",
    Phase.MM: "--",
    Phase.M: "-",
    Phase.EDGE: "",
    Phase.P: "+",
    Phase.PP: "++",
}

# Side of its tagged position on which a scheduled event falls: events
# tagged "-"/"--" land just after the position, "+" events just before
# it.  Edge-tagged events (the plain actual system) sit on the edge and
# keep the conventional open-left/closed-right slot accounting.
_EVENT_SIDE = {Phase.MM: +1, Phase.M: +1, Phase.EDGE: 0, Phase.P: -1}


@dataclass(frozen=True, order=True)
class MicroTime:
    """A point on the micro-time lattice: slot index plus phase tag.

    Ordering is lexicographic in (slot, phase), which matches the real
    time order of the tagged positions.
    """

    slot: int
    phase: Phase

    def __post_init__(self):
        if self.slot < 0:
            raise ValueError(f"slot index must be nonnegative, got {self.slot}")

    def point_coord(self) -> int:
        """Integer coordinate of this position on the refined grid."""
        return 12 * self.slot + 2 * int(self.phase)

    def event_coord(self) -> int:
        """Integer coordinate of a scheduled event carrying this tag."""
        side = _EVENT_SIDE.get(self.phase)
        if side is None:
            raise ValueError(f"no events are scheduled at phase {self.phase.name}")
        return 12 * self.slot + 2 * int(self.phase) + side

    def __str__(self) -> str:
        return f"{self.slot}{_PHASE_SUFFIX[self.phase]}"


def compare(a: MicroTime, b: MicroTime) -> int:
    """Total order on lattice positions: -1 (a<b), 0 (equal) or +1."""
    ka = (a.slot, int(a.phase))
    kb = (b.slot, int(b.phase))
    return -1 if ka < kb else (0 if ka == kb else 1)


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


def shift_arrival(rule: SchedulingRule, arrival_slot: int) -> MicroTime:
    """Scheduled arrival instant for an actual arrival at the given slot."""
    if arrival_slot < 0:
        raise ValueError(f"arrival slot must be nonnegative, got {arrival_slot}")
    return MicroTime(arrival_slot, _ARRIVAL_PHASE[rule])


def shift_departure(rule: SchedulingRule, departure_slot: int) -> MicroTime:
    """Scheduled departure instant for an actual departure at the given slot.

    Service times are at least one slot, so departures sit at slot 1 or
    later; for LAS-IA a slot-0 departure would underflow the lattice.
    """
    if departure_slot < 0:
        raise ValueError(f"departure slot must be nonnegative, got {departure_slot}")
    delta, phase = _DEPARTURE_SHIFT[rule]
    if departure_slot + delta < 0:
        raise ValueError(
            f"departure slot {departure_slot} is too small for rule {rule.label}"
        )
    return MicroTime(departure_slot + delta, phase)


def epoch_phase(rule: SchedulingRule, epoch: ObservationEpoch) -> Phase:
    if epoch is ObservationEpoch.RANDOM_OBSERVER:
        return Phase.EDGE
    if epoch is ObservationEpoch.OUTSIDE_OBSERVER:
        return Phase.CENTER
    return _EPOCH_ROWS[rule][_EVENT_EPOCH_INDEX[epoch]]


def epoch_point(rule: SchedulingRule, epoch: ObservationEpoch, t: int) -> MicroTime:
    """Observation instant u(t) for slot index t under a rule/epoch combo."""
    if t < 0:
        raise ValueError(f"slot index must be nonnegative, got {t}")
    return MicroTime(t, epoch_phase(rule, epoch))


def span_shift(rule: SchedulingRule, epoch: ObservationEpoch) -> tuple[int, int]:
    """Slot shifts (s0, e0) of the observed span under a rule/epoch combo.

    A customer with actual arrival/departure slots (a, d) is observed at
    slot index t exactly when its scheduled arrival precedes u(t) and its
    scheduled departure does not.  Events live on odd grid coordinates
    and observation instants on even ones, so the boundary cases reduce
    to two integer threshold tests, independent of (a, d): the customer
    is seen at t = a + s0 .. d + e0.
    """
    a_phase = _ARRIVAL_PHASE[rule]
    arr_coord = 2 * int(a_phase) + _EVENT_SIDE[a_phase]
    d_delta, d_phase = _DEPARTURE_SHIFT[rule]
    dep_coord = 2 * int(d_phase) + _EVENT_SIDE[d_phase]
    obs_coord = 2 * int(epoch_phase(rule, epoch))
    s0 = 1 if arr_coord >= obs_coord else 0
    e0 = d_delta - (1 if obs_coord > dep_coord else 0)
    return s0, e0


def observation_span(rule, epoch, arrival_slot, departure_slot):
    """Inclusive slot range whose observation instants see the customer.

    Accepts scalars or numpy arrays for the slots; returns
    (arrival + s0, departure + e0) for the combo's :func:`span_shift`,
    empty when end < start.
    """
    s0, e0 = span_shift(rule, epoch)
    return arrival_slot + s0, departure_slot + e0
