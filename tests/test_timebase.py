import itertools
from collections import Counter

import pytest

from conftest import (
    ARRIVAL_PHASES,
    DEPARTURE_SHIFTS,
    EPOCH_PHASES,
    event_pos,
    oracle_observed_wait,
    point_pos,
    sampling_phase,
)
from dtq.timebase import (
    EPOCHS,
    RULES,
    ObservationEpoch,
    Phase,
    SchedulingRule,
    arrival_phase,
    departure_shift,
    epoch_phase,
    span_shift,
)

R, E = SchedulingRule, ObservationEpoch


def test_phase_ranks_are_fixed():
    assert [p.value for p in Phase] == [0, 1, 2, 3, 4]
    assert Phase.CENTER < Phase.MM < Phase.M < Phase.EDGE < Phase.P


@pytest.mark.parametrize("rule", RULES)
def test_phase_tables(rule):
    # the package's tables against the paper's, written out in conftest
    assert arrival_phase(rule) is ARRIVAL_PHASES[rule]
    assert departure_shift(rule) == DEPARTURE_SHIFTS[rule]
    assert tuple(epoch_phase(rule, epoch) for epoch in EPOCHS) == EPOCH_PHASES[rule]


def _first_observed(rule, epoch, arrival_pos, start):
    """First edge t >= start whose sampling instant follows the event."""
    phase = sampling_phase(rule, epoch)
    return next(t for t in itertools.count(start) if point_pos(t, phase) > arrival_pos)


def _last_observed(rule, epoch, departure_pos, start):
    """Last edge t >= start whose sampling instant precedes the event."""
    phase = sampling_phase(rule, epoch)
    return next(t for t in itertools.count(start) if point_pos(t + 1, phase) > departure_pos)


# Each scheduled event sits at its table position, and span_shift's
# separate s0 and e0 (not only their offset) open and close the observed
# span at the edges the rational oracle finds for that position.
@pytest.mark.parametrize(
    "rule,slot,expected",
    [
        (R.EAS, 5, (5, Phase.P)),
        (R.LA_AF, 5, (5, Phase.MM)),
        (R.LAS_IA, 0, (0, Phase.M)),
        (R.LAS_DA, 9, (9, Phase.M)),
        (R.LA_DF, 9, (9, Phase.M)),
    ],
)
def test_shift_arrival(rule, slot, expected):
    assert (slot, arrival_phase(rule)) == expected
    for epoch in EPOCHS:
        s0, _ = span_shift(rule, epoch)
        assert _first_observed(rule, epoch, event_pos(*expected), slot - 2) == slot + s0, epoch


@pytest.mark.parametrize(
    "rule,slot,expected",
    [
        (R.EAS, 6, (6, Phase.M)),
        (R.LA_AF, 6, (6, Phase.M)),
        (R.LAS_IA, 6, (5, Phase.P)),
        (R.LAS_DA, 6, (6, Phase.P)),
        (R.LA_DF, 6, (6, Phase.MM)),
    ],
)
def test_shift_departure(rule, slot, expected):
    delta, phase = departure_shift(rule)
    assert (slot + delta, phase) == expected
    for epoch in EPOCHS:
        _, e0 = span_shift(rule, epoch)
        assert _last_observed(rule, epoch, event_pos(*expected), slot - 4) == slot + e0, epoch


def test_shifted_arrival_stays_near_its_slot():
    # a scheduled arrival stays between the midpoints around its own edge
    for rule in RULES:
        assert arrival_phase(rule) in (Phase.MM, Phase.M, Phase.P)
        pos = event_pos(4, arrival_phase(rule))
        assert point_pos(4, Phase.CENTER) < pos < point_pos(5, Phase.CENTER), rule


def test_early_arrival_brackets_the_edge():
    delta, phase = departure_shift(R.EAS)
    assert event_pos(7, arrival_phase(R.EAS)) > point_pos(7, Phase.EDGE)
    assert event_pos(7 + delta, phase) < point_pos(7, Phase.EDGE)


def test_epoch_point_monotone_in_slot():
    for rule, epoch in itertools.product(RULES, EPOCHS):
        pts = [point_pos(t, epoch_phase(rule, epoch)) for t in range(6)]
        assert all(a < b for a, b in zip(pts, pts[1:]))


def test_random_and_outside_are_rule_independent():
    for epoch in (E.RANDOM_OBSERVER, E.OUTSIDE_OBSERVER):
        assert len({epoch_phase(rule, epoch) for rule in RULES}) == 1


def test_span_shift_takes_five_values():
    shifts = Counter(span_shift(rule, epoch) for rule, epoch in itertools.product(RULES, EPOCHS))
    assert shifts == {(0, -1): 9, (1, 0): 8, (1, -1): 7, (0, 0): 5, (0, -2): 1}


@pytest.mark.parametrize("rule,epoch", list(itertools.product(RULES, EPOCHS)))
def test_span_shift_offset_matches_rational_oracle(rule, epoch):
    s0, e0 = span_shift(rule, epoch)
    for a, w in [(1, 1), (2, 3), (7, 1), (10, 2), (25, 6)]:
        assert e0 - s0 + 1 == oracle_observed_wait(rule, epoch, a, a + w) - w, (a, w)
