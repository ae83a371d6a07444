import itertools
from collections import Counter

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import oracle_observed_wait
from dtq.timebase import (
    EPOCHS,
    RULES,
    MicroTime,
    ObservationEpoch,
    Phase,
    SchedulingRule,
    compare,
    epoch_point,
    shift_arrival,
    shift_departure,
    span_shift,
)

R, E = SchedulingRule, ObservationEpoch


def test_phase_ranks_are_fixed():
    assert [p.value for p in Phase] == [0, 1, 2, 3, 4, 5]
    assert Phase.CENTER < Phase.MM < Phase.M < Phase.EDGE < Phase.P < Phase.PP


def test_compare_examples():
    assert compare(MicroTime(5, Phase.M), MicroTime(5, Phase.EDGE)) == -1
    assert compare(MicroTime(5, Phase.P), MicroTime(6, Phase.CENTER)) == -1
    assert compare(MicroTime(7, Phase.EDGE), MicroTime(7, Phase.EDGE)) == 0


def test_slot_boundary_ordering():
    # tau+ < (tau+1)-0.5 < (tau+1)--
    assert MicroTime(4, Phase.P) < MicroTime(5, Phase.CENTER) < MicroTime(5, Phase.MM)


micro = st.builds(
    MicroTime, st.integers(min_value=0, max_value=50), st.sampled_from(list(Phase))
)


@given(micro, micro)
def test_compare_antisymmetric(a, b):
    assert compare(a, b) == -compare(b, a)
    assert (compare(a, b) == 0) == (a == b)


@given(micro, micro, micro)
def test_compare_transitive(a, b, c):
    if compare(a, b) <= 0 and compare(b, c) <= 0:
        assert compare(a, c) <= 0


@given(micro, micro)
def test_point_coord_matches_order(a, b):
    assert (a.point_coord() < b.point_coord()) == (compare(a, b) == -1)


@pytest.mark.parametrize(
    "rule,slot,expected",
    [
        (R.EAS, 5, MicroTime(5, Phase.P)),
        (R.LA_AF, 5, MicroTime(5, Phase.MM)),
        (R.LAS_IA, 0, MicroTime(0, Phase.M)),
        (R.LAS_DA, 9, MicroTime(9, Phase.M)),
        (R.LA_DF, 9, MicroTime(9, Phase.M)),
    ],
)
def test_shift_arrival(rule, slot, expected):
    assert shift_arrival(rule, slot) == expected


@pytest.mark.parametrize(
    "rule,slot,expected",
    [
        (R.EAS, 6, MicroTime(6, Phase.M)),
        (R.LA_AF, 6, MicroTime(6, Phase.M)),
        (R.LAS_IA, 6, MicroTime(5, Phase.P)),
        (R.LAS_DA, 6, MicroTime(6, Phase.P)),
        (R.LA_DF, 6, MicroTime(6, Phase.MM)),
    ],
)
def test_shift_departure(rule, slot, expected):
    assert shift_departure(rule, slot) == expected


def test_shift_departure_rejects_slot_zero_for_immediate_access():
    with pytest.raises(ValueError):
        shift_departure(R.LAS_IA, 0)
    with pytest.raises(ValueError):
        shift_arrival(R.EAS, -1)


def test_shifted_arrival_stays_near_its_slot():
    for rule in RULES:
        m = shift_arrival(rule, 4)
        assert m.slot == 4
        assert m.phase in (Phase.MM, Phase.M, Phase.P)


def test_early_arrival_brackets_the_edge():
    assert shift_arrival(R.EAS, 7) > MicroTime(7, Phase.EDGE)
    assert shift_departure(R.EAS, 7) < MicroTime(7, Phase.EDGE)


# The full sampling-position grid, one cell per rule/epoch pair.
_EXPECTED_EPOCH_PHASES = {
    R.EAS: (Phase.EDGE, Phase.CENTER, Phase.EDGE, Phase.P, Phase.M, Phase.EDGE),
    R.LAS_IA: (Phase.EDGE, Phase.CENTER, Phase.M, Phase.EDGE, Phase.EDGE, Phase.P),
    R.LAS_DA: (Phase.EDGE, Phase.CENTER, Phase.M, Phase.EDGE, Phase.EDGE, Phase.P),
    R.LA_AF: (Phase.EDGE, Phase.CENTER, Phase.MM, Phase.M, Phase.M, Phase.EDGE),
    R.LA_DF: (Phase.EDGE, Phase.CENTER, Phase.M, Phase.EDGE, Phase.MM, Phase.M),
}


def test_epoch_point_full_grid():
    for rule, phases in _EXPECTED_EPOCH_PHASES.items():
        for epoch, phase in zip(EPOCHS, phases):
            assert epoch_point(rule, epoch, 7) == MicroTime(7, phase), (rule, epoch)


def test_epoch_point_examples():
    assert epoch_point(R.EAS, E.OUTSIDE_OBSERVER, 7) == MicroTime(7, Phase.CENTER)
    assert epoch_point(R.LA_AF, E.POT_PRE_ARRIVAL, 7) == MicroTime(7, Phase.MM)
    assert epoch_point(R.LAS_IA, E.POT_POST_DEPARTURE, 7) == MicroTime(7, Phase.P)


def test_epoch_point_monotone_in_slot():
    for rule, epoch in itertools.product(RULES, EPOCHS):
        pts = [epoch_point(rule, epoch, t) for t in range(6)]
        assert all(a < b for a, b in zip(pts, pts[1:]))


def test_random_and_outside_are_rule_independent():
    for epoch in (E.RANDOM_OBSERVER, E.OUTSIDE_OBSERVER):
        points = {epoch_point(rule, epoch, 3) for rule in RULES}
        assert len(points) == 1


def test_rendering():
    assert str(MicroTime(5, Phase.P)) == "5+"
    assert str(MicroTime(5, Phase.PP)) == "5++"
    assert str(MicroTime(5, Phase.M)) == "5-"
    assert str(MicroTime(5, Phase.MM)) == "5--"
    assert str(MicroTime(5, Phase.CENTER)) == "5-0.5"
    assert str(MicroTime(5, Phase.EDGE)) == "5"


def test_span_shift_takes_five_values():
    shifts = Counter(span_shift(rule, epoch) for rule, epoch in itertools.product(RULES, EPOCHS))
    assert shifts == {(0, -1): 9, (1, 0): 8, (1, -1): 7, (0, 0): 5, (0, -2): 1}


@pytest.mark.parametrize("rule,epoch", list(itertools.product(RULES, EPOCHS)))
def test_span_shift_offset_matches_rational_oracle(rule, epoch):
    s0, e0 = span_shift(rule, epoch)
    for a, w in [(1, 1), (2, 3), (7, 1), (10, 2), (25, 6)]:
        assert e0 - s0 + 1 == oracle_observed_wait(rule, epoch, a, a + w) - w, (a, w)
