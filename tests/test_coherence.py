import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dtq.busy import cycles_from_path
from dtq.coherence import (
    GOLDEN_CLASS_GRID,
    GOLDEN_EDGE_CENTER_OK,
    CoherenceClass,
    OffsetViolation,
    classification_rows,
    classification_table,
    classify,
    expected_offset,
    render_classification_text,
    verify_on_trace,
)
from dtq.engine import Bernoulli, DiscreteDist, Fifo, InfiniteServer, build_trace, run_discipline
from dtq.observer import actual_wait, observed_queue_path, observed_wait
from dtq.timebase import EPOCHS, RULES, ObservationEpoch as E, SchedulingRule as R


def test_classify_examples():
    assert classify(R.EAS, E.RANDOM_OBSERVER) is CoherenceClass.SUB_COHERENT
    assert classify(R.LAS_IA, E.RANDOM_OBSERVER) is CoherenceClass.COHERENT
    assert classify(R.LA_AF, E.POT_POST_ARRIVAL) is CoherenceClass.SUPER_COHERENT


def test_full_table_matches_reference():
    table = classification_table()
    assert table == GOLDEN_CLASS_GRID


def test_exactly_seventeen_coherent():
    table = classification_table()
    assert sum(1 for c in table.values() if c is CoherenceClass.COHERENT) == 17


def test_edge_and_center_summary():
    table = classification_table()
    summary = {
        rule: (
            table[(rule, E.RANDOM_OBSERVER)] is CoherenceClass.COHERENT,
            table[(rule, E.OUTSIDE_OBSERVER)] is CoherenceClass.COHERENT,
        )
        for rule in RULES
    }
    assert summary == GOLDEN_EDGE_CENTER_OK


@given(
    st.sampled_from(RULES),
    st.sampled_from(EPOCHS),
    st.integers(min_value=1, max_value=20),
    st.sampled_from([1, 2, 3, 5]),
)
@settings(max_examples=200, deadline=None)
def test_offset_is_customer_independent(rule, epoch, a, w):
    # the shift-based class must predict the offset for any arrival/sojourn
    off = observed_wait(rule, epoch, a, a + w) - actual_wait(a, a + w)
    assert off == expected_offset(rule, epoch)


@pytest.mark.parametrize("shift", [(1, -2), (0, 1)])
def test_offset_outside_unit_range_raises(monkeypatch, shift):
    from dtq import coherence

    monkeypatch.setattr(coherence, "span_shift", lambda rule, epoch: shift)
    with pytest.raises(OffsetViolation):
        classify(R.EAS, E.RANDOM_OBSERVER)


@pytest.mark.parametrize("rule,epoch", list(itertools.product(RULES, EPOCHS)))
def test_verify_on_trace_all_combos(rule, epoch, small_bgeom1_trace):
    report = verify_on_trace(small_bgeom1_trace, rule, epoch)
    assert report.passed
    assert set(report.offset_counts) == {report.expected}


def test_verify_on_infinite_server_trace():
    tr = build_trace(Bernoulli(0.2), DiscreteDist.geometric(0.25), InfiniteServer(), 5, 30_000)
    for rule, epoch in itertools.product(RULES, EPOCHS):
        assert verify_on_trace(tr, rule, epoch).passed
    # center-sampled immediate access undercounts by exactly one slot
    from dtq.observer import observed_waits

    w_obs = observed_waits(tr, R.LAS_IA, E.OUTSIDE_OBSERVER)
    assert np.array_equal(w_obs, tr.services - 1)


def test_waiting_time_multiset_invariant_across_coherent_combos(small_bgeom1_trace):
    from dtq.observer import observed_waits

    reference = None
    for (rule, epoch), cls in classification_table().items():
        if cls is not CoherenceClass.COHERENT:
            continue
        w = np.sort(observed_waits(small_bgeom1_trace, rule, epoch))
        if reference is None:
            reference = w
        assert np.array_equal(w, reference)
    assert np.array_equal(reference, np.sort(small_bgeom1_trace.waits))


def test_observed_busy_span_two_customer_example():
    # arrivals (1, 3) with services (5, 4): the actual busy period covers
    # nine slots; at slot edges the early-arrival path shows eight and the
    # delayed-access path ten, at slot centers immediate access shows eight
    tr = run_discipline([1, 3, 14, 16], [5, 4, 5, 4], Fifo(1), horizon=26)
    actual = cycles_from_path(tr.queue_path())
    assert actual.B[0] == 9
    eas = cycles_from_path(observed_queue_path(tr, R.EAS, E.RANDOM_OBSERVER))
    assert eas.B[0] == 8
    da = cycles_from_path(observed_queue_path(tr, R.LAS_DA, E.RANDOM_OBSERVER))
    assert da.B[0] == 10
    ia_center = cycles_from_path(observed_queue_path(tr, R.LAS_IA, E.OUTSIDE_OBSERVER))
    assert ia_center.B[0] == 8


def test_rows_and_text_render():
    rows = classification_rows()
    assert len(rows) == 30
    assert {"rule", "epoch", "class"} == set(rows[0])
    text = render_classification_text()
    assert text.count("coh") == 17
    assert "LAS-IA" in text


def test_empty_trace_report():
    tr = run_discipline([], [], Fifo(1), horizon=5)
    report = verify_on_trace(tr, R.EAS, E.RANDOM_OBSERVER)
    assert report.passed and report.offset_counts == {}
