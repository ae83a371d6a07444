import itertools
import re
from collections import Counter

import numpy as np
import pytest
from conftest import (
    engine_blocks,
    oracle_cycles,
    oracle_observed_path,
    oracle_observed_wait,
    small_random_traces,
)
from hypothesis import given, settings
from hypothesis import strategies as st

from dtq.busy import detect_cycles
from dtq.coherence import (
    GOLDEN_CLASS_GRID,
    GOLDEN_EDGE_CENTER_OK,
    CoherenceClass,
    OffsetViolation,
    classification_rows,
    classification_table,
    classify,
    render_classification_text,
    verify_on_trace,
)
from dtq.engine import (
    Bernoulli,
    DiscreteDist,
    External,
    Fifo,
    InfiniteServer,
    build_trace,
    run_discipline,
)
from dtq.observer import observed_waits
from dtq.timebase import EPOCHS, RULES, ObservationEpoch as E, SchedulingRule as R, span_shift


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
    tr = run_discipline([a], None, External((a + w,)))
    off = observed_waits(tr, rule, epoch)[0] - tr.waits[0]
    assert off == classify(rule, epoch).offset


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
    actual = detect_cycles(tr)
    assert actual.B[0] == 9
    eas = oracle_cycles(oracle_observed_path(tr, R.EAS, E.RANDOM_OBSERVER))
    assert eas.B[0] == 8
    da = oracle_cycles(oracle_observed_path(tr, R.LAS_DA, E.RANDOM_OBSERVER))
    assert da.B[0] == 10
    ia_center = oracle_cycles(oracle_observed_path(tr, R.LAS_IA, E.OUTSIDE_OBSERVER))
    assert ia_center.B[0] == 8


def test_rows_and_text_render():
    table = classification_table()
    rows = classification_rows(table)
    assert len(rows) == 30
    assert {"rule", "epoch", "class"} == set(rows[0])
    text = render_classification_text(table)
    assert text.count("coh") == 17
    assert "LAS-IA" in text


def test_empty_trace_report():
    tr = run_discipline([], [], Fifo(1), horizon=5)
    report = verify_on_trace(tr, R.EAS, E.RANDOM_OBSERVER)
    assert report.passed and report.offset_counts == {}


class TestOffsetMemo:
    """The offset histogram is computed once per span shift."""

    @staticmethod
    def _trace():
        return build_trace(Bernoulli(0.3), DiscreteDist.geometric(0.5), Fifo(1), 12, 5_000)

    def test_thirty_combos_cost_five_passes(self, monkeypatch):
        from dtq import coherence

        calls = []
        blocks = coherence._offset_blocks

        def counted(trace, s0, e0):
            calls.append((s0, e0))
            return blocks(trace, s0, e0)

        monkeypatch.setattr(coherence, "_offset_blocks", counted)
        tr = self._trace()
        for rule, epoch in itertools.product(RULES, EPOCHS):
            assert verify_on_trace(tr, rule, epoch).passed
        assert len(calls) == 5
        assert set(calls) == {span_shift(r, e) for r, e in itertools.product(RULES, EPOCHS)}
        assert sorted(k for k in tr._memo if k[0] == "offsets") == sorted(("offsets", *c) for c in calls)

    def test_reports_do_not_alias_the_memo(self):
        tr = self._trace()
        first = verify_on_trace(tr, R.EAS, E.RANDOM_OBSERVER)
        counts = dict(first.offset_counts)
        first.offset_counts.clear()
        first.offset_counts[5] = 1
        same_shift = [
            (r, e) for r, e in itertools.product(RULES, EPOCHS)
            if span_shift(r, e) == span_shift(R.EAS, E.RANDOM_OBSERVER)
        ]
        for rule, epoch in same_shift:  # the EAS combo itself and the others of its shift
            again = verify_on_trace(tr, rule, epoch)
            assert again.offset_counts == counts and again.passed
        assert len(same_shift) > 1

    def test_span_clip_at_slot_zero_matches_oracle(self):
        # arrivals at slot 0 are seen from slot 1 on, so shifts with s0 = 0
        # observe them one slot short: the clip fails those combos, or takes
        # the sub-coherent ones out of range
        tr = run_discipline([0, 0, 3, 4], [2, 3, 1, 5], Fifo(1), horizon=20)
        outcomes = Counter()
        for _ in range(2):  # the second pass reads every histogram from the memo
            for rule, epoch in itertools.product(RULES, EPOCHS):
                want = classify(rule, epoch).offset
                hist = Counter(
                    oracle_observed_wait(rule, epoch, int(a), int(d)) - int(d - a)
                    for a, d in zip(tr.arrivals, tr.departures)
                )
                if min(hist) < -1:
                    with pytest.raises(OffsetViolation):
                        verify_on_trace(tr, rule, epoch)
                    outcomes["raised"] += 1
                    continue
                report = verify_on_trace(tr, rule, epoch)
                assert (report.rule, report.epoch, report.expected) == (rule, epoch, want)
                assert report.offset_counts == hist
                assert list(report.offset_counts) == sorted(hist)
                assert report.passed == (hist == {want: tr.n})
                outcomes[report.passed] += 1
        assert outcomes["raised"] and outcomes[False] and outcomes[True]

    def test_out_of_range_offset_raises(self, monkeypatch):
        from dtq import coherence

        tr = self._trace()
        # offsets 0 and 2, plus one: the second pass finds the same set
        monkeypatch.setattr(coherence, "_offset_blocks", lambda trace, s0, e0: iter([1 + 2 * (trace.waits > 3)]))
        with pytest.raises(OffsetViolation, match=r"offsets \[0, 2\] for \(EAS, random-observer\)"):
            verify_on_trace(tr, R.EAS, E.RANDOM_OBSERVER)
        assert not any(k[0] == "offsets" for k in tr._memo)

    @engine_blocks("_SLOT_BLOCK", 1, 2, 3, 7, 1 << 16)
    def test_histogram_is_the_bincount_of_the_offsets(self, engine_block):
        # arrivals at slot 0 make the clip at slot 1 bind: those traces fail
        # some combos and take others out of range, at every block size
        slot_zero = run_discipline([0, 0, 3, 4], [2, 3, 1, 5], Fifo(1), horizon=20)
        outcomes = Counter()
        for tr in (slot_zero, *small_random_traces(20251020, 100)):
            for rule, epoch in itertools.product(RULES, EPOCHS):
                offsets = observed_waits(tr, rule, epoch) - tr.waits
                if tr.n and offsets.min() < -1:
                    found = re.escape(f"offsets {np.unique(offsets).tolist()} for")
                    with pytest.raises(OffsetViolation, match=found):
                        verify_on_trace(tr, rule, epoch)
                    outcomes["raised"] += 1
                    continue
                counts = np.bincount(offsets + 1, minlength=3)
                report = verify_on_trace(tr, rule, epoch)
                assert report.offset_counts == {v - 1: int(c) for v, c in enumerate(counts) if c}
                outcomes[report.passed] += 1
        assert outcomes["raised"] and outcomes[False] and outcomes[True]
