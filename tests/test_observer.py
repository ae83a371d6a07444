import itertools
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    oracle_observed_path,
    oracle_observed_wait,
    oracle_queue_length,
)
from dtq.busy import cycles_from_path
from dtq.coherence import CoherenceClass, classify
from dtq.engine import (
    Bernoulli,
    DiscreteDist,
    External,
    Fifo,
    InfiniteServer,
    build_trace,
    run_discipline,
)
from dtq.observer import (
    InsufficientDataError,
    actual_wait,
    cycle_visit_counts,
    observed_queue_path,
    observed_service_spans,
    observed_wait,
    observed_waits,
    queue_length,
    queue_length_observed,
    time_averages,
)
from dtq.timebase import EPOCHS, RULES, ObservationEpoch as E, SchedulingRule as R, observation_span

ALL_COMBOS = list(itertools.product(RULES, EPOCHS))


class TestActualWait:
    def test_examples(self):
        assert actual_wait(1, 4) == 3
        assert actual_wait(9, 10) == 1
        assert actual_wait(5, 7) == 2

    def test_rejects_nonpositive_sojourn(self):
        with pytest.raises(ValueError):
            actual_wait(5, 5)

    def test_equals_indicator_sum(self):
        for a, d in [(0, 1), (3, 9), (17, 18)]:
            count = sum(1 for tau in range(0, d + 2) if a < tau <= d)
            assert actual_wait(a, d) == count


class TestObservedWait:
    def test_single_slot_customer_at_slot_edges(self):
        a, d = 9, 10
        assert observed_wait(R.LAS_IA, E.RANDOM_OBSERVER, a, d) == 1
        assert observed_wait(R.EAS, E.RANDOM_OBSERVER, a, d) == 0
        assert observed_wait(R.LAS_DA, E.RANDOM_OBSERVER, a, d) == 2
        assert observed_wait(R.LA_AF, E.RANDOM_OBSERVER, a, d) == 1
        assert observed_wait(R.LA_DF, E.RANDOM_OBSERVER, a, d) == 1

    @pytest.mark.parametrize("rule,epoch", ALL_COMBOS)
    def test_matches_rational_oracle(self, rule, epoch):
        for a in (1, 2, 7, 20):
            for w in (1, 2, 3, 5, 11):
                assert observed_wait(rule, epoch, a, a + w) == oracle_observed_wait(
                    rule, epoch, a, a + w
                ), (rule, epoch, a, w)

    @given(
        st.sampled_from(RULES),
        st.sampled_from(EPOCHS),
        st.integers(min_value=1, max_value=40),
        st.integers(min_value=1, max_value=12),
    )
    @settings(max_examples=120, deadline=None)
    def test_matches_rational_oracle_random(self, rule, epoch, a, w):
        assert observed_wait(rule, epoch, a, a + w) == oracle_observed_wait(rule, epoch, a, a + w)

    def test_infinite_server_counts(self):
        # every arrival finds a free server, time in system equals service
        tr = run_discipline([1], [6], InfiniteServer())
        s = int(tr.services[0])
        edges = {
            rule: observed_wait(rule, E.RANDOM_OBSERVER, 1, 1 + s) for rule in RULES
        }
        assert edges[R.EAS] == s - 1
        assert edges[R.LAS_DA] == s + 1
        for rule in (R.LAS_IA, R.LA_AF, R.LA_DF):
            assert edges[rule] == s
        centers = {
            rule: observed_wait(rule, E.OUTSIDE_OBSERVER, 1, 1 + s) for rule in RULES
        }
        assert centers[R.LAS_IA] == s - 1
        for rule in (R.EAS, R.LAS_DA, R.LA_AF, R.LA_DF):
            assert centers[rule] == s


class TestQueueLength:
    def test_worked_example_values(self, worked_example_trace):
        assert queue_length(worked_example_trace, 3) == 2
        assert queue_length(worked_example_trace, 7) == 1
        assert queue_length(worked_example_trace, 1) == 0

    def test_counting_identity(self, small_bgeom1_trace):
        # L equals arrivals-so-far minus departures-so-far at every slot
        tr = small_bgeom1_trace
        path = tr.queue_path()
        for tau in (1, 17, 500, 9_999):
            n_arr = int(np.count_nonzero(tr.arrivals <= tau - 1))
            n_dep = int(np.count_nonzero(tr.departures <= tau - 1))
            assert path[tau] == n_arr - n_dep == oracle_queue_length(tr, tau)

    def test_conventions(self, worked_example_trace):
        left = [queue_length(worked_example_trace, t) for t in range(1, 8)]
        right = [
            queue_length(worked_example_trace, t, "strict-right") for t in range(1, 8)
        ]
        assert left == [0, 1, 2, 2, 1, 1, 1]
        assert right == [1, 2, 2, 1, 1, 1, 0]
        assert sum(left) == sum(right)


class TestObservedQueue:
    @pytest.mark.parametrize("rule,epoch", ALL_COMBOS)
    def test_path_matches_rational_oracle(self, rule, epoch, two_customer_trace):
        fast = observed_queue_path(two_customer_trace, rule, epoch)
        slow = oracle_observed_path(two_customer_trace, rule, epoch)
        assert np.array_equal(fast, slow), (rule, epoch)

    def test_scalar_queries(self, two_customer_trace):
        tr = two_customer_trace
        for tau in range(1, tr.horizon + 1):
            assert queue_length_observed(tr, R.EAS, E.RANDOM_OBSERVER, tau) == int(
                observed_queue_path(tr, R.EAS, E.RANDOM_OBSERVER)[tau]
            )

    def test_single_customer_span(self):
        tr = run_discipline([4], [1], Fifo(1), horizon=8)
        assert queue_length_observed(tr, R.EAS, E.RANDOM_OBSERVER, 4) == 0
        assert int(observed_queue_path(tr, R.EAS, E.RANDOM_OBSERVER).sum()) == 0

    def test_empty_trace(self):
        tr = run_discipline([], [], Fifo(1), horizon=10)
        assert queue_length_observed(tr, R.EAS, E.RANDOM_OBSERVER, 5) == 0


class TestTimeAverages:
    def test_worked_example(self, worked_example_trace):
        est = time_averages(worked_example_trace, warmup=0)
        lam = Fraction(3, 7)
        assert est.lam == pytest.approx(float(lam), abs=1e-15)
        assert est.W == pytest.approx(8 / 3, abs=1e-12)
        assert est.L == pytest.approx(8 / 7, abs=1e-12)
        assert est.L == pytest.approx(est.lam * est.W, abs=1e-12)

    def test_both_conventions_same_mean(self, worked_example_trace):
        left = time_averages(worked_example_trace, warmup=0)
        right = time_averages(worked_example_trace, warmup=0, convention="strict-right")
        assert left.L == pytest.approx(right.L, abs=1e-15)

    def test_reference_mean_wait(self, bgeom1_trace):
        est = time_averages(bgeom1_trace)
        assert est.W == pytest.approx(3.5, rel=0.02)
        assert est.L == pytest.approx(1.05, rel=0.02)

    def test_observed_mean_queue_sub_coherent(self, bgeom1_trace):
        est = time_averages(bgeom1_trace, R.EAS, E.RANDOM_OBSERVER)
        assert est.L_obs == pytest.approx(0.75, rel=0.03)

    def test_histograms_normalized(self, bgeom1_trace):
        est = time_averages(bgeom1_trace, R.LAS_DA, E.RANDOM_OBSERVER)
        assert est.pi.sum() == pytest.approx(1.0, abs=1e-9)
        assert est.pi_obs.sum() == pytest.approx(1.0, abs=1e-9)

    def test_insufficient_data(self):
        tr = run_discipline([1], [100], Fifo(1), horizon=50)
        with pytest.raises(InsufficientDataError):
            time_averages(tr, warmup=0)

    def test_json_keys(self, worked_example_trace):
        est = time_averages(worked_example_trace, R.EAS, E.RANDOM_OBSERVER, warmup=0)
        blob = est.to_json()
        assert set(blob) == {
            "lambda", "L", "W", "L_obs", "W_obs", "pi", "pi_obs",
            "horizon", "warmup", "rule", "epoch",
        }
        assert blob["rule"] == "EAS"
        assert blob["epoch"] == "random-observer"


def _memo_free_averages(trace, rule, epoch, warmup, convention):
    """Per-combo bincount over observation_span, as computed before the memo."""
    T = trace.horizon
    span = T - warmup
    inside = trace.arrivals > warmup
    lam = int(np.count_nonzero(inside & (trace.arrivals <= T))) / span
    completed = inside & (trace.departures <= T)
    W = float(trace.waits[completed].mean())
    path = trace.queue_path(convention)[warmup + 1 :]
    start, end = observation_span(rule, epoch, trace.arrivals, trace.departures)
    W_obs = float(np.maximum(0, end - np.maximum(start, 1) + 1)[completed].mean())
    lo = np.clip(start, 1, T + 1)
    hi = np.clip(end + 1, 1, T + 1)
    delta = np.bincount(lo, minlength=T + 2) - np.bincount(hi, minlength=T + 2)
    opath = np.cumsum(delta[: T + 1])[warmup + 1 :]
    return {
        "lam": lam,
        "W": W,
        "L": float(path.mean()),
        "pi": np.bincount(path) / span,
        "n_completed": int(np.count_nonzero(completed)),
        "W_obs": W_obs,
        "L_obs": float(opath.mean()),
        "pi_obs": np.bincount(opath) / span,
    }


def _assert_bitwise_equal(est, ref):
    for name, want in ref.items():
        got = getattr(est, name)
        if isinstance(want, np.ndarray):
            assert got.dtype == want.dtype and np.array_equal(got, want), name
        else:
            assert got == want, name


class TestTimeAveragesMemo:
    @pytest.mark.parametrize("convention", ["strict-left", "strict-right"])
    @pytest.mark.parametrize("warmup", [0, 1_000])
    def test_matches_memo_free_computation(self, small_bgeom1_trace, warmup, convention):
        for rule, epoch in ALL_COMBOS:
            est = time_averages(small_bgeom1_trace, rule, epoch, warmup, convention)
            ref = _memo_free_averages(small_bgeom1_trace, rule, epoch, warmup, convention)
            _assert_bitwise_equal(est, ref)

    def test_traces_do_not_share_entries(self, small_bgeom1_trace):
        other = build_trace(Bernoulli(0.3), DiscreteDist.geometric(0.5), Fifo(1), 4, 10_000)
        first = time_averages(small_bgeom1_trace, R.EAS, E.RANDOM_OBSERVER, 1_000)
        second = time_averages(other, R.EAS, E.RANDOM_OBSERVER, 1_000)
        _assert_bitwise_equal(
            second, _memo_free_averages(other, R.EAS, E.RANDOM_OBSERVER, 1_000, "strict-left")
        )
        assert (second.lam, second.L, second.L_obs) != (first.lam, first.L, first.L_obs)

    @pytest.mark.parametrize("rule,epoch", [(None, None), (R.LAS_DA, E.RANDOM_OBSERVER)])
    def test_returned_histograms_do_not_alias_the_memo(self, small_bgeom1_trace, rule, epoch):
        before = time_averages(small_bgeom1_trace, rule, epoch, 500)
        pi, pi_obs = before.pi.copy(), before.pi_obs.copy()
        before.pi[:] = -1.0
        before.pi_obs[:] = -1.0
        after = time_averages(small_bgeom1_trace, rule, epoch, 500)
        assert np.array_equal(after.pi, pi) and np.array_equal(after.pi_obs, pi_obs)


class TestCycleVisitCounts:
    def test_single_customer_cycle(self):
        # one customer (1, 2], next cycle starts with the arrival at 4
        tr = run_discipline([1, 4], [1, 1], Fifo(1), horizon=6)
        counts = cycle_visit_counts(tr)
        assert counts.n_cycles == 1
        assert list(counts.counts[0]) == [2, 1]  # two empty slots, one busy

    def test_totals_match_cycle_lengths(self, small_bgeom1_trace):
        counts = cycle_visit_counts(small_bgeom1_trace)
        stats = cycles_from_path(small_bgeom1_trace.queue_path())
        for k in range(counts.n_cycles):
            assert counts.counts[k].sum() == stats.C[k]

    @pytest.mark.parametrize(
        "rule,epoch",
        [(r, e) for (r, e) in ALL_COMBOS if classify(r, e) is CoherenceClass.COHERENT],
    )
    def test_coherent_per_cycle_counts_match_actual(self, rule, epoch, small_bgeom1_trace):
        actual = cycle_visit_counts(small_bgeom1_trace)
        seen = cycle_visit_counts(small_bgeom1_trace, rule, epoch)
        # the horizon edge can clip one cycle on the lagged path
        assert abs(actual.n_cycles - seen.n_cycles) <= 1
        m = min(actual.n_cycles, seen.n_cycles)
        assert m > 100
        for k in range(m - 1):
            a, b = actual.counts[k], seen.counts[k]
            width = max(len(a), len(b))
            assert np.array_equal(
                np.pad(a, (0, width - len(a))), np.pad(b, (0, width - len(b)))
            ), (rule, epoch, k)

    def test_empty_trace(self):
        tr = run_discipline([], [], Fifo(1), horizon=10)
        assert cycle_visit_counts(tr).n_cycles == 0


class TestObservedServiceSpans:
    @pytest.mark.parametrize(
        "rule,epoch",
        [(r, e) for (r, e) in ALL_COMBOS if classify(r, e) is CoherenceClass.COHERENT],
    )
    def test_coherent_in_service_time_equals_service(self, rule, epoch, small_bgeom1_trace):
        spans = observed_service_spans(small_bgeom1_trace, rule, epoch)
        assert np.array_equal(spans, small_bgeom1_trace.services), (rule, epoch)


class TestEventSampledStates:
    """Combos that are coherent at an event epoch see identical states at
    the actual event instants (immediate-access departures index to the
    slot before the actual departure slot)."""

    def _sampled(self, trace, rule, epoch, slots):
        path = observed_queue_path(trace, rule, epoch)
        return path[np.clip(slots, 0, trace.horizon)]

    @pytest.mark.parametrize(
        "epoch,kind",
        [
            (E.POT_PRE_ARRIVAL, "arrival"),
            (E.POT_POST_ARRIVAL, "arrival"),
            (E.POT_PRE_DEPARTURE, "departure"),
            (E.POT_POST_DEPARTURE, "departure"),
        ],
    )
    def test_invariant_across_coherent_rules(self, epoch, kind, small_bgeom1_trace):
        tr = small_bgeom1_trace
        coherent_rules = [r for r in RULES if classify(r, epoch) is CoherenceClass.COHERENT]
        assert len(coherent_rules) >= 2
        # one keep mask for all rules so the customer sets align
        base = tr.arrivals if kind == "arrival" else tr.departures
        keep = (base >= 2) & (base <= tr.horizon - 1)
        sampled = []
        for rule in coherent_rules:
            slots = base.copy()
            if kind == "departure" and rule is R.LAS_IA:
                slots = slots - 1  # immediate-access departures fire a slot early
            sampled.append(self._sampled(tr, rule, epoch, slots[keep]))
        for other in sampled[1:]:
            assert np.array_equal(sampled[0], other)


def test_observed_waits_array_matches_scalar(small_bgeom1_trace):
    tr = small_bgeom1_trace
    arr = observed_waits(tr, R.LA_DF, E.POT_PRE_ARRIVAL)
    for k in (0, 5, 100):
        assert arr[k] == observed_wait(
            R.LA_DF, E.POT_PRE_ARRIVAL, int(tr.arrivals[k]), int(tr.departures[k])
        )
