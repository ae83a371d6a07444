import itertools
from fractions import Fraction
from functools import cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    engine_blocks,
    oracle_observed_path,
    oracle_observed_wait,
    oracle_queue_length,
    oracle_queue_path,
    oracle_shift_path,
    prefix_trace,
    small_random_traces,
)
from dtq.coherence import CoherenceClass, classify, verify_on_trace
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
    _SHIFTS,
    InsufficientDataError,
    _window_block,
    observed_queue_path,
    observed_waits,
    time_averages,
    window,
)
from dtq.timebase import (
    EPOCHS,
    RULES,
    ObservationEpoch as E,
    SchedulingRule as R,
    span_shift,
)

ALL_COMBOS = list(itertools.product(RULES, EPOCHS))


def customers(pairs):
    """A trace holding one customer per (arrival, departure) slot pair,
    the pairs in nondecreasing arrival order."""
    arrivals, departures = zip(*pairs)
    return run_discipline(arrivals, None, External(departures))


class TestActualWait:
    def test_examples(self):
        assert list(customers([(1, 4), (5, 7), (9, 10)]).waits) == [3, 2, 1]

    def test_equals_indicator_sum(self):
        pairs = [(0, 1), (3, 9), (17, 18)]
        for (a, d), w in zip(pairs, customers(pairs).waits):
            count = sum(1 for tau in range(0, d + 2) if a < tau <= d)
            assert w == count


class TestObservedWait:
    def test_single_slot_customer_at_slot_edges(self):
        tr = customers([(9, 10)])
        expected = {R.LAS_IA: 1, R.EAS: 0, R.LAS_DA: 2, R.LA_AF: 1, R.LA_DF: 1}
        for rule, w in expected.items():
            assert observed_waits(tr, rule, E.RANDOM_OBSERVER)[0] == w, rule

    @pytest.mark.parametrize("rule,epoch", ALL_COMBOS)
    def test_matches_rational_oracle(self, rule, epoch):
        pairs = [(a, a + w) for a in (1, 2, 7, 20) for w in (1, 2, 3, 5, 11)]
        for (a, d), w_obs in zip(pairs, observed_waits(customers(pairs), rule, epoch)):
            assert w_obs == oracle_observed_wait(rule, epoch, a, d), (rule, epoch, a, d - a)

    @given(
        st.sampled_from(RULES),
        st.sampled_from(EPOCHS),
        st.integers(min_value=1, max_value=40),
        st.integers(min_value=1, max_value=12),
    )
    @settings(max_examples=120, deadline=None)
    def test_matches_rational_oracle_random(self, rule, epoch, a, w):
        w_obs = observed_waits(customers([(a, a + w)]), rule, epoch)[0]
        assert w_obs == oracle_observed_wait(rule, epoch, a, a + w)

    def test_infinite_server_counts(self):
        # every arrival finds a free server, time in system equals service
        tr = run_discipline([1], [6], InfiniteServer())
        s = int(tr.services[0])
        edges = {rule: observed_waits(tr, rule, E.RANDOM_OBSERVER)[0] for rule in RULES}
        assert edges[R.EAS] == s - 1
        assert edges[R.LAS_DA] == s + 1
        for rule in (R.LAS_IA, R.LA_AF, R.LA_DF):
            assert edges[rule] == s
        centers = {rule: observed_waits(tr, rule, E.OUTSIDE_OBSERVER)[0] for rule in RULES}
        assert centers[R.LAS_IA] == s - 1
        for rule in (R.EAS, R.LAS_DA, R.LA_AF, R.LA_DF):
            assert centers[rule] == s


class TestQueueLength:
    def test_worked_example_values(self, worked_example_trace):
        path = worked_example_trace.queue_path()
        assert path[3] == 2
        assert path[7] == 1
        assert path[1] == 0

    def test_counting_identity(self, small_bgeom1_trace):
        # L equals arrivals-so-far minus departures-so-far at every slot
        tr = small_bgeom1_trace
        path = tr.queue_path()
        for tau in (1, 17, 500, 9_999):
            n_arr = int(np.count_nonzero(tr.arrivals <= tau - 1))
            n_dep = int(np.count_nonzero(tr.departures <= tau - 1))
            assert path[tau] == n_arr - n_dep == oracle_queue_length(tr, tau)

    def test_conventions(self, worked_example_trace):
        left = worked_example_trace.queue_path()[1:8].tolist()
        right = worked_example_trace.queue_path("strict-right")[1:8].tolist()
        assert left == [0, 1, 2, 2, 1, 1, 1]
        assert right == [1, 2, 2, 1, 1, 1, 0]
        assert sum(left) == sum(right)


def _late_prefix(trace):
    """Prefix cut at the middle arrival, so some customers depart late."""
    prefix = prefix_trace(trace, int(trace.arrivals[trace.n // 2]))
    assert np.any(prefix.departures > prefix.horizon)
    return prefix


class TestCountingKernel:
    def _traces(self, small_bgeom1_trace):
        yield small_bgeom1_trace
        yield _late_prefix(small_bgeom1_trace)
        yield build_trace(Bernoulli(0.7), DiscreteDist.geometric(0.4), Fifo(2), 3, 3_000)
        yield build_trace(Bernoulli(0.5), DiscreteDist.geometric(0.2), InfiniteServer(), 3, 3_000)
        yield run_discipline([0, 0, 2], [1, 3, 1], Fifo(1), horizon=4)  # arrivals at slot 0
        yield run_discipline([], [], Fifo(1), horizon=5)

    @pytest.mark.parametrize("convention", ["strict-left", "strict-right"])
    def test_queue_path_matches_difference_arrays(self, small_bgeom1_trace, convention):
        for tr in self._traces(small_bgeom1_trace):
            got = tr.queue_path(convention)
            want = oracle_queue_path(tr, convention)
            assert got.dtype == want.dtype and np.array_equal(got, want)

    @pytest.mark.parametrize("first", [0, 1, 3])
    def test_shift_path_counts_covering_spans(self, first):
        # arrivals at slot 0; in the second trace a departure past T + 1
        for tr in (
            run_discipline([0, 0, 2, 3], [1, 3, 1, 4], Fifo(1), horizon=9),
            run_discipline([0, 2, 2], [1, 1, 9], InfiniteServer(), horizon=4),
        ):
            a, d = tr.arrivals, tr.departures
            for s0, e0 in {span_shift(rule, epoch) for rule, epoch in ALL_COMBOS}:
                want = [int(np.count_nonzero((a + s0 <= j) & (j <= d + e0))) for j in range(first, tr.horizon + 1)]
                assert tr.shift_path(s0, e0, first).tolist() == want, (s0, e0)

    def test_slot_zero_entries(self):
        tr = run_discipline([0, 0, 2], [1, 3, 1], Fifo(1), horizon=4)
        assert tr.queue_path()[0] == 0
        assert tr.queue_path("strict-right")[0] == 2
        for rule, epoch in ALL_COMBOS:
            assert observed_queue_path(tr, rule, epoch)[0] == 0

    def test_observed_path_on_late_prefix(self):
        full = build_trace(Bernoulli(0.4), DiscreteDist.geometric(0.4), Fifo(1), 6, 120)
        tr = _late_prefix(full)
        for rule, epoch in ALL_COMBOS:
            fast = observed_queue_path(tr, rule, epoch)
            assert np.array_equal(fast, oracle_observed_path(tr, rule, epoch)), (rule, epoch)

    def test_unknown_convention_rejected(self, worked_example_trace):
        with pytest.raises(ValueError, match="convention"):
            worked_example_trace.queue_path("both")
        with pytest.raises(ValueError, match="convention"):
            time_averages(worked_example_trace, warmup=0, convention="both")


class TestObservedQueue:
    @pytest.mark.parametrize("rule,epoch", ALL_COMBOS)
    def test_path_matches_rational_oracle(self, rule, epoch, two_customer_trace):
        fast = observed_queue_path(two_customer_trace, rule, epoch)
        slow = oracle_observed_path(two_customer_trace, rule, epoch)
        assert np.array_equal(fast, slow), (rule, epoch)

    def test_scalar_queries(self, two_customer_trace):
        # each entry counts the customers whose observation span covers it
        tr = two_customer_trace
        s0, e0 = span_shift(R.EAS, E.RANDOM_OBSERVER)
        start, end = tr.arrivals + s0, tr.departures + e0
        path = observed_queue_path(tr, R.EAS, E.RANDOM_OBSERVER)
        for tau in range(1, tr.horizon + 1):
            assert path[tau] == np.count_nonzero((start <= tau) & (tau <= end))

    def test_single_customer_span(self):
        tr = run_discipline([4], [1], Fifo(1), horizon=8)
        path = observed_queue_path(tr, R.EAS, E.RANDOM_OBSERVER)
        assert path[4] == 0
        assert int(path.sum()) == 0

    def test_empty_trace(self):
        tr = run_discipline([], [], Fifo(1), horizon=10)
        assert observed_queue_path(tr, R.EAS, E.RANDOM_OBSERVER)[5] == 0


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


class TestWindow:
    def test_default_warmup_and_memo(self, small_bgeom1_trace):
        tr = small_bgeom1_trace
        win = window(tr)
        assert win.warmup == tr.horizon // 10 and win.span == tr.horizon - win.warmup
        assert window(tr, win.warmup) is win
        assert time_averages(tr).warmup == win.warmup

    def test_fields(self, worked_example_trace):
        win = window(worked_example_trace, 1)
        # arrivals (1, 2, 5), departures (4, 5, 7), horizon 7
        assert (win.lam, win.W, win.n_completed) == (2 / 6, 2.5, 2)
        assert win.completed.tolist() == [False, True, True]

    def test_completed_mask_is_read_only(self, worked_example_trace):
        with pytest.raises(ValueError):
            window(worked_example_trace, 0).completed[0] = False

    @pytest.mark.parametrize("warmup", [-1, 7, 8])
    def test_warmup_outside_the_horizon_rejected(self, worked_example_trace, warmup):
        with pytest.raises(ValueError, match="warmup"):
            window(worked_example_trace, warmup)
        with pytest.raises(ValueError, match="warmup"):
            time_averages(worked_example_trace, warmup=warmup)


def _memo_free_averages(trace, rule, epoch, warmup, convention):
    """Per-combo bincount over the observation span, as computed before the memo."""
    T = trace.horizon
    span = T - warmup
    inside = trace.arrivals > warmup
    lam = int(np.count_nonzero(inside & (trace.arrivals <= T))) / span
    completed = inside & (trace.departures <= T)
    W = float(trace.waits[completed].mean())
    path = oracle_queue_path(trace, convention)[warmup + 1 :]
    s0, e0 = span_shift(rule, epoch)
    start, end = trace.arrivals + s0, trace.departures + e0
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


def _assert_windows_match_shift_paths(trace, *warmups):
    """Every shift's L and pi in the shared-window block against its own
    path's mean and bincount over (warmup, T], bit for bit, per warmup."""
    paths = {shift: oracle_shift_path(trace, *shift) for shift in _SHIFTS}
    for warmup in warmups:
        span = trace.horizon - warmup
        block = _window_block(trace, warmup)
        assert sorted(block) == sorted(_SHIFTS)
        for shift, path in paths.items():
            path = path[warmup + 1 :]
            L, pi = block[shift]
            want = np.bincount(path) / span
            assert L == float(path.mean()), (shift, warmup)
            assert pi.dtype == want.dtype and np.array_equal(pi, want), (shift, warmup)


# arrivals in slot 0 and past the horizon, batches, departures past T
WINDOW_TRACES = {
    "slot-zero-and-late": lambda: run_discipline(
        [0, 0, 3, 7, 12, 13], [2, 1, 4, 1, 1, 3], Fifo(1), horizon=10
    ),
    "batch": lambda: run_discipline([1, 1, 1, 4, 4], [1, 2, 1, 1, 3], Fifo(2), horizon=8),
    "external-late": lambda: run_discipline(
        [0, 2, 5, 9, 9], None, External((4, 12, 7, 10, 30)), horizon=10
    ),
    "one-slot-services": lambda: run_discipline([1, 5], [1, 1], Fifo(1), horizon=8),
}


class TestTimeAveragesMemo:
    @engine_blocks("_SLOT_BLOCK", 1, 2, 3, 7, 1 << 16)
    @pytest.mark.parametrize("name", sorted(WINDOW_TRACES))
    def test_shared_windows_match_shift_paths(self, name, engine_block):
        tr = WINDOW_TRACES[name]()
        _assert_windows_match_shift_paths(tr, *range(tr.horizon))

    @engine_blocks("_SLOT_BLOCK", 1, 2, 3, 7, 1 << 16)
    def test_shared_windows_across_block_edges(self, engine_block):
        rng = np.random.default_rng(20251015 + engine_block)
        for tr in small_random_traces(20251016, 25):
            T = tr.horizon
            _assert_windows_match_shift_paths(tr, 0, T - 1, int(rng.integers(0, T)))

    def test_shared_windows_across_the_real_block_edge(self, bgeom1_trace):
        tr = _late_prefix(bgeom1_trace)
        assert tr.horizon > 1 << 16
        _assert_windows_match_shift_paths(tr, 0, 1_000, (1 << 16) - 1, tr.horizon - 1)

    @pytest.mark.parametrize("convention", ["strict-left", "strict-right"])
    @pytest.mark.parametrize("warmup", [0, 1_000])
    @pytest.mark.parametrize("prefix", [False, True])
    def test_matches_memo_free_computation(self, small_bgeom1_trace, warmup, convention, prefix):
        tr = _late_prefix(small_bgeom1_trace) if prefix else small_bgeom1_trace
        for rule, epoch in ALL_COMBOS:
            est = time_averages(tr, rule, epoch, warmup, convention)
            ref = _memo_free_averages(tr, rule, epoch, warmup, convention)
            _assert_bitwise_equal(est, ref)

    @pytest.mark.parametrize("convention", ["strict-left", "strict-right"])
    @pytest.mark.parametrize("warmup", [0, 3])
    def test_empty_observed_window(self, warmup, convention):
        # one-slot services: shifts of offset -1 never see a customer
        tr = run_discipline([1, 5], [1, 1], Fifo(1), horizon=8)
        for rule, epoch in ALL_COMBOS:
            est = time_averages(tr, rule, epoch, warmup, convention)
            _assert_bitwise_equal(est, _memo_free_averages(tr, rule, epoch, warmup, convention))
            if classify(rule, epoch) is CoherenceClass.SUB_COHERENT:
                assert est.L_obs == 0.0 and est.pi_obs.tolist() == [1.0]

    def test_memo_holds_no_slot_length_array(self):
        tr = build_trace(Bernoulli(0.3), DiscreteDist.geometric(0.5), Fifo(1), 9, 10_000)
        for rule, epoch in ALL_COMBOS:
            time_averages(tr, rule, epoch, 1_000)
            verify_on_trace(tr, rule, epoch)
        offsets = [v for k, v in tr._memo.items() if k[0] == "offsets"]
        assert len(offsets) == 5 and all(len(hist) <= 3 for hist in offsets)

        def arrays(value):
            if isinstance(value, np.ndarray):
                yield value
            elif isinstance(value, (tuple, list)):
                for v in value:
                    yield from arrays(v)
            elif isinstance(value, dict):
                for v in value.values():
                    yield from arrays(v)
            elif hasattr(value, "__dataclass_fields__"):
                yield from arrays(vars(value))

        sizes = [a.size for a in arrays(tr._memo)]
        assert sizes and max(sizes) <= tr.n

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


_LAG_TRACES = {
    "fifo1": lambda: build_trace(Bernoulli(0.45), DiscreteDist.geometric(0.5), Fifo(1), 4, 5_000),
    "fifo2-random": lambda: build_trace(
        Bernoulli(0.7), DiscreteDist.geometric(0.4), Fifo(2, "random"), 4, 5_000
    ),
    "infinite-server": lambda: build_trace(
        Bernoulli(0.5), DiscreteDist.geometric(0.2), InfiniteServer(), 4, 5_000
    ),
}


@cache
def _lag_trace(name):
    """The trace and its strict-left path, built once for all coherent combos."""
    tr = _LAG_TRACES[name]()
    actual = oracle_queue_path(tr)
    actual.flags.writeable = False
    return tr, actual


@pytest.mark.parametrize(
    "rule,epoch", [c for c in ALL_COMBOS if classify(*c) is CoherenceClass.COHERENT]
)
@pytest.mark.parametrize("name", sorted(_LAG_TRACES))
def test_coherent_path_is_the_actual_path_or_one_slot_earlier(name, rule, epoch):
    """A coherent combo sees the strict-left actual path (shift (1, 0)) or
    that path one slot earlier (shift (0, -1)), so its busy cycles and
    per-cycle state visits are the actual ones."""
    tr, actual = _lag_trace(name)
    seen = observed_queue_path(tr, rule, epoch)
    if not np.array_equal(seen, actual):
        assert seen[0] == 0 and np.array_equal(seen[1:-1], actual[2:])


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


def test_observed_waits_match_oracle_on_trace(small_bgeom1_trace):
    tr = small_bgeom1_trace
    arr = observed_waits(tr, R.LA_DF, E.POT_PRE_ARRIVAL)
    for k in (0, 5, 100):
        assert arr[k] == oracle_observed_wait(
            R.LA_DF, E.POT_PRE_ARRIVAL, int(tr.arrivals[k]), int(tr.departures[k])
        )
