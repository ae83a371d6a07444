import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    engine_blocks,
    oracle_cost_profile,
    oracle_indicator_rate,
    oracle_remaining_work_rate,
    oracle_sandwich,
    oracle_workload_lindley,
    prefix_trace,
    reference_trace,
    small_random_traces,
    traced_peak_mb,
)
from dtq import littles as littles_mod
from dtq.coherence import CoherenceClass, classify
from dtq.engine import (
    Bernoulli,
    DiscreteDist,
    External,
    Fifo,
    InfiniteServer,
    Trace,
    build_trace,
    run_discipline,
)
from dtq.littles import (
    CostContractError,
    CostFunction,
    basic_inequality_path,
    check_h_lambda_g,
    check_little,
    check_little_observed,
    check_workload,
    indicator_cost,
    remaining_work_cost,
    utilization,
    verify_pk,
    workload_moments,
)
from dtq.observer import _SHIFTS, InsufficientDataError, _window_block, time_averages, window
from dtq.timebase import EPOCHS, RULES, ObservationEpoch as E, SchedulingRule as R, span_shift


class TestCheckLittle:
    def test_worked_example_exact(self, worked_example_trace):
        (row,) = check_little(worked_example_trace, warmup=0)
        lam = window(worked_example_trace, 0).lam
        assert row.simulated == pytest.approx(8 / 7, abs=1e-12)
        assert lam == pytest.approx(3 / 7, abs=1e-12)
        assert row.formula / lam == pytest.approx(8 / 3, abs=1e-12)
        assert row.residual < 1e-12
        assert row.passed

    def test_reference_trace(self, bgeom1_trace):
        rows = check_little(bgeom1_trace)
        assert rows.passed
        assert rows[0].simulated == pytest.approx(1.05, rel=0.03)

    def test_empty_trace(self):
        # no completed customer: no W to compare, as for check_little_observed
        tr = run_discipline([], [], Fifo(1), horizon=100)
        with pytest.raises(InsufficientDataError, match=r"no customer arrives and departs inside \(10, 100\]"):
            check_little(tr)

    def test_residual_shrinks_with_horizon(self):
        # matched seeds, two decades apart; majority of pairs must improve
        wins = 0
        for seed in range(10):
            small = build_trace(Bernoulli(0.3), DiscreteDist.geometric(0.5), Fifo(1), seed, 10_000)
            big = build_trace(Bernoulli(0.3), DiscreteDist.geometric(0.5), Fifo(1), seed, 1_000_000)
            (small_row,) = check_little(small, warmup=1_000)
            (big_row,) = check_little(big, warmup=100_000)
            r_small, r_big = small_row.residual, big_row.residual
            wins += r_big < r_small
        assert wins > 5


class TestCheckLittleObserved:
    @pytest.mark.parametrize(
        "rule,epoch,target",
        [
            (R.LAS_IA, E.RANDOM_OBSERVER, 1.05),
            (R.EAS, E.RANDOM_OBSERVER, 0.75),
            (R.LAS_DA, E.RANDOM_OBSERVER, 1.35),
        ],
    )
    def test_class_targets(self, bgeom1_trace, rule, epoch, target):
        rows = check_little_observed(bgeom1_trace, rule, epoch)
        class_row, observed_row = rows
        assert rows.passed
        assert class_row.simulated == pytest.approx(target, rel=0.03)
        assert observed_row.residual <= observed_row.tolerance
        # the observed path sits offset*lam away from the actual one
        est = time_averages(bgeom1_trace, rule, epoch)
        shift_residual = abs((est.L_obs - est.L) - est.lam * classify(rule, epoch).offset)
        assert shift_residual <= class_row.tolerance

    def test_observed_rate_equality(self, worked_example_trace):
        class_row, observed_row = check_little_observed(
            worked_example_trace, R.LA_DF, E.RANDOM_OBSERVER, warmup=0
        )
        # coherent combo on the closed example: everything exact
        assert classify(R.LA_DF, E.RANDOM_OBSERVER) is CoherenceClass.COHERENT
        assert class_row.quantity.endswith("(coherent)")
        assert observed_row.simulated == pytest.approx(observed_row.formula, abs=1e-12)


def _sandwich(trace):
    """The three sandwich sums at every slot index, joined from the blocks."""
    return [np.concatenate(sums) for sums in zip(*littles_mod._inequality_blocks(trace))]


class TestBasicInequality:
    def test_worked_example_at_five(self, worked_example_trace):
        upper, middle, lower = (int(sums[5]) for sums in _sandwich(worked_example_trace))
        assert (upper, middle, lower) == (8, 6, 6)
        assert basic_inequality_path(worked_example_trace)

    def test_at_zero(self, worked_example_trace):
        assert [int(sums[0]) for sums in _sandwich(worked_example_trace)] == [0, 0, 0]

    def test_every_slot_on_random_traces(self):
        for seed in range(10):
            tr = build_trace(Bernoulli(0.35), DiscreteDist.geometric(0.5), Fifo(1), seed, 10_000)
            assert basic_inequality_path(tr)

    def test_every_slot_heavy_traffic(self):
        tr = build_trace(Bernoulli(0.45), DiscreteDist.geometric(0.5), Fifo(1), 3, 10_000)
        assert basic_inequality_path(tr)

    def test_closed_form_matches_oracle_at_every_slot(self):
        for tr in small_random_traces(20251013, 300):
            self._assert_blocks_match_oracle(tr)

    @staticmethod
    def _assert_blocks_match_oracle(tr):
        want = oracle_sandwich(tr)
        got = _sandwich(tr)
        assert len(got) == len(want) == 3
        for g, w in zip(got, want):
            assert g.dtype == w.dtype and np.array_equal(g, w)
        holds = bool(np.all(want[0] >= want[1]) and np.all(want[1] >= want[2]))
        assert basic_inequality_path(tr) == holds

    @engine_blocks("_SLOT_BLOCK", 1, 2, 3, 7, 1 << 16)
    def test_blocks_match_oracle_across_block_edges(self, engine_block):
        for tr in small_random_traces(20251014, 25):
            self._assert_blocks_match_oracle(tr)

    def test_blocks_match_oracle_across_the_real_block_edge(self, bgeom1_trace):
        self._assert_blocks_match_oracle(bgeom1_trace)  # 200 000 slots: four blocks

    def test_reference_trace_holds_one_customer_length_array(self):
        # the stable departure order is 2.3 MB; prefix sums over all customers
        # in both orders, with the sorted copies, peaked at 13.2 MB
        assert traced_peak_mb(basic_inequality_path, reference_trace()) <= 6


class TestExactLittleIdentity:
    """The sample-path identity behind L = λW, exact on every window: the
    integer total of a span shift's window (w, T], which L and L_obs
    divide by the span, equals the customers' spans A + s0 .. D + e0
    clipped to (w, T], summed per customer.  Multi-server starts reach
    the window only through the counting processes and the span sum only
    through each customer's own span."""

    @pytest.mark.parametrize(
        "disc,alpha",
        [(Fifo(2, "random"), 0.6), (Fifo(3, "lowest"), 0.6), (InfiniteServer(), 0.3)],
        ids=["fifo2-random", "fifo3-lowest", "infinite"],
    )
    def test_path_sum_is_clipped_span_sum(self, disc, alpha):
        T = 20_000
        tr = build_trace(Bernoulli(alpha), DiscreteDist.geometric(0.5), disc, 61, T)
        assert np.any(tr.departures > T)  # spans cut at the horizon
        assert len(_SHIFTS) == 5
        # one combo per span shift: its L_obs reads that shift's window
        combos = {span_shift(rule, epoch): (rule, epoch) for rule in RULES for epoch in EPOCHS}
        for w in (0, 1, 999, T // 2, T - 1):
            spans = {}
            for s0, e0 in _SHIFTS:
                lo = np.maximum(tr.arrivals + s0, w + 1)
                hi = np.minimum(tr.departures + e0, T)
                spans[s0, e0] = int(np.maximum(hi - lo + 1, 0).sum())
            # two integers below 2**52 over one span are distinct floats, so
            # each equality below is the integer identity
            span = T - w
            if w == T - 1:  # no customer completes in one slot: the windows time_averages reads
                for shift in _SHIFTS:
                    assert _window_block(tr, w)[shift][0] == spans[shift] / span, shift
                continue
            for shift, (rule, epoch) in combos.items():
                est = time_averages(tr, rule, epoch, w)
                assert est.L == spans[1, 0] / span, w
                assert est.L_obs == spans[shift] / span, (shift, w)


class TestHLambdaG:
    def test_indicator_cost_reduces_to_little(self, worked_example_trace):
        (hg,) = check_h_lambda_g(worked_example_trace, indicator_cost(), warmup=0)
        (little,) = check_little(worked_example_trace, warmup=0)
        lam = window(worked_example_trace, 0).lam
        assert hg.simulated == pytest.approx(little.simulated, abs=1e-12)
        assert hg.formula == pytest.approx(little.formula, abs=1e-12)  # lam*G against lam*W
        assert lam == pytest.approx(time_averages(worked_example_trace, warmup=0).lam, abs=1e-12)
        assert hg.passed

    def test_zero_cost(self, worked_example_trace):
        def pieces(tr):
            zeros = np.zeros(tr.n)
            return [(tr.arrivals + 1, tr.departures, zeros, zeros)]

        zero = CostFunction(pieces, "zero")
        (hg,) = check_h_lambda_g(worked_example_trace, zero, warmup=0)
        assert hg.simulated == 0.0 and hg.formula == 0.0 and hg.passed

    def test_remaining_work_cost(self, bgeom1_trace):
        (hg,) = check_h_lambda_g(bgeom1_trace, remaining_work_cost())
        m = workload_moments(bgeom1_trace)
        assert hg.passed
        assert hg.simulated == pytest.approx(m.EV, rel=1e-9)

    def test_support_violation_reported(self, worked_example_trace):
        # one unit per slot on [A + lo_shift, D + hi_shift]: a charge at the
        # arrival slot or one slot past the departure breaks the contract
        for lo_shift, hi_shift in [(0, 0), (1, 1), (0, 1)]:
            def pieces(tr):
                ones = np.ones(tr.n)
                return [(tr.arrivals + lo_shift, tr.departures + hi_shift, ones, 0 * ones)]

            bad = CostFunction(pieces, "bad")
            with pytest.raises(CostContractError):
                check_h_lambda_g(worked_example_trace, bad, warmup=0)

    def test_violation_in_a_later_group_reported(self, worked_example_trace):
        # every group is checked, not only the first: the second charges
        # the last customer one slot past its departure
        def pieces(tr):
            d, last = tr.departures, np.arange(tr.n) == tr.n - 1
            yield tr.arrivals + 1, d, np.ones(tr.n), 0
            yield d + 1, d + last, np.ones(tr.n), 0

        late = CostFunction(pieces, "late")
        with pytest.raises(CostContractError, match=f"customer {worked_example_trace.n - 1} "):
            check_h_lambda_g(worked_example_trace, late, warmup=0)

    def test_empty_pieces_ignored(self, worked_example_trace):
        # an empty piece (hi < lo) outside the support charges nothing
        def pieces(tr):
            ones = np.ones(tr.n)
            yield tr.arrivals + 1, tr.departures, ones, 0 * ones
            yield tr.arrivals, tr.arrivals - 5, ones, 0 * ones

        cost = CostFunction(pieces, "with-empty")
        hg = check_h_lambda_g(worked_example_trace, cost, warmup=0)
        ref = check_h_lambda_g(worked_example_trace, indicator_cost(), warmup=0)
        assert hg == ref

    def test_arrivals_past_the_horizon_not_in_rate(self):
        # one-slot customers in every odd slot up to 199, horizon 100: H = 0.5
        # and G = 1 exactly, and lambda counts only the arrivals in (10, 100]
        tr = run_discipline(np.arange(1, 200, 2), np.ones(100, dtype=np.int64), Fifo(1), horizon=100)
        (hg,) = check_h_lambda_g(tr, indicator_cost(), warmup=10)
        lam = window(tr, 10).lam
        assert (hg.simulated, lam, hg.formula / lam) == (0.5, 0.5, 1.0)
        assert lam == time_averages(tr, warmup=10).lam
        assert hg.residual == 0.0 and hg.passed


class TestCostKernel:
    """The piece-sum kernel against per-slot rate closures."""

    COSTS = [
        (indicator_cost, oracle_indicator_rate),
        (remaining_work_cost, oracle_remaining_work_rate),
    ]

    @staticmethod
    def _traces(seed):
        full = build_trace(Bernoulli(0.45), DiscreteDist.geometric(0.5), Fifo(1), seed, 4_000)
        two = build_trace(Bernoulli(0.7), DiscreteDist.geometric(0.4), Fifo(2), seed, 2_000)
        # cut at an arrival slot, so that customer departs after the horizon
        prefix = prefix_trace(full, int(full.arrivals[full.n // 2]))
        assert np.any(prefix.departures > prefix.horizon)
        return full, prefix, two

    @pytest.mark.parametrize("make_cost,rate", COSTS)
    @pytest.mark.parametrize("seed", range(4))
    def test_matches_closure_sums(self, make_cost, rate, seed):
        for tr in self._traces(seed):
            oracle_path, oracle_totals = oracle_cost_profile(tr, rate)
            T = tr.horizon
            for warmup in (0, T // 2, T - 1):
                total, totals = littles_mod._cost_profile(tr, make_cost(), warmup)
                assert total == oracle_path[warmup + 1 :].sum(), warmup
                assert np.array_equal(totals, oracle_totals)

    def test_costs_and_pk_pass_on_a_stable_queue(self):
        # their memory is bounded by test_engine.py's slot-length guard
        tr = build_trace(Bernoulli(0.3), DiscreteDist.geometric(0.5), Fifo(1), 5, 20_000)
        for cost in (indicator_cost(), remaining_work_cost()):
            assert check_h_lambda_g(tr, cost, 2_000).passed
        for row in verify_pk(tr, 2_000):
            assert abs(row.simulated - row.formula) <= 0.1 * abs(row.formula) + 30.0 / math.sqrt(18_000)


def _work_at(trace, tau):
    """Workload V(tau), the remaining work summed over customers at slot
    tau, from the production piece sums: the cost charged over
    (tau - 1, T] minus that over (tau, T]."""
    cost = remaining_work_cost()
    return littles_mod._cost_profile(trace, cost, tau - 1)[0] - littles_mod._cost_profile(trace, cost, tau)[0]


class TestWorkload:
    def test_single_customer_profile(self):
        tr = run_discipline([1], [3], Fifo(1), horizon=6)
        assert [_work_at(tr, t) for t in (1, 2, 3, 4, 5)] == [0, 2, 1, 0, 0]

    def test_empty_trace(self):
        tr = run_discipline([], [], Fifo(1), horizon=50)
        assert littles_mod._cost_profile(tr, remaining_work_cost(), 0)[0] == 0
        for cost in (indicator_cost(), remaining_work_cost()):
            with pytest.raises(InsufficientDataError):
                check_h_lambda_g(tr, cost)

    def test_before_any_arrival(self, worked_example_trace):
        assert _work_at(worked_example_trace, 1) == 0

    def test_path_matches_per_customer_rates(self, small_bgeom1_trace):
        tr = small_bgeom1_trace
        for tau in (1, 9, 100, 5_000, 9_999):
            assert _work_at(tr, tau) == sum(oracle_remaining_work_rate(tr, k, tau) for k in range(tr.n))

    @given(st.integers(min_value=0, max_value=2**31 - 1))
    @settings(max_examples=20, deadline=None)
    def test_matches_lindley_recursion_random(self, seed):
        tr = build_trace(Bernoulli(0.4), DiscreteDist.geometric(0.55), Fifo(1), seed, 2_000)
        v = oracle_workload_lindley(tr)
        for warmup in (0, 200, 1_000):
            assert workload_moments(tr, warmup).EV == float(v[warmup + 1 :].mean()), warmup

    def test_waiting_customer_counts_full_service(self):
        # second customer queues: its full requirement stays in the backlog
        tr = run_discipline([1, 2], [3, 2], Fifo(1), horizon=8)
        # slot 3: first customer has 1 left, second still waiting with 2
        assert _work_at(tr, 3) == 3
        # a queued arrival at slot 2 would wait exactly the backlog it sees
        assert _work_at(tr, 2) == int(tr.starts[1] - tr.arrivals[1])


class TestWorkloadMomentsMemo:
    def test_computed_once_per_warmup_without_pieces_or_path(self, monkeypatch):
        tr = build_trace(Bernoulli(0.3), DiscreteDist.geometric(0.5), Fifo(1), 5, 20_000)
        calls = []
        monkeypatch.setattr(littles_mod, "_cost_profile", lambda *args: calls.append("pieces"))
        monkeypatch.setattr(littles_mod, "remaining_work_cost", lambda: calls.append("cost"))
        verify_pk(tr, 2_000)
        m = workload_moments(tr, 2_000)
        assert workload_moments(tr, 2_000) is m
        other = workload_moments(tr, 500)
        assert other != m
        assert workload_moments(tr, 500) is other
        assert calls == []

    @pytest.mark.parametrize("kind", ["fifo1", "fifo2", "prefix"])
    @pytest.mark.parametrize("warmup", [0, 300])
    def test_mean_workload_is_path_mean_bit_for_bit(self, kind, warmup):
        if kind == "fifo2":
            tr = build_trace(Bernoulli(0.7), DiscreteDist.geometric(0.4), Fifo(2), 3, 3_000)
        else:
            tr = build_trace(Bernoulli(0.45), DiscreteDist.geometric(0.5), Fifo(1), 3, 3_000)
        if kind == "prefix":
            tr = prefix_trace(tr, int(tr.arrivals[tr.n // 2]))
            assert np.any(tr.departures > tr.horizon)
        path = oracle_cost_profile(tr, oracle_remaining_work_rate)[0]
        assert workload_moments(tr, warmup).EV == float(path[warmup + 1 :].mean())

    @engine_blocks("_SLOT_BLOCK", 1, 2, 3, 7, 1 << 16)
    def test_customer_blocks_match_whole_trace_sums(self, engine_block):
        tr = build_trace(Bernoulli(0.7), DiscreteDist.geometric(0.4), Fifo(2), 8, 400)
        warmup = 40
        m = workload_moments(tr, warmup)
        done = (tr.arrivals > warmup) & (tr.departures <= tr.horizon)
        s, wq = tr.services[done], (tr.starts - tr.arrivals)[done]
        n = int(done.sum())
        assert (m.ES, m.ES2, m.EWq, m.ESWq) == (
            int(s.sum()) / n, int(s @ s) / n, int(wq.sum()) / n, int(s @ wq) / n,
        )
        path = oracle_cost_profile(tr, oracle_remaining_work_rate)[0]
        assert m.EV == float(path[warmup + 1 :].mean())

    def test_matches_memo_free_computation(self, small_bgeom1_trace):
        tr = small_bgeom1_trace
        for warmup in (0, 1_000):
            m = workload_moments(tr, warmup)
            fresh = Trace(tr.arrivals, tr.services, tr.starts, tr.departures, tr.horizon)
            assert m == workload_moments(fresh, warmup)
            v = oracle_workload_lindley(tr)[warmup + 1 :]
            assert m.EV == float(v.mean())


class TestVerifyPk:
    def test_reference_trace(self, bgeom1_trace):
        # the 2 percent gate needs the long acceptance horizon; at this
        # scale the delay estimate carries a few percent of noise
        ewq, ev = verify_pk(bgeom1_trace)
        floor = 30.0 / math.sqrt(180_000)
        for row in (ewq, ev):
            assert abs(row.simulated - row.formula) <= 0.05 * abs(row.formula) + floor
        assert ewq.formula == pytest.approx(1.5, rel=0.05)
        assert ewq.simulated == pytest.approx(1.5, rel=0.05)
        assert ev.simulated == pytest.approx(ev.formula, rel=0.03)
        # FIFO: a customer's service is uncorrelated with its queueing delay
        m = workload_moments(bgeom1_trace)
        assert abs(m.ESWq - m.ES * m.EWq) < 0.08

    def test_arrivals_past_the_horizon_not_in_rate(self):
        # customers every third slot up to 598, horizon 300: lambda counts only
        # the 90 arrivals in (30, 300]; services of 1 and 3 make ES2 > ES
        arrivals = np.arange(1, 600, 3)
        tr = run_discipline(arrivals, np.tile([1, 3], 100), Fifo(1), horizon=300)
        ewq, ev = verify_pk(tr, 30)
        lam, m = window(tr, 30).lam, workload_moments(tr, 30)
        assert lam == 90 / 270 and m.ES2 > m.ES and lam * m.ES < 1.0
        assert ewq.formula == lam * (m.ES2 - m.ES) / (2 * (1 - lam * m.ES))
        assert ev.formula == lam * m.ES * m.EWq + lam * (m.ES2 - m.ES) / 2

    def test_workload_row_shares_the_delay_tolerance(self, bgeom1_trace):
        # EV against EWq, held to the P-K rule scaled by the simulated delay
        (row,) = check_workload(bgeom1_trace)
        m = workload_moments(bgeom1_trace)
        tol = 0.02 * abs(m.EWq) + 30.0 / math.sqrt(180_000)
        assert tuple(row) == ("EV vs EWq", m.EV, m.EWq, tol) and row.passed

    def test_deterministic_unit_service_no_queueing(self):
        tr = build_trace(Bernoulli(0.6), DiscreteDist.point(1), Fifo(1), 3, 50_000)
        rows = verify_pk(tr)
        ewq, _ = rows
        assert ewq.simulated == 0.0
        assert ewq.formula == 0.0
        assert rows.passed

    def test_unstable_rejected(self):
        tr = build_trace(Bernoulli(0.7), DiscreteDist.geometric(0.5), Fifo(1), 5, 20_000)
        with pytest.raises(ValueError):
            verify_pk(tr)

    def test_fresh_reference_trace_holds_one_customer_length_array(self):
        # the window's waits are 2.3 MB; whole-trace piece sums and
        # completed-customer copies peaked at 6.9 MB
        assert traced_peak_mb(verify_pk, reference_trace()) <= 5

    def test_sojourn_decomposition(self, bgeom1_trace):
        m = workload_moments(bgeom1_trace)
        est = time_averages(bgeom1_trace)
        # waits split into queueing delay plus service, identically per customer
        assert est.W == pytest.approx(m.EWq + m.ES, rel=1e-9)


class TestUtilization:
    def test_two_servers(self):
        tr = build_trace(Bernoulli(0.6), DiscreteDist.geometric(0.5), Fifo(2), 7, 300_000)
        rep = utilization(tr)
        assert rep.total == pytest.approx(1.2, rel=0.02)
        # each server carries a share, the split read from the labels
        spans = np.minimum(tr.departures, tr.horizon) - tr.starts
        per_server = np.bincount(tr.servers, weights=spans, minlength=2) / tr.horizon
        assert len(per_server) == 2 and np.all(per_server > 0.5)
        assert rep.total == pytest.approx(per_server.sum(), rel=1e-12)

    def test_single_server_matches_occupancy(self, bgeom1_trace):
        rep = utilization(bgeom1_trace)
        est = time_averages(bgeom1_trace, warmup=0)
        assert rep.total == pytest.approx(0.6, rel=0.02)
        assert 1.0 - est.pi[0] == pytest.approx(0.6, rel=0.02)

    def test_empty_trace(self):
        tr = run_discipline([], [], Fifo(1), horizon=50)
        assert utilization(tr).total == 0.0

    def test_matches_per_server_accumulation(self, label_replays):
        tr = build_trace(Bernoulli(0.8), DiscreteDist.geometric(0.35), Fifo(3), 11, 5_000)
        T = tr.horizon
        assert np.any(tr.departures > T)  # some spans are clipped at the horizon
        rep = utilization(tr)
        assert label_replays == []  # the total reads no server label
        busy = np.zeros(3)
        spans = np.maximum(0, np.minimum(tr.departures, T) - np.maximum(tr.starts, 0))
        np.add.at(busy, tr.servers, spans)
        assert rep.total == pytest.approx(float((busy / T).sum()), rel=1e-12)
        assert rep.total == int(spans.sum()) / T

    @engine_blocks("_SLOT_BLOCK", 1, 2, 3, 7, 1 << 16)
    def test_spans_summed_across_customer_blocks(self, engine_block):
        # spans clipped at the horizon, and starts past it, in every block
        for tr in small_random_traces(20251022, 120):
            spans = np.maximum(0, np.minimum(tr.departures, tr.horizon) - tr.starts)
            assert utilization(tr).total == int(spans.sum()) / tr.horizon

    def test_single_server_total_is_the_busy_count_over_horizon(self, bgeom1_trace):
        # one server: the span sum is the per-server busy count, so the
        # total is bit-identical to its quotient
        tr = bgeom1_trace
        T = tr.horizon
        spans = np.maximum(0, np.minimum(tr.departures, T) - tr.starts)
        busy = np.bincount(tr.servers, weights=spans, minlength=1)
        assert utilization(tr).total == float((busy / T).sum())

    def test_unlabelled_trace(self):
        tr = run_discipline([1, 2, 2], [3, 1, 4], InfiniteServer(), horizon=5)
        assert tr.servers is None
        assert utilization(tr).total == (3 + 1 + 3) / 5

    def test_random_assignment_same_total(self):
        arr = np.arange(1, 2_001) * 2
        svc = np.full(2_000, 3)
        low = run_discipline(arr, svc, Fifo(2), horizon=4_200)
        rnd = run_discipline(arr, svc, Fifo(2, assignment="random"), horizon=4_200, seed=5)
        assert utilization(low).total == pytest.approx(utilization(rnd).total, abs=1e-12)


class TestSubCoherentOccupancyIdentities:
    def test_occupancy_and_rate_forms_distinct(self, bgeom1_trace):
        # the nonempty fraction at slot edges under early arrivals tracks
        # the geometric ratio, while the rate-based busy measure tracks
        # utilization net of one slot per service
        alpha, beta = 0.3, 0.5
        gamma = alpha * (1 - beta) / (beta * (1 - alpha))
        est = time_averages(bgeom1_trace, R.EAS, E.RANDOM_OBSERVER)
        assert 1.0 - est.pi_obs[0] == pytest.approx(gamma, rel=0.02)
        # observed services run one slot short, so the law gives lam*(ES-1)
        m = workload_moments(bgeom1_trace)
        reconstructed = est.lam * (m.ES - 1.0)
        rho = est.lam * m.ES
        assert reconstructed == pytest.approx(alpha * (1 / beta - 1), rel=0.03)
        assert reconstructed == pytest.approx(rho * (1 - beta), rel=0.03)
        assert reconstructed == pytest.approx(gamma * (1 - alpha), rel=0.03)
        assert not math.isclose(gamma, alpha * (1 / beta - 1), rel_tol=0.2)


@pytest.mark.parametrize(
    "check",
    [
        lambda tr, w: check_h_lambda_g(tr, indicator_cost(), w),
        lambda tr, w: check_h_lambda_g(tr, remaining_work_cost(), w),
        workload_moments,
        verify_pk,
    ],
)
def test_warmup_outside_the_horizon_rejected(check, worked_example_trace):
    for warmup in (-1, worked_example_trace.horizon):
        with pytest.raises(ValueError, match="warmup"):
            check(worked_example_trace, warmup)
