import math
from fractions import Fraction

import numpy as np
import pytest

from conftest import (
    observed_shift_path,
    oracle_cycles,
    oracle_queue_path,
    oracle_state_rates,
    small_random_traces,
)
from dtq.birthdeath import finite_population_profile, product_form
from dtq.busy import (
    CycleMeans,
    cycle_means_from_rates,
    detect_cycles,
    empty_state_rates,
    ggeo1_busy,
    sigma_solve,
)
from dtq.coherence import CoherenceClass, classify
from dtq.engine import (
    Bernoulli,
    DiscreteDist,
    Explicit,
    External,
    Fifo,
    InfiniteServer,
    Renewal,
    build_trace,
    run_discipline,
    simulate_finite_population,
)
from dtq.timebase import EPOCHS, RULES


class TestDetectCycles:
    def test_two_customer_example(self, two_customer_trace):
        stats = detect_cycles(two_customer_trace)
        assert stats.B[0] == 9
        assert stats.I[0] == 1
        assert stats.C[0] == 10
        assert stats.E[0] == 2

    def test_single_customer_cycle(self):
        tr = run_discipline([1, 4], [1, 1], Fifo(1), horizon=6)
        stats = detect_cycles(tr)
        assert stats.n_cycles == 1
        assert (stats.U[0], stats.V[0]) == (2, 3)
        assert (stats.C[0], stats.B[0], stats.I[0], stats.E[0]) == (3, 1, 2, 1)

    def test_empty_trace(self):
        tr = run_discipline([], [], Fifo(1), horizon=9)
        assert detect_cycles(tr).n_cycles == 0

    def test_means_need_a_complete_cycle(self):
        # one customer that never clears the system before the horizon
        tr = run_discipline([1], [3], Fifo(1), horizon=20)
        stats = detect_cycles(tr)
        assert stats.n_cycles == 0
        with pytest.raises(ValueError, match="no complete busy cycle"):
            stats.means()

    def test_cycle_counts_its_opener(self):
        # both customers of the first cycle arrive before its first busy index
        tr = run_discipline([1, 2, 11], [3, 3, 1], Fifo(1), horizon=20)
        stats = detect_cycles(tr)
        assert stats.U.tolist() == [2]
        assert stats.E.tolist() == [2]

    def test_customers_of_complete_cycles(self, small_bgeom1_trace):
        tr = small_bgeom1_trace
        stats = detect_cycles(tr)
        first, end = int(stats.U[0]), int(stats.U[-1] + stats.C[-1])
        served = np.count_nonzero((tr.arrivals >= first - 1) & (tr.arrivals < end - 1))
        assert int(stats.E.sum()) == served

    def test_customers_per_cycle_enter_during_its_busy_period(self, small_bgeom1_trace):
        # a customer arriving in slot a is first counted at index a + 1
        tr = small_bgeom1_trace
        stats = detect_cycles(tr)
        entry = tr.arrivals + 1
        for k in range(stats.n_cycles):
            n = np.count_nonzero((stats.U[k] <= entry) & (entry < stats.V[k]))
            assert stats.E[k] == n, k

    def test_boundary_ordering_and_identity(self, bgeom1_trace):
        stats = detect_cycles(bgeom1_trace)
        assert np.all(stats.U < stats.V)
        assert np.all(stats.V < stats.U + stats.C)
        assert np.array_equal(stats.C, stats.B + stats.I)
        assert np.all(stats.E >= 1)

    def test_arrival_at_slot_zero_rejected(self):
        tr = run_discipline([0, 4], [1, 1], Fifo(1), horizon=6)
        with pytest.raises(ValueError, match="empty at slot 0"):
            detect_cycles(tr)


def _assert_cycles_match_path(tr) -> int:
    """detect_cycles against the per-cycle arrays of :func:`oracle_cycles`
    on the trace's oracle queue path: every derived length and count with
    its dtype, and the telescoped means against the means of those arrays.
    Returns the number of complete cycles (0 where an arrival in slot 0 is
    rejected)."""
    if len(tr.arrivals) and tr.arrivals[0] < 1:
        with pytest.raises(ValueError, match="empty at slot 0"):
            detect_cycles(tr)
        return 0
    stats, want = detect_cycles(tr), oracle_cycles(oracle_queue_path(tr), tr.arrivals)
    for name in ("U", "V", "C", "B", "I", "E"):
        a, b = getattr(stats, name), getattr(want, name)
        assert a.dtype == b.dtype and np.array_equal(a, b), name
    assert stats.n_cycles == want.n_cycles
    if stats.n_cycles == 0:
        with pytest.raises(ValueError, match="no complete busy cycle"):
            stats.means()
    else:
        eager = CycleMeans(*(float(getattr(want, x).mean()) for x in "ICBE"))
        assert stats.means() == eager
        assert stats.means() == CycleMeans(*(float(getattr(stats, x).mean()) for x in "ICBE"))
    return stats.n_cycles


def _assert_rates_match_path(tr):
    """empty_state_rates against the rate oracle on the trace's queue path,
    exactly."""
    want = oracle_state_rates(tr)
    if want is None:
        with pytest.raises(ValueError, match="never empty"):
            empty_state_rates(tr)
    else:
        assert empty_state_rates(tr) == want


_GEOM = DiscreteDist.geometric(0.5)

ORACLE_TRACES = {
    "fifo1": lambda: build_trace(Bernoulli(0.3), _GEOM, Fifo(1), 3, 10_000),
    "fifo3-random": lambda: build_trace(
        Bernoulli(0.8), DiscreteDist.geometric(0.4), Fifo(3, "random"), 5, 10_000
    ),
    "infinite-server": lambda: build_trace(
        Bernoulli(0.3), DiscreteDist.geometric(0.2), InfiniteServer(), 6, 10_000
    ),
    "finite-population": lambda: simulate_finite_population(5, 0.05, _GEOM, 11, 10_000),
    "renewal": lambda: build_trace(
        Renewal(DiscreteDist.from_pmf({1: 0.5, 3: 0.5})), DiscreteDist.geometric(0.6), Fifo(1), 17, 10_000
    ),
    # departures past the horizon, one of them out of arrival order
    "external-late": lambda: run_discipline(
        [1, 2, 5, 9, 9], None, External((4, 12, 7, 10, 30)), horizon=10
    ),
    "arrival-at-horizon": lambda: run_discipline([1, 3, 6, 10], [1, 1, 2, 2], Fifo(1), horizon=10),
    "batch": lambda: build_trace(Explicit((1, 1, 1, 4, 4)), DiscreteDist.point(1), Fifo(1), 0, 12),
    "batch-openers": lambda: build_trace(
        Explicit((1, 1, 1, 9, 9, 14, 14, 14)), DiscreteDist.point(2), Fifo(1), 0, 20
    ),
    "one-customer": lambda: run_discipline([3], [2], Fifo(1), horizon=10),
    "empty": lambda: run_discipline([], [], Fifo(1), horizon=9),
    "slot-zero-arrival": lambda: run_discipline([0, 4], [1, 1], Fifo(1), horizon=6),
    "never-empties": lambda: run_discipline([1, 2, 5], [5, 4, 9], Fifo(1), horizon=12),
}


class TestCustomerKernel:
    """Cycles and empty-state rates from the customers, against the path oracles."""

    @pytest.mark.parametrize("name", sorted(ORACLE_TRACES))
    def test_rates_match_path_oracle(self, name):
        _assert_rates_match_path(ORACLE_TRACES[name]())

    def test_batch_arrivals_all_find_the_system_empty(self):
        # two-slot services: busy 2..7, 10..13 and 15..20, so slots 1, 8, 9
        # and 14 are empty, and all 8 arrivals (batches at 1, 9 and 14)
        # find the system empty, not only the 3 that open a busy period
        tr = ORACLE_TRACES["batch-openers"]()
        assert empty_state_rates(tr) == (4 / 20, 8 / 4, 8 / 20)
        stats = detect_cycles(tr)
        assert stats.U.tolist() == [2, 10] and stats.E.tolist() == [3, 2]

    def test_errors_in_path_order(self):
        with pytest.raises(ValueError, match="empty at slot 0"):
            detect_cycles(ORACLE_TRACES["slot-zero-arrival"]())
        stats = detect_cycles(ORACLE_TRACES["never-empties"]())
        with pytest.raises(ValueError, match="no complete busy cycle"):
            stats.means()

    def test_random_small_traces(self):
        for tr in small_random_traces(20250901, 2000):
            _assert_cycles_match_path(tr)
            _assert_rates_match_path(tr)

    def test_long_trace_matches_path_oracles(self, bgeom1_trace):
        assert _assert_cycles_match_path(bgeom1_trace) > 20_000
        _assert_rates_match_path(bgeom1_trace)

    def test_busy_periods_found_once_per_trace(self):
        tr = ORACLE_TRACES["batch-openers"]()
        detect_cycles(tr)
        runs = tr._memo["busy"]
        empty_state_rates(tr)
        assert tr._memo["busy"] is runs
        assert not any(arr.flags.writeable for arr in runs)


class TestCycleStats:
    """Cycle lengths derived from the boundaries and means from telescoping
    sums, against the per-cycle arrays of the cycle oracle."""

    @pytest.mark.parametrize("name", sorted(ORACLE_TRACES))
    def test_oracle_traces(self, name):
        _assert_cycles_match_path(ORACLE_TRACES[name]())

    def test_random_small_traces(self):
        with_means = sum(_assert_cycles_match_path(tr) > 0 for tr in small_random_traces(20251019, 400))
        assert with_means >= 100


class TestStateRates:
    def test_bernoulli_sees_time_averages(self, bgeom1_trace):
        _, alpha0, alpha = empty_state_rates(bgeom1_trace)
        assert alpha0 == pytest.approx(0.3, abs=0.01)
        assert oracle_state_rates(bgeom1_trace, 1)[1] == pytest.approx(0.3, abs=0.01)
        assert alpha == pytest.approx(0.3, abs=0.005)

    def test_periodic_trace_exact_fractions(self, two_customer_trace):
        pi0, alpha0, _ = empty_state_rates(two_customer_trace)
        # slots 1..21: state 0 at {1, 11, 21}, state 2 at {4,5,6,14,15,16}
        assert pi0 == pytest.approx(float(Fraction(3, 21)), abs=1e-12)
        assert oracle_state_rates(two_customer_trace, 2)[0] == pytest.approx(float(Fraction(6, 21)), abs=1e-12)
        # both cycle-opening arrivals find an empty system
        assert alpha0 == pytest.approx(2 / 3, abs=1e-12)

    def test_finite_population_empty_state_rate(self):
        n_src, alpha = 5, 0.05
        tr = simulate_finite_population(n_src, alpha, DiscreteDist.geometric(0.5), 11, 400_000)
        assert empty_state_rates(tr)[1] == pytest.approx(n_src * alpha, rel=0.05)


class TestCycleMeansFromRates:
    def test_reference_values(self):
        means = cycle_means_from_rates(0.4, 0.3, 0.3)
        assert means.idle == pytest.approx(10 / 3, abs=1e-12)
        assert means.cycle == pytest.approx(25 / 3, abs=1e-12)
        assert means.busy == pytest.approx(5.0, abs=1e-12)
        assert means.customers == pytest.approx(2.5, abs=1e-12)

    def test_cycle_is_busy_plus_idle(self):
        for pi0, a0, a in [(0.4, 0.3, 0.3), (0.7, 0.1, 0.25), (0.2, 0.9, 0.5)]:
            m = cycle_means_from_rates(pi0, a0, a)
            assert m.cycle == pytest.approx(m.busy + m.idle, abs=1e-12)

    def test_zero_denominators_rejected(self):
        with pytest.raises(ValueError):
            cycle_means_from_rates(0.0, 0.3, 0.3)
        with pytest.raises(ValueError):
            cycle_means_from_rates(0.4, 0.0, 0.3)

    def test_self_consistency_on_reference_trace(self, bgeom1_trace):
        # measured occupancy and empty-state arrival rate reproduce the
        # measured cycle means with no model input at all
        stats = detect_cycles(bgeom1_trace)
        means = cycle_means_from_rates(*oracle_state_rates(bgeom1_trace))
        sim = stats.means()
        for name in ("idle", "cycle", "busy", "customers"):
            assert getattr(sim, name) == pytest.approx(getattr(means, name), rel=0.02), name


class TestSigmaSolve:
    def test_geometric_interarrivals_reference(self):
        sigma, sigma_star = sigma_solve(DiscreteDist.geometric(0.3), 0.5)
        assert sigma == pytest.approx(3 / 7, abs=1e-10)
        assert sigma_star == pytest.approx(0.6, abs=1e-10)

    def test_deterministic_interarrival_quadratic(self):
        # gap 2 and completion 0.9: the fixed point solves s = (0.9 s + 0.1)^2
        sigma, _ = sigma_solve(DiscreteDist.point(2), 0.9)
        root = min(np.roots([0.81, 0.18 - 1.0, 0.01]))
        assert sigma == pytest.approx(float(root), abs=1e-10)

    def test_near_degenerate_completion(self):
        d = DiscreteDist.geometric(0.3)
        beta = 1 - 1e-9
        sigma, _ = sigma_solve(d, beta)
        assert abs(d.pgf(sigma * beta + 1 - beta) - sigma) < 1e-9

    def test_unstable_reports_no_root(self):
        with pytest.raises(ValueError):
            sigma_solve(DiscreteDist.geometric(0.6), 0.5)

    def test_residual_below_tolerance(self):
        d = DiscreteDist.from_pmf({1: 0.3, 4: 0.7})
        beta = 0.7
        sigma, sigma_star = sigma_solve(d, beta)
        assert abs(d.pgf(sigma * beta + 1 - beta) - sigma) < 1e-10
        assert sigma_star == pytest.approx(sigma / (sigma * beta + 1 - beta), abs=1e-14)


class TestGGeo1Busy:
    def test_bernoulli_reduction(self):
        # with sigma* equal to the utilization this reduces to the
        # empty-state-rate formulas exactly
        got = ggeo1_busy(0.3, 0.6, 0.6)
        want = cycle_means_from_rates(0.4, 0.3, 0.3)
        for a, b in zip(got, want):
            assert a == pytest.approx(b, abs=1e-10)

    def test_customers_at_least_one(self):
        for ss in (0.1, 0.5, 0.9):
            assert ggeo1_busy(0.4, ss, 0.5).customers >= 1.0

    def test_rejects_bad_sigma_star(self):
        with pytest.raises(ValueError):
            ggeo1_busy(0.3, 1.0, 0.6)

    def test_two_point_interarrival_simulation(self):
        # renewal input with gaps 1 or 3, geometric(0.6) services
        gaps = DiscreteDist.from_pmf({1: 0.5, 3: 0.5})
        alpha = 1.0 / gaps.mean()
        beta = 0.6
        rho = alpha / beta
        sigma, sigma_star = sigma_solve(gaps, beta)
        want = ggeo1_busy(alpha, sigma_star, rho)
        tr = build_trace(Renewal(gaps), DiscreteDist.geometric(beta), Fifo(1), 17, 1_000_000)
        sim = detect_cycles(tr).means()
        for name in ("idle", "cycle", "busy", "customers"):
            assert getattr(sim, name) == pytest.approx(getattr(want, name), rel=0.02), name

    def test_rate_identity_on_renewal_trace(self):
        # empty-state flow balance: arrivals finding empty per slot-in-empty
        # times occupancy equals rate times pre-arrival empty fraction
        gaps = DiscreteDist.from_pmf({1: 0.5, 3: 0.5})
        tr = build_trace(Renewal(gaps), DiscreteDist.geometric(0.6), Fifo(1), 23, 400_000)
        pi0, alpha0, alpha = empty_state_rates(tr)
        path = oracle_queue_path(tr)
        found_empty = float(np.mean(path[tr.arrivals[tr.arrivals <= tr.horizon]] == 0))
        assert alpha0 * pi0 == pytest.approx(alpha * found_empty, rel=0.02)

    def test_pre_arrival_empty_fraction_matches_sigma(self):
        gaps = DiscreteDist.from_pmf({1: 0.5, 3: 0.5})
        beta = 0.6
        _, sigma_star = sigma_solve(gaps, beta)
        tr = build_trace(Renewal(gaps), DiscreteDist.geometric(beta), Fifo(1), 29, 400_000)
        pi0, alpha0, alpha = empty_state_rates(tr)
        # the fraction of arrivals that find the system empty
        assert alpha0 * pi0 / alpha == pytest.approx(1 - sigma_star, rel=0.03)


class TestFinitePopBusy:
    """Finite population: N sources at rate alpha, so alpha0 = N*alpha and
    the overall arrival rate is alpha*(N - L)."""

    def test_single_source_reduction(self):
        m = cycle_means_from_rates(0.5, 1 * 0.2, 0.2 * (1 - 0.4))
        assert m.customers == pytest.approx((1 - 0.4) / 0.5, abs=1e-12)
        assert m.cycle == pytest.approx(m.busy + m.idle, abs=1e-12)

    def test_formulas_match_simulation(self):
        n_src, alpha, beta = 5, 0.05, 0.5
        pi = product_form(finite_population_profile(n_src, alpha, beta))
        mean_l = float((np.arange(len(pi)) * pi).sum())
        want = cycle_means_from_rates(float(pi[0]), n_src * alpha, alpha * (n_src - mean_l))
        tr = simulate_finite_population(n_src, alpha, DiscreteDist.geometric(beta), 31, 1_000_000)
        sim = detect_cycles(tr).means()
        for name in ("idle", "cycle", "busy", "customers"):
            assert getattr(sim, name) == pytest.approx(getattr(want, name), rel=0.03), name

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            cycle_means_from_rates(0.5, 0 * 0.1, 0.1 * (0 - 1.0))
        with pytest.raises(ValueError):
            cycle_means_from_rates(0.0, 3 * 0.1, 0.1 * (3 - 1.0))


class TestCoherentCycleInvariance:
    def test_lengths_per_cycle(self, small_bgeom1_trace):
        actual = detect_cycles(small_bgeom1_trace)
        for rule in RULES:
            for epoch in EPOCHS:
                if classify(rule, epoch) is not CoherenceClass.COHERENT:
                    continue
                seen = oracle_cycles(observed_shift_path(small_bgeom1_trace, rule, epoch))
                m = min(actual.n_cycles, seen.n_cycles)
                assert abs(actual.n_cycles - seen.n_cycles) <= 1
                assert np.array_equal(actual.C[: m - 1], seen.C[: m - 1])
                assert np.array_equal(actual.B[: m - 1], seen.B[: m - 1])
                assert np.array_equal(actual.I[: m - 1], seen.I[: m - 1])


def test_first_cycle_fields(two_customer_trace):
    s = detect_cycles(two_customer_trace)
    first = [int(x[0]) for x in (s.U, s.V, s.C, s.B, s.I, s.E)]
    assert first == [2, 11, 10, 9, 1, 2]
