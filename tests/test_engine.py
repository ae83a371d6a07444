import configparser
import heapq
import itertools
import math
from dataclasses import FrozenInstanceError, fields
from functools import cache

import numpy as np
import pytest
from conftest import (
    engine_blocks,
    oracle_fifo_multi,
    oracle_fifo_servers,
    oracle_finite_population,
    oracle_queue_path,
    oracle_read_trace_csv,
    oracle_state_rates,
    oracle_trace_csv,
    reference_trace,
    traced_peak_mb,
)
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from dtq import cli
from dtq import engine as engine_mod
from dtq.busy import detect_cycles, empty_state_rates
from dtq.coherence import verify_on_trace
from dtq.engine import (
    Bernoulli,
    DiscreteDist,
    Explicit,
    External,
    Fifo,
    FinitePopulation,
    InfiniteServer,
    Renewal,
    Trace,
    build_trace,
    gen_arrivals,
    read_trace_csv,
    run_discipline,
    sample_services,
    simulate_finite_population,
    write_trace_csv,
)
from dtq.littles import (
    basic_inequality_path,
    check_h_lambda_g,
    indicator_cost,
    remaining_work_cost,
    utilization,
)
from dtq.observer import time_averages
from dtq.timebase import (
    EPOCHS,
    RULES,
    ObservationEpoch as E,
    Phase,
    SchedulingRule as R,
    arrival_phase,
    departure_shift,
)


class TestDiscreteDist:
    def test_normalization_enforced(self):
        with pytest.raises(ValueError):
            DiscreteDist.from_pmf({1: 0.5, 2: 0.4})

    def test_negative_probability_rejected(self):
        with pytest.raises(ValueError):
            DiscreteDist((1, 2), (1.2, -0.2))

    def test_geometric_mean(self):
        d = DiscreteDist.geometric(0.5)
        assert d.values[0] == 1
        assert math.isclose(d.mean(), 2.0, rel_tol=1e-12)

    @pytest.mark.parametrize(
        "build",
        [
            lambda: DiscreteDist.point(0),
            lambda: DiscreteDist.from_pmf({0: 0.5, 1: 0.5}),
            lambda: DiscreteDist((0,), (1.0,)),
        ],
        ids=["point", "pmf", "values"],
    )
    def test_support_below_one_slot_rejected(self, build):
        with pytest.raises(ValueError, match="support must be at least one slot"):
            build()

    def test_geometric_degenerate(self):
        d = DiscreteDist.geometric(1.0)
        assert d.values == (1,)

    def test_pgf_at_one_is_one(self):
        for d in (DiscreteDist.geometric(0.3), DiscreteDist.point(3),
                  DiscreteDist.from_pmf({1: 0.25, 4: 0.75})):
            assert math.isclose(d.pgf(1.0), 1.0, rel_tol=1e-12)

    def test_pgf_geometric_closed_form(self):
        # inter-arrival law with success probability 0.3 at z = 0.5
        d = DiscreteDist.geometric(0.3)
        closed = 0.3 * 0.5 / (1 - 0.7 * 0.5)
        assert math.isclose(d.pgf(0.5), closed, abs_tol=1e-12)
        # independent direct series
        series = sum(0.3 * 0.7 ** (n - 1) * 0.5**n for n in range(1, 200))
        assert math.isclose(d.pgf(0.5), series, abs_tol=1e-12)

    def test_pgf_point_mass(self):
        assert DiscreteDist.point(3).pgf(0.5) == pytest.approx(0.125, abs=1e-15)

    def test_pgf_domain(self):
        with pytest.raises(ValueError):
            DiscreteDist.point(1).pgf(1.5)

    @given(st.integers(min_value=0, max_value=2**32 - 1))
    def test_sampling_deterministic(self, seed):
        d = DiscreteDist.geometric(0.4)
        a = d.sample(np.random.default_rng(seed), 32)
        b = d.sample(np.random.default_rng(seed), 32)
        assert np.array_equal(a, b)

    def test_sampling_range(self):
        d = DiscreteDist.from_pmf({2: 0.5, 5: 0.5})
        s = d.sample(np.random.default_rng(0), 1000)
        assert set(np.unique(s)) == {2, 5}

    def test_sampling_is_the_clipped_inverse_cdf(self):
        d = DiscreteDist.geometric(0.3)
        u = np.random.default_rng(11).random(50_000)
        cdf = np.cumsum(d.probs)
        cdf[-1] = 1.0
        want = np.array(d.values)[np.clip(np.searchsorted(cdf, u, side="right"), 0, len(d.values) - 1)]
        got = d.sample(np.random.default_rng(11), 50_000)
        assert got.dtype == np.int64 and np.array_equal(got, want)

    def test_sampling_holds_the_draws_and_three_blocks(self):
        # the draws, and per block the uniforms, their buckets and the
        # mask of those the table leaves to searchsorted
        n = 300_000
        peak = traced_peak_mb(DiscreteDist.geometric(0.5).sample, np.random.default_rng(1), n)
        assert peak < (n + 3 * engine_mod._SLOT_BLOCK) * 8 / 2**20


_STREAM_SIZES = [0, 1, (1 << 16) - 1, 1 << 16, (1 << 16) + 1, 3 * (1 << 16) + 5]
_LAWS = {
    "geometric-0.5": DiscreteDist.geometric(0.5),
    "geometric-0.05": DiscreteDist.geometric(0.05),  # 674 support points
    "three-points": DiscreteDist.from_pmf({1: 0.5, 2: 0.3, 4: 0.2}),
    "zero-mass-point": DiscreteDist((1, 2, 3), (0.25, 0.0, 0.75)),
    "point": DiscreteDist.point(3),
}


def _inverse_cdf(dist, u):
    """The reference draw: ``searchsorted(cdf, u, "right")`` clipped to
    the last support point."""
    cdf = np.cumsum(dist.probs)
    cdf[-1] = 1.0
    idx = np.searchsorted(cdf, u, side="right")
    return np.array(dist.values, dtype=np.int64)[np.minimum(idx, len(dist.values) - 1)]


class _GivenUniforms:
    """A generator stub whose ``random(out=)`` fills the given values in order."""

    def __init__(self, values):
        self.values, self.used = np.asarray(values, dtype=float), 0

    def random(self, out):
        out[:] = self.values[self.used : self.used + len(out)]
        self.used += len(out)
        return out


class TestStreams:
    """The random-stream invariants that keep outputs bit-identical when
    draws are taken in blocks or through the sampler's bucket table."""

    @pytest.mark.parametrize("n", _STREAM_SIZES)
    def test_uniform_blocks_are_rng_random(self, n):
        offsets, got = [], []
        for x0, u in engine_mod._uniform_blocks(np.random.default_rng(7), n):
            offsets.append(x0)
            got.append(u.copy())  # every block is a view of one reused buffer
        assert offsets == list(range(0, n, engine_mod._SLOT_BLOCK))
        want = np.random.default_rng(7).random(n)
        assert np.array_equal(np.concatenate(got) if got else np.empty(0), want)

    @pytest.mark.parametrize("law", _LAWS)
    @pytest.mark.parametrize("n", _STREAM_SIZES)
    def test_sample_is_the_inverse_cdf(self, law, n):
        dist = _LAWS[law]
        got = dist.sample(np.random.default_rng(n), n)
        want = _inverse_cdf(dist, np.random.default_rng(n).random(n))
        assert got.dtype == np.int64 and np.array_equal(got, want)

    @pytest.mark.parametrize("law", _LAWS)
    def test_sample_at_cdf_points_and_bucket_edges(self, law):
        dist = _LAWS[law]
        cdf = np.cumsum(dist.probs)
        cdf[-1] = 1.0
        near = np.concatenate([cdf, np.nextafter(cdf, 0), np.nextafter(cdf, 1)])
        edges = np.arange(engine_mod._BUCKETS) / engine_mod._BUCKETS
        u = np.concatenate([near[(near >= 0) & (near < 1)], edges, np.nextafter(edges[1:], 0)])
        got = dist.sample(_GivenUniforms(u), len(u))
        assert np.array_equal(got, _inverse_cdf(dist, u))

    @pytest.mark.parametrize("law", _LAWS)
    def test_table_leaves_exactly_the_split_buckets(self, law):
        # a bucket goes to searchsorted iff a cdf point lies strictly inside it
        vals, cdf, table = _LAWS[law]._arrays
        k = engine_mod._BUCKETS
        lo, hi = np.arange(k)[:, None] / k, np.arange(1, k + 1)[:, None] / k
        split = ((lo < cdf) & (cdf < hi)).any(axis=1)
        assert np.array_equal(table == 0, split)
        assert np.array_equal(table[~split], _inverse_cdf(_LAWS[law], lo[~split, 0]))


class TestArrivals:
    def test_explicit(self):
        assert list(gen_arrivals(Explicit((1, 3)), 0, 12)) == [1, 3]

    def test_explicit_validation(self):
        with pytest.raises(ValueError):
            Explicit((3, 1))
        with pytest.raises(ValueError):
            Explicit((0, 1))

    def test_bernoulli_rejects_bad_alpha(self):
        with pytest.raises(ValueError):
            Bernoulli(0.0)
        with pytest.raises(ValueError):
            Bernoulli(1.0)

    def test_bernoulli_rate_lln(self):
        T = 1_000_000
        alpha = 0.3
        arr = gen_arrivals(Bernoulli(alpha), 11, T)
        se = math.sqrt(alpha * (1 - alpha) / T)
        assert abs(len(arr) / T - alpha) <= 3 * se
        assert np.all(np.diff(arr) >= 1)  # at most one per slot

    def test_bernoulli_deterministic(self):
        a = gen_arrivals(Bernoulli(0.3), 5, 10_000)
        b = gen_arrivals(Bernoulli(0.3), 5, 10_000)
        assert np.array_equal(a, b)

    @pytest.mark.parametrize("horizon", [(1 << 16) - 1, 1 << 16, (1 << 16) + 1])
    def test_bernoulli_equals_whole_horizon_draw(self, horizon):
        want = np.flatnonzero(np.random.default_rng(17).random(horizon) < 0.3) + 1
        got = gen_arrivals(Bernoulli(0.3), 17, horizon)
        assert got.dtype == np.int64 and np.array_equal(got, want)

    @engine_blocks("_SLOT_BLOCK", 1, 2, 3, 7)
    def test_bernoulli_across_block_edges(self, engine_block):
        for horizon in (1, 2, 3, 7, 8, 50):
            want = np.flatnonzero(np.random.default_rng(horizon).random(horizon) < 0.5) + 1
            assert np.array_equal(gen_arrivals(Bernoulli(0.5), horizon, horizon), want), horizon

    def test_renewal_gaps(self):
        spec = Renewal(DiscreteDist.point(3))
        arr = gen_arrivals(spec, 1, 20)
        assert list(arr) == [3, 6, 9, 12, 15, 18]

    def test_finite_population_redirected(self):
        with pytest.raises(ValueError):
            gen_arrivals(FinitePopulation(3, 0.1), 0, 100)


class TestServices:
    def test_geometric_mean_lln(self):
        s = sample_services(DiscreteDist.geometric(0.5), 3, 1_000_000)
        assert abs(s.mean() - 2.0) <= 0.02

    def test_point_mass(self):
        assert np.all(sample_services(DiscreteDist.point(3), 0, 100) == 3)

    def test_degenerate_geometric(self):
        assert np.all(sample_services(DiscreteDist.geometric(1.0), 0, 50) == 1)

    def test_rejects_zero_support(self):
        with pytest.raises(ValueError):
            sample_services(DiscreteDist.from_pmf({0: 0.5, 1: 0.5}), 0, 10)


class TestDisciplines:
    def test_fifo_single_example(self):
        tr = run_discipline([1, 3], [5, 4], Fifo(1))
        assert list(tr.departures) == [6, 10]
        assert list(tr.starts) == [1, 6]
        # busy from slot 2 through slot 10
        path = oracle_queue_path(tr)
        assert int(np.count_nonzero(path[: 11])) == 9

    def test_infinite_server(self):
        tr = run_discipline([1], [4], InfiniteServer())
        assert list(tr.departures) == [5]
        assert np.array_equal(tr.waits, tr.services)

    def test_external_verbatim(self):
        tr = run_discipline([1, 2, 5], None, External((4, 5, 7)))
        assert list(tr.departures) == [4, 5, 7]
        assert list(tr.waits) == [3, 3, 2]

    def test_external_rejects_nonpositive_sojourn(self):
        with pytest.raises(ValueError):
            run_discipline([1, 2], None, External((4, 2)))

    def test_fifo_departures_nondecreasing(self):
        tr = build_trace(Bernoulli(0.4), DiscreteDist.geometric(0.6), Fifo(1), 9, 20_000)
        assert np.all(np.diff(tr.departures) >= 0)

    def test_work_conservation(self):
        tr = build_trace(Bernoulli(0.3), DiscreteDist.geometric(0.5), Fifo(1), 2, 20_000)
        n = int(np.searchsorted(tr.departures, tr.horizon - 10, side="right")) - 1
        d_n = int(tr.departures[n])
        busy_slots = int(np.count_nonzero(oracle_queue_path(tr)[1 : d_n + 1]))
        assert busy_slots == int(tr.services[: n + 1].sum())

    def test_fifo_multi_two_servers(self):
        # two servers, second customer goes to server 1, third waits
        tr = run_discipline([1, 1, 1], [4, 4, 2], Fifo(2))
        assert list(tr.starts) == [1, 1, 5]
        assert list(tr.servers) == [0, 1, 0]

    def test_fifo_multi_random_assignment_needs_seed(self):
        with pytest.raises(ValueError):
            run_discipline([1, 2], [2, 2], Fifo(2, assignment="random"))
        tr = run_discipline([1, 2], [2, 2], Fifo(2, assignment="random"), seed=4)
        assert sorted(tr.servers) == [0, 1]

    def test_rejects_zero_service(self):
        with pytest.raises(ValueError):
            run_discipline([1], [0], Fifo(1))
        # a horizon taken from the departures does not mask the service check
        with pytest.raises(ValueError, match="service times must be at least one slot"):
            run_discipline([0], [0], Fifo(1))

    @pytest.mark.parametrize("disc", [Fifo(1), Fifo(2), Fifo(2, "random")], ids=["c1", "c2", "c2-random"])
    def test_rejects_decreasing_arrivals(self, disc):
        with pytest.raises(ValueError, match="nondecreasing"):
            run_discipline([1, 3, 2], [1, 1, 1], disc, seed=0)

    def test_trace_determinism(self):
        a = build_trace(Bernoulli(0.3), DiscreteDist.geometric(0.5), Fifo(1), 13, 5_000)
        b = build_trace(Bernoulli(0.3), DiscreteDist.geometric(0.5), Fifo(1), 13, 5_000)
        for name in ("arrivals", "services", "starts", "departures"):
            assert np.array_equal(getattr(a, name), getattr(b, name))


@cache
def _multi_input(seed, n):
    """Bernoulli(0.6) arrivals and geometric(0.5) services for n customers:
    heavy enough for queueing on two or three servers."""
    horizon = int(n / 0.6 * 1.1) + 100
    slots = gen_arrivals(Bernoulli(0.6), seed, horizon)[:n]
    services = sample_services(DiscreteDist.geometric(0.5), seed + 1, len(slots))
    slots.flags.writeable = services.flags.writeable = False  # shared by every caller
    return slots, services


class TestFifoMultiOracle:
    def test_across_the_real_block_edge(self):
        arr, svc = _multi_input(43, 70_000)
        assert len(arr) > engine_mod._LOOP_BLOCK
        tr = run_discipline(arr, svc, Fifo(3))
        starts, chosen = oracle_fifo_multi(arr, svc, 3, "lowest", None)
        assert np.array_equal(tr.starts, starts)
        assert np.array_equal(tr.departures, starts + svc)
        assert np.array_equal(tr.servers, chosen)
        assert np.array_equal(tr.arrivals, arr)
        assert np.array_equal(tr.services, svc)
        assert tr.horizon == int((starts + svc).max())
        assert tr.servers.dtype == np.int64 and tr.starts.dtype == np.int64
        # the random policy: the same starts, its labels from the one-pass oracle
        rnd = run_discipline(arr, svc, Fifo(3, "random"), seed=29)
        assert np.array_equal(rnd.starts, starts)
        chosen = oracle_fifo_servers(arr, svc, 3, "random", np.random.default_rng(29))[1]
        assert rnd.servers.dtype == np.int64 and np.array_equal(rnd.servers, chosen)
        assert set(np.unique(rnd.servers).tolist()) == {0, 1, 2}


class TestRandomAssignment:
    def test_deterministic_for_seed(self):
        arr, svc = _multi_input(9, 5_000)
        a = run_discipline(arr, svc, Fifo(3, "random"), seed=11)
        b = run_discipline(arr, svc, Fifo(3, "random"), seed=11)
        assert np.array_equal(a.servers, b.servers)
        assert np.array_equal(a.starts, b.starts)

    def test_uniform_when_both_idle(self):
        # unit services every other slot: both servers are idle at every arrival
        n = 10_000
        tr = run_discipline(np.arange(1, n + 1) * 2, np.ones(n, dtype=np.int64), Fifo(2, "random"), seed=21)
        assert np.array_equal(tr.starts, tr.arrivals)
        sigma = math.sqrt(n * 0.25)
        assert abs(int(np.count_nonzero(tr.servers == 0)) - n / 2) <= 3 * sigma
        # independent picks: the same server as the previous customer half the time
        repeats = int(np.count_nonzero(tr.servers[1:] == tr.servers[:-1]))
        assert abs(repeats - (n - 1) / 2) <= 3 * math.sqrt((n - 1) * 0.25)

    def test_busy_server_never_picked(self):
        # server busy until slot 11 when the second customer arrives at 2
        tr = run_discipline([1, 2, 3], [10, 1, 1], Fifo(2, "random"), seed=0)
        assert tr.servers[1] != tr.servers[0]
        assert tr.servers[2] != tr.servers[0]


def _tie_inputs():
    """Short inputs full of ties: several arrivals per slot, and unit
    services that free several servers in one slot."""
    rng = np.random.default_rng(31)
    yield [1, 1, 1, 1, 2, 2, 5, 5, 5, 5, 5, 6], [1] * 12
    yield [0, 0, 0, 3, 3, 3, 3, 4], [2, 2, 2, 1, 1, 1, 1, 3]
    for _ in range(40):
        n = int(rng.integers(1, 40))
        yield np.sort(rng.integers(0, 12, size=n)), rng.integers(1, 3, size=n)


def _lane_inputs(case, lane, c):
    """FIFO-c inputs for lanes of ``lane`` customers, a list per case."""
    rng = np.random.default_rng(53)
    if case == "lanes":  # five lanes of 512 and a remainder at every lane length but 1
        return [_multi_input(53, 5 * 512 + 103)]
    if case == "overloaded":
        # c arrivals a slot for services of 2-5 slots, a per-server load of
        # 3.5: past the first customer no arrival finds every server free
        n = 3 * 512 + 5
        return [(np.arange(c, n + c) // c, rng.integers(2, 6, size=n))]
    if case == "busy":  # customers wait, yet only the clamped coupling stops a repair
        return [_busy_input(c, 0.2)]
    if case == "ties":
        return list(_tie_inputs())
    if case == "short":
        return [_multi_input(59, lane - 1)]
    return [([], [])]


def _busy_input(c, tied):
    """Arrivals a slot apart, or in the same slot with probability
    ``tied``, for services of 2 to c slots: the customer before is always
    in service or waiting, so no arrival but the first finds every server
    free.  The per-server load is (c + 2) / (2c (1 - tied))."""
    rng = np.random.default_rng(53)
    n = 5 * 512 + 103
    gaps = (rng.random(n) >= tied).astype(np.int64)
    gaps[0] = 1
    return np.cumsum(gaps), rng.integers(2, c + 1, size=n)


@cache
def _lane_cases(case, lane, c):
    """(arrivals, services, oracle starts) per input of ``_lane_inputs``,
    read-only: every lane and tile size shares them."""
    out = []
    for arrivals, services in _lane_inputs(case, lane if case == "short" else 0, c):
        arr = np.array(arrivals, dtype=np.int64)
        svc = np.array(services, dtype=np.int64)
        case_arrays = (arr, svc, oracle_fifo_multi(arr, svc, c, "lowest", None)[0])
        for x in case_arrays:
            x.flags.writeable = False
        out.append(case_arrays)
    return out


class TestFifoStarts:
    # every c runs the lanes' wavefront and repair, c = 1 included, which
    # run_discipline gives to prefix sums instead
    @engine_blocks("_LANE", 1, 2, 3, 7, engine_mod._LANE)
    @pytest.mark.parametrize("tile", [1, 3, engine_mod._TILE])
    @pytest.mark.parametrize("case", ["lanes", "overloaded", "busy", "ties", "short", "empty"])
    @pytest.mark.parametrize("c", [2, 3, 4, 8, 16], ids=lambda c: f"c{c}")
    def test_lanes(self, engine_block, tile, case, c, monkeypatch):
        monkeypatch.setattr(engine_mod, "_TILE", tile)
        for arr, svc, want in _lane_cases(case, engine_block, c):
            starts = engine_mod._fifo_starts(arr, svc, c)
            assert starts.dtype == np.int64
            assert np.array_equal(starts, want), (arr, svc)

    @pytest.mark.parametrize("tile", [1, 3, engine_mod._TILE])
    @pytest.mark.parametrize("c", [2, 3, 8, 16], ids=lambda c: f"c{c}")
    def test_busy_lanes_stop_by_coupling(self, c, tile, monkeypatch):
        # no arrival but the first finds every server free, so rule (a)
        # stops lane 0 alone.  With one arrival a slot no customer waits
        # either: at an arrival at most the c - 1 customers before are in
        # service.  So from a lane's
        # (c - 1)th customer on, F's busy slots are the lane's own
        # departures, as G's are, and rule (b) stops the lane at the first
        # tile start from there; the partial lane is repaired whole.  An
        # unclamped comparison would also wait for the free servers' slots.
        monkeypatch.setattr(engine_mod, "_TILE", tile)
        arr, svc = _busy_input(c, 0.0)
        want = oracle_fifo_multi(arr, svc, c, "lowest", None)[0]
        assert np.all(arr[1:] < np.maximum.accumulate(want + svc)[:-1])
        assert np.array_equal(want, arr)
        steps = []
        replace = heapq.heapreplace
        monkeypatch.setattr(heapq, "heapreplace", lambda heap, d: steps.append(d) or replace(heap, d))
        assert np.array_equal(engine_mod._fifo_starts(arr, svc, c), want)
        per_lane = tile * max(1, -(-(c - 1) // tile))
        assert len(steps) <= (len(arr) // engine_mod._LANE - 1) * per_lane + len(arr) % engine_mod._LANE

    @engine_blocks("_LOOP_BLOCK", 1, 2, 3, 7, 1 << 12)
    @pytest.mark.parametrize("c", [1, 2, 3, 5])
    def test_oracle_starts_under_both_policies(self, engine_block, c):
        for arrivals, services in [_multi_input(40 + c, 300), *_tie_inputs()]:
            arr = np.asarray(arrivals, dtype=np.int64)
            svc = np.asarray(services, dtype=np.int64)
            starts = engine_mod._fifo_starts(arr, svc, c)
            assert starts.dtype == np.int64
            for assignment in ("lowest", "random"):
                want = oracle_fifo_multi(arr, svc, c, assignment, np.random.default_rng(engine_block))[0]
                assert np.array_equal(starts, want), (arrivals, services, assignment)

    @pytest.mark.parametrize("c", [2, 3])
    def test_peak_is_the_starts_and_one_block(self, c):
        # the FIFO-2 input of the bench's verify-sequential at seed 4242,
        # 299 657 customers: past the starts column the wavefront holds its
        # three tiles (~0.4 MiB; a whole-column transpose would hold
        # ~7 MiB), its c rows and its states at every tile start (~0.2 MiB
        # at c = 3), and a repair one lane of Python lists
        arr = gen_arrivals(Bernoulli(0.6), 4242, 500_000)
        svc = sample_services(DiscreteDist.geometric(0.5), 4243, len(arr))
        peak = traced_peak_mb(engine_mod._fifo_starts, arr, svc, c)
        assert peak <= arr.nbytes / 2**20 + 1


class TestFifoLabels:
    @engine_blocks("_LOOP_BLOCK", 1, 2, 3, 7, 1 << 12)
    @pytest.mark.parametrize("c", [2, 3])
    @pytest.mark.parametrize("assignment", ["lowest", "random"])
    @pytest.mark.parametrize("seed", [3, 11, 29])
    def test_replay_is_the_one_pass_oracle(self, engine_block, c, assignment, seed):
        arr, svc = _multi_input(seed + c, 500)
        tr = run_discipline(arr, svc, Fifo(c, assignment), seed=seed)
        starts, chosen = oracle_fifo_servers(arr, svc, c, assignment, np.random.default_rng(seed))
        assert np.array_equal(tr.starts, starts)
        assert tr.servers.dtype == np.int64 and np.array_equal(tr.servers, chosen)

    @pytest.mark.parametrize("assignment", ["lowest", "random"])
    def test_build_and_validate_run_no_replay(self, label_replays, assignment):
        tr = build_trace(Bernoulli(0.6), DiscreteDist.geometric(0.5), Fifo(2, assignment), 4, 3_000)
        deferred = vars(tr)["servers"]
        Trace(tr.arrivals, tr.services, tr.starts, tr.departures, tr.horizon, deferred)
        time_averages(tr, R.LA_DF, E.RANDOM_OBSERVER)
        detect_cycles(tr)
        assert label_replays == []

    def test_reads_replay_once(self, label_replays):
        tr = build_trace(Bernoulli(0.6), DiscreteDist.geometric(0.5), Fifo(2, "random"), 4, 3_000)
        first = tr.servers
        assert tr.servers is first and tr.servers is first
        assert len(label_replays) == 1

    def test_single_server_labels_are_stored(self, label_replays):
        tr = run_discipline([1, 1, 2], [3, 1, 1], Fifo(1))
        assert list(vars(tr)["servers"]) == [0, 0, 0]
        assert label_replays == []

    def test_field_and_constructor_unchanged(self):
        assert [f.name for f in fields(Trace)] == [
            "arrivals", "services", "starts", "departures", "horizon", "servers",
        ]
        assert Trace(np.array([1]), np.array([1]), np.array([1]), np.array([2]), 3).servers is None
        labelled = Trace(np.array([1]), np.array([1]), np.array([1]), np.array([2]), 3, servers=np.array([4]))
        assert list(labelled.servers) == [4]
        with pytest.raises(FrozenInstanceError):
            labelled.servers = None


class TestTraceServers:
    def _trace(self, servers):
        a = np.array([1, 2], dtype=np.int64)
        s = np.array([2, 2], dtype=np.int64)
        return Trace(a, s, a.copy(), a + s, 10, np.asarray(servers, dtype=np.int64))

    def test_valid_servers_accepted(self):
        assert list(self._trace([0, 1]).servers) == [0, 1]

    @pytest.mark.parametrize("servers", [[0], [0, 1, 0]], ids=["short", "long"])
    def test_wrong_length_rejected(self, servers):
        with pytest.raises(ValueError, match="one index per customer"):
            self._trace(servers)

    def test_negative_index_rejected(self):
        with pytest.raises(ValueError, match="nonnegative"):
            self._trace([0, -1])

    def test_negative_index_rejected_on_import(self, tmp_path):
        path = tmp_path / "neg.csv"
        path.write_text("k,A,S,Astart,D,server\n1,1,2,1,3,0\n2,2,2,2,4,-1\n")
        with pytest.raises(ValueError, match="nonnegative"):
            read_trace_csv(path)


# the column checks of Trace in their order, each as a way to break one
# customer k of valid columns (a, s, b, d, servers)
def _break_nondecreasing(c, k):
    c["a"][k] = c["a"][k - 1] - 1 if k else c["a"][1] + 1


def _break_nonnegative(c, k):
    c["a"][: k + 1] = -1


def _break_service(c, k):
    c["s"][k] = 0
    c["d"][k] = c["b"][k]


def _break_start(c, k):
    c["b"][k] = c["a"][k] - 1
    c["d"][k] = c["b"][k] + c["s"][k]


def _break_departure(c, k):
    c["d"][k] += 1


def _break_server(c, k):
    c["servers"][k] = -1


_TRACE_CHECKS = [
    (_break_nondecreasing, "arrival slots must be nondecreasing"),
    (_break_nonnegative, "arrival slots must be nonnegative"),
    (_break_service, "service times must be at least one slot"),
    (_break_start, "service cannot start before arrival"),
    (_break_departure, "departures must equal start plus service"),
    (_break_server, "server indices must be nonnegative"),
]


def _valid_columns(n):
    k = np.arange(n, dtype=np.int64)
    a = 5 + 3 * (k // 2)  # ties in pairs
    s = 1 + k % 4
    b = a + k % 3
    return {"a": a, "s": s, "b": b, "d": b + s, "servers": k % 2}


def _trace_of(c):
    return Trace(c["a"], c["s"], c["b"], c["d"], 100, c["servers"])


@pytest.mark.usefixtures("engine_block")
@engine_blocks("_SLOT_BLOCK", 1, 2, 3, 7)
class TestTraceChecks:
    """Trace checks its columns ``_SLOT_BLOCK`` customers at a time; a
    broken customer is found wherever the block edges fall, and the
    checks keep their order across blocks."""

    N = 20

    def test_valid_columns_pass(self):
        assert _trace_of(_valid_columns(self.N)).n == self.N

    @pytest.mark.parametrize("check", range(len(_TRACE_CHECKS)))
    def test_broken_customer_anywhere(self, check):
        brk, message = _TRACE_CHECKS[check]
        for k in range(self.N):
            c = _valid_columns(self.N)
            brk(c, k)
            with pytest.raises(ValueError, match=message):
                _trace_of(c)

    @pytest.mark.parametrize("first, later", [(i, j) for i in range(6) for j in range(i + 1, 6)])
    def test_earlier_check_wins_from_a_later_block(self, first, later):
        c = _valid_columns(self.N)
        _TRACE_CHECKS[later][0](c, 0)
        _TRACE_CHECKS[first][0](c, self.N - 1)
        with pytest.raises(ValueError, match=_TRACE_CHECKS[first][1]):
            _trace_of(c)


class TestSlotBlocks:
    @engine_blocks("_SLOT_BLOCK", 1, 2, 3, 7, 1 << 16)
    @pytest.mark.parametrize("with_order", [False, True], ids=["sorted", "order"])
    def test_counts_are_searchsorted(self, engine_block, with_order):
        # each column holds the events per slot with the carry-in in entry
        # 0, so its cumsum is the counting process; events at slot 0, ties,
        # and past every end; N(-1) must read 0
        rng = np.random.default_rng(23)
        a = np.sort(np.append(rng.integers(0, 40, size=29), 0))
        d = np.append(rng.integers(1, 50, size=29), 0)
        order = np.argsort(d, kind="stable")
        d_read, sorter = (d, order) if with_order else (d[order], None)
        for first in (0, 1, 2, 5, 40):
            for end in range(first + 1, 46):
                x0 = first
                for n_a, n_d in engine_mod._counts(a, d_read, first, end, sorter):
                    assert len(n_a) == len(n_d) <= engine_block + 2
                    x = np.arange(x0 - 1, x0 + len(n_a) - 1)  # x0-1..x1
                    for got, events in ((n_a, a), (n_d, np.sort(d))):
                        want = np.searchsorted(events, x, side="right")
                        assert got.dtype == np.int64 and np.array_equal(np.cumsum(got), want), (first, end, x0)
                    x0 += len(n_a) - 2
                assert x0 == end, (first, end)

    def test_slot_passes_hold_no_slot_length_array(self):
        # one int64 array over 2·10^6 slots is 16 MB; numpy buffers are traced
        T = 2_000_000
        assert traced_peak_mb(gen_arrivals, Bernoulli(0.001), 5, T) < 6
        arrivals = gen_arrivals(Bernoulli(0.001), 5, T)
        services = sample_services(DiscreteDist.geometric(0.5), 6, len(arrivals))
        tr = run_discipline(arrivals, services, Fifo(1), horizon=T)
        assert traced_peak_mb(time_averages, tr, R.LAS_DA, E.RANDOM_OBSERVER) < 6
        assert traced_peak_mb(basic_inequality_path, tr) < 6
        # every check of a verify, the trace build included, and the
        # library checks on the trace; the bound is on memory alone, as
        # some statistical rows fail at this density
        cp = configparser.ConfigParser()
        cp.read_dict({
            "model": {"alpha": "0.001", "service": "geometric:0.5"},
            "sim": {"horizon": str(T), "warmup": str(T // 10), "seed": "5"},
        })
        exp = cli.Experiment(cp)
        assert len(exp.checks) == 8
        assert traced_peak_mb(cli.run_verify, exp) < 6

        def every_combo():
            for rule, epoch in itertools.product(RULES, EPOCHS):
                verify_on_trace(tr, rule, epoch)

        assert traced_peak_mb(every_combo) < 6
        for cost in (indicator_cost(), remaining_work_cost()):
            assert traced_peak_mb(check_h_lambda_g, tr, cost) < 6


class TestShiftTrace:
    def test_pairs(self):
        assert (arrival_phase(R.EAS), departure_shift(R.EAS)) == (Phase.P, (0, Phase.M))
        assert (arrival_phase(R.LAS_IA), departure_shift(R.LAS_IA)) == (Phase.M, (-1, Phase.P))
        assert (arrival_phase(R.LA_DF), departure_shift(R.LA_DF)) == (Phase.M, (0, Phase.MM))


def _assert_same_trace(tr, ref):
    assert tr.horizon == ref.horizon
    for name in ("arrivals", "services", "starts", "departures", "servers"):
        got, want = getattr(tr, name), getattr(ref, name)
        assert got.dtype == want.dtype and np.array_equal(got, want), name


class TestFinitePopulation:
    def test_single_arrival_per_slot(self):
        tr = simulate_finite_population(5, 0.05, DiscreteDist.geometric(0.5), 1, 50_000)
        assert np.all(np.diff(tr.arrivals) >= 1)

    def test_population_cap(self):
        tr = simulate_finite_population(3, 0.2, DiscreteDist.geometric(0.3), 2, 50_000)
        assert int(oracle_queue_path(tr).max()) <= 3

    def test_empty_state_arrival_rate(self):
        n, alpha = 5, 0.05
        tr = simulate_finite_population(n, alpha, DiscreteDist.geometric(0.5), 3, 400_000)
        assert abs(oracle_state_rates(tr)[1] - n * alpha) <= 0.01

    @pytest.mark.parametrize(
        "n, alpha, seed, horizon",
        [
            (5, 0.05, 1, 60_000),
            (3, 0.2, 4, 40_000),
            (4, 0.25, 8, 30_000),  # N * alpha = 1: every slot is a candidate
            (1, 0.5, 2, 20_000),
            (7, 0.1, 6, 500),  # fewer arrivals than one service block
            # slots 1..horizon end just before, on and just after the edge
            # of a slot block
            (5, 0.05, 1, (1 << 16) - 1),
            (4, 0.25, 8, 1 << 16),
            (4, 0.25, 8, (1 << 16) + 1),
        ],
    )
    def test_bit_identical_to_slot_walk(self, n, alpha, seed, horizon):
        svc = DiscreteDist.geometric(0.5)
        tr = simulate_finite_population(n, alpha, svc, seed, horizon)
        assert tr.n > 0
        _assert_same_trace(tr, oracle_finite_population(n, alpha, svc, seed, horizon))

    @pytest.mark.parametrize(
        "n, alpha, seed, horizon",
        [(1, 0.05, 0, 1), (1, 0.05, 2, 20), (5, 0.01, 2, 20)],
    )
    def test_no_arrival_in_horizon(self, n, alpha, seed, horizon):
        # no uniform falls below the arrival probability: no service is
        # drawn, and the path is empty, as the slot walk's is
        svc = DiscreteDist.geometric(0.5)
        tr = simulate_finite_population(n, alpha, svc, seed, horizon)
        assert tr.n == 0
        _assert_same_trace(tr, oracle_finite_population(n, alpha, svc, seed, horizon))

    # uniforms come in blocks of _SLOT_BLOCK slots and service draws in
    # chunks of _LOOP_BLOCK: the small sizes cross both kinds of edge
    @engine_blocks("_LOOP_BLOCK", 1, 2, 3, 7, 1 << 12)
    @pytest.mark.parametrize("slot_block", [1, 7, 1 << 16])
    def test_bit_identical_across_block_edges(self, engine_block, slot_block, monkeypatch):
        monkeypatch.setattr(engine_mod, "_SLOT_BLOCK", slot_block)
        svc = DiscreteDist.geometric(0.5)
        for horizon in (1, 2, 300, 301):
            tr = simulate_finite_population(4, 0.2, svc, 9, horizon)
            _assert_same_trace(tr, oracle_finite_population(4, 0.2, svc, 9, horizon))

    def test_rate_cap_validated(self):
        with pytest.raises(ValueError):
            FinitePopulation(30, 0.05)

    @pytest.mark.parametrize("horizon", [0, -1])
    def test_horizon_below_one_slot(self, horizon):
        with pytest.raises(ValueError, match="horizon must be at least one slot"):
            simulate_finite_population(5, 0.05, DiscreteDist.geometric(0.5), 1, horizon)

    def test_peak_is_twice_the_four_columns(self):
        # the arrivals and services, then the FIFO kernel's prefix-sum and
        # starts columns, and the departures once the prefix sum is gone;
        # the loop itself holds one slot block of arrivals
        svc, T = DiscreteDist.geometric(0.5), 400_000
        n = simulate_finite_population(5, 0.1, svc, 42, T).n
        peak = traced_peak_mb(simulate_finite_population, 5, 0.1, svc, 42, T)
        assert peak < 2.5 * 4 * n * 8 / 2**20


_TRACE_FIELDS = ("arrivals", "services", "starts", "departures")

# the ends of each base-10^4 digit group the encoder splits a value into,
# and of each eight-digit word the decoder reads (at most 18 digits)
_GROUP_EDGES = [0, 9, 10, 9999, 10**4, 10**8 - 1, 10**8, 10**12, 10**16 - 1, 10**16, 10**18 - 1]


@st.composite
def _csv_traces(draw, top=10**18 - 1):
    """Small traces whose columns hit every digit-group edge up to ``top``;
    a start is an arrival plus a drawn delay, and a departure adds the
    service, so the columns reach three times ``top``."""
    n = draw(st.integers(0, 12))
    edges = [e for e in _GROUP_EDGES if e <= top]
    values = st.one_of(st.sampled_from(edges), st.integers(0, min(top, 10**16)))
    column = st.lists(values, min_size=n, max_size=n)
    arrivals = np.sort(np.array(draw(column), dtype=np.int64))
    starts = arrivals + np.array(draw(column), dtype=np.int64)
    services = 1 + np.array(draw(column), dtype=np.int64)
    servers = draw(st.sampled_from(["none", "zeros", "values"]))
    if servers == "none":
        servers = None
    elif servers == "zeros":
        servers = np.zeros(n, dtype=np.int64)
    else:
        servers = np.array(draw(column), dtype=np.int64)
    return Trace(arrivals, services, starts, starts + services, 1, servers)


class TestTraceCsv:
    def test_roundtrip(self, tmp_path):
        tr = build_trace(Bernoulli(0.3), DiscreteDist.geometric(0.5), Fifo(1), 21, 2_000)
        path = tmp_path / "trace.csv"
        write_trace_csv(tr, path)
        back = read_trace_csv(path, horizon=tr.horizon)
        for name in _TRACE_FIELDS + ("servers",):
            assert getattr(back, name).dtype == np.int64
            assert np.array_equal(getattr(tr, name), getattr(back, name))

    def test_roundtrip_keeps_server_assignment(self, tmp_path):
        tr = build_trace(Bernoulli(0.6), DiscreteDist.geometric(0.5), Fifo(2, "random"), 4, 3_000)
        assert set(tr.servers.tolist()) == {0, 1}
        path = tmp_path / "trace.csv"
        write_trace_csv(tr, path)
        back = read_trace_csv(path, horizon=tr.horizon)
        for name in _TRACE_FIELDS + ("servers",):
            assert np.array_equal(getattr(tr, name), getattr(back, name))
        assert utilization(back).total == utilization(tr).total

    @engine_blocks("_CSV_CHUNK", 1_000)  # several blocks, the last partial
    @pytest.mark.parametrize(
        "disc", [Fifo(1), Fifo(2, "random"), InfiniteServer()], ids=["fifo1", "fifo2", "inf"]
    )
    def test_bytes_match_csv_writer(self, tmp_path, engine_block, disc):
        tr = build_trace(Bernoulli(0.6), DiscreteDist.geometric(0.5), disc, 8, 3_000)
        assert tr.n % engine_block != 0
        ours, ref = tmp_path / "ours.csv", tmp_path / "ref.csv"
        write_trace_csv(tr, ours)
        oracle_trace_csv(tr, ref)
        assert ours.read_bytes() == ref.read_bytes()

    @given(_csv_traces(), st.integers(1, 5))
    @settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_bytes_match_csv_writer_on_any_values(self, tmp_path, tr, chunk):
        ours, ref = tmp_path / "ours.csv", tmp_path / "ref.csv"
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(engine_mod, "_CSV_CHUNK", chunk)  # the last block partial when n % chunk
            write_trace_csv(tr, ours)
        oracle_trace_csv(tr, ref)
        assert ours.read_bytes() == ref.read_bytes()

    # below 10^17, a departure (arrival + delay + service) stays below
    # 3 * 10^17, so every value the property writes has at most 18 digits
    @given(_csv_traces(top=10**17 - 1), st.data())
    @settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_reads_what_the_loadtxt_reader_reads(self, tmp_path, tr, data):
        # the written rows again, each with a drawn line end, blank lines
        # drawn before and after every row, and the last line end optional
        path = tmp_path / "t.csv"
        write_trace_csv(tr, path)
        header, *rows = path.read_bytes().split(b"\r\n")[:-1]
        ends = st.sampled_from([b"\n", b"\r\n", b"\r"])
        lines = [header]
        for row in rows + [None]:
            lines += [b""] * data.draw(st.integers(0, 2))
            lines += [] if row is None else [row]
        text = b"".join(line + data.draw(ends) for line in lines)
        if not data.draw(st.booleans()):
            text = text[: -1 - text.endswith(b"\r\n")]
        path.write_bytes(text)
        want = oracle_read_trace_csv(path)
        for block in (1, 2, 3, 7, 1 << 16):
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(engine_mod, "_SLOT_BLOCK", block)
                back = read_trace_csv(path)
            assert back.horizon == want.horizon, block
            assert back.servers is want.servers is None or np.array_equal(back.servers, want.servers), block
            _assert_columns(back)
            for name in _TRACE_FIELDS:
                assert np.array_equal(getattr(back, name), getattr(want, name)), (block, name)

    @engine_blocks("_CSV_CHUNK", 4)  # a partial last block
    @pytest.mark.parametrize("servers", ["none", "zeros", "edges"])
    @pytest.mark.parametrize("n", [0, 1, len(_GROUP_EDGES)], ids=["header-only", "one-row", "all"])
    def test_group_edges_match_csv_writer(self, tmp_path, engine_block, n, servers):
        edges = np.array(_GROUP_EDGES[:n], dtype=np.int64)
        column = {"none": None, "zeros": np.zeros(n, dtype=np.int64), "edges": edges}[servers]
        tr = Trace(edges, edges + 1, edges, 2 * edges + 1, 1, column)
        ours, ref = tmp_path / "ours.csv", tmp_path / "ref.csv"
        write_trace_csv(tr, ours)
        oracle_trace_csv(tr, ref)
        assert ours.read_bytes() == ref.read_bytes()

    @engine_blocks("_CSV_CHUNK", 4)
    @pytest.mark.parametrize("servers", [False, True], ids=["no-server", "server"])
    def test_group_count_is_fixed_per_trace(self, tmp_path, engine_block, servers):
        # the first block fits one digit group, the second needs three and
        # the third is partial: all are encoded at three groups
        arrivals = np.array([0, 1, 2, 3, 10**8, 10**8, 10**8 + 7, 2 * 10**8, 10**9, 10**9 + 1])
        services = np.array([1, 2, 9, 3, 1, 10**4, 5, 10**8, 1, 2])
        column = np.array([0, 1, 0, 1, 0, 0, 1, 0, 1, 0]) if servers else None
        tr = Trace(arrivals, services, arrivals, arrivals + services, 1, column)
        assert tr.departures[:engine_block].max() < 10**4 <= 10**8 <= tr.departures[engine_block:].max()
        assert tr.n % engine_block != 0
        ours, ref = tmp_path / "ours.csv", tmp_path / "ref.csv"
        write_trace_csv(tr, ours)
        oracle_trace_csv(tr, ref)
        assert ours.read_bytes() == ref.read_bytes()

    @engine_blocks("_CSV_CHUNK", 1_000)
    @pytest.mark.parametrize("order", [1, -1], ids=["long-first", "short-first"])
    def test_back_to_back_writes(self, tmp_path, engine_block, order):
        # one call's scratch (row count, columns, group count) never
        # carries into the next
        edges = np.array(_GROUP_EDGES, dtype=np.int64)
        traces = [
            build_trace(Bernoulli(0.6), DiscreteDist.geometric(0.5), Fifo(2, "random"), 8, 3_000),
            Trace(edges, edges + 1, edges, 2 * edges + 1, 1),
        ][::order]
        for i, tr in enumerate(traces):
            write_trace_csv(tr, tmp_path / f"ours{i}.csv")
        for i, tr in enumerate(traces):
            oracle_trace_csv(tr, tmp_path / "ref.csv")
            assert (tmp_path / f"ours{i}.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()

    def test_no_server_column_without_assignment(self, tmp_path):
        tr = run_discipline([1, 2], None, External((3, 6)), horizon=6)
        path = tmp_path / "trace.csv"
        write_trace_csv(tr, path)
        assert path.read_bytes() == b"k,A,S,Astart,D\r\n1,1,2,1,3\r\n2,2,4,2,6\r\n"
        assert read_trace_csv(path).servers is None

    @pytest.mark.parametrize("disc", [Fifo(1), InfiniteServer()], ids=["fifo1", "inf"])
    def test_header_only_roundtrip(self, tmp_path, disc):
        tr = run_discipline([], [], disc, horizon=50)
        path = tmp_path / "empty.csv"
        write_trace_csv(tr, path)
        assert path.read_bytes().count(b"\r\n") == 1
        back = read_trace_csv(path, horizon=50)
        assert back.n == 0 and back.horizon == 50
        assert back.arrivals.dtype == np.int64
        assert (back.servers is None) == (tr.servers is None)

    def test_single_row(self, tmp_path):
        path = tmp_path / "one.csv"
        path.write_bytes(b"k,A,S,Astart,D\r\n1,2,3,4,7\r\n")
        tr = read_trace_csv(path)
        assert [list(getattr(tr, f)) for f in _TRACE_FIELDS] == [[2], [3], [4], [7]]
        assert tr.horizon == 7

    @pytest.mark.parametrize(
        "text",
        [
            "k,A,S,Astart,D\n1,1,5,1,6\n2,3,4,6,10\n",
            "k,A,S,Astart,D\r\n1,1,5,1,6\r\n2,3,4,6,10\r\n\r\n",
            "k,A,S,Astart,D\n1,1,5,1,6\n\n2,3,4,6,10\n\n",
        ],
        ids=["lf", "crlf-blank-end", "lf-blank-lines"],
    )
    def test_line_ends_and_blank_lines(self, tmp_path, text):
        path = tmp_path / "t.csv"
        path.write_bytes(text.encode())
        tr = read_trace_csv(path)
        assert list(tr.arrivals) == [1, 3] and list(tr.departures) == [6, 10]

    @pytest.mark.parametrize(
        "text, message",
        [
            ("x,y\n1,2\n", "not a trace header"),
            # the writer never writes A and S alone
            ("k,A,S\n1,1,5\n", "not a trace header"),
            # names D but not Astart
            ("k,A,S,D\n1,1,5,9\n2,3,4,12\n", "not a trace header"),
            # a sixth value the header does not name
            ("k,A,S,Astart,D\n1,1,2,1,3,1\n2,2,2,2,4,0\n", "rows have 6 values, the header 5"),
            # a server header over rows that carry no server
            ("k,A,S,Astart,D,server\n1,1,5,2,7\n2,3,4,7,11\n", "rows have 5 values, the header 6"),
        ],
        ids=["junk", "arrival-service", "unknown-header", "rows-wider", "rows-narrower"],
    )
    def test_rejects_other_files(self, tmp_path, text, message):
        path = tmp_path / "junk.csv"
        path.write_text(text)
        with pytest.raises(ValueError, match=message):
            read_trace_csv(path)

    def test_rejection_names_the_accepted_headers(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("k,A,S,D\n1,1,5,9\n")
        with pytest.raises(ValueError) as info:
            read_trace_csv(path)
        assert "'k,A,S,D'" in str(info.value)
        assert "(k,A,S,Astart,D or k,A,S,Astart,D,server)" in str(info.value)


def _assert_columns(tr):
    for name in _TRACE_FIELDS + ("servers",):
        col = getattr(tr, name)
        if col is not None:
            assert col.dtype == np.int64 and col.flags.c_contiguous, name


@pytest.mark.usefixtures("engine_block")
@engine_blocks("_SLOT_BLOCK", 1, 2, 3, 7)
class TestTraceCsvChunks:
    """The reader decodes ``_SLOT_BLOCK`` bytes at a time into preallocated
    columns, carrying the last unfinished row to the next block; a file
    reads the same wherever its block edges fall, rows longer than a
    block included."""

    HEADER = "k,A,S,Astart,D"
    ROWS = ["1,1,5,1,6", "2,3,4,6,10", "3,4,1,10,11", "4,9,2,11,13", "5,12,3,13,16"]

    @staticmethod
    def _write(tmp_path, lines, end, final=True):
        path = tmp_path / "t.csv"
        path.write_bytes((end.join(lines) + (end if final else "")).encode())
        return path

    @pytest.mark.parametrize("final", [True, False], ids=["final-end", "no-final-end"])
    @pytest.mark.parametrize("end", ["\n", "\r\n", "\r"], ids=["lf", "crlf", "cr"])
    def test_blank_lines_at_every_edge(self, tmp_path, end, final):
        for at in range(len(self.ROWS) + 1):  # two blank lines after `at` rows
            rows = self.ROWS[:at] + ["", ""] + self.ROWS[at:]
            if at == len(self.ROWS) and not final:
                rows = rows[:-1]  # the file then ends in one blank line
            tr = read_trace_csv(self._write(tmp_path, [self.HEADER] + rows, end, final))
            assert list(tr.arrivals) == [1, 3, 4, 9, 12], at
            assert list(tr.departures) == [6, 10, 11, 13, 16], at
            assert tr.horizon == 16 and tr.servers is None
            _assert_columns(tr)

    @pytest.mark.parametrize("end", ["\n", "\r\n"], ids=["lf", "crlf"])
    @pytest.mark.parametrize("row", ["6,14,1,16,17,0", "6,14,1,16"], ids=["wider", "narrower"])
    def test_odd_row_in_a_later_chunk(self, tmp_path, end, row):
        path = self._write(tmp_path, [self.HEADER] + self.ROWS + [row], end)
        with pytest.raises(ValueError):
            read_trace_csv(path)

    @pytest.mark.parametrize("text", ["", "\n", "\r\n\r\n"], ids=["bare", "lf", "crlf-blank"])
    @pytest.mark.parametrize("header", list(engine_mod._CSV_HEADERS), ids=len)
    def test_header_only(self, tmp_path, header, text):
        path = tmp_path / "empty.csv"
        path.write_bytes((",".join(header) + text).encode())
        tr = read_trace_csv(path, horizon=9)
        assert tr.n == 0 and tr.horizon == 9
        assert (tr.servers is None) == (len(header) == 5)
        _assert_columns(tr)

    @pytest.mark.parametrize(
        "text",
        ["k,A,S", "k,A,S\n", "k,A,S\r\n\r\n", "k,A,S\r\n1,1,5\r\n\r\n2,3,4\r\n3,9,2\r\n4,9,1"],
        ids=["bare", "lf", "crlf-blank", "rows"],
    )
    def test_arrival_service_file_rejected(self, tmp_path, text):
        # the header is judged whole, however many blocks it spans: a
        # k,A,S file is the prefix of a trace header, not one
        path = tmp_path / "partial.csv"
        path.write_bytes(text.encode())
        with pytest.raises(ValueError, match="header 'k,A,S' is not a trace header"):
            read_trace_csv(path)

    def test_roundtrip(self, tmp_path):
        tr = build_trace(Bernoulli(0.6), DiscreteDist.geometric(0.5), Fifo(2, "random"), 3, 40)
        path = tmp_path / "trace.csv"
        write_trace_csv(tr, path)
        back = read_trace_csv(path, horizon=tr.horizon)
        for name in _TRACE_FIELDS + ("servers",):
            assert np.array_equal(getattr(tr, name), getattr(back, name)), name
        _assert_columns(back)

    def test_bare_cr_among_lf_line_ends(self, tmp_path):
        # 2 LFs bound 5 rows, so the columns grow while they are read
        path = tmp_path / "mixed.csv"
        path.write_bytes(b"k,A,S,Astart,D\r1,1,5,1,6\n2,3,4,6,10\r3,4,1,10,11\r4,9,2,11,13\r5,12,3,13,16\n")
        tr = read_trace_csv(path)
        assert list(tr.arrivals) == [1, 3, 4, 9, 12] and list(tr.services) == [5, 4, 1, 2, 3]
        assert list(tr.starts) == [1, 6, 10, 11, 13] and list(tr.departures) == [6, 10, 11, 13, 16]
        _assert_columns(tr)

    def test_word_edges_read_back(self, tmp_path):
        # A and Astart take every edge but the top one, S and D every edge
        # but 0 (a departure after 10^18 - 1 has 19 digits), server all
        e = np.array(_GROUP_EDGES, dtype=np.int64)
        arrivals = np.concatenate([np.zeros(len(e) - 1, dtype=np.int64), e[:-1]])
        services = np.concatenate([e[1:], np.ones(len(e) - 1, dtype=np.int64)])
        servers = np.concatenate([e[1:], e[:-1]])
        tr = Trace(arrivals, services, arrivals, arrivals + services, 1, servers)
        path = tmp_path / "edges.csv"
        write_trace_csv(tr, path)
        back = read_trace_csv(path, horizon=1)
        for name in _TRACE_FIELDS + ("servers",):
            assert np.array_equal(getattr(back, name), getattr(tr, name)), name
        _assert_columns(back)
        assert {int(v) for name in _TRACE_FIELDS + ("servers",) for v in getattr(back, name)} >= set(_GROUP_EDGES)

    def test_leading_zeros(self, tmp_path):
        path = self._write(tmp_path, [self.HEADER, "001,007,2,0007,000000000000000009"], "\r\n")
        tr = read_trace_csv(path)
        assert [list(getattr(tr, f)) for f in _TRACE_FIELDS] == [[7], [2], [7], [9]]

    @pytest.mark.parametrize(
        "row, message",
        [
            ("2,3,4,6,1000000000000000000", "line 3: a value of 19 digits"),
            ("2, 3,4,6,10", r"line 3: byte b' ' is not a digit, ',' or a line end"),
            ("2,3,4,6,10 ", r"line 3: byte b' '"),
            ("2,\t3,4,6,10", r"line 3: byte b'\\t'"),
            ("2,+3,4,6,10", r"line 3: byte b'\+'"),
            ("# 2,3,4,6,10", r"line 3: byte b'#'"),
            ("2,3,,4,6,10", "line 3: an empty value"),
            ("2,3,4,6,10,", "line 3: an empty value"),
            (",2,3,4,6,10", "line 3: an empty value"),
            ("2,3,4,6,1\r0", r"rows have 1 values, the header 5 \(line 4\)"),
            ("-2,3,4,6,10", "line 3: a negative value; trace values are nonnegative"),
        ],
        ids=["19-digits", "space", "trailing-space", "tab", "plus", "hash", "double-comma",
             "trailing-comma", "leading-comma", "stray-cr", "negative-k"],
    )
    @pytest.mark.parametrize("end", ["\n", "\r\n", "\r"], ids=["lf", "crlf", "cr"])
    def test_rejects_what_the_writer_never_writes(self, tmp_path, end, row, message):
        lines = [self.HEADER, self.ROWS[0], row] + self.ROWS[2:]
        with pytest.raises(ValueError, match=message):
            read_trace_csv(self._write(tmp_path, lines, end))


def test_write_holds_one_block_of_scratch(tmp_path):
    # 6.3 MB: the scratch of one block, allocated once, plus one block's
    # text twice over, its cells' bytes and their translation
    assert traced_peak_mb(write_trace_csv, reference_trace(), tmp_path / "ref.csv") <= 7


def test_read_holds_the_columns_and_one_chunk(tmp_path):
    # the reference file's five kept columns are 11.4 MB; the whole-file body
    # and its transposed copy, k column included, peaked at 30 MB
    path = tmp_path / "ref.csv"
    write_trace_csv(reference_trace(), path)
    assert traced_peak_mb(read_trace_csv, path) <= 15


def test_offsets_hold_no_customer_length_array():
    # the 30 combos take two blocks of _SLOT_BLOCK customers (1 MB); with
    # observed_waits' two customer-length copies per shift they took 4.6 MB
    def offsets(trace):
        for rule, epoch in itertools.product(RULES, EPOCHS):
            verify_on_trace(trace, rule, epoch)

    assert traced_peak_mb(offsets, reference_trace()) <= 1.5


def test_reference_checks_hold_no_per_cycle_arrays(tmp_path):
    # busy sets the peak over the eight checks: its memoized busy periods
    # and the cycle boundaries beside the window's completed mask, 4.87 MB;
    # the bound is that plus 10%.  With five eager per-cycle arrays in
    # CycleStats it was 10.4 MB, and with a customer-length running
    # maximum of the departures 6.7 MB
    path = tmp_path / "ref.ini"
    path.write_text(
        "[model]\narrival = bernoulli\nalpha = 0.3\nservice = geometric:0.5\n"
        "discipline = fifo\nservers = 1\n\n[sim]\nhorizon = 1000000\nwarmup = 100000\n\n"
        f"[checks]\nnames = {', '.join(cli.CHECK_NAMES)}\n"
    )
    exp = cli.load_experiment(str(path))

    def checks(trace):
        for name in exp.checks:
            cli._run_check(name, exp, trace)

    assert len(exp.checks) == 8
    assert traced_peak_mb(checks, reference_trace()) <= 5.36


def test_empty_state_rates_hold_the_runs_and_two_customer_blocks():
    # the busy periods are found a block of customers at a time, and the
    # empty arrivals counted the same way.  The peak, 2.74 MB, comes when
    # the second of the two memoized columns is joined from its per-block
    # pieces; with a customer-length running maximum it was 5.3 MB
    trace = reference_trace()
    peak = traced_peak_mb(empty_state_rates, trace)
    runs = sum(arr.nbytes for arr in trace._memo["busy"]) / 2**20
    assert peak <= runs + 2 * engine_mod._SLOT_BLOCK * 8 / 2**20
