"""Acceptance gate: every headline claim at its stated tolerance.

Reference configuration: Bernoulli(0.3) arrivals, geometric(0.5)
services, one FIFO server, one million slots, warmup 100k, seed 42.
Each criterion prints one PASS/FAIL line (run with -s to see them all).
"""
import itertools
import json
from fractions import Fraction

import numpy as np
import pytest
from conftest import observed_shift_path, oracle_cycles, oracle_state_rates

from dtq import birthdeath, busy, cli, coherence, littles, observer
from dtq.coherence import CoherenceClass
from dtq.engine import (
    Bernoulli,
    DiscreteDist,
    External,
    Fifo,
    InfiniteServer,
    Renewal,
    build_trace,
    run_discipline,
)
from dtq.timebase import EPOCHS, RULES, ObservationEpoch as E, SchedulingRule as R

ALPHA, BETA = 0.3, 0.5
HORIZON, WARMUP, SEED = 1_000_000, 100_000, 42
GAMMA = ALPHA * (1 - BETA) / (BETA * (1 - ALPHA))  # 3/7
RHO = ALPHA / BETA

ALL_COMBOS = tuple(itertools.product(RULES, EPOCHS))


def report(criterion: int, label: str, ok: bool, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    tail = f"  ({detail})" if detail else ""
    print(f"[{status}] criterion {criterion:2d}: {label}{tail}")
    assert ok, f"criterion {criterion}: {label} {tail}"


@pytest.fixture(scope="module")
def ref_trace():
    return build_trace(
        Bernoulli(ALPHA), DiscreteDist.geometric(BETA), Fifo(1), SEED, HORIZON
    )


@pytest.fixture(scope="module")
def gginf_trace():
    gaps = DiscreteDist.from_pmf({2: 0.5, 5: 0.5})
    svc = DiscreteDist.from_pmf({1: 0.3, 4: 0.7})
    return build_trace(Renewal(gaps), svc, InfiniteServer(), 11, 50_000)


@pytest.fixture(scope="module")
def ref_config(tmp_path_factory):
    path = tmp_path_factory.mktemp("acc") / "reference.ini"
    path.write_text(
        "[model]\n"
        "arrival = bernoulli\n"
        f"alpha = {ALPHA}\n"
        f"service = geometric:{BETA}\n"
        "discipline = fifo\n"
        "servers = 1\n\n"
        "[sim]\n"
        f"horizon = {HORIZON}\n"
        f"warmup = {WARMUP}\n"
        f"seed = {SEED}\n"
        "replications = 1\n\n"
        "[checks]\n"
        "names = little, little-observed, pk, workload, busy, dist, table61, utilization\n\n"
        "[output]\n"
        "format = json\n"
    )
    return str(path)


def test_criterion_01_classification_tables():
    table = coherence.classification_table()
    grid_ok = table == coherence.GOLDEN_CLASS_GRID
    count_ok = sum(1 for c in table.values() if c is CoherenceClass.COHERENT) == 17
    summary = {
        rule: (
            table[(rule, E.RANDOM_OBSERVER)] is CoherenceClass.COHERENT,
            table[(rule, E.OUTSIDE_OBSERVER)] is CoherenceClass.COHERENT,
        )
        for rule in RULES
    }
    reduction_ok = summary == coherence.GOLDEN_EDGE_CENTER_OK
    report(
        1,
        "classification grid, 17 coherent cells, edge/center reduction (exact)",
        grid_ok and count_ok and reduction_ok,
    )


def test_criterion_02_per_customer_offsets(ref_trace, gginf_trace):
    ok = True
    for trace in (ref_trace, gginf_trace):
        waits = trace.waits
        for rule, epoch in ALL_COMBOS:
            want = coherence.classify(rule, epoch).offset
            offs = observer.observed_waits(trace, rule, epoch) - waits
            if not np.all(offs == want):
                ok = False
    report(2, "per-customer offsets match the class on both traces, 30 combos (exact)", ok)


def test_criterion_03_worked_example():
    trace = run_discipline([1, 2, 5], None, External((4, 5, 7)), horizon=7)
    ok = True
    for convention in ("strict-left", "strict-right"):
        est = observer.time_averages(trace, warmup=0, convention=convention)
        ok &= abs(est.lam - 3 / 7) < 1e-12
        ok &= abs(est.W - 8 / 3) < 1e-12
        ok &= abs(est.L - 8 / 7) < 1e-12
        ok &= abs(est.L - est.lam * est.W) < 1e-12
    # the rational identity is exact by construction
    n_arr, span = 3, 7
    total_wait, total_l = 8, 8
    ok &= Fraction(total_l, span) == Fraction(n_arr, span) * Fraction(total_wait, n_arr)
    report(3, "three-customer worked example: lam=3/7, W=8/3, L=8/7, L=lam*W", ok)


def test_criterion_04_little_family(ref_trace):
    (rep,) = littles.check_little(ref_trace, WARMUP)
    ok = rep.passed
    detail = [f"L={rep.simulated:.4f}"]
    targets = {
        (R.LAS_IA, E.RANDOM_OBSERVER): 1.05,
        (R.EAS, E.RANDOM_OBSERVER): 0.75,
        (R.LAS_DA, E.RANDOM_OBSERVER): 1.35,
    }
    for (rule, epoch), target in targets.items():
        orep = littles.check_little_observed(ref_trace, rule, epoch, WARMUP)
        ok &= orep.passed
        ok &= abs(orep[0].simulated - target) <= 0.01 * target
        detail.append(f"{target}:{orep[0].simulated:.4f}")
    report(4, "L = lam*W and class targets 1.05/0.75/1.35 within 1%", ok, " ".join(detail))


def test_criterion_05_basic_inequality_exact():
    ok = True
    for seed in range(10):
        tr = build_trace(
            Bernoulli(0.35), DiscreteDist.geometric(0.5), Fifo(1), seed, 10_000
        )
        ok &= littles.basic_inequality_path(tr)
    report(5, "cumulative-wait sandwich exact at every slot on 10 traces", ok)


def _padded_max_diff(a, b):
    width = max(len(a), len(b))
    return float(
        np.abs(np.pad(a, (0, width - len(a))) - np.pad(b, (0, width - len(b)))).max()
    )


def test_criterion_06_stationary_distributions(ref_trace):
    per_state_tol = 3.0 / np.sqrt(HORIZON)
    ok = True
    worst = 0.0
    coherent_hists = []
    for rule, epoch in ALL_COMBOS:
        est = observer.time_averages(ref_trace, rule, epoch, WARMUP)
        klass = coherence.classify(rule, epoch)
        analytic = birthdeath.bgeom1_pi(birthdeath.BGeom1Params(ALPHA, BETA, klass))
        gap = _padded_max_diff(est.pi_obs, analytic)
        worst = max(worst, gap)
        ok &= gap <= per_state_tol
        if klass is CoherenceClass.COHERENT:
            coherent_hists.append(est.pi_obs)
    edge_tol = 32.0 / (HORIZON - WARMUP)
    mutual = max(
        _padded_max_diff(coherent_hists[0], h) for h in coherent_hists[1:]
    )
    ok &= mutual <= edge_tol
    report(
        6,
        "per-state histograms match the class laws (3/sqrt(T)); 17 coherent mutual",
        ok,
        f"worst state gap {worst:.2e}, mutual {mutual:.2e}",
    )


def test_criterion_07_occupancy_grid(ref_trace):
    grid = birthdeath.occupancy_grid(ALPHA, BETA)
    ok = True
    worst = 0.0
    for rule, epoch in ALL_COMBOS:
        est = observer.time_averages(ref_trace, rule, epoch, WARMUP)
        sim = 1.0 - float(est.pi_obs[0])
        ref = grid[(rule, epoch)]
        rel = abs(sim - ref) / ref
        worst = max(worst, rel)
        ok &= rel <= 0.01
    report(7, "nonempty-system probability per combo within 1%", ok, f"worst {worst:.2%}")


def test_criterion_08_busy_periods(ref_trace):
    stats = busy.detect_cycles(ref_trace)
    sim = stats.means()
    targets = busy.CycleMeans(10 / 3, 25 / 3, 5.0, 2.5)
    ok = all(
        abs(getattr(sim, f) - getattr(targets, f)) <= 0.02 * getattr(targets, f)
        for f in ("idle", "cycle", "busy", "customers")
    )
    ok &= bool(np.array_equal(stats.C, stats.B + stats.I))

    # measured occupancy and empty-state rate reproduce the measured means;
    # the rates come from the path oracle, not from the customers' busy runs
    pred = busy.cycle_means_from_rates(*oracle_state_rates(ref_trace))
    ok &= all(
        abs(getattr(sim, f) - getattr(pred, f)) <= 0.01 * getattr(pred, f)
        for f in ("idle", "cycle", "busy", "customers")
    )

    # cycle-length invariance across the coherent combos, cycle by cycle
    for rule, epoch in ALL_COMBOS:
        if coherence.classify(rule, epoch) is not CoherenceClass.COHERENT:
            continue
        path = observed_shift_path(ref_trace, rule, epoch)
        seen = oracle_cycles(path)
        m = min(stats.n_cycles, seen.n_cycles)
        ok &= abs(stats.n_cycles - seen.n_cycles) <= 1
        ok &= bool(np.array_equal(stats.C[: m - 1], seen.C[: m - 1]))
        ok &= bool(np.array_equal(stats.B[: m - 1], seen.B[: m - 1]))
        ok &= bool(np.array_equal(stats.I[: m - 1], seen.I[: m - 1]))
    report(
        8,
        "cycle means within 2%, C=B+I exact, coherent invariance, rate self-consistency 1%",
        ok,
        f"I={sim.idle:.4f} C={sim.cycle:.4f} B={sim.busy:.4f} E={sim.customers:.4f}",
    )


def test_criterion_09_sigma_solver():
    sigma, sigma_star = busy.sigma_solve(DiscreteDist.geometric(ALPHA), BETA)
    ok = abs(sigma - 3 / 7) <= 1e-10 and abs(sigma_star - 0.6) <= 1e-10
    renewal_means = busy.ggeo1_busy(ALPHA, sigma_star, RHO)
    rate_means = busy.cycle_means_from_rates(1 - RHO, ALPHA, ALPHA)
    ok &= all(
        abs(a - b) <= 1e-10 for a, b in zip(renewal_means, rate_means)
    )
    report(9, "pgf fixed point sigma=3/7, sigma*=0.6 to 1e-10; means agree to 1e-10", ok)


def test_criterion_10_pk_and_workload(ref_trace):
    ewq, ev = littles.verify_pk(ref_trace, WARMUP)
    ok = abs(ewq.simulated - 1.5) <= 0.02 * 1.5
    ok &= abs(ev.simulated - 1.5) <= 0.02 * 1.5
    unit = build_trace(Bernoulli(0.6), DiscreteDist.point(1), Fifo(1), 5, 100_000)
    urep, _ = littles.verify_pk(unit, 10_000)
    ok &= urep.simulated == 0.0 and urep.formula == 0.0
    m = littles.workload_moments(ref_trace, WARMUP)
    est = observer.time_averages(ref_trace, warmup=WARMUP)
    ok &= abs(est.W - (m.EWq + m.ES)) <= 0.01 * est.W
    report(
        10,
        "EWq and EV at 1.5 within 2%; unit-service delay exactly 0; W = Wq + ES within 1%",
        ok,
        f"EWq={ewq.simulated:.4f} EV={ev.simulated:.4f}",
    )


def test_criterion_11_utilization(ref_trace):
    est = observer.time_averages(ref_trace, warmup=WARMUP)
    ok = abs((1.0 - float(est.pi[0])) - RHO) <= 0.01 * RHO
    two = build_trace(Bernoulli(0.6), DiscreteDist.geometric(0.5), Fifo(2), 7, HORIZON)
    rep = littles.utilization(two)
    ok &= abs(rep.total - 1.2) <= 0.02 * 1.2
    report(
        11,
        "single-server occupancy 0.6 within 1%; two-server busy count 1.2 within 2%",
        ok,
        f"1-pi0={1 - float(est.pi[0]):.4f} U2={rep.total:.4f}",
    )


def test_criterion_12_product_form_oracle_equivalence():
    worst = 0.0
    for beta in (0.2, 0.45, 0.7, 0.9):
        for frac in (0.1, 0.3, 0.5, 0.65, 0.8):
            alpha = frac * beta
            for klass in CoherenceClass:
                p = birthdeath.BGeom1Params(alpha, beta, klass)
                pf = birthdeath.product_form(birthdeath.class_profile(p))
                cf = birthdeath.bgeom1_pi(p, n_max=len(pf) - 1)
                worst = max(worst, float(np.abs(pf - cf).max()))
    report(12, "product form equals closed forms on the 20-point grid to 1e-12", worst <= 1e-12, f"worst {worst:.2e}")


def test_criterion_13_deterministic_verify(ref_config, tmp_path):
    out1, out2 = tmp_path / "run1.json", tmp_path / "run2.json"
    code1 = cli.main(["--config", ref_config, "--out", str(out1), "verify"])
    code2 = cli.main(["--config", ref_config, "--out", str(out2), "verify"])
    b1, b2 = out1.read_bytes(), out2.read_bytes()
    ok = code1 == 0 and code2 == 0 and b1 == b2
    bundle = json.loads(b1)
    ok &= bundle["overall_pass"] is True
    report(
        13,
        "reference verify passes all checks and reruns byte-identically",
        ok,
        f"exit {code1}/{code2}, {len(b1)} bytes",
    )
