import math

import numpy as np
import pytest

from dtq.birthdeath import (
    BDParams,
    BGeom1Params,
    UnstableChainError,
    bgeom1_L,
    bgeom1_pi,
    class_profile,
    finite_population_profile,
    occupancy_grid,
    one_or_more,
    product_form,
    render_occupancy_text,
)
from dtq.coherence import GOLDEN_CLASS_GRID, CoherenceClass as C

REF = dict(alpha=0.3, beta=0.5)
GAMMA = 3 / 7
RHO = 0.6

STABILITY_GRID = [
    (frac * beta, beta)
    for beta in (0.2, 0.45, 0.7, 0.9)
    for frac in (0.1, 0.3, 0.5, 0.65, 0.8)
]
assert len(STABILITY_GRID) == 20


class TestProductForm:
    def test_constant_profile_is_geometric(self):
        # constant completion probability in every state: plain geometric law
        pi = product_form(BDParams(lambda n: 0.3, lambda n: 0.5))
        n = np.arange(len(pi))
        assert np.abs(pi - (1 - GAMMA) * GAMMA**n).max() < 1e-12

    def test_idle_completion_blocked_profile(self):
        p = BGeom1Params(0.3, 0.5, C.COHERENT)
        pi = product_form(class_profile(p))
        assert pi[0] == pytest.approx(0.4, abs=1e-12)
        assert pi[1] == pytest.approx(12 / 35, abs=1e-12)

    def test_no_arrivals_degenerate(self):
        pi = product_form(BDParams(lambda n: 0.0, lambda n: 0.5))
        assert list(pi) == [1.0]

    def test_unstable_detected(self):
        with pytest.raises(UnstableChainError):
            product_form(BDParams(lambda n: 0.6, lambda n: 0.0 if n == 0 else 0.5))

    def test_explicit_cap(self):
        pi = product_form(BDParams(lambda n: 0.3, lambda n: 0.5, n_max=5))
        assert len(pi) == 6
        assert pi.sum() == pytest.approx(1.0, abs=1e-12)


class TestClassDistributions:
    def test_reference_values(self):
        assert bgeom1_pi(BGeom1Params(klass=C.COHERENT, **REF))[0] == pytest.approx(0.4)
        sub = bgeom1_pi(BGeom1Params(klass=C.SUB_COHERENT, **REF))
        assert sub[0] == pytest.approx(4 / 7, abs=1e-12)
        sup = bgeom1_pi(BGeom1Params(klass=C.SUPER_COHERENT, **REF))
        assert sup[0] == pytest.approx(0.28, abs=1e-12)
        assert sup[1] == pytest.approx(0.36, abs=1e-12)

    @pytest.mark.parametrize("alpha,beta", STABILITY_GRID)
    def test_sum_to_one_on_grid(self, alpha, beta):
        for klass in C:
            pi = bgeom1_pi(BGeom1Params(alpha, beta, klass))
            assert abs(pi.sum() - 1.0) < 1e-12

    @pytest.mark.parametrize("alpha,beta", STABILITY_GRID)
    def test_product_form_equivalence_on_grid(self, alpha, beta):
        for klass in C:
            p = BGeom1Params(alpha, beta, klass)
            pf = product_form(class_profile(p))
            cf = bgeom1_pi(p, n_max=len(pf) - 1)
            assert np.abs(pf - cf).max() < 1e-12, (alpha, beta, klass)

    def test_super_is_coherent_shifted_by_arrival(self):
        # independent oracle: the one-slot-long class mixes the equal class
        # with its unit shift, weighted by the arrival probability
        p_coh = bgeom1_pi(BGeom1Params(klass=C.COHERENT, **REF), n_max=40)
        p_sup = bgeom1_pi(BGeom1Params(klass=C.SUPER_COHERENT, **REF), n_max=40)
        mix = (1 - REF["alpha"]) * p_coh + REF["alpha"] * np.concatenate(([0.0], p_coh[:-1]))
        assert np.abs(p_sup - mix).max() < 1e-14

    def test_unstable_rejected(self):
        with pytest.raises(UnstableChainError):
            BGeom1Params(0.6, 0.5, C.COHERENT)


class TestMeanNumberInSystem:
    def test_reference_values(self):
        assert bgeom1_L(BGeom1Params(klass=C.COHERENT, **REF)) == pytest.approx(1.05, abs=1e-12)
        assert bgeom1_L(BGeom1Params(klass=C.SUB_COHERENT, **REF)) == pytest.approx(0.75, abs=1e-12)
        assert bgeom1_L(BGeom1Params(klass=C.SUPER_COHERENT, **REF)) == pytest.approx(1.35, abs=1e-12)

    @pytest.mark.parametrize("alpha,beta", STABILITY_GRID)
    def test_matches_numeric_summation(self, alpha, beta):
        for klass in C:
            p = BGeom1Params(alpha, beta, klass)
            pi = bgeom1_pi(p, n_max=400)
            numeric = float((np.arange(len(pi)) * pi).sum())
            assert bgeom1_L(p) == pytest.approx(numeric, abs=1e-10)

    def test_observed_shift_is_lambda(self):
        # the shorter/longer classes sit exactly alpha away from the equal class
        base = bgeom1_L(BGeom1Params(klass=C.COHERENT, **REF))
        assert bgeom1_L(BGeom1Params(klass=C.SUB_COHERENT, **REF)) == pytest.approx(
            base - REF["alpha"], abs=1e-12
        )
        assert bgeom1_L(BGeom1Params(klass=C.SUPER_COHERENT, **REF)) == pytest.approx(
            base + REF["alpha"], abs=1e-12
        )

    def test_little_consistency(self):
        w = (1 - REF["alpha"]) / (REF["beta"] - REF["alpha"])
        assert bgeom1_L(BGeom1Params(klass=C.COHERENT, **REF)) == pytest.approx(
            REF["alpha"] * w, abs=1e-12
        )


class TestOccupancy:
    def test_reference_values(self):
        assert one_or_more(BGeom1Params(klass=C.COHERENT, **REF)) == pytest.approx(RHO)
        assert one_or_more(BGeom1Params(klass=C.SUB_COHERENT, **REF)) == pytest.approx(GAMMA)
        assert one_or_more(BGeom1Params(klass=C.SUPER_COHERENT, **REF)) == pytest.approx(0.72)

    def test_matches_distributions(self):
        for klass in C:
            p = BGeom1Params(klass=klass, **REF)
            assert one_or_more(p) == pytest.approx(1.0 - bgeom1_pi(p)[0], abs=1e-12)

    def test_grid_follows_classification(self):
        grid = occupancy_grid(**REF)
        values = {C.COHERENT: RHO, C.SUB_COHERENT: GAMMA, C.SUPER_COHERENT: 0.72}
        for key, klass in GOLDEN_CLASS_GRID.items():
            assert grid[key] == pytest.approx(values[klass], abs=1e-12)

    def test_render(self):
        text = render_occupancy_text(occupancy_grid(**REF))
        assert "0.600000" in text and "0.428571" in text and "0.720000" in text


class TestFinitePopulationProfile:
    def test_matches_direct_chain_solve(self):
        n_src, alpha, beta = 3, 0.1, 0.5
        prof = finite_population_profile(n_src, alpha, beta)
        pf = product_form(prof)
        # independent oracle: stationary vector of the explicit slot chain
        P = np.zeros((n_src + 1, n_src + 1))
        for n in range(n_src + 1):
            up = prof.alpha_fn(n) * (1 - prof.beta_fn(n))
            down = prof.beta_fn(n) * (1 - prof.alpha_fn(n)) if n else 0.0
            if n < n_src:
                P[n, n + 1] = up
            if n > 0:
                P[n, n - 1] = down
            P[n, n] = 1.0 - P[n].sum()
        w, v = np.linalg.eig(P.T)
        st = np.real(v[:, np.argmin(np.abs(w - 1))])
        st = st / st.sum()
        assert np.abs(pf - st).max() < 1e-12


def test_invalid_parameters():
    with pytest.raises(ValueError):
        BGeom1Params(0.0, 0.5, C.COHERENT)
    with pytest.raises(ValueError):
        BGeom1Params(0.3, 1.0, C.COHERENT)
