import numpy as np
import pytest

from idlewage import (
    TwoPeriodExample,
    case_a_idle_only,
    case_b_no_idle,
    case_c_joint,
    example_profit_surface,
    flexible_optimum,
)

TOL = 1e-12


def surface_argmax(ex, tau_hi=1.0, j_hi=1.0, step=1e-4):
    """Chunked fine scan of the shared-policy profit quadratic."""
    taus = np.arange(0.0, tau_hi + step / 2, step)
    js = np.arange(0.0, j_hi + step / 2, step)
    best = (-np.inf, None, None)
    chunk = 400
    for lo in range(0, taus.size, chunk):
        t = taus[lo : lo + chunk]
        vals = example_profit_surface(ex, t[:, None], js[None, :])
        k = np.unravel_index(np.argmax(vals), vals.shape)
        if vals[k] > best[0]:
            best = (vals[k], t[k[0]], js[k[1]])
    return best


class TestFlexible:
    @pytest.mark.parametrize("eps", [0.5, 0.72, 2.0])
    def test_wages_are_premium_independent(self, eps):
        out = flexible_optimum(TwoPeriodExample(eps))
        assert (out["J_high"], out["J_low"]) == (0.5, 0.125)
        assert out["profit_high"] == pytest.approx((1 + eps) / 4, abs=TOL)
        assert out["profit_low"] == pytest.approx((1 + eps) / 64, abs=TOL)


class TestCaseA:
    def test_crossover_premium_ties_no_idle_case(self):
        out = case_a_idle_only(TwoPeriodExample(0.36))
        assert out["J"] == pytest.approx(0.3125, abs=TOL)
        assert out["profit"] == pytest.approx(34 / 128, abs=TOL)

    def test_unit_premium(self):
        out = case_a_idle_only(TwoPeriodExample(1.0))
        assert out["profit"] == pytest.approx(50 / 128, abs=TOL)

    def test_vanishing_premium_limit(self):
        out = case_a_idle_only(TwoPeriodExample(1e-12))
        assert out["profit"] == pytest.approx(25 / 128, rel=1e-9)


class TestCaseB:
    @pytest.mark.parametrize("eps", [0.36, 1.0, 10.0])
    def test_premium_free(self, eps):
        out = case_b_no_idle(TwoPeriodExample(eps))
        assert out["tau"] == pytest.approx(0.5, abs=TOL)
        assert out["profit"] == pytest.approx(34 / 128, abs=TOL)


class TestCaseC:
    def test_threshold_commission_hits_one(self):
        out = case_c_joint(TwoPeriodExample(0.72))
        assert out["tau"] == pytest.approx(1.0, abs=1e-9)

    def test_branches_agree_at_threshold(self):
        ex = TwoPeriodExample(0.72)
        low = case_c_joint(ex)
        high = case_c_joint(TwoPeriodExample(0.72 + 1e-13))
        for key in ("J", "tau", "profit"):
            assert low[key] == pytest.approx(high[key], abs=1e-9)

    def test_above_threshold_collapses_to_idle_only(self):
        out = case_c_joint(TwoPeriodExample(1.0))
        assert out["J"] == pytest.approx(0.3125, abs=TOL)
        assert out["tau"] == 1.0
        assert out["profit"] == pytest.approx(50 / 128, abs=TOL)

    def test_interior_branch_against_fine_scan(self):
        ex = TwoPeriodExample(0.3)
        out = case_c_joint(ex)
        assert out["J"] == pytest.approx(85 * 0.3 / (4 * (36 + 10.8 - 2.25)), abs=TOL)
        best_val, best_tau, best_j = surface_argmax(ex)
        assert abs(best_tau - out["tau"]) <= 1e-4
        assert abs(best_j - out["J"]) <= 1e-4
        assert best_val <= out["profit"] + 1e-9

    def test_joint_dominates_restricted_cases(self):
        for eps in (0.05, 0.3, 0.36, 0.6, 0.72, 1.0, 5.0):
            ex = TwoPeriodExample(eps)
            c = case_c_joint(ex)["profit"]
            assert c >= case_a_idle_only(ex)["profit"] - TOL
            assert c >= case_b_no_idle(ex)["profit"] - TOL


class TestSurface:
    def test_origin_is_worthless(self):
        assert example_profit_surface(TwoPeriodExample(0.4), 0.0, 0.0) == 0.0

    @pytest.mark.parametrize("eps", [0.2, 0.72, 3.0])
    def test_idle_only_point(self, eps):
        got = example_profit_surface(TwoPeriodExample(eps), 1.0, 5 / 16)
        assert got == pytest.approx(25 * (1 + eps) / 128, abs=TOL)

    @pytest.mark.parametrize("eps", [0.2, 0.72, 3.0])
    def test_no_idle_point(self, eps):
        got = example_profit_surface(TwoPeriodExample(eps), 0.5, 0.0)
        assert got == pytest.approx(34 / 128, abs=TOL)

    def test_idle_only_crossover_at_moderate_premium(self):
        # paying only the idle wage overtakes pure commissions once the
        # certainty premium reaches 0.36
        a = case_a_idle_only(TwoPeriodExample(0.36 - 1e-9))["profit"]
        b = case_b_no_idle(TwoPeriodExample(0.36 - 1e-9))["profit"]
        assert a < b
        a = case_a_idle_only(TwoPeriodExample(0.36 + 1e-9))["profit"]
        assert a > b - TOL


class TestLowDemandVariant:
    def test_commission_cap_threshold_found_numerically(self):
        # Variant with the low period's demand halved again: the premium
        # needed before tau = 1 becomes optimal rises to roughly 1.2.
        def variant_surface(eps, tau, J):
            high = (2 + eps) * tau * J + tau - tau**2 - J - (1 + eps) * J**2
            low = (
                (tau - tau**2) / 64
                + ((2 + eps) * tau / 8 - 1 / 8) * J
                - (1 + eps) * J**2
            )
            return high + low

        def tau_star(eps):
            taus = np.arange(0.0, 1.0 + 5e-4, 1e-3)
            js = np.arange(0.0, 0.8 + 5e-4, 1e-3)
            vals = variant_surface(eps, taus[:, None], js[None, :])
            return taus[np.unravel_index(np.argmax(vals), vals.shape)[0]]

        lo, hi = 0.8, 1.6
        for _ in range(30):
            mid = 0.5 * (lo + hi)
            if tau_star(mid) >= 1.0 - 1e-9:
                hi = mid
            else:
                lo = mid
        threshold = 0.5 * (lo + hi)
        assert 1.15 <= threshold <= 1.27
