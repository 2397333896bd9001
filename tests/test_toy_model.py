import math

import numpy as np
import pytest
from hypothesis import assume, given, strategies as st

from factorlab import toy_model as tm
from conftest import sharpe_standard_error


def params(mean_f=1.0, var_f=1.0, a=0.0, g=0.0, k=0.0):
    return tm.ToyModelParams(mean_f, var_f, short_loading=a,
                             resid_var_ratio=g, short_resid_var_ratio=k)


class TestClosedForms:
    def test_sr_long_short_factor_only(self):
        assert tm.sr_long_short(params()) == pytest.approx(1.0)

    def test_sr_long_short_direct_substitution(self):
        assert tm.sr_long_short(params(a=1, g=1, k=1)) == pytest.approx(2 / math.sqrt(6))

    def test_sr_hedged_long_factor_only(self):
        assert tm.sr_hedged_long(params()) == pytest.approx(1.0)

    def test_sr_hedged_long_resid_three(self):
        assert tm.sr_hedged_long(params(g=3)) == pytest.approx(0.5)

    def test_ratio_equals_quotient(self):
        p = params(a=0.7, g=2.3, k=0.4)
        assert tm.sr_ratio(p) == pytest.approx(
            tm.sr_long_short(p) / tm.sr_hedged_long(p), rel=1e-14)

    def test_ratio_one_when_no_resid(self):
        assert tm.sr_ratio(params(a=2.0, k=5.0)) == pytest.approx(1.0)

    def test_ratio_one_at_boundary(self):
        a_star = math.sqrt(2) - 1
        assert tm.sr_ratio(params(a=a_star, g=7.7, k=1.0)) == pytest.approx(1.0)

    def test_ratio_large_resid_limit(self):
        # k=1, a=1: (1+g)/(1+g/2) -> 2
        assert tm.sr_ratio(params(a=1, g=1e9, k=1)) == pytest.approx(
            math.sqrt(2), rel=1e-6)

    def test_threshold_examples(self):
        assert tm.shorts_threshold(1.0) == pytest.approx(math.sqrt(2) - 1)
        assert tm.shorts_threshold(0.0) == 0.0
        assert tm.shorts_threshold(3.0) == pytest.approx(1.0)

    def test_threshold_domain_error(self):
        with pytest.raises(ValueError):
            tm.shorts_threshold(-0.1)

    def test_degenerate_variance_errors(self):
        p = params(var_f=0.0)
        with pytest.raises(tm.DegenerateVarianceError):
            tm.sr_long_short(p)
        with pytest.raises(tm.DegenerateVarianceError):
            tm.sr_hedged_long(p)

    def test_param_validation(self):
        with pytest.raises(ValueError):
            params(mean_f=0.0)
        with pytest.raises(ValueError):
            params(g=-1.0)


class TestProperties:
    @given(
        a=st.floats(0, 5), g=st.floats(1e-6, 50), k=st.floats(0, 10),
    )
    def test_threshold_sign_equivalence(self, a, g, k):
        # exact away from the knife edge; below float resolution the two
        # sides cannot be distinguished at all
        thr = tm.shorts_threshold(k)
        assume(abs(a - thr) > 1e-9 * (1.0 + thr))
        ratio = tm.sr_ratio(params(a=a, g=g, k=k))
        lhs = np.sign(ratio - 1.0)
        rhs = np.sign(a - thr)
        assert lhs == rhs

    @given(
        a=st.floats(0, 5), g=st.floats(0, 50), k=st.floats(0, 10),
        mean=st.floats(1e-3, 1e3), scale=st.floats(1e-3, 1e3),
    )
    def test_ratio_scale_invariance(self, a, g, k, mean, scale):
        base = tm.sr_ratio(params(a=a, g=g, k=k))
        moved = tm.sr_ratio(params(mean_f=mean, var_f=scale ** 2, a=a, g=g, k=k))
        assert moved == pytest.approx(base, rel=1e-12)

    @given(
        a=st.floats(0, 4), da=st.floats(1e-3, 2), g=st.floats(1e-3, 20),
        k=st.floats(0, 5),
    )
    def test_ratio_monotone_in_short_loading(self, a, da, g, k):
        assert tm.sr_ratio(params(a=a + da, g=g, k=k)) > tm.sr_ratio(
            params(a=a, g=g, k=k))

    @given(k=st.floats(0, 20), dk=st.floats(1e-6, 5))
    def test_threshold_strictly_increasing(self, k, dk):
        assert tm.shorts_threshold(k + dk) > tm.shorts_threshold(k)

    @given(g=st.floats(0.1, 10), dg=st.floats(0.01, 10))
    def test_ratio_increasing_in_resid_above_threshold(self, g, dg):
        # a above the k=1 threshold
        a = 0.9
        assert tm.sr_ratio(params(a=a, g=g + dg, k=1.0)) > tm.sr_ratio(
            params(a=a, g=g, k=1.0))


class TestMonteCarlo:
    def test_closed_forms_within_three_se(self):
        p = params(mean_f=0.05, var_f=0.04, a=0.6, g=2.0, k=1.5)
        n = 100_000
        s = tm.simulate_toy_returns(p, n, seed=42)
        for book, closed in ((tm.LONG_SHORT, tm.sr_long_short(p)),
                             (tm.HEDGED_LONG, tm.sr_hedged_long(p))):
            emp = tm.sharpe_per_period(book.pnl(s))
            se = sharpe_standard_error(closed, n)
            assert abs(emp - closed) < 3 * se

    def test_ratio_within_one_percent_at_1e6(self):
        p = params(a=0.8, g=1.0, k=1.0)
        s = tm.simulate_toy_returns(p, 1_000_000, seed=7)
        emp = tm.sharpe_per_period(tm.LONG_SHORT.pnl(s)) / \
            tm.sharpe_per_period(tm.HEDGED_LONG.pnl(s))
        assert emp == pytest.approx(tm.sr_ratio(p), rel=0.01)

    def test_declared_moments(self):
        p = params(mean_f=0.3, var_f=0.25, a=0.5, g=2.0, k=0.5)
        s = tm.simulate_toy_returns(p, 200_000, seed=11, market_mean=0.1,
                                    market_vol=0.2)
        assert np.mean(s.factor) == pytest.approx(0.3, abs=0.005)
        assert np.var(s.factor) == pytest.approx(0.25, rel=0.02)
        assert np.var(s.e_long) == pytest.approx(p.long_resid_var, rel=0.02)
        assert np.var(s.e_short) == pytest.approx(p.short_resid_var, rel=0.02)
        assert abs(np.corrcoef(s.factor, s.e_long)[0, 1]) < 0.01
        assert np.allclose(s.r_long, s.market + s.factor + s.e_long)
        assert np.allclose(s.r_short, s.market - 0.5 * s.factor + s.e_short)

    def test_degenerate_simulation_constant(self):
        p = params(mean_f=0.02, var_f=0.0)
        s = tm.simulate_toy_returns(p, 50, seed=1)
        assert np.all(s.r_long == 0.02)

    def test_same_seed_bit_identical(self):
        p = params(a=0.3, g=1.0, k=2.0)
        a = tm.simulate_toy_returns(p, 1000, seed=123, market_vol=0.1)
        b = tm.simulate_toy_returns(p, 1000, seed=123, market_vol=0.1)
        assert np.array_equal(a.r_long, b.r_long)
        assert np.array_equal(a.r_short, b.r_short)
        assert np.array_equal(a.market, b.market)


class TestUniverse:
    def test_two_assets_match_toy_layout(self):
        spec = tm.SyntheticUniverseSpec(
            n_assets=2, n_periods=300, seed=5, loading_short_scale=0.7,
            resid_vol_long=0.01, resid_vol_short=0.02,
            factor_mean=1e-3, factor_vol=0.02, market_mean=0.0, market_vol=0.01,
        )
        panel, truth = tm.generate_universe(spec)
        ret = panel.field("ret")
        e1 = ret[:, 0] - truth.market - truth.factor
        e2 = ret[:, 1] - truth.market + 0.7 * truth.factor
        assert np.std(e1) == pytest.approx(0.01, rel=0.2)
        assert np.std(e2) == pytest.approx(0.02, rel=0.2)

    def test_regression_recovers_loadings(self, small_universe):
        spec, panel, truth = small_universe
        ret = panel.field("ret")
        design = np.column_stack([np.ones(spec.n_periods), truth.market,
                                  truth.factor])
        coef, *_ = np.linalg.lstsq(design, ret, rcond=None)
        resid = ret - design @ coef
        dof = spec.n_periods - 3
        sigma2 = np.sum(resid ** 2, axis=0) / dof
        xtx_inv = np.linalg.inv(design.T @ design)
        se_loading = np.sqrt(sigma2 * xtx_inv[2, 2])
        z_loading = np.abs(coef[2] - truth.loadings) / se_loading
        # 3 SE per asset, with a family-wise allowance across 40 assets
        assert np.mean(z_loading > 3) <= 0.05
        assert np.max(z_loading) < 5
        se_beta = np.sqrt(sigma2 * xtx_inv[1, 1])
        z_beta = np.abs(coef[1] - 1.0) / se_beta
        assert np.mean(z_beta > 3) <= 0.05
        assert np.max(z_beta) < 5

    def test_deterministic_per_seed(self, small_universe):
        spec, panel, _ = small_universe
        panel2, _ = tm.generate_universe(spec)
        assert np.array_equal(panel.field("ret"), panel2.field("ret"))

    def test_spread_preserves_means(self):
        spec = tm.SyntheticUniverseSpec(
            n_assets=100, n_periods=10, seed=1, loading_short_scale=0.8,
            loading_spread=1.0,
        )
        _, truth = tm.generate_universe(spec)
        assert np.mean(truth.loadings[:50]) == pytest.approx(1.0, rel=1e-12)
        assert np.mean(truth.loadings[50:]) == pytest.approx(-0.8, rel=1e-12)

    def test_invalid_specs_rejected(self):
        with pytest.raises(ValueError):
            tm.SyntheticUniverseSpec(n_assets=3, n_periods=10, seed=0)
        with pytest.raises(ValueError):
            tm.SyntheticUniverseSpec(n_assets=4, n_periods=10, seed=0,
                                     resid_vol_long=-1.0)


class TestBookPrediction:
    def test_two_asset_book_matches_toy_ratio(self):
        p = params(a=0.8, g=1.0, k=1.0)
        assert tm.book_sr_ratio_prediction(p, 2) == pytest.approx(tm.sr_ratio(p))

    def test_diversification_shrinks_the_edge(self):
        p = params(a=0.8, g=1.0, k=1.0)
        r2 = tm.book_sr_ratio_prediction(p, 2)
        r200 = tm.book_sr_ratio_prediction(p, 200)
        assert 1.0 < r200 < r2

    def test_band_simulation_centers_on_prediction(self):
        p = params(a=0.8, g=1.0, k=1.0)
        ratios = tm.simulate_book_sr_ratios(p, n_assets=50, n_periods=2000,
                                            n_reps=200, seed=9)
        predicted = tm.book_sr_ratio_prediction(p, 50)
        assert np.percentile(ratios, 2.5) < predicted < np.percentile(ratios, 97.5)
