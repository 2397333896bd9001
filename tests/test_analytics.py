import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, strategies as st
from hypothesis.extra.numpy import arrays

from factorlab import analytics, costs, portfolio as pf, signals, toy_model as tm


class TestSharpe:
    def test_zero_mean_noise_near_zero(self):
        rng = np.random.Generator(np.random.Philox(1))
        pnl = rng.standard_normal(5000)
        sr = analytics.sharpe(pnl, base=1.0, periods_per_year=252)
        se = math.sqrt(252.0 / 5000)
        assert abs(sr) < 3 * se

    def test_alternating_exactly_zero(self):
        pnl = np.array([1.0, -1.0] * 50)
        assert analytics.sharpe(pnl, base=1.0) == 0.0

    def test_zero_variance_undefined(self):
        assert analytics.sharpe(np.ones(10), base=1.0) is None

    def test_matches_toy_closed_form(self):
        p = tm.ToyModelParams(0.01, 1e-4, short_loading=0.8,
                              resid_var_ratio=1.0, short_resid_var_ratio=1.0)
        n = 200_000
        s = tm.simulate_toy_returns(p, n, seed=3)
        pnl = tm.LONG_SHORT.pnl(s)
        sr = analytics.sharpe(pnl, base=1.0, periods_per_year=1)
        closed = tm.sr_long_short(p)
        assert abs(sr - closed) < 3 * tm.sharpe_standard_error(closed, n)

    def test_scale_invariance(self):
        rng = np.random.Generator(np.random.Philox(2))
        pnl = rng.standard_normal(500) + 0.1
        a = analytics.sharpe(pnl, base=1.0)
        b = analytics.sharpe(1e6 * pnl, base=1e6)
        assert a == pytest.approx(b, rel=1e-12)

    def test_too_short_rejected(self):
        with pytest.raises(analytics.AnalyticsError):
            analytics.sharpe(np.array([1.0]), base=1.0)


class TestDrawdowns:
    def test_monotone_curve_all_zero(self):
        dd, depth = analytics.drawdown_stats(np.arange(10.0), aum=100.0)
        assert np.all(dd == 0.0)
        assert depth == 0.0

    def test_worked_example(self):
        dd, depth = analytics.drawdown_stats(np.array([0.0, 10.0, 5.0]), 100.0)
        assert dd.tolist() == [0.0, 0.0, -0.05]
        assert depth == pytest.approx(-0.05 / 3)

    @given(arrays(float, st.integers(1, 60),
                  elements=st.floats(-100, 100)))
    def test_matches_brute_force(self, curve):
        dd, depth = analytics.drawdown_stats(curve, aum=50.0)
        peak = -np.inf
        for i, v in enumerate(curve):
            peak = max(peak, v)
            assert dd[i] == pytest.approx((v - peak) / 50.0)
            assert dd[i] <= 0.0
        assert depth == pytest.approx(np.mean(dd))

    def test_nonfinite_rejected(self):
        with pytest.raises(analytics.AnalyticsError):
            analytics.drawdown_stats(np.array([1.0, np.nan]), 1.0)


class TestCorrelationSummary:
    def test_identical_streams(self):
        rng = np.random.Generator(np.random.Philox(3))
        x = rng.standard_normal(100)
        got = analytics.mean_pairwise_correlation(np.column_stack([x, x, x]))
        assert got == pytest.approx(1.0)

    def test_independent_streams_near_zero(self):
        rng = np.random.Generator(np.random.Philox(4))
        got = analytics.mean_pairwise_correlation(rng.standard_normal((4000, 4)))
        assert abs(got) < 0.05

    def test_constant_stream_pairs_dropped(self):
        rng = np.random.Generator(np.random.Philox(5))
        x = rng.standard_normal(50)
        streams = np.column_stack([x, x, np.full(50, 3.0)])
        assert analytics.mean_pairwise_correlation(streams) == pytest.approx(1.0)

    def test_all_degenerate_rejected(self):
        with pytest.raises(analytics.AnalyticsError):
            analytics.mean_pairwise_correlation(np.ones((50, 2)))


class TestMaxSharpe:
    def test_symmetric_pair_splits_evenly(self):
        rng = np.random.Generator(np.random.Philox(6))
        a = 0.001 + 0.01 * rng.standard_normal(20000)
        b = 0.001 + 0.01 * rng.standard_normal(20000)
        w = analytics.max_sharpe_weights(np.column_stack([a, b]))
        assert w == pytest.approx([0.5, 0.5], abs=0.05)

    def test_identity_covariance_weights_follow_means(self):
        rng = np.random.Generator(np.random.Philox(7))
        t = 400_000
        mus = np.array([0.1, 0.2, 0.4])
        x = mus[None, :] + rng.standard_normal((t, 3))
        w = analytics.max_sharpe_weights(x)
        assert w == pytest.approx(mus / mus.sum(), abs=0.02)

    def test_long_only_eliminates_negative(self):
        rng = np.random.Generator(np.random.Philox(8))
        t = 50_000
        good = 0.02 + 0.01 * rng.standard_normal(t)
        bad = -0.02 + 0.01 * rng.standard_normal(t)
        w = analytics.max_sharpe_weights(np.column_stack([good, bad]),
                                         long_only=True)
        assert w[1] == 0.0
        assert w[0] == pytest.approx(1.0)

    def test_mean_rescaling_invariance(self):
        rng = np.random.Generator(np.random.Philox(9))
        x = 0.01 * rng.standard_normal((1000, 3)) + np.array([0.01, 0.02, 0.03])
        w1 = analytics.max_sharpe_weights(x)
        w2 = analytics.max_sharpe_weights(3.0 * x)
        assert w1 == pytest.approx(w2, rel=1e-9)

    def test_duplicated_stream_keeps_group_weights(self):
        rng = np.random.Generator(np.random.Philox(10))
        t = 2000
        a = 0.01 + 0.02 * rng.standard_normal(t)
        b = 0.02 + 0.03 * rng.standard_normal(t)
        base = analytics.max_sharpe_allocation(
            np.column_stack([a, b]), long_mask=[True, False])
        jitter = 1e-5 * rng.standard_normal(t)  # break exact singularity
        split = analytics.max_sharpe_allocation(
            np.column_stack([a, a + jitter, b]),
            long_mask=[True, True, False])
        assert split.long_weight == pytest.approx(base.long_weight, abs=1e-3)
        assert split.short_weight == pytest.approx(base.short_weight, abs=1e-3)

    def test_singular_covariance_suggests_cleaning(self):
        x = np.random.default_rng(0).standard_normal((50, 2))
        dup = np.column_stack([x[:, 0], x[:, 0], x[:, 1]])
        with pytest.raises(analytics.AnalyticsError, match="clean"):
            analytics.max_sharpe_weights(dup)


class TestHedging:
    def test_rescaled_leg_has_unit_beta(self):
        rng = np.random.Generator(np.random.Philox(11))
        idx = 0.01 * rng.standard_normal(600)
        leg = 0.5 * idx + 0.005 * rng.standard_normal(600)
        scaled = analytics.rescale_to_unit_beta(leg, idx)
        assert analytics.estimate_series_beta(scaled, idx) == pytest.approx(1.0)

    def test_hedged_leg_beta_zero(self):
        rng = np.random.Generator(np.random.Philox(12))
        idx = 0.01 * rng.standard_normal(600)
        leg = 2.0 * idx + 0.005 * rng.standard_normal(600)
        hedged = analytics.rescale_to_unit_beta(leg, idx) - idx
        assert abs(analytics.estimate_series_beta(hedged, idx)) < 1e-10

    def test_non_positive_beta_rejected(self):
        rng = np.random.Generator(np.random.Philox(13))
        idx = 0.01 * rng.standard_normal(600)
        with pytest.raises(analytics.AnalyticsError):
            analytics.rescale_to_unit_beta(-idx, idx)


class TestSmbDiagnostic:
    def test_degenerate_delta_masked(self):
        rng = np.random.Generator(np.random.Philox(14))
        longs = 0.01 * rng.standard_normal(200)
        shorts = 0.01 * rng.standard_normal(200)
        index = 0.5 * (longs + shorts)
        smb = rng.standard_normal(200)
        got = analytics.smb_diagnostic(longs, shorts, index, smb)
        assert np.isnan(got)

    def test_equal_vs_cap_weight_construction(self):
        # legs built from an equal-weight universe, hedged with a cap-weight
        # index: the leftover spread is the size spread by construction
        rng = np.random.Generator(np.random.Philox(15))
        t = 1200
        small = 0.01 * rng.standard_normal(t) + 0.002
        big = 0.01 * rng.standard_normal(t) + 0.001
        longs = 0.5 * (small + big) + 0.003 * rng.standard_normal(t)
        shorts = 0.5 * (small + big) + 0.003 * rng.standard_normal(t)
        index = 0.9 * big + 0.1 * small  # cap-weighted: big dominates
        size_spread = small - big
        got = analytics.smb_diagnostic(longs, shorts, index, size_spread)
        assert got > 0.5


class TestCostAttribution:
    def run_ls(self, small_universe, params):
        _, panel, truth = small_universe
        sig = signals.smooth_ema(signals.factor_signal(panel, None, "MOM"), 150)
        cfg = pf.StrategyConfig(mode="LS", aum=1e9, cap=0.06, vol_target=0.05)
        return pf.run_backtest(panel, sig, cfg, params,
                               start=panel.dates[300])

    def test_zero_cost_rows_vanish(self, small_universe):
        res = self.run_ls(small_universe, costs.ZERO_COSTS)
        summary = analytics.cost_attribution(res)
        assert summary.trading_cost == 0.0
        assert summary.financing_cost == 0.0
        assert summary.borrow_cost == 0.0

    def test_components_sum_to_total(self, small_universe):
        res = self.run_ls(small_universe, costs.CostModelParams())
        s = analytics.cost_attribution(res)
        total = s.returns_and_divs + s.trading_cost + s.financing_cost + s.borrow_cost
        assert total == pytest.approx(s.ann_return, rel=1e-10)

    def test_borrow_matches_brute_force(self, small_universe):
        params = costs.CostModelParams()
        res = self.run_ls(small_universe, params)
        fee = params.default_borrow_fee
        expected = np.array([
            fee * np.sum(np.abs(np.minimum(row, 0.0))) / params.trading_days_per_year
            for row in res.positions
        ])
        assert np.allclose(-res.borrow_cost, expected, rtol=1e-12)

    def test_dict_round_trip_keys(self, small_universe):
        res = self.run_ls(small_universe, costs.CostModelParams())
        d = dataclasses.asdict(analytics.cost_attribution(res))
        assert set(d) == {
            "sharpe", "ann_return", "ann_vol", "mean_drawdown",
            "returns_and_divs", "trading_cost", "financing_cost",
            "borrow_cost", "mean_daily_turnover_aum",
            "mean_daily_turnover_gmv", "mean_gross_leverage",
        }
