import itertools
import math

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from factorlab import analytics, costs, data, portfolio as pf, signals, toy_model as tm

AUM = 1e9


@pytest.fixture(scope="module")
def mom_signals(small_universe):
    _, panel, _ = small_universe
    raw = signals.factor_signal(panel, None, "MOM").scores
    return raw, signals.smooth_ema(raw, 150)


def windowed_ols_betas(returns, index, min_obs):
    """OLS slope of each column on the index over the rows where both are
    present, by least squares with an intercept; NaN below min_obs rows."""
    out = np.full(returns.shape[1], np.nan)
    for j in range(returns.shape[1]):
        ok = np.isfinite(returns[:, j]) & np.isfinite(index)
        if np.sum(ok) >= min_obs:
            design = np.column_stack([np.ones(np.sum(ok)), index[ok]])
            out[j] = np.linalg.lstsq(design, returns[ok, j], rcond=None)[0][1]
    return out


class TestBetas:
    def test_exact_multiple(self):
        rng = np.random.Generator(np.random.Philox(0))
        idx = rng.standard_normal(300) * 0.01
        assert analytics.estimate_series_beta(2.0 * idx, idx) == pytest.approx(2.0)

    def test_independent_near_zero(self):
        rng = np.random.Generator(np.random.Philox(1))
        idx = rng.standard_normal(2000) * 0.01
        y = rng.standard_normal(2000) * 0.02
        beta = analytics.estimate_series_beta(y, idx)
        se = (0.02 / 0.01) / np.sqrt(2000)
        assert abs(beta) < 3 * se

    def test_insufficient_overlap_masked(self):
        rng = np.random.Generator(np.random.Philox(4))
        idx = rng.standard_normal(10) * 0.01
        y = np.full(10, np.nan)
        y[:3] = 0.01
        betas = pf.rolling_betas(y[:, None], idx, window=10)
        assert np.all(np.isnan(betas))
        y[2] = np.nan
        with pytest.raises(analytics.AnalyticsError, match="overlap"):
            analytics.estimate_series_beta(y, idx)

    def test_rolling_matches_windowed(self, small_universe):
        _, panel, truth = small_universe
        ret = panel.field("ret")
        betas = pf.rolling_betas(ret, truth.market, window=250)
        for t in (260, 400, 700):
            expected = windowed_ols_betas(ret[t - 249: t + 1],
                                          truth.market[t - 249: t + 1], 125)
            assert np.allclose(betas[t], expected, equal_nan=True)

    def test_recovers_unit_loading(self, small_universe):
        _, panel, truth = small_universe
        betas = pf.rolling_betas(panel.field("ret"), truth.market, window=250)
        last = betas[-1]
        assert np.nanmean(last) == pytest.approx(1.0, abs=0.05)

    def test_rolling_windows_match_per_date_loop(self):
        rng = np.random.Generator(np.random.Philox(2))
        ret = 0.01 * rng.standard_normal((300, 7))
        ret[rng.uniform(size=ret.shape) < 0.2] = np.nan
        ret[:40, 3] = np.nan
        index = 0.01 * rng.standard_normal(300)
        index[[5, 77, 150]] = np.nan
        window, min_obs = 60, 30
        valid = np.isfinite(ret) & np.isfinite(index)[:, None]
        x = np.where(valid, index[:, None], 0.0)
        y = np.where(valid, ret, 0.0)
        z = np.where(np.isfinite(ret), ret, 0.0)

        def cum(a):
            return np.vstack([np.zeros((1, 7)), np.cumsum(a, axis=0)])

        cn, cx, cy, cxx, cxy = (cum(a) for a in (valid.astype(float), x, y,
                                                 x * x, x * y))
        cv, cz, czz = (cum(a) for a in (np.isfinite(ret).astype(float), z, z * z))
        betas = np.full(ret.shape, np.nan)
        vols = np.full(ret.shape, np.nan)
        with np.errstate(invalid="ignore", divide="ignore"):
            for t in range(300):
                lo = max(0, t - window + 1)
                cnt = cn[t + 1] - cn[lo]
                sx, sy = cx[t + 1] - cx[lo], cy[t + 1] - cy[lo]
                sxx, sxy = cxx[t + 1] - cxx[lo], cxy[t + 1] - cxy[lo]
                denom = sxx - sx * sx / np.maximum(cnt, 1)
                ok = (cnt >= min_obs) & (denom > 0)
                betas[t, ok] = (sxy[ok] - sx[ok] * sy[ok] / cnt[ok]) / denom[ok]
                cnt = cv[t + 1] - cv[lo]
                s, ss = cz[t + 1] - cz[lo], czz[t + 1] - czz[lo]
                var = (ss - s * s / np.maximum(cnt, 1)) / np.maximum(cnt - 1, 1)
                ok = cnt >= 20
                vols[t, ok] = np.sqrt(np.maximum(var[ok], 0.0))
        assert np.array_equal(pf.rolling_betas(ret, index, window),
                              betas, equal_nan=True)
        assert np.array_equal(pf.rolling_vols(ret, window), vols, equal_nan=True)

    def test_constant_index_gives_no_beta(self):
        # a constant index has no variance to regress on; the differenced
        # moments leave only rounding noise, which must not become a beta
        rng = np.random.Generator(np.random.Philox(3))
        ret = 0.01 * rng.standard_normal((400, 6))
        index = np.full(400, 3e-4)
        assert np.all(np.isnan(pf.rolling_betas(ret, index, window=250)))
        with pytest.raises(analytics.AnalyticsError, match="constant"):
            analytics.estimate_series_beta(ret[-240:, 0], np.full(240, 0.0123))


class TestCleanCorrelation:
    def test_iid_noise_becomes_identity(self):
        rng = np.random.Generator(np.random.Philox(5))
        x = 0.01 * rng.standard_normal((2000, 20))
        c = pf.clean_correlation(x)
        off = c.corr - np.eye(20)
        assert np.max(np.abs(off)) < 0.05
        assert c.n_clipped >= 19

    def test_strong_factor_mode_preserved(self):
        rng = np.random.Generator(np.random.Philox(6))
        f = 0.01 * rng.standard_normal(1000)
        x = np.outer(f, np.ones(30)) + 0.005 * rng.standard_normal((1000, 30))
        raw = np.corrcoef(x.T)
        ev, evec = np.linalg.eigh(raw)
        c = pf.clean_correlation(x)
        assert c.leading_eigenvalue == pytest.approx(ev[-1], rel=0.02)
        assert abs(evec[:, -1] @ c.leading_eigenvector) > 0.99

    def test_single_asset_trivial(self):
        rng = np.random.Generator(np.random.Philox(7))
        c = pf.clean_correlation(rng.standard_normal((100, 1)))
        assert c.corr.tolist() == [[1.0]]

    def test_constant_series_named(self):
        rng = np.random.Generator(np.random.Philox(8))
        x = rng.standard_normal((100, 3))
        x[:, 1] = 0.42
        with pytest.raises(pf.PortfolioError, match="column 11"):
            pf.clean_correlation(x, asset_indices=np.array([10, 11, 12]))

    def test_short_window_rejected(self):
        with pytest.raises(pf.PortfolioError, match="60"):
            pf.clean_correlation(np.random.default_rng(0).standard_normal((30, 3)))

    def test_psd_and_unit_diagonal(self):
        rng = np.random.Generator(np.random.Philox(9))
        x = rng.standard_normal((120, 40))
        c = pf.clean_correlation(x)
        assert np.allclose(np.diag(c.corr), 1.0)
        assert np.min(np.linalg.eigvalsh(c.corr)) > -1e-10


def project_capped_simplex(x, cap, budget):
    """Euclidean projection onto {0 <= w <= cap, sum(w) <= budget}: the
    "do not trade" reference book of the optimizer tests."""
    w = np.clip(x, 0.0, cap)
    if np.sum(w) <= budget:
        return w
    lo, hi = 0.0, float(np.max(x))
    for _ in range(100):
        mid = 0.5 * (lo + hi)
        if np.sum(np.clip(x - mid, 0.0, cap)) > budget:
            lo = mid
        else:
            hi = mid
    return np.clip(x - hi, 0.0, cap)


class TestProjection:
    def test_feasible_point_unchanged(self):
        w = np.array([1.0, 2.0, 3.0])
        got = project_capped_simplex(w, 5.0, 10.0)
        assert np.allclose(got, w)

    def test_projection_feasible_and_idempotent(self):
        rng = np.random.Generator(np.random.Philox(10))
        for _ in range(20):
            x = rng.uniform(-2, 10, size=8)
            cap, budget = 3.0, 12.0
            w = project_capped_simplex(x, cap, budget)
            assert np.all(w >= 0) and np.all(w <= cap + 1e-9)
            assert np.sum(w) <= budget + 1e-6
            again = project_capped_simplex(w, cap, budget)
            assert np.allclose(again, w, atol=1e-6)


def grid_best_objective(scores, prev, kv, lin, aum, cap, steps, floor=0.0):
    axes = [
        np.unique(np.concatenate([np.linspace(0.0, cap * aum, steps),
                                  [min(prev[i], cap * aum)]]))
        for i in range(len(scores))
    ]
    mesh = np.meshgrid(*axes, indexing="ij")
    grid = np.stack([m.ravel() for m in mesh], axis=1)
    total = np.sum(grid, axis=1)
    grid = grid[(total <= aum + 1e-6) & (total >= floor - 1e-6)]
    d = np.abs(grid - prev)
    obj = grid @ scores - lin * np.sum(d, axis=1) - (d ** 1.5) @ kv
    return float(np.max(obj))


def objective_of(w, scores, prev, kv, lin):
    d = np.abs(w - prev)
    return float(w @ scores - lin * np.sum(d) - (d ** 1.5) @ kv)


class TestLongOnlyOptimizer:
    def test_zero_cost_greedy_fill(self):
        n = 50
        scores = np.linspace(1.0, 0.02, n)  # all positive, descending
        w = pf.optimize_long_only(scores, np.zeros(n), np.full(n, 1e7),
                                  np.full(n, 0.02), AUM, costs.ZERO_COSTS,
                                  cap=0.03)
        assert np.allclose(w[:33], 0.03 * AUM)
        assert w[33] == pytest.approx(0.01 * AUM)
        assert np.all(w[34:] == 0.0)
        assert np.sum(w) == pytest.approx(AUM)

    def test_zero_cost_greedy_skips_negative_scores(self):
        scores = np.array([0.5, 0.1, -0.2, -0.4])
        w = pf.optimize_long_only(scores, np.zeros(4), np.full(4, 1e7),
                                  np.full(4, 0.02), AUM, costs.ZERO_COSTS,
                                  cap=0.3)
        assert np.allclose(w, [0.3 * AUM, 0.3 * AUM, 0.0, 0.0])

    def test_zero_cost_floor_met_exactly(self):
        # nothing scores above zero: the book buys the least bad assets up
        # to the floor and no further
        scores = np.array([-0.1, -0.2, -0.3, -0.4])
        w = pf.optimize_long_only(scores, np.zeros(4), np.full(4, 1e7),
                                  np.full(4, 0.02), AUM, costs.ZERO_COSTS,
                                  cap=0.3, min_invested=0.5)
        assert np.allclose(w, [0.3 * AUM, 0.2 * AUM, 0.0, 0.0])

    def test_zero_signal_nonzero_costs_no_trade(self):
        n = 10
        prev = np.full(n, 0.01 * AUM)
        w = pf.optimize_long_only(np.zeros(n), prev, np.full(n, 1e7),
                                  np.full(n, 0.02), AUM,
                                  costs.CostModelParams(), cap=0.03)
        assert np.array_equal(w, prev)

    def test_matches_exhaustive_grid(self):
        rng = np.random.Generator(np.random.Philox(77))
        full = costs.CostModelParams(linear_rate=5e-4, impact_coeff=1.0)
        linear_only = costs.CostModelParams(linear_rate=5e-3, impact_coeff=0.0)
        # (costs, cap, share of zero-vol assets, previous book up to x cap,
        #  minimum investment); at cap 0.4 the budget can bind
        cases = (
            (full, 0.25, 0.0, 1.0, 0.0),
            (linear_only, 0.4, 0.0, 1.0, 0.0),
            (full, 0.4, 0.5, 1.0, 0.0),
            (full, 0.4, 0.0, 1.6, 0.0),
            (full, 0.25, 0.3, 1.0, 0.55),
        )
        for params, cap, zero_vol, drift, min_inv in cases:
            for n, steps in ((2, 400), (3, 80), (4, 24)):
                for _ in range(3):
                    scores = rng.uniform(-0.4, 0.5, n)
                    prev = rng.uniform(0, drift * cap * AUM, n)
                    if prev.sum() > AUM:
                        prev *= 0.9 * AUM / prev.sum()
                    adv = rng.uniform(5e5, 5e6, n)
                    sigma = rng.uniform(0.01, 0.05, n)
                    sigma[rng.uniform(size=n) < zero_vol] = 0.0
                    floor = min(min_inv, cap * n)
                    w = pf.optimize_long_only(scores, prev, adv, sigma, AUM,
                                              params, cap=cap,
                                              min_invested=floor)
                    kv = params.impact_coeff * sigma / np.sqrt(adv)
                    lin = params.linear_rate
                    floor *= AUM
                    assert np.all(w >= 0) and np.all(w <= cap * AUM)
                    assert floor - 1e-9 * AUM <= np.sum(w) <= AUM * (1 + 1e-12)
                    best = grid_best_objective(scores, prev, kv, lin, AUM,
                                               cap, steps, floor)
                    got = objective_of(w, scores, prev, kv, lin)
                    assert got >= best - 1e-6 * AUM

    @given(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(1, 40),
           cap=st.floats(0.01, 0.5), linear_rate=st.sampled_from([0.0, 5e-4, 1e-2]),
           impact=st.sampled_from([0.0, 1.0]), zero_vol=st.sampled_from([0.0, 0.3]),
           min_invested=st.sampled_from([0.0, 0.4, 0.95]))
    @example(seed=3, n=3, cap=0.5, linear_rate=0.0, impact=0.0, zero_vol=0.0,
             min_invested=0.95)
    @example(seed=418, n=25, cap=0.010000000000000002, linear_rate=5e-4, impact=0.0,
             zero_vol=0.0, min_invested=0.4)
    def test_kkt_conditions(self, seed, n, cap, linear_rate, impact, zero_vol,
                            min_invested):
        """The book is optimal: one price lam on the total supports every
        asset, and lam is positive only when the budget binds (negative only
        when the floor binds)."""
        params = costs.CostModelParams(linear_rate=linear_rate,
                                       impact_coeff=impact)
        rng = np.random.Generator(np.random.Philox(seed))
        u = cap * AUM
        scores = rng.uniform(-0.5, 0.5, n) * rng.choice([1.0, 1e-3])
        prev = rng.uniform(0, 1.5 * u, n) * (rng.uniform(size=n) < 0.7)
        if prev.sum() > AUM:
            prev *= 0.9 * AUM / prev.sum()
        adv = rng.uniform(1e5, 1e9, n)
        sigma = rng.uniform(0.005, 0.05, n)
        sigma[rng.uniform(size=n) < zero_vol] = 0.0
        floor = min(min_invested, cap * n) * AUM
        w = pf.optimize_long_only(scores, prev, adv, sigma, AUM, params,
                                  cap=cap, min_invested=min(min_invested, cap * n))
        assert np.all(w >= 0) and np.all(w <= u)
        total = float(np.sum(w))
        assert floor * (1 - 1e-12) <= total <= AUM * (1 + 1e-12)
        lin, k = linear_rate, impact * sigma / np.sqrt(adv)

        def slope(x, right):
            # one-sided derivative of s*x - lin*|x - p| - k*|x - p|^1.5
            buy = scores - lin - 1.5 * k * np.sqrt(np.maximum(x - prev, 0.0))
            sell = scores + lin + 1.5 * k * np.sqrt(np.maximum(prev - x, 0.0))
            return np.where(x > prev, buy, np.where(x < prev, sell,
                                                     buy if right else sell))

        # w is known to a few ulps of AUM; judge it within eps of where it is
        eps = 1e-12 * AUM
        lam_lo = np.max(slope(w + eps, True)[w < u], initial=-np.inf)
        lam_hi = np.min(slope(w - eps, False)[w > 0], initial=np.inf)
        tol = 1e-9 * (np.max(np.abs(scores)) + lin + 1e-3)
        assert lam_lo <= lam_hi + tol
        if AUM - total > eps:
            assert lam_lo <= tol
        if total - floor > eps:
            assert lam_hi >= -tol

    def test_budget_met_with_a_nearly_free_asset(self):
        # ~30 assets want the 6% cap, so the budget binds; asset 0 is so
        # cheap to trade that one rounding of the budget price moves it by
        # more than 1e-13 * AUM
        for seed in range(40):
            rng = np.random.Generator(np.random.Philox(seed))
            scores = rng.uniform(-0.5, 0.5, 60)
            prev = rng.uniform(0, 0.06 * AUM, 60)
            sigma = rng.uniform(0.01, 0.03, 60)
            sigma[0] = 1e-9
            w = pf.optimize_long_only(scores, prev, rng.uniform(1e6, 1e8, 60),
                                      sigma, AUM, costs.CostModelParams(),
                                      cap=0.06)
            assert abs(np.sum(w) - AUM) <= 1e-13 * AUM

    def test_monotone_improvement_over_no_trade(self):
        rng = np.random.Generator(np.random.Philox(78))
        params = costs.CostModelParams()
        for _ in range(10):
            n = int(rng.integers(3, 30))
            scores = rng.uniform(-0.5, 0.5, n)
            prev = rng.uniform(0, 0.05 * AUM, n)
            adv = rng.uniform(1e6, 1e8, n)
            sigma = rng.uniform(0.005, 0.05, n)
            w = pf.optimize_long_only(scores, prev, adv, sigma, AUM, params)
            kv = sigma / np.sqrt(adv)
            start = project_capped_simplex(prev, 0.03 * AUM, AUM)
            assert objective_of(w, scores, prev, kv, params.linear_rate) >= \
                objective_of(start, scores, prev, kv, params.linear_rate) - 1e-9 * AUM

    def test_feasibility_random_instances(self):
        rng = np.random.Generator(np.random.Philox(79))
        params = costs.CostModelParams()
        for _ in range(100):
            n = int(rng.integers(2, 25))
            cap = float(rng.uniform(0.02, 0.3))
            scores = rng.uniform(-0.5, 0.5, n)
            prev = rng.uniform(0, cap * AUM, n)
            adv = rng.uniform(1e5, 1e9, n)
            sigma = rng.uniform(0.005, 0.08, n)
            w = pf.optimize_long_only(scores, prev, adv, sigma, AUM, params,
                                      cap=cap)
            assert np.all(w >= -1e-9 * AUM)
            assert np.all(w <= cap * AUM * (1 + 1e-9))
            assert np.sum(w) <= AUM * (1 + 1e-9)

    def test_frozen_asset_without_liquidity_data(self):
        scores = np.array([0.5, 0.4])
        prev = np.array([0.0, 0.02 * AUM])
        adv = np.array([1e7, np.nan])
        sigma = np.array([0.02, 0.02])
        w = pf.optimize_long_only(scores, prev, adv, sigma, AUM,
                                  costs.CostModelParams(), cap=0.03)
        assert w[1] == prev[1]
        assert w[0] > 0

    def test_floor_never_buys_an_unscored_asset(self):
        """A missing score means hold, never buy: a binding floor leaves out
        an unscored asset with no position, does not add to an unscored held
        one, and shrinks to what the eligible assets' caps hold."""
        scores = np.array([0.3, -0.2, np.nan, np.nan])
        prev = np.array([0.0, 0.0, 0.0, 0.1 * AUM])
        w = pf.optimize_long_only(scores, prev, np.full(4, 1e7), np.full(4, 0.02),
                                  AUM, costs.ZERO_COSTS, cap=0.3, min_invested=1.0)
        assert np.allclose(w, np.array([0.3, 0.3, 0.0, 0.1]) * AUM, rtol=0,
                           atol=1e-6)

    def test_infeasible_min_investment(self):
        with pytest.raises(pf.InfeasibleConstraints):
            pf.optimize_long_only(np.array([0.1, 0.2]), np.zeros(2),
                                  np.full(2, 1e7), np.full(2, 0.02), AUM,
                                  costs.CostModelParams(), cap=0.03,
                                  min_invested=0.5)

    @pytest.mark.parametrize("floor", [2.0, -0.1, float("nan")])
    def test_min_invested_outside_unit_interval_rejected(self, floor):
        with pytest.raises(pf.PortfolioError, match="min_invested"):
            pf.optimize_long_only(np.array([0.1, 0.2]), np.zeros(2),
                                  np.full(2, 1e7), np.full(2, 0.02), AUM,
                                  costs.CostModelParams(), cap=0.6,
                                  min_invested=floor)
        with pytest.raises(pf.PortfolioError, match="min_invested"):
            pf.StrategyConfig(mode="LH", min_invested=floor)

    @pytest.mark.parametrize("field, value, message", [
        ("beta_window", 1, "beta_window must be at least 2, got 1"),
        ("cov_window", 59, "cov_window must be at least 60, got 59"),
        ("vol_window", 19, "vol_window must be at least 20, got 19"),
        ("aum", 0.0, "aum must be positive and finite, got 0.0"),
        ("aum", float("nan"), "aum must be positive and finite, got nan"),
        ("aum", float("inf"), "aum must be positive and finite, got inf"),
        ("cap", 0.0, "cap must be in (0, 1], got 0.0"),
        ("cap", 1.5, "cap must be in (0, 1], got 1.5"),
        ("vol_target", -0.05, "vol_target must be positive and finite, got -0.05"),
    ])
    def test_strategy_config_rejects_what_no_backtest_runs_with(self, field, value,
                                                                message):
        for mode in ("LH", "LS"):
            with pytest.raises(pf.PortfolioError) as info:
                pf.StrategyConfig(mode=mode, **{field: value})
            assert str(info.value) == message
        # the least value of each window still builds
        pf.StrategyConfig(mode="LH", beta_window=2, cov_window=60, vol_window=20,
                          cap=1.0)

    @pytest.mark.parametrize("aversion", [-1.0, float("nan"), float("inf")])
    def test_cost_aversion_negative_or_not_finite_rejected(self, aversion):
        with pytest.raises(pf.PortfolioError,
                           match=f"cost_aversion .*got {aversion!r}"):
            pf.optimize_long_only(np.array([0.01, -0.01]),
                                  np.array([0.01 * AUM, 0.0]),
                                  np.full(2, 1e7), np.full(2, 0.02), AUM,
                                  costs.CostModelParams(), cap=0.03,
                                  cost_aversion=aversion)
        with pytest.raises(pf.PortfolioError, match="cost_aversion"):
            pf.StrategyConfig(mode="LS", cost_aversion=aversion)


class TestLongShortBook:
    def fixed_cleaned(self, n=20, rho=0.3, vol=0.01, seed=30):
        rng = np.random.Generator(np.random.Philox(seed))
        f = rng.standard_normal(300)
        x = vol * (np.sqrt(rho) * f[:, None] + np.sqrt(1 - rho)
                   * rng.standard_normal((300, n)))
        return pf.clean_correlation(x)

    def test_two_asset_symmetry(self):
        # a shared market mode makes the leading eigenvector the (1,1) one
        rng = np.random.Generator(np.random.Philox(31))
        f = rng.standard_normal(300)
        x = 0.01 * (0.8 * f[:, None] + 0.6 * rng.standard_normal((300, 2)))
        cleaned = pf.clean_correlation(x)
        scores = np.array([0.25, -0.25])
        w, vol, warn = pf.build_long_short(scores, cleaned, 0.05, AUM, cap=0.5)
        assert not warn
        assert w[0] == pytest.approx(-w[1])
        assert w[0] > 0
        assert vol == pytest.approx(0.05, rel=1e-9)

    def test_vol_target_hit_exactly(self):
        cleaned = self.fixed_cleaned()
        rng = np.random.Generator(np.random.Philox(32))
        scores = rng.uniform(-0.5, 0.5, 20)
        w, vol, warn = pf.build_long_short(scores, cleaned, 0.04, AUM, cap=0.1)
        assert not warn
        assert vol == pytest.approx(0.04, rel=1e-9)

    def test_neutrality_residuals_tiny(self):
        cleaned = self.fixed_cleaned(seed=33)
        rng = np.random.Generator(np.random.Philox(34))
        scores = rng.uniform(-0.5, 0.5, 20)
        w, _, _ = pf.build_long_short(scores, cleaned, 0.07, AUM, cap=0.1)
        gmv = np.sum(np.abs(w))
        assert abs(np.sum(w)) < 1e-8 * gmv
        assert abs(cleaned.leading_eigenvector @ w[cleaned.asset_indices]) \
            < 1e-8 * gmv

    def test_unreachable_target_flags_warning(self):
        cleaned = self.fixed_cleaned(seed=35)
        rng = np.random.Generator(np.random.Philox(36))
        scores = rng.uniform(-0.5, 0.5, 20)
        w, vol, warn = pf.build_long_short(scores, cleaned, 2.0, AUM, cap=0.005)
        assert warn
        assert vol < 2.0
        assert np.max(np.abs(w)) <= 0.005 * AUM * (1 + 1e-9)

    def test_capped_book_on_target_not_flagged(self):
        """A cap binds and the target is within reach: the book meets the
        target and is not flagged."""
        cleaned = self.fixed_cleaned(seed=45)
        rng = np.random.Generator(np.random.Philox(145))
        scores = rng.uniform(-0.5, 0.5, 20)
        w, vol, warn = pf.build_long_short(scores, cleaned, 0.01, AUM, cap=0.02)
        assert not warn
        assert vol == pytest.approx(0.01, rel=1e-9)
        assert np.max(np.abs(w)) == pytest.approx(0.02 * AUM, rel=1e-9)
        gmv = np.sum(np.abs(w))
        assert abs(np.sum(w)) < 1e-9 * gmv
        assert abs(cleaned.leading_eigenvector @ w[cleaned.asset_indices]) < 1e-9 * gmv

    @pytest.mark.parametrize("c", [1.0, 1e3, 1e6])
    def test_signal_without_neutral_part_is_flat(self, c):
        """Scores c*v + 5 lie in the span of [1, v], so their neutral part is
        rounding: the book is flat and flagged, with no predicted vol. It is
        not the rounding scaled up until the caps bind."""
        cleaned = self.fixed_cleaned(n=30, seed=37)
        v = cleaned.leading_eigenvector
        w, vol, warn = pf.build_long_short(c * v + 5.0, cleaned, 0.05, AUM, cap=0.03)
        assert warn
        assert vol == 0.0
        assert np.all(w == 0.0)


def neutral_part(x, v):
    """x less its least-squares fit on [1, v]: its projection onto the
    books with sum(w) = v.w = 0."""
    b = np.column_stack([np.ones(len(x)), v])
    return x - b @ np.linalg.lstsq(b, x, rcond=None)[0]


def capped_projection_maps(x, v, u):
    """For every split of the assets into free, upper-capped and
    lower-capped whose neutrality equations have a solution, the affine map
    a -> a*alpha + beta that projects a*x onto that face of the capped
    neutral books."""
    n = len(x)
    b = np.stack([np.ones(n), v])
    maps = []
    for side in itertools.product((-1.0, 0.0, 1.0), repeat=n):
        side = np.array(side)
        free = side == 0
        need = -(b[:, ~free] @ (u * side[~free]))
        alpha, beta = np.zeros(n), u * side
        if np.any(free):
            bf = b[:, free].T
            alpha[free] = x[free] - bf @ (np.linalg.pinv(bf) @ x[free])
            beta[free] = np.linalg.pinv(bf.T) @ need
        if np.max(np.abs(b[:, free] @ beta[free] - need)) <= 1e-9 * u:
            maps.append((alpha, beta, free))
    return [np.array(m) for m in zip(*maps)]


def capped_projections(a, x, maps, u):
    """The projection of a*x onto the capped neutral books, for each a: of
    the faces' projections within the caps, the nearest to a*x."""
    alpha, beta, free = maps
    a = np.atleast_1d(np.asarray(a, dtype=float))
    w = a[:, None, None] * alpha + beta
    inside = np.all(~free | (np.abs(w) <= u * (1 + 1e-9)), axis=2)
    dist = np.where(inside, np.sum((w - a[:, None, None] * x) ** 2, axis=2), np.inf)
    return w[np.arange(len(a)), np.argmin(dist, axis=1)]


class TestCappedBook:
    @given(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(2, 6),
           tied=st.booleans(), flat_mode=st.booleans(), reach=st.floats(0.1, 50.0))
    @example(seed=1, n=2, tied=False, flat_mode=False, reach=0.5)
    @example(seed=2, n=5, tied=True, flat_mode=True, reach=1.5)
    @example(seed=3, n=6, tied=True, flat_mode=False, reach=2.0)
    def test_matches_brute_force_path(self, seed, n, tied, flat_mode, reach):
        """_capped_book against every face of the capped neutral books: the
        book is neutral, within its caps and the projection of a*x; it meets
        the target at the least a that does, and it is flagged (a = inf)
        only when no a on a fine grid reaches the target, and then below
        it. A flagged book is the path's limit: of the neutral books within
        the caps that maximize x.w, the least-norm one. It is checked on
        the faces whose direction is 0, not at a large a, where a face's
        rounding-level direction times a outweighs the norm tie-break. The
        loadings are market-like (no negative correlation), so two assets,
        or flat_mode, make v parallel to 1."""
        rng = np.random.Generator(np.random.Philox(seed))
        x = rng.integers(-2, 3, n).astype(float) if tied else rng.standard_normal(n)
        x[0] += 3.0 * np.all(x == x[0])
        load = np.abs(rng.standard_normal((n, 2))) * rng.uniform(0.0, 1.5)
        cov = load @ load.T + np.diag(rng.uniform(0.2, 1.0, n))
        corr = cov / np.sqrt(np.outer(np.diag(cov), np.diag(cov)))
        corr = 0.5 * (corr + corr.T)
        np.fill_diagonal(corr, 1.0)
        v = np.linalg.eigh(corr)[1][:, -1]
        v = np.full(n, 1.0 / math.sqrt(n)) if flat_mode else v * np.sign(np.sum(v))
        sig, u = rng.uniform(0.5, 2.0, n), 1.0
        cov = corr * np.outer(sig, sig)
        first = u / np.max(np.abs(neutral_part(x, v)))
        p1 = neutral_part(x, v) * first
        target = reach * float(p1 @ cov @ p1)

        w, a = pf._capped_book(x, v, u, sig, corr, target)
        maps = capped_projection_maps(x, v, u)
        grid = np.unique(np.concatenate([np.linspace(0.0, 40.0 * first, 400),
                                         np.geomspace(first, 1e6 * first, 60)]))
        books = capped_projections(grid, x, maps, u)
        grid_var = np.einsum("ij,jk,ik->i", books, cov, books)
        var, gross = float(w @ cov @ w), float(np.sum(np.abs(w)))
        assert abs(np.sum(w)) <= 1e-9 * gross
        assert abs(v @ w) <= 1e-9 * gross
        assert np.max(np.abs(w)) <= u * (1 + 1e-9)
        if a < math.inf:
            assert var == pytest.approx(target, rel=1e-9)
            assert np.allclose(w, capped_projections(a, x, maps, u)[0], rtol=0,
                               atol=1e-7 * u)
            assert not np.any((grid < a * (1 - 1e-9)) & (grid_var > target * (1 + 1e-7)))
        else:
            assert var < target
            assert not np.any(grid_var > target * (1 + 1e-7))
            alpha, beta, _ = maps
            ends = beta[np.all(np.abs(alpha) <= 1e-12 * np.max(np.abs(x)), axis=1)
                        & np.all(np.abs(beta) <= u * (1 + 1e-9), axis=1)]
            gain = ends @ x
            best = ends[gain >= np.max(gain) - 1e-9 * u * np.sum(np.abs(x))]
            least = best[np.argmin(np.sum(best * best, axis=1))]
            assert np.allclose(w, least, rtol=0, atol=1e-9 * u)

    @given(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(0, 6),
           parallel=st.booleans())
    @example(seed=4, n=0, parallel=False)
    @example(seed=5, n=4, parallel=True)
    def test_least_norm_solve_matches_lstsq(self, seed, n, parallel):
        """The walk's 2 x 2 solve on the Gram matrix of [1, v] over a free
        set gives lstsq's rank and least-norm answer: rank 1 when v is
        parallel to 1 there, rank 0 when the set is empty."""
        rng = np.random.Generator(np.random.Philox(seed))
        v = np.full(n, rng.uniform(-1.0, 1.0)) if parallel else rng.standard_normal(n)
        b = np.stack([np.ones(n), v])
        rhs = rng.standard_normal((2, 2))
        g = b @ b.T
        m, rank = pf._least_norm_solve(g, rhs)
        want, _, want_rank, _ = np.linalg.lstsq(g, rhs, rcond=1e-13)
        assert rank == want_rank
        # at rank 2 both answers carry g's condition number times the rounding
        lam = np.linalg.eigvalsh(g)
        tol = 1e-12 * (lam[1] / lam[0] if rank == 2 else 1.0)
        assert np.allclose(m, want, rtol=tol, atol=tol)

    def test_tied_scores_keep_the_caps(self):
        """Scores in seven tied groups on 20 assets, and a target out of
        reach: an asset capped while tied with the last free group has a
        direction of 0 and stays capped. A rounding-level direction would
        let it leave near a = 1e12, where the rounding grows into a 9%
        break of a cap."""
        rng = np.random.Generator(np.random.Philox(1))
        f = rng.standard_normal((300, 3))
        cleaned = pf.clean_correlation(0.01 * (f @ rng.uniform(0, 1, (20, 3)).T
                                               + rng.standard_normal((300, 20))))
        v = cleaned.leading_eigenvector
        s = rng.integers(-3, 4, 20).astype(float)
        x = neutral_part(s - s.mean(), v)
        sig = rng.uniform(0.005, 0.03, 20)
        cov = cleaned.corr * np.outer(sig, sig)
        p1 = x / np.max(np.abs(x))
        target = 30.0 * float(p1 @ cov @ p1)
        w, a = pf._capped_book(x, v, 1.0, sig, cleaned.corr, target)
        gross = np.sum(np.abs(w))
        assert a == math.inf
        assert float(w @ cov @ w) < target
        assert np.max(np.abs(w)) <= 1.0 + 1e-9
        assert abs(np.sum(w)) <= 1e-9 * gross and abs(v @ w) <= 1e-9 * gross


def lh_track(dates, ret_pnl, trading_cost=None):
    """An LH result that holds nothing: its daily P&L is ret_pnl plus
    trading_cost (default none)."""
    zeros = np.zeros(len(dates))
    tc = zeros if trading_cost is None else trading_cost
    return pf.BacktestResult(
        dates=dates, assets=(), mode="LH", aum=AUM, ret_pnl=ret_pnl,
        trading_cost=tc, financing_cost=zeros, borrow_cost=zeros,
        total_pnl=ret_pnl + tc, traded_notional=zeros, gross_stock=zeros,
        net_stock=zeros, hedge_notional=zeros, predicted_vol=zeros,
        vol_warning=zeros, positions=np.zeros((len(dates), 0)),
    )


class TestBacktest:
    def test_zero_signal_zero_book_flat(self, small_universe):
        _, panel, truth = small_universe
        sig = np.zeros((panel.n_dates, panel.n_assets))
        cfg = pf.StrategyConfig(mode="LH", aum=AUM, cap=0.03)
        res = pf.run_backtest(panel, sig, cfg, costs.CostModelParams(),
                              index_returns=truth.market,
                              start=panel.dates[300])
        assert np.all(res.total_pnl == 0.0)
        assert np.all(res.positions == 0.0)
        # an empty book is hedged with +0.0, which the CSV writes as 0.0
        assert np.all(res.hedge_notional == 0.0)
        assert not np.any(np.signbit(res.hedge_notional))

    def test_unit_betas_fully_invested_hedged_at_minus_aum(self):
        rng = np.random.Generator(np.random.Philox(8))
        index = 0.01 * rng.standard_normal(300)
        dates = data.business_days("2020-01-01", 300)
        assets = tuple(f"A{j}" for j in range(10))
        panel = data.ReturnsPanel(
            dates=dates, assets=assets, regions=("",) * 10,
            arrays={"ret": np.repeat(index[:, None], 10, axis=1)})
        scores = np.zeros((300, 10))
        scores[280:] = 0.5
        res = pf.run_backtest(panel, scores,
                              pf.StrategyConfig(mode="LH", aum=AUM, cap=0.1),
                              costs.ZERO_COSTS, index_returns=index,
                              start=dates[270])
        # every beta is exactly 1, and the full book is hedged at -AUM
        assert np.all(res.hedge_notional[:10] == 0.0)
        assert res.gross_stock[10:] == pytest.approx(AUM, rel=1e-12)
        assert res.hedge_notional[10:] == pytest.approx(-AUM, rel=1e-12)

    def test_decomposition_sums_exactly(self, small_universe, mom_signals):
        _, panel, truth = small_universe
        _, smooth = mom_signals
        cfg = pf.StrategyConfig(mode="LS", aum=AUM, cap=0.06, vol_target=0.05)
        res = pf.run_backtest(panel, smooth, cfg, costs.CostModelParams(),
                              start=panel.dates[300])
        recomputed = res.ret_pnl + res.trading_cost + res.financing_cost \
            + res.borrow_cost
        assert np.array_equal(recomputed, res.total_pnl)
        assert np.all(res.trading_cost <= 0)
        assert np.all(res.borrow_cost <= 0)

    def test_bit_identical_reruns(self, small_universe, mom_signals):
        _, panel, truth = small_universe
        _, smooth = mom_signals
        cfg = pf.StrategyConfig(mode="LH", aum=AUM, cap=0.06)
        kw = dict(index_returns=truth.market, start=panel.dates[300])
        r1 = pf.run_backtest(panel, smooth, cfg, costs.CostModelParams(), **kw)
        r2 = pf.run_backtest(panel, smooth, cfg, costs.CostModelParams(), **kw)
        assert np.array_equal(r1.total_pnl, r2.total_pnl)
        assert np.array_equal(r1.positions, r2.positions)

    def test_ls_beats_lh_above_threshold_zero_costs(self, small_universe):
        spec, panel, truth = small_universe
        sig = signals.scores_from_values(panel, np.sign(truth.loadings))
        start = panel.dates[260]
        cap = 2.0 / spec.n_assets  # exactly fills the long half
        lh = pf.run_backtest(
            panel, sig, pf.StrategyConfig(mode="LH", aum=AUM, cap=cap),
            costs.ZERO_COSTS, index_returns=truth.market, start=start)
        ls = pf.run_backtest(
            panel, sig, pf.StrategyConfig(mode="LS", aum=AUM, cap=cap,
                                          vol_target=0.02),
            costs.ZERO_COSTS, start=start)
        sr_ls = tm.sharpe_per_period(ls.total_pnl)
        sr_lh = tm.sharpe_per_period(lh.total_pnl)
        p = tm.ToyModelParams(
            factor_mean=spec.factor_mean, factor_var=spec.factor_vol ** 2,
            short_loading=spec.loading_short_scale,
            resid_var_ratio=(spec.resid_vol_long / spec.factor_vol) ** 2,
            short_resid_var_ratio=(spec.resid_vol_short / spec.resid_vol_long) ** 2,
        )
        band = tm.simulate_book_sr_ratios(p, spec.n_assets,
                                          len(ls.total_pnl), 200, seed=1)
        lo, hi = np.percentile(band, [2.5, 97.5])
        assert lo <= sr_ls / sr_lh <= hi

    def test_lh_realized_beta_small(self, small_universe, mom_signals):
        _, panel, truth = small_universe
        _, smooth = mom_signals
        cfg = pf.StrategyConfig(mode="LH", aum=AUM, cap=0.06)
        res = pf.run_backtest(panel, smooth, cfg, costs.ZERO_COSTS,
                              index_returns=truth.market,
                              start=panel.dates[300])
        beta = analytics.estimate_series_beta(
            res.total_pnl / AUM, truth.market[300:])
        assert abs(beta) < 0.05

    def test_smoothing_cuts_turnover_three_fold(self, small_universe,
                                                mom_signals):
        _, panel, truth = small_universe
        raw, smooth = mom_signals
        out = {}
        for name, sig in (("raw", raw), ("smooth", smooth)):
            cfg = pf.StrategyConfig(mode="LH", aum=AUM, cap=0.06)
            res = pf.run_backtest(panel, sig, cfg, costs.ZERO_COSTS,
                                  index_returns=truth.market,
                                  start=panel.dates[300])
            out[name] = np.mean(res.traded_notional)
        assert out["raw"] / out["smooth"] >= 3.0

    def test_turnover_calibration_bands(self, small_universe, mom_signals):
        _, panel, truth = small_universe
        _, smooth = mom_signals
        params = costs.CostModelParams()
        lh = pf.run_backtest(
            panel, smooth,
            pf.StrategyConfig(mode="LH", aum=AUM, cap=0.06, cost_aversion=100.0),
            params, index_returns=truth.market, start=panel.dates[300])
        lh_turnover = np.mean(lh.traded_notional) / AUM
        assert 0.001 < lh_turnover < 0.012
        ls = pf.run_backtest(
            panel, smooth,
            pf.StrategyConfig(mode="LS", aum=AUM, cap=0.06, vol_target=0.05),
            params, start=panel.dates[300])
        gmv = np.maximum(ls.gross_stock, 1.0)
        ls_turnover = np.mean(ls.traded_notional / gmv)
        assert 0.005 < ls_turnover < 0.06

    def test_financing_drag_band_at_two_x(self, small_universe):
        _, panel, truth = small_universe
        sig = signals.scores_from_values(panel, np.sign(truth.loadings))
        params = costs.CostModelParams(linear_rate=0.0, impact_coeff=0.0,
                                       financing_spread=0.02,
                                       default_borrow_fee=0.0)
        # vol target tuned so gross stays near twice the capital base
        cfg = pf.StrategyConfig(mode="LS", aum=AUM, cap=0.08, vol_target=0.115)
        res = pf.run_backtest(panel, sig, cfg, params, start=panel.dates[300])
        leverage = np.mean(res.gross_stock) / AUM
        assert 1.5 < leverage < 2.5
        ann_financing = np.mean(res.financing_cost) / AUM * 252
        assert -0.04 < ann_financing < -0.01

    def test_exec_lag_shifts_trading_by_one_day(self, small_universe):
        _, panel, truth = small_universe
        # signal switches on at a known date; with a one-day lag the book
        # must follow one day later
        scores = np.zeros((panel.n_dates, panel.n_assets))
        flip = 350
        scores[flip:, :10] = 0.4
        kw = dict(index_returns=truth.market, start=panel.dates[300],
                  end=panel.dates[360])
        lag0 = pf.run_backtest(panel, scores,
                               pf.StrategyConfig(mode="LH", aum=AUM, cap=0.03),
                               costs.ZERO_COSTS, **kw)
        lag1 = pf.run_backtest(panel, scores,
                               pf.StrategyConfig(mode="LH", aum=AUM, cap=0.03,
                                                 exec_lag=1),
                               costs.ZERO_COSTS, **kw)
        first_trade = lambda r: int(np.argmax(r.traded_notional > 0))  # noqa: E731
        assert first_trade(lag0) == flip - 300
        assert first_trade(lag1) == flip - 300 + 1

    @pytest.fixture(scope="class")
    def market20(self):
        """20 assets, 300 days: MOM is warm from day 252."""
        spec = tm.SyntheticUniverseSpec(
            n_assets=20, n_periods=300, seed=4, loading_short_scale=0.8,
            resid_vol_long=0.004, resid_vol_short=0.004, factor_mean=8e-4,
            factor_vol=0.004, market_mean=3e-4, market_vol=0.012,
        )
        panel, truth = tm.generate_universe(spec)
        return panel, truth, signals.factor_signal(panel, None, "MOM").scores

    def test_ls_warm_up_goes_flat_like_lh(self, market20):
        panel, truth, mom = market20
        kw = dict(start=panel.dates[250])
        lh = pf.run_backtest(panel, mom, pf.StrategyConfig(mode="LH", aum=AUM),
                             costs.CostModelParams(), index_returns=truth.market,
                             **kw)
        ls = pf.run_backtest(panel, mom, pf.StrategyConfig(mode="LS", aum=AUM),
                             costs.CostModelParams(), **kw)
        cold = ~np.any(np.isfinite(mom[250:]), axis=1)
        assert cold[0] and not cold[-1]
        for res in (lh, ls):
            assert np.all(res.positions[cold] == 0.0)
            assert np.all(res.total_pnl[cold] == 0.0)
        assert np.all(ls.vol_warning[cold] == 1.0)
        assert np.all(np.any(ls.positions[~cold] != 0.0, axis=1))
        assert np.all(lh.vol_warning == 0.0)

    def test_ls_book_does_not_read_cost_aversion(self, market20):
        """LS with full costs trades into the same book at every
        cost_aversion: the backtest charges the costs, the book ignores
        them."""
        panel, _, mom = market20
        runs = [pf.run_backtest(panel, mom,
                                pf.StrategyConfig(mode="LS", aum=AUM, cost_aversion=a),
                                costs.CostModelParams(), start=panel.dates[260])
                for a in (0.0, 1.0, 10.0)]
        assert np.all(runs[0].trading_cost < 0.0)
        for res in runs[1:]:
            assert np.array_equal(res.positions, runs[0].positions)
            for column in pf.BacktestResult.COLUMNS:
                assert np.array_equal(getattr(res, column), getattr(runs[0], column))

    def test_unreachable_vol_target_flagged_every_day(self, market20, tmp_path):
        panel, _, mom = market20
        cfg = pf.StrategyConfig(mode="LS", aum=AUM, cap=0.03, vol_target=0.5)
        res = pf.run_backtest(panel, mom, cfg, costs.CostModelParams(),
                              start=panel.dates[260])
        assert np.all(res.vol_warning == 1.0)
        res.write_csv(tmp_path / "ls.csv")
        header, first = (tmp_path / "ls.csv").read_text().splitlines()[:2]
        assert header.split(",")[-1] == "vol_warning"
        assert first.split(",")[-1] == "1.0"

    def test_constant_return_asset_never_held_in_ls(self, market20):
        panel, _, _ = market20
        ret = panel.field("ret").copy()
        ret[:, 3] = 0.001  # np.std of this column is 2.2e-19, not 0
        arrays = dict(panel.arrays, ret=ret)
        panel = data.ReturnsPanel(dates=panel.dates, assets=panel.assets,
                                  regions=panel.regions, arrays=arrays)
        mom = signals.factor_signal(panel, None, "MOM").scores
        assert np.isfinite(mom[-1, 3])
        res = pf.run_backtest(panel, mom, pf.StrategyConfig(mode="LS", aum=AUM),
                              costs.CostModelParams(), start=panel.dates[260])
        assert np.all(res.positions[:, 3] == 0.0)
        assert np.all(np.any(res.positions != 0.0, axis=1))

    def test_ls_pool_member_without_a_score_stays_out(self):
        # LS cleans over the assets with a score, pool or no pool: a pool
        # member with no score is not bought at score 0
        spec = tm.SyntheticUniverseSpec(
            n_assets=20, n_periods=400, seed=3, resid_vol_long=0.004,
            resid_vol_short=0.004, market_vol=0.012,
        )
        panel, _ = tm.generate_universe(spec)
        raw = np.tile(np.arange(20.0), (panel.n_dates, 1))
        raw[:, 3] = np.nan
        scores = signals.rank_normalize(raw)
        pool = data.PoolMask(mask=np.ones(scores.shape, dtype=bool),
                             rebalance_indices=np.array([0]))
        cfg = pf.StrategyConfig(mode="LS", aum=1e8, cap=0.03)
        kw = dict(start=panel.dates[300])
        alone = pf.run_backtest(panel, scores, cfg, costs.CostModelParams(), **kw)
        pooled = pf.run_backtest(panel, scores, cfg, costs.CostModelParams(),
                                 pool=pool, **kw)
        assert np.all(alone.positions[:, 3] == 0.0)
        assert np.any(alone.positions != 0.0)
        assert np.array_equal(pooled.positions, alone.positions)

    def test_constant_hedge_index_names_date_and_cause(self):
        spec = tm.SyntheticUniverseSpec(
            n_assets=20, n_periods=300, seed=4, loading_short_scale=0.8,
            resid_vol_long=0.004, resid_vol_short=0.004, factor_mean=8e-4,
            factor_vol=0.004, market_mean=3e-4, market_vol=0.0,
        )
        panel, truth = tm.generate_universe(spec)
        mom = signals.factor_signal(panel, None, "MOM").scores
        with pytest.raises(pf.PortfolioError) as info:
            pf.run_backtest(panel, mom, pf.StrategyConfig(mode="LH", aum=AUM),
                            costs.CostModelParams(), index_returns=truth.market,
                            start=panel.dates[260])
        message = str(info.value)
        for part in ["missing beta for held position: SYN00", str(panel.dates[260]),
                     "index is constant over the 250-day beta window",
                     "too few returns"]:
            assert part in message

    @pytest.fixture(scope="class")
    def late_listing(self):
        """20 assets, 900 days; SYN05 lists on day 700 with a small cap."""
        spec = tm.SyntheticUniverseSpec(
            n_assets=20, n_periods=900, seed=4, loading_short_scale=0.8,
            resid_vol_long=0.004, resid_vol_short=0.004, factor_mean=8e-4,
            factor_vol=0.004, market_mean=3e-4, market_vol=0.012,
        )
        panel, truth = tm.generate_universe(spec)
        arrays = {k: v.copy() for k, v in panel.arrays.items()}
        for a in arrays.values():
            a[:700, 5] = np.nan
        arrays["mcap"][:, 5] *= 1e-3
        panel = data.ReturnsPanel(dates=panel.dates, assets=panel.assets,
                                  regions=panel.regions, arrays=arrays)
        return panel, truth, signals.factor_signal(panel, None, "SMB").scores

    def test_late_listing_asset_waits_for_its_beta(self, late_listing):
        """An asset that lists on day 700 has an SMB score from day 739 but a
        beta only from day 824 (125 returns joint with the index): LH waits
        for the beta, and LS for a full covariance window."""
        panel, truth, smb = late_listing
        assert np.argmax(np.isfinite(smb[:, 5])) == 739
        betas = pf.rolling_betas(panel.field("ret"), truth.market)
        assert np.argmax(np.isfinite(betas[:, 5])) == 824
        held = {}
        for mode in ("LH", "LS"):
            res = pf.run_backtest(panel, smb, pf.StrategyConfig(mode=mode, aum=AUM),
                                  costs.CostModelParams(),
                                  index_returns=truth.market, start=panel.dates[600])
            held[mode] = 600 + np.nonzero(res.positions[:, 5])[0]
        assert held["LH"][0] == 824
        assert len(held["LS"]) == 0

    def test_min_invested_floor_waits_for_the_beta(self, late_listing):
        """A binding floor fills the book with warm assets only: the late
        asset is bought once its beta exists, and the book stays fully
        invested."""
        panel, truth, smb = late_listing
        cfg = pf.StrategyConfig(mode="LH", aum=AUM, cap=0.06, min_invested=1.0)
        res = pf.run_backtest(panel, smb, cfg, costs.CostModelParams(),
                              index_returns=truth.market, start=panel.dates[600])
        assert 600 + np.nonzero(res.positions[:, 5])[0][0] == 824
        assert np.allclose(res.gross_stock, AUM, rtol=1e-9)

    @pytest.mark.parametrize("aversion", [1.0, 0.0])
    @pytest.mark.parametrize("mode", ["LH", "LS"])
    @pytest.mark.parametrize("hole", ["cell", "column"])
    def test_missing_liquidity(self, market20, hole, mode, aversion):
        """One NaN ADV cell on a traded asset: LH freezes the asset, LS
        stops and names it. No adv column: both stop before day one."""
        panel, truth, mom = market20
        cfg = pf.StrategyConfig(mode=mode, aum=AUM, cost_aversion=aversion)
        kw = dict(index_returns=truth.market, start=panel.dates[260])
        base = pf.run_backtest(panel, mom, cfg, costs.CostModelParams(), **kw)
        t, k = 280, 20
        drift = base.positions[k - 1] * (1.0 + panel.field("ret")[t])
        j = int(np.argmax(np.abs(base.positions[k] - drift)))
        arrays = dict(panel.arrays)
        if hole == "cell":
            arrays["adv"] = arrays["adv"].copy()
            arrays["adv"][t, j] = np.nan
        else:
            del arrays["adv"]
        holed = data.ReturnsPanel(dates=panel.dates, assets=panel.assets,
                                  regions=panel.regions, arrays=arrays)
        if hole == "cell" and mode == "LH":
            res = pf.run_backtest(holed, mom, cfg, costs.CostModelParams(), **kw)
            assert np.array_equal(res.positions[:k], base.positions[:k])
            assert res.positions[k, j] == drift[j] != base.positions[k, j]
            return
        with pytest.raises(pf.PortfolioError) as info:
            pf.run_backtest(holed, mom, cfg, costs.CostModelParams(), **kw)
        parts = ([panel.assets[j], str(panel.dates[t])] if hole == "cell" else
                 ["impact_coeff = 1.0", str(panel.dates[260]), str(panel.dates[-1])])
        for part in parts:
            assert part in str(info.value)

    def test_ls_stops_only_on_a_trade_it_cannot_price(self, market20):
        """A zero signal has no neutral part, so LS never trades: an eligible
        asset losing its ADV mid-run does not stop the flat book."""
        panel, _, _ = market20
        arrays = dict(panel.arrays, adv=panel.arrays["adv"].copy())
        arrays["adv"][280:, 3] = np.nan
        holed = data.ReturnsPanel(dates=panel.dates, assets=panel.assets,
                                  regions=panel.regions, arrays=arrays)
        res = pf.run_backtest(holed, np.zeros((panel.n_dates, panel.n_assets)),
                              pf.StrategyConfig(mode="LS", aum=AUM),
                              costs.CostModelParams(), start=panel.dates[260])
        assert len(res.dates) == 40
        assert np.all(res.positions == 0.0)
        assert np.all(res.vol_warning == 1.0)

    def test_lh_matched_vol_targets_match_per_day_loop(self):
        rng = np.random.Generator(np.random.Philox(12))
        panel_dates = data.business_days("2020-01-01", 700)
        dates = panel_dates[100:650]
        pnl = 1e7 * (1e-4 + rng.standard_normal(len(dates)))
        lh = lh_track(dates, pnl)

        def per_day_loop():
            window, min_obs = pf.MATCHED_VOL_WINDOW, pf.MATCHED_VOL_MIN_OBS
            rets = lh.ret_pnl / lh.aum
            marks = set(data.month_start_indices(dates).tolist())
            targets = np.full(len(dates), np.nan)
            current = np.nan
            for i in range(len(dates)):
                if i in marks or (np.isnan(current) and i >= min_obs):
                    lo = max(0, i - window)
                    if i - lo >= min_obs:
                        current = float(np.std(rets[lo:i], ddof=1)) * np.sqrt(252)
                targets[i] = current
            finite = np.isfinite(targets)
            targets[~finite] = targets[finite][0]
            out = np.full(len(panel_dates), np.nan)
            pos = {d: i for i, d in enumerate(panel_dates.tolist())}
            for i, d in enumerate(dates.tolist()):
                out[pos[d]] = targets[i]
            first = int(np.argmax(np.isfinite(out)))
            out[:first] = out[first]
            for i in range(1, len(out)):
                if not np.isfinite(out[i]):
                    out[i] = out[i - 1]
            return out

        got = pf.lh_matched_vol_targets(lh, panel_dates)
        assert np.allclose(got, per_day_loop(), rtol=1e-12, atol=0)
        # the first estimate needs MATCHED_VOL_MIN_OBS days strictly before it
        n = pf.MATCHED_VOL_MIN_OBS
        with pytest.raises(pf.PortfolioError, match="too short"):
            pf.lh_matched_vol_targets(lh_track(dates[:n], pnl[:n]), panel_dates)
        assert np.all(np.isfinite(pf.lh_matched_vol_targets(
            lh_track(dates[:n + 1], pnl[:n + 1]), panel_dates)))

    def test_lh_matched_vol_targets_ignore_trading_cost(self):
        """Day one buys the whole book. Its trading cost is a drag the book
        pays, not the risk of the bet, so it moves no target."""
        rng = np.random.Generator(np.random.Philox(13))
        dates = data.business_days("2020-01-01", 400)
        pnl = 1e7 * (1e-4 + rng.standard_normal(len(dates)))
        entry = np.zeros(len(dates))
        entry[0] = -0.05 * AUM
        assert np.array_equal(
            pf.lh_matched_vol_targets(lh_track(dates, pnl, entry), dates),
            pf.lh_matched_vol_targets(lh_track(dates, pnl), dates))

    def test_calendar_gap_rejected(self):
        dates = np.concatenate([
            data.business_days("2020-01-01", 10),
            data.business_days("2020-03-01", 10),
        ])
        panel = data.ReturnsPanel(
            dates=dates, assets=("A", "B"), regions=("", ""),
            arrays={"ret": np.zeros((20, 2)), "adv": np.full((20, 2), 1e6)},
        )
        cfg = pf.StrategyConfig(mode="LS", aum=AUM)
        with pytest.raises(pf.PortfolioError, match="gap"):
            pf.run_backtest(panel, np.zeros((20, 2)), cfg, costs.ZERO_COSTS)

    def test_misaligned_signal_rejected(self, small_universe):
        """The signal is the bare (T, N) score array: one row short, or a
        `SignalPanel` in its place, is not aligned with the panel."""
        _, panel, truth = small_universe
        cfg = pf.StrategyConfig(mode="LH", aum=AUM)
        for sig in (np.zeros((panel.n_dates - 1, panel.n_assets)),
                    signals.factor_signal(panel, None, "MOM")):
            with pytest.raises(pf.PortfolioError, match="not aligned with the panel"):
                pf.run_backtest(panel, sig, cfg, costs.ZERO_COSTS,
                                index_returns=truth.market)

    def test_missing_index_return_names_date(self, small_universe):
        _, panel, truth = small_universe
        sig = signals.scores_from_values(panel, np.sign(truth.loadings))
        index = truth.market.copy()
        index[400] = np.nan
        cfg = pf.StrategyConfig(mode="LH", aum=AUM, cap=0.06)
        with pytest.raises(pf.PortfolioError, match=str(panel.dates[400])):
            pf.run_backtest(panel, sig, cfg, costs.ZERO_COSTS,
                            index_returns=index, start=panel.dates[300])

    def test_lh_without_index_rejected(self, small_universe):
        _, panel, _ = small_universe
        sig = np.zeros((panel.n_dates, panel.n_assets))
        cfg = pf.StrategyConfig(mode="LH", aum=AUM)
        with pytest.raises(pf.PortfolioError, match="index"):
            pf.run_backtest(panel, sig, cfg, costs.ZERO_COSTS)

    def test_result_csv_round_trip_stats(self, small_universe, mom_signals,
                                         tmp_path):
        _, panel, truth = small_universe
        _, smooth = mom_signals
        cfg = pf.StrategyConfig(mode="LS", aum=AUM, cap=0.06, vol_target=0.05)
        res = pf.run_backtest(panel, smooth, cfg, costs.CostModelParams(),
                              start=panel.dates[300])
        path = tmp_path / "bt.csv"
        res.write_csv(path)
        lines = path.read_text().splitlines()
        assert lines[0].split(",") == ["date"] + list(pf.BacktestResult.COLUMNS)
        rows = [line.split(",") for line in lines[1:]]
        cols = {c: np.array([float(r[k + 1]) if r[k + 1] else np.nan for r in rows])
                for k, c in enumerate(pf.BacktestResult.COLUMNS)}
        loaded = pf.BacktestResult(
            dates=np.array([r[0] for r in rows], dtype="datetime64[D]"),
            assets=(), mode="LS", aum=AUM, positions=np.zeros((len(rows), 0)),
            **cols,
        )
        assert np.array_equal(loaded.dates, res.dates)
        a = analytics.cost_attribution(res)
        b = analytics.cost_attribution(loaded)
        assert a == b
