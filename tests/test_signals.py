from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, strategies as st
from hypothesis.extra.numpy import arrays
from numpy.testing import assert_array_equal

from factorlab import data, signals, toy_model as tm


def make_panel(arrays_dict, start="2020-01-01"):
    t = next(iter(arrays_dict.values())).shape[0]
    n = next(iter(arrays_dict.values())).shape[1]
    return data.ReturnsPanel(
        dates=data.business_days(start, t),
        assets=tuple(f"A{i:04d}" for i in range(n)),
        regions=tuple("" for _ in range(n)),
        arrays={k: v.astype(float) for k, v in arrays_dict.items()},
    )


class TestRankNormalize:
    def test_three_values(self):
        got = signals.rank_normalize(np.array([3.0, 1.0, 2.0]))
        assert got == pytest.approx([1 / 3, -1 / 3, 0.0])

    def test_ties_average(self):
        assert signals.rank_normalize(np.array([5.0, 5.0])) == pytest.approx([0.0, 0.0])

    def test_single_value_masked(self):
        got = signals.rank_normalize(np.array([1.0, np.nan]))
        assert np.all(np.isnan(got))

    def test_nan_passthrough(self):
        got = signals.rank_normalize(np.array([np.nan, 2.0, 1.0]))
        assert np.isnan(got[0])
        assert got[1] == pytest.approx(0.25)
        assert got[2] == pytest.approx(-0.25)

    def test_matches_brute_force(self):
        rng = np.random.Generator(np.random.Philox(3))
        x = rng.standard_normal(57)
        got = signals.rank_normalize(x)
        order = np.argsort(np.argsort(x)) + 1.0  # distinct values: plain ranks
        expected = (order - 0.5) / len(x) - 0.5
        assert got == pytest.approx(expected)

    @given(arrays(float, st.integers(2, 40),
                  elements=st.floats(-100, 100)))
    def test_monotone_invariance_and_bounds(self, x):
        x = np.round(x, 6)  # keep gaps resolvable under the warp below
        base = signals.rank_normalize(x)
        warped = signals.rank_normalize(np.exp(x / 50.0) * 3.0 + 1.0)
        affine = signals.rank_normalize(2.5 * x + 7.0)
        assert np.allclose(base, warped, equal_nan=True)
        assert np.allclose(base, affine, equal_nan=True)
        assert abs(np.nansum(base)) < 1e-12
        assert np.nanmax(np.abs(base)) <= 0.5

    # on rows of 40 numpy's plain sort reorders the members of tie groups
    # (-0.0 and 0.0 among them), which a short row would not show
    @example(x=np.resize([2.0, 0.0, 1.0, np.nan, -0.0, 1.0, np.inf, -np.inf],
                         (2, 40)))
    @given(x=arrays(float, st.tuples(st.integers(1, 4), st.integers(1, 60)),
                    elements=st.sampled_from([-2.0, -1.0, -0.0, 0.0, 1.0, 2.0,
                                              np.nan, np.inf, -np.inf])))
    def test_ties_match_a_stable_sort(self, x):
        assert_array_equal(signals.rank_normalize(x),
                           [reference_ranks(row) for row in x])


class TestDescriptors:
    def test_mom_constant_return(self):
        t = 300
        ret = np.full((t, 2), np.nan)
        ret[:, 0] = 0.001
        ret[:, 1] = -0.002
        panel = make_panel({"ret": ret})
        raw = signals._descriptor(panel, "MOM")[-1]
        assert raw[0] == pytest.approx(0.001)
        assert raw[1] == pytest.approx(-0.002)

    def test_mom_window_excludes_last_month(self):
        t = 300
        ret = np.zeros((t, 1))
        ret[-20:, 0] = 0.5  # inside the one-month lag, must be ignored
        panel = make_panel({"ret": ret})
        raw = signals._descriptor(panel, "MOM")[-1]
        assert raw[0] == pytest.approx(0.0)

    def test_mom_insufficient_history_masked(self):
        ret = np.zeros((100, 1))
        panel = make_panel({"ret": ret})
        raw = signals._descriptor(panel, "MOM")[-1]
        assert np.isnan(raw[0])

    def test_mom_ranking_follows_drift(self):
        rng = np.random.Generator(np.random.Philox(12))
        t, n = 320, 10
        drifts = np.linspace(-0.002, 0.002, n)
        ret = drifts[None, :] + 1e-4 * rng.standard_normal((t, n))
        panel = make_panel({"ret": ret})
        raw = signals._descriptor(panel, "MOM")[-1]
        assert np.array_equal(np.argsort(raw), np.argsort(drifts))

    def test_lowvol_zero_variance_ranks_top(self):
        rng = np.random.Generator(np.random.Philox(1))
        t = 260
        ret = np.column_stack([np.zeros(t), 0.01 * rng.standard_normal(t)])
        panel = make_panel({"ret": ret})
        raw = signals._descriptor(panel, "LOWVOL")[-1]
        assert raw[0] == 0.0
        assert raw[0] > raw[1]
        scores = signals.rank_normalize(raw)
        assert scores[0] == np.nanmax(scores)

    def test_smb_prefers_small(self):
        t = 70
        mcap = np.tile(np.array([1e9, 5e10]), (t, 1))
        panel = make_panel({"mcap": mcap})
        raw = signals._descriptor(panel, "SMB")[-1]
        assert raw[0] > raw[1]
        assert raw[0] == pytest.approx(-1e9)

    def test_valueear_and_roa(self):
        t = 2
        panel = make_panel({
            "price": np.full((t, 2), 50.0),
            "earnings": np.tile(np.array([5.0, np.nan]), (t, 1)),
            "net_income": np.tile(np.array([2.0, 4.0]), (t, 1)),
            "total_assets": np.tile(np.array([20.0, 0.0]), (t, 1)),
        })
        ve = signals._descriptor(panel, "VALUEEAR")[-1]
        assert ve[0] == pytest.approx(0.1)
        assert np.isnan(ve[1])
        roa = signals._descriptor(panel, "ROA")[-1]
        assert roa[0] == pytest.approx(0.1)
        assert np.isnan(roa[1])  # non-positive total assets

    def test_unknown_factor(self):
        panel = make_panel({"ret": np.zeros((10, 2))})
        with pytest.raises(signals.SignalError, match="unknown factor"):
            signals.factor_signal(panel, None, "NOPE")

    def test_missing_field_named(self):
        panel = make_panel({"ret": np.zeros((10, 2))})
        with pytest.raises(signals.SignalError, match="mcap"):
            signals.factor_signal(panel, None, "SMB")

    def test_pool_masks_descriptor(self, small_universe):
        _, panel, _ = small_universe
        mask = np.zeros((panel.n_dates, panel.n_assets), dtype=bool)
        mask[:, :5] = True
        pool = data.PoolMask(mask=mask, rebalance_indices=np.array([0]))
        sig = signals.factor_signal(panel, pool, "MOM")
        assert np.all(np.isnan(sig.scores[:, 5:]))

    def test_factor_signal_cross_sections_centered(self, small_universe):
        _, panel, _ = small_universe
        sig = signals.factor_signal(panel, None, "MOM")
        valid_rows = np.any(np.isfinite(sig.scores), axis=1)
        sums = np.nansum(sig.scores[valid_rows], axis=1)
        assert np.max(np.abs(sums)) < 1e-12
        assert np.nanmax(np.abs(sig.scores)) <= 0.5


def reference_ranks(values):
    """The per-date rank normalization the whole-panel one replaced: one
    pass per group of tied values."""
    out = np.full(values.shape, np.nan)
    ok = np.isfinite(values)
    n = int(np.sum(ok))
    if n < 2:
        return out
    x = values[ok]
    order = np.argsort(x, kind="stable")
    sorted_x = x[order]
    pos = np.arange(1, n + 1, dtype=float)
    starts = np.concatenate([[0], np.nonzero(np.diff(sorted_x) != 0)[0] + 1])
    ends = np.concatenate([starts[1:], [n]])
    avg = np.empty(n)
    for s, e in zip(starts, ends):
        avg[s:e] = 0.5 * (pos[s] + pos[e - 1])
    ranks = np.empty(n)
    ranks[order] = avg
    out[ok] = (ranks - 0.5) / n - 0.5
    return out


def reference_signal(panel, pool, factor):
    """Descriptor and ranks date by date, each window read afresh."""
    fields = {name: panel.field(name) for name in ("ret", "price", "mcap")
              if panel.has_field(name)}
    for name in ("earnings", "net_income", "total_assets"):
        if panel.has_field(name):
            fields[name] = data.forward_fill_field(panel, name)

    def window_mean(arr, lo, hi, t, min_obs):
        out = np.full(arr.shape[1], np.nan)
        if t - lo < 0:
            return out
        window = arr[t - lo: t - hi + 1]
        enough = np.sum(np.isfinite(window), axis=0) >= min_obs
        with np.errstate(invalid="ignore"):
            out[enough] = np.nanmean(window[:, enough], axis=0)
        return out

    def ratio(num, den):
        out = np.full(num.shape, np.nan)
        ok = np.isfinite(num) & np.isfinite(den) & (den > 0)
        out[ok] = num[ok] / den[ok]
        return out

    def descriptor(t):
        if factor == "MOM":
            return window_mean(fields["ret"], 252, 21, t, 120)
        if factor == "SMB":
            return -window_mean(fields["mcap"], 59, 20, t, 20)
        if factor == "VALUEEAR":
            return ratio(fields["earnings"][t], fields["price"][t])
        if factor == "ROA":
            return ratio(fields["net_income"][t], fields["total_assets"][t])
        out = np.full(panel.n_assets, np.nan)
        if t < 249:
            return out
        window = fields["ret"][t - 249: t + 1]
        enough = np.sum(np.isfinite(window), axis=0) >= 120
        with np.errstate(invalid="ignore"):
            out[enough] = -np.nanstd(window[:, enough], axis=0, ddof=1)
        return out

    scores = np.full((panel.n_dates, panel.n_assets), np.nan)
    for t in range(panel.n_dates):
        raw = descriptor(t)
        if pool is not None:
            raw = np.where(pool.mask[t], raw, np.nan)
        scores[t] = reference_ranks(raw)
    return scores


class TestWholePanelSignal:
    @pytest.fixture(scope="class")
    def gappy(self):
        """Returns, sizes and quarterly fundamentals with missing cells, a
        late listing, a delisting, an asset that stops reporting, duplicated
        assets (tied values), and a monthly pool that always holds the
        duplicated pair."""
        rng = np.random.Generator(np.random.Philox(31))
        t, n = 420, 14
        ret = 0.01 * rng.standard_normal((t, n)) + 3e-4
        ret[rng.random((t, n)) < 0.08] = np.nan
        ret[:150, 5] = np.nan
        ret[:, 2] = 0.0
        mcap = np.exp(rng.normal(21.0, 1.0, n))[None, :] \
            * np.cumprod(1.0 + np.nan_to_num(ret), axis=0)
        mcap[rng.random((t, n)) < 0.1] = np.nan
        mcap[300:, 6] = np.nan
        price = 50.0 * np.cumprod(1.0 + np.nan_to_num(ret), axis=0)
        price[:, 7] = -1.0
        report = (np.arange(t)[:, None] + rng.integers(0, 63, n)) % 63 == 0
        fund = {
            "earnings": price * rng.normal(0.05, 0.03, (t, n)),
            "net_income": rng.normal(1.0, 0.5, (t, n)),
            "total_assets": rng.normal(20.0, 8.0, (t, n)),
        }
        for name, arr in fund.items():
            arr[~report] = np.nan
            arr[60:, 8] = np.nan
        arrays = {"ret": ret, "mcap": mcap, "price": price, **fund}
        for arr in arrays.values():
            arr[:, 1] = arr[:, 0]
        panel = make_panel(arrays)
        month = np.arange(t) // 21
        mask = rng.random((month[-1] + 1, n))[month] < 0.8
        mask[:, :2] = True
        pool = data.PoolMask(mask=mask, rebalance_indices=np.arange(0, t, 21))
        return panel, pool

    @pytest.mark.parametrize("factor", signals.FACTOR_IDS)
    @pytest.mark.parametrize("pooled", [False, True])
    def test_matches_per_date_reference(self, gappy, factor, pooled):
        panel, pool = gappy
        pool = pool if pooled else None
        got = signals.factor_signal(panel, pool, factor).scores
        assert np.array_equal(got, reference_signal(panel, pool, factor),
                              equal_nan=True)
        tied = np.isfinite(got[:, 0])
        assert np.any(tied) and np.array_equal(got[tied, 0], got[tied, 1])
        if pooled:
            assert np.all(np.isnan(got[~pool.mask]))

    @pytest.mark.parametrize("factor, first", [("LOWVOL", 249), ("MOM", 252),
                                               ("SMB", 59)])
    def test_warm_up_edges(self, gappy, factor, first):
        panel, pool = gappy
        got = signals.factor_signal(panel, pool, factor).scores
        assert np.all(np.isnan(got[:first]))
        assert np.sum(np.isfinite(got[first])) >= 2

    def test_panel_ranks_match_per_row(self):
        rng = np.random.Generator(np.random.Philox(32))
        x = rng.integers(0, 6, (50, 9)).astype(float)   # many ties
        x[rng.random(x.shape) < 0.2] = np.nan
        x[3] = np.nan
        x[4, 1:] = np.nan
        x[5, 0] = np.inf
        got = signals.rank_normalize(x)
        for t in range(50):
            row = np.where(np.isfinite(x[t]), x[t], np.nan)
            assert np.array_equal(got[t], reference_ranks(row), equal_nan=True)
            assert np.array_equal(got[t], signals.rank_normalize(x[t]),
                                  equal_nan=True)


class TestEma:
    def test_constant_fixed_point(self):
        scores = np.full((40, 3), 0.2)
        out = signals.smooth_ema(scores, span_days=10)
        assert np.allclose(out, 0.2)

    def test_impulse_response(self):
        t = 60
        scores = np.zeros((t, 1))
        scores[10, 0] = 1.0
        span = 19
        lam = 2.0 / (span + 1.0)
        out = signals.smooth_ema(scores, span_days=span)
        ks = np.arange(t - 10)
        expected = lam * (1 - lam) ** ks
        assert np.allclose(out[10:, 0], expected)

    def test_initializes_at_first_valid(self):
        scores = np.full((10, 1), np.nan)
        scores[4, 0] = 0.7
        out = signals.smooth_ema(scores, span_days=5)
        assert np.all(np.isnan(out[:4, 0]))
        assert out[4, 0] == pytest.approx(0.7)

    def test_masked_days_carry_state(self):
        scores = np.array([[0.5], [np.nan], [0.5]])
        out = signals.smooth_ema(scores, span_days=9)
        assert np.isnan(out[1, 0])
        assert out[2, 0] == pytest.approx(0.5)

    def test_unscored_array_stays_missing(self):
        out = signals.smooth_ema(np.full((6, 2), np.nan), 9)
        assert out.shape == (6, 2) and np.all(np.isnan(out))

    def test_linearity(self):
        rng = np.random.Generator(np.random.Philox(6))
        x = rng.standard_normal((80, 4))
        y = rng.standard_normal((80, 4))
        a, b = 1.7, -0.3
        left = signals.smooth_ema(a * x + b * y, 21)
        right = a * signals.smooth_ema(x, 21) + b * signals.smooth_ema(y, 21)
        assert np.allclose(left, right)

    @pytest.mark.parametrize("span", [0, -3])
    def test_span_below_one_rejected(self, span):
        with pytest.raises(signals.SignalError, match="span_days must be positive"):
            signals.smooth_ema(np.zeros((5, 2)), span_days=span)


class TestBlend:
    def test_identity(self):
        rng = np.random.Generator(np.random.Philox(7))
        s = rng.standard_normal((20, 3))
        out = signals.blend([s], [1.0])
        assert np.allclose(out, s)

    def test_two_identical(self):
        s = np.full((5, 2), 0.25)
        out = signals.blend([s, s], [1.0, 1.0])
        assert np.allclose(out, 0.25)

    def test_missing_factor_renormalized(self):
        a = np.array([[0.4, np.nan]])
        b = np.array([[0.2, 0.1]])
        out = signals.blend([a, b], [1.0, 1.0])
        assert out[0, 0] == pytest.approx(0.3)
        assert out[0, 1] == pytest.approx(0.1)

    def test_matches_brute_force(self):
        rng = np.random.Generator(np.random.Philox(9))
        panels = []
        weights = [0.5, 1.0, 2.0, 0.25, 1.25]
        for _ in range(5):
            x = rng.standard_normal((15, 6))
            x[rng.random((15, 6)) < 0.2] = np.nan
            panels.append(x)
        out = signals.blend(panels, weights)
        for t in range(15):
            for j in range(6):
                num = den = 0.0
                for s, w in zip(panels, weights):
                    v = s[t, j]
                    if np.isfinite(v):
                        num += w * v
                        den += w
                if den:
                    assert out[t, j] == pytest.approx(num / den)
                else:
                    assert np.isnan(out[t, j])

    def test_empty_list_rejected(self):
        with pytest.raises(signals.SignalError):
            signals.blend([], [])

    def test_weight_mismatch_rejected(self):
        s = np.zeros((3, 2))
        with pytest.raises(signals.SignalError):
            signals.blend([s], [1.0, 2.0])

    def test_shape_mismatch_rejected(self):
        with pytest.raises(signals.SignalError, match="same shape"):
            signals.blend([np.zeros((3, 2)), np.zeros((3, 3))], [1.0, 1.0])


class TestResiduals:
    def test_asset_equal_to_mode_has_tiny_residual(self):
        rng = np.random.Generator(np.random.Philox(10))
        t, n = 400, 12
        common = 0.01 * rng.standard_normal(t)
        ret = common[:, None] + 1e-5 * rng.standard_normal((t, n))
        panel = make_panel({"ret": ret})
        res = signals.residual_returns(panel, lookback_days=250)
        tail = res[260:]
        assert np.nanstd(tail) < 0.1 * np.nanstd(ret[260:])

    def test_market_mostly_removed(self, small_universe):
        _, panel, truth = small_universe
        res = signals.residual_returns(panel, lookback_days=250)
        m = truth.market[260:]
        cors = np.array([
            np.corrcoef(res[260:, i], m)[0, 1] for i in range(panel.n_assets)
        ])
        # typical residual carries almost no market; per-asset values are
        # dominated by sampling noise of order 1/sqrt(T)
        assert np.mean(np.abs(cors)) < 0.05
        assert np.max(np.abs(cors)) < 0.15

    def test_dispersion_not_inflated(self, small_universe):
        _, panel, _ = small_universe
        res = signals.residual_returns(panel, lookback_days=250)
        raw = panel.field("ret")[260:]
        assert np.nanmean(np.nanstd(res[260:], axis=1)) <= \
            np.nanmean(np.nanstd(raw, axis=1))

    def test_insufficient_history_masked(self, small_universe):
        _, panel, _ = small_universe
        res = signals.residual_returns(panel, lookback_days=250)
        assert np.all(np.isnan(res[:249]))

    def test_lookback_longer_than_the_panel_rejected(self, small_universe):
        _, panel, _ = small_universe
        longest = panel.n_dates
        assert np.any(np.isfinite(signals.residual_returns(panel, longest)))
        with pytest.raises(signals.SignalError,
                           match=f"lookback_days = {longest + 1} is longer "
                                 f"than the panel's {longest} dates"):
            signals.residual_returns(panel, longest + 1)


def reference_residuals(panel, lookback_days, pool=None, min_frac=0.8):
    """The per-date loop the power iteration replaced: nanmean and nanstd
    of each window, the full correlation matrix and its eigh."""
    ret = panel.field("ret")
    t_total, n = ret.shape
    out = np.full((t_total, n), np.nan)
    min_obs = int(np.ceil(min_frac * lookback_days))
    for t in range(lookback_days - 1, t_total):
        window = ret[t - lookback_days + 1: t + 1]
        cnt = np.sum(np.isfinite(window), axis=0)
        use = (cnt >= min_obs) & np.isfinite(ret[t])
        if pool is not None:
            use &= pool.mask[t]
        idx = np.nonzero(use)[0]
        if len(idx) < 2:
            continue
        x = window[:, idx]
        mu = np.nanmean(x, axis=0)
        sd = np.nanstd(x, axis=0)
        pos = sd > 0
        idx = idx[pos]
        if len(idx) < 2:
            continue
        z = (x[:, pos] - mu[pos]) / sd[pos]
        z[~np.isfinite(z)] = 0.0
        v = np.linalg.eigh(z.T @ z / z.shape[0])[1][:, -1]
        if np.sum(v) < 0:
            v = -v
        mode = z @ v
        var_mode = float(mode @ mode)
        if var_mode <= 0:
            continue
        betas = sd[pos] * (z.T @ mode) / var_mode
        out[t, idx] = ret[t, idx] - betas * mode[-1]
    return out


def assert_same_residuals(got, ref):
    assert np.array_equal(np.isfinite(got), np.isfinite(ref))
    ok = np.isfinite(ref)
    assert np.any(ok)
    scale = np.max(np.abs(ref[ok]))
    assert np.max(np.abs(got[ok] - ref[ok])) <= 1e-12 * scale


@pytest.fixture
def eigh_calls(monkeypatch):
    """Counts the calls to np.linalg.eigh made while a test runs."""
    calls = []
    eigh = np.linalg.eigh

    def counting(a):
        calls.append(a.shape)
        return eigh(a)

    monkeypatch.setattr(np.linalg, "eigh", counting)
    return calls


class TestResidualsAgainstEigh:
    LOOKBACK = 120

    @pytest.fixture(scope="class")
    def market(self):
        """A market mode plus noise, with gaps, a late listing, a delisting
        and a monthly pool."""
        rng = np.random.Generator(np.random.Philox(41))
        t, n = 330, 24
        beta = rng.uniform(0.5, 1.5, n)
        ret = 0.01 * rng.standard_normal(t)[:, None] * beta \
            + 0.008 * rng.standard_normal((t, n)) + 2e-4
        ret[rng.random((t, n)) < 0.05] = np.nan
        ret[:200, 3] = np.nan       # lists late
        ret[280:, 4] = np.nan       # delists
        panel = make_panel({"ret": ret})
        month = np.arange(t) // 21
        mask = rng.random((month[-1] + 1, n))[month] < 0.85
        pool = data.PoolMask(mask=mask, rebalance_indices=np.arange(0, t, 21))
        return panel, pool

    @pytest.mark.parametrize("pooled", [False, True])
    def test_matches_eigh_loop(self, market, pooled, eigh_calls):
        panel, pool = market
        pool = pool if pooled else None
        got = signals.residual_returns(panel, self.LOOKBACK, pool=pool)
        assert eigh_calls == []     # the power iteration settled every date
        assert np.any(np.isfinite(got[:, 3])) and np.any(np.isfinite(got[:, 4]))
        assert np.all(np.isnan(got[:200, 3])) and np.all(np.isnan(got[280:, 4]))
        if pooled:
            assert np.all(np.isnan(got[~pool.mask]))
        assert_same_residuals(got, reference_residuals(panel, self.LOOKBACK, pool))

    def test_close_eigenvalues_fall_back_to_eigh(self, eigh_calls):
        # two sectors driven by the same factor five days apart: their modes
        # carry about the same variance in every window
        rng = np.random.Generator(np.random.Philox(40))
        t, n = 300, 16
        f = 0.01 * rng.standard_normal(t + 5)
        sector = np.column_stack([f[5:], f[:-5]])
        ret = np.repeat(sector, n // 2, axis=1) + 0.008 * rng.standard_normal((t, n))
        panel = make_panel({"ret": ret})
        got = signals.residual_returns(panel, self.LOOKBACK)
        n_dates = t - self.LOOKBACK + 1
        assert len(eigh_calls) > n_dates // 2
        ref = reference_residuals(panel, self.LOOKBACK)
        gaps = []
        for d in range(self.LOOKBACK - 1, t):
            w = ret[d - self.LOOKBACK + 1: d + 1]
            z = (w - w.mean(axis=0)) / w.std(axis=0)
            top = np.linalg.eigvalsh(z.T @ z)[-2:]
            gaps.append(1.0 - top[0] / top[1])
        assert np.median(gaps) < 0.1
        assert_same_residuals(got, ref)

    def test_two_assets_moving_against_each_other(self):
        # all ones, the first start, is then the lesser eigenvector
        rng = np.random.Generator(np.random.Philox(5))
        f = rng.standard_normal(200)
        ret = 0.01 * np.column_stack([f + 0.5 * rng.standard_normal(200),
                                      -f + 0.5 * rng.standard_normal(200)])
        panel = make_panel({"ret": ret})
        assert_same_residuals(signals.residual_returns(panel, self.LOOKBACK),
                              reference_residuals(panel, self.LOOKBACK))

    @pytest.mark.parametrize("history, jitter", [(0.001, 0.0), (1e3, 0.0),
                                                 (0.001, 1e-14)])
    def test_constant_asset_dropped(self, market, history, jitter):
        # a return of 0.001 held from day 150 on, up to a relative jitter
        # far below 1e-12; a large return before it makes the cumulative
        # sums behind the window mean large
        panel, _ = market
        ret = panel.field("ret").copy()
        ret[:150, 7] = history
        noise = np.random.Generator(np.random.Philox(42)).standard_normal(180)
        ret[150:, 7] = 0.001 * (1.0 + jitter * noise)
        constant = slice(150 + self.LOOKBACK - 1, None)
        with_constant = signals.residual_returns(
            make_panel({"ret": ret}), self.LOOKBACK)[constant]
        assert np.all(np.isnan(with_constant[:, 7]))
        others = np.delete(np.arange(panel.n_assets), 7)
        without = signals.residual_returns(
            make_panel({"ret": ret[:, others]}), self.LOOKBACK)[constant]
        assert_same_residuals(with_constant[:, others], without)


def blocked_residuals(panel, lookback, per_block, pool=None):
    """residual_returns with `per_block` dates to a block."""
    with mock.patch.object(signals, "_BLOCK_BYTES",
                           per_block * 8 * lookback * panel.n_assets):
        return signals.residual_returns(panel, lookback, pool=pool)


def market_returns(t, n, seed):
    """A market mode well above the noise, so the top eigenvalue stands
    clear of the next in every window."""
    rng = np.random.Generator(np.random.Philox(seed))
    beta = rng.uniform(0.5, 1.5, n)
    return 0.01 * rng.standard_normal(t)[:, None] * beta \
        + 0.005 * rng.standard_normal((t, n)) + 2e-4


class TestResidualBlocks:
    """The edges of a block of dates, against the per-date eigh loop. With
    LOOKBACK 20 and 47 days the dates run from 19 to 46."""

    LOOKBACK = 20

    @staticmethod
    def pool(panel, mask):
        return data.PoolMask(mask=mask, rebalance_indices=np.array([0]))

    @pytest.mark.parametrize("per_block", [1, 3, 5, 20, 50])
    def test_block_sizes_that_do_not_divide_the_dates(self, per_block):
        # 28 dates: 3 and 5 leave a short last block, 20 is the cap
        # (the lookback) and 50 is cut down to it
        panel = make_panel({"ret": market_returns(47, 6, seed=70)})
        assert_same_residuals(blocked_residuals(panel, self.LOOKBACK, per_block),
                              reference_residuals(panel, self.LOOKBACK))

    def test_lookback_equal_to_the_panel(self):
        panel = make_panel({"ret": market_returns(30, 5, seed=71)})
        got = blocked_residuals(panel, 30, 4)
        assert np.all(np.isnan(got[:-1])) and np.all(np.isfinite(got[-1]))
        assert_same_residuals(got, reference_residuals(panel, 30))

    def test_dates_with_too_few_assets_keep_the_warm_start(self, monkeypatch):
        # blocks of 5 from date 19: one asset is pooled on date 26 (inside
        # 24..28), on date 28 (its last) and on every date of 29..33 (assets
        # 0 and 1 by turns) and of 39..43 (asset 0)
        panel = make_panel({"ret": market_returns(47, 6, seed=72)})
        mask = np.ones((47, 6), dtype=bool)
        mask[[26, 28, 29, 31, 33], 1:] = False
        mask[[30, 32]] = np.arange(6) == 1
        mask[39:44, 1:] = False
        pool = self.pool(panel, mask)
        starts = []
        leading = signals._leading_vector

        def spy(matvec, start, floor=0.0):
            starts.append(start.copy())
            return leading(matvec, start, floor)

        monkeypatch.setattr(signals, "_leading_vector", spy)
        got = blocked_residuals(panel, self.LOOKBACK, 5, pool)
        assert np.all(np.isnan(got[[26, 28, *range(29, 34), *range(39, 44)]]))
        assert_same_residuals(got, reference_residuals(panel, self.LOOKBACK, pool))
        # only the first block starts from all ones: the blocks after the
        # skipped dates start from the vectors of dates 27 and 38
        assert len(starts) == 4
        assert np.all(starts[0] == 1.0)
        for start in starts[1:]:
            assert not np.any(np.all(np.isin(start, (0.0, 1.0)), axis=0))

    def test_an_asset_turns_constant_mid_block(self):
        # asset 2 holds 0.001 from day 10, so its window is constant from
        # date 29, inside the block 26..32 of 7 dates
        ret = market_returns(47, 6, seed=73)
        ret[10:, 2] = 0.001
        panel = make_panel({"ret": ret})
        got = blocked_residuals(panel, self.LOOKBACK, 7)
        assert np.all(np.isfinite(got[19:29, 2])) and np.all(np.isnan(got[29:, 2]))
        assert_same_residuals(got[:29], reference_residuals(panel, self.LOOKBACK)[:29])
        others = np.delete(np.arange(6), 2)
        assert_same_residuals(
            got[29:, others],
            reference_residuals(make_panel({"ret": ret[:, others]}), self.LOOKBACK)[29:])

    @pytest.mark.parametrize("held", [0.0, 0.001, 0.03])
    def test_a_constant_stretch_ends_mid_block(self, held):
        # asset 2 holds `held` to day 44 and moves after it, so its window
        # is constant on dates 19..44; the block 39..58 of 20 dates is
        # centred at the mean of date 58, far from `held`
        ret = market_returns(70, 6, seed=77)
        ret[:45, 2] = held
        panel = make_panel({"ret": ret})
        got = blocked_residuals(panel, self.LOOKBACK, self.LOOKBACK)
        assert np.all(np.isnan(got[:45, 2])) and np.all(np.isfinite(got[45:, 2]))
        others = np.delete(np.arange(6), 2)
        assert_same_residuals(
            got[:45, others],
            reference_residuals(make_panel({"ret": ret[:, others]}), self.LOOKBACK)[:45])
        assert_same_residuals(got[45:], reference_residuals(panel, self.LOOKBACK)[45:])

    @pytest.mark.parametrize("jump", [0.5, 10.0, 1e3])
    @pytest.mark.parametrize("per_block", [1, 5, 20, None])
    def test_means_far_from_the_block_centre(self, jump, per_block):
        # a jump on day 70 lies in the windows of dates 70..99 only, so a
        # block that holds dates 69 and 70, or 99 and 100, mixes means with
        # and without it; None keeps the default bound, which gives blocks
        # of the lookback here
        ret = market_returns(120, 8, seed=78)
        ret[70, 3] += jump
        panel = make_panel({"ret": ret})
        got = (signals.residual_returns(panel, 30) if per_block is None
               else blocked_residuals(panel, 30, per_block))
        assert_same_residuals(got, reference_residuals(panel, 30))

    def test_gaps_in_one_block_only(self):
        # blocks of 20 dates start at 19, 39 and 59; a gap on day 39 lies in
        # the windows of dates 39..58 alone, which is the second block
        ret = market_returns(70, 6, seed=74)
        ret[39, [1, 4]] = np.nan
        panel = make_panel({"ret": ret})
        firsts = range(self.LOOKBACK - 1, 70, self.LOOKBACK)
        assert [bool(np.any(np.isnan(ret[f - self.LOOKBACK + 1:f + self.LOOKBACK])))
                for f in firsts] == [False, True, False]
        got = blocked_residuals(panel, self.LOOKBACK, self.LOOKBACK)
        assert np.all(np.isnan(got[39, [1, 4]]))
        assert_same_residuals(got, reference_residuals(panel, self.LOOKBACK))

    def test_pool_changes_mid_block(self):
        # from date 31, inside the block 29..33, assets 0 and 1 leave the
        # pool and asset 5 joins it
        panel = make_panel({"ret": market_returns(47, 6, seed=75)})
        mask = np.ones((47, 6), dtype=bool)
        mask[31:, :2] = False
        mask[:31, 5] = False
        pool = self.pool(panel, mask)
        got = blocked_residuals(panel, self.LOOKBACK, 5, pool)
        assert np.all(np.isnan(got[31:, :2])) and np.all(np.isfinite(got[31:, 2:]))
        assert_same_residuals(got, reference_residuals(panel, self.LOOKBACK, pool))

    def test_a_panel_without_assets(self):
        got = signals.residual_returns(make_panel({"ret": np.zeros((30, 0))}), 10)
        assert got.shape == (30, 0)

    @given(seed=st.integers(0, 2 ** 32 - 1), t=st.integers(10, 60),
           n=st.integers(2, 7), lookback=st.integers(10, 60),
           per_block=st.integers(1, 9), gap_rate=st.sampled_from([0.0, 0.03, 0.2]),
           pool_rate=st.sampled_from([0.0, 0.2]))
    def test_matches_per_date_eigh(self, seed, t, n, lookback, per_block,
                                   gap_rate, pool_rate):
        lookback = min(lookback, t)
        ret = market_returns(t, n, seed)
        rng = np.random.Generator(np.random.Philox(seed + 1))
        ret[rng.random((t, n)) < gap_rate] = np.nan
        panel = make_panel({"ret": ret})
        pool = self.pool(panel, rng.random((t, n)) >= pool_rate) if pool_rate else None
        # on two assets a residual can be ten times smaller than its return,
        # and blocks of one date then miss the reference by 1.2e-12 of the
        # largest residual: the rounding scales with the returns
        got = blocked_residuals(panel, lookback, per_block, pool)
        ref = reference_residuals(panel, lookback, pool)
        ok = np.isfinite(ref)
        assert np.array_equal(np.isfinite(got), ok)
        if np.any(ok):
            scale = np.max(np.abs(ret[ok]))
            assert np.max(np.abs(got[ok] - ref[ok])) <= 1e-12 * scale


class TestLeadingVector:
    def matrix(self, eigvals, seed):
        q, _ = np.linalg.qr(np.random.Generator(np.random.Philox(seed))
                            .standard_normal((len(eigvals), len(eigvals))))
        return (q * eigvals) @ q.T, q[:, 0]

    @staticmethod
    def products(mats, calls=None):
        """matvec of one matrix per column, each column multiplied alone;
        `calls` collects the columns of every call."""
        def matvec(u, cols):
            if calls is not None:
                calls.append(list(cols))
            return np.column_stack([mats[j] @ u[:, i] for i, j in enumerate(cols)])
        return matvec

    def test_known_matrix(self, eigh_calls):
        a, top = self.matrix([5.0, 2.0, 1.0, 0.5, 0.1], seed=50)
        v = signals._leading_vector(self.products([a]), np.ones((5, 1)))[:, 0]
        assert eigh_calls == []
        assert np.linalg.norm(v) == pytest.approx(1.0)
        assert np.max(np.abs(v * np.sign(v @ top) - top)) < 1e-12

    def test_warm_start_converges_at_once(self):
        a, top = self.matrix([5.0, 2.0, 1.0, 0.5, 0.1], seed=51)
        calls = []
        v = signals._leading_vector(self.products([a], calls), top[:, None])[:, 0]
        assert len(calls) <= 2
        assert np.max(np.abs(v - top)) < 1e-14

    def test_start_on_a_lesser_eigenvector(self, eigh_calls):
        a = np.array([[1.0, -0.5], [-0.5, 1.0]])
        v = signals._leading_vector(self.products([a]), np.ones((2, 1)),
                                    floor=np.max(np.diag(a)))[:, 0]
        assert eigh_calls == [(2, 2)]
        assert abs(v @ np.array([1.0, -1.0])) == pytest.approx(np.sqrt(2.0))

    def test_small_gap_falls_back_to_eigh(self, eigh_calls):
        a, top = self.matrix([1.0, 0.999, 0.5, 0.2], seed=52)
        v = signals._leading_vector(self.products([a]), np.ones((4, 1)))[:, 0]
        assert eigh_calls == [(4, 4)]
        assert np.max(np.abs(v * np.sign(v @ top) - top)) < 1e-12

    def test_each_column_settles_on_its_own(self, eigh_calls):
        # a warm column, a fast one and a slow one: each leaves the products
        # when it settles, and each comes out as it would alone
        eigvals = ([5.0, 2.0, 1.0, 0.5, 0.1], [5.0, 0.5, 0.2, 0.1, 0.1],
                   [5.0, 3.0, 1.0, 0.5, 0.1])
        mats, tops = zip(*(self.matrix(e, seed=60 + i) for i, e in enumerate(eigvals)))
        start = np.column_stack([tops[0], np.ones(5), np.ones(5)])
        calls = []
        v = signals._leading_vector(self.products(mats, calls), start)
        assert eigh_calls == []
        for j, top in enumerate(tops):
            assert np.max(np.abs(v[:, j] * np.sign(v[:, j] @ top) - top)) < 1e-12
            alone = signals._leading_vector(self.products([mats[j]]), start[:, [j]])
            assert np.array_equal(v[:, [j]], alone)
        rounds = [sum(j in c for c in calls) for j in range(3)]
        assert rounds[0] <= 2 < rounds[1] < rounds[2] == len(calls)
        assert all(c == sorted(c) for c in calls)

    def test_a_column_below_its_floor_falls_back_alone(self, eigh_calls):
        # column 1 starts on its lesser eigenvector, under its floor; column 0
        # settles by power steps and keeps what it gets alone
        a, top = self.matrix([3.0, 1.0], seed=61)
        b = np.array([[1.0, -0.5], [-0.5, 1.0]])
        start = np.column_stack([np.ones(2), np.ones(2)])
        floor = np.array([0.0, 1.0])
        v = signals._leading_vector(self.products([a, b]), start, floor)
        assert eigh_calls == [(2, 2)]
        assert np.array_equal(
            v[:, [0]], signals._leading_vector(self.products([a]), start[:, [0]]))
        assert np.max(np.abs(v[:, 0] * np.sign(v[:, 0] @ top) - top)) < 1e-12
        assert abs(v[:, 1] @ np.array([1.0, -1.0])) == pytest.approx(np.sqrt(2.0))

    def test_eigh_skips_empty_rows(self, eigh_calls):
        # asset 2 takes no part: its row and column of A are zero, eigh sees
        # the other three and the vector is zero there
        a, top = self.matrix([1.0, 0.999, 0.5], seed=62)
        full = np.zeros((4, 4))
        full[np.ix_([0, 1, 3], [0, 1, 3])] = a
        start = np.array([[1.0], [1.0], [0.0], [1.0]])
        v = signals._leading_vector(self.products([full]), start)[:, 0]
        assert eigh_calls == [(3, 3)]
        assert v[2] == 0.0
        assert np.max(np.abs(v[[0, 1, 3]] * np.sign(v[[0, 1, 3]] @ top) - top)) < 1e-12


class TestForwardMean:
    def test_matches_brute_force(self):
        rng = np.random.Generator(np.random.Philox(11))
        x = rng.standard_normal((40, 3))
        x[rng.random((40, 3)) < 0.15] = np.nan
        h = 5
        got = signals.forward_mean(x, h)
        for t in range(40):
            for j in range(3):
                if t + h >= 40:
                    assert np.isnan(got[t, j])
                    continue
                window = x[t + 1: t + 1 + h, j]
                if np.all(np.isfinite(window)):
                    assert got[t, j] == pytest.approx(np.mean(window))
                else:
                    assert np.isnan(got[t, j])


def reference_bootstrap_slopes(scores, resid, horizon_days, n_boot, seed,
                               block_days):
    """The per-draw bilinear forms the block-sum `bootstrap_slope_ratio`
    replaced: every draw weights all T dates of the 8 moment matrices.
    Returns the point slopes and the positive and negative slope samples."""
    y = signals.forward_mean(resid, horizon_days)
    ok = np.isfinite(scores) & np.isfinite(y)
    xp = np.where(ok & (scores > 0), scores, 0.0)
    xn = np.where(ok & (scores < 0), scores, 0.0)
    yy = np.where(ok, y, 0.0)
    mats = [ok.astype(float), xp, xn, xp * xp, xn * xn, yy, xp * yy, xn * yy]
    t, n = ok.shape
    block = min(block_days, t)
    n_blocks = max(1, int(np.ceil(t / block)))

    def slopes(date_mult, asset_mult):
        c, sxp, sxn, sxxp, sxxn, sy, sxyp, sxyn = (
            float(date_mult @ m @ asset_mult) for m in mats)
        a = np.array([[c, sxp, sxn], [sxp, sxxp, 0.0], [sxn, 0.0, sxxn]])
        if sxxp <= 0 or sxxn <= 0 or np.linalg.cond(a) > 1e12:
            return np.nan, np.nan
        _, sp, sn = np.linalg.solve(a, np.array([sy, sxyp, sxyn]))
        return sp, sn

    rng = np.random.Generator(np.random.Philox(seed))
    samples = np.empty((n_boot, 2))
    for k in range(n_boot):
        dm = np.zeros(t)
        for s in rng.integers(0, max(t - block, 0) + 1, size=n_blocks):
            dm[s:s + block] += 1.0
        am = np.bincount(rng.integers(0, n, size=n), minlength=n).astype(float)
        samples[k] = slopes(dm, am)
    return slopes(np.ones(t), np.ones(n)), samples


class TestPredictability:
    def antisymmetric_panel(self, slope=0.004, noise=0.0005, t=700, n=30, seed=13):
        rng = np.random.Generator(np.random.Philox(seed))
        scores = np.tile(signals.rank_normalize(rng.standard_normal(n)), (t, 1))
        resid = slope * scores + noise * rng.standard_normal((t, n))
        return scores, resid

    def test_antisymmetric_response_ratio_one(self):
        scores, resid = self.antisymmetric_panel()
        curve = signals.predictability_curve(
            scores, signals.forward_mean(resid, horizon_days=5), n_bins=10)
        assert curve.slope_ratio == pytest.approx(1.0, abs=0.1)
        assert curve.intercept == pytest.approx(0.0, abs=1e-4)
        assert curve.above_threshold

    def test_bins_partition_observations(self):
        scores, resid = self.antisymmetric_panel()
        curve = signals.predictability_curve(
            scores, signals.forward_mean(resid, horizon_days=5), n_bins=12)
        assert int(np.sum(curve.bin_count)) == curve.n_obs
        assert len(curve.bin_count) == 12

    def test_slopes_match_independent_wls(self):
        scores, resid = self.antisymmetric_panel(seed=21)
        curve = signals.predictability_curve(
            scores, signals.forward_mean(resid, horizon_days=5), n_bins=10)
        w = 1.0 / curve.bin_se ** 2
        pos = np.where(curve.bin_x > 0, curve.bin_x, 0.0)
        neg = np.where(curve.bin_x < 0, curve.bin_x, 0.0)
        design = np.column_stack([np.ones(len(curve.bin_x)), pos, neg])
        theta = np.linalg.solve(design.T @ (w[:, None] * design),
                                design.T @ (w * curve.bin_y))
        assert curve.intercept == pytest.approx(theta[0], abs=1e-10)
        assert curve.positive_slope == pytest.approx(theta[1], abs=1e-10)
        assert curve.negative_slope == pytest.approx(theta[2], abs=1e-10)

    def test_pure_noise_slopes_small(self):
        rng = np.random.Generator(np.random.Philox(15))
        t, n = 900, 40
        scores = np.tile(signals.rank_normalize(rng.standard_normal(n)), (t, 1))
        resid = 0.004 * rng.standard_normal((t, n))
        bs = signals.bootstrap_slope_ratio(scores, resid, horizon_days=5,
                                           n_boot=120, seed=4)
        assert abs(bs.positive_slope) < 2 * bs.positive_slope_se
        assert abs(bs.negative_slope) < 2 * bs.negative_slope_se

    @pytest.mark.parametrize("t, block_days", [(600, None), (600, 7),
                                               (60, 200)])
    def test_bootstrap_matches_per_draw_forms(self, t, block_days):
        rng = np.random.Generator(np.random.Philox(17))
        n, horizon = 25, 5
        scores = np.apply_along_axis(signals.rank_normalize, 1,
                                     rng.standard_normal((t, n)))
        scores[rng.random((t, n)) < 0.1] = np.nan
        resid = 0.002 * scores + 0.004 * rng.standard_normal((t, n))
        resid[rng.random((t, n)) < 0.05] = np.nan
        bs = signals.bootstrap_slope_ratio(scores, resid, horizon_days=horizon,
                                           n_boot=60, seed=3,
                                           block_days=block_days)
        (sp, sn), want = reference_bootstrap_slopes(
            scores, resid, horizon, 60, 3, block_days or 2 * horizon)
        assert (bs.positive_slope, bs.negative_slope) == (sp, sn)
        ratio = want[:, 1] / want[:, 0]
        assert np.all(np.isfinite(ratio))
        assert np.max(np.abs(bs.samples - ratio) / np.abs(ratio)) <= 1e-9
        se = np.std(want, axis=0, ddof=1)
        assert bs.positive_slope_se == pytest.approx(se[0], rel=1e-9)
        assert bs.negative_slope_se == pytest.approx(se[1], rel=1e-9)

    @pytest.mark.parametrize("kw, message", [
        ({"horizon_days": 0}, "horizon_days must be at least 1, got 0"),
        ({"horizon_days": -3}, "horizon_days must be at least 1, got -3"),
        ({"block_days": 0}, "block_days must be at least 1, got 0"),
        ({"block_days": -5}, "block_days must be at least 1, got -5"),
    ])
    def test_bootstrap_rejects_bad_windows(self, kw, message):
        scores, resid = self.antisymmetric_panel(t=100, n=10)
        with pytest.raises(signals.SignalError, match=f"^{message}$"):
            signals.bootstrap_slope_ratio(scores, resid, n_boot=20, **kw)

    def test_bootstrap_rejects_misaligned_scores(self):
        """A row of scores would broadcast against the residual panel and
        give a ratio; it is an error, as in `predictability_curve`."""
        rng = np.random.Generator(np.random.Philox(18))
        row = signals.rank_normalize(rng.standard_normal(20))
        resid = 0.001 * row + 0.004 * rng.standard_normal((300, 20))
        with pytest.raises(signals.SignalError, match="must be aligned"):
            signals.bootstrap_slope_ratio(row, resid, horizon_days=5, n_boot=50)

    def test_two_point_scores_unidentifiable(self):
        rng = np.random.Generator(np.random.Philox(16))
        t, n = 300, 20
        base = np.concatenate([np.full(10, 1.0), np.full(10, -1.0)])
        scores = np.tile(signals.rank_normalize(base), (t, 1))
        resid = 0.001 * scores + 1e-4 * rng.standard_normal((t, n))
        curve = signals.predictability_curve(
            scores, signals.forward_mean(resid, horizon_days=5), n_bins=8)
        assert np.isnan(curve.slope_ratio)

    def test_positive_side_fit_alone(self):
        # one negative abscissa: that side has no slope, and the positive
        # side is fit alone with its own intercept
        x = np.array([-1.0, 0.5, 1.0, 2.0])
        y = np.array([7.0, 0.4, 0.5, 0.7])
        se = np.array([1.0, 1.0, 0.5, 2.0])
        b0, sp, sn, ep, en = signals._two_slope_fit(x, y, se)
        design = np.column_stack([np.ones(3), x[1:]])
        a = design.T @ (design / se[1:, None] ** 2)
        theta = np.linalg.solve(a, design.T @ (y[1:] / se[1:] ** 2))
        assert (b0, sp) == pytest.approx(tuple(theta), rel=1e-12)
        assert ep == pytest.approx(np.sqrt(np.linalg.inv(a)[1, 1]), rel=1e-12)
        assert np.isnan(sn) and np.isnan(en)

    @pytest.mark.parametrize("x", [
        # both sides span two abscissas, but each pair is 1e-9 apart: the
        # joint system is singular, and no side is fit alone
        [-1.0 - 1e-9, -1.0, 1.0, 1.0 + 1e-9],
        # no side spans two distinct abscissas
        [-1.0, -1.0, 0.0, 2.0],
    ])
    def test_unfit_slopes_are_all_undefined(self, x):
        got = signals._two_slope_fit(np.array(x), np.array([0.3, 0.1, 0.2, 0.5]),
                                     np.ones(4))
        assert len(got) == 5 and np.all(np.isnan(got))

    def test_degenerate_errors_weigh_bins_equally(self):
        # with no usable bin error every bin weighs one, as with unit errors
        x = np.array([-2.0, -1.0, 0.5, 1.0, 2.0])
        y = np.array([0.4, 0.1, 0.2, 0.6, 0.7])
        se = np.array([np.nan, 0.0, 0.0, np.nan, 0.0])
        assert_array_equal(signals._bin_weights(se), np.ones(5))
        got = signals._two_slope_fit(x, y, se)
        assert got == signals._two_slope_fit(x, y, np.ones(5))
        assert np.all(np.isfinite(got))

    def test_short_loading_recovered_on_spread_universe(self):
        spec = tm.SyntheticUniverseSpec(
            n_assets=100, n_periods=1600, seed=6, loading_short_scale=0.8,
            loading_spread=1.0, resid_vol_long=0.001, resid_vol_short=0.001,
            factor_mean=1e-3, factor_vol=0.001,
            market_mean=3e-4, market_vol=0.012,
        )
        panel, truth = tm.generate_universe(spec)
        res = signals.residual_returns(panel, lookback_days=250)
        sig = signals.scores_from_values(panel, truth.loadings)
        ci = signals.bootstrap_slope_ratio(sig, res, horizon_days=21,
                                           n_boot=150, seed=2)
        assert ci.lo <= 0.8 <= ci.hi
        curve = signals.predictability_curve(sig,
                                             signals.forward_mean(res, 21), 20)
        assert curve.slope_ratio == pytest.approx(0.8, abs=0.05)
        assert curve.above_threshold

    def test_insufficient_pairs_rejected(self):
        with pytest.raises(signals.SignalError):
            signals.predictability_curve(
                np.zeros((3, 2)), signals.forward_mean(np.zeros((3, 2)), horizon_days=1),
                n_bins=20)

    # rows longer than 16 are where numpy's plain sort reorders tie groups
    @given(x=arrays(float, st.integers(1, 80),
                    elements=st.sampled_from([-1.0, -0.0, 0.0, 0.5, 2.0])))
    def test_stable_argsort(self, x):
        assert_array_equal(signals._stable_argsort(x), np.argsort(x, kind="stable"))

    @pytest.mark.parametrize("n_bins", [7, 20])
    def test_bins_match_a_stable_sort(self, n_bins):
        # rank scores of small integers on dates with 12 to 30 valid assets:
        # each score value recurs on many dates, and tie groups cross the
        # bin edges
        rng = np.random.Generator(np.random.Philox(19))
        t, n, horizon = 160, 30, 5
        raw = rng.integers(0, 6, (t, n)).astype(float)
        raw[rng.random((t, n)) < rng.uniform(0.0, 0.6, (t, 1))] = np.nan
        scores = signals.rank_normalize(raw)
        resid = 0.002 * np.nan_to_num(scores) + 0.004 * rng.standard_normal((t, n))
        resid[rng.random((t, n)) < 0.03] = np.nan
        forward = signals.forward_mean(resid, horizon)
        curve = signals.predictability_curve(scores, forward, n_bins)
        ok = np.isfinite(scores) & np.isfinite(forward)
        x, y = scores[ok], forward[ok]
        chunks = np.array_split(np.argsort(x, kind="stable"), n_bins)
        srt = np.sort(x)
        edges = np.cumsum([len(c) for c in chunks])[:-1]
        assert np.any(srt[edges - 1] == srt[edges])
        assert_array_equal(curve.bin_x, [np.mean(x[c]) for c in chunks])
        assert_array_equal(curve.bin_y, [np.mean(y[c]) for c in chunks])
        assert_array_equal(curve.bin_se, [np.std(y[c], ddof=1) / np.sqrt(len(c))
                                          for c in chunks])
        assert_array_equal(curve.bin_count, [len(c) for c in chunks])
        assert curve.n_obs == len(x)
