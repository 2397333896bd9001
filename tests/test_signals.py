import numpy as np
import pytest
from hypothesis import given, strategies as st
from hypothesis.extra.numpy import arrays

from factorlab import data, signals, toy_model as tm


def make_panel(arrays_dict, start="2020-01-01"):
    t = next(iter(arrays_dict.values())).shape[0]
    n = next(iter(arrays_dict.values())).shape[1]
    return data.ReturnsPanel(
        dates=data.business_days(start, t),
        assets=tuple(f"A{i}" for i in range(n)),
        regions=tuple("" for _ in range(n)),
        arrays={k: v.astype(float) for k, v in arrays_dict.items()},
    )


def signal_of(scores):
    t, n = scores.shape
    return signals.SignalPanel(
        dates=data.business_days("2020-01-01", t),
        assets=tuple(f"A{i}" for i in range(n)),
        scores=scores.astype(float),
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
        pool = data.PoolMask(dates=panel.dates, assets=panel.assets, mask=mask,
                             rebalance_indices=np.array([0]))
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
        pool = data.PoolMask(dates=panel.dates, assets=panel.assets, mask=mask,
                             rebalance_indices=np.arange(0, t, 21))
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
        out = signals.smooth_ema(signal_of(scores), span_days=10)
        assert np.allclose(out.scores, 0.2)

    def test_impulse_response(self):
        t = 60
        scores = np.zeros((t, 1))
        scores[10, 0] = 1.0
        span = 19
        lam = 2.0 / (span + 1.0)
        out = signals.smooth_ema(signal_of(scores), span_days=span)
        ks = np.arange(t - 10)
        expected = lam * (1 - lam) ** ks
        assert np.allclose(out.scores[10:, 0], expected)

    def test_initializes_at_first_valid(self):
        scores = np.full((10, 1), np.nan)
        scores[4, 0] = 0.7
        out = signals.smooth_ema(signal_of(scores), span_days=5)
        assert np.all(np.isnan(out.scores[:4, 0]))
        assert out.scores[4, 0] == pytest.approx(0.7)

    def test_masked_days_carry_state(self):
        scores = np.array([[0.5], [np.nan], [0.5]])
        out = signals.smooth_ema(signal_of(scores), span_days=9)
        assert np.isnan(out.scores[1, 0])
        assert out.scores[2, 0] == pytest.approx(0.5)

    def test_linearity(self):
        rng = np.random.Generator(np.random.Philox(6))
        x = rng.standard_normal((80, 4))
        y = rng.standard_normal((80, 4))
        a, b = 1.7, -0.3
        left = signals.smooth_ema(signal_of(a * x + b * y), 21).scores
        right = a * signals.smooth_ema(signal_of(x), 21).scores \
            + b * signals.smooth_ema(signal_of(y), 21).scores
        assert np.allclose(left, right)


class TestBlend:
    def test_identity(self):
        rng = np.random.Generator(np.random.Philox(7))
        s = signal_of(rng.standard_normal((20, 3)))
        out = signals.blend([s], [1.0])
        assert np.allclose(out.scores, s.scores)

    def test_two_identical(self):
        s = signal_of(np.full((5, 2), 0.25))
        out = signals.blend([s, s], [1.0, 1.0])
        assert np.allclose(out.scores, 0.25)

    def test_missing_factor_renormalized(self):
        a = np.array([[0.4, np.nan]])
        b = np.array([[0.2, 0.1]])
        out = signals.blend([signal_of(a), signal_of(b)], [1.0, 1.0])
        assert out.scores[0, 0] == pytest.approx(0.3)
        assert out.scores[0, 1] == pytest.approx(0.1)

    def test_matches_brute_force(self):
        rng = np.random.Generator(np.random.Philox(9))
        panels = []
        weights = [0.5, 1.0, 2.0, 0.25, 1.25]
        for _ in range(5):
            x = rng.standard_normal((15, 6))
            x[rng.random((15, 6)) < 0.2] = np.nan
            panels.append(signal_of(x))
        out = signals.blend(panels, weights)
        for t in range(15):
            for j in range(6):
                num = den = 0.0
                for s, w in zip(panels, weights):
                    v = s.scores[t, j]
                    if np.isfinite(v):
                        num += w * v
                        den += w
                if den:
                    assert out.scores[t, j] == pytest.approx(num / den)
                else:
                    assert np.isnan(out.scores[t, j])

    def test_empty_list_rejected(self):
        with pytest.raises(signals.SignalError):
            signals.blend([], [])

    def test_weight_mismatch_rejected(self):
        s = signal_of(np.zeros((3, 2)))
        with pytest.raises(signals.SignalError):
            signals.blend([s], [1.0, 2.0])


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
        pool = data.PoolMask(dates=panel.dates, assets=panel.assets, mask=mask,
                             rebalance_indices=np.arange(0, t, 21))
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


class TestLeadingVector:
    def matrix(self, eigvals, seed):
        q, _ = np.linalg.qr(np.random.Generator(np.random.Philox(seed))
                            .standard_normal((len(eigvals), len(eigvals))))
        return (q * eigvals) @ q.T, q[:, 0]

    def test_known_matrix(self, eigh_calls):
        a, top = self.matrix([5.0, 2.0, 1.0, 0.5, 0.1], seed=50)
        v = signals._leading_vector(lambda u: a @ u, np.ones(5))
        assert eigh_calls == []
        assert np.linalg.norm(v) == pytest.approx(1.0)
        assert np.max(np.abs(v * np.sign(v @ top) - top)) < 1e-12

    def test_warm_start_converges_at_once(self):
        a, top = self.matrix([5.0, 2.0, 1.0, 0.5, 0.1], seed=51)
        steps = []

        def matvec(u):
            steps.append(1)
            return a @ u

        v = signals._leading_vector(matvec, top)
        assert len(steps) <= 2
        assert np.max(np.abs(v - top)) < 1e-14

    def test_start_on_a_lesser_eigenvector(self, eigh_calls):
        a = np.array([[1.0, -0.5], [-0.5, 1.0]])
        v = signals._leading_vector(lambda u: a @ u, np.ones(2),
                                    floor=np.max(np.diag(a)))
        assert eigh_calls == [(2, 2)]
        assert abs(v @ np.array([1.0, -1.0])) == pytest.approx(np.sqrt(2.0))

    def test_small_gap_falls_back_to_eigh(self, eigh_calls):
        a, top = self.matrix([1.0, 0.999, 0.5, 0.2], seed=52)
        v = signals._leading_vector(lambda u: a @ u, np.ones(4))
        assert eigh_calls == [(4, 4)]
        assert np.max(np.abs(v * np.sign(v @ top) - top)) < 1e-12


class TestForwardMean:
    def test_matches_brute_force(self):
        rng = np.random.Generator(np.random.Philox(11))
        x = rng.standard_normal((40, 3))
        x[rng.random((40, 3)) < 0.15] = np.nan
        h = 5
        got = signals._forward_mean(x, h)
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
    y = signals._forward_mean(resid, horizon_days)
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
        curve = signals.predictability_curve(scores, resid, horizon_days=5,
                                             n_bins=10)
        assert curve.slope_ratio == pytest.approx(1.0, abs=0.1)
        assert curve.intercept == pytest.approx(0.0, abs=1e-4)
        assert curve.above_threshold

    def test_bins_partition_observations(self):
        scores, resid = self.antisymmetric_panel()
        curve = signals.predictability_curve(scores, resid, horizon_days=5,
                                             n_bins=12)
        assert int(np.sum(curve.bin_count)) == curve.n_obs
        assert len(curve.bin_count) == 12

    def test_slopes_match_independent_wls(self):
        scores, resid = self.antisymmetric_panel(seed=21)
        curve = signals.predictability_curve(scores, resid, horizon_days=5,
                                             n_bins=10)
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

    def test_two_point_scores_unidentifiable(self):
        rng = np.random.Generator(np.random.Philox(16))
        t, n = 300, 20
        base = np.concatenate([np.full(10, 1.0), np.full(10, -1.0)])
        scores = np.tile(signals.rank_normalize(base), (t, 1))
        resid = 0.001 * scores + 1e-4 * rng.standard_normal((t, n))
        curve = signals.predictability_curve(scores, resid, horizon_days=5,
                                             n_bins=8)
        assert np.isnan(curve.slope_ratio)

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
        ci = signals.bootstrap_slope_ratio(sig.scores, res, horizon_days=21,
                                           n_boot=150, seed=2)
        assert ci.lo <= 0.8 <= ci.hi
        curve = signals.predictability_curve(sig.scores, res, 21, 20)
        assert curve.slope_ratio == pytest.approx(0.8, abs=0.05)
        assert curve.above_threshold

    def test_insufficient_pairs_rejected(self):
        with pytest.raises(signals.SignalError):
            signals.predictability_curve(np.zeros((3, 2)), np.zeros((3, 2)),
                                         horizon_days=1, n_bins=20)
