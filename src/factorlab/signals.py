"""Factor descriptors, cross-sectional rank normalization, signal slowing,
and the residual-return predictability analysis.

Five descriptor recipes are built in:

    MOM       mean daily return over the 11 months ending one month ago
    VALUEEAR  earnings / price
    LOWVOL    minus the trailing 250-day return volatility
    SMB       minus the market cap (lagged 20 days, averaged over 40 days)
    ROA       net income / total assets

Signs are chosen so that a higher score is the side the premium is long
(low-volatility stocks, small caps); flip weights in `blend` to override.
Each descriptor is computed once over the whole date x asset panel: the
trailing means and the volatility are differences of column cumulative sums
(`data.window_sums`), and each descriptor forward-fills only the
fundamentals it reads. Scores are then rank-normalized to [-0.5, 0.5] on
every date at once, which makes a raw signal dollar-neutral by construction.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .data import (
    PoolMask, ReturnsPanel, forward_fill_field, rolling_vols, window_sums,
)
from .toy_model import shorts_threshold


class SignalError(ValueError):
    """Invalid signal construction input."""


FACTOR_IDS = ("MOM", "VALUEEAR", "LOWVOL", "SMB", "ROA")

MOM_WINDOW = (252, 21)   # trading-day offsets, inclusive: 11 months lagged 1
MOM_MIN_OBS = 120
LOWVOL_WINDOW = 250
LOWVOL_MIN_OBS = 120
SMB_WINDOW = (59, 20)    # 40 days ending 20 days ago
SMB_MIN_OBS = 20

# predictability defaults: forward window of the mean residual, and bins
HORIZON_DAYS = 21
N_BINS = 20


@dataclass(frozen=True)
class SignalPanel:
    """Date x asset normalized scores for one factor (or a blend)."""

    dates: np.ndarray
    assets: tuple[str, ...]
    scores: np.ndarray

    def __post_init__(self):
        if self.scores.shape != (len(self.dates), len(self.assets)):
            raise SignalError("scores shape does not match dates x assets")
        self.scores.setflags(write=False)


def rank_normalize(values: np.ndarray) -> np.ndarray:
    """Map a cross-section (N,), or each row of a (T, N) panel, to scores in
    [-0.5, 0.5].

    score = (rank - 0.5) / n_valid - 0.5 with ascending ranks, ties taking
    their average rank, so valid scores sum to zero and the map is invariant
    under any strictly monotone transform of the inputs. Cross-sections with
    fewer than two valid values come back fully masked.
    """
    values = np.asarray(values, dtype=float)
    x = np.atleast_2d(np.where(np.isfinite(values), values, np.nan))
    t, n = x.shape
    valid = ~np.isnan(x)
    count = np.sum(valid, axis=1, keepdims=True)
    order = np.argsort(x, axis=1, kind="stable")   # NaN sorts last
    srt = np.take_along_axis(x, order, axis=1)
    pos = np.broadcast_to(np.arange(n), (t, n))
    # a tie group spans [first, last]; NaN != NaN keeps the masked tail apart
    new = np.ones((t, n), dtype=bool)
    new[:, 1:] = srt[:, 1:] != srt[:, :-1]
    first = np.maximum.accumulate(np.where(new, pos, 0), axis=1)
    ends = np.ones((t, n), dtype=bool)
    ends[:, :-1] = new[:, 1:]
    last = np.minimum.accumulate(np.where(ends, pos, n - 1)[:, ::-1], axis=1)[:, ::-1]
    ranks = np.empty((t, n))
    np.put_along_axis(ranks, order, 0.5 * ((first + 1.0) + (last + 1.0)), axis=1)
    with np.errstate(invalid="ignore", divide="ignore"):
        out = (ranks - 0.5) / count - 0.5
    out[~valid | (count < 2)] = np.nan
    return out.reshape(values.shape)


# ---------------------------------------------------------------------------
# descriptors: each maps the panel to a (T, N) array of raw values
# ---------------------------------------------------------------------------

def _lagged_mean(arr: np.ndarray, lo: int, hi: int, min_obs: int) -> np.ndarray:
    """Row t holds the column mean over rows t-lo .. t-hi inclusive; NaN
    before row lo and where fewer than min_obs values are present."""
    t_total, n = arr.shape
    out = np.full((t_total, n), np.nan)
    if t_total <= lo:
        return out
    valid = np.isfinite(arr)
    width = lo - hi + 1
    cnt = window_sums(valid.astype(float), width)
    total = window_sums(np.where(valid, arr, 0.0), width)
    # the window ending at row r = t - hi is complete from r = lo - hi on
    ok = cnt[lo - hi:t_total - hi] >= min_obs
    out[lo:][ok] = total[lo - hi:t_total - hi][ok] / cnt[lo - hi:t_total - hi][ok]
    return out


def _ratio(num: np.ndarray, den: np.ndarray) -> np.ndarray:
    """num / den where both are present and den is positive, NaN elsewhere."""
    out = np.full(num.shape, np.nan)
    ok = np.isfinite(num) & np.isfinite(den) & (den > 0)
    out[ok] = num[ok] / den[ok]
    return out


def _mom(panel: ReturnsPanel) -> np.ndarray:
    return _lagged_mean(panel.field("ret"), *MOM_WINDOW, min_obs=MOM_MIN_OBS)


def _lowvol(panel: ReturnsPanel) -> np.ndarray:
    out = -rolling_vols(panel.field("ret"), LOWVOL_WINDOW, min_obs=LOWVOL_MIN_OBS)
    out[:LOWVOL_WINDOW - 1] = np.nan
    return out


def _smb(panel: ReturnsPanel) -> np.ndarray:
    return -_lagged_mean(panel.field("mcap"), *SMB_WINDOW, min_obs=SMB_MIN_OBS)


def _valueear(panel: ReturnsPanel) -> np.ndarray:
    return _ratio(forward_fill_field(panel, "earnings"), panel.field("price"))


def _roa(panel: ReturnsPanel) -> np.ndarray:
    return _ratio(forward_fill_field(panel, "net_income"),
                  forward_fill_field(panel, "total_assets"))


_DESCRIPTORS = {
    "MOM": (_mom, ("ret",)),
    "VALUEEAR": (_valueear, ("price", "earnings")),
    "LOWVOL": (_lowvol, ("ret",)),
    "SMB": (_smb, ("mcap",)),
    "ROA": (_roa, ("net_income", "total_assets")),
}


def _descriptor(panel: ReturnsPanel, factor_id: str) -> np.ndarray:
    """Raw (T, N) descriptor values of one recipe, after checking that the
    panel carries the fields it reads."""
    if factor_id not in _DESCRIPTORS:
        raise SignalError(
            f"unknown factor {factor_id!r}; known: {', '.join(FACTOR_IDS)}"
        )
    kernel, fields = _DESCRIPTORS[factor_id]
    missing = [f for f in fields if not panel.has_field(f)]
    if missing:
        raise SignalError(
            f"factor {factor_id!r} needs field(s) {', '.join(missing)} not in panel"
        )
    return kernel(panel)


def factor_signal(panel: ReturnsPanel, pool: PoolMask | None,
                  factor_id: str) -> SignalPanel:
    """Full rank-normalized signal panel for one descriptor recipe."""
    raw = _descriptor(panel, factor_id)
    if pool is not None:
        raw[~pool.mask] = np.nan
    return SignalPanel(dates=panel.dates, assets=panel.assets,
                       scores=rank_normalize(raw))


def scores_from_values(panel: ReturnsPanel, values: np.ndarray) -> SignalPanel:
    """Rank-normalize arbitrary per-asset values into a constant-in-time
    signal panel (ground-truth loadings, externally supplied scores)."""
    row = rank_normalize(np.asarray(values, dtype=float))
    scores = np.tile(row, (panel.n_dates, 1))
    return SignalPanel(dates=panel.dates, assets=panel.assets, scores=scores)


# ---------------------------------------------------------------------------
# slowing and blending
# ---------------------------------------------------------------------------

def smooth_ema(signal: SignalPanel, span_days: int = 150) -> SignalPanel:
    """Exponential moving average with lam = 2 / (span + 1).

    Assets initialize at their first valid raw score. On masked days the
    state is carried unchanged (and the output stays masked), so a gap does
    not reset the average. To read the smoothing length as a half-life h
    instead of a span, pass span_days = 2 / (1 - 0.5 ** (1 / h)) - 1.
    """
    if span_days < 1:
        raise SignalError("span_days must be positive")
    lam = 2.0 / (span_days + 1.0)
    raw = signal.scores
    out = np.full(raw.shape, np.nan)
    state = np.full(raw.shape[1], np.nan)
    for t in range(raw.shape[0]):
        valid = np.isfinite(raw[t])
        fresh = valid & ~np.isfinite(state)
        state[fresh] = raw[t, fresh]
        cont = valid & ~fresh
        state[cont] = (1.0 - lam) * state[cont] + lam * raw[t, cont]
        out[t, valid] = state[valid]
    return SignalPanel(dates=signal.dates, assets=signal.assets, scores=out)


def blend(signals: list[SignalPanel], weights) -> SignalPanel:
    """Weighted cell-wise combination of signals on a shared calendar.

    Each cell averages over the factors valid there, renormalized by the
    sum of their weights, so a factor going missing does not shrink the
    combined score.
    """
    if not signals:
        raise SignalError("blend needs at least one signal")
    weights = np.asarray(weights, dtype=float)
    if len(weights) != len(signals) or not np.all(np.isfinite(weights)):
        raise SignalError("need one finite weight per signal")
    first = signals[0]
    for s in signals[1:]:
        if not np.array_equal(s.dates, first.dates) or s.assets != first.assets:
            raise SignalError("signals must share the same calendar and assets")
    num = np.zeros(first.scores.shape)
    den = np.zeros(first.scores.shape)
    for s, w in zip(signals, weights):
        valid = np.isfinite(s.scores)
        num += np.where(valid, w * s.scores, 0.0)
        den += np.where(valid, w, 0.0)
    out = np.full(first.scores.shape, np.nan)
    ok = den != 0.0
    out[ok] = num[ok] / den[ok]
    return SignalPanel(dates=first.dates, assets=first.assets, scores=out)


# ---------------------------------------------------------------------------
# residual returns and predictability
# ---------------------------------------------------------------------------

# Power iteration for the leading correlation mode (`_leading_vector`): it
# stops once successive unit iterates differ by less than _POWER_TOL, accepts
# an iterate v only if |A v - lam v| <= _RAYLEIGH_TOL * lam, and past
# _POWER_MAX_ITER steps (a spectral gap too small to resolve) falls back to
# eigh, at about the cost of that many steps.
_POWER_TOL = 1e-13
_RAYLEIGH_TOL = 1e-12
_POWER_MAX_ITER = 100


def _leading_vector(matvec, start: np.ndarray, floor: float = 0.0) -> np.ndarray:
    """Unit leading eigenvector of a symmetric positive semi-definite matrix
    A known only through `matvec`, which maps a vector or an (n, k) block.

    Power iteration v <- A v / |A v| from `start` (non-zero). The returned
    vector has passed the Rayleigh check above, and its eigenvalue is at
    least `floor`, a lower bound on the top eigenvalue such as A's largest
    diagonal entry. The floor rejects a start that is itself a lesser
    eigenvector below it, as all ones is for two assets with equal window
    counts that move against each other. Otherwise A is formed as
    matvec(I) and handed to eigh. The sign is left as found.
    """
    v = start / np.linalg.norm(start)
    for _ in range(_POWER_MAX_ITER):
        w = matvec(v)
        lam = float(v @ w)
        if not lam > 0:
            break
        nxt = w / np.linalg.norm(w)
        if np.linalg.norm(nxt - v) < _POWER_TOL:
            if (lam >= (1.0 - _RAYLEIGH_TOL) * floor
                    and np.linalg.norm(w - lam * v) <= _RAYLEIGH_TOL * lam):
                return v
            break
        v = nxt
    return np.linalg.eigh(matvec(np.eye(len(v))))[1][:, -1]


def residual_returns(panel: ReturnsPanel, lookback_days: int = 250,
                     pool: PoolMask | None = None,
                     min_frac: float = 0.8) -> np.ndarray:
    """Strip each stock's projection on the leading correlation mode.

    Per date t, the leading eigenvector v of the trailing correlation
    matrix of daily returns (sign chosen so that sum(v) >= 0) defines a
    market-mode series mode = z v, where z holds the window's standardized
    returns with gaps imputed at the mean (z = 0). Each stock's return is
    regressed on the mode over the same window and the fitted component
    removed: resid_i = r_i - beta_i * mode_t.

    An asset takes part on date t if it has a return that day, at least
    min_frac of the window valid, is in `pool` (when given), and is not
    constant: a window standard deviation at most 1e-12 of its mean
    absolute return drops it. Window counts and means come from
    `window_sums` over the whole panel. The standard deviation comes from
    the centred window that z is built from: one from cumulative sums of
    squares would bury a constant asset's zero spread in rounding error.
    The correlation matrix is never formed: v comes from `_leading_vector`
    on u -> z'(z u), started from the previous date's vector restricted to
    today's assets (all ones on the first date). Returns a (T, N) array,
    NaN where undefined.
    """
    ret = panel.field("ret")
    t_total, n = ret.shape
    out = np.full((t_total, n), np.nan)
    if lookback_days < 10:
        raise SignalError("lookback_days too short")
    min_obs = int(np.ceil(min_frac * lookback_days))
    valid = np.isfinite(ret)
    cnt = window_sums(valid.astype(float), lookback_days)
    eligible = valid & (cnt >= min_obs)
    if pool is not None:
        eligible &= pool.mask
    with np.errstate(invalid="ignore", divide="ignore"):
        mean = window_sums(np.where(valid, ret, 0.0), lookback_days) / cnt
        abs_mean = window_sums(np.where(valid, np.abs(ret), 0.0),
                               lookback_days) / cnt
    prev = np.zeros(n)
    for t in range(lookback_days - 1, t_total):
        idx = np.nonzero(eligible[t])[0]
        if len(idx) < 2:
            continue
        dev = ret[t - lookback_days + 1:t + 1, idx] - mean[t, idx]
        dev[~np.isfinite(dev)] = 0.0
        # corrected two-pass variance: the sum of dev takes out the rounding
        # error of the window mean, so a constant asset reads as constant
        c = cnt[t, idx]
        sq = np.einsum("ij,ij->j", dev, dev)
        var = np.maximum(sq - np.sum(dev, axis=0) ** 2 / c, 0.0) / c
        keep = var > (1e-12 * abs_mean[t, idx]) ** 2
        if not np.all(keep):
            idx, dev, sq, var = idx[keep], dev[:, keep], sq[keep], var[keep]
            if len(idx) < 2:
                continue
        sd = np.sqrt(var)
        z = dev / sd
        start = prev[idx]
        # z'z has the diagonal sq / var, a floor under its top eigenvalue
        v = _leading_vector(lambda u: z.T @ (z @ u),
                            start if np.any(start) else np.ones(len(idx)),
                            floor=float(np.max(sq / var)))
        if np.sum(v) < 0:
            v = -v
        prev[:] = 0.0
        prev[idx] = v
        mode = z @ v
        var_mode = float(mode @ mode)
        if var_mode <= 0:
            continue
        betas = sd * (z.T @ mode) / var_mode
        out[t, idx] = ret[t, idx] - betas * mode[-1]
    return out


@dataclass(frozen=True)
class PredictabilityCurve:
    """Binned descriptor-vs-future-residual curve with per-side slopes.

    The two slopes are fit jointly by weighted least squares with one shared
    intercept: residualizing against the leading mode removes the
    cross-sectional average response, which shows up as a common offset of
    the whole curve, and a through-origin fit would fold that offset into
    the slopes and bias their ratio toward one. slope_ratio compares the
    short side to the long side and is read against the accretive-shorts
    threshold.
    """

    bin_x: np.ndarray
    bin_y: np.ndarray
    bin_se: np.ndarray
    bin_count: np.ndarray
    intercept: float
    positive_slope: float
    negative_slope: float
    positive_slope_se: float
    negative_slope_se: float
    slope_ratio: float
    n_obs: int
    threshold: float = field(default_factory=lambda: float(shorts_threshold(1.0)))

    @property
    def above_threshold(self) -> bool:
        return bool(np.isfinite(self.slope_ratio) and self.slope_ratio > self.threshold)


def _forward_mean(resid: np.ndarray, horizon_days: int) -> np.ndarray:
    """Mean residual over [t+1, t+horizon]; NaN unless the window is full."""
    t_total, n = resid.shape
    out = np.full((t_total, n), np.nan)
    if t_total <= horizon_days:
        return out
    valid = np.isfinite(resid)
    # the trailing window ending at t + horizon is the forward one from t
    sums = window_sums(np.where(valid, resid, 0.0), horizon_days)[horizon_days:]
    full = window_sums(valid.astype(float), horizon_days)[horizon_days:] == horizon_days
    out[:t_total - horizon_days][full] = sums[full] / horizon_days
    return out


def _bin_weights(se: np.ndarray) -> np.ndarray:
    """Inverse-variance weights; degenerate bins borrow the largest weight."""
    se = np.asarray(se, dtype=float)
    w = np.empty(len(se))
    usable = np.isfinite(se) & (se > 0)
    if np.any(usable):
        w[usable] = 1.0 / se[usable] ** 2
        w[~usable] = np.max(w[usable])
    else:
        w[:] = 1.0
    return w


def _solve_wls(x_cols: list[np.ndarray], y: np.ndarray, w: np.ndarray):
    """Weighted normal equations; returns (theta, standard errors) or None
    when the system is singular."""
    design = np.column_stack(x_cols)
    a = design.T @ (w[:, None] * design)
    b = design.T @ (w * y)
    if np.linalg.cond(a) > 1e12:
        return None
    theta = np.linalg.solve(a, b)
    ses = np.sqrt(np.diag(np.linalg.inv(a)))
    return theta, ses


def _two_slope_fit(bin_x, bin_y, bin_se):
    """Per-sign slopes with one shared intercept.

    Returns (intercept, pos_slope, neg_slope, pos_se, neg_se). A side whose
    bins do not span at least two distinct abscissas leaves its slope
    undefined; if only one side is identifiable it is fit alone with its
    own intercept.
    """
    w = _bin_weights(bin_se)
    pos = bin_x > 0
    neg = bin_x < 0
    pos_ok = len(np.unique(bin_x[pos])) >= 2
    neg_ok = len(np.unique(bin_x[neg])) >= 2
    ones = np.ones(len(bin_x))
    if pos_ok and neg_ok:
        fit = _solve_wls(
            [ones, np.where(pos, bin_x, 0.0), np.where(neg, bin_x, 0.0)],
            bin_y, w,
        )
        if fit is not None:
            (b0, sp, sn), (_, ep, en) = fit
            return float(b0), float(sp), float(sn), float(ep), float(en)
        pos_ok = neg_ok = False
    if pos_ok:
        fit = _solve_wls([ones[pos], bin_x[pos]], bin_y[pos], w[pos])
        if fit is not None:
            (b0, sp), (_, ep) = fit
            return float(b0), float(sp), np.nan, float(ep), np.nan
    if neg_ok:
        fit = _solve_wls([ones[neg], bin_x[neg]], bin_y[neg], w[neg])
        if fit is not None:
            (b0, sn), (_, en) = fit
            return float(b0), np.nan, float(sn), np.nan, float(en)
    return np.nan, np.nan, np.nan, np.nan, np.nan


def predictability_curve(scores, resid: np.ndarray,
                         horizon_days: int = HORIZON_DAYS,
                         n_bins: int = N_BINS) -> PredictabilityCurve:
    """Pool (score, future mean residual) pairs into equal-count bins and
    fit one slope per predictor sign around a shared intercept (see
    `PredictabilityCurve`).

    Sides with fewer than two bins leave their slope (and the ratio)
    undefined.
    """
    if horizon_days < 1:
        raise SignalError("horizon_days must be at least 1")
    if n_bins < 2:
        raise SignalError("n_bins must be at least 2")
    score_arr = scores.scores if isinstance(scores, SignalPanel) else np.asarray(scores)
    if score_arr.shape != resid.shape:
        raise SignalError("scores and residuals must be aligned")
    y = _forward_mean(resid, horizon_days)
    ok = np.isfinite(score_arr) & np.isfinite(y)
    x = score_arr[ok]
    yv = y[ok]
    if len(x) < n_bins:
        raise SignalError("not enough observations to bin")
    order = np.argsort(x, kind="stable")
    chunks = [c for c in np.array_split(order, n_bins) if len(c) > 0]
    bin_x = np.array([float(np.mean(x[c])) for c in chunks])
    bin_y = np.array([float(np.mean(yv[c])) for c in chunks])
    bin_count = np.array([len(c) for c in chunks])
    bin_se = np.array([
        float(np.std(yv[c], ddof=1) / np.sqrt(len(c))) if len(c) > 1 else np.nan
        for c in chunks
    ])
    intercept, pos_slope, neg_slope, pos_se, neg_se = _two_slope_fit(
        bin_x, bin_y, bin_se,
    )
    if np.isfinite(pos_slope) and np.isfinite(neg_slope) and pos_slope != 0:
        ratio = neg_slope / pos_slope
    else:
        ratio = np.nan
    return PredictabilityCurve(
        bin_x=bin_x, bin_y=bin_y, bin_se=bin_se, bin_count=bin_count,
        intercept=intercept, positive_slope=pos_slope, negative_slope=neg_slope,
        positive_slope_se=pos_se, negative_slope_se=neg_se,
        slope_ratio=ratio, n_obs=int(len(x)),
    )


@dataclass(frozen=True)
class BootstrapCI:
    """Slope-ratio percentile band plus bootstrap slope inference.

    The per-side slope standard errors here are the honest ones: naive
    per-bin errors ignore both the overlap of consecutive forward windows
    (a horizon-fold variance understatement) and cross-sectional residual
    correlation, which the block/asset resampling captures.
    """

    point: float
    lo: float
    hi: float
    samples: np.ndarray
    positive_slope: float
    positive_slope_se: float
    negative_slope: float
    negative_slope_se: float


def bootstrap_slope_ratio(scores, resid: np.ndarray,
                          horizon_days: int = HORIZON_DAYS,
                          n_boot: int = 200, seed: int = 0,
                          block_days: int | None = None) -> BootstrapCI:
    """Block bootstrap over dates crossed with an asset bootstrap.

    The slope noise has three components: common time-series swings plus
    the serial correlation injected by overlapping forward windows (handled
    by resampling contiguous date blocks of about twice the horizon), and a
    cross-sectional part where each asset's realized mean residual acts as
    a fixed effect (handled by resampling assets). Every (date, asset) pair
    is weighted by the product of its multiplicities. Reports the 95%
    percentile band of the ratio and bootstrap standard errors for both
    slopes; the point estimates are the unbinned raw-pair fit of the same
    shared-intercept two-slope model the curve uses.
    """
    score_arr = scores.scores if isinstance(scores, SignalPanel) else np.asarray(scores)
    y = _forward_mean(resid, horizon_days)
    ok = np.isfinite(score_arr) & np.isfinite(y)
    if not np.any(ok):
        raise SignalError("no usable observations for the bootstrap")
    if block_days is None:
        block_days = 2 * horizon_days
    xp = np.where(ok & (score_arr > 0), score_arr, 0.0)
    xn = np.where(ok & (score_arr < 0), score_arr, 0.0)
    yy = np.where(ok, y, 0.0)
    # (T, N) entries of X'X and X'y for design columns (1, x_pos, x_neg)
    mats = [ok.astype(float), xp, xn, xp * xp, xn * xn, yy, xp * yy, xn * yy]
    t, n = ok.shape
    block = min(block_days, t)
    n_blocks = max(1, int(np.ceil(t / block)))

    def slopes(tot):
        count, sxp, sxn, sxxp, sxxn, sy, sxyp, sxyn = tot
        a = np.array([
            [count, sxp, sxn],
            [sxp, sxxp, 0.0],
            [sxn, 0.0, sxxn],
        ])
        b = np.array([sy, sxyp, sxyn])
        if sxxp <= 0 or sxxn <= 0 or np.linalg.cond(a) > 1e12:
            return np.nan, np.nan
        _, sp, sn = np.linalg.solve(a, b)
        return sp, sn

    point_sp, point_sn = slopes([np.ones(t) @ m @ np.ones(n) for m in mats])
    # the block of dates that starts at s sums to the trailing window that
    # ends at s + block - 1, so a draw adds up n_blocks rows of window sums
    sums = np.empty((t, len(mats), n))
    for k, m in enumerate(mats):
        sums[:, k] = window_sums(m, block)
    del mats
    rng = np.random.Generator(np.random.Philox(seed))
    sp_samples = np.empty(n_boot)
    sn_samples = np.empty(n_boot)
    for k in range(n_boot):
        starts = rng.integers(0, max(t - block, 0) + 1, size=n_blocks)
        am = np.bincount(rng.integers(0, n, size=n), minlength=n).astype(float)
        sp_samples[k], sn_samples[k] = slopes(
            sums[starts + block - 1].sum(axis=0) @ am)
    with np.errstate(invalid="ignore", divide="ignore"):
        samples = sn_samples / sp_samples
    finite = samples[np.isfinite(samples)]
    if len(finite) < max(10, n_boot // 2):
        raise SignalError("bootstrap produced too few finite ratios")
    lo, hi = np.percentile(finite, [2.5, 97.5])
    point = point_sn / point_sp if point_sp not in (0.0,) else np.nan
    return BootstrapCI(
        point=float(point), lo=float(lo), hi=float(hi), samples=samples,
        positive_slope=float(point_sp),
        positive_slope_se=float(np.nanstd(sp_samples, ddof=1)),
        negative_slope=float(point_sn),
        negative_slope_se=float(np.nanstd(sn_samples, ddof=1)),
    )
