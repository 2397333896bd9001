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

from dataclasses import dataclass

import numpy as np

from .data import (
    PoolMask, ReturnsPanel, forward_fill_field, rolling_vols, window_sums,
)
from .toy_model import shorts_threshold


class SignalError(ValueError):
    """Invalid signal construction input."""


FACTOR_IDS = ("MOM", "VALUEEAR", "LOWVOL", "SMB", "ROA")

MOM_WINDOW = (-252, -21)  # rows t-252 .. t-21: 11 months lagged 1
MOM_MIN_OBS = 120
LOWVOL_WINDOW = 250
LOWVOL_MIN_OBS = 120
SMB_WINDOW = (-59, -20)   # 40 days ending 20 days ago
SMB_MIN_OBS = 20

# predictability defaults: forward window of the mean residual, and bins
HORIZON_DAYS = 21
N_BINS = 20
# least values of the predictability arguments, checked by `_check_args`
_ARG_MIN = {"horizon_days": 1, "n_bins": 2, "block_days": 1}
# the slope ratio above which shorts are accretive, at equal residual variances
SLOPE_RATIO_THRESHOLD = float(shorts_threshold(1.0))


@dataclass(frozen=True)
class SignalPanel:
    """`factor_signal`'s result: one factor's date x asset rank-normalized
    scores. Every other signal function takes and returns the bare (T, N)
    score array."""

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
    # NaN sorts last under any kind; each tie group takes its average rank,
    # so the order within a group does not matter
    order = np.argsort(x, axis=1)
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

def _window_mean(arr: np.ndarray, lo: int, hi: int, min_obs: int) -> np.ndarray:
    """Row t holds the column mean of the finite values over rows t+lo ..
    t+hi inclusive; NaN where that window runs off the array or holds fewer
    than min_obs values."""
    t_total = len(arr)
    out = np.full(arr.shape, np.nan)
    valid = np.isfinite(arr)
    cnt = window_sums(valid.astype(float), hi - lo + 1)
    total = window_sums(np.where(valid, arr, 0.0), hi - lo + 1)
    # the trailing window ending at row t + hi is the one of row t
    first, stop = max(-lo, 0), min(t_total, t_total - hi)
    if first < stop:
        c, s = cnt[first + hi:stop + hi], total[first + hi:stop + hi]
        ok = c >= min_obs
        out[first:stop][ok] = s[ok] / c[ok]
    return out


def _ratio(num: np.ndarray, den: np.ndarray) -> np.ndarray:
    """num / den where both are present and den is positive, NaN elsewhere."""
    out = np.full(num.shape, np.nan)
    ok = np.isfinite(num) & np.isfinite(den) & (den > 0)
    out[ok] = num[ok] / den[ok]
    return out


def _mom(panel: ReturnsPanel) -> np.ndarray:
    return _window_mean(panel.field("ret"), *MOM_WINDOW, MOM_MIN_OBS)


def _lowvol(panel: ReturnsPanel) -> np.ndarray:
    out = -rolling_vols(panel.field("ret"), LOWVOL_WINDOW, min_obs=LOWVOL_MIN_OBS)
    out[:LOWVOL_WINDOW - 1] = np.nan
    return out


def _smb(panel: ReturnsPanel) -> np.ndarray:
    return -_window_mean(panel.field("mcap"), *SMB_WINDOW, SMB_MIN_OBS)


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


def scores_from_values(panel: ReturnsPanel, values: np.ndarray) -> np.ndarray:
    """Rank-normalize arbitrary per-asset values into a constant-in-time
    (T, N) score array (ground-truth loadings, externally supplied scores)."""
    return np.tile(rank_normalize(np.asarray(values, dtype=float)), (panel.n_dates, 1))


# ---------------------------------------------------------------------------
# slowing and blending
# ---------------------------------------------------------------------------

def smooth_ema(raw: np.ndarray, span_days: int = 150) -> np.ndarray:
    """Exponential moving average down each column of a (T, N) score array,
    with lam = 2 / (span + 1).

    Assets initialize at their first valid raw score. On masked days the
    state is carried unchanged (and the output stays masked), so a gap does
    not reset the average. To read the smoothing length as a half-life h
    instead of a span, pass span_days = 2 / (1 - 0.5 ** (1 / h)) - 1.
    """
    if span_days < 1:
        raise SignalError("span_days must be positive")
    lam = 2.0 / (span_days + 1.0)
    out = np.full(raw.shape, np.nan)
    state = np.full(raw.shape[1], np.nan)
    # rows before the first score leave out and state all NaN
    scored = np.flatnonzero(np.any(np.isfinite(raw), axis=1))
    for t in range(scored[0] if len(scored) else raw.shape[0], raw.shape[0]):
        valid = np.isfinite(raw[t])
        fresh = valid & ~np.isfinite(state)
        state[fresh] = raw[t, fresh]
        cont = valid & ~fresh
        state[cont] = (1.0 - lam) * state[cont] + lam * raw[t, cont]
        out[t, valid] = state[valid]
    return out


def blend(signals: list[np.ndarray], weights) -> np.ndarray:
    """Weighted cell-wise combination of (T, N) score arrays of one shape.

    Each cell averages over the factors valid there, renormalized by the
    sum of their weights, so a factor going missing does not shrink the
    combined score.
    """
    if not signals:
        raise SignalError("blend needs at least one signal")
    weights = np.asarray(weights, dtype=float)
    if len(weights) != len(signals) or not np.all(np.isfinite(weights)):
        raise SignalError("need one finite weight per signal")
    shape = np.shape(signals[0])
    if any(np.shape(s) != shape for s in signals):
        raise SignalError("signals must have the same shape")
    num = np.zeros(shape)
    den = np.zeros(shape)
    for s, w in zip(signals, weights):
        valid = np.isfinite(s)
        num += np.where(valid, w * s, 0.0)
        den += np.where(valid, w, 0.0)
    out = np.full(shape, np.nan)
    ok = den != 0.0
    out[ok] = num[ok] / den[ok]
    return out


# ---------------------------------------------------------------------------
# residual returns and predictability
# ---------------------------------------------------------------------------

# Power iteration for the leading correlation mode (`_leading_vector`): a
# column stops once successive unit iterates differ by less than _POWER_TOL,
# is accepted only if |A v - lam v| <= _RAYLEIGH_TOL * lam, and past
# _POWER_MAX_ITER steps (a spectral gap too small to resolve) falls back to
# eigh, at about the cost of that many steps.
_POWER_TOL = 1e-13
_RAYLEIGH_TOL = 1e-12
_POWER_MAX_ITER = 100

RESID_MIN_FRAC = 0.8   # least valid share of an asset's residual window

# `residual_returns` takes as many consecutive dates k at once as keep
# k * lookback * n, the multiply-adds of each product of a power step, within
# this many bytes / 8, and no more than the lookback: 83 dates at 200 assets
# and lookback 250, enough that a block's set-up and each step's fixed
# numpy calls are shared by many dates, while wide panels get small blocks
_BLOCK_BYTES = 32 << 20


def _col_dots(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Dot product of each column of a with the same column of b."""
    return np.einsum("ij,ij->j", a, b)


def _leading_vector(matvec, start: np.ndarray, floor=0.0) -> np.ndarray:
    """Unit leading eigenvectors of symmetric positive semi-definite
    matrices A_0 .. A_{k-1}, known only through `matvec(u, cols)`, which
    maps column i of an (n, m) block u to A_{cols[i]} u[:, i].

    Power iteration v <- A v / |A v| on each column of the (n, k) `start`
    (no column zero); a column drops out of the products once it settles.
    A returned column has passed the Rayleigh check above, and its
    eigenvalue is at least its entry of `floor`, a lower bound on A_j's top
    eigenvalue such as its largest diagonal entry. The floor rejects a
    start that is itself a lesser eigenvector below it, as all ones is for
    two assets with equal window counts that move against each other.
    Otherwise A_j is formed as matvec(I, j) and handed to eigh, without
    the rows and columns its zero diagonal entries leave empty. Signs are
    left as found.
    """
    n, k = start.shape
    v = start / np.sqrt(_col_dots(start, start))
    floor = np.broadcast_to(floor, (k,))
    live, u = np.arange(k), v
    failed = []
    for _ in range(_POWER_MAX_ITER):
        w = matvec(u, live)
        lam = _col_dots(u, w)
        up = lam > 0
        nxt = w / np.sqrt(np.where(up, _col_dots(w, w), 1.0))
        step = nxt - u
        moving = up & (_col_dots(step, step) >= _POWER_TOL ** 2)
        if not np.all(moving):
            stop = ~moving
            lam, resid = lam[stop], w[:, stop] - lam[stop] * u[:, stop]
            good = (up[stop] & (lam >= (1.0 - _RAYLEIGH_TOL) * floor[live[stop]])
                    & (_col_dots(resid, resid) <= (_RAYLEIGH_TOL * lam) ** 2))
            v[:, live[stop]] = u[:, stop]
            failed.extend(live[stop][~good])
            live, nxt = live[moving], nxt[:, moving]
        u = nxt
        if not len(live):
            break
    for j in (*failed, *live):
        a = matvec(np.eye(n), np.full(n, j))
        on = np.diag(a) > 0   # a zero diagonal entry has a zero row and column
        v[:, j] = 0.0
        v[on, j] = np.linalg.eigh(a[np.ix_(on, on)])[1][:, -1]
    return v


def residual_returns(panel: ReturnsPanel, lookback_days: int = 250,
                     pool: PoolMask | None = None) -> np.ndarray:
    """Strip each stock's projection on the leading correlation mode.

    Per date t, dev holds the window's demeaned returns (gaps imputed at
    the mean, dev = 0) and sd each asset's window standard deviation, so
    z = dev D^-1 with D = diag(sd) is the standardized window. The unit
    leading eigenvector v of z'z defines the market mode z v. As
    z'(z v) = lam v and |z v|^2 = lam, each stock's slope on the mode over
    the window is sd * v, and resid = r_t - sd * v * (dev[-1] . (v / sd)),
    the same for v and -v.

    An asset takes part on date t if it has a return that day, at least
    RESID_MIN_FRAC of the window valid, is in `pool` (when given), and is not
    constant: a window standard deviation at most 1e-12 of its mean
    absolute return drops it. Window counts and means come from
    `window_sums` over the whole panel.

    Dates go in blocks of k consecutive dates, k * lookback_days * n within
    `_BLOCK_BYTES` / 8 (83 dates at 200 assets and a 250-day lookback) and
    k no more than lookback_days, with no stack of windows. The
    block's lookback_days + k - 1 rows y, centred once at its last mean,
    give date t's dev as y plus its mean offset delta_t (0 in gaps) on its
    band of rows. The band sums s1 of y and s2 of y * y give the window
    variance (s2 - s1^2 / c) / c, c the window count, in which delta_t
    cancels; a window within its rounding of the constant cut is measured
    about its own mean instead. Each dev sums to zero over its window, so
    z'z has the diagonal c, whose largest entry floors its top eigenvalue,
    and dev[-1] is date t's row of y plus delta_t. One `_leading_vector`
    then runs with a column per date, each started from the previous
    block's last vector restricted to that date's assets (all ones where
    nothing is left). One step for all k dates is y @ Z plus a rank-one
    term in delta, masked to the bands, then y' times that, which needs no
    delta term as each dev sums to zero. A block with gaps takes a product
    with the gap mask in both instead.
    Returns a (T, N) array, NaN where undefined.
    """
    ret = panel.field("ret")
    t_total, n = ret.shape
    out = np.full((t_total, n), np.nan)
    if lookback_days < 10:
        raise SignalError(f"lookback_days must be at least 10, got {lookback_days}")
    if lookback_days > t_total:
        raise SignalError(f"lookback_days = {lookback_days} is longer than "
                          f"the panel's {t_total} dates")
    block = int(np.clip(_BLOCK_BYTES // (8 * lookback_days * max(n, 1)), 1,
                        lookback_days))
    min_obs = int(np.ceil(RESID_MIN_FRAC * lookback_days))
    valid = np.isfinite(ret)
    cnt = window_sums(valid.astype(float), lookback_days)
    eligible = valid & (cnt >= min_obs)
    if pool is not None:
        eligible &= pool.mask
    filled = np.where(valid, ret, 0.0)
    with np.errstate(invalid="ignore", divide="ignore"):
        mean = window_sums(filled, lookback_days) / cnt
        abs_mean = window_sums(np.abs(filled), lookback_days) / cnt
    prev = np.zeros(n)
    for first in range(lookback_days - 1, t_total, block):
        dates = np.arange(first, min(first + block, t_total))
        cols = np.nonzero(np.any(eligible[dates], axis=0))[0]
        if len(cols) < 2:
            continue
        # date t's dev is y + delta[:, t] on its band of rows, 0 in gaps; the
        # centre is defined, as a block is no longer than a window
        centre = mean[dates[-1], cols]
        span = slice(first - lookback_days + 1, dates[-1] + 1)
        mask = valid[span, cols].astype(float)
        y = (filled[span, cols] - centre) * mask
        band = np.arange(len(y))[:, None] - (dates - first)
        band = ((band >= 0) & (band < lookback_days)).astype(float)
        grid = np.ix_(dates, cols)
        c = cnt[grid]
        # the rounding of var grows with delta (at most 4 eps s2): a window
        # that close to the constant cut is measured about its own mean
        s1, s2 = band.T @ y, band.T @ (y * y)
        cut = (1e-12 * abs_mean[grid]) ** 2
        with np.errstate(invalid="ignore", divide="ignore"):
            var = np.maximum(s2 - s1 ** 2 / c, 0.0) / c
            near = eligible[grid] & (np.abs(var - cut) < 4 * np.finfo(float).eps * s2)
        if np.any(near):
            j, a = np.nonzero(near)
            at, col = dates[j, None] - np.arange(lookback_days), cols[a, None]
            dev = (filled[at, col] - mean[dates[j, None], col]) * valid[at, col]
            sq, total = np.sum(dev * dev, axis=1), np.sum(dev, axis=1)
            var[near] = np.maximum(sq - total ** 2 / c[near], 0.0) / c[near]
        part = eligible[grid] & (var > cut)
        go = np.sum(part, axis=1) >= 2
        if not np.any(go):
            continue
        on = np.any(part[go], axis=0)
        dates, cols = dates[go], cols[on]
        grid = np.ix_(dates, cols)
        part, c, var = (x[go][:, on].T for x in (part, c, var))
        y, mask, band = y[:, on], mask[:, on], band[:, go]
        sd = np.sqrt(var, out=np.zeros_like(var), where=part)
        inv_sd = np.divide(1.0, sd, out=np.zeros_like(sd), where=part)
        # each dev sums to zero, so z'z has the diagonal c
        floor = np.max(c * part, axis=0)
        delta = np.where(part, centre[on, None] - mean[grid].T, 0.0)
        last = y[dates - first + lookback_days - 1].T + delta
        block_gaps = not np.all(mask)

        def matvec(u, js):
            scale, shift = inv_sd[:, js], delta[:, js]
            z = u * scale
            w = y @ z
            w += mask @ (shift * z) if block_gaps else _col_dots(shift, z)
            w *= band[:, js]
            back = y.T @ w
            if block_gaps:
                back += shift * (mask.T @ w)
            back *= scale
            return back

        start = prev[cols, None] * part
        cold = ~np.any(start, axis=0)
        start[:, cold] = part[:, cold]
        v = _leading_vector(matvec, start, floor)
        prev[:] = 0.0
        prev[cols] = v[:, -1]
        proj = np.einsum("at,at->t", last * inv_sd, v)
        out[grid] = np.where(part, ret[grid].T - sd * v * proj, np.nan).T
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
    threshold, `SLOPE_RATIO_THRESHOLD`.
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

    @property
    def above_threshold(self) -> bool:
        return bool(np.isfinite(self.slope_ratio)
                    and self.slope_ratio > SLOPE_RATIO_THRESHOLD)


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


def _normal_fit(a: np.ndarray, b: np.ndarray):
    """Solution of the normal equations a theta = b and its standard errors
    sqrt(diag(inv(a))), or None when a is singular (condition number above
    1e12). The one solve of the shared-intercept two-slope model, on bins
    (`_two_slope_fit`) and on raw pairs (`bootstrap_slope_ratio`)."""
    if np.linalg.cond(a) > 1e12:
        return None
    return np.linalg.solve(a, b), np.sqrt(np.diag(np.linalg.inv(a)))


def _two_slope_fit(bin_x, bin_y, bin_se):
    """Per-sign slopes with one shared intercept, by weighted least squares.

    Returns (intercept, pos_slope, neg_slope, pos_se, neg_se). A side whose
    bins do not span at least two distinct abscissas leaves its slope
    undefined. Both sides identifiable are fit on all bins; one alone is
    fit on its own bins with its own intercept. No identifiable side, or a
    singular system, leaves all five undefined.
    """
    sides = (bin_x > 0, bin_x < 0)
    ok = [len(np.unique(bin_x[s])) >= 2 for s in sides]
    if not any(ok):
        return (np.nan,) * 5
    rows = np.ones(len(bin_x), dtype=bool) if all(ok) else sides[ok.index(True)]
    design = np.column_stack([np.ones(len(bin_x))] + [
        np.where(s, bin_x, 0.0) for s, good in zip(sides, ok) if good])[rows]
    w = _bin_weights(bin_se)[rows]
    fit = _normal_fit(design.T @ (w[:, None] * design), design.T @ (w * bin_y[rows]))
    if fit is None:
        return (np.nan,) * 5
    theta, ses = fit
    # column 1 + i of the design is the i-th identifiable side
    out = np.full(5, np.nan)
    on = np.flatnonzero(ok)
    out[0], out[1 + on], out[3 + on] = theta[0], theta[1:], ses[1:]
    return tuple(map(float, out))


def _slope_ratio(pos_slope, neg_slope) -> float:
    """Short side over long side: neg / pos where both slopes are finite
    and pos is not zero, NaN otherwise."""
    if np.isfinite(pos_slope) and np.isfinite(neg_slope) and pos_slope != 0:
        return neg_slope / pos_slope
    return np.nan


def _check_args(**args: int) -> None:
    """Each predictability argument given is at least its `_ARG_MIN`."""
    for name, value in args.items():
        if value < _ARG_MIN[name]:
            raise SignalError(f"{name} must be at least {_ARG_MIN[name]}, got {value}")


def forward_mean(resid: np.ndarray, horizon_days: int = HORIZON_DAYS) -> np.ndarray:
    """Row t holds each column's mean residual over rows t+1 .. t+horizon_days;
    NaN where that window runs off the panel or has a gap."""
    _check_args(horizon_days=horizon_days)
    return _window_mean(resid, 1, horizon_days, horizon_days)


def _stable_argsort(x: np.ndarray) -> np.ndarray:
    """np.argsort(x, kind="stable") of a 1-D array without NaN, from two
    plain sorts: the first numbers x's distinct values in order, and the
    keys group * len(x) + index, which have no ties, then sort in the
    stable order. Exact while len(x) ** 2 < 2 ** 63."""
    n = len(x)
    plain = np.argsort(x)
    srt = x[plain]
    group = np.cumsum(np.concatenate(([0], srt[1:] != srt[:-1])))
    return np.sort(group * n + plain) % n


def predictability_curve(scores: np.ndarray, forward: np.ndarray,
                         n_bins: int = N_BINS) -> PredictabilityCurve:
    """Pool (score, forward mean residual) pairs into equal-count bins and
    fit one slope per predictor sign around a shared intercept (see
    `PredictabilityCurve`). `scores` is a (T, N) score array, such as
    `factor_signal`'s `scores`, and `forward` is `forward_mean` of the
    residuals, aligned with it.

    A side whose bins span fewer than two distinct scores leaves its slope
    (and the ratio) undefined.
    """
    _check_args(n_bins=n_bins)
    scores = np.asarray(scores)
    if scores.shape != forward.shape:
        raise SignalError("scores and forward means must be aligned")
    ok = np.isfinite(scores) & np.isfinite(forward)
    x = scores[ok]
    yv = forward[ok]
    if len(x) < n_bins:
        raise SignalError("not enough observations to bin")
    # bin_y and bin_se sum each bin in the stable order
    order = _stable_argsort(x)
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
    return PredictabilityCurve(
        bin_x=bin_x, bin_y=bin_y, bin_se=bin_se, bin_count=bin_count,
        intercept=intercept, positive_slope=pos_slope, negative_slope=neg_slope,
        positive_slope_se=pos_se, negative_slope_se=neg_se,
        slope_ratio=_slope_ratio(pos_slope, neg_slope), n_obs=int(len(x)),
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


def bootstrap_slope_ratio(scores: np.ndarray, resid: np.ndarray,
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
    shared-intercept two-slope model the curve uses, through the same
    `_normal_fit`. `scores` is a (T, N) score array aligned with `resid`.
    """
    y = forward_mean(resid, horizon_days)
    if block_days is None:
        block_days = 2 * horizon_days
    _check_args(block_days=block_days)
    scores = np.asarray(scores)
    if scores.shape != y.shape:
        raise SignalError("scores and residuals must be aligned")
    ok = np.isfinite(scores) & np.isfinite(y)
    if not np.any(ok):
        raise SignalError("no usable observations for the bootstrap")
    xp = np.where(ok & (scores > 0), scores, 0.0)
    xn = np.where(ok & (scores < 0), scores, 0.0)
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
        fit = None if sxxp <= 0 or sxxn <= 0 else \
            _normal_fit(a, np.array([sy, sxyp, sxyn]))
        return (np.nan, np.nan) if fit is None else tuple(fit[0][1:])

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
    return BootstrapCI(
        point=float(_slope_ratio(point_sp, point_sn)), lo=float(lo),
        hi=float(hi), samples=samples,
        positive_slope=float(point_sp),
        positive_slope_se=float(np.nanstd(sp_samples, ddof=1)),
        negative_slope=float(point_sn),
        negative_slope_se=float(np.nanstd(sn_samples, ddof=1)),
    )
