"""Portfolio construction and the daily backtest loop.

Two constructions are provided:

  * hedged long-only (LH): a daily long-only optimization that maximizes the
    overlap between the book and the signal net of trading costs, under an
    AUM budget and a per-stock cap, hedged with a short index-futures
    overlay sized from rolling betas;

  * long-short (LS): a dollar-neutral book, orthogonal to the leading mode
    of a cleaned correlation matrix, at an annualized volatility target
    under the per-stock cap. It does not weigh trading costs: the backtest
    charges them, but the book is the same at every cost level. It is
    proportional to the demeaned signal only until a cap binds.

The long-only problem is separable and concave (a linear signal term minus
a convex piecewise 3/2-power cost per asset) with box constraints and one
budget coupling, so it is solved exactly through the single dual price of
the budget: every asset takes its closed-form best response to that price,
and the price that fills the budget is found among the sorted breakpoints
of the responses (water filling; Patriksson, "A survey on the continuous
nonlinear resource allocation problem", EJOR 2008). At zero cost every
response is a step at the asset's score, and the same search fills the book
best score first, meeting a minimum-investment floor exactly.

The capped LS book is the Euclidean projection of the scaled signal onto
the neutral books within the caps, at the least scale whose predicted
variance is the target. The projection is piecewise linear in the scale, so
the scale is found exactly by walking from one cap event to the next; the
target is out of reach only when the walk ends below it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .costs import (
    TRADING_DAYS, CostModelParams, borrow_cost, financing_cost, impact_rates, trade_cost,
)
from .data import (
    VOL_MIN_OBS, PoolMask, ReturnsPanel, _fmt_column, month_start_indices,
    rolling_vols, window_sums,
)


class PortfolioError(ValueError):
    """Invalid portfolio construction input or state."""


class InfeasibleConstraints(PortfolioError):
    """The requested constraint set has no feasible portfolio."""


# ---------------------------------------------------------------------------
# betas
# ---------------------------------------------------------------------------

def _ols_slope(n, sx, sy, sxx, sxy, min_obs: int) -> np.ndarray:
    """OLS slopes of y on x from the window moments (count, sums, sums of
    squares and cross products). NaN where fewer than min_obs pairs, or
    where x is constant: its centred sum of squares is at most 1e-12 of the
    raw one, i.e. at the rounding level of the differenced moments."""
    out = np.full(np.shape(n), np.nan)
    with np.errstate(invalid="ignore", divide="ignore"):
        denom = sxx - sx * sx / np.maximum(n, 1)
        num = sxy - sx * sy / np.maximum(n, 1)
        ok = (n >= min_obs) & (denom > 1e-12 * sxx)
        out[ok] = num[ok] / denom[ok]
    return out


def _beta_min_obs(window: int) -> int:
    """Fewest returns joint with the index that a beta window needs."""
    return max(2, window // 2)


def rolling_betas(returns: np.ndarray, index_returns: np.ndarray,
                  window: int = 250) -> np.ndarray:
    """Trailing-window betas for every date, windows ending at (including) t."""
    valid = np.isfinite(returns) & np.isfinite(index_returns)[:, None]
    x = np.where(valid, index_returns[:, None], 0.0)
    y = np.where(valid, returns, 0.0)
    return _ols_slope(*(window_sums(a, window) for a in (
        valid.astype(float), x, y, x * x, x * y)), _beta_min_obs(window))


# ---------------------------------------------------------------------------
# correlation cleaning
# ---------------------------------------------------------------------------

# fewest days in a window that `clean_correlation` accepts
MIN_CLEAN_DAYS = 60


@dataclass(frozen=True)
class CleanedCorrelation:
    """Eigenvalue-clipped correlation matrix with per-asset daily vols.

    Eigenvalues below the pure-noise edge (1 + sqrt(N/T))^2 are replaced by
    their average (trace preserved), eigenvectors kept, and the diagonal
    renormalized back to one.
    """

    asset_indices: np.ndarray
    corr: np.ndarray
    vols: np.ndarray
    n_clipped: int
    leading_eigenvector: np.ndarray
    leading_eigenvalue: float


def _constant_columns(x: np.ndarray) -> np.ndarray:
    """Columns of a (T, N) return window that are constant up to rounding:
    all equal, or a standard deviation at most 1e-12 of the mean absolute
    return."""
    scale = np.maximum(np.mean(np.abs(x), axis=0), 1e-300)
    return np.all(x == x[0:1], axis=0) | (np.std(x, axis=0) <= 1e-12 * scale)


def clean_correlation(returns_window: np.ndarray,
                      asset_indices: np.ndarray | None = None) -> CleanedCorrelation:
    """Clean the sample correlation matrix of a (T, N) return window."""
    x = np.asarray(returns_window, dtype=float)
    if x.ndim != 2:
        raise PortfolioError("returns window must be 2-D (days x assets)")
    t, n = x.shape
    asset_indices = np.arange(n) if asset_indices is None else np.asarray(asset_indices)
    if np.any(~np.isfinite(x)):
        raise PortfolioError("returns window contains missing values")
    if t < MIN_CLEAN_DAYS:
        raise PortfolioError(f"need at least {MIN_CLEAN_DAYS} days to clean, got {t}")
    degenerate = _constant_columns(x)
    if np.any(degenerate):
        raise PortfolioError("degenerate (constant) return series: "
                             f"column {asset_indices[np.argmax(degenerate)]}")
    vols = np.std(x, axis=0, ddof=1)
    z = (x - np.mean(x, axis=0)) / np.std(x, axis=0)
    corr = z.T @ z / t
    corr = 0.5 * (corr + corr.T)
    eigvals, eigvecs = np.linalg.eigh(corr)
    # the eigenvalues average 1 and the edge is above 1, so the bulk is
    # never empty
    edge = (1.0 + math.sqrt(n / t)) ** 2
    bulk = eigvals < edge
    n_clipped = int(np.sum(bulk))
    cleaned_vals = eigvals.copy()
    cleaned_vals[bulk] = float(np.mean(eigvals[bulk]))
    cleaned = (eigvecs * cleaned_vals) @ eigvecs.T
    d = np.sqrt(np.diag(cleaned))
    cleaned = cleaned / np.outer(d, d)
    cleaned = 0.5 * (cleaned + cleaned.T)
    np.fill_diagonal(cleaned, 1.0)
    top_vals, top_vecs = np.linalg.eigh(cleaned)
    v = top_vecs[:, -1]
    if np.sum(v) < 0:
        v = -v
    return CleanedCorrelation(
        asset_indices=asset_indices, corr=cleaned, vols=vols,
        n_clipped=n_clipped,
        leading_eigenvector=v, leading_eigenvalue=float(top_vals[-1]),
    )


# ---------------------------------------------------------------------------
# long-only optimizer
# ---------------------------------------------------------------------------

def _piece_argmax(lam, a, c, p, d, u):
    """Per-asset argmax over [0, u] of (s - lam)*w - lin*|w - p| - k*|w - p|^1.5.

    Vectorized over assets, given a = s - lin, c = s + lin and d = 1.5*k.
    The asset buys while lam < a, sells while lam > c and holds p in
    between; with d = 0 (a purely linear cost) buying and selling run to the
    bounds.
    """
    with np.errstate(divide="ignore", invalid="ignore"):
        w = np.where(lam < a, p + ((a - lam) / d) ** 2,
                     np.where(lam > c, p - ((lam - c) / d) ** 2, p))
    return np.clip(w, 0.0, u)


def _solve_budget_dual(s, p, lin, d, u, budget, floor):
    """Exact maximizer of sum(s*w - lin*|w - p| - (d/1.5)*|w - p|^1.5) over
    {0 <= w <= u, floor <= sum(w) <= budget}.

    Pricing the sum at lam separates the assets: each takes
    _piece_argmax(lam), and the book total is non-increasing in lam. lam is
    0 when that book is feasible, positive when the budget binds and negative
    when the floor binds. Each asset's response has five breakpoints in lam
    (where it hits the cap, stops buying, starts selling, leaves the cap from
    above, hits zero); between breakpoints it is constant or quadratic in
    lam. A binary search over the sorted breakpoints finds the segment that
    holds the target total, and the quadratic is solved there exactly.
    Assets with d = 0 are step functions of lam: at a breakpoint their jumps
    are filled by score, then by index. At zero cost (lin = 0, d = 0 for all)
    that is the greedy fill of the linear program.
    """
    a, c = s - lin, s + lin
    b1 = a - d * np.sqrt(np.maximum(u - p, 0.0))
    b4 = c + d * np.sqrt(np.maximum(p - u, 0.0))
    b5 = c + d * np.sqrt(p)
    step = d == 0
    has_step = bool(np.any(step))
    order = np.lexsort((np.arange(len(s)), -s))

    def unfilled(w, total):
        """total less the book, one asset at a time, best score first: the
        arithmetic of a greedy fill, so the zero-cost book is the greedy
        linear-program book to the last bit."""
        return np.subtract.accumulate(np.concatenate(([total], w[order])))[-1]

    def book(lam):
        """Right and left limits in lam of the per-asset response."""
        w = _piece_argmax(lam, a, c, p, d, u)
        if not has_step:
            return w, w
        return (np.where(step & (c == lam), 0.0, w),
                np.where(step & (a == lam), u, w))

    lo_book, hi_book = book(0.0)
    if unfilled(lo_book, budget) < 0:
        target = budget
    elif unfilled(hi_book, floor) > 0:
        target = floor
    else:
        return _fill_jumps(lo_book, hi_book, order, unfilled(lo_book, floor))

    grid = np.sort(np.concatenate([b1, a, c, b4, b5, [0.0]]))
    # invariant: total(grid[left]) > target >= total(grid[right]), where the
    # total is the right limit; grid[-1] prices every asset out of the book
    left, right = -1, len(grid) - 1
    while right - left > 1:
        probe = (left + right) // 2
        if unfilled(book(grid[probe])[0], target) < 0:
            left = probe
        else:
            right = probe
    lam_hi = grid[right]
    lo_book, hi_book = book(lam_hi)
    if unfilled(hi_book, target) <= 0 or left < 0:
        return _fill_jumps(lo_book, hi_book, order, unfilled(lo_book, target))

    # the total crosses the target strictly inside (lam_lo, lam_hi), where
    # no asset changes regime: sum(w) = A0 + A1*x + A2*x^2 with x = lam - lam_lo
    lam_lo = grid[left]
    mid = 0.5 * (lam_lo + lam_hi)
    up = ~step & (b1 < mid) & (mid < a)
    down = ~step & (b4 < mid) & (mid < b5)
    with np.errstate(divide="ignore"):
        iq = 1.0 / (d * d)
    alpha = a[up] - lam_lo
    beta = lam_lo - c[down]
    fixed = ~(up | down)
    a0 = float(np.sum(_piece_argmax(mid, a, c, p, d, u)[fixed])
               + np.sum(p[up]) + np.sum(p[down])
               + np.sum(alpha * alpha * iq[up]) - np.sum(beta * beta * iq[down]))
    a1 = -2.0 * float(np.sum(alpha * iq[up]) + np.sum(beta * iq[down]))
    a2 = float(np.sum(iq[up]) - np.sum(iq[down]))
    excess = a0 - target
    root = math.sqrt(max(a1 * a1 - 4.0 * a2 * excess, 0.0))
    denom = root - a1
    x = 2.0 * excess / denom if denom > 0 else lam_hi - lam_lo
    lam = lam_lo + min(max(x, 0.0), lam_hi - lam_lo)
    w = _piece_argmax(lam, a, c, p, d, u)
    # lam carries one rounding, which a very liquid asset (tiny d) turns into
    # a visible miss of the target; hand the miss to the moving assets in
    # proportion to their sensitivity dw/dlam
    slope = np.zeros(len(w))
    slope[up] = 2.0 * (a[up] - lam) * iq[up]
    slope[down] = 2.0 * (lam - c[down]) * iq[down]
    total = float(np.sum(slope))
    if total > 0:
        w = np.clip(w + (target - float(np.sum(w))) * (slope / total), 0.0, u)
    return w


def _fill_jumps(lo_book, hi_book, order, short):
    """Raise lo_book toward hi_book by short in total, taking each asset's
    room in `order` (best score first, ties by index) until short runs
    out, as a greedy fill does."""
    room = hi_book - lo_book
    if short <= 0 or not np.any(room > 0):
        return lo_book
    rest = np.subtract.accumulate(np.concatenate(([short], room[order])))
    take = np.empty_like(room)
    take[order] = np.clip(rest[:-1], 0.0, room[order])
    # lo + (hi - lo) can round above hi, above an asset's cap
    return np.minimum(lo_book + take, hi_book)


def _check_min_invested(min_invested: float) -> None:
    if not 0 <= min_invested <= 1:
        raise PortfolioError(f"min_invested must be in [0, 1], got {min_invested!r}")


def _check_cost_aversion(cost_aversion: float) -> None:
    if not 0 <= cost_aversion < math.inf:
        raise PortfolioError(f"cost_aversion must be in [0, inf), got {cost_aversion!r}")


def optimize_long_only(scores: np.ndarray, prev_positions: np.ndarray,
                       adv: np.ndarray, sigma_daily: np.ndarray, aum: float,
                       cost_params: CostModelParams, cap: float = 0.03,
                       cost_aversion: float = 1.0,
                       min_invested: float = 0.0) -> np.ndarray:
    """Daily long-only book: maximize sum(w * score) - trading cost.

    Feasible set: w >= 0, w_i <= cap * aum, sum(w) <= aum, and, when
    min_invested > 0, the optimized assets sum to at least min_invested * aum
    as far as the budget and their caps reach. An asset whose trade cannot
    be priced (`costs.impact_rates` is NaN) is frozen at its previous
    position and excluded from the optimization, at every cost_aversion. A
    missing score means hold, never buy: the asset is capped at its previous
    position and scores zero, so the cost barrier decides how much of it
    survives, and a floor never buys it.

    The returned book is the exact optimum (see _solve_budget_dual) at
    every cost level. At zero cost (no linear rate and no impact, or
    cost_aversion = 0) it is the greedy linear-program fill, and a binding
    floor is met exactly.
    """
    if aum <= 0:
        raise PortfolioError("aum must be positive")
    if not 0 < cap <= 1:
        raise PortfolioError("cap must be in (0, 1]")
    _check_min_invested(min_invested)
    _check_cost_aversion(cost_aversion)
    n = len(scores)
    s = np.where(np.isfinite(scores), np.asarray(scores, dtype=float), 0.0)
    prev = np.maximum(np.where(np.isfinite(prev_positions), prev_positions, 0.0), 0.0)
    k = impact_rates(adv, sigma_daily, cost_params, scale=cost_aversion)
    tradable = ~np.isnan(k)
    frozen = ~tradable & (prev > 0)

    u = cap * aum
    n_free = int(np.sum(tradable))
    if min_invested > 0 and cap * n_free * aum < min_invested * aum * (1 - 1e-12):
        raise InfeasibleConstraints(
            "cap times tradable universe cannot reach the minimum investment"
        )
    budget = max(aum - float(np.sum(prev[frozen])), 0.0)

    out = np.zeros(n)
    out[frozen] = prev[frozen]
    idx = np.nonzero(tradable)[0]
    if len(idx) == 0:
        return out
    ub = np.where(np.isfinite(scores[idx]), u, np.minimum(prev[idx], u))

    lin = cost_aversion * cost_params.linear_rate
    floor = min(min_invested * aum, budget, float(np.sum(ub)))
    out[idx] = _solve_budget_dual(s[idx], prev[idx], lin, 1.5 * k[idx], ub, budget, floor)
    return out


# ---------------------------------------------------------------------------
# the long-short book
# ---------------------------------------------------------------------------

def _least_norm_solve(g: np.ndarray, rhs: np.ndarray) -> tuple[np.ndarray, int]:
    """(m, rank) for the symmetric positive semi-definite 2 x 2 system
    g m = rhs, as np.linalg.lstsq(g, rhs, rcond=1e-13) gives them: an
    eigenvalue at most 1e-13 of the largest counts as zero, and a singular
    g gets the least-norm m."""
    (a, b), (_, c) = g
    top = 0.5 * (a + c) + math.hypot(0.5 * (a - c), b)
    det = a * c - b * b
    if det > 1e-13 * top * top:     # the lesser eigenvalue is det / top
        return np.array([[c, -b], [-b, a]]) @ rhs / det, 2
    if top <= 0:
        return np.zeros_like(rhs), 0
    # rank 1: g's larger column is along its top eigenvector
    e = g[:, 0] if a >= c else g[:, 1]
    e = e / math.hypot(*e)
    return np.outer(e, e @ rhs) / top, 1


def _capped_book(x, v, u, sig, corr, target):
    """(w(a), a) at the least a >= 0 where the daily variance of w(a)*sig
    under corr is target; (the path's last book, inf) if there is none,
    which is the least-norm book among the capped neutral books that
    maximize x.w.

    w(a) = clip(a*x - m1 - m2*v, -u, u) with sum(w) = v.w = 0 projects a*x
    onto the neutral books within the caps. Between cap events (a free
    asset reaching +-u, a capped one leaving its cap) each asset's unclipped
    value is a*r + s, with (m1, m2) from the 2 x 2 normal equations of
    [1, v] on the free set, and the variance is a quadratic in a. Every
    piece takes that solve, and an r at most 1e-9 of max|x| is 0. So an x
    whose neutral part is rounding has r = 0 on the first piece and gets
    the zero book, with a = inf.
    """
    n = len(x)
    side = np.zeros(n)      # +1 at the upper cap, -1 at the lower, 0 free
    lo = 0.0
    b = np.stack([np.ones(n), v])
    for _ in range(4 * n + 4):
        free = side == 0
        bf = b[:, free]
        rhs = np.column_stack([bf @ x[free], b[:, ~free] @ (u * side[~free])])
        m, rank = _least_norm_solve(bf @ bf.T, rhs)
        r, s = x - m[:, 0] @ b, -(m[:, 1] @ b)
        # rounding-level r is 0: pinned or tied free sets, capped assets tied
        # with them, an x with no neutral part
        tiny = np.abs(r) <= 1e-9 * np.max(np.abs(x))
        r[np.where(free, np.sum(free) <= rank or np.all(tiny[free]), tiny)] = 0.0
        ps, qs = np.where(free, r, 0.0) * sig, np.where(free, s, u * side) * sig
        cp, root = corr @ ps, math.inf
        c2, c1, c0 = float(ps @ cp), float(qs @ cp), float(qs @ (corr @ qs))
        # least root past lo; exactly sqrt(target / c2) on the first piece (c1 = c0 = 0)
        h, k = (c1 / c2, (target - c0) / c2) if c2 > 0 else (0.0, -1.0)  # flat: no root
        if h * h + k >= 0:
            root = k / (h + math.sqrt(h * h + k)) if h > 0 else math.sqrt(h * h + k) - h
        edge = np.where(free, np.sign(r), side)     # the bound each asset moves to
        t = np.divide(u * edge - s, r, out=np.full(n, math.inf),
                      where=np.where(free, r != 0, side * r < 0))
        j = int(np.argmin(t))
        hi = max(float(t[j]), lo)
        if root <= hi * (1 + 1e-9):     # both inf: the path ends below the target
            a = max(root, lo)
            return np.where(free, (a if a < math.inf else lo) * r + s, u * side), a
        side[j], lo = (edge[j] if free[j] else 0.0), hi
    raise PortfolioError(f"the capped long-short path ran past {4 * n + 4} pieces")


def build_long_short(scores: np.ndarray, cleaned: CleanedCorrelation,
                     vol_target: float, aum: float,
                     cap: float = 0.03) -> tuple[np.ndarray, float, bool]:
    """Dollar-neutral, market-mode-neutral book scaled to a volatility target.

    scores is a full panel cross-section; the book lives on
    cleaned.asset_indices (assets leaving that set are sold). Returns
    (positions, predicted annual vol as a fraction of aum, warning flag).
    The book is _capped_book's, whatever it costs to trade into. The warning
    marks a target out of reach under the caps, or a signal with no neutral
    part, whose book is flat.
    """
    if vol_target <= 0:
        raise PortfolioError("vol_target must be positive")
    if aum <= 0 or not 0 < cap <= 1:
        raise PortfolioError("bad aum or cap")
    idx = cleaned.asset_indices
    s = np.where(np.isfinite(scores[idx]), scores[idx], 0.0)
    sig = cleaned.vols
    w, a = _capped_book(s, cleaned.leading_eigenvector, cap * aum, sig, cleaned.corr,
                        (vol_target * aum) ** 2 / TRADING_DAYS)
    if not np.any(w):
        return np.zeros(len(scores)), 0.0, True
    out = np.zeros(len(scores))
    out[idx] = w
    sw = w * sig
    pred_vol = math.sqrt(max(float(sw @ (cleaned.corr @ sw)), 0.0) * TRADING_DAYS) / aum
    return out, pred_vol, a == math.inf


# ---------------------------------------------------------------------------
# backtest
# ---------------------------------------------------------------------------

# the backtest refuses a date range with a longer hole in its calendar
_MAX_CALENDAR_GAP_DAYS = 10


@dataclass(frozen=True)
class StrategyConfig:
    """Everything the daily loop needs besides the data itself."""

    mode: str                       # "LH" or "LS"
    aum: float = 1e9
    cap: float = 0.03
    vol_target: float = 0.05        # LS only, annual fraction of AUM
    cost_aversion: float = 1.0      # LH only
    beta_window: int = 250
    cov_window: int = 250
    vol_window: int = 250
    exec_lag: int = 0
    min_invested: float = 0.0

    def __post_init__(self):
        # the windows' least values are the shortest a beta, the correlation
        # clean and a trailing vol are defined on
        for name, ok, need in (
            ("mode", self.mode in ("LH", "LS"), "LH or LS"),
            ("exec_lag", self.exec_lag in (0, 1), "0 or 1"),
            ("aum", 0 < self.aum < math.inf, "positive and finite"),
            ("vol_target", 0 < self.vol_target < math.inf, "positive and finite"),
            ("cap", 0 < self.cap <= 1, "in (0, 1]"),
            ("beta_window", self.beta_window >= 2, "at least 2"),
            ("cov_window", self.cov_window >= MIN_CLEAN_DAYS, f"at least {MIN_CLEAN_DAYS}"),
            ("vol_window", self.vol_window >= VOL_MIN_OBS, f"at least {VOL_MIN_OBS}"),
        ):
            if not ok:
                raise PortfolioError(f"{name} must be {need}, got {getattr(self, name)!r}")
        _check_min_invested(self.min_invested)
        _check_cost_aversion(self.cost_aversion)


@dataclass
class BacktestResult:
    """Daily P&L decomposition plus realized books.

    Cost series are stored as non-positive P&L contributions and the total
    is their fixed-order sum with the return component, so the decomposition
    adds up exactly by construction. vol_warning is 1 on the LS days whose
    volatility target was out of reach (no book within the caps reaches it,
    or the book is flat for want of two eligible assets) and 0 otherwise;
    it is always 0 for LH.
    """

    dates: np.ndarray
    assets: tuple[str, ...]
    mode: str
    aum: float
    ret_pnl: np.ndarray
    trading_cost: np.ndarray
    financing_cost: np.ndarray
    borrow_cost: np.ndarray
    total_pnl: np.ndarray
    traded_notional: np.ndarray
    gross_stock: np.ndarray
    net_stock: np.ndarray
    hedge_notional: np.ndarray
    predicted_vol: np.ndarray
    vol_warning: np.ndarray
    positions: np.ndarray

    COLUMNS = (
        "ret_pnl", "trading_cost", "financing_cost", "borrow_cost",
        "total_pnl", "traded_notional", "gross_stock", "net_stock",
        "hedge_notional", "predicted_vol", "vol_warning",
    )

    def equity_curve(self) -> np.ndarray:
        return np.cumsum(self.total_pnl)

    def write_csv(self, path) -> None:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write("date," + ",".join(self.COLUMNS) + "\n")
            columns = [_fmt_column(getattr(self, c)) for c in self.COLUMNS]
            fh.write("".join([",".join(row) + "\n"
                              for row in zip(map(str, self.dates), *columns)]))


MATCHED_VOL_WINDOW = 250
MATCHED_VOL_MIN_OBS = 60


def lh_matched_vol_targets(lh_result: BacktestResult,
                           panel_dates: np.ndarray) -> np.ndarray:
    """Per-day volatility targets equal to the trailing realized vol of the
    hedged-long track's returns before costs (ret_pnl), refreshed on month
    starts. Costs are a drag the book pays, not the risk of its bet.

    The estimate at a refresh date uses the days strictly before it (up to
    MATCHED_VOL_WINDOW, at least MATCHED_VOL_MIN_OBS, expanding until enough
    history exists) and is held until the next refresh. The earliest
    estimate backfills the days before it so every panel day carries a
    target.
    """
    dates = lh_result.dates
    min_obs = MATCHED_VOL_MIN_OBS
    if len(dates) <= min_obs:
        raise PortfolioError("hedged-long track too short to estimate a vol target")
    refresh = month_start_indices(dates)
    refresh = np.union1d(refresh[refresh >= min_obs], [min_obs])
    vols = rolling_vols((lh_result.ret_pnl / lh_result.aum)[:, None],
                        window=MATCHED_VOL_WINDOW, min_obs=min_obs)[refresh - 1, 0]
    k = np.searchsorted(dates[refresh], panel_dates, side="right") - 1
    return vols[np.maximum(k, 0)] * math.sqrt(TRADING_DAYS)


def _lh_step(panel, config, cost_params, adv, sigma, index_returns):
    """LH's daily step: the long-only book over the assets whose beta window
    holds `_beta_min_obs` returns joint with the index, and the index
    hedge that zeroes its predicted beta."""
    if index_returns is None:
        raise PortfolioError("LH needs an index series for the hedge")
    index_returns = np.asarray(index_returns, dtype=float)
    if len(index_returns) != panel.n_dates:
        raise PortfolioError("index series is not aligned with the panel")
    ret = panel.field("ret")
    betas = rolling_betas(ret, index_returns, window=config.beta_window)
    joint = (np.isfinite(ret) & np.isfinite(index_returns)[:, None]).astype(float)
    warm = window_sums(joint, config.beta_window) >= _beta_min_obs(config.beta_window)

    def step(t, scores, w):
        scores[~warm[t]] = np.nan
        target = optimize_long_only(
            scores, w, adv[t], sigma[t], config.aum, cost_params, cap=config.cap,
            cost_aversion=config.cost_aversion, min_invested=config.min_invested,
        )
        held = np.nonzero(target)[0]
        b = betas[t, held]
        bad = held[~np.isfinite(b)]
        if len(bad):
            raise PortfolioError(
                f"missing beta for held position: {panel.assets[bad[0]]} on {panel.dates[t]}: "
                "its beta is undefined because the index is constant over the "
                f"{config.beta_window}-day beta window or the asset has too few "
                "returns joint with it")
        return target, -float(np.sum(target[held] * b)) if len(held) else 0.0, np.nan, False
    return step


def _ls_step(panel, config, vol_target_series):
    """LS's daily step: the book on the correlation cleaned on month starts
    (and every day until two assets have a score and a full, non-constant
    return window), flat while it is not."""
    ret = panel.field("ret")
    rebal = set(month_start_indices(panel.dates).tolist())
    cleaned: CleanedCorrelation | None = None

    def step(t, scores, w):
        nonlocal cleaned
        if cleaned is None or t in rebal:
            lo = t - config.cov_window + 1
            window = ret[max(lo, 0):t + 1]
            idx = np.nonzero(np.isfinite(scores) & np.all(np.isfinite(window), axis=0)
                             & ~_constant_columns(window))[0]
            # a short history or fewer than two eligible assets (e.g. the
            # signal is still warming up): no book today, clean again tomorrow
            cleaned = clean_correlation(window[:, idx], asset_indices=idx) \
                if lo >= 0 and len(idx) >= 2 else None
        if cleaned is None:
            return np.zeros(len(w)), 0.0, 0.0, True
        vt = config.vol_target
        if vol_target_series is not None and np.isfinite(vol_target_series[t]):
            vt = float(vol_target_series[t])
        target, pred_vol, warn = build_long_short(scores, cleaned, vt, config.aum,
                                                  cap=config.cap)
        return target, 0.0, pred_vol, warn
    return step


def run_backtest(panel: ReturnsPanel, signal: np.ndarray, config: StrategyConfig,
                 cost_params: CostModelParams,
                 index_returns: np.ndarray | None = None,
                 pool: PoolMask | None = None,
                 borrow_fees: np.ndarray | None = None,
                 start=None, end=None,
                 vol_target_series: np.ndarray | None = None) -> BacktestResult:
    """Daily loop: mark the book to market, refresh the signal, rebuild the
    target with the mode's step (_lh_step, _ls_step), trade at the close
    with costs, accrue financing and borrow.

    The signal is a (T, N) score array aligned with the panel. LH needs
    index_returns aligned with the panel dates. vol_target_series (aligned
    with the panel, LS only) overrides the scalar target day by day where
    finite, letting the long-short book track another strategy's realized
    volatility. Deterministic: same inputs, bit-identical result.

    Which trade can be priced is `costs.impact_rates`'s rule, read once
    for the date range. If no trade in it can be priced, the run stops
    before its first day. Otherwise the loop stops on the first day it
    would trade an asset it cannot price, naming the asset and the date.
    LH never gets there (optimize_long_only freezes such an asset), so
    this is LS's stop. LH buys an asset only once its beta window holds
    enough returns.
    """
    ret = panel.field("ret")
    t_total, n = ret.shape
    if np.shape(signal) != (t_total, n):
        raise PortfolioError("signal is not aligned with the panel")
    adv_panel = panel.field("adv") if panel.has_field("adv") else np.full((t_total, n), np.nan)

    i0 = panel.date_index(start) if start is not None else 0
    i1 = panel.date_index(end) + 1 if end is not None else t_total
    if i1 <= i0:
        raise PortfolioError("empty backtest date range")
    gaps = np.diff(panel.dates[i0:i1].astype("datetime64[D]").astype(np.int64))
    if len(gaps) and np.max(gaps) > _MAX_CALENDAR_GAP_DAYS:
        at = panel.dates[i0 + int(np.argmax(gaps))]
        raise PortfolioError(
            f"calendar gap longer than {_MAX_CALENDAR_GAP_DAYS} days after {at}"
        )

    sigma = rolling_vols(ret, window=config.vol_window)
    unpriceable = np.isnan(impact_rates(adv_panel[i0:i1], sigma[i0:i1], cost_params))
    if np.all(unpriceable):
        raise PortfolioError(
            f"no trade can be priced from {panel.dates[i0]} to {panel.dates[i1 - 1]}: "
            f"impact_coeff = {cost_params.impact_coeff} needs a finite positive ADV "
            "and a trailing vol, and no asset has both")
    if config.mode == "LH":
        step_fn = _lh_step(panel, config, cost_params, adv_panel, sigma, index_returns)
    else:
        step_fn = _ls_step(panel, config, vol_target_series)
    if borrow_fees is None:
        borrow_fees = np.full(n, cost_params.default_borrow_fee)

    rows = np.zeros((i1 - i0, len(BacktestResult.COLUMNS)))
    positions_hist = np.zeros((i1 - i0, n))

    w = np.zeros(n)
    hedge = 0.0

    for step, t in enumerate(range(i0, i1)):
        # 1. mark the carried book to market
        r = ret[t]
        fin_r = np.isfinite(r)
        pnl_ret = float(np.sum(w[fin_r] * r[fin_r]))
        if hedge != 0.0:
            r_idx = index_returns[t]
            if not np.isfinite(r_idx):
                raise PortfolioError(f"missing index return on {panel.dates[t]}")
            pnl_ret += hedge * r_idx
            hedge *= 1.0 + r_idx
        w = np.where(fin_r, w * (1.0 + r), w)

        # 2. rebuild the target and trade at the close
        srow = signal[max(t - config.exec_lag, 0)].copy()
        if pool is not None:
            srow[~pool.mask[t]] = np.nan
        target, hedge_target, pred_vol, warn = step_fn(t, srow, w)
        trades = target - w
        traded = float(np.sum(np.abs(trades)))
        live = trades != 0
        bad = np.nonzero(live & unpriceable[step])[0]
        if len(bad):
            raise PortfolioError(
                f"cannot price a trade in {panel.assets[bad[0]]} on {panel.dates[t]}: "
                "its ADV is missing or not positive, or its trailing vol is missing")
        tc = float(np.sum(trade_cost(np.abs(trades[live]), adv_panel[t][live],
                                     sigma[t][live], cost_params)))
        w = target
        hedge = hedge_target

        # 3. accrue financing and borrow on the end-of-day book
        gross = float(np.sum(np.abs(w)))
        fin = financing_cost(gross + abs(hedge), config.aum, cost_params)
        bor = borrow_cost(np.minimum(w, 0.0), borrow_fees, cost_params)
        total = pnl_ret - tc - fin - bor
        if not np.isfinite(total):
            raise PortfolioError(f"non-finite P&L on {panel.dates[t]}")
        rows[step] = (pnl_ret, -tc, -fin, -bor, total, traded, gross,
                      float(np.sum(w)), hedge, pred_vol, float(warn))
        positions_hist[step] = w

    return BacktestResult(
        dates=panel.dates[i0:i1], assets=panel.assets, mode=config.mode,
        aum=config.aum, positions=positions_hist,
        **dict(zip(BacktestResult.COLUMNS, rows.T.copy())),
    )
