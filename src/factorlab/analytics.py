"""Performance statistics and diagnostic studies: Sharpe ratios, drawdowns,
leg correlations, maximum-Sharpe allocations, the size-exposure diagnostic
for index-hedged legs, and cost attribution of backtest results.

Annualization conventions: 252 trading days for daily series, 12 for
monthly ones.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .portfolio import BacktestResult, _ols_slope

TRADING_DAYS = 252
MONTHS = 12


class AnalyticsError(ValueError):
    """Invalid analytics input."""


def sharpe(pnl: np.ndarray, base: float, periods_per_year: int = TRADING_DAYS):
    """Annualized Sharpe ratio of a P&L series over a risk base.

    Returns None (an explicit undefined result, never infinity) when the
    series has zero variance.
    """
    x = np.asarray(pnl, dtype=float) / base
    x = x[np.isfinite(x)]
    if len(x) < 2:
        raise AnalyticsError("need at least two observations")
    sd = float(np.std(x, ddof=1))
    if sd == 0.0:
        return None
    return float(np.mean(x)) / sd * math.sqrt(periods_per_year)


def drawdown_stats(equity: np.ndarray, aum: float) -> tuple[np.ndarray, float]:
    """Drawdown series (equity minus running peak, per unit of AUM) and its
    time-averaged depth. Both are <= 0; zero exactly at running peaks."""
    eq = np.asarray(equity, dtype=float)
    if np.any(~np.isfinite(eq)):
        raise AnalyticsError("equity curve must be finite")
    peak = np.maximum.accumulate(eq)
    dd = (eq - peak) / aum
    return dd, float(np.mean(dd))


def mean_pairwise_correlation(streams: np.ndarray) -> float:
    """Average off-diagonal Pearson correlation of a (T, K) group of series.

    Pairs involving a constant stream are dropped; all-constant input is an
    error.
    """
    x = np.asarray(streams, dtype=float)
    if x.ndim != 2 or x.shape[1] < 2:
        raise AnalyticsError("need at least two streams")
    sd = np.std(x, axis=0)
    vals = []
    for i in range(x.shape[1]):
        for j in range(i + 1, x.shape[1]):
            if sd[i] == 0 or sd[j] == 0:
                continue
            c = np.corrcoef(x[:, i], x[:, j])[0, 1]
            vals.append(float(c))
    if not vals:
        raise AnalyticsError("all pairs are degenerate")
    return float(np.mean(vals))


@dataclass(frozen=True)
class AllocationResult:
    weights: np.ndarray
    long_weight: float
    short_weight: float


def max_sharpe_weights(returns: np.ndarray, long_only: bool = False) -> np.ndarray:
    """Maximum-Sharpe weights, normalized to sum to one.

    Unconstrained: w proportional to inv(Cov) @ mean. With long_only, the
    most negative weight is eliminated and the reduced problem re-solved
    until all surviving weights are non-negative (active-set elimination).
    """
    x = np.asarray(returns, dtype=float)
    if x.ndim != 2 or x.shape[0] <= x.shape[1]:
        raise AnalyticsError("need more observations than streams")
    mu = np.mean(x, axis=0)
    cov = np.cov(x, rowvar=False, ddof=1)
    k = x.shape[1]
    active = np.arange(k)
    while True:
        c = cov[np.ix_(active, active)]
        try:
            raw = np.linalg.solve(c, mu[active])
        except np.linalg.LinAlgError:
            raise AnalyticsError(
                "singular covariance; consider cleaning the correlation matrix"
            ) from None
        if not long_only or np.all(raw >= 0):
            break
        drop = int(np.argmin(raw))
        active = np.delete(active, drop)
        if len(active) == 0:
            raise AnalyticsError("no streams left with non-negative weight")
    w = np.zeros(k)
    w[active] = raw
    total = float(np.sum(w))
    if total <= 0:
        raise AnalyticsError("max-Sharpe weights do not sum to a positive total")
    return w / total


def max_sharpe_allocation(returns: np.ndarray, long_mask,
                          long_only: bool = False) -> AllocationResult:
    """Maximum-Sharpe weights plus the aggregate split between two groups of
    streams (long-leg streams vs short-leg streams)."""
    mask = np.asarray(long_mask, dtype=bool)
    w = max_sharpe_weights(returns, long_only=long_only)
    if len(mask) != len(w):
        raise AnalyticsError("long_mask length mismatch")
    return AllocationResult(
        weights=w,
        long_weight=float(np.sum(w[mask])),
        short_weight=float(np.sum(w[~mask])),
    )


def estimate_series_beta(stream: np.ndarray, index: np.ndarray) -> float:
    """Full-sample OLS slope of one return stream on an index, over the
    dates where both are present."""
    y = np.asarray(stream, dtype=float)
    x = np.asarray(index, dtype=float)
    valid = np.isfinite(y) & np.isfinite(x)
    if np.sum(valid) < 3:
        raise AnalyticsError("not enough overlap to estimate beta")
    xv = np.where(valid, x, 0.0)
    yv = np.where(valid, y, 0.0)
    beta = float(_ols_slope(np.sum(valid), np.sum(xv), np.sum(yv),
                            np.sum(xv * xv), np.sum(xv * yv), 3))
    if not np.isfinite(beta):
        raise AnalyticsError("index series is constant")
    return beta


def rescale_to_unit_beta(leg: np.ndarray, index: np.ndarray) -> np.ndarray:
    """Scale a return stream so its full-sample OLS beta on the index is 1."""
    leg = np.asarray(leg, dtype=float)
    beta = estimate_series_beta(leg, index)
    if beta <= 0:
        raise AnalyticsError(f"non-positive beta ({beta:.3f}); cannot rescale to one")
    return leg / beta


def smb_diagnostic(long_leg: np.ndarray, short_leg: np.ndarray,
                   index: np.ndarray, smb: np.ndarray) -> float:
    """Correlation between the size factor and the spread left after hedging
    both legs with the same index.

    delta = (long - beta_long * index) - (beta_short * index - short); when
    the hedge index is cap-weighted while the legs are half small caps, the
    spread picks up a mechanical small-cap exposure and this correlation
    turns positive. NaN when delta is degenerate.
    """
    long_leg = np.asarray(long_leg, dtype=float)
    short_leg = np.asarray(short_leg, dtype=float)
    index = np.asarray(index, dtype=float)
    smb = np.asarray(smb, dtype=float)
    if not (len(long_leg) == len(short_leg) == len(index) == len(smb)):
        raise AnalyticsError("series must share one calendar")
    bl = estimate_series_beta(long_leg, index)
    bs = estimate_series_beta(short_leg, index)
    delta = (long_leg - bl * index) - (bs * index - short_leg)
    scale = np.std(long_leg) + np.std(short_leg) + np.std(index)
    if np.std(delta) <= 1e-12 * max(scale, 1e-300) or np.std(smb) == 0:
        return float("nan")
    return float(np.corrcoef(delta, smb)[0, 1])


@dataclass(frozen=True)
class PerfSummary:
    """Annualized performance and cost attribution, in fractions of AUM per
    year. Component rows sum to the total return row; `dataclasses.asdict`
    gives the summary JSON's entry for one book."""

    sharpe: float | None
    ann_return: float
    ann_vol: float
    mean_drawdown: float
    returns_and_divs: float
    trading_cost: float
    financing_cost: float
    borrow_cost: float
    mean_daily_turnover_aum: float
    mean_daily_turnover_gmv: float
    mean_gross_leverage: float


def cost_attribution(result: BacktestResult,
                     periods_per_year: int = TRADING_DAYS) -> PerfSummary:
    """Annualize each P&L component of a backtest as a fraction of AUM."""
    aum = result.aum
    scale = periods_per_year / aum

    def ann(x):
        return float(np.mean(x)) * scale

    dd, depth = drawdown_stats(result.equity_curve(), aum)
    gross = result.gross_stock + np.abs(result.hedge_notional)
    gmv = np.where(result.gross_stock > 0, result.gross_stock, np.nan)
    with np.errstate(invalid="ignore"):
        to_gmv = result.traded_notional / gmv
    to_gmv = to_gmv[np.isfinite(to_gmv)]
    return PerfSummary(
        sharpe=sharpe(result.total_pnl, aum, periods_per_year),
        ann_return=ann(result.total_pnl),
        ann_vol=float(np.std(result.total_pnl / aum, ddof=1))
        * math.sqrt(periods_per_year),
        mean_drawdown=depth,
        returns_and_divs=ann(result.ret_pnl),
        trading_cost=ann(result.trading_cost),
        financing_cost=ann(result.financing_cost),
        borrow_cost=ann(result.borrow_cost),
        mean_daily_turnover_aum=float(np.mean(result.traded_notional)) / aum,
        mean_daily_turnover_gmv=float(np.mean(to_gmv)) if len(to_gmv) else 0.0,
        mean_gross_leverage=float(np.mean(gross)) / aum,
    )
