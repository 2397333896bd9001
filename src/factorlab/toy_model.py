"""Closed-form Sharpe comparison of a long-short book versus a hedged
long-only book in a one-factor two-asset market, with a Monte Carlo
verifier and an N-asset synthetic market generator.

The model: a market return M, a factor return F with positive mean, and
two assets

    r_long  = M + F + e_long
    r_short = M - a * F + e_short

where a >= 0 is the short asset's loading magnitude and the residuals are
independent zero-mean noises. Three dimensionless knobs fix everything that
matters for the comparison:

    short_loading         a
    resid_var_ratio       Var(e_long) / Var(F)
    short_resid_var_ratio Var(e_short) / Var(e_long)

All Sharpe ratios here are per period; annualization lives in `analytics`.
Randomness comes from numpy's Philox counter-based generator, so results
are reproducible across platforms for a given 64-bit seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .data import ReturnsPanel, business_days


class DegenerateVarianceError(ValueError):
    """Total variance of the portfolio P&L is zero; no Sharpe is defined."""


def _rng(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(seed))


@dataclass(frozen=True)
class ToyModelParams:
    """Moments of the two-asset one-factor market.

    factor_mean / factor_var    per-period factor moments, mean > 0
    short_loading               magnitude of the short asset's factor loading
    resid_var_ratio             Var(long residual) / Var(factor)
    short_resid_var_ratio       Var(short residual) / Var(long residual)
    """

    factor_mean: float
    factor_var: float
    short_loading: float = 0.0
    resid_var_ratio: float = 0.0
    short_resid_var_ratio: float = 0.0

    def __post_init__(self):
        if not self.factor_mean > 0:
            raise ValueError("factor_mean must be positive")
        # zero factor variance is allowed (degenerate factor); the Sharpe
        # functions raise DegenerateVarianceError when nothing fluctuates
        for name in ("factor_var", "short_loading", "resid_var_ratio",
                     "short_resid_var_ratio"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be non-negative")

    @property
    def long_resid_var(self) -> float:
        return self.resid_var_ratio * self.factor_var

    @property
    def short_resid_var(self) -> float:
        return self.short_resid_var_ratio * self.long_resid_var


@dataclass(frozen=True)
class ToyPortfolio:
    """Signed weights on (long asset, short asset, market)."""

    w_long_asset: float
    w_short_asset: float
    w_market: float

    def pnl(self, sample: "ToySample") -> np.ndarray:
        return (
            self.w_long_asset * sample.r_long
            + self.w_short_asset * sample.r_short
            + self.w_market * sample.market
        )


#: the two canonical books: long one share of each side, or long + index hedge
LONG_SHORT = ToyPortfolio(1.0, -1.0, 0.0)
HEDGED_LONG = ToyPortfolio(1.0, 0.0, -1.0)


def sr_long_short(p: ToyModelParams) -> float:
    """Per-period Sharpe of the long-short book (market drops out)."""
    a = p.short_loading
    mean = (1.0 + a) * p.factor_mean
    var = (1.0 + a) ** 2 * p.factor_var + p.long_resid_var + p.short_resid_var
    if var <= 0.0:
        raise DegenerateVarianceError("long-short P&L has zero variance")
    return mean / math.sqrt(var)


def sr_hedged_long(p: ToyModelParams) -> float:
    """Per-period Sharpe of the hedged long-only book (factor plus residual)."""
    var = p.factor_var + p.long_resid_var
    if var <= 0.0:
        raise DegenerateVarianceError("hedged-long P&L has zero variance")
    return p.factor_mean / math.sqrt(var)


def ratio_of_sharpes(short_loading, resid_var_ratio, short_resid_var_ratio):
    """Sharpe(long-short) / Sharpe(hedged-long), array-friendly.

    sqrt((1 + g) / (1 + g * (1 + k) / (1 + a)^2)) with g the residual
    variance ratio, k the short/long residual variance ratio, a the short
    loading. Independent of the factor moments.
    """
    a = np.asarray(short_loading, dtype=float)
    g = np.asarray(resid_var_ratio, dtype=float)
    k = np.asarray(short_resid_var_ratio, dtype=float)
    out = np.sqrt((1.0 + g) / (1.0 + g * (1.0 + k) / (1.0 + a) ** 2))
    if out.ndim == 0:
        return float(out)
    return out


def sr_ratio(p: ToyModelParams) -> float:
    return ratio_of_sharpes(
        p.short_loading, p.resid_var_ratio, p.short_resid_var_ratio
    )


def shorts_threshold(short_resid_var_ratio):
    """Minimum short loading for the long-short book to win.

    Returns sqrt(1 + k) - 1; the long-short Sharpe exceeds the hedged-long
    Sharpe exactly when the short loading is above this (for any positive
    residual variance). Strictly increasing in k.
    """
    k = np.asarray(short_resid_var_ratio, dtype=float)
    if np.any(k < 0):
        raise ValueError("short_resid_var_ratio must be non-negative")
    out = np.sqrt(1.0 + k) - 1.0
    if out.ndim == 0:
        return float(out)
    return out


@dataclass(frozen=True)
class ToySample:
    """Simulated per-period series; residuals are included so tests can
    check the declared moments directly."""

    r_long: np.ndarray
    r_short: np.ndarray
    market: np.ndarray
    factor: np.ndarray
    e_long: np.ndarray
    e_short: np.ndarray


def simulate_toy_returns(p: ToyModelParams, n: int, seed: int,
                         market_mean: float = 0.0,
                         market_vol: float = 0.0) -> ToySample:
    """Draw n periods of (r_long, r_short, market).

    Factor, residuals and market are independent Gaussians with the declared
    moments (the comparison is distribution-free; Gaussian is the simplest
    compliant choice). The market moments are free parameters because both
    canonical books are market-neutral and never see them.
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    rng = _rng(seed)
    f = p.factor_mean + math.sqrt(p.factor_var) * rng.standard_normal(n)
    e1 = math.sqrt(p.long_resid_var) * rng.standard_normal(n)
    e2 = math.sqrt(p.short_resid_var) * rng.standard_normal(n)
    m = market_mean + market_vol * rng.standard_normal(n)
    return ToySample(
        r_long=m + f + e1,
        r_short=m - p.short_loading * f + e2,
        market=m,
        factor=f,
        e_long=e1,
        e_short=e2,
    )


def sharpe_per_period(pnl: np.ndarray) -> float:
    """mean / std (ddof=1) of a per-period P&L sample."""
    sd = float(np.std(pnl, ddof=1))
    if sd == 0.0:
        raise DegenerateVarianceError("sample P&L has zero variance")
    return float(np.mean(pnl)) / sd


# ---------------------------------------------------------------------------
# N-asset synthetic market
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SyntheticUniverseSpec:
    """A panel-sized version of the two-asset market: half the assets carry
    the long loading, half the (negated) short loading, all share one market
    and one factor series per period.

    Volatilities and means are per period (daily, for backtest use). The
    constant ADV and the price level only matter for cost models downstream.
    """

    n_assets: int
    n_periods: int
    seed: int
    loading_long: float = 1.0
    loading_short_scale: float = 0.0
    loading_spread: float = 0.0
    resid_vol_long: float = 0.0
    resid_vol_short: float = 0.0
    factor_mean: float = 0.0
    factor_vol: float = 0.0
    market_mean: float = 0.0
    market_vol: float = 0.0
    adv: float = 1e7
    start_price: float = 100.0
    start_date: str = "2000-01-03"
    region: str = "SYN"

    def __post_init__(self):
        if self.n_assets < 2 or self.n_assets % 2 != 0:
            raise ValueError("n_assets must be an even number >= 2")
        if self.n_periods < 1:
            raise ValueError("n_periods must be positive")
        for name in ("resid_vol_long", "resid_vol_short", "factor_vol", "market_vol"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be non-negative")
        if not 0.0 <= self.loading_spread <= 1.0:
            raise ValueError("loading_spread must be in [0, 1]")
        if self.adv <= 0 or self.start_price <= 0:
            raise ValueError("adv and start_price must be positive")


@dataclass(frozen=True)
class UniverseTruth:
    """Ground truth emitted next to a generated panel so backtests can be
    checked against theory."""

    loadings: np.ndarray
    market: np.ndarray
    factor: np.ndarray


def _spread_loadings(mean: float, half: int, spread: float) -> np.ndarray:
    """Evenly spaced loadings with the requested mean.

    spread=0 collapses to a constant; spread=1 spans (0, 2*mean) so the
    loading is exactly linear in its own cross-sectional rank, which keeps
    per-side response slopes identifiable after residualization. The mean
    is preserved exactly, so equal-weight book arithmetic is unchanged.
    """
    offsets = 2.0 * (np.arange(half) + 0.5) / half - 1.0
    return mean * (1.0 + spread * offsets)


def generate_universe(spec: SyntheticUniverseSpec) -> tuple[ReturnsPanel, UniverseTruth]:
    """Generate a panel where asset i returns  m_t + loading_i * f_t + e_it.

    The first half of the assets carries loadings averaging +loading_long,
    the second half averaging -loading_short_scale * loading_long (spread
    around those means per loading_spread). Deterministic for a given seed.
    """
    rng = _rng(spec.seed)
    n, t = spec.n_assets, spec.n_periods
    half = n // 2
    market = spec.market_mean + spec.market_vol * rng.standard_normal(t)
    factor = spec.factor_mean + spec.factor_vol * rng.standard_normal(t)
    resid = rng.standard_normal((t, n))
    resid[:, :half] *= spec.resid_vol_long
    resid[:, half:] *= spec.resid_vol_short
    loadings = np.concatenate([
        _spread_loadings(spec.loading_long, half, spec.loading_spread),
        -_spread_loadings(spec.loading_short_scale * spec.loading_long,
                          n - half, spec.loading_spread),
    ])
    rets = market[:, None] + factor[:, None] * loadings[None, :] + resid

    prices = spec.start_price * np.cumprod(1.0 + rets, axis=0)
    width = len(str(n - 1))
    assets = tuple(f"SYN{i:0{width}d}" for i in range(n))
    panel = ReturnsPanel(
        dates=business_days(spec.start_date, t),
        assets=assets,
        regions=tuple(spec.region for _ in range(n)),
        arrays={
            "ret": rets,
            "price": prices,
            "adv": np.full((t, n), float(spec.adv)),
            "mcap": prices * 1e7,
        },
    )
    return panel, UniverseTruth(loadings=loadings, market=market, factor=factor)


def book_sr_ratio_prediction(p: ToyModelParams, n_assets: int) -> float:
    """Closed-form long-short over hedged-long Sharpe ratio for equal-weight
    books on an N-asset universe built from these parameters.

    Holding N/2 assets per side divides each book's residual variance by
    N/2, so the two-asset formula applies with the residual variance ratio
    scaled down by 2/N.
    """
    return ratio_of_sharpes(
        p.short_loading,
        p.resid_var_ratio * 2.0 / n_assets,
        p.short_resid_var_ratio,
    )


def simulate_book_sr_ratios(p: ToyModelParams, n_assets: int, n_periods: int,
                            n_reps: int, seed: int) -> np.ndarray:
    """Sampling distribution of the realized LS/LH Sharpe ratio for
    equal-weight books over a finite backtest.

    Simulates the two book-level P&L series jointly (they share the factor
    and the long-side residual average), one ratio per replication. Used to
    put a Monte Carlo band around `book_sr_ratio_prediction`.
    """
    rng = _rng(seed)
    half = n_assets // 2
    a = p.short_loading
    sd_long = math.sqrt(p.long_resid_var / half)
    sd_short = math.sqrt(p.short_resid_var / half)
    out = np.empty(n_reps)
    for r in range(n_reps):
        f = p.factor_mean + math.sqrt(p.factor_var) * rng.standard_normal(n_periods)
        avg_e_long = sd_long * rng.standard_normal(n_periods)
        avg_e_short = sd_short * rng.standard_normal(n_periods)
        pnl_ls = (1.0 + a) * f + avg_e_long - avg_e_short
        pnl_lh = f + avg_e_long
        out[r] = sharpe_per_period(pnl_ls) / sharpe_per_period(pnl_lh)
    return out
