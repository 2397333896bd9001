"""Trading, financing and borrow cost models.

Trading cost of a single trade of notional q on a stock with average daily
volume adv and daily volatility sigma:

    linear_rate * q  +  impact_coeff * sigma * sqrt(q / adv) * q

i.e. a one-way linear term (spread plus broker) and a square-root impact
term that makes total cost a 3/2-power of size. All rates live as decimal
fractions; the borrow override CSV speaks basis points because fee vendors
do. Defaults are generic placeholders meant to be overridden per run.

All functions return non-negative cost magnitudes; the backtest books them
as negative P&L contributions.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .data import _keyed_rows


# the trading days in a year: every annual rate accrues, and every daily
# variance and daily Sharpe ratio is annualized, over this many days
TRADING_DAYS = 252


class CostError(ValueError):
    """Unpriceable trade or invalid cost parameter."""


@dataclass(frozen=True)
class CostModelParams:
    linear_rate: float = 5e-4          # one-way, 5 bps
    impact_coeff: float = 1.0          # prefactor of the square-root law
    financing_spread: float = 0.02     # annual, on gross above AUM
    default_borrow_fee: float = 0.0025  # annual, 25 bps

    def __post_init__(self):
        for name in ("linear_rate", "impact_coeff", "financing_spread",
                     "default_borrow_fee"):
            if not getattr(self, name) >= 0:
                raise CostError(f"{name} must be non-negative, got {getattr(self, name)!r}")


ZERO_COSTS = CostModelParams(0.0, 0.0, 0.0, 0.0)


def impact_rates(adv, sigma_daily, params: CostModelParams, scale: float = 1.0):
    """Each asset's scale * impact_coeff * sigma / sqrt(adv), the k of its
    impact k * q^1.5, and the rule for which trade can be priced: 0
    everywhere without impact, else NaN where the ADV is missing or not
    positive or the vol is missing."""
    adv, sigma = np.asarray(adv, dtype=float), np.asarray(sigma_daily, dtype=float)
    if params.impact_coeff == 0:
        return np.zeros(np.broadcast(adv, sigma).shape)
    with np.errstate(invalid="ignore", divide="ignore"):
        rate = scale * params.impact_coeff * sigma / np.sqrt(adv)
    return np.where(np.isfinite(adv) & (adv > 0) & np.isfinite(sigma), rate, np.nan)


def impact_cost(q, adv, sigma_daily, params: CostModelParams):
    """Square-root impact component alone: Y * sigma * sqrt(q/adv) * q, and
    0 without impact, whatever the ADV."""
    q = np.asarray(q, dtype=float)
    if np.any(q < 0):
        raise CostError("traded notional must be non-negative")
    adv, sigma = np.asarray(adv, dtype=float), np.asarray(sigma_daily, dtype=float)
    rate = impact_rates(adv, sigma, params)
    if np.any(np.isnan(rate)):
        raise CostError("adv must be positive and vol finite (unpriceable trade)")
    out = (rate * q if params.impact_coeff == 0
           else params.impact_coeff * sigma * np.sqrt(q / adv) * q)
    return float(out) if out.ndim == 0 else out


def trade_cost(q, adv, sigma_daily, params: CostModelParams):
    """Total one-way trading cost, the linear term plus `impact_cost`;
    strictly convex in q."""
    out = params.linear_rate * np.asarray(q, dtype=float) + np.asarray(
        impact_cost(q, adv, sigma_daily, params))
    return float(out) if out.ndim == 0 else out


def financing_cost(gross_exposure: float, aum: float, params: CostModelParams) -> float:
    """One day's cost of running gross exposure above the capital base."""
    if gross_exposure < 0:
        raise CostError("gross exposure must be non-negative")
    levered = max(gross_exposure - aum, 0.0)
    return params.financing_spread * levered / TRADING_DAYS


def borrow_cost(short_positions, fees, params: CostModelParams) -> float:
    """One day's borrow fees on a short book.

    short_positions  signed notionals, expected <= 0
    fees             per-asset annual fee fractions, aligned with positions
    """
    pos = np.asarray(short_positions, dtype=float)
    f = np.asarray(fees, dtype=float)
    if np.any(pos > 0):
        raise CostError("short book must have non-positive positions")
    if not np.all(np.isfinite(f) & (f >= 0)):
        raise CostError("borrow fee must be finite and non-negative")
    return float(np.sum(f * np.abs(pos))) / TRADING_DAYS


def resolve_borrow_fees(assets, overrides: Mapping[str, float] | None,
                        params: CostModelParams) -> np.ndarray:
    """Per-asset annual borrow fees: override where present, default else."""
    fees = np.full(len(assets), params.default_borrow_fee)
    if overrides:
        for i, a in enumerate(assets):
            if a in overrides:
                fee = overrides[a]
                if not 0 <= fee < np.inf:
                    raise CostError(f"borrow fee for {a!r} must be finite and "
                                    f"non-negative, got {fee!r}")
                fees[i] = fee
    return fees


def load_borrow_fee_overrides(path) -> dict[str, float]:
    """Read the borrow-fee override CSV: asset_id,annual_fee_bps."""
    def asset(text, line):
        if not text:
            raise CostError(f"{path}: line {line}: empty asset_id")
        return text, repr(text)

    rows = _keyed_rows(path, ("asset_id", "annual_fee_bps"), asset, "asset", CostError)
    for name, (line, (bps,)) in rows.items():
        if not 0 <= bps < np.inf:
            raise CostError(f"{path}: line {line}: annual_fee_bps {bps!r} for asset "
                            f"{name!r} must be finite and non-negative")
    return {name: bps * 1e-4 for name, (_, (bps,)) in rows.items()}
