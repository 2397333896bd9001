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

from .data import _each_row


class CostError(ValueError):
    """Unpriceable trade or invalid cost parameter."""


@dataclass(frozen=True)
class CostModelParams:
    linear_rate: float = 5e-4          # one-way, 5 bps
    impact_coeff: float = 1.0          # prefactor of the square-root law
    financing_spread: float = 0.02     # annual, on gross above AUM
    default_borrow_fee: float = 0.0025  # annual, 25 bps
    trading_days_per_year: int = 252

    def __post_init__(self):
        for name in ("linear_rate", "impact_coeff", "financing_spread",
                     "default_borrow_fee"):
            if getattr(self, name) < 0:
                raise CostError(f"{name} must be non-negative")
        if not 200 <= self.trading_days_per_year <= 260:
            raise CostError("trading_days_per_year must be in [200, 260]")

    @property
    def is_free(self) -> bool:
        return self.linear_rate == 0.0 and self.impact_coeff == 0.0


ZERO_COSTS = CostModelParams(0.0, 0.0, 0.0, 0.0, 252)


def linear_cost(q, params: CostModelParams):
    """Linear component alone; q is unsigned traded notional."""
    q = np.asarray(q, dtype=float)
    if np.any(q < 0):
        raise CostError("traded notional must be non-negative")
    out = params.linear_rate * q
    return float(out) if out.ndim == 0 else out


def impact_cost(q, adv, sigma_daily, params: CostModelParams):
    """Square-root impact component alone: Y * sigma * sqrt(q/adv) * q."""
    q = np.asarray(q, dtype=float)
    adv = np.asarray(adv, dtype=float)
    if np.any(q < 0):
        raise CostError("traded notional must be non-negative")
    if np.any(~np.isfinite(adv)) or np.any(adv <= 0):
        raise CostError("adv must be positive (unpriceable trade)")
    out = params.impact_coeff * np.asarray(sigma_daily, dtype=float) \
        * np.sqrt(q / adv) * q
    return float(out) if out.ndim == 0 else out


def trade_cost(q, adv, sigma_daily, params: CostModelParams):
    """Total one-way trading cost; strictly convex in q."""
    out = np.asarray(linear_cost(q, params)) + np.asarray(
        impact_cost(q, adv, sigma_daily, params)
    )
    return float(out) if out.ndim == 0 else out


def financing_cost(gross_exposure: float, aum: float, rate: float,
                   dt_days: float, trading_days_per_year: int = 252) -> float:
    """Cost of running gross exposure above the capital base for dt days."""
    if gross_exposure < 0:
        raise CostError("gross exposure must be non-negative")
    levered = max(gross_exposure - aum, 0.0)
    return rate * levered * dt_days / trading_days_per_year


def borrow_cost(short_positions, fees, dt_days: float,
                trading_days_per_year: int = 252) -> float:
    """Accrued borrow fees on a short book.

    short_positions  signed notionals, expected <= 0
    fees             per-asset annual fee fractions, aligned with positions
    """
    pos = np.asarray(short_positions, dtype=float)
    f = np.asarray(fees, dtype=float)
    if np.any(pos > 0):
        raise CostError("short book must have non-positive positions")
    if np.any(f < 0):
        raise CostError("borrow fee must be non-negative")
    return float(np.sum(f * np.abs(pos))) * dt_days / trading_days_per_year


def resolve_borrow_fees(assets, overrides: Mapping[str, float] | None,
                        params: CostModelParams) -> np.ndarray:
    """Per-asset annual borrow fees: override where present, default else."""
    fees = np.full(len(assets), params.default_borrow_fee)
    if overrides:
        for i, a in enumerate(assets):
            if a in overrides:
                fee = overrides[a]
                if fee < 0:
                    raise CostError(f"negative borrow fee for {a!r}")
                fees[i] = fee
    return fees


def load_borrow_fee_overrides(path) -> dict[str, float]:
    """Read the borrow-fee override CSV: asset_id,annual_fee_bps."""
    out: dict[str, float] = {}
    rows = _each_row(path, ("asset_id", "annual_fee_bps"), CostError)
    next(rows)
    for lineno, cells in rows:
        asset, cell = cells[0], cells[1]
        if not asset:
            raise CostError(f"{path}: line {lineno}: empty asset_id")
        if asset in out:
            raise CostError(f"{path}: line {lineno}: duplicate asset {asset!r}")
        try:
            bps = float(cell)
        except ValueError:
            raise CostError(
                f"{path}: line {lineno}: bad fee {cell!r} for asset {asset!r}"
            ) from None
        if bps < 0:
            raise CostError(
                f"{path}: line {lineno}: negative fee for asset {asset!r}"
            )
        out[asset] = bps * 1e-4
    return out
