"""Inputs and operations of the three benchmark workloads.

Every input is a pure function of the workload seed and the size preset
("full" for measured runs, "smoke" for a seconds-long pass over the same
code). The program only ever sees the generated files and configs.

    horserace       `factorlab backtest`, mode BOTH, MOM + EMA 150, full
                    costs, on HR_MARKETS `factorlab generate` markets (100
                    assets, short loading 0.8), each at one AUM of AUMS
    predictability  `factorlab predictability`, all five factors, on a
                    200-asset panel with quarterly fundamentals
    pool_wide       `factorlab backtest`, mode LS, LOWVOL + SMB, with a
                    [pool] at the README counts on a four-region panel
                    whose ADV varies by asset and by day
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np
from factorlab import cli, data, toy_model

WORKLOADS = ("horserace", "predictability", "pool_wide")
AUMS = (1e8, 1e9, 1e10)

# horserace: MOM is first defined on day 252 (an 11-month window lagged one
# month); trading starts one day later so LH and LS both start warm
HR_WARMUP = 253
# The long-only solver's work varies by about a quarter from one market to
# the next: it hinges on how many days the budget binds and the solver runs
# its pairwise exchanges. A longer backtest does not average that out, so a
# round runs each AUM on three independent markets.
HR_MARKETS = 9
HR_COSTS = """
[costs]
linear_rate = 5e-4
impact_coeff = 1.0
financing_spread = 0.02
default_borrow_fee = 0.0025
"""

# pool_wide: LOWVOL is first defined 250 days into the panel, so the calendar
# spans 250 days before trading starts on a month start. Only the few names
# beyond the pool counts trade over all of it; the rest list PW_LISTED days
# before the start, enough for LOWVOL's 120 valid returns and one 120-day
# covariance window, which keeps the panel near half the cells.
PW_START = "2019-07-01"
PW_WARMUP = 250
PW_LISTED = 125
PW_COV_WINDOW = 120
PW_REGIONS = ("NA", "EU", "JP", "AU")


@dataclass(frozen=True)
class Size:
    hr_assets: int
    hr_trade_days: int
    pr_assets: int
    pr_days: int
    pr_lookback: int
    pw_counts: tuple[int, ...]      # pool counts per region, PW_REGIONS order
    pw_extra: float                 # universe = counts * (1 + extra)
    pw_trade_days: int


SIZES = {
    "full": Size(hr_assets=100, hr_trade_days=30,
                 pr_assets=200, pr_days=1500, pr_lookback=250,
                 pw_counts=(1200, 1000, 900, 200), pw_extra=0.02,
                 pw_trade_days=15),
    "smoke": Size(hr_assets=40, hr_trade_days=5,
                  pr_assets=30, pr_days=320, pr_lookback=60,
                  pw_counts=(12, 10, 9, 2), pw_extra=0.25,
                  pw_trade_days=5),
}


def _rng(seed: int, stream: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(key=[seed, stream]))


def _write(path: str, text: str) -> str:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
    return path


# ---------------------------------------------------------------------------
# inputs
# ---------------------------------------------------------------------------

def horserace_generate_config(seed: int, market: int, size: Size) -> str:
    return f"""[generate]
n_assets = {size.hr_assets}
n_periods = {HR_WARMUP + size.hr_trade_days}
seed = {HR_MARKETS * seed + market}
alpha2 = 0.8
resid_vol_long = 0.004
resid_vol_short = 0.004
factor_mean = 0.0008
factor_vol = 0.004
market_mean = 0.0003
market_vol = 0.012
"""


def predictability_arrays(seed: int, size: Size):
    """Returns from the synthetic market, plus sizes and quarterly
    fundamentals reported on a staggered per-asset schedule."""
    spec = toy_model.SyntheticUniverseSpec(
        n_assets=size.pr_assets, n_periods=size.pr_days, seed=seed,
        loading_short_scale=0.8, loading_spread=1.0,
        resid_vol_long=0.01, resid_vol_short=0.01,
        factor_mean=2e-4, factor_vol=0.004,
        market_mean=3e-4, market_vol=0.012, region="US",
    )
    base, _ = toy_model.generate_universe(spec)
    t, n = base.n_dates, base.n_assets
    rng = _rng(seed, 1)
    price = base.field("price")
    shares = np.exp(rng.normal(17.0, 1.0, n))
    quarter = 63
    offset = rng.integers(0, quarter, n)
    report = (np.arange(t)[:, None] - offset[None, :]) % quarter == 0
    book = np.exp(rng.normal(22.0, 1.0, n))
    roa = rng.normal(0.02, 0.01, n)
    ey = rng.normal(0.05, 0.02, n)
    noise = lambda: 1.0 + 0.1 * rng.standard_normal((t, n))  # noqa: E731
    fundamentals = {
        "total_assets": book * noise(),
        "net_income": roa * book * noise(),
        "earnings": ey * price * noise(),
    }
    arrays = {"ret": base.field("ret").copy(), "price": price.copy(),
              "mcap": price * shares}
    for name, values in fundamentals.items():
        arrays[name] = np.where(report, values, np.nan)
    return base.dates, base.assets, base.regions, arrays


def pool_wide_arrays(seed: int, size: Size):
    """A four-region universe a little wider than the pool counts, with
    ADV that varies by asset (lognormal level) and by day, and most names
    listed shortly before the start."""
    counts = [int(round(c * (1.0 + size.pw_extra))) for c in size.pw_counts]
    n = sum(counts)
    n += n % 2
    t = PW_WARMUP + size.pw_trade_days
    start = np.busday_offset(np.datetime64(PW_START, "D"), -PW_WARMUP,
                             roll="forward")
    spec = toy_model.SyntheticUniverseSpec(
        n_assets=n, n_periods=t, seed=seed,
        loading_short_scale=0.8, loading_spread=1.0,
        resid_vol_long=0.015, resid_vol_short=0.015,
        factor_mean=2e-4, factor_vol=0.004,
        market_mean=3e-4, market_vol=0.012, start_date=str(start),
    )
    base, _ = toy_model.generate_universe(spec)
    rng = _rng(seed, 2)
    regions = []
    for region, c in zip(PW_REGIONS, counts):
        regions += [region] * c
    regions += [PW_REGIONS[0]] * (n - len(regions))
    regions = tuple(regions[k] for k in rng.permutation(n))
    level = np.exp(rng.normal(16.0, 1.2, n))
    adv = level[None, :] * np.exp(0.3 * rng.standard_normal((t, n)))
    shares = np.exp(rng.normal(17.0, 1.0, n))
    price = base.field("price")
    arrays = {"ret": base.field("ret").copy(), "adv": adv,
              "mcap": price * shares}
    late = rng.permutation(n)[: sum(size.pw_counts)]
    for arr in arrays.values():
        arr[: PW_WARMUP - PW_LISTED, late] = np.nan
    return base.dates, base.assets, regions, arrays


def pool_counts(size: Size) -> dict[str, int]:
    return dict(zip(PW_REGIONS, size.pw_counts))


def pool_wide_dates(size: Size) -> tuple[str, str]:
    start = np.datetime64(PW_START, "D")
    end = np.busday_offset(start, size.pw_trade_days - 1, roll="forward")
    return str(start), str(end)


def setup(workload: str, seed: int, size: Size, workdir: str) -> None:
    """Write the workload's inputs with the program's own writers."""
    os.makedirs(workdir, exist_ok=True)
    if workload == "horserace":
        for k in range(HR_MARKETS):
            cfg = _write(os.path.join(workdir, f"generate{k}.cfg"),
                         horserace_generate_config(seed, k, size))
            rc = cli.main(["generate", "--config", cfg,
                           "--out", os.path.join(workdir, f"market{k}")])
            if rc != 0:
                raise RuntimeError("factorlab generate failed")
        return
    maker = predictability_arrays if workload == "predictability" else pool_wide_arrays
    dates, assets, regions, arrays = maker(seed, size)
    panel = data.ReturnsPanel(dates=dates, assets=assets, regions=regions,
                              arrays=arrays)
    data.write_panel(panel, os.path.join(workdir, "panel.csv"))


# ---------------------------------------------------------------------------
# operations: each is one CLI call with its own config and output directory
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Op:
    name: str
    argv: list[str]
    out: str
    aum: float = 0.0


def operations(workload: str, size: Size, workdir: str) -> list[Op]:
    """The CLI calls of one round; configs are written on first use."""
    ops = []
    if workload == "horserace":
        start = np.busday_offset(np.datetime64("2000-01-03", "D"), HR_WARMUP,
                                 roll="forward")
        for k in range(HR_MARKETS):
            aum = AUMS[k % len(AUMS)]
            tag = f"market{k}_aum{aum:.0e}"
            cfg = _write(os.path.join(workdir, f"backtest_{tag}.cfg"), f"""[backtest]
panel = market{k}/panel.csv
truth_series = market{k}/truth_series.csv
mode = BOTH
aum = {aum:.1f}
cap = 0.03
vol_target = 0.06
start = {start}
cost_aversion = 1.0

[signals]
factors = MOM
weights = 1
ema_span = 150
{HR_COSTS}""")
            ops.append(Op(tag, ["backtest", "--config", cfg],
                          os.path.join(workdir, f"out_{tag}"), aum))
    elif workload == "predictability":
        cfg = _write(os.path.join(workdir, "pred.cfg"), f"""[predictability]
panel = panel.csv
factors = MOM VALUEEAR LOWVOL SMB ROA
horizon_days = 21
n_bins = 20
lookback_days = {size.pr_lookback}
""")
        ops.append(Op("predictability", ["predictability", "--config", cfg],
                      os.path.join(workdir, "out_pred")))
    elif workload == "pool_wide":
        start, end = pool_wide_dates(size)
        counts = " ".join(f"{r}:{c}" for r, c in pool_counts(size).items())
        cfg = _write(os.path.join(workdir, "pool.cfg"), f"""[backtest]
panel = panel.csv
mode = LS
aum = 1e9
cap = 0.03
vol_target = 0.06
start = {start}
end = {end}
cov_window = {PW_COV_WINDOW}

[signals]
factors = LOWVOL SMB
weights = 1 1
ema_span = 150
{HR_COSTS}
[pool]
counts = {counts}
""")
        ops.append(Op("pool_wide", ["backtest", "--config", cfg],
                      os.path.join(workdir, "out_pool")))
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return ops
