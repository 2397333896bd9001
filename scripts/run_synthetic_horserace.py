#!/usr/bin/env python3
"""Generate a synthetic market and race the LH and LS implementations on it
at AUM 1e8, 1e9 and 1e10, all costs included, printing a per-book cost
attribution table for each AUM.

The default market has a short-side loading of 0.8, comfortably above the
accretive-shorts threshold of 0.414 at equal residual variances, so the
long-short book should come out ahead once the sample is long enough; the
costs that grow with AUM decide by how much. Each AUM is its own
`factorlab backtest` on the one generated panel, so only the first parses
panel.csv and the others read its sidecar, panel.csv.npz.
"""

import argparse
import json
import os
import sys

from factorlab import cli

# the paper's question depends on AUM: market impact grows with it
AUMS = (1e8, 1e9, 1e10)

GENERATE_CFG = """\
[generate]
n_assets = 100
n_periods = 2500
seed = {seed}
alpha2 = 0.8
resid_vol_long = 0.004
resid_vol_short = 0.004
factor_mean = 0.0008
factor_vol = 0.004
market_mean = 0.0003
market_vol = 0.012
"""

# momentum is the one premium this synthetic market embodies; low-vol and
# size proxies anti-align with a pure drift construction by design
BACKTEST_CFG = """\
[backtest]
panel = {panel}
mode = BOTH
truth_series = {truth}
aum = {aum:.1f}
cap = 0.03
vol_target = 0.06
start = {start}
cost_aversion = 1.0

[signals]
factors = MOM
weights = 1
ema_span = 150

[costs]
linear_rate = 5e-4
impact_coeff = 1.0
financing_spread = 0.02
default_borrow_fee = 0.0025
"""


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="out/horserace")
    parser.add_argument("--seed", type=int, default=7)
    args = parser.parse_args()
    data_dir = os.path.join(args.out, "market")
    os.makedirs(args.out, exist_ok=True)

    gen_cfg = os.path.join(args.out, "generate.cfg")
    with open(gen_cfg, "w") as fh:
        fh.write(GENERATE_CFG.format(seed=args.seed))
    rc = cli.main(["generate", "--config", gen_cfg, "--out", data_dir])
    if rc != 0:
        return rc

    rows = [
        ("sharpe", "{:.2f}"),
        ("mean_drawdown", "{:.2%}"),
        ("returns_and_divs", "{:+.2%}"),
        ("trading_cost", "{:+.2%}"),
        ("financing_cost", "{:+.2%}"),
        ("borrow_cost", "{:+.2%}"),
        ("ann_return", "{:+.2%}"),
        ("ann_vol", "{:.2%}"),
        ("mean_gross_leverage", "{:.2f}"),
    ]
    for aum in AUMS:
        bt_dir = os.path.join(args.out, f"backtest_aum{aum:.0e}")
        bt_cfg = os.path.join(args.out, f"backtest_aum{aum:.0e}.cfg")
        with open(bt_cfg, "w") as fh:
            fh.write(BACKTEST_CFG.format(
                panel=os.path.abspath(os.path.join(data_dir, "panel.csv")),
                truth=os.path.abspath(os.path.join(data_dir, "truth_series.csv")),
                aum=aum,
                start="2001-02-01",
            ))
        rc = cli.main(["backtest", "--config", bt_cfg, "--out", bt_dir])
        if rc != 0:
            return rc

        with open(os.path.join(bt_dir, "backtest_summary.json")) as fh:
            summary = json.load(fh)
        print(f"\naum = {aum:.0e}")
        print(f"{'':>22} {'LH':>10} {'LS':>10}")
        for key, fmt in rows:
            cells = []
            for mode in ("LH", "LS"):
                v = summary[mode][key]
                cells.append("n/a" if v is None else fmt.format(v))
            print(f"{key:>22} {cells[0]:>10} {cells[1]:>10}")
    print(f"\nfull outputs in {args.out}/")
    return 0


if __name__ == "__main__":
    sys.exit(main())
