#!/usr/bin/env python3
"""Sweep the two-asset model grid and print where shorts become accretive.

Runs `factorlab toy` on configs/toy_sweep.cfg, which writes the sweep CSV +
threshold report into --out (default ./out/toy), and prints a small table
of the ratio against the short loading for each residual-variance level.
"""

import argparse
import csv
import os
import sys

from factorlab import cli

CONFIG = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir,
                      "configs", "toy_sweep.cfg")


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="out/toy")
    args = parser.parse_args()
    rc = cli.main(["toy", "--config", CONFIG, "--out", args.out])
    if rc != 0:
        return rc

    with open(os.path.join(args.out, "toy_sweep.csv")) as fh:
        rows = list(csv.DictReader(fh))
    gammas = sorted({row["gamma"] for row in rows}, key=float)
    print(f"{'alpha2':>10} " + " ".join(f"g={g:>6}" for g in gammas))
    alphas = sorted({row["alpha2"] for row in rows}, key=float)
    for a in alphas:
        cells = []
        for g in gammas:
            (row,) = [r for r in rows if r["alpha2"] == a and r["gamma"] == g]
            cells.append(f"{float(row['ratio']):8.4f}")
        marker = " <- threshold" if a.startswith("0.41421356") else ""
        print(f"{float(a):10.4f} " + " ".join(cells) + marker)
    print(f"\nfiles in {args.out}/")
    return 0


if __name__ == "__main__":
    sys.exit(main())
