#!/usr/bin/env python3
"""Show that every output check can fail.

    python3 perfbench/selftest.py

Runs the three workloads at smoke size in this process, confirms each check
accepts the program's real outputs, then feeds it a wrong output (a
sign-flipped LS book, an LH book over budget, a residual panel shifted by a
day, a broken accounting identity, ...) and confirms it is rejected. Exits
non-zero if a check accepts a wrong output or rejects a right one.
"""

import copy
import dataclasses
import json
import os
import shutil
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[name] = "1"
sys.path[:0] = [os.path.join(ROOT, "src"), HERE]

import numpy as np  # noqa: E402

import checks  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from child import COSTS, Checker  # noqa: E402
from factorlab import cli  # noqa: E402

SIZE = workloads.SIZES["smoke"]
SEED = 5
CAPTURE = {"portfolio.optimize_long_only", "portfolio.build_long_short",
           "portfolio.clean_correlation", "signals.residual_returns",
           "data.select_pool", "portfolio.run_backtest"}


def run_workload(workload: str, workdir: str):
    workloads.setup(workload, SEED, SIZE, workdir)
    ops = workloads.operations(workload, SIZE, workdir)
    inst = spans.Instrument(trace=False, capture=CAPTURE).install()
    try:
        for op in ops:
            if cli.main(op.argv + ["--out", op.out]) != 0:
                raise SystemExit(f"selftest: {workload} {op.name} failed")
    finally:
        inst.remove()
    return ops, inst.captured


class Tally:
    def __init__(self):
        self.rejected = 0
        self.problems = []

    def accepts(self, what, fn, *args):
        try:
            fn(*args)
        except checks.CheckFailed as exc:
            self.problems.append(f"{what}: rejected a right output ({exc})")

    def rejects(self, what, fn, *args):
        try:
            fn(*args)
        except checks.CheckFailed as exc:
            self.rejected += 1
            print(f"rejected  {what}: {exc}")
        else:
            self.problems.append(f"{what}: accepted a wrong output")


def daily_cases(tally, out, aum, mode):
    cols = checks.read_columns(os.path.join(out, f"backtest_{mode}.csv"), first=1)
    args = (aum, COSTS["linear_rate"], COSTS["financing_spread"],
            COSTS["default_borrow_fee"])
    tally.accepts(f"{mode} daily file", checks.check_daily, cols, mode, *args)
    day = int(np.argmax(cols["traded_notional"]))

    def broken(add_up=True, **changes):
        """One day's cells changed; the P&L still adds up unless add_up is
        False, so only the identity under test breaks."""
        bad = {k: v.copy() for k, v in cols.items()}
        row = {k: v[day] for k, v in bad.items()}
        for key, fn in changes.items():
            bad[key][day] = fn(row)
        if add_up:
            bad["total_pnl"][day] = sum(bad[k][day] for k in (
                "ret_pnl", "trading_cost", "financing_cost", "borrow_cost"))
        return bad

    def borrow(r):
        return -COSTS["default_borrow_fee"] * (r["gross_stock"] - 1e-3 * aum) / 2 / 252

    cases = {
        "P&L that does not add up": broken(
            add_up=False, total_pnl=lambda r: r["total_pnl"] + 1e-3 * aum),
        "financing off the formula": broken(
            financing_cost=lambda r: r["financing_cost"] - 1e-4 * aum),
        "trading cost below the linear rate": broken(
            trading_cost=lambda r: -0.5 * COSTS["linear_rate"] * r["traded_notional"]),
    }
    if mode == "LH":
        cases["gross above net"] = broken(
            net_stock=lambda r: r["net_stock"] - 1e-3 * aum)
        cases["net above AUM"] = broken(
            gross_stock=lambda r: 1.1 * aum, net_stock=lambda r: 1.1 * aum,
            financing_cost=lambda r: -COSTS["financing_spread"] * max(
                1.1 * aum + abs(r["hedge_notional"]) - aum, 0.0) / 252)
        cases["borrow on a long-only book"] = broken(borrow_cost=lambda r: -1.0)
    else:
        cases["borrow off the formula"] = broken(
            borrow_cost=lambda r: 2.0 * r["borrow_cost"] - 1.0)
        cases["LS book with net exposure"] = broken(
            net_stock=lambda r: 1e-3 * aum, borrow_cost=borrow)
    for what, bad in cases.items():
        tally.rejects(f"{mode}: {what}", checks.check_daily, bad, mode, *args)
    return cols


def main() -> int:
    workdir = os.path.join(ROOT, ".perfbench", "selftest")
    shutil.rmtree(workdir, ignore_errors=True)
    tally = Tally()
    try:
        # horserace: daily files, summary, LH solves, LS books, cleaned matrices
        ops, cap = run_workload("horserace", os.path.join(workdir, "horserace"))
        op = ops[-1]
        with open(os.path.join(op.out, "backtest_summary.json")) as fh:
            summary = json.load(fh)
        for mode in ("LH", "LS"):
            cols = daily_cases(tally, op.out, op.aum, mode)
            tally.accepts(f"{mode} summary", checks.check_summary, summary, mode,
                          cols["total_pnl"], op.aum)
            bad = copy.deepcopy(summary)
            bad[mode]["sharpe"] *= 1.01
            tally.rejects(f"{mode}: summary Sharpe not from the daily file",
                          checks.check_summary, bad, mode, cols["total_pnl"], op.aum)
            bad = copy.deepcopy(summary)
            bad[mode]["ann_return"] += 1e-4
            tally.rejects(f"{mode}: summary return not from the daily file",
                          checks.check_summary, bad, mode, cols["total_pnl"], op.aum)

        call, book = max(cap["portfolio.optimize_long_only"],
                         key=lambda cb: np.sum(cb[1]) / cb[0]["aum"])
        tally.accepts("LH solve", checks.check_lh_solve, call, book)
        tally.rejects("LH book over budget", checks.check_lh_solve, call,
                      np.full(len(book), call["cap"] * call["aum"]))
        tally.rejects("LH book short of the optimum", checks.check_lh_solve, call,
                      np.where(book > 0, book * 0.5, 0.0))

        call, out = next((c, o) for c, o in cap["portfolio.build_long_short"]
                         if np.any(o[0] != 0))
        w = out[0]
        tally.accepts("LS book", checks.check_ls_book, call, out)
        tally.rejects("sign-flipped LS book", checks.check_ls_book, call,
                      (-w,) + out[1:])
        tally.rejects("LS book with net exposure", checks.check_ls_book, call,
                      (np.where(w != 0, w + 1e-3 * call["aum"], 0.0),) + out[1:])
        over = w * (2.0 * call["cap"] * call["aum"] / np.max(np.abs(w)))
        tally.rejects("LS book over its caps", checks.check_ls_book, call,
                      (over,) + out[1:])
        v = np.zeros(len(w))
        lead = call["cleaned"].leading_eigenvector
        v[call["cleaned"].asset_indices] = lead - np.mean(lead)
        tally.rejects("LS book exposed to the leading eigenvector",
                      checks.check_ls_book, call,
                      (w + 1e-3 * call["aum"] * v,) + out[1:])

        _, cleaned = cap["portfolio.clean_correlation"][0]
        tally.accepts("cleaned correlation", checks.check_cleaned, cleaned)
        for what, edit in (
                ("asymmetric", lambda c: c.__setitem__((0, 1), c[0, 1] + 1e-3)),
                ("non-unit diagonal", lambda c: np.fill_diagonal(c, 0.9)),
                ("not positive semi-definite", lambda c: (
                    c.__setitem__((0, 1), 1.5), c.__setitem__((1, 0), 1.5)))):
            bad = cleaned.corr.copy()
            edit(bad)
            tally.rejects(f"cleaned correlation {what}", checks.check_cleaned,
                          dataclasses.replace(cleaned, corr=bad))

        # predictability: residuals and the MOM curve against the reference
        ops, cap = run_workload("predictability",
                                os.path.join(workdir, "predictability"))
        checker = Checker("predictability", SEED, SIZE)
        ref = checker.reference()
        (_, resid), = cap["signals.residual_returns"]
        tally.accepts("residuals", checks.check_residuals, resid, ref["resid"])
        shifted = np.roll(resid, 1, axis=0)
        tally.rejects("residuals shifted by a day", checks.check_residuals,
                      shifted, ref["resid"])
        nudged = resid.copy()
        nudged[np.isfinite(nudged)] *= 1.0 + 1e-6
        tally.rejects("residuals off by a part in a million",
                      checks.check_residuals, nudged, ref["resid"])
        path = os.path.join(ops[0].out, "pred_MOM.csv")
        tally.accepts("MOM curve", checks.check_curve, path, ref["curve"])
        with open(path) as fh:
            lines = fh.read().splitlines()
        cells = lines[1].split(",")
        cells[1] = repr(float(cells[1]) + 1e-6)
        bad_path = os.path.join(workdir, "pred_MOM_bad.csv")
        with open(bad_path, "w") as fh:
            fh.write("\n".join([lines[0], ",".join(cells)] + lines[2:]) + "\n")
        tally.rejects("MOM curve with a wrong bin mean", checks.check_curve,
                      bad_path, ref["curve"])

        # pool_wide: pool membership and the books it holds
        ops, cap = run_workload("pool_wide", os.path.join(workdir, "pool_wide"))
        dates, _, regions, arrays = workloads.pool_wide_arrays(SEED, SIZE)
        ref_mask = checks.reference_pool(arrays["adv"], regions, np.asarray(dates),
                                         workloads.pool_counts(SIZE))
        (_, pool), = cap["data.select_pool"]
        tally.accepts("pool", checks.check_pool, pool.mask, ref_mask)
        bad = pool.mask.copy()
        t = pool.rebalance_indices[-1]
        in_na = np.asarray(regions) == "NA"
        j = int(np.nonzero(bad[t] & in_na)[0][0])
        k = int(np.nonzero(~bad[t] & in_na)[0][0])
        bad[t:, j], bad[t:, k] = False, True
        tally.rejects("pool that swaps a top-k name for a lower one",
                      checks.check_pool, bad, ref_mask)
        (call, result), = cap["portfolio.run_backtest"]
        cap_ = call["config"].cap
        tally.accepts("pool books", checks.check_pool_books, result, pool.mask,
                      np.asarray(dates), cap_)
        bad = copy.copy(result)
        bad.positions = result.positions.copy()
        bad.positions[-1, k] = 1.0
        bad.positions[-1, j] -= 1.0
        tally.rejects("book holding a name outside the pool",
                      checks.check_pool_books, bad, pool.mask, np.asarray(dates), cap_)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for p in tally.problems:
        print(f"PROBLEM   {p}")
    print(f"selftest: {tally.rejected} wrong outputs rejected, "
          f"{len(tally.problems)} problems")
    return 1 if tally.problems else 0


if __name__ == "__main__":
    sys.exit(main())
