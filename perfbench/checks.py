"""Output checks, written apart from the program.

Each check recomputes what it can with plain numpy, or tests a property the
method must have, and raises CheckFailed with the first violation. None of
them compares against stored output. They run outside the timed region.
"""

from __future__ import annotations

import csv
import json
import math
import os

import numpy as np


class CheckFailed(AssertionError):
    pass


def _require(ok, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


def read_columns(path: str, first: int = 0) -> dict[str, np.ndarray]:
    """Numeric columns of a CSV from column `first` on; empty cells are NaN."""
    with open(path, encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(fh))
    _require(len(rows) > 1, f"{path}: no rows")
    return {name: np.array([float(r[j]) if r[j] else np.nan for r in rows[1:]])
            for j, name in enumerate(rows[0]) if j >= first}


# ---------------------------------------------------------------------------
# backtest daily file and summary
# ---------------------------------------------------------------------------

def check_daily(cols: dict[str, np.ndarray], mode: str, aum: float,
                linear_rate: float, financing_spread: float,
                borrow_fee: float, days_per_year: int = 252) -> None:
    """Accounting identities of one book's daily file (costs as written:
    non-positive P&L contributions)."""
    eps = 1e-9 * aum
    total = cols["ret_pnl"] + cols["trading_cost"] + cols["financing_cost"] \
        + cols["borrow_cost"]
    _require(np.all(np.abs(total - cols["total_pnl"]) <= eps),
             f"{mode}: daily P&L components do not add up to total_pnl")
    gross, net = cols["gross_stock"], cols["net_stock"]
    hedge = cols["hedge_notional"]
    fin = financing_spread * np.maximum(gross + np.abs(hedge) - aum, 0.0) \
        / days_per_year
    _require(np.allclose(-cols["financing_cost"], fin, rtol=1e-9, atol=eps),
             f"{mode}: financing differs from spread * max(gross + |hedge| - AUM, 0) / 252")
    _require(np.all(-cols["trading_cost"] >= linear_rate * cols["traded_notional"]
                    * (1.0 - 1e-12) - eps),
             f"{mode}: trading cost below the linear rate times traded notional")
    if mode == "LH":
        _require(np.all(cols["borrow_cost"] == 0.0), "LH: non-zero borrow cost")
        _require(np.all(np.abs(gross - net) <= eps), "LH: gross differs from net")
        _require(np.all(net <= aum + eps), "LH: net exposure above AUM")
    else:
        bor = borrow_fee * (gross - net) / 2.0 / days_per_year
        _require(np.allclose(-cols["borrow_cost"], bor, rtol=1e-9, atol=eps),
                 "LS: borrow differs from fee * (gross - net) / 2 / 252")
        _require(np.all(np.abs(net) <= 1e-8 * gross + 1e-6),
                 "LS: book is not dollar-neutral")
        _require(np.all(hedge == 0.0), "LS: book carries an index hedge")


def check_summary(summary: dict, mode: str, total_pnl: np.ndarray, aum: float,
                  days_per_year: int = 252) -> None:
    """The summary's Sharpe ratio and annual return, recomputed from the
    daily file."""
    x = total_pnl / aum
    sharpe = float(np.mean(x) / np.std(x, ddof=1) * math.sqrt(days_per_year))
    ann = float(np.mean(total_pnl)) * days_per_year / aum
    got = summary[mode]
    _require(got["sharpe"] is not None
             and math.isclose(got["sharpe"], sharpe, rel_tol=1e-9, abs_tol=1e-12),
             f"{mode}: summary Sharpe {got['sharpe']} != recomputed {sharpe}")
    _require(math.isclose(got["ann_return"], ann, rel_tol=1e-9, abs_tol=1e-15),
             f"{mode}: summary annual return {got['ann_return']} != recomputed {ann}")


def check_backtest_outputs(outdir: str, modes, aum: float, costs: dict) -> None:
    with open(os.path.join(outdir, "backtest_summary.json"), encoding="utf-8") as fh:
        summary = json.load(fh)
    for mode in modes:
        cols = read_columns(os.path.join(outdir, f"backtest_{mode}.csv"), first=1)
        check_daily(cols, mode, aum, costs["linear_rate"],
                    costs["financing_spread"], costs["default_borrow_fee"])
        check_summary(summary, mode, cols["total_pnl"], aum)


# ---------------------------------------------------------------------------
# books
# ---------------------------------------------------------------------------

def _piece_argmax(g, p, lin, k, u):
    """Per-asset argmax over [0, u] of g*w - lin*|w-p| - k*|w-p|^1.5."""
    with np.errstate(divide="ignore", invalid="ignore"):
        up = np.where(k > 0, p + ((g - lin) / (1.5 * k)) ** 2, np.inf)
        down = np.where(k > 0, p - ((-g - lin) / (1.5 * k)) ** 2, -np.inf)
    w = np.where(g > lin, up, np.where(g < -lin, down, p))
    return np.clip(w, 0.0, u)


def lh_optimum(call: dict) -> tuple[float, np.ndarray, np.ndarray, float]:
    """Exact long-only optimum by bisection on the single budget dual.

    The objective separates across assets once the budget constraint is
    priced at lam >= 0, and sum(w(lam)) falls as lam rises, so the optimum
    is w(lam*) with lam* = 0 or sum(w(lam*)) = budget. Returns the optimal
    objective, the tradable mask, the per-asset objective terms and the
    budget.
    """
    params = call["cost_params"]
    aum, cap = call["aum"], call["cap"]
    ca = call["cost_aversion"]
    _require(call["min_invested"] == 0.0, "unexpected min_invested")
    s = np.nan_to_num(np.asarray(call["scores"], dtype=float), nan=0.0)
    p = np.maximum(np.nan_to_num(np.asarray(call["prev_positions"], dtype=float),
                                 nan=0.0), 0.0)
    adv = np.asarray(call["adv"], dtype=float)
    sigma = np.asarray(call["sigma_daily"], dtype=float)
    tradable = np.isfinite(adv) & (adv > 0) & np.isfinite(sigma)
    budget = max(aum - float(np.sum(p[~tradable])), 0.0)
    u = cap * aum
    lin = ca * params.linear_rate
    k = ca * params.impact_coeff * sigma[tradable] / np.sqrt(adv[tradable])
    st, pt = s[tradable], p[tradable]

    def solve(lam):
        return _piece_argmax(st - lam, pt, lin, k, u)

    w = solve(0.0)
    if np.sum(w) > budget:
        lo = 0.0
        hi = float(np.max(np.abs(st))) + lin \
            + 1.5 * float(np.max(k)) * math.sqrt(max(u, float(np.max(pt)))) + 1.0
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if np.sum(solve(mid)) > budget:
                lo = mid
            else:
                hi = mid
        w = solve(hi)
    return lh_objective(w, st, pt, lin, k), tradable, (st, pt, lin, k), budget


def lh_objective(w, s, p, lin, k) -> float:
    d = np.abs(w - p)
    return float(np.sum(s * w - lin * d - k * d ** 1.5))


def check_lh_solve(call: dict, book: np.ndarray, tol: float = 1e-8) -> float:
    """The solver's book is feasible and within tol * AUM of the exact
    optimum; returns the gap as a share of AUM."""
    aum, u = call["aum"], call["cap"] * call["aum"]
    best, tradable, (s, p, lin, k), budget = lh_optimum(call)
    w = np.asarray(book, dtype=float)
    wt = w[tradable]
    _require(np.all(w >= -1e-12 * aum), "LH book has a short position")
    _require(np.all(wt <= u * (1 + 1e-12)), "LH book breaks the per-asset cap")
    _require(np.sum(wt) <= budget + 1e-9 * aum, "LH book is over budget")
    gap = (best - lh_objective(wt, s, p, lin, k)) / aum
    _require(gap <= tol, f"LH book is {gap:.3g} * AUM short of the optimum")
    return gap


def check_ls_book(call: dict, out) -> None:
    """Dollar-neutral, neutral to the leading eigenvector, within its caps,
    and long its own signal."""
    w, _, _ = out
    cleaned = call["cleaned"]
    aum, cap = call["aum"], call["cap"]
    idx = np.asarray(cleaned.asset_indices)
    outside = np.ones(len(w), dtype=bool)
    outside[idx] = False
    _require(np.all(w[outside] == 0.0), "LS book holds assets outside its universe")
    wi = w[idx]
    gross = float(np.sum(np.abs(wi)))
    _require(abs(float(np.sum(wi))) <= 1e-9 * gross + 1e-6,
             "LS book is not dollar-neutral")
    _require(abs(float(cleaned.leading_eigenvector @ wi)) <= 1e-9 * gross + 1e-6,
             "LS book is exposed to the leading eigenvector")
    _require(np.max(np.abs(wi)) <= cap * aum * (1 + 1e-9),
             "LS book breaks the per-asset cap")
    if gross > 0:
        s = np.nan_to_num(np.asarray(call["scores"], dtype=float)[idx], nan=0.0)
        _require(float(wi @ (s - np.mean(s))) > 0.0,
                 "LS book is short its own signal")


def check_cleaned(out) -> None:
    """Symmetric, unit diagonal, positive semi-definite."""
    c = out.corr
    n = c.shape[0]
    _require(np.array_equal(c, c.T), "cleaned correlation is not symmetric")
    _require(np.all(np.abs(np.diag(c) - 1.0) <= 1e-12),
             "cleaned correlation has a non-unit diagonal")
    try:
        np.linalg.cholesky(c + 1e-9 * np.eye(n))
    except np.linalg.LinAlgError:
        raise CheckFailed("cleaned correlation is not positive semi-definite") from None


# ---------------------------------------------------------------------------
# predictability
# ---------------------------------------------------------------------------

def _leading_vector(c: np.ndarray) -> np.ndarray:
    """Leading eigenvector by power iteration, eigh when it stalls."""
    v = np.full(c.shape[0], 1.0 / math.sqrt(c.shape[0]))
    for _ in range(500):
        nxt = c @ v
        nxt /= np.linalg.norm(nxt)
        done = np.linalg.norm(nxt - v) < 1e-14
        v = nxt
        if done:
            break
    lam = float(v @ c @ v)
    if np.linalg.norm(c @ v - lam * v) > 1e-12 * lam:
        v = np.linalg.eigh(c)[1][:, -1]
    return v if np.sum(v) >= 0 else -v


def reference_residuals(ret: np.ndarray, lookback: int,
                        min_frac: float = 0.8) -> np.ndarray:
    """Each return minus its beta times today's value of the leading
    correlation mode of the trailing window."""
    t_total, n = ret.shape
    out = np.full((t_total, n), np.nan)
    need = math.ceil(min_frac * lookback)
    for t in range(lookback - 1, t_total):
        x = ret[t - lookback + 1:t + 1]
        use = (np.sum(np.isfinite(x), axis=0) >= need) & np.isfinite(ret[t])
        x = x[:, use]
        mu = np.nanmean(x, axis=0)
        sd = np.sqrt(np.nanmean((x - mu) ** 2, axis=0))
        keep = sd > 0
        cols = np.nonzero(use)[0][keep]
        if len(cols) < 2:
            continue
        z = np.nan_to_num((x[:, keep] - mu[keep]) / sd[keep], nan=0.0)
        v = _leading_vector(z.T @ z / lookback)
        mode = z @ v
        beta = sd[keep] * (z.T @ mode) / (mode @ mode)
        out[t, cols] = ret[t, cols] - beta * mode[-1]
    return out


def reference_mom_scores(ret: np.ndarray) -> np.ndarray:
    """Mean return over days t-252 .. t-21 (at least 120 valid), ranked per
    date onto (rank - 0.5) / n - 0.5 with ties averaged."""
    t_total, n = ret.shape
    ok = np.isfinite(ret)
    csum = np.vstack([np.zeros(n), np.cumsum(np.where(ok, ret, 0.0), axis=0)])
    ccnt = np.vstack([np.zeros(n), np.cumsum(ok, axis=0)])
    out = np.full((t_total, n), np.nan)
    for t in range(252, t_total):
        cnt = ccnt[t - 20] - ccnt[t - 252]
        mean = (csum[t - 20] - csum[t - 252]) / np.maximum(cnt, 1)
        valid = cnt >= 120
        if np.sum(valid) < 2:
            continue
        vals = mean[valid]
        uniq, inverse, counts = np.unique(vals, return_inverse=True,
                                          return_counts=True)
        first = np.concatenate([[0], np.cumsum(counts)[:-1]])
        ranks = (first + 1 + first + counts) / 2.0
        out[t, valid] = (ranks[inverse] - 0.5) / len(vals) - 0.5
    return out


def reference_curve(scores: np.ndarray, resid: np.ndarray, horizon: int,
                    n_bins: int) -> dict[str, np.ndarray]:
    """Equal-count bins of (score, mean residual over the next horizon
    days), pooled over dates and assets."""
    t_total, n = resid.shape
    fwd = np.full((t_total, n), np.nan)
    for t in range(t_total - horizon):
        window = resid[t + 1:t + 1 + horizon]
        full = np.all(np.isfinite(window), axis=0)
        fwd[t, full] = np.mean(window[:, full], axis=0)
    ok = np.isfinite(scores) & np.isfinite(fwd)
    x, y = scores[ok], fwd[ok]
    chunks = np.array_split(np.argsort(x, kind="stable"), n_bins)
    return {
        "bin_x": np.array([np.mean(x[c]) for c in chunks]),
        "bin_y": np.array([np.mean(y[c]) for c in chunks]),
        "stderr": np.array([np.std(y[c], ddof=1) / math.sqrt(len(c))
                            for c in chunks]),
        "count": np.array([len(c) for c in chunks], dtype=float),
    }


def check_residuals(got: np.ndarray, ref: np.ndarray) -> None:
    _require(got.shape == ref.shape, "residual panel has the wrong shape")
    _require(np.array_equal(np.isfinite(got), np.isfinite(ref)),
             "residuals are defined on other cells than the reference")
    ok = np.isfinite(ref)
    err = float(np.max(np.abs(got[ok] - ref[ok]))) if np.any(ok) else 0.0
    scale = float(np.max(np.abs(ref[ok]))) if np.any(ok) else 1.0
    _require(err <= 1e-9 * scale, f"residuals differ from the reference by {err:.3g}")


def check_curve(path: str, ref: dict[str, np.ndarray]) -> None:
    got = read_columns(path)
    _require(np.array_equal(got["count"], ref["count"]),
             f"{os.path.basename(path)}: bin counts differ from the reference")
    scale_y = float(np.max(np.abs(ref["bin_y"])))
    _require(np.allclose(got["bin_x"], ref["bin_x"], rtol=1e-12, atol=1e-15),
             f"{os.path.basename(path)}: bin_x differs from the reference")
    _require(np.all(np.abs(got["bin_y"] - ref["bin_y"]) <= 1e-9 * scale_y),
             f"{os.path.basename(path)}: bin_y differs from the reference")
    _require(np.allclose(got["stderr"], ref["stderr"], rtol=1e-6, atol=0.0),
             f"{os.path.basename(path)}: stderr differs from the reference")


def check_predictability_outputs(outdir: str, factors, n_bins: int) -> None:
    with open(os.path.join(outdir, "pred_summary.json"), encoding="utf-8") as fh:
        summary = json.load(fh)
    _require(sorted(summary["factors"]) == sorted(factors),
             "predictability summary lacks a factor")
    for name in factors:
        curve = read_columns(os.path.join(outdir, f"pred_{name}.csv"))
        _require(len(curve["count"]) == n_bins, f"pred_{name}.csv: wrong bin count")
        _require(int(np.sum(curve["count"])) == summary["factors"][name]["n_obs"],
                 f"pred_{name}.csv: bin counts do not add up to n_obs")


# ---------------------------------------------------------------------------
# liquidity pool
# ---------------------------------------------------------------------------

def reference_pool(adv: np.ndarray, regions, dates: np.ndarray,
                   counts: dict[str, int], window: int = 180,
                   min_valid: int = 60) -> np.ndarray:
    """Per month start and region, the top-k assets by mean ADV over the
    trailing window that ends the day before; ties go to the lower index."""
    t_total, n = adv.shape
    regions = np.asarray(regions)
    months = dates.astype("datetime64[M]")
    starts = [0] + [t for t in range(1, t_total) if months[t] != months[t - 1]]
    mask = np.zeros((t_total, n), dtype=bool)
    for k, s in enumerate(starts):
        win = adv[max(0, s - window):s]
        valid = np.isfinite(win)
        cnt = valid.sum(axis=0)
        with np.errstate(invalid="ignore", divide="ignore"):
            mean = np.where(valid, win, 0.0).sum(axis=0) / cnt
        member = np.zeros(n, dtype=bool)
        for region, count in counts.items():
            cand = [j for j in range(n) if regions[j] == region and cnt[j] >= min_valid]
            cand.sort(key=lambda j: (-mean[j], j))
            member[cand[:count]] = True
        end = starts[k + 1] if k + 1 < len(starts) else t_total
        mask[s:end] = member
    return mask


def check_pool(got_mask: np.ndarray, ref_mask: np.ndarray) -> None:
    _require(np.array_equal(got_mask, ref_mask),
             "pool membership differs from the top-k by trailing ADV")


def check_pool_books(result, mask: np.ndarray, dates: np.ndarray,
                     cap: float) -> None:
    """LS books hold only pool members, stay within caps and are neutral."""
    pos = {d: i for i, d in enumerate(dates.tolist())}
    for d, w in zip(result.dates.tolist(), result.positions):
        held = w != 0.0
        _require(not np.any(held & ~mask[pos[d]]),
                 f"book on {d} holds an asset outside the pool")
        gross = float(np.sum(np.abs(w)))
        _require(np.max(np.abs(w)) <= cap * result.aum * (1 + 1e-9),
                 f"book on {d} breaks the per-asset cap")
        _require(abs(float(np.sum(w))) <= 1e-9 * gross + 1e-6,
                 f"book on {d} is not dollar-neutral")
