"""Batch entry points: wire a plain-text config to the library and emit
report files and plot-ready data.

Commands

    toy             closed-form Sharpe-ratio sweep over the model grid
    generate        synthetic panel + ground truth files
    predictability  residual-return predictability curves per factor
    backtest        LH / LS backtests with cost attribution
    famafrench      monthly 2x3 leg study on Kenneth-French-layout files

Configs are INI files with one section per concern; unknown sections or
keys are rejected. All randomness flows from the config (or --seed); no
output depends on the wall clock, so identical inputs give byte-identical
outputs. On failure every partially written output is removed and the exit
code is non-zero.
"""

from __future__ import annotations

import argparse
import configparser
import csv
import json
import os
import sys

import numpy as np

from . import analytics, costs, signals
from .data import (
    ReturnsPanel, _day, _each_row, _fmt, load_famafrench, load_panel,
    select_pool, write_panel,
)
from .portfolio import StrategyConfig, lh_matched_vol_targets, run_backtest
from .toy_model import (
    SyntheticUniverseSpec, ToyModelParams, generate_universe,
    shorts_threshold, sr_hedged_long, sr_long_short, sr_ratio,
)


class ConfigError(ValueError):
    pass


class Outputs:
    """Collects written files so a failed command can clean up after itself."""

    def __init__(self, outdir: str):
        self.outdir = outdir
        self.written: list[str] = []
        os.makedirs(outdir, exist_ok=True)

    def path(self, name: str) -> str:
        p = os.path.join(self.outdir, name)
        self.written.append(p)
        return p

    def write_csv(self, name: str, header, rows) -> str:
        p = self.path(name)
        with open(p, "w", encoding="utf-8", newline="") as fh:
            w = csv.writer(fh, lineterminator="\n")
            w.writerow(header)
            w.writerows(rows)
        return p

    def write_json(self, name: str, obj) -> str:
        p = self.path(name)
        with open(p, "w", encoding="utf-8") as fh:
            json.dump(obj, fh, indent=2, sort_keys=True)
            fh.write("\n")
        return p

    def cleanup(self) -> None:
        for p in self.written:
            try:
                os.remove(p)
            except OSError:
                pass


# ---------------------------------------------------------------------------
# config plumbing
# ---------------------------------------------------------------------------

def _read_config(path) -> configparser.ConfigParser:
    cfg = configparser.ConfigParser(interpolation=None)
    read = cfg.read(path)
    if not read:
        raise ConfigError(f"config file not found: {path}")
    return cfg


def _check_schema(cfg: configparser.ConfigParser, schema: dict[str, set | None],
                  required: set[str]) -> None:
    for section in cfg.sections():
        if section not in schema:
            raise ConfigError(
                f"unknown config section [{section}]; known: "
                + ", ".join(sorted(schema))
            )
        allowed = schema[section]
        if allowed is None:
            continue
        for key in cfg[section]:
            if key not in allowed:
                raise ConfigError(
                    f"unknown key {key!r} in [{section}]; known: "
                    + ", ".join(sorted(allowed))
                )
    for section in required:
        if not cfg.has_section(section):
            raise ConfigError(f"missing required config section [{section}]")


def _floats(raw: str) -> list[float]:
    try:
        vals = [float(tok) for tok in raw.split()]
    except ValueError:
        raise ConfigError(f"bad float list: {raw!r}") from None
    if not vals:
        raise ConfigError("empty value list")
    return vals


def _get(section, key, conv, default=None, required=False):
    if key not in section:
        if required:
            raise ConfigError(f"missing key {key!r}")
        return default
    raw = section[key]
    try:
        return conv(raw)
    except ConfigError:
        raise
    except (ValueError, TypeError):
        raise ConfigError(f"bad value for {key!r}: {raw!r}") from None


def _bool(raw: str) -> bool:
    low = raw.strip().lower()
    if low in ("1", "true", "yes", "on"):
        return True
    if low in ("0", "false", "no", "off"):
        return False
    raise ConfigError(f"bad boolean: {raw!r}")


_POOL_KEYS = {"counts", "adv_window_days", "min_valid_days"}
_COST_KEYS = {
    "linear_rate", "impact_coeff", "financing_spread", "default_borrow_fee",
    "trading_days_per_year", "borrow_file",
}


def _parse_pool(cfg, panel: ReturnsPanel):
    if not cfg.has_section("pool"):
        return None
    sec = cfg["pool"]
    counts_raw = _get(sec, "counts", str, required=True)
    counts = {}
    for tok in counts_raw.split():
        if ":" not in tok:
            raise ConfigError(f"pool counts entries look like REGION:N, got {tok!r}")
        region, num = tok.split(":", 1)
        counts[region] = int(num)
    return select_pool(
        panel,
        adv_window_days=_get(sec, "adv_window_days", int, 180),
        counts_by_region=counts,
        min_valid_days=_get(sec, "min_valid_days", int, 60),
    )


def _parse_costs(cfg, config_dir: str):
    if not cfg.has_section("costs"):
        return costs.CostModelParams(), None
    sec = cfg["costs"]
    params = costs.CostModelParams(
        linear_rate=_get(sec, "linear_rate", float, 5e-4),
        impact_coeff=_get(sec, "impact_coeff", float, 1.0),
        financing_spread=_get(sec, "financing_spread", float, 0.02),
        default_borrow_fee=_get(sec, "default_borrow_fee", float, 0.0025),
        trading_days_per_year=_get(sec, "trading_days_per_year", int, 252),
    )
    overrides = None
    if "borrow_file" in sec:
        overrides = costs.load_borrow_fee_overrides(
            os.path.join(config_dir, sec["borrow_file"])
            if not os.path.isabs(sec["borrow_file"]) else sec["borrow_file"]
        )
    return params, overrides


def _resolve(config_dir: str, path: str) -> str:
    out = path if os.path.isabs(path) else os.path.join(config_dir, path)
    if not os.path.exists(out):
        raise ConfigError(f"path not found: {out}")
    return out


def _load_dated_column(path, column: str, panel_dates: np.ndarray) -> np.ndarray:
    """The `column` of a CSV whose header starts date,<column> (an index
    series date,ret or a generated truth_series.csv), mapped onto the panel
    calendar: NaN on panel days the file does not carry."""
    out = np.full(len(panel_dates), np.nan)
    pos = {d: i for i, d in enumerate(panel_dates.astype("datetime64[D]")
                                      .astype(np.int64).tolist())}
    seen = set()
    rows = _each_row(path, ("date", column), ConfigError)
    next(rows)
    for lineno, cells in rows:
        day = _day(cells[0], path, lineno, ConfigError)
        if day in seen:
            raise ConfigError(f"{path}: line {lineno}: duplicate date {cells[0]}")
        seen.add(day)
        try:
            value = float(cells[1])
        except ValueError:
            raise ConfigError(
                f"{path}: line {lineno}: bad {column} {cells[1]!r} on {cells[0]}"
            ) from None
        if day in pos:
            out[pos[day]] = value
    return out


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def cmd_toy(cfg, config_dir: str, out: Outputs, seed) -> None:
    _check_schema(cfg, {"toy": {"alpha2", "gamma", "kappa", "factor_mean",
                                "factor_var"}}, {"toy"})
    sec = cfg["toy"]
    alpha2 = _get(sec, "alpha2", _floats, required=True)
    gamma = _get(sec, "gamma", _floats, required=True)
    kappa = _get(sec, "kappa", _floats, required=True)
    mean_f = _get(sec, "factor_mean", float, 1.0)
    var_f = _get(sec, "factor_var", float, 1.0)
    rows = []
    for k in kappa:
        for g in gamma:
            for a in alpha2:
                p = ToyModelParams(mean_f, var_f, short_loading=a,
                                   resid_var_ratio=g, short_resid_var_ratio=k)
                rows.append([
                    _fmt(a), _fmt(g), _fmt(k),
                    _fmt(sr_long_short(p)), _fmt(sr_hedged_long(p)), _fmt(sr_ratio(p)),
                ])
    out.write_csv("toy_sweep.csv",
                  ["alpha2", "gamma", "kappa", "sr_ls", "sr_lh", "ratio"], rows)
    out.write_json("toy_thresholds.json", {
        "thresholds": [
            {"kappa": k, "alpha2_star": float(shorts_threshold(k))} for k in kappa
        ],
    })


def cmd_generate(cfg, config_dir: str, out: Outputs, seed) -> None:
    keys = {"n_assets", "n_periods", "seed", "loading_long", "alpha2",
            "loading_spread", "resid_vol_long", "resid_vol_short",
            "factor_mean", "factor_vol", "market_mean", "market_vol", "adv",
            "start_price", "start_date", "region"}
    _check_schema(cfg, {"generate": keys}, {"generate"})
    sec = cfg["generate"]
    spec = SyntheticUniverseSpec(
        n_assets=_get(sec, "n_assets", int, required=True),
        n_periods=_get(sec, "n_periods", int, required=True),
        seed=seed if seed is not None else _get(sec, "seed", int, 0),
        loading_long=_get(sec, "loading_long", float, 1.0),
        loading_short_scale=_get(sec, "alpha2", float, 0.0),
        loading_spread=_get(sec, "loading_spread", float, 0.0),
        resid_vol_long=_get(sec, "resid_vol_long", float, 0.0),
        resid_vol_short=_get(sec, "resid_vol_short", float, 0.0),
        factor_mean=_get(sec, "factor_mean", float, 0.0),
        factor_vol=_get(sec, "factor_vol", float, 0.0),
        market_mean=_get(sec, "market_mean", float, 0.0),
        market_vol=_get(sec, "market_vol", float, 0.0),
        adv=_get(sec, "adv", float, 1e7),
        start_price=_get(sec, "start_price", float, 100.0),
        start_date=_get(sec, "start_date", str, "2000-01-03"),
        region=_get(sec, "region", str, "SYN"),
    )
    panel, truth = generate_universe(spec)
    write_panel(panel, out.path("panel.csv"))
    out.write_csv("truth_loadings.csv", ["asset_id", "loading"],
                  [[a, _fmt(x)] for a, x in zip(panel.assets, truth.loadings)])
    out.write_csv("truth_series.csv", ["date", "market", "factor"],
                  [[str(d), _fmt(m), _fmt(f)]
                   for d, m, f in zip(panel.dates, truth.market, truth.factor)])


def _build_signal(cfg, panel, pool):
    """Blended, optionally EMA-slowed signal per the [signals] section;
    an absent section or empty factor list means a zero signal."""
    if not cfg.has_section("signals"):
        return signals.SignalPanel(
            dates=panel.dates, assets=panel.assets,
            scores=np.zeros((panel.n_dates, panel.n_assets)), factor="none",
        ), []
    sec = cfg["signals"]
    names = _get(sec, "factors", str, "").split()
    span = _get(sec, "ema_span", int, 150)
    if not names:
        return signals.SignalPanel(
            dates=panel.dates, assets=panel.assets,
            scores=np.zeros((panel.n_dates, panel.n_assets)), factor="none",
        ), []
    weights = _get(sec, "weights", _floats, [1.0] * len(names))
    if len(weights) != len(names):
        raise ConfigError("weights must match factors one for one")
    built, used, skipped = [], [], []
    for name, weight in zip(names, weights):
        try:
            sig = signals.factor_signal(panel, pool, name)
        except signals.SignalError as exc:
            skipped.append((name, str(exc)))
            continue
        if span > 0:
            sig = signals.smooth_ema(sig, span_days=span)
        built.append(sig)
        used.append(weight)
    for name, why in skipped:
        print(f"warning: skipping factor {name}: {why}", file=sys.stderr)
    if not built:
        raise ConfigError("no usable factors")
    return signals.blend(built, used), [n for n, _ in skipped]


def cmd_predictability(cfg, config_dir: str, out: Outputs, seed) -> None:
    schema = {
        "predictability": {"panel", "factors", "horizon_days", "n_bins",
                           "lookback_days", "ema_span"},
        "pool": _POOL_KEYS,
    }
    _check_schema(cfg, schema, {"predictability"})
    sec = cfg["predictability"]
    panel = load_panel(_resolve(config_dir, _get(sec, "panel", str, required=True)))
    pool = _parse_pool(cfg, panel)
    names = _get(sec, "factors", str, required=True).split()
    horizon = _get(sec, "horizon_days", int, 21)
    n_bins = _get(sec, "n_bins", int, 20)
    lookback = _get(sec, "lookback_days", int, 250)
    resid = signals.residual_returns(panel, lookback_days=lookback, pool=pool)
    summary = {"horizon_days": horizon, "n_bins": n_bins, "factors": {}}
    ok = 0
    for name in names:
        try:
            sig = signals.factor_signal(panel, pool, name)
            curve = signals.predictability_curve(sig, resid, horizon_days=horizon,
                                                 n_bins=n_bins)
        except signals.SignalError as exc:
            print(f"warning: skipping factor {name}: {exc}", file=sys.stderr)
            continue
        ok += 1
        out.write_csv(
            f"pred_{name}.csv", ["bin_x", "bin_y", "stderr", "count"],
            [[_fmt(x), _fmt(y), _fmt(se), str(int(c))]
             for x, y, se, c in zip(curve.bin_x, curve.bin_y, curve.bin_se,
                                    curve.bin_count)],
        )
        summary["factors"][name] = {
            "intercept": _json_num(curve.intercept),
            "positive_slope": _json_num(curve.positive_slope),
            "negative_slope": _json_num(curve.negative_slope),
            "positive_slope_se": _json_num(curve.positive_slope_se),
            "negative_slope_se": _json_num(curve.negative_slope_se),
            "slope_ratio": _json_num(curve.slope_ratio),
            "threshold": curve.threshold,
            "above_threshold": curve.above_threshold,
            "n_obs": curve.n_obs,
        }
    if ok == 0:
        raise ConfigError("no factor produced a predictability curve")
    out.write_json("pred_summary.json", summary)


def _json_num(x):
    return float(x) if np.isfinite(x) else None


def cmd_backtest(cfg, config_dir: str, out: Outputs, seed) -> None:
    schema = {
        "backtest": {"panel", "mode", "index", "truth_series", "aum", "cap",
                     "vol_target", "cost_aversion", "start", "end", "exec_lag",
                     "beta_window", "cov_window", "vol_window", "min_invested"},
        "signals": {"factors", "weights", "ema_span"},
        "costs": _COST_KEYS,
        "pool": _POOL_KEYS,
    }
    _check_schema(cfg, schema, {"backtest"})
    sec = cfg["backtest"]
    panel = load_panel(_resolve(config_dir, _get(sec, "panel", str, required=True)))
    pool = _parse_pool(cfg, panel)
    params, overrides = _parse_costs(cfg, config_dir)
    fees = costs.resolve_borrow_fees(panel.assets, overrides, params)
    signal, _ = _build_signal(cfg, panel, pool)

    mode_raw = _get(sec, "mode", str, required=True).upper()
    modes = ["LH", "LS"] if mode_raw == "BOTH" else [mode_raw]
    index = None
    if "index" in sec:
        index = _load_dated_column(_resolve(config_dir, sec["index"]), "ret",
                                   panel.dates)
    elif "truth_series" in sec:
        index = _load_dated_column(_resolve(config_dir, sec["truth_series"]),
                                   "market", panel.dates)
    start = _get(sec, "start", str, None)
    end = _get(sec, "end", str, None)

    vol_raw = _get(sec, "vol_target", str, "0.05").strip().lower()
    match_lh = vol_raw == "match_lh"
    if match_lh and mode_raw != "BOTH":
        raise ConfigError("vol_target = match_lh needs mode = BOTH")
    vol_value = 0.05 if match_lh else float(vol_raw)

    summary = {}
    lh_result = None
    for mode in modes:
        config = StrategyConfig(
            mode=mode,
            aum=_get(sec, "aum", float, 1e9),
            cap=_get(sec, "cap", float, 0.03),
            vol_target=vol_value,
            cost_aversion=_get(sec, "cost_aversion", float, 1.0),
            beta_window=_get(sec, "beta_window", int, 250),
            cov_window=_get(sec, "cov_window", int, 250),
            vol_window=_get(sec, "vol_window", int, 250),
            exec_lag=_get(sec, "exec_lag", int, 0),
            min_invested=_get(sec, "min_invested", float, 0.0),
        )
        vol_series = None
        if mode == "LS" and match_lh:
            vol_series = lh_matched_vol_targets(
                lh_result, panel.dates,
                periods_per_year=params.trading_days_per_year)
        result = run_backtest(panel, signal, config, params,
                              index_returns=index, pool=pool,
                              borrow_fees=fees, start=start, end=end,
                              vol_target_series=vol_series)
        if mode == "LH":
            lh_result = result
        result.write_csv(out.path(f"backtest_{mode}.csv"))
        summary[mode] = analytics.cost_attribution(
            result, periods_per_year=params.trading_days_per_year
        ).to_dict()
    if len(modes) == 2 and summary["LH"]["sharpe"] and summary["LS"]["sharpe"]:
        summary["ls_minus_lh_sharpe"] = summary["LS"]["sharpe"] - summary["LH"]["sharpe"]
    out.write_json("backtest_summary.json", summary)


def cmd_famafrench(cfg, config_dir: str, out: Outputs, seed) -> None:
    schema = {
        "famafrench": {"factors", "factors_file", "hedge_index",
                       "long_only_weights", "vol_legs",
                       "hml", "wml", "umd", "mom", "rmw", "cma", "vol"},
    }
    _check_schema(cfg, schema, {"famafrench"})
    sec = cfg["famafrench"]
    names = _get(sec, "factors", str, required=True).split()
    missing = [n for n in names if n.lower() not in sec and n.upper() != "VOL"]
    if missing:
        raise ConfigError("missing block file path(s) for: " + ", ".join(missing))
    block_paths = {
        n: _resolve(config_dir, sec[n.lower()]) for n in names if n.lower() in sec
    }
    leg_paths = {}
    if "vol_legs" in sec:
        leg_paths["VOL"] = _resolve(config_dir, sec["vol_legs"])
    legs = load_famafrench(
        block_paths,
        _resolve(config_dir, _get(sec, "factors_file", str, required=True)),
        leg_paths=leg_paths or None,
    )
    hedge_choice = _get(sec, "hedge_index", str, "blocks").lower()
    if hedge_choice not in ("blocks", "vw"):
        raise ConfigError("hedge_index must be 'blocks' or 'vw'")
    long_only = _get(sec, "long_only_weights", _bool, True)

    factors = list(legs.factors)
    hedged_long, hedged_short = {}, {}
    rows = []
    report: dict = {"hedge_index": hedge_choice, "long_only_weights": long_only,
                    "factors": {}}
    for f in factors:
        index = legs.block_market[f] if hedge_choice == "blocks" else legs.market_vw
        long_r = analytics.rescale_to_unit_beta(legs.long_leg[f], index)
        short_r = analytics.rescale_to_unit_beta(legs.short_leg[f], index)
        hedged_long[f] = long_r - index
        hedged_short[f] = index - short_r
        sharpe_long = analytics.sharpe(hedged_long[f], 1.0, analytics.MONTHS)
        sharpe_short = analytics.sharpe(hedged_short[f], 1.0, analytics.MONTHS)
        smb_corr = analytics.smb_diagnostic(
            legs.long_leg[f], legs.short_leg[f], legs.market_vw, legs.smb,
        )
        beta_long = analytics.estimate_series_beta(long_r, index)
        beta_short = analytics.estimate_series_beta(short_r, index)
        report["factors"][f] = {
            "sharpe_hedged_long": sharpe_long,
            "sharpe_hedged_short": sharpe_short,
            "smb_corr_vs_vw_hedge": _json_num(smb_corr),
            "realized_beta_long": beta_long,
            "realized_beta_short": beta_short,
        }
        rows.append([f, _fmt(sharpe_long), _fmt(sharpe_short), _fmt(beta_long),
                     _fmt(beta_short), _fmt(smb_corr)])
    out.write_csv(
        "ff_legs.csv",
        ["factor", "sharpe_hedged_long", "sharpe_hedged_short",
         "realized_beta_long", "realized_beta_short", "smb_corr"],
        rows,
    )
    if len(factors) >= 2:
        long_streams = np.column_stack([hedged_long[f] for f in factors])
        short_streams = np.column_stack([hedged_short[f] for f in factors])
        report["mean_long_corr"] = analytics.mean_pairwise_correlation(long_streams)
        report["mean_short_corr"] = analytics.mean_pairwise_correlation(short_streams)
        report["short_corr_exceeds_long"] = (
            report["mean_short_corr"] > report["mean_long_corr"]
        )
        streams = np.column_stack([long_streams, short_streams])
        alloc = analytics.max_sharpe_allocation(
            streams, [True] * len(factors) + [False] * len(factors),
            long_only=long_only,
        )
        report["max_sharpe"] = {
            "long_weight": alloc.long_weight,
            "short_weight": alloc.short_weight,
            "weights": {
                name: float(wt) for name, wt in zip(
                    [f + "_long" for f in factors] + [f + "_short" for f in factors],
                    alloc.weights,
                )
            },
        }
    out.write_json("ff_report.json", report)


HANDLERS = {
    "toy": cmd_toy,
    "generate": cmd_generate,
    "predictability": cmd_predictability,
    "backtest": cmd_backtest,
    "famafrench": cmd_famafrench,
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="factorlab",
        description="cost-aware equity factor research engine",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in HANDLERS:
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="INI config file")
        p.add_argument("--out", default=".", help="output directory")
        p.add_argument("--seed", type=int, default=None,
                       help="override the config seed")
    args = parser.parse_args(argv)
    out = Outputs(args.out)
    try:
        cfg = _read_config(args.config)
        config_dir = os.path.dirname(os.path.abspath(args.config))
        HANDLERS[args.command](cfg, config_dir, out, args.seed)
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        out.cleanup()
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
