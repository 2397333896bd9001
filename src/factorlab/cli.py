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
import dataclasses
import json
import os
import sys

import numpy as np

from . import analytics, costs, signals
from .data import (
    ReturnsPanel, _day, _each_row, _fmt, _fmt_column, load_famafrench, load_panel,
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


def _sections(cfg: configparser.ConfigParser, required: str,
              schema: dict[str, dict]) -> dict[str, dict]:
    """Read each section the file has through its {key: converter} table in
    `schema`: section -> {key: value} for the keys the file sets. Every
    other key takes its default where the value is used, mostly in the
    library object it feeds. An unknown section or key, a missing `required`
    section and a value its converter rejects are errors."""
    if not cfg.has_section(required):
        raise ConfigError(f"missing required config section [{required}]")
    out = {}
    for section in cfg.sections():
        if section not in schema:
            raise ConfigError(f"unknown config section [{section}]; known: "
                              + ", ".join(sorted(schema)))
        table = schema[section]
        values = out[section] = {}
        for key, raw in cfg[section].items():
            if key not in table:
                raise ConfigError(
                    f"unknown key {key!r} in [{section}]; known: "
                    + ", ".join(sorted(table))
                )
            try:
                values[key] = table[key](raw)
            except ConfigError:
                raise
            except (ValueError, TypeError):
                raise ConfigError(f"bad value for {key!r}: {raw!r}") from None
    return out


def _require(values: dict, *keys: str) -> None:
    for key in keys:
        if key not in values:
            raise ConfigError(f"missing key {key!r}")


def _floats(raw: str) -> list[float]:
    try:
        vals = [float(tok) for tok in raw.split()]
    except ValueError:
        raise ConfigError(f"bad float list: {raw!r}") from None
    if not vals:
        raise ConfigError("empty value list")
    return vals


def _bool(raw: str) -> bool:
    low = raw.strip().lower()
    if low in ("1", "true", "yes", "on"):
        return True
    if low in ("0", "false", "no", "off"):
        return False
    raise ConfigError(f"bad boolean: {raw!r}")


def _vol_target(raw: str):
    return "match_lh" if raw.strip().lower() == "match_lh" else float(raw)


def _ema_span(raw: str) -> int:
    span = int(raw)
    if span < 0:
        raise ConfigError(f"ema_span must be 0 (no smoothing) or positive, got {span}")
    return span


def _counts(raw: str) -> dict[str, int]:
    """REGION:N tokens, each region once."""
    counts = {}
    for tok in raw.split():
        if ":" not in tok:
            raise ConfigError(f"pool counts entries look like REGION:N, got {tok!r}")
        region, num = tok.split(":", 1)
        if region in counts:
            raise ConfigError(f"pool counts give region {region!r} more than once")
        counts[region] = int(num)
    return counts


_POOL = {"counts": _counts, "adv_window_days": int, "min_valid_days": int}


def _pool(conf: dict, panel: ReturnsPanel):
    """The liquidity pool of the [pool] section; None without the section."""
    if "pool" not in conf:
        return None
    given = dict(conf["pool"])
    _require(given, "counts")
    return select_pool(panel, given.pop("counts"), **given)


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

_TOY = {"alpha2": _floats, "gamma": _floats, "kappa": _floats,
        "factor_mean": float, "factor_var": float}


def cmd_toy(cfg, config_dir: str, out: Outputs, seed) -> None:
    sec = _sections(cfg, "toy", {"toy": _TOY})["toy"]
    _require(sec, "alpha2", "gamma", "kappa")
    alpha2, gamma, kappa = sec["alpha2"], sec["gamma"], sec["kappa"]
    # the toy factor's moments; the ratio column does not depend on them
    mean_f = sec.get("factor_mean", 1.0)
    var_f = sec.get("factor_var", 1.0)
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


_GENERATE = {
    "n_assets": int, "n_periods": int, "seed": int, "loading_long": float,
    "alpha2": float, "loading_spread": float, "resid_vol_long": float,
    "resid_vol_short": float, "factor_mean": float, "factor_vol": float,
    "market_mean": float, "market_vol": float, "adv": float,
    "start_price": float, "start_date": str, "region": str,
}


def cmd_generate(cfg, config_dir: str, out: Outputs, seed) -> None:
    given = dict(_sections(cfg, "generate", {"generate": _GENERATE})["generate"])
    _require(given, "n_assets", "n_periods")
    file_seed = given.pop("seed", 0)
    if "alpha2" in given:
        given["loading_short_scale"] = given.pop("alpha2")
    # every other key is a SyntheticUniverseSpec field of the same name
    spec = SyntheticUniverseSpec(seed=file_seed if seed is None else seed, **given)
    panel, truth = generate_universe(spec)
    write_panel(panel, out.path("panel.csv"))
    out.write_csv("truth_loadings.csv", ["asset_id", "loading"],
                  zip(panel.assets, _fmt_column(truth.loadings)))
    out.write_csv("truth_series.csv", ["date", "market", "factor"],
                  zip(map(str, panel.dates), _fmt_column(truth.market),
                      _fmt_column(truth.factor)))


_SIGNALS = {"factors": str.split, "weights": _floats, "ema_span": _ema_span}


def _build_signal(sec: dict, panel, pool):
    """Blended, optionally EMA-slowed signal per the [signals] values; an
    absent section or empty factor list means a zero signal."""
    names = sec.get("factors", [])
    if not names:
        return np.zeros((panel.n_dates, panel.n_assets))
    weights = sec.get("weights", [1.0] * len(names))
    if len(weights) != len(names):
        raise ConfigError("weights must match factors one for one")
    # ema_span = 0 turns smoothing off; without the key smooth_ema's span holds
    ema = {"span_days": sec["ema_span"]} if "ema_span" in sec else {}
    built, used = [], []
    for name, weight in zip(names, weights):
        try:
            sig = signals.factor_signal(panel, pool, name)
        except signals.SignalError as exc:
            print(f"warning: skipping factor {name}: {exc}", file=sys.stderr)
            continue
        if ema.get("span_days") != 0:
            sig = signals.smooth_ema(sig, **ema)
        built.append(sig)
        used.append(weight)
    if not built:
        raise ConfigError("no usable factors")
    return signals.blend(built, used)


_PREDICTABILITY = {"panel": str, "factors": str.split, "horizon_days": int,
                   "n_bins": int, "lookback_days": int}


def cmd_predictability(cfg, config_dir: str, out: Outputs, seed) -> None:
    conf = _sections(cfg, "predictability",
                     {"predictability": _PREDICTABILITY, "pool": _POOL})
    given = dict(conf["predictability"])
    _require(given, "panel", "factors")
    panel = load_panel(_resolve(config_dir, given.pop("panel")))
    pool = _pool(conf, panel)
    names = given.pop("factors")
    horizon = given.pop("horizon_days", signals.HORIZON_DAYS)
    n_bins = given.pop("n_bins", signals.N_BINS)
    # what is left, lookback_days, feeds residual_returns
    resid = signals.residual_returns(panel, pool=pool, **given)
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


_BACKTEST = {
    "panel": str, "mode": str.upper, "index": str, "truth_series": str,
    "aum": float, "cap": float, "vol_target": _vol_target,
    "cost_aversion": float, "start": str, "end": str, "exec_lag": int,
    "beta_window": int, "cov_window": int, "vol_window": int,
    "min_invested": float,
}
_COSTS = {"linear_rate": float, "impact_coeff": float, "financing_spread": float,
          "default_borrow_fee": float, "trading_days_per_year": int,
          "borrow_file": str}


def cmd_backtest(cfg, config_dir: str, out: Outputs, seed) -> None:
    conf = _sections(cfg, "backtest", {"backtest": _BACKTEST, "signals": _SIGNALS,
                                       "costs": _COSTS, "pool": _POOL})
    sec = conf["backtest"]
    _require(sec, "panel", "mode")
    if "index" in sec and "truth_series" in sec:
        raise ConfigError("the hedge index is given both as 'index' and as "
                          "'truth_series'; keep one")
    # the keys named after StrategyConfig fields feed it, and all [costs]
    # keys but borrow_file feed CostModelParams
    fields = {f.name for f in dataclasses.fields(StrategyConfig)}
    strategy = {k: v for k, v in sec.items() if k in fields}
    modes = ["LH", "LS"] if strategy["mode"] == "BOTH" else [strategy["mode"]]
    match_lh = strategy.get("vol_target") == "match_lh"
    if match_lh:
        if len(modes) == 1:
            raise ConfigError("vol_target = match_lh needs mode = BOTH")
        del strategy["vol_target"]   # LS follows the LH track's realized vol
    config = StrategyConfig(**{**strategy, "mode": modes[0]})
    cost_model = dict(conf.get("costs", {}))
    fee_file = cost_model.pop("borrow_file", None)
    params = costs.CostModelParams(**cost_model)

    panel = load_panel(_resolve(config_dir, sec["panel"]))
    pool = _pool(conf, panel)
    overrides = None if fee_file is None else \
        costs.load_borrow_fee_overrides(_resolve(config_dir, fee_file))
    fees = costs.resolve_borrow_fees(panel.assets, overrides, params)
    signal = _build_signal(conf.get("signals", {}), panel, pool)
    index = None
    for key, column in (("index", "ret"), ("truth_series", "market")):
        if key in sec:
            index = _load_dated_column(_resolve(config_dir, sec[key]), column,
                                       panel.dates)

    summary = {}
    lh_result = None
    for mode in modes:
        vol_series = None
        if mode == "LS" and match_lh:
            vol_series = lh_matched_vol_targets(
                lh_result, panel.dates,
                periods_per_year=params.trading_days_per_year)
        result = run_backtest(panel, signal, dataclasses.replace(config, mode=mode),
                              params, index_returns=index, pool=pool,
                              borrow_fees=fees, start=sec.get("start"),
                              end=sec.get("end"), vol_target_series=vol_series)
        if mode == "LH":
            lh_result = result
        result.write_csv(out.path(f"backtest_{mode}.csv"))
        summary[mode] = dataclasses.asdict(analytics.cost_attribution(
            result, periods_per_year=params.trading_days_per_year))
    if len(modes) == 2 and summary["LH"]["sharpe"] and summary["LS"]["sharpe"]:
        summary["ls_minus_lh_sharpe"] = summary["LS"]["sharpe"] - summary["LH"]["sharpe"]
    out.write_json("backtest_summary.json", summary)


_FAMAFRENCH = {
    "factors": str.split, "factors_file": str, "hedge_index": str.lower,
    "long_only_weights": _bool, "vol_legs": str,
    **{block: str for block in ("hml", "wml", "umd", "mom", "rmw", "cma", "vol")},
}


def cmd_famafrench(cfg, config_dir: str, out: Outputs, seed) -> None:
    sec = _sections(cfg, "famafrench", {"famafrench": _FAMAFRENCH})["famafrench"]
    _require(sec, "factors", "factors_file")
    names = sec["factors"]
    missing = [n for n in names if n.lower() not in sec and n.upper() != "VOL"]
    if missing:
        raise ConfigError("missing block file path(s) for: " + ", ".join(missing))
    block_paths = {
        n: _resolve(config_dir, sec[n.lower()]) for n in names if n.lower() in sec
    }
    leg_paths = {}
    if "vol_legs" in sec:
        if "vol" in map(str.lower, block_paths):
            raise ConfigError("factor VOL is given both as blocks (key 'vol') "
                              "and as legs (key 'vol_legs'); keep one")
        leg_paths["VOL"] = _resolve(config_dir, sec["vol_legs"])
    legs = load_famafrench(block_paths, _resolve(config_dir, sec["factors_file"]),
                           leg_paths=leg_paths or None)
    hedge_choice = sec.get("hedge_index", "blocks")
    if hedge_choice not in ("blocks", "vw"):
        raise ConfigError("hedge_index must be 'blocks' or 'vw'")
    long_only = sec.get("long_only_weights", True)

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
