"""Spans around the program's layer boundaries, recorded from outside.

`Instrument` replaces a public function of factorlab by a wrapper in every
factorlab module that holds it, so a caller that imported the name
(`cli.run_backtest`, `portfolio.trade_cost`) sees the wrapper as well as a
caller that looks it up on its module (`portfolio.run_backtest`). A traced
wrapper records a span (name, start, end, parent) and the layer's work
counts; a capturing wrapper keeps the call's arguments and result for the
output checks and records no time. Spans stay in memory until the run ends.
"""

from __future__ import annotations

import inspect
import json
import sys
import time

import numpy as np

# span name -> (module, attribute, work count taken from (bound args, result))
LAYERS = {
    "toy_model.generate_universe": ("toy_model", "generate_universe", None),
    "data.load_panel": ("data", "load_panel",
                        lambda a, out: ("rows", _panel_rows(out))),
    "data.write_panel": ("data", "write_panel",
                         lambda a, out: ("rows", _panel_rows(a["panel"]))),
    "data.select_pool": ("data", "select_pool", None),
    "data.forward_fill_field": ("data", "forward_fill_field", None),
    "signals.factor_signal": ("signals", "factor_signal",
                              lambda a, out: ("cells", out.scores.size)),
    "signals.smooth_ema": ("signals", "smooth_ema", None),
    "signals.blend": ("signals", "blend", None),
    "signals.residual_returns": ("signals", "residual_returns",
                                 lambda a, out: ("dates", int(np.sum(
                                     np.any(np.isfinite(out), axis=1))))),
    "signals.predictability_curve": ("signals", "predictability_curve",
                                     lambda a, out: ("obs", out.n_obs)),
    "portfolio.optimize_long_only": ("portfolio", "optimize_long_only", None),
    "portfolio.rolling_betas": ("portfolio", "rolling_betas", None),
    "portfolio.rolling_vols": ("portfolio", "rolling_vols", None),
    "portfolio.clean_correlation": ("portfolio", "clean_correlation",
                                    lambda a, out: ("assets",
                                                    len(out.asset_indices))),
    "portfolio.build_long_short": ("portfolio", "build_long_short", None),
    "portfolio.run_backtest": ("portfolio", "run_backtest",
                               lambda a, out: ("days", len(out.dates))),
    "portfolio.write_csv": ("portfolio", "BacktestResult.write_csv", None),
    "costs.trade_cost": ("costs", "trade_cost", None),
    "analytics.cost_attribution": ("analytics", "cost_attribution", None),
    "cli": ("cli", "main", None),
}


def _panel_rows(panel) -> int:
    valid = np.zeros((panel.n_dates, panel.n_assets), dtype=bool)
    for arr in panel.arrays.values():
        valid |= np.isfinite(arr)
    return int(np.sum(valid))


class Instrument:
    """Installs traced and capturing wrappers; `remove` puts the originals
    back."""

    def __init__(self, trace: bool, capture: set[str]):
        self.trace = trace
        self.capture = capture
        self.spans: list[list] = []      # [name, start, end, parent, counts]
        self.captured: dict[str, list] = {name: [] for name in capture}
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    def install(self) -> "Instrument":
        names = [n for n in LAYERS if self.trace or n in self.capture]
        modules = [m for k, m in sorted(sys.modules.items())
                   if k.startswith("factorlab.") and m is not None]
        for name in names:
            module, attr, count = LAYERS[name]
            owner = sys.modules[f"factorlab.{module}"]
            if "." in attr:
                cls_name, attr = attr.split(".")
                owner = getattr(owner, cls_name)
                holders = [owner]
            else:
                holders = modules
            original = getattr(owner, attr)
            wrapper = self._wrap(name, original, count)
            for holder in holders:
                for key, value in list(vars(holder).items()):
                    if value is original:
                        self._undo.append((holder, key, value))
                        setattr(holder, key, wrapper)
        return self

    def remove(self) -> None:
        for holder, key, value in reversed(self._undo):
            setattr(holder, key, value)
        self._undo.clear()

    def _wrap(self, name, fn, count):
        sig = inspect.signature(fn)
        keep = self.captured.get(name)
        timed = self.trace
        spans, stack = self.spans, self._stack

        def wrapper(*args, **kwargs):
            if not timed:
                out = fn(*args, **kwargs)
                keep.append((_arguments(sig, args, kwargs), out))
                return out
            rec = [name, time.perf_counter(), 0.0, stack[-1] if stack else -1, {}]
            stack.append(len(spans))
            spans.append(rec)
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[2] = time.perf_counter()
                stack.pop()
            if count is not None or keep is not None:
                bound = _arguments(sig, args, kwargs)
                if count is not None:
                    key, value = count(bound, out)
                    rec[4][key] = value
                if keep is not None:
                    keep.append((bound, out))
            return out

        return wrapper

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, counts in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, **counts}) + "\n")


def _arguments(sig, args, kwargs) -> dict:
    bound = sig.bind(*args, **kwargs)
    bound.apply_defaults()
    return bound.arguments


def self_times(spans) -> list[float]:
    """Span duration minus the time its child spans cover."""
    out = [end - start for _, start, end, _, _ in spans]
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            out[parent] -= end - start
    return out


def tail_percentile(n: int) -> float | None:
    """Highest of the usual percentiles with at least ten samples beyond
    it; None below forty samples, where no percentile is a tail."""
    for p in (99.9, 99.0, 95.0, 90.0, 75.0):
        if n * (1.0 - p / 100.0) >= 10.0:
            return p
    return None


def layer_metrics(spans, rounds: int) -> tuple[dict, dict]:
    """Per-round self times and work counts of each layer, plus the number
    of long-only solves and the percentile reported as their tail."""
    selfs = self_times(spans)
    by_name: dict[str, dict] = {}
    for (name, start, end, _, counts), s in zip(spans, selfs):
        entry = by_name.setdefault(name, {"self": 0.0, "durations": [],
                                          "counts": {}})
        entry["self"] += s
        entry["durations"].append(end - start)
        for key, value in counts.items():
            entry["counts"][key] = entry["counts"].get(key, 0) + value

    def self_s(name):
        return by_name.get(name, {"self": 0.0})["self"] / rounds

    def calls(name):
        return len(by_name.get(name, {"durations": []})["durations"]) / rounds

    def count(name, key):
        return by_name.get(name, {"counts": {}})["counts"].get(key, 0) / rounds

    m = {}
    for name in LAYERS:
        if name in ("portfolio.run_backtest", "cli"):
            continue
        m[f"{name}_s"] = (self_s(name), "s")
    m["portfolio.run_backtest_self_s"] = (self_s("portfolio.run_backtest"), "s")
    m["cli.self_s"] = (self_s("cli"), "s")
    m["data.load_panel_rows"] = (count("data.load_panel", "rows"), "count")
    m["data.write_panel_rows"] = (count("data.write_panel", "rows"), "count")
    m["signals.factor_signal_cells"] = (count("signals.factor_signal", "cells"), "count")
    m["signals.residual_returns_dates"] = (
        count("signals.residual_returns", "dates"), "count")
    m["signals.predictability_curve_obs"] = (
        count("signals.predictability_curve", "obs"), "count")
    m["portfolio.optimize_long_only_calls"] = (
        calls("portfolio.optimize_long_only"), "count")
    lh = sorted(by_name.get("portfolio.optimize_long_only",
                            {"durations": []})["durations"])
    p = tail_percentile(len(lh))
    m["portfolio.optimize_long_only_ms_p50"] = (
        1e3 * float(np.percentile(lh, 50)) if lh else 0.0, "ms")
    m["portfolio.optimize_long_only_ms_tail"] = (
        1e3 * float(np.percentile(lh, p)) if p is not None else
        (1e3 * float(np.percentile(lh, 50)) if lh else 0.0), "ms")
    m["portfolio.rolling_vols_calls"] = (calls("portfolio.rolling_vols"), "count")
    m["portfolio.clean_correlation_calls"] = (
        calls("portfolio.clean_correlation"), "count")
    m["portfolio.clean_correlation_assets"] = (
        count("portfolio.clean_correlation", "assets"), "count")
    m["portfolio.build_long_short_calls"] = (
        calls("portfolio.build_long_short"), "count")
    m["portfolio.backtest_days"] = (count("portfolio.run_backtest", "days"), "count")
    return m, {"lh_calls": len(lh), "lh_tail_percentile": p}
