import configparser
import csv
import dataclasses
import hashlib
import inspect
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from factorlab import cli, costs, data, portfolio as pf, signals, toy_model as tm
from conftest import make_ff_fixture

ROOT = Path(__file__).resolve().parents[1]


def run(args):
    return cli.main(args)


def read_json(path):
    with open(path) as fh:
        return json.load(fh)


def files_equal(a, b):
    with open(a, "rb") as fa, open(b, "rb") as fb:
        return fa.read() == fb.read()


@pytest.fixture(scope="module")
def gen_dir(tmp_path_factory):
    """A generated synthetic market with a strong drift, via the CLI."""
    base = tmp_path_factory.mktemp("gen")
    cfg = base / "gen.cfg"
    cfg.write_text(
        "[generate]\n"
        "n_assets = 40\nn_periods = 900\nseed = 11\nalpha2 = 0.8\n"
        "resid_vol_long = 0.004\nresid_vol_short = 0.004\n"
        "factor_mean = 0.0008\nfactor_vol = 0.004\n"
        "market_mean = 0.0003\nmarket_vol = 0.012\n"
    )
    out = base / "data"
    assert run(["generate", "--config", str(cfg), "--out", str(out)]) == 0
    return base, cfg, out


class TestToy:
    def test_sweep_matches_library(self, tmp_path):
        cfg = tmp_path / "toy.cfg"
        cfg.write_text(
            "[toy]\nalpha2 = 0.1 0.41421356237309515 1.0\n"
            "gamma = 0.5 2\nkappa = 1\n"
        )
        assert run(["toy", "--config", str(cfg), "--out", str(tmp_path)]) == 0
        with open(tmp_path / "toy_sweep.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 6
        for row in rows:
            p = tm.ToyModelParams(
                1.0, 1.0, short_loading=float(row["alpha2"]),
                resid_var_ratio=float(row["gamma"]),
                short_resid_var_ratio=float(row["kappa"]),
            )
            assert float(row["sr_ls"]) == pytest.approx(tm.sr_long_short(p))
            assert float(row["sr_lh"]) == pytest.approx(tm.sr_hedged_long(p))
            assert float(row["ratio"]) == pytest.approx(tm.sr_ratio(p))
        # the boundary loading sits exactly on ratio 1
        boundary = [r for r in rows if r["alpha2"].startswith("0.41421356")]
        assert all(float(r["ratio"]) == pytest.approx(1.0) for r in boundary)
        report = read_json(tmp_path / "toy_thresholds.json")
        assert report["thresholds"][0]["alpha2_star"] == pytest.approx(2 ** 0.5 - 1)

    def test_empty_grid_usage_error(self, tmp_path, capsys):
        cfg = tmp_path / "toy.cfg"
        cfg.write_text("[toy]\nalpha2 =\ngamma = 1\nkappa = 1\n")
        assert run(["toy", "--config", str(cfg), "--out", str(tmp_path)]) == 1
        assert "error" in capsys.readouterr().err

    def test_unknown_key_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "toy.cfg"
        cfg.write_text("[toy]\nalpha2 = 1\ngamma = 1\nkappa = 1\nfrobnicate = 2\n")
        assert run(["toy", "--config", str(cfg), "--out", str(tmp_path)]) == 1
        assert "frobnicate" in capsys.readouterr().err


class TestGenerate:
    def test_outputs_exist(self, gen_dir):
        _, _, out = gen_dir
        for name in ("panel.csv", "truth_loadings.csv", "truth_series.csv"):
            assert (out / name).exists()

    def test_deterministic(self, gen_dir, tmp_path):
        _, cfg, out = gen_dir
        again = tmp_path / "again"
        assert run(["generate", "--config", str(cfg), "--out", str(again)]) == 0
        for name in ("panel.csv", "truth_loadings.csv", "truth_series.csv"):
            assert files_equal(out / name, again / name)

    def test_seed_flag_changes_output(self, gen_dir, tmp_path):
        _, cfg, out = gen_dir
        other = tmp_path / "other"
        assert run(["generate", "--config", str(cfg), "--out", str(other),
                    "--seed", "12"]) == 0
        assert not files_equal(out / "panel.csv", other / "panel.csv")


class TestPredictability:
    def test_summary_schema_and_flag(self, gen_dir, tmp_path):
        base, _, out = gen_dir
        cfg = tmp_path / "pred.cfg"
        cfg.write_text(
            "[predictability]\n"
            f"panel = {out / 'panel.csv'}\n"
            "factors = MOM SMB\n"
            "horizon_days = 21\nn_bins = 10\nlookback_days = 250\n"
        )
        dest = tmp_path / "pred"
        assert run(["predictability", "--config", str(cfg), "--out", str(dest)]) == 0
        summary = read_json(dest / "pred_summary.json")
        assert set(summary["factors"]) == {"MOM", "SMB"}
        mom = summary["factors"]["MOM"]
        assert set(mom) == {"intercept", "positive_slope", "negative_slope",
                            "positive_slope_se", "negative_slope_se",
                            "slope_ratio", "threshold", "above_threshold",
                            "n_obs"}
        assert mom["threshold"] == pytest.approx(2 ** 0.5 - 1)
        with open(dest / "pred_MOM.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 10
        assert list(rows[0]) == ["bin_x", "bin_y", "stderr", "count"]

    def test_momentum_recovers_short_loading_on_spread_market(self, tmp_path):
        gen_cfg = tmp_path / "gen.cfg"
        gen_cfg.write_text(
            "[generate]\n"
            "n_assets = 100\nn_periods = 2200\nseed = 21\nalpha2 = 0.8\n"
            "loading_spread = 1.0\n"
            "resid_vol_long = 0.002\nresid_vol_short = 0.002\n"
            "factor_mean = 0.001\nfactor_vol = 0.002\n"
            "market_mean = 0.0003\nmarket_vol = 0.012\n"
        )
        market = tmp_path / "market"
        assert run(["generate", "--config", str(gen_cfg), "--out",
                    str(market)]) == 0
        pred_cfg = tmp_path / "pred.cfg"
        pred_cfg.write_text(
            "[predictability]\n"
            f"panel = {market / 'panel.csv'}\nfactors = MOM\n"
            "horizon_days = 21\nn_bins = 20\nlookback_days = 250\n"
        )
        dest = tmp_path / "pred"
        assert run(["predictability", "--config", str(pred_cfg), "--out",
                    str(dest)]) == 0
        mom = read_json(dest / "pred_summary.json")["factors"]["MOM"]
        # rank noise attenuates the ratio a little; 0.8 within a decade band
        assert mom["above_threshold"]
        assert abs(mom["slope_ratio"] - 0.8) < 0.1

    def test_unusable_factor_skipped_with_warning(self, gen_dir, tmp_path,
                                                  capsys):
        base, _, out = gen_dir
        cfg = tmp_path / "pred.cfg"
        cfg.write_text(
            "[predictability]\n"
            f"panel = {out / 'panel.csv'}\n"
            "factors = MOM ROA\n"    # no fundamentals in synthetic panels
        )
        dest = tmp_path / "pred"
        assert run(["predictability", "--config", str(cfg), "--out",
                    str(dest)]) == 0
        assert "ROA" in capsys.readouterr().err
        summary = read_json(dest / "pred_summary.json")
        assert list(summary["factors"]) == ["MOM"]

    def test_all_factors_failing_is_an_error(self, gen_dir, tmp_path, capsys):
        base, _, out = gen_dir
        cfg = tmp_path / "pred.cfg"
        cfg.write_text(
            "[predictability]\n"
            f"panel = {out / 'panel.csv'}\nfactors = ROA VALUEEAR\n"
        )
        dest = tmp_path / "pred"
        assert run(["predictability", "--config", str(cfg), "--out",
                    str(dest)]) == 1
        assert not (dest / "pred_summary.json").exists()


class TestBacktest:
    def write_cfg(self, path, panel, truth, mode="BOTH", extra=""):
        path.write_text(
            "[backtest]\n"
            f"panel = {panel}\nmode = {mode}\n"
            f"truth_series = {truth}\n"
            "aum = 1e9\ncap = 0.06\nvol_target = 0.05\nstart = 2001-01-08\n"
            + extra +
            "\n[signals]\nfactors = MOM\nweights = 1\nema_span = 150\n"
            "\n[costs]\nlinear_rate = 5e-4\nimpact_coeff = 1.0\n"
            "financing_spread = 0.02\ndefault_borrow_fee = 0.0025\n"
        )

    def test_ls_beats_lh_and_outputs(self, gen_dir, tmp_path):
        base, _, out = gen_dir
        cfg = tmp_path / "bt.cfg"
        self.write_cfg(cfg, out / "panel.csv", out / "truth_series.csv")
        dest = tmp_path / "bt"
        assert run(["backtest", "--config", str(cfg), "--out", str(dest)]) == 0
        summary = read_json(dest / "backtest_summary.json")
        assert summary["LS"]["sharpe"] > summary["LH"]["sharpe"]
        assert summary["ls_minus_lh_sharpe"] > 0
        assert (dest / "backtest_LH.csv").exists()
        assert (dest / "backtest_LS.csv").exists()

    def test_zero_signal_flat(self, gen_dir, tmp_path):
        base, _, out = gen_dir
        cfg = tmp_path / "bt.cfg"
        cfg.write_text(
            "[backtest]\n"
            f"panel = {out / 'panel.csv'}\nmode = LS\n"
            "aum = 1e9\nstart = 2001-01-08\n"
        )
        dest = tmp_path / "bt"
        assert run(["backtest", "--config", str(cfg), "--out", str(dest)]) == 0
        summary = read_json(dest / "backtest_summary.json")
        assert summary["LS"]["ann_return"] == 0.0
        assert summary["LS"]["sharpe"] is None

    def test_rerun_byte_identical(self, gen_dir, tmp_path):
        base, _, out = gen_dir
        cfg = tmp_path / "bt.cfg"
        self.write_cfg(cfg, out / "panel.csv", out / "truth_series.csv",
                       mode="LS")
        d1, d2 = tmp_path / "r1", tmp_path / "r2"
        assert run(["backtest", "--config", str(cfg), "--out", str(d1)]) == 0
        assert run(["backtest", "--config", str(cfg), "--out", str(d2)]) == 0
        assert files_equal(d1 / "backtest_LS.csv", d2 / "backtest_LS.csv")
        assert files_equal(d1 / "backtest_summary.json",
                           d2 / "backtest_summary.json")

    def test_vol_target_match_lh(self, gen_dir, tmp_path):
        base, _, out = gen_dir
        cfg = tmp_path / "bt.cfg"
        self.write_cfg(cfg, out / "panel.csv", out / "truth_series.csv",
                       mode="BOTH", extra="")
        text = cfg.read_text().replace("vol_target = 0.05",
                                       "vol_target = match_lh")
        cfg.write_text(text)
        dest = tmp_path / "bt"
        assert run(["backtest", "--config", str(cfg), "--out", str(dest)]) == 0
        summary = read_json(dest / "backtest_summary.json")
        # the long-short book tracks the hedged-long realized volatility
        assert summary["LS"]["ann_vol"] == pytest.approx(
            summary["LH"]["ann_vol"], rel=0.35)

    def test_match_lh_needs_both_modes(self, gen_dir, tmp_path, capsys):
        base, _, out = gen_dir
        cfg = tmp_path / "bt.cfg"
        self.write_cfg(cfg, out / "panel.csv", out / "truth_series.csv",
                       mode="LS")
        cfg.write_text(cfg.read_text().replace("vol_target = 0.05",
                                               "vol_target = match_lh"))
        assert run(["backtest", "--config", str(cfg), "--out",
                    str(tmp_path / "x")]) == 1
        assert "match_lh" in capsys.readouterr().err

    def test_blank_truth_market_cell_names_line_and_date(self, gen_dir, tmp_path,
                                                         capsys):
        base, _, out = gen_dir
        lines = (out / "truth_series.csv").read_text().splitlines()
        cells = lines[9].split(",")
        cells[1] = ""
        lines[9] = ",".join(cells)
        truth = tmp_path / "truth_series.csv"
        truth.write_text("\n".join(lines) + "\n")
        cfg = tmp_path / "bt.cfg"
        self.write_cfg(cfg, out / "panel.csv", truth, mode="LH")
        assert run(["backtest", "--config", str(cfg), "--out",
                    str(tmp_path / "bt")]) == 1
        err = capsys.readouterr().err
        assert str(truth) in err
        assert "line 10" in err
        assert cells[0] in err

    def test_min_invested_outside_unit_interval_rejected(self, gen_dir, tmp_path,
                                                         capsys):
        _, _, out = gen_dir
        cfg = tmp_path / "bt.cfg"
        self.write_cfg(cfg, out / "panel.csv", out / "truth_series.csv",
                       mode="LH", extra="min_invested = 2\n")
        assert run(["backtest", "--config", str(cfg), "--out",
                    str(tmp_path / "bt")]) == 1
        assert "min_invested" in capsys.readouterr().err

    def test_negative_cost_aversion_rejected(self, gen_dir, tmp_path, capsys):
        _, _, out = gen_dir
        cfg = tmp_path / "bt.cfg"
        self.write_cfg(cfg, out / "panel.csv", out / "truth_series.csv",
                       mode="LH", extra="cost_aversion = -1\n")
        assert run(["backtest", "--config", str(cfg), "--out",
                    str(tmp_path / "bt")]) == 1
        assert "cost_aversion must be in [0, inf), got -1.0" \
            in capsys.readouterr().err

    def test_start_must_be_a_full_day(self, gen_dir, tmp_path, capsys):
        _, _, out = gen_dir
        cfg = tmp_path / "bt.cfg"
        self.write_cfg(cfg, out / "panel.csv", out / "truth_series.csv",
                       mode="LS")
        cfg.write_text(cfg.read_text().replace("start = 2001-01-08",
                                               "start = 2001-01"))
        assert run(["backtest", "--config", str(cfg), "--out",
                    str(tmp_path / "bt")]) == 1
        assert "bad date '2001-01'" in capsys.readouterr().err

    def test_missing_borrow_file_is_a_path_error(self, gen_dir, tmp_path, capsys):
        _, _, out = gen_dir
        cfg = tmp_path / "bt.cfg"
        self.write_cfg(cfg, out / "panel.csv", out / "truth_series.csv",
                       mode="LS")
        cfg.write_text(cfg.read_text() + "borrow_file = fees.csv\n")
        assert run(["backtest", "--config", str(cfg), "--out",
                    str(tmp_path / "bt")]) == 1
        assert f"path not found: {tmp_path / 'fees.csv'}" \
            in capsys.readouterr().err

    @pytest.mark.parametrize("edit, message", [
        (("vol_target = 0.05", "vol_target = abc"),
         "bad value for 'vol_target': 'abc'"),
        ("[pool]\ncounts = SYN:x\n", "bad value for 'counts': 'SYN:x'"),
        ("[pool]\ncounts = SYN:5 SYN:10\n",
         "pool counts give region 'SYN' more than once"),
        (("ema_span = 150", "ema_span = -5"),
         "ema_span must be 0 (no smoothing) or positive, got -5"),
        (("mode = BOTH", "mode = BOTH\nindex = index.csv"),
         "the hedge index is given both as 'index' and as 'truth_series'"),
    ])
    def test_bad_value_names_its_key(self, gen_dir, tmp_path, capsys, edit,
                                     message):
        _, _, out = gen_dir
        truth = (out / "truth_series.csv").read_text()
        (tmp_path / "index.csv").write_text(truth.replace("date,market", "date,ret", 1))
        cfg = tmp_path / "bt.cfg"
        self.write_cfg(cfg, out / "panel.csv", out / "truth_series.csv")
        text = cfg.read_text()
        cfg.write_text(text.replace(*edit) if isinstance(edit, tuple) else text + edit)
        assert cfg.read_text() != text
        assert run(["backtest", "--config", str(cfg), "--out",
                    str(tmp_path / "bt")]) == 1
        assert message in capsys.readouterr().err

    def test_strategy_checked_before_the_first_book(self, gen_dir, tmp_path,
                                                    capsys, monkeypatch):
        _, _, out = gen_dir
        calls = []
        monkeypatch.setattr(cli, "run_backtest", lambda *a, **kw: calls.append(a))
        cfg = tmp_path / "bt.cfg"
        self.write_cfg(cfg, out / "panel.csv", out / "truth_series.csv",
                       extra="cov_window = 59\n")
        assert run(["backtest", "--config", str(cfg), "--out",
                    str(tmp_path / "bt")]) == 1
        assert "cov_window must be at least 60, got 59" in capsys.readouterr().err
        assert calls == []

    def test_missing_panel_cleans_partial_outputs(self, tmp_path, capsys):
        cfg = tmp_path / "bt.cfg"
        cfg.write_text("[backtest]\npanel = nowhere.csv\nmode = LS\n")
        dest = tmp_path / "bt"
        assert run(["backtest", "--config", str(cfg), "--out", str(dest)]) == 1
        assert not list(dest.iterdir())


class TestFamaFrench:
    def test_report_on_fixture(self, tmp_path):
        paths, factors_path = make_ff_fixture(str(tmp_path))
        cfg = tmp_path / "ff.cfg"
        cfg.write_text(
            "[famafrench]\n"
            "factors = HML WML RMW CMA\n"
            + "".join(f"{k.lower()} = {v}\n" for k, v in paths.items())
            + f"factors_file = {factors_path}\n"
            "hedge_index = blocks\n"
        )
        dest = tmp_path / "ff"
        assert run(["famafrench", "--config", str(cfg), "--out", str(dest)]) == 0
        report = read_json(dest / "ff_report.json")
        assert set(report["factors"]) == {"HML", "WML", "RMW", "CMA"}
        for f in report["factors"].values():
            # the fixture carries real premiums on both legs
            assert f["sharpe_hedged_long"] > 0
            assert f["sharpe_hedged_short"] > 0
            assert f["realized_beta_long"] == pytest.approx(1.0, abs=1e-9)
            assert f["realized_beta_short"] == pytest.approx(1.0, abs=1e-9)
        ms = report["max_sharpe"]
        assert ms["long_weight"] + ms["short_weight"] == pytest.approx(1.0)
        with open(dest / "ff_legs.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 4

    def test_deterministic(self, tmp_path):
        paths, factors_path = make_ff_fixture(str(tmp_path))
        cfg = tmp_path / "ff.cfg"
        cfg.write_text(
            "[famafrench]\nfactors = HML\n"
            f"hml = {paths['HML']}\nfactors_file = {factors_path}\n"
        )
        d1, d2 = tmp_path / "a", tmp_path / "b"
        assert run(["famafrench", "--config", str(cfg), "--out", str(d1)]) == 0
        assert run(["famafrench", "--config", str(cfg), "--out", str(d2)]) == 0
        assert files_equal(d1 / "ff_report.json", d2 / "ff_report.json")
        assert files_equal(d1 / "ff_legs.csv", d2 / "ff_legs.csv")

    def test_prebuilt_vol_legs_included(self, tmp_path):
        paths, factors_path = make_ff_fixture(str(tmp_path))
        leg_csv = _vol_leg_csv(tmp_path, factors_path)
        cfg = tmp_path / "ff.cfg"
        cfg.write_text(
            "[famafrench]\nfactors = HML WML\n"
            f"hml = {paths['HML']}\nwml = {paths['WML']}\n"
            f"factors_file = {factors_path}\nvol_legs = {leg_csv}\n"
        )
        dest = tmp_path / "ff"
        assert run(["famafrench", "--config", str(cfg), "--out", str(dest)]) == 0
        report = read_json(dest / "ff_report.json")
        assert "VOL" in report["factors"]

    def test_vol_as_blocks_and_as_legs_is_an_error(self, tmp_path, capsys):
        paths, factors_path = make_ff_fixture(str(tmp_path))
        cfg = tmp_path / "ff.cfg"
        cfg.write_text(
            "[famafrench]\nfactors = HML VOL\n"
            f"hml = {paths['HML']}\nvol = {paths['CMA']}\n"
            f"vol_legs = {_vol_leg_csv(tmp_path, factors_path)}\n"
            f"factors_file = {factors_path}\n"
        )
        assert run(["famafrench", "--config", str(cfg), "--out",
                    str(tmp_path / "x")]) == 1
        err = capsys.readouterr().err
        for part in ("factor VOL", "'vol'", "'vol_legs'"):
            assert part in err

    def test_missing_block_path_is_an_error(self, tmp_path, capsys):
        _, factors_path = make_ff_fixture(str(tmp_path))
        cfg = tmp_path / "ff.cfg"
        cfg.write_text(
            f"[famafrench]\nfactors = HML\nfactors_file = {factors_path}\n"
        )
        assert run(["famafrench", "--config", str(cfg), "--out",
                    str(tmp_path / 'x')]) == 1
        assert "HML" in capsys.readouterr().err


def _index(path):
    return cli._load_dated_column(path, "ret", data.business_days("2020-01-01", 5))


def _truth(path):
    return cli._load_dated_column(path, "market",
                                  data.business_days("2020-01-01", 5))


@pytest.mark.parametrize("text, load, error, named", [
    ("date,ret\n2020-01-02,0.01\n2020-01-03,abc\n",
     _index, cli.ConfigError, ["line 3", "2020-01-03", "'abc'"]),
    ("asset_id,annual_fee_bps\nAAA,100\nBBB,lots\n",
     costs.load_borrow_fee_overrides, costs.CostError,
     ["line 3", "'BBB'", "'lots'"]),
    ("date,long,short\n202001,0.01,0.02\n202002,0.01,n/a\n",
     data.load_leg_csv, data.PanelError, ["line 3", "202002", "0.01,n/a"]),
    ("", _index, cli.ConfigError, ["empty file"]),
    ("", _truth, cli.ConfigError, ["empty file"]),
    ("", costs.load_borrow_fee_overrides, costs.CostError, ["empty file"]),
    ("", data.load_leg_csv, data.PanelError, ["empty file"]),
    ("", data.load_panel, data.PanelError, ["empty file"]),
    ("date,ret\n2020-01-02,0.01\n,0.02\n",
     _index, cli.ConfigError, ["line 3", "bad date ''"]),
    ("date,market,factor\n2020-01-02,0.01,0\n ,0.02,0\n",
     _truth, cli.ConfigError, ["line 3", "bad date ''"]),
    ("asset_id,annual_fee_bps\nAAA,100\n,25\n",
     costs.load_borrow_fee_overrides, costs.CostError,
     ["line 3", "empty asset_id"]),
    ("date,long,short\n202001,0.01,0.02\n,0.01,0.02\n",
     data.load_leg_csv, data.PanelError, ["line 3", "bad month ''"]),
    ("date,ret\n2020-01-02,0.01\n\n2020-01-02,0.02\n",
     _index, cli.ConfigError, ["line 4", "duplicate date 2020-01-02"]),
    ("date,market,factor\n2020-01-02,0.01,0\n2020-01-02,0.01,0\n",
     _truth, cli.ConfigError, ["line 3", "duplicate date 2020-01-02"]),
    ("asset_id,annual_fee_bps\nAAA,100\nBBB,50\nAAA,25\n",
     costs.load_borrow_fee_overrides, costs.CostError,
     ["line 4", "duplicate asset 'AAA'"]),
    ("date,long,short\n202001,0.01,0.02\n2020-01,0.01,0.02\n",
     data.load_leg_csv, data.PanelError, ["line 3", "duplicate month 2020-01"]),
    ("French data\n,Lo,Hi\n199001,1.0,2.0\n199002,1.0,2.0\n199001,1.5,2.5\n",
     data.read_ff_table, data.PanelError, ["line 5", "duplicate month 199001"]),
    ("date,long,short\n202001,0.01,0.02\n20-20-01,0.01,0.02\n",
     data.load_leg_csv, data.PanelError, ["line 3", "bad month '20-20-01'"]),
    ("French data\n,Lo,Hi\n199012,1.0,2.0\n199013,1.0,2.0\n",
     data.read_ff_table, data.PanelError, ["line 4", "bad month '199013'"]),
    ("French data\n,Lo,Hi,Lo\n199001,1.0,2.0,3.0\n",
     data.read_ff_table, data.PanelError, ["line 2", "repeated column 'Lo'"]),
], ids=["index_series", "borrow_fees", "leg_csv",
        "index_series_empty", "truth_series_empty", "borrow_fees_empty",
        "leg_csv_empty", "panel_empty",
        "index_series_blank_date", "truth_series_blank_date",
        "borrow_fees_blank_asset", "leg_csv_blank_month",
        "index_series_duplicate_date", "truth_series_duplicate_date",
        "borrow_fees_duplicate_asset", "leg_csv_duplicate_month",
        "ff_table_duplicate_month", "leg_csv_bad_month", "ff_table_bad_month",
        "ff_table_repeated_column"])
def test_loader_error_names_line_key_and_cell(tmp_path, text, load, error, named):
    path = tmp_path / "input.csv"
    path.write_text(text)
    with pytest.raises(error) as info:
        load(str(path))
    message = str(info.value)
    for part in [str(path)] + named:
        assert part in message


@pytest.mark.parametrize("text", ["today", "now", "2020-01", "2020", "20200102",
                                  "2020-01-02T23:59"])
@pytest.mark.parametrize("load, error, header, tail", [
    (data.load_panel, data.PanelError, "date,asset_id,ret", ",AAA,0.01"),
    (_index, cli.ConfigError, "date,ret", ",0.01"),
    (_truth, cli.ConfigError, "date,market,factor", ",0.01,0"),
], ids=["panel", "index_series", "truth_series"])
def test_dates_are_yyyy_mm_dd_only(tmp_path, text, load, error, header, tail):
    path = tmp_path / "input.csv"
    path.write_text(f"{header}\n2020-01-02{tail}\n{text}{tail}\n")
    with pytest.raises(error) as info:
        load(str(path))
    assert str(info.value) == f"{path}: line 3: bad date {text!r}"


# sha256 of each output of a small fixed `generate` and LS `backtest` run.
# A change to how any cell is formatted, quoted or ordered moves a hash.
GOLDEN_SHA256 = {
    "gen/panel.csv":
        "c678495780025972883b3c7ea283a7584f34167476c5d1473031b716534d47c1",
    "gen/truth_loadings.csv":
        "a953d7efeb52a5e05292a0014d0358480d12cc6ecda9db8eebaccb64b4f86c7c",
    "gen/truth_series.csv":
        "3cac6dbba9abdbffb94b1757379c325ecb022eaec7913b766098f7b4785bdd8e",
    # flat and vol-warning days (1.0) before the signal is warm, then 0.0
    "bt/backtest_LS.csv":
        "5371e9b8e299f816bb0dfa54f86761a204dab34e2fc9276d87d12cc96fb45d83",
}


def test_golden_output_bytes(tmp_path):
    gen_cfg = tmp_path / "gen.cfg"
    gen_cfg.write_text(
        "[generate]\nn_assets = 12\nn_periods = 320\nseed = 7\n"
        "alpha2 = 0.8\nresid_vol_long = 0.004\nresid_vol_short = 0.004\n"
        "factor_mean = 0.0008\nfactor_vol = 0.004\n"
        "market_mean = 0.0003\nmarket_vol = 0.012\n"
    )
    assert run(["generate", "--config", str(gen_cfg),
                "--out", str(tmp_path / "gen")]) == 0
    bt_cfg = tmp_path / "bt.cfg"
    bt_cfg.write_text(
        "[backtest]\n"
        f"panel = {tmp_path / 'gen' / 'panel.csv'}\nmode = LS\n"
        f"truth_series = {tmp_path / 'gen' / 'truth_series.csv'}\n"
        "aum = 1e9\ncap = 0.3\nvol_target = 0.05\nstart = 2000-11-01\n"
        "[signals]\nfactors = MOM\nema_span = 20\n"
        "[costs]\nlinear_rate = 5e-4\nimpact_coeff = 1.0\n"
    )
    assert run(["backtest", "--config", str(bt_cfg),
                "--out", str(tmp_path / "bt")]) == 0
    got = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
           for name in GOLDEN_SHA256}
    assert got == GOLDEN_SHA256


def _bt_lh_config(tmp_path, gen):
    cfg = tmp_path / "lh.cfg"
    cfg.write_text(
        "[backtest]\n"
        f"panel = {gen / 'panel.csv'}\nmode = LH\n"
        f"truth_series = {gen / 'truth_series.csv'}\n"
        "aum = 1e9\ncap = 0.3\nstart = 2000-11-01\n"
        "[signals]\nfactors = MOM\nema_span = 20\n"
        "[costs]\nlinear_rate = 5e-4\nimpact_coeff = 1.0\n"
    )
    return cfg


# sha256 of the LH backtest of the `test_golden_output_bytes` market: the
# cost-aware long-only solve, the index hedge and `trade_cost` with impact on
GOLDEN_LH_SHA256 = (
    "16294ad1128e472fe4308ad669d738a1a6e9f0be944bdf2c8634ebb880cda7bf")


def test_golden_lh_backtest_bytes(tmp_path):
    gen_cfg = tmp_path / "gen.cfg"
    gen_cfg.write_text(
        "[generate]\nn_assets = 12\nn_periods = 320\nseed = 7\n"
        "alpha2 = 0.8\nresid_vol_long = 0.004\nresid_vol_short = 0.004\n"
        "factor_mean = 0.0008\nfactor_vol = 0.004\n"
        "market_mean = 0.0003\nmarket_vol = 0.012\n"
    )
    assert run(["generate", "--config", str(gen_cfg),
                "--out", str(tmp_path / "gen")]) == 0
    cfg = _bt_lh_config(tmp_path, tmp_path / "gen")
    assert run(["backtest", "--config", str(cfg),
                "--out", str(tmp_path / "bt")]) == 0
    got = hashlib.sha256((tmp_path / "bt" / "backtest_LH.csv").read_bytes())
    assert got.hexdigest() == GOLDEN_LH_SHA256


def _vol_leg_csv(tmp_path, factors_path):
    """A pre-built VOL leg file on the fixture's calendar whose legs carry
    the fixture's market, so they can be rescaled to a beta of one."""
    months, names, values = data.read_ff_table(factors_path)
    market = (values[:, names.index("Mkt-RF")]
              + values[:, names.index("RF")]) / 100.0
    leg_csv = tmp_path / "vol.csv"
    lines = ["date,long,short"]
    rng = np.random.Generator(np.random.Philox(40))
    noise = 0.01 * rng.standard_normal((240, 2))
    for i in range(240):
        m = (1990 + i // 12) * 100 + (i % 12) + 1
        lines.append(
            f"{m},{market[i] + 0.004 + noise[i, 0]:.6f},"
            f"{market[i] - 0.001 + noise[i, 1]:.6f}"
        )
    leg_csv.write_text("\n".join(lines) + "\n")
    return leg_csv


# sha256 of (ff_legs.csv, ff_report.json) for four `famafrench` configs on
# the `make_ff_fixture` files
GOLDEN_FF_SHA256 = {
    "blocks": (
        "f2937d9c4c182da3f7375540759d4e0d131a310e2fc74d09e7ba94ca79794dfb",
        "5baf08a5692fbcfeb58fba9838bc8c4de787f73544cb2a4238b1e5f826aa5622"),
    "vw_free_weights": (
        "fe530e3042eb1453c4606880162e80d79c7626edd915926f37acebfb4ea503b3",
        "915bfc1fe3e4803b86db978af25f4b4d39c60c38ae19f8f15726f4c91c321b54"),
    "blocks_and_vol_legs": (
        "d708647a81e5a02501ca778692dec8e495195939eae456df887d9704e5f5a18f",
        "7847217421af383adf984a8fa04b98d40962ad7d3b2bef3f0eeb36217b184f14"),
    "vol_legs_alone": (
        "7c43c4fe57b41e934e38bedd0498c3a00d701bc175c6ee9363bfe15aa52245d0",
        "203366237e573b911844c0a1e8ea94855af7de789efd26663a7f3b04df625a80"),
}


@pytest.mark.parametrize("case, factors, extra", [
    ("blocks", "HML WML RMW CMA", "hedge_index = blocks\n"),
    ("vw_free_weights", "HML WML RMW CMA",
     "hedge_index = vw\nlong_only_weights = false\n"),
    ("blocks_and_vol_legs", "HML WML", "vol_legs = {vol}\n"),
    ("vol_legs_alone", "VOL", "vol_legs = {vol}\n"),
])
def test_golden_famafrench_bytes(tmp_path, case, factors, extra):
    paths, factors_path = make_ff_fixture(str(tmp_path))
    vol = _vol_leg_csv(tmp_path, factors_path)
    cfg = tmp_path / "ff.cfg"
    cfg.write_text(
        f"[famafrench]\nfactors = {factors}\n"
        + "".join(f"{k.lower()} = {paths[k]}\n" for k in factors.split()
                  if k in paths)
        + f"factors_file = {factors_path}\n" + extra.format(vol=vol)
    )
    dest = tmp_path / "ff"
    assert run(["famafrench", "--config", str(cfg), "--out", str(dest)]) == 0
    got = tuple(hashlib.sha256((dest / name).read_bytes()).hexdigest()
                for name in ("ff_legs.csv", "ff_report.json"))
    assert got == GOLDEN_FF_SHA256[case]


def _readme_ini_blocks() -> configparser.ConfigParser:
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    cfg = configparser.ConfigParser(interpolation=None, inline_comment_prefixes=(";",))
    for block in re.findall(r"```ini\n(.*?)```", text, re.S):
        cfg.read_string(block)
    return cfg


def _defaults(obj) -> dict:
    """Parameter or field name -> default, for those that have one."""
    if dataclasses.is_dataclass(obj):
        return {f.name: f.default for f in dataclasses.fields(obj)
                if f.default is not dataclasses.MISSING}
    return {name: p.default for name, p in inspect.signature(obj).parameters.items()
            if p.default is not inspect.Parameter.empty}


def test_readme_config_reference_shows_the_defaults():
    """Each key the README documents is one the CLI reads, every key it reads
    is documented, and each value shown is the default of the library
    object the key feeds."""
    feeds = {
        "backtest": _defaults(pf.StrategyConfig),
        "costs": _defaults(costs.CostModelParams),
        "pool": _defaults(data.select_pool),
        "signals": {"ema_span": _defaults(signals.smooth_ema)["span_days"]},
        "predictability": {
            "lookback_days": _defaults(signals.residual_returns)["lookback_days"],
            "horizon_days": _defaults(signals.predictability_curve)["horizon_days"],
            "n_bins": _defaults(signals.predictability_curve)["n_bins"],
        },
    }
    tables = {"backtest": cli._BACKTEST, "costs": cli._COSTS, "pool": cli._POOL,
              "signals": cli._SIGNALS, "predictability": cli._PREDICTABILITY}
    cfg = _readme_ini_blocks()
    assert set(cfg.sections()) == set(tables)
    checked = []
    for section, table in tables.items():
        assert set(cfg[section]) == set(table), section
        for key, default in feeds[section].items():
            if key in table:
                assert table[key](cfg[section][key]) == default, (section, key)
                checked.append(key)
    assert len(checked) == 20


@pytest.mark.parametrize("script, lines", [
    ("run_toy_sweep.py", [r"alpha2 +g= +0\.1 +g= +1\.0 +g= +10\.0",
                          r"0\.4142 +1\.0000 +1\.0000 +1\.0000 <- threshold"]),
    ("run_synthetic_horserace.py",
     [r"LH +LS"]
     + [rf"{key} +\S+ +\S+" for key in (
         "sharpe", "mean_drawdown", "returns_and_divs", "trading_cost",
         "financing_cost", "borrow_cost", "ann_return", "ann_vol",
         "mean_gross_leverage")]),
])
def test_script_prints_its_table(tmp_path, script, lines):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / script), "--out", str(tmp_path)],
        capture_output=True, text=True, env=env, timeout=600,
    )
    assert proc.returncode == 0, proc.stderr
    printed = [line.strip() for line in proc.stdout.splitlines()]
    for pattern in lines:
        assert any(re.fullmatch(pattern, line) for line in printed), \
            (pattern, proc.stdout)
