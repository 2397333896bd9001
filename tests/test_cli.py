import csv
import json
import os

import numpy as np
import pytest

from factorlab import cli, costs, data, toy_model as tm
from conftest import make_ff_fixture


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
        # legs must carry market exposure for the beta-one rescaling
        months, names, values = __import__("factorlab.data", fromlist=["d"]) \
            .read_ff_table(factors_path)
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
], ids=["index_series", "borrow_fees", "leg_csv",
        "index_series_empty", "truth_series_empty", "borrow_fees_empty",
        "leg_csv_empty", "panel_empty",
        "index_series_blank_date", "truth_series_blank_date",
        "borrow_fees_blank_asset", "leg_csv_blank_month",
        "index_series_duplicate_date", "truth_series_duplicate_date",
        "borrow_fees_duplicate_asset", "leg_csv_duplicate_month",
        "ff_table_duplicate_month", "leg_csv_bad_month", "ff_table_bad_month"])
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
