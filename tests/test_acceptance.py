"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -s` to see the lines as they pass.
The public-monthly-data criterion needs the Kenneth French library files on
disk (see the README) and skips with instructions when they are absent.
"""

import contextlib
import json
import os
import time

import numpy as np
import pytest

from factorlab import analytics, cli, costs, data, portfolio as pf, signals
from factorlab import toy_model as tm

AUM = 1e9


@contextlib.contextmanager
def criterion(num, desc):
    started = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"\n[criterion {num}] FAIL - {desc}")
        raise
    print(f"\n[criterion {num}] PASS - {desc} "
          f"({time.perf_counter() - started:.1f}s)")


# ---------------------------------------------------------------------------
# shared synthetic market: 200 assets, short loading 0.8, gamma = kappa = 1
# ---------------------------------------------------------------------------

# resid vol == factor vol and equal across halves: gamma = kappa = 1; the
# factor vol is set so the factor eigenvalue clears the noise edge of the
# 250-day correlation window (otherwise cleaning folds the true factor mode
# into the bulk and volatility prediction degrades)
ACCEPTANCE_SPEC = tm.SyntheticUniverseSpec(
    n_assets=200, n_periods=5250, seed=20240,
    loading_short_scale=0.8, loading_spread=1.0,
    resid_vol_long=0.002, resid_vol_short=0.002,
    factor_mean=1e-3, factor_vol=0.002,
    market_mean=3e-4, market_vol=0.012,
)

ACCEPTANCE_PARAMS = tm.ToyModelParams(
    factor_mean=ACCEPTANCE_SPEC.factor_mean,
    factor_var=ACCEPTANCE_SPEC.factor_vol ** 2,
    short_loading=0.8, resid_var_ratio=1.0, short_resid_var_ratio=1.0,
)

WARMUP = 250


@pytest.fixture(scope="module")
def universe():
    return tm.generate_universe(ACCEPTANCE_SPEC)


@pytest.fixture(scope="module")
def residual_panel(universe):
    panel, _ = universe
    return signals.residual_returns(panel, lookback_days=250)


@pytest.fixture(scope="module")
def oracle_backtests(universe):
    """Zero-cost LH and LS runs driven by the ground-truth loading signs.

    Returns the two results plus the wall time they took, so the criterion
    that shares them can count the backtest work against its runtime limit.
    """
    started = time.perf_counter()
    panel, truth = universe
    sig = signals.scores_from_values(panel, np.sign(truth.loadings))
    start = panel.dates[WARMUP]
    cap = 2.0 / ACCEPTANCE_SPEC.n_assets
    lh = pf.run_backtest(
        panel, sig, pf.StrategyConfig(mode="LH", aum=AUM, cap=cap),
        costs.ZERO_COSTS, index_returns=truth.market, start=start,
    )
    ls = pf.run_backtest(
        panel, sig, pf.StrategyConfig(mode="LS", aum=AUM, cap=cap,
                                      vol_target=0.02),
        costs.ZERO_COSTS, start=start,
    )
    return lh, ls, time.perf_counter() - started


def test_criterion_1_closed_form_vs_monte_carlo():
    with criterion(1, "closed form vs 1e6-sample Monte Carlo, 1% relative"):
        started = time.perf_counter()
        n = 1_000_000
        seed = 100
        for a in (0.2, 0.414, 1.0):
            for g in (0.1, 1.0, 10.0):
                for k in (0.5, 1.0, 3.0):
                    p = tm.ToyModelParams(1.0, 1.0, short_loading=a,
                                          resid_var_ratio=g,
                                          short_resid_var_ratio=k)
                    seed += 1
                    s = tm.simulate_toy_returns(p, n, seed=seed)
                    emp = tm.sharpe_per_period(tm.LONG_SHORT.pnl(s)) \
                        / tm.sharpe_per_period(tm.HEDGED_LONG.pnl(s))
                    assert abs(emp / tm.sr_ratio(p) - 1.0) < 0.01, (a, g, k)
        assert time.perf_counter() - started < 30.0


def test_criterion_2_threshold_sign_equivalence():
    with criterion(2, "exact sign agreement on a 1e4-point random sweep"):
        started = time.perf_counter()
        rng = np.random.Generator(np.random.Philox(2024))
        a = rng.uniform(0.0, 3.0, 10_000)
        g = rng.uniform(1e-6, 10.0, 10_000)
        k = rng.uniform(0.0, 5.0, 10_000)
        ratio = tm.ratio_of_sharpes(a, g, k)
        lhs = np.sign(ratio - 1.0)
        rhs = np.sign(a - tm.shorts_threshold(k))
        violations = int(np.sum(lhs != rhs))
        assert violations == 0
        assert time.perf_counter() - started < 5.0


def test_criterion_3_backtest_oracle(oracle_backtests):
    with criterion(3, "realized LS/LH Sharpe ratio inside the MC band around "
                      "the closed-form prediction"):
        started = time.perf_counter()
        lh, ls, backtest_seconds = oracle_backtests
        assert len(lh.total_pnl) == 5000
        realized = tm.sharpe_per_period(ls.total_pnl) \
            / tm.sharpe_per_period(lh.total_pnl)
        predicted = tm.book_sr_ratio_prediction(ACCEPTANCE_PARAMS,
                                                ACCEPTANCE_SPEC.n_assets)
        band = tm.simulate_book_sr_ratios(
            ACCEPTANCE_PARAMS, ACCEPTANCE_SPEC.n_assets,
            n_periods=len(ls.total_pnl), n_reps=300, seed=77,
        )
        lo, hi = np.percentile(band, [2.5, 97.5])
        assert lo <= realized <= hi, (realized, predicted, lo, hi)
        assert lo < predicted < hi
        assert backtest_seconds + time.perf_counter() - started < 120.0


def test_criterion_4_predictability_recovery(universe, residual_panel):
    with criterion(4, "slope ratio recovers the short loading within its "
                      "bootstrap CI; noise control within 2 SE"):
        panel, truth = universe
        sig = signals.scores_from_values(panel, truth.loadings)
        ci = signals.bootstrap_slope_ratio(sig.scores, residual_panel,
                                           horizon_days=21, n_boot=200, seed=4)
        assert ci.lo <= ACCEPTANCE_SPEC.loading_short_scale <= ci.hi, \
            (ci.lo, ci.point, ci.hi)
        curve = signals.predictability_curve(sig, residual_panel, 21, 20)
        assert curve.above_threshold

        noise_spec = tm.SyntheticUniverseSpec(
            n_assets=200, n_periods=1500, seed=99,
            loading_long=0.0, loading_short_scale=0.0,
            resid_vol_long=0.002, resid_vol_short=0.002,
            market_mean=3e-4, market_vol=0.012,
        )
        noise_panel, _ = tm.generate_universe(noise_spec)
        noise_resid = signals.residual_returns(noise_panel, lookback_days=250)
        noise_sig = signals.factor_signal(noise_panel, None, "MOM")
        bs = signals.bootstrap_slope_ratio(noise_sig.scores, noise_resid,
                                           horizon_days=21, n_boot=150, seed=5)
        assert abs(bs.positive_slope) < 2 * bs.positive_slope_se
        assert abs(bs.negative_slope) < 2 * bs.negative_slope_se


def _grid_best(scores, prev, kv, lin, aum, cap, steps):
    """Exhaustive objective maximum on a per-axis grid including the
    no-trade point of every asset (chunked to bound memory)."""
    n = len(scores)
    axes = [
        np.unique(np.concatenate([np.linspace(0.0, cap * aum, steps),
                                  [prev[i]]]))
        for i in range(n)
    ]
    best = -np.inf
    tail = axes[1:]
    mesh_tail = np.meshgrid(*tail, indexing="ij") if tail else []
    tail_grid = (np.stack([m.ravel() for m in mesh_tail], axis=1)
                 if tail else np.zeros((1, 0)))
    for w0 in axes[0]:
        grid = np.column_stack([np.full(len(tail_grid), w0), tail_grid])
        grid = grid[np.sum(grid, axis=1) <= aum + 1e-6]
        if not len(grid):
            continue
        d = np.abs(grid - prev)
        obj = grid @ scores - lin * np.sum(d, axis=1) - (d ** 1.5) @ kv
        best = max(best, float(np.max(obj)))
    return best


def _objective(w, scores, prev, kv, lin):
    d = np.abs(w - prev)
    return float(w @ scores - lin * np.sum(d) - (d ** 1.5) @ kv)


def test_criterion_5_optimizer_correctness():
    with criterion(5, "optimizer matches exhaustive search, zero constraint "
                      "violations, greedy equality at zero cost"):
        rng = np.random.Generator(np.random.Philox(505))
        params = costs.CostModelParams(linear_rate=5e-4, impact_coeff=1.0)
        cap = 0.25

        # two assets, fine grid: two-sided agreement at 1e-6 * AUM
        for _ in range(4):
            scores = rng.uniform(-0.4, 0.5, 2)
            prev = rng.uniform(0, cap * AUM, 2)
            adv = rng.uniform(5e5, 5e6, 2)
            sigma = rng.uniform(0.01, 0.05, 2)
            kv = sigma / np.sqrt(adv)
            w = pf.optimize_long_only(scores, prev, adv, sigma, AUM, params,
                                      cap=cap)
            best = _grid_best(scores, prev, kv, params.linear_rate, AUM, cap,
                              steps=800)
            assert abs(_objective(w, scores, prev, kv, params.linear_rate)
                       - best) <= 1e-6 * AUM

        # up to six assets: the grid never beats the solver
        for n, steps in ((3, 120), (4, 33), (5, 15), (6, 11)):
            for _ in range(2):
                scores = rng.uniform(-0.4, 0.5, n)
                prev = rng.uniform(0, cap * AUM, n)
                if prev.sum() > AUM:
                    prev *= 0.9 * AUM / prev.sum()
                adv = rng.uniform(5e5, 5e6, n)
                sigma = rng.uniform(0.01, 0.05, n)
                kv = sigma / np.sqrt(adv)
                w = pf.optimize_long_only(scores, prev, adv, sigma, AUM,
                                          params, cap=cap)
                best = _grid_best(scores, prev, kv, params.linear_rate, AUM,
                                  cap, steps=steps)
                assert _objective(w, scores, prev, kv, params.linear_rate) \
                    >= best - 1e-6 * AUM

        # zero-cost case equals the greedy linear-program fill exactly
        for _ in range(20):
            n = int(rng.integers(2, 40))
            scores = rng.uniform(-0.5, 0.5, n)
            gcap = float(rng.uniform(0.02, 0.2))
            w = pf.optimize_long_only(scores, np.zeros(n), np.full(n, 1e7),
                                      np.full(n, 0.02), AUM, costs.ZERO_COSTS,
                                      cap=gcap)
            expected = np.zeros(n)
            remaining = AUM
            for i in sorted(range(n), key=lambda i: (-scores[i], i)):
                if scores[i] <= 0 or remaining <= 0:
                    break
                expected[i] = min(gcap * AUM, remaining)
                remaining -= expected[i]
            assert np.array_equal(w, expected)

        # a thousand random instances, zero constraint violations
        violations = 0
        for _ in range(1000):
            n = int(rng.integers(2, 30))
            vcap = float(rng.uniform(0.02, 0.3))
            scores = rng.uniform(-0.5, 0.5, n)
            prev = rng.uniform(0, vcap * AUM, n)
            adv = rng.uniform(1e5, 1e9, n)
            sigma = rng.uniform(0.005, 0.08, n)
            ca = float(rng.choice([0.0, 0.5, 1.0, 5.0]))
            w = pf.optimize_long_only(scores, prev, adv, sigma, AUM, params,
                                      cap=vcap, cost_aversion=ca)
            if np.any(w < -1e-9 * AUM) or np.any(w > vcap * AUM * (1 + 1e-9)) \
                    or np.sum(w) > AUM * (1 + 1e-9):
                violations += 1
        assert violations == 0


def test_criterion_6_cost_law_properties(oracle_backtests, universe):
    with criterion(6, "impact 3/2 scaling exact, superadditivity, exact P&L "
                      "decomposition"):
        rng = np.random.Generator(np.random.Philox(606))
        params = costs.CostModelParams(linear_rate=0.0, impact_coeff=1.7)
        q = rng.uniform(1e2, 1e8, 1000)
        adv = rng.uniform(1e5, 1e9, 1000)
        sigma = rng.uniform(0.005, 0.08, 1000)
        ratio = costs.impact_cost(4.0 * q, adv, sigma, params) \
            / costs.impact_cost(q, adv, sigma, params)
        assert np.max(np.abs(ratio - 8.0)) < 1e-12

        full = costs.CostModelParams()
        for _ in range(1000):
            q1, q2 = rng.uniform(0, 1e7, 2)
            a = float(rng.uniform(1e4, 1e9))
            s = float(rng.uniform(0.005, 0.08))
            whole = costs.trade_cost(q1 + q2, a, s, full)
            parts = costs.trade_cost(q1, a, s, full) + costs.trade_cost(q2, a, s, full)
            assert whole >= parts - 1e-12 * max(whole, 1.0)

        lh, ls, _ = oracle_backtests
        panel, truth = universe
        sig = signals.scores_from_values(panel, np.sign(truth.loadings))
        costed = pf.run_backtest(
            panel, sig,
            pf.StrategyConfig(mode="LS", aum=AUM, cap=0.01, vol_target=0.02),
            costs.CostModelParams(), start=panel.dates[WARMUP],
            end=panel.dates[WARMUP + 500],
        )
        for result in (lh, ls, costed):
            recomputed = result.ret_pnl + result.trading_cost \
                + result.financing_cost + result.borrow_cost
            assert np.array_equal(recomputed, result.total_pnl)


def _ff_dir():
    env = os.environ.get("FACTORLAB_FF_DIR")
    candidates = [env] if env else []
    here = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    candidates.append(os.path.join(here, "data", "famafrench"))
    for c in candidates:
        if c and os.path.isdir(c):
            return c
    return None


FF_FILES = {
    "HML": "6_Portfolios_2x3.CSV",
    "WML": "6_Portfolios_ME_Prior_12_2.CSV",
    "RMW": "6_Portfolios_ME_OP_2x3.CSV",
    "CMA": "6_Portfolios_ME_INV_2x3.CSV",
}
FF_FACTORS_FILE = "F-F_Research_Data_Factors.CSV"


def test_criterion_7_public_data_replication():
    ff_dir = _ff_dir()
    if ff_dir is None:
        pytest.skip(
            "Kenneth French library files not found; download the 2x3 "
            "portfolio CSVs and F-F_Research_Data_Factors.CSV into "
            "data/famafrench/ or point FACTORLAB_FF_DIR at them "
            "(see README)"
        )
    missing = [f for f in list(FF_FILES.values()) + [FF_FACTORS_FILE]
               if not os.path.exists(os.path.join(ff_dir, f))]
    if missing:
        pytest.skip(f"missing Kenneth French files in {ff_dir}: {missing}")
    with criterion(7, "public-data study: short-leg correlations, 70/30 "
                      "max-Sharpe split, size diagnostic signs"):
        started = time.perf_counter()
        legs = data.load_famafrench(
            {k: os.path.join(ff_dir, v) for k, v in FF_FILES.items()},
            os.path.join(ff_dir, FF_FACTORS_FILE),
        )
        factors = list(legs.factors)
        hedged_long, hedged_short = [], []
        for f in factors:
            index = legs.block_market[f]
            hedged_long.append(
                analytics.rescale_to_unit_beta(legs.long_leg[f], index) - index)
            hedged_short.append(
                index - analytics.rescale_to_unit_beta(legs.short_leg[f], index))
        long_corr = analytics.mean_pairwise_correlation(
            np.column_stack(hedged_long))
        short_corr = analytics.mean_pairwise_correlation(
            np.column_stack(hedged_short))
        assert short_corr > long_corr, (short_corr, long_corr)

        alloc = analytics.max_sharpe_allocation(
            np.column_stack(hedged_long + hedged_short),
            [True] * len(factors) + [False] * len(factors), long_only=True,
        )
        assert 0.60 <= alloc.long_weight <= 0.80, alloc.long_weight

        for f in factors:
            corr = analytics.smb_diagnostic(
                legs.long_leg[f], legs.short_leg[f], legs.market_vw, legs.smb)
            assert corr > 0, (f, corr)
        assert time.perf_counter() - started < 60.0


def test_criterion_8_neutrality_and_risk_targeting(universe):
    with criterion(8, "dollar neutrality < 1e-8 GMV, predicted vol within 1%, "
                      "hedged-long realized beta < 0.1"):
        panel, truth = universe
        sig = signals.scores_from_values(panel, np.sign(truth.loadings))
        start, end = panel.dates[WARMUP], panel.dates[WARMUP + 2500]
        ls = pf.run_backtest(
            panel, sig,
            pf.StrategyConfig(mode="LS", aum=AUM, cap=0.01, vol_target=0.02),
            costs.CostModelParams(), start=start, end=end,
        )
        gmv = np.sum(np.abs(ls.positions), axis=1)
        net = np.abs(np.sum(ls.positions, axis=1))
        assert np.all(net <= 1e-8 * np.maximum(gmv, 1.0))
        assert np.all(np.abs(ls.predicted_vol - 0.02) <= 0.01 * 0.02)
        assert np.all(ls.hedge_notional == 0.0)

        lh = pf.run_backtest(
            panel, sig, pf.StrategyConfig(mode="LH", aum=AUM, cap=0.01),
            costs.CostModelParams(), index_returns=truth.market,
            start=start, end=end,
        )
        beta = analytics.estimate_series_beta(
            lh.total_pnl / AUM, truth.market[WARMUP:WARMUP + 2501])
        assert abs(beta) < 0.1, beta


def test_criterion_9_command_determinism(tmp_path):
    with criterion(9, "byte-identical outputs for every command on reruns"):
        cfgs = {}
        cfgs["generate"] = tmp_path / "gen.cfg"
        cfgs["generate"].write_text(
            "[generate]\nn_assets = 20\nn_periods = 420\nseed = 5\n"
            "alpha2 = 0.8\nresid_vol_long = 0.004\nresid_vol_short = 0.004\n"
            "factor_mean = 0.0008\nfactor_vol = 0.004\n"
            "market_mean = 0.0003\nmarket_vol = 0.012\n"
        )
        gen_out = tmp_path / "gen"
        assert cli.main(["generate", "--config", str(cfgs["generate"]),
                         "--out", str(gen_out)]) == 0

        cfgs["toy"] = tmp_path / "toy.cfg"
        cfgs["toy"].write_text(
            "[toy]\nalpha2 = 0.2 0.5 1.0\ngamma = 0.5 2\nkappa = 0.5 1 2\n")

        cfgs["predictability"] = tmp_path / "pred.cfg"
        cfgs["predictability"].write_text(
            "[predictability]\n"
            f"panel = {gen_out / 'panel.csv'}\nfactors = MOM\n"
            "lookback_days = 250\nn_bins = 8\n"
        )

        cfgs["backtest"] = tmp_path / "bt.cfg"
        cfgs["backtest"].write_text(
            "[backtest]\n"
            f"panel = {gen_out / 'panel.csv'}\nmode = BOTH\n"
            f"truth_series = {gen_out / 'truth_series.csv'}\n"
            "aum = 1e9\ncap = 0.1\nvol_target = 0.04\nstart = 2001-01-08\n"
            "[signals]\nfactors = MOM\nema_span = 50\n"
            "[costs]\nlinear_rate = 5e-4\nimpact_coeff = 1.0\n"
        )

        ff_paths, ff_factors = __import__("conftest").make_ff_fixture(
            str(tmp_path), months=120)
        cfgs["famafrench"] = tmp_path / "ff.cfg"
        cfgs["famafrench"].write_text(
            "[famafrench]\nfactors = HML WML RMW CMA\n"
            + "".join(f"{k.lower()} = {v}\n" for k, v in ff_paths.items())
            + f"factors_file = {ff_factors}\n"
        )

        for command, cfg in cfgs.items():
            d1 = tmp_path / f"{command}_run1"
            d2 = tmp_path / f"{command}_run2"
            assert cli.main([command, "--config", str(cfg), "--out",
                             str(d1)]) == 0, command
            assert cli.main([command, "--config", str(cfg), "--out",
                             str(d2)]) == 0, command
            names1 = sorted(os.listdir(d1))
            assert names1 == sorted(os.listdir(d2))
            assert names1, command
            for name in names1:
                with open(d1 / name, "rb") as fa, open(d2 / name, "rb") as fb:
                    assert fa.read() == fb.read(), (command, name)
