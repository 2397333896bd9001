import math
import os

import numpy as np
import pytest
from hypothesis import settings

from factorlab import toy_model as tm

settings.register_profile("ci", deadline=None, max_examples=60, derandomize=True)
settings.load_profile("ci")


@pytest.fixture(scope="session")
def small_universe():
    """40 assets, 800 days, short loading 0.8 above the accretive threshold."""
    spec = tm.SyntheticUniverseSpec(
        n_assets=40, n_periods=800, seed=3,
        loading_short_scale=0.8,
        resid_vol_long=0.004, resid_vol_short=0.004,
        factor_mean=2e-4, factor_vol=0.004,
        market_mean=3e-4, market_vol=0.012,
    )
    panel, truth = tm.generate_universe(spec)
    return spec, panel, truth


def sharpe_standard_error(sr: float, n: int) -> float:
    """Large-sample standard error of a per-period Sharpe ratio estimated
    from n periods."""
    return math.sqrt((1.0 + 0.5 * sr * sr) / n)


def make_ff_fixture(tmpdir, seed=17, months=240):
    """Kenneth-French-layout fixture files: four 2x3 block files plus the
    research-factors file, with a published HML column reconstructed from the
    same blocks (rounded to the file format's two decimals)."""
    rng = np.random.Generator(np.random.Philox(seed))
    mm = [(1990 + i // 12) * 100 + (i % 12) + 1 for i in range(months)]

    market = 0.8 + 4.0 * rng.standard_normal(months)
    smb_true = 0.2 + 2.0 * rng.standard_normal(months)

    def blocks_for(premium, hi_is_long):
        # six blocks = market +- half the size effect +- the sort premium,
        # with the premium accruing to the factor's long tertile
        sign = 1.0 if hi_is_long else -1.0
        small = market + 0.5 * smb_true
        big = market - 0.5 * smb_true
        noise = lambda: 1.5 * rng.standard_normal(months)  # noqa: E731
        return {
            "SMALL Lo": small - sign * 0.5 * premium + noise(),
            "ME1 2": small + noise(),
            "SMALL Hi": small + sign * 0.5 * premium + noise(),
            "BIG Lo": big - sign * 0.5 * premium + noise(),
            "ME2 2": big + noise(),
            "BIG Hi": big + sign * 0.5 * premium + noise(),
        }

    premiums = {
        "HML": 0.6 + 0.8 * rng.standard_normal(months),
        "WML": 0.8 + 1.2 * rng.standard_normal(months),
        "RMW": 0.5 + 0.6 * rng.standard_normal(months),
        "CMA": 0.45 + 0.6 * rng.standard_normal(months),
    }
    suffix = {"HML": "BM", "WML": "PRIOR", "RMW": "OP", "CMA": "INV"}
    paths = {}
    all_blocks = {}
    for name, prem in premiums.items():
        blocks = blocks_for(prem, hi_is_long=name != "CMA")
        all_blocks[name] = blocks
        path = os.path.join(tmpdir, f"6_Portfolios_{name}.CSV")
        with open(path, "w") as fh:
            fh.write("  This file was created for tests\n")
            fh.write("  Missing data are indicated by -99.99.\n\n")
            fh.write("  Average Value Weighted Returns -- Monthly\n")
            cols = {
                f"SMALL Lo{suffix[name]}": blocks["SMALL Lo"],
                f"ME1 {suffix[name]}2": blocks["ME1 2"],
                f"SMALL Hi{suffix[name]}": blocks["SMALL Hi"],
                f"BIG Lo{suffix[name]}": blocks["BIG Lo"],
                f"ME2 {suffix[name]}2": blocks["ME2 2"],
                f"BIG Hi{suffix[name]}": blocks["BIG Hi"],
            }
            fh.write("," + ",".join(cols) + "\n")
            for i, m in enumerate(mm):
                fh.write(str(m) + "," + ",".join(
                    f"{blocks_col[i]:.2f}" for blocks_col in cols.values()
                ) + "\n")
            fh.write("\nAnnual Factors: January-December\n")
            fh.write(",Ignored\n1991,12.0\n")
        paths[name] = path

    hml_blocks = all_blocks["HML"]
    hml_published = 0.5 * (hml_blocks["SMALL Hi"] + hml_blocks["BIG Hi"]) \
        - 0.5 * (hml_blocks["SMALL Lo"] + hml_blocks["BIG Lo"])
    factors_path = os.path.join(tmpdir, "F-F_Research_Data_Factors.CSV")
    rf = np.full(months, 0.3)
    with open(factors_path, "w") as fh:
        fh.write("This file was created for tests\n\n")
        fh.write(",Mkt-RF,SMB,HML,RF\n")
        for i, m in enumerate(mm):
            fh.write(
                f"{m},{market[i] - rf[i]:.2f},{smb_true[i]:.2f},"
                f"{hml_published[i]:.2f},{rf[i]:.2f}\n"
            )
    return paths, factors_path
