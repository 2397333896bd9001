import numpy as np
import pytest
from hypothesis import given, strategies as st

from factorlab import costs


DEFAULTS = costs.CostModelParams()


class TestTradeCost:
    def test_zero_trade_costs_nothing(self):
        assert costs.trade_cost(0.0, 1e6, 0.02, DEFAULTS) == 0.0

    def test_direct_formula(self):
        # 5 bps linear on 1e6 plus impact 1 * 0.02 * sqrt(0.01) * 1e6
        p = costs.CostModelParams(linear_rate=5e-4, impact_coeff=1.0)
        got = costs.trade_cost(1e6, 1e8, 0.02, p)
        assert got == pytest.approx(5e-4 * 1e6 + 0.02 * 0.1 * 1e6)
        assert got == pytest.approx(2500.0)

    def test_three_halves_scaling_exact(self):
        p = costs.CostModelParams(linear_rate=0.0, impact_coeff=1.3)
        q = 123456.789
        ratio = costs.impact_cost(4 * q, 7e7, 0.025, p) / \
            costs.impact_cost(q, 7e7, 0.025, p)
        assert abs(ratio - 8.0) < 1e-12

    def test_unpriceable_adv(self):
        with pytest.raises(costs.CostError, match="unpriceable"):
            costs.trade_cost(10.0, 0.0, 0.02, DEFAULTS)
        with pytest.raises(costs.CostError):
            costs.trade_cost(10.0, np.nan, 0.02, DEFAULTS)

    def test_unpriceable_vol(self):
        with pytest.raises(costs.CostError, match="unpriceable"):
            costs.trade_cost(np.array([10.0, 5.0]), np.full(2, 1e6),
                             np.array([0.02, np.nan]), DEFAULTS)

    def test_zero_impact_prices_from_the_notional_alone(self):
        p = costs.CostModelParams(linear_rate=5e-4, impact_coeff=0.0)
        assert costs.trade_cost(1e6, np.nan, np.nan, p) == 5e-4 * 1e6
        got = costs.trade_cost(np.array([1e6, 2e5]), np.array([np.nan, 0.0]),
                               np.array([0.02, np.nan]), p)
        assert got.tolist() == [5e-4 * 1e6, 5e-4 * 2e5]

    def test_negative_notional_rejected(self):
        with pytest.raises(costs.CostError):
            costs.trade_cost(-1.0, 1e6, 0.02, DEFAULTS)

    def test_vectorized(self):
        q = np.array([0.0, 1e5, 1e6])
        out = costs.trade_cost(q, np.full(3, 1e7), np.full(3, 0.02), DEFAULTS)
        assert out.shape == (3,)
        assert out[0] == 0.0
        assert np.all(np.diff(out) > 0)

    @given(
        q1=st.floats(0, 1e7), q2=st.floats(0, 1e7),
        adv=st.floats(1e4, 1e9), sigma=st.floats(0.001, 0.1),
    )
    def test_superadditive(self, q1, q2, adv, sigma):
        c = lambda q: costs.trade_cost(q, adv, sigma, DEFAULTS)  # noqa: E731
        whole = c(q1 + q2)
        parts = c(q1) + c(q2)
        assert whole >= parts - 1e-12 * max(whole, 1.0)

    @given(
        q=st.floats(1, 1e7), adv=st.floats(1e4, 1e9),
        sigma=st.floats(0.001, 0.1), c=st.floats(1e-3, 1e3),
    )
    def test_currency_homogeneity(self, q, adv, sigma, c):
        base = costs.trade_cost(q, adv, sigma, DEFAULTS)
        scaled = costs.trade_cost(c * q, c * adv, sigma, DEFAULTS)
        assert scaled == pytest.approx(c * base, rel=1e-12)

    def test_convexity_on_random_grid(self):
        rng = np.random.Generator(np.random.Philox(2))
        q = np.sort(rng.uniform(1.0, 1e6, 64))
        vals = costs.trade_cost(q, 1e7, 0.02, DEFAULTS)
        mid = costs.trade_cost(0.5 * (q[:-1] + q[1:]), 1e7, 0.02, DEFAULTS)
        assert np.all(mid <= 0.5 * (vals[:-1] + vals[1:]) + 1e-9)


class TestImpactRates:
    def test_rate_left_to_right(self):
        adv, sigma = np.array([1e7, 4e8]), np.array([0.02, 0.013])
        p = costs.CostModelParams(impact_coeff=1.3)
        got = costs.impact_rates(adv, sigma, p, scale=0.7)
        assert got.tolist() == (0.7 * 1.3 * sigma / np.sqrt(adv)).tolist()

    def test_unpriceable_cells_are_nan(self):
        adv = np.array([1e7, np.nan, 0.0, -5.0, 1e7, np.inf])
        sigma = np.array([0.02, 0.02, 0.02, 0.02, np.nan, 0.02])
        got = costs.impact_rates(adv, sigma, DEFAULTS)
        assert np.isfinite(got[0])
        assert np.all(np.isnan(got[1:]))

    def test_zero_impact_prices_everything_at_zero(self):
        p = costs.CostModelParams(impact_coeff=0.0)
        got = costs.impact_rates(np.array([np.nan, 0.0, 1e7]),
                                 np.array([0.02, np.nan, 0.02]), p, scale=3.0)
        assert got.tolist() == [0.0, 0.0, 0.0]

    def test_impact_cost_refuses_exactly_the_nan_rates(self):
        for adv in (np.nan, np.inf, 0.0, -1.0, 3e7):
            for sigma in (np.nan, 0.0, 0.02):
                if np.isnan(costs.impact_rates(adv, sigma, DEFAULTS)):
                    with pytest.raises(costs.CostError, match="unpriceable"):
                        costs.impact_cost(1e4, adv, sigma, DEFAULTS)
                else:
                    assert costs.impact_cost(1e4, adv, sigma, DEFAULTS) >= 0


class TestFinancing:
    def test_unlevered_is_free(self):
        assert costs.financing_cost(1e9, 1e9, DEFAULTS) == 0.0
        assert costs.financing_cost(5e8, 1e9, DEFAULTS) == 0.0

    def test_two_x_leverage_over_a_year(self):
        aum = 1e9
        p = costs.CostModelParams(financing_spread=0.02)
        got = costs.TRADING_DAYS * costs.financing_cost(2 * aum, aum, p)
        assert got == pytest.approx(0.02 * aum)

    def test_currency_homogeneity(self):
        p = costs.CostModelParams(financing_spread=0.03)
        a = costs.financing_cost(3e9, 1e9, p)
        b = costs.financing_cost(3e6, 1e6, p)
        assert a == pytest.approx(1e3 * b)

    def test_negative_gross_rejected(self):
        with pytest.raises(costs.CostError):
            costs.financing_cost(-1.0, 1e9, DEFAULTS)


class TestBorrow:
    def test_no_shorts_no_cost(self):
        assert costs.borrow_cost(np.zeros(3), np.full(3, 0.01), DEFAULTS) == 0.0

    def test_single_short_for_a_year(self):
        got = costs.TRADING_DAYS * costs.borrow_cost(np.array([-1e6]), np.array([0.01]),
                                                     DEFAULTS)
        assert got == pytest.approx(1e4)

    def test_matches_brute_force(self):
        rng = np.random.Generator(np.random.Philox(8))
        pos = -rng.uniform(0, 1e6, 20)
        fees = rng.uniform(0, 0.05, 20)
        got = costs.borrow_cost(pos, fees, DEFAULTS)
        expected = sum(f * abs(p) for f, p in zip(fees, pos)) / 252
        assert got == pytest.approx(expected, rel=1e-12)

    def test_negative_fee_rejected(self):
        with pytest.raises(costs.CostError):
            costs.borrow_cost(np.array([-1.0]), np.array([-0.01]), DEFAULTS)

    @pytest.mark.parametrize("fee", [np.nan, np.inf])
    def test_fee_that_is_not_finite_rejected(self, fee):
        with pytest.raises(costs.CostError, match="finite and non-negative"):
            costs.borrow_cost(np.array([0.0, -1e6]), np.array([fee, 0.01]), DEFAULTS)

    def test_long_positions_rejected(self):
        with pytest.raises(costs.CostError):
            costs.borrow_cost(np.array([1.0]), np.array([0.01]), DEFAULTS)


class TestParamsAndSchedule:
    def test_parameter_validation(self):
        with pytest.raises(costs.CostError):
            costs.CostModelParams(linear_rate=-1e-4)

    @pytest.mark.parametrize("name", ["linear_rate", "impact_coeff",
                                      "financing_spread", "default_borrow_fee"])
    def test_nan_rate_rejected(self, name):
        with pytest.raises(costs.CostError, match=f"{name} must be non-negative, got nan"):
            costs.CostModelParams(**{name: float("nan")})

    def test_resolve_overrides(self):
        p = costs.CostModelParams(default_borrow_fee=0.0025)
        fees = costs.resolve_borrow_fees(("A", "B"), {"B": 0.05}, p)
        assert fees.tolist() == [0.0025, 0.05]

    @pytest.mark.parametrize("fee", [np.nan, np.inf])
    def test_resolve_rejects_a_fee_that_is_not_finite(self, fee):
        p = costs.CostModelParams()
        with pytest.raises(costs.CostError,
                           match=f"borrow fee for 'B' must be finite and "
                                 f"non-negative, got {fee!r}"):
            costs.resolve_borrow_fees(("A", "B"), {"B": fee}, p)

    def test_load_override_csv(self, tmp_path):
        f = tmp_path / "fees.csv"
        f.write_text("asset_id,annual_fee_bps\nAAA,100\nBBB,25\n")
        got = costs.load_borrow_fee_overrides(str(f))
        assert got == {"AAA": pytest.approx(0.01), "BBB": pytest.approx(0.0025)}

    def test_override_csv_rejects_negative(self, tmp_path):
        f = tmp_path / "fees.csv"
        f.write_text("asset_id,annual_fee_bps\nAAA,-5\n")
        with pytest.raises(costs.CostError):
            costs.load_borrow_fee_overrides(str(f))

    @pytest.mark.parametrize("cell, shown", [("-5", "-5.0"), ("nan", "nan"),
                                             ("NaN", "nan"), ("inf", "inf"),
                                             ("Infinity", "inf")])
    def test_override_csv_names_the_line_of_a_bad_fee(self, tmp_path, cell, shown):
        f = tmp_path / "fees.csv"
        f.write_text(f"asset_id,annual_fee_bps\nBBB,25\nAAA,{cell}\n")
        with pytest.raises(costs.CostError,
                           match=f"fees.csv: line 3: annual_fee_bps {shown} for "
                                 f"asset 'AAA' must be finite and non-negative"):
            costs.load_borrow_fee_overrides(str(f))
