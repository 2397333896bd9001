import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from factorlab import data
from conftest import make_ff_fixture


def write_lines(path, lines):
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return str(path)


@pytest.fixture
def three_asset_csv(tmp_path):
    return write_lines(tmp_path / "p.csv", [
        "date,asset_id,region,ret,price,adv",
        "2020-01-02,AAA,NA,0.01,100,1000000",
        "2020-01-02,BBB,EU,0.02,50,2000000",
        "2020-01-02,CCC,NA,-0.01,20,500000",
        "2020-01-03,AAA,NA,-0.02,98,1100000",
        "2020-01-03,BBB,EU,0.005,50.2,2000000",
        "2020-01-03,CCC,NA,0.0,20,400000",
    ])


class TestLoadPanel:
    def test_well_formed_fixture(self, three_asset_csv):
        panel = data.load_panel(three_asset_csv)
        assert panel.assets == ("AAA", "BBB", "CCC")
        assert panel.regions == ("NA", "EU", "NA")
        assert panel.n_dates == 2
        assert np.all(np.isfinite(panel.field("ret")))

    def test_blank_cell_masked(self, tmp_path):
        path = write_lines(tmp_path / "p.csv", [
            "date,asset_id,region,ret,price",
            "2020-01-02,AAA,NA,,100",
            "2020-01-02,BBB,NA,0.02,50",
        ])
        panel = data.load_panel(path)
        assert not np.isfinite(panel.field("ret")[0, 0])
        assert np.isfinite(panel.field("ret")[0, 1])
        assert np.isfinite(panel.field("price")[0, 0])

    def test_malformed_row_reports_line(self, tmp_path):
        path = write_lines(tmp_path / "p.csv", [
            "date,asset_id,region,ret",
            "2020-01-02,AAA,NA,0.01",
            "2020-01-03,AAA,NA,zork",
        ])
        with pytest.raises(data.PanelError, match="line 3"):
            data.load_panel(path)

    def test_bad_date_reports_line(self, tmp_path):
        path = write_lines(tmp_path / "p.csv", [
            "date,asset_id,region,ret",
            "not-a-date,AAA,NA,0.01",
        ])
        with pytest.raises(data.PanelError, match="line 2"):
            data.load_panel(path)

    def test_duplicate_cell_rejected(self, tmp_path):
        path = write_lines(tmp_path / "p.csv", [
            "date,asset_id,region,ret",
            "2020-01-02,AAA,NA,0.01",
            "2020-01-02,AAA,NA,0.02",
        ])
        with pytest.raises(data.PanelError, match="line 3: duplicate"):
            data.load_panel(path)
        # the error names the first row that repeats an earlier one
        path = write_lines(tmp_path / "p.csv", [
            "date,asset_id,region,ret",
            *[f"2020-01-02,A{k:02d},NA,0.01" for k in range(30)],
            "2020-01-02,A07,NA,0.02",
            "2020-01-02,A03,NA,0.02",
        ])
        with pytest.raises(data.PanelError, match=r"line 32: duplicate "
                                                  r"\(date, asset\) \(2020-01-02, A07\)"):
            data.load_panel(path)

    def test_conflicting_regions_report_line(self, tmp_path):
        path = write_lines(tmp_path / "p.csv", [
            "date,asset_id,region,ret",
            "2020-01-02,AAA,NA,0.01",
            "2020-01-02,BBB,EU,0.01",
            "",
            " , ,,",
            "2020-01-03,AAA,EU,0.02",
        ])
        with pytest.raises(data.PanelError, match="line 6: asset 'AAA' has "
                                                  "conflicting regions 'NA' and 'EU'"):
            data.load_panel(path)

    def test_unknown_field_lists_known(self, tmp_path):
        path = write_lines(tmp_path / "p.csv", [
            "date,asset_id,region,wibble",
            "2020-01-02,AAA,NA,1",
        ])
        with pytest.raises(data.PanelError, match="ret"):
            data.load_panel(path)

    def test_round_trip_normal_form(self, three_asset_csv, tmp_path):
        panel = data.load_panel(three_asset_csv)
        out1 = tmp_path / "w1.csv"
        data.write_panel(panel, out1)
        out2 = tmp_path / "w2.csv"
        data.write_panel(data.load_panel(out1), out2)
        assert out1.read_bytes() == out2.read_bytes()

    @pytest.mark.parametrize("chunk", [3, 1 << 16])
    def test_writer_matches_cell_loop(self, tmp_path, monkeypatch, chunk):
        rng = np.random.Generator(np.random.Philox(8))
        t, n = 9, 4
        arrays = {f: rng.standard_normal((t, n)) for f in ("ret", "price")}
        arrays["ret"][rng.random((t, n)) < 0.3] = np.nan
        arrays["price"][rng.random((t, n)) < 0.5] = np.nan
        arrays["ret"][2] = arrays["price"][2] = np.nan     # an empty date
        panel = data.ReturnsPanel(dates=data.business_days("2020-01-01", t),
                                  assets=("A", "B", "C", "D"),
                                  regions=("NA", "EU", "NA", ""), arrays=arrays)
        monkeypatch.setattr(data, "_WRITE_CHUNK", chunk)
        data.write_panel(panel, tmp_path / "p.csv")
        # the per-date, per-asset loop the batched writer replaced
        lines = ["date,asset_id,region,ret,price"]
        for i, d in enumerate(panel.dates):
            for j in range(n):
                cells = [data._fmt(arrays[f][i, j]) for f in ("ret", "price")]
                if any(cells):
                    lines.append(",".join([str(d), panel.assets[j],
                                           panel.regions[j]] + cells))
        assert (tmp_path / "p.csv").read_text() == "\n".join(lines) + "\n"

    def test_panel_is_immutable(self, three_asset_csv):
        panel = data.load_panel(three_asset_csv)
        with pytest.raises(ValueError):
            panel.field("ret")[0, 0] = 5.0

    @settings(max_examples=25)
    @given(st.data())
    def test_random_panels_round_trip_exactly(self, tmp_path_factory,
                                              data_strategy):
        t = data_strategy.draw(st.integers(1, 6))
        n = data_strategy.draw(st.integers(1, 4))
        values = data_strategy.draw(
            st.lists(
                st.one_of(
                    st.none(),
                    st.floats(allow_nan=False, allow_infinity=False,
                              width=64),
                ),
                min_size=t * n * 2, max_size=t * n * 2,
            )
        )
        ret = np.array([np.nan if v is None else v
                        for v in values[: t * n]]).reshape(t, n)
        price = np.array([np.nan if v is None else v
                          for v in values[t * n:]]).reshape(t, n)
        if not (np.any(np.isfinite(ret)) or np.any(np.isfinite(price))):
            return  # nothing to write; the loader rejects empty files
        panel = data.ReturnsPanel(
            dates=data.business_days("2020-01-01", t),
            assets=tuple(f"A{i}" for i in range(n)),
            regions=tuple("R" for _ in range(n)),
            arrays={"ret": ret, "price": price},
        )
        tmp = tmp_path_factory.mktemp("roundtrip")
        data.write_panel(panel, tmp / "a.csv")
        loaded = data.load_panel(tmp / "a.csv")
        # cells whose whole row is missing are not written at all, so the
        # loaded panel may drop dates/assets; every surviving cell must
        # round-trip bit for bit
        date_pos = {str(d): i for i, d in enumerate(panel.dates)}
        asset_pos = {a: j for j, a in enumerate(panel.assets)}
        rows = [date_pos[str(d)] for d in loaded.dates]
        cols = [asset_pos[a] for a in loaded.assets]
        for name in ("ret", "price"):
            got = loaded.field(name)
            sub = panel.field(name)[np.ix_(rows, cols)]
            same = (got == sub) | (np.isnan(got) & np.isnan(sub))
            assert np.all(same)
        # loading is order-independent: a row-shuffled copy gives the same panel
        lines = (tmp / "a.csv").read_text().splitlines()
        rows = lines[1:]
        order = data_strategy.draw(st.permutations(range(len(rows))))
        (tmp / "shuffled.csv").write_text(
            "\n".join([lines[0]] + [rows[k] for k in order]) + "\n")
        shuffled = data.load_panel(tmp / "shuffled.csv")
        assert np.array_equal(shuffled.dates, loaded.dates)
        assert (shuffled.assets, shuffled.regions) == (loaded.assets, loaded.regions)
        for name in ("ret", "price"):
            assert np.array_equal(shuffled.field(name), loaded.field(name),
                                  equal_nan=True)
        data.write_panel(loaded, tmp / "b.csv")
        data.write_panel(data.load_panel(tmp / "b.csv"), tmp / "c.csv")
        assert (tmp / "b.csv").read_bytes() == (tmp / "c.csv").read_bytes()


class TestForwardFill:
    def test_limit_honored(self):
        dates = data.business_days("2020-01-06", 5)
        earnings = np.array([[1.0], [np.nan], [np.nan], [np.nan], [np.nan]])
        panel = data.ReturnsPanel(dates=dates, assets=("A",), regions=("",),
                                  arrays={"earnings": earnings})
        filled = data.forward_fill_field(panel, "earnings", limit_days=3)
        # 2020-01-06 Monday; +3 calendar days covers Tue..Thu only
        assert filled[:4, 0].tolist() == [1.0, 1.0, 1.0, 1.0]
        assert np.isnan(filled[4, 0])


class TestSelectPool:
    def make_panel(self, adv_matrix, regions=None, start="2020-01-01"):
        t, n = adv_matrix.shape
        dates = data.business_days(start, t)
        assets = tuple(f"A{i}" for i in range(n))
        regions = regions or tuple("NA" for _ in range(n))
        return data.ReturnsPanel(dates=dates, assets=assets, regions=regions,
                                 arrays={"adv": adv_matrix.astype(float)})

    def test_constant_advs_top_k(self):
        t = 150
        adv = np.tile(np.array([5.0, 4.0, 3.0, 2.0, 1.0]), (t, 1))
        panel = self.make_panel(adv)
        pool = data.select_pool(panel, adv_window_days=60,
                                counts_by_region={"NA": 3}, min_valid_days=30)
        # after enough history, exactly the top three are in
        assert np.array_equal(pool.mask[-1], [True, True, True, False, False])

    def test_count_larger_than_universe_clamps(self):
        adv = np.tile(np.array([5.0, 4.0]), (150, 1))
        panel = self.make_panel(adv)
        pool = data.select_pool(panel, adv_window_days=60,
                                counts_by_region={"NA": 10}, min_valid_days=30)
        assert np.all(pool.mask[-1])

    def test_no_history_no_membership(self):
        adv = np.tile(np.array([5.0, 4.0]), (10, 1))
        panel = self.make_panel(adv)
        pool = data.select_pool(panel, adv_window_days=60,
                                counts_by_region={"NA": 1}, min_valid_days=30)
        assert not np.any(pool.mask)

    def test_unknown_region_rejected(self):
        adv = np.tile(np.array([5.0, 4.0]), (10, 1))
        panel = self.make_panel(adv)
        with pytest.raises(data.PanelError, match="ZZ"):
            data.select_pool(panel, counts_by_region={"ZZ": 5})

    def test_membership_constant_between_rebalances(self):
        rng = np.random.Generator(np.random.Philox(4))
        adv = rng.uniform(1, 10, size=(200, 6))
        panel = self.make_panel(adv)
        pool = data.select_pool(panel, adv_window_days=40,
                                counts_by_region={"NA": 3}, min_valid_days=20)
        changes = np.any(pool.mask[1:] != pool.mask[:-1], axis=1)
        change_idx = set(np.nonzero(changes)[0] + 1)
        assert change_idx <= set(pool.rebalance_indices.tolist())

    def test_matches_brute_force(self):
        rng = np.random.Generator(np.random.Philox(9))
        t, n = 180, 8
        adv = rng.uniform(1, 100, size=(t, n))
        adv[rng.random((t, n)) < 0.1] = np.nan
        regions = tuple(["NA"] * 4 + ["EU"] * 4)
        panel = self.make_panel(adv, regions=regions)
        window, min_days, counts = 50, 25, {"NA": 2, "EU": 1}
        pool = data.select_pool(panel, adv_window_days=window,
                                counts_by_region=counts, min_valid_days=min_days)
        for start in pool.rebalance_indices:
            lo = max(0, start - window)
            expected = np.zeros(n, dtype=bool)
            for region, count in counts.items():
                scored = []
                for j in range(n):
                    if regions[j] != region:
                        continue
                    vals = adv[lo:start, j]
                    vals = vals[np.isfinite(vals)]
                    if len(vals) >= min_days:
                        scored.append((-np.mean(vals), j))
                for _, j in sorted(scored)[:count]:
                    expected[j] = True
            assert np.array_equal(pool.mask[start], expected), f"at {start}"


class TestFamaFrench:
    def test_legs_assembled_from_corners(self, tmp_path):
        paths, factors_path = make_ff_fixture(str(tmp_path))
        legs = data.load_famafrench({"HML": paths["HML"]}, factors_path)
        b = legs.blocks["HML"]
        expect_long = 0.5 * (b["SMALL HiBM"] + b["BIG HiBM"])
        expect_short = 0.5 * (b["SMALL LoBM"] + b["BIG LoBM"])
        assert np.allclose(legs.long_leg["HML"], expect_long)
        assert np.allclose(legs.short_leg["HML"], expect_short)
        assert np.allclose(
            legs.block_market["HML"],
            np.mean(np.column_stack(list(b.values())), axis=1),
        )

    def test_percent_to_decimal(self, tmp_path):
        paths, factors_path = make_ff_fixture(str(tmp_path))
        legs = data.load_famafrench({"HML": paths["HML"]}, factors_path)
        assert np.nanmax(np.abs(legs.long_leg["HML"])) < 1.0
        assert np.all(np.abs(legs.rf - 0.003) < 1e-12)

    def test_reconstructed_hml_tracks_published(self, tmp_path):
        paths, factors_path = make_ff_fixture(str(tmp_path))
        legs = data.load_famafrench({"HML": paths["HML"]}, factors_path)
        rebuilt = legs.long_leg["HML"] - legs.short_leg["HML"]
        # published column was built from the same blocks before rounding
        months, names, values = data.read_ff_table(factors_path)
        published = values[:, names.index("HML")] / 100.0
        corr = np.corrcoef(rebuilt, published)[0, 1]
        assert corr > 0.99

    def test_sentinels_masked(self, tmp_path):
        path = tmp_path / "b.csv"
        path.write_text(
            "header\n,SMALL LoBM,SMALL HiBM,BIG LoBM,BIG HiBM\n"
            "199001,1.0,-99.99,2.0,3.0\n199002,1.0,2.0,-999,3.0\n"
        )
        fac = tmp_path / "f.csv"
        fac.write_text(",Mkt-RF,SMB,RF\n199001,1.0,0.1,0.2\n199002,1.0,0.1,0.2\n")
        legs = data.load_famafrench({"HML": str(path)}, str(fac))
        assert np.isnan(legs.long_leg["HML"][0])
        assert np.isnan(legs.short_leg["HML"][1])

    def test_missing_corner_block_rejected(self, tmp_path):
        path = tmp_path / "b.csv"
        path.write_text("header\n,SMALL LoBM,SMALL HiBM\n199001,1.0,2.0\n")
        fac = tmp_path / "f.csv"
        fac.write_text(",Mkt-RF,SMB,RF\n199001,1.0,0.1,0.2\n")
        with pytest.raises(data.PanelError, match="big"):
            data.load_famafrench({"HML": str(path)}, str(fac))

    def test_calendar_intersection(self, tmp_path):
        path = tmp_path / "b.csv"
        path.write_text(
            "h\n,SMALL LoBM,SMALL HiBM,BIG LoBM,BIG HiBM\n"
            "199001,1,2,3,4\n199002,1,2,3,4\n199003,1,2,3,4\n"
        )
        fac = tmp_path / "f.csv"
        fac.write_text(",Mkt-RF,SMB,RF\n199002,1.0,0.1,0.2\n199003,1.0,0.1,0.2\n")
        legs = data.load_famafrench({"HML": str(path)}, str(fac))
        assert legs.months.tolist() == [np.datetime64("1990-02"),
                                        np.datetime64("1990-03")]

    def test_disjoint_calendars_error(self, tmp_path):
        path = tmp_path / "b.csv"
        path.write_text("h\n,SMALL LoBM,SMALL HiBM,BIG LoBM,BIG HiBM\n199001,1,2,3,4\n")
        fac = tmp_path / "f.csv"
        fac.write_text(",Mkt-RF,SMB,RF\n200001,1.0,0.1,0.2\n")
        with pytest.raises(data.PanelError, match="calendar"):
            data.load_famafrench({"HML": str(path)}, str(fac))

    def test_unknown_factor_needs_direction(self, tmp_path):
        paths, factors_path = make_ff_fixture(str(tmp_path))
        with pytest.raises(data.PanelError, match="long tertile"):
            data.load_famafrench({"XYZ": paths["HML"]}, factors_path)
        legs = data.load_famafrench({"XYZ": paths["HML"]}, factors_path,
                                    long_tertile={"XYZ": "hi"})
        assert "XYZ" in legs.long_leg

    def test_prebuilt_leg_csv(self, tmp_path):
        paths, factors_path = make_ff_fixture(str(tmp_path))
        leg_csv = tmp_path / "vol.csv"
        lines = ["date,long,short"]
        for i in range(240):
            m = (1990 + i // 12) * 100 + (i % 12) + 1
            lines.append(f"{m},0.01,0.002")
        leg_csv.write_text("\n".join(lines) + "\n")
        legs = data.load_famafrench({"HML": paths["HML"]}, factors_path,
                                    leg_paths={"VOL": str(leg_csv)})
        assert "VOL" in legs.factors
        assert np.allclose(legs.long_leg["VOL"], 0.01)
