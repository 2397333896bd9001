import csv
import io
from array import array
from pathlib import Path

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


# ---------------------------------------------------------------------------
# reference loader: the row-at-a-time reader and loader the block-parsing
# `data._read_rows` and `data.load_panel` replaced
# ---------------------------------------------------------------------------

def reference_read_rows(path, columns, error):
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        raw = next(reader, None)
        if raw is None:
            raise error(f"{path}: empty file")
        header = [h.strip().lower() for h in raw]
        if header[:len(columns)] != list(columns):
            raise error(f"{path}: header must start with {','.join(columns)}")
        yield reader.line_num, header
        for raw in reader:
            cells = [c.strip() for c in raw]
            if not any(cells):
                continue
            if len(cells) != len(header):
                raise error(f"{path}: line {reader.line_num}: expected "
                            f"{len(header)} cells, got {len(cells)}")
            yield reader.line_num, cells


def reference_load_panel(path):
    PanelError = data.PanelError
    rows = reference_read_rows(path, ("date", "asset_id"), PanelError)
    header = next(rows)[1]
    col = 3 if header[2:3] == ["region"] else 2
    names = header[col:]
    unknown = [c for c in names if c not in data.PANEL_FIELDS]
    if unknown:
        raise PanelError(
            f"{path}: unknown field column(s) {', '.join(unknown)}; "
            f"known fields: {', '.join(data.PANEL_FIELDS)}"
        )
    if not names:
        raise PanelError(f"{path}: no field columns")
    day_of, code_of, region_of = {}, {}, []
    days, codes, lines, values = array("q"), array("q"), array("q"), array("d")
    for lineno, cells in rows:
        day = day_of.get(cells[0])
        if day is None:
            day = day_of[cells[0]] = data._day(cells[0], path, lineno, PanelError)
        asset, region = cells[1], cells[2] if col == 3 else ""
        code = code_of.get(asset)
        if code is None:
            if not asset:
                raise PanelError(f"{path}: line {lineno}: empty asset_id")
            code = code_of[asset] = len(region_of)
            region_of.append(region)
        elif region_of[code] != region:
            raise PanelError(
                f"{path}: line {lineno}: asset {asset!r} has conflicting regions "
                f"{region_of[code]!r} and {region!r}"
            )
        for name, cell in zip(names, cells[col:]):
            try:
                values.append(float(cell) if cell else np.nan)
            except ValueError:
                raise PanelError(
                    f"{path}: line {lineno}: bad value {cell!r} for field {name!r}"
                ) from None
        days.append(day)
        codes.append(code)
        lines.append(lineno)
    if not days:
        raise PanelError(f"{path}: no data rows")
    day_nums, i = np.unique(np.frombuffer(days, np.int64), return_inverse=True)
    first_seen = list(code_of)
    by_name = sorted(range(len(first_seen)), key=first_seen.__getitem__)
    rank = np.empty(len(by_name), np.int64)
    rank[by_name] = np.arange(len(by_name))
    j = rank[np.frombuffer(codes, np.int64)]
    cell = i * len(by_name) + j
    order = np.argsort(cell, kind="stable")
    repeats = order[1:][cell[order[1:]] == cell[order[:-1]]]
    if len(repeats):
        k = int(repeats.min())
        raise PanelError(
            f"{path}: line {lines[k]}: duplicate (date, asset) "
            f"({day_nums[i[k]].astype('datetime64[D]')}, {first_seen[codes[k]]})"
        )
    table = np.frombuffer(values, np.float64).reshape(-1, len(names))
    arrays = {}
    for k, name in enumerate(names):
        arrays[name] = np.full((len(day_nums), len(by_name)), np.nan)
        arrays[name][i, j] = table[:, k]
    return data.ReturnsPanel(
        dates=day_nums.astype("datetime64[D]"),
        assets=tuple(first_seen[c] for c in by_name),
        regions=tuple(region_of[c] for c in by_name),
        arrays=arrays,
    )


def load_outcome(load, path):
    """The panel `load` returns, or the type and message of what it raises."""
    try:
        return load(path)
    except (data.PanelError, csv.Error, UnicodeDecodeError) as exc:
        return type(exc), str(exc)


def assert_same_outcome(got, want):
    if isinstance(want, tuple):
        assert got == want
        return
    assert isinstance(got, data.ReturnsPanel), got
    assert got.dates.dtype == want.dates.dtype
    assert np.array_equal(got.dates, want.dates)
    assert (got.assets, got.regions) == (want.assets, want.regions)
    assert list(got.arrays) == list(want.arrays)
    for name, arr in want.arrays.items():
        assert got.arrays[name].dtype == arr.dtype
        # bit for bit: NaN against NaN, and -0.0 apart from 0.0
        assert np.array_equal(got.arrays[name].view(np.int64), arr.view(np.int64))


_NUMBER_CELLS = st.one_of(
    st.floats(width=64, allow_nan=False).map(repr),
    st.sampled_from(["", " ", " \t ", "inf", "-inf", "nan", "1_0", "-0.0",
                     " 1e-3 ", "\x1f2.5\x1f", "7"]),
)
_PADS = st.sampled_from(["", "", " ", "  ", "\t"])


@st.composite
def panel_texts(draw):
    """Panel CSV text with blank lines, all-blank rows, padded cells, quoted
    asset ids holding commas, CRLF line endings, a quoted cell that spans
    lines, shuffled rows and up to two bad rows."""
    fields = draw(st.sampled_from([["ret"], ["ret", "price"],
                                   ["price", "adv", "ret"]]))
    with_region = draw(st.booleans())
    assets = draw(st.lists(st.sampled_from(["AAA", "B,1", "C, 2", "D\"4", "E"]),
                           min_size=1, max_size=4, unique=True))
    region = {a: draw(st.sampled_from(["NA", "EU", ""])) for a in assets}
    dates = [str(d) for d in data.business_days("2020-01-01",
                                               draw(st.integers(1, 5)))]
    pad = lambda text: draw(_PADS) + text + draw(_PADS)  # noqa: E731
    rows = []
    for d in dates:
        for a in assets:
            if draw(st.integers(0, 4)) == 0:
                continue
            row = [pad(d), pad(a)] + ([pad(region[a])] if with_region else [])
            rows.append(row + [draw(_NUMBER_CELLS) for _ in fields])
    if rows and draw(st.booleans()):   # one quoted cell that spans lines
        row = rows[draw(st.integers(0, len(rows) - 1))]
        c = draw(st.integers(0, len(row) - 1))
        newline = draw(st.sampled_from(["\n", "\r\n", "\r", "\n\n "]))
        row[c] = draw(st.sampled_from([newline + row[c], row[c] + newline]))
    for _ in range(draw(st.integers(0, 2)) if rows else 0):
        # a bad copy of a row; a plain copy repeats its (date, asset)
        row = list(rows[draw(st.integers(0, len(rows) - 1))])
        kind = draw(st.sampled_from(["date", "value", "width", "region",
                                     "duplicate", "asset"]))
        if kind == "date":
            row[0] = draw(st.sampled_from(["2020-02-30", "x", "", " "]))
        elif kind == "value":
            row[-1] = draw(st.sampled_from(["abc", "1.2.3", "--1"]))
        elif kind == "width":
            row = row[:-1] if draw(st.booleans()) else row + ["0"]
        elif kind == "region" and with_region:
            row[0], row[2] = pad("2021-06-01"), pad(row[2].strip() + "X")
        elif kind == "asset":
            row[1] = draw(_PADS)
        rows.append(row)
    rows = [rows[k] for k in draw(st.permutations(range(len(rows))))]
    for _ in range(draw(st.integers(0, 3))):
        blank = draw(st.sampled_from([[], [" "], [" ", " ", "", ""], ["", ""]]))
        rows.insert(draw(st.integers(0, len(rows))), blank)
    header = ["date", "asset_id"] + (["region"] if with_region else []) + fields
    header[0] = draw(st.sampled_from(["date", " Date "]))
    out = io.StringIO()
    csv.writer(out, lineterminator=draw(st.sampled_from(["\n", "\r\n"]))
               ).writerows([header] + rows)
    return out.getvalue()


def reference_write_panel(panel, path, fields=None):
    """The per-cell writer the column-at-a-time `data.write_panel` replaced:
    `_fmt` on every cell and `csv.writer` on every row, date by date and
    asset by asset."""
    names = list(fields) if fields is not None else [
        f for f in data.PANEL_FIELDS if f in panel.arrays]
    with open(path, "w", encoding="utf-8", newline="") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(["date", "asset_id", "region"] + names)
        for i, d in enumerate(panel.dates):
            for j in range(panel.n_assets):
                cells = [data._fmt(panel.arrays[f][i, j]) for f in names]
                if any(cells):
                    w.writerow([str(d), panel.assets[j], panel.regions[j]]
                               + cells)


def count_readers(monkeypatch):
    """The calls made to `csv.reader` from now on, one entry each."""
    calls, real = [], csv.reader

    def reader(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)
    monkeypatch.setattr(data.csv, "reader", reader)
    return calls


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

    def test_id_with_a_carriage_return_round_trips(self, tmp_path):
        # the writer quotes a cell that holds a CR, so the loader reads it
        # back as one cell
        path = write_lines(tmp_path / "p.csv", [
            "date,asset_id,region,ret",
            '2020-01-02,"A\rB","N\rA",0.01',
            "2020-01-02,C,NA,0.02",
        ])
        panel = data.load_panel(path)
        assert (panel.assets, panel.regions) == (("A\rB", "C"), ("N\rA", "NA"))
        data.write_panel(panel, tmp_path / "w1.csv")
        assert (tmp_path / "w1.csv").read_bytes().split(b"\n")[1] \
            == b'2020-01-02,"A\rB","N\rA",0.01'
        again = data.load_panel(tmp_path / "w1.csv")
        assert (again.assets, again.regions) == (panel.assets, panel.regions)
        assert np.array_equal(again.field("ret"), panel.field("ret"))
        data.write_panel(again, tmp_path / "w2.csv")
        assert (tmp_path / "w1.csv").read_bytes() == (tmp_path / "w2.csv").read_bytes()

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
        reference_write_panel(panel, tmp_path / "want.csv")
        assert (tmp_path / "p.csv").read_bytes() == \
            (tmp_path / "want.csv").read_bytes()

    @pytest.mark.parametrize("chunk", [1, 3, 1 << 16])
    def test_writer_quotes_ids_and_keeps_edge_values(self, tmp_path,
                                                     monkeypatch, chunk):
        assets = ("A,B", 'Q"T', "N\nL", " lead", "plain")
        regions = ("R,1", '"', " E", "x\ny", "")
        edge = [-0.0, np.inf, -np.inf, np.nan, 5e-324, 1e16, 1e-5, 0.1 + 0.2]
        ret = np.array([edge[:5], edge[3:]])
        price = np.array([[1.5, np.nan, np.inf, 2.0, np.nan],
                          [np.nan, np.nan, -np.inf, 7.0, np.nan]])
        # the third date has one valid field: price alone, on one asset
        ret = np.vstack([ret, np.full(5, np.nan)])
        price = np.vstack([price, [np.nan, np.nan, np.nan, np.nan, 3.25]])
        panel = data.ReturnsPanel(dates=data.business_days("2020-01-01", 3),
                                  assets=assets, regions=regions,
                                  arrays={"ret": ret, "price": price})
        monkeypatch.setattr(data, "_WRITE_CHUNK", chunk)
        data.write_panel(panel, tmp_path / "p.csv")
        reference_write_panel(panel, tmp_path / "want.csv")
        got = (tmp_path / "p.csv").read_bytes()
        assert got == (tmp_path / "want.csv").read_bytes()
        # ids and regions quoted as the csv module quotes them, values in
        # their shortest repr, non-finite cells blank, empty rows left out
        assert got.decode() == (
            "date,asset_id,region,ret,price\n"
            '2020-01-01,"A,B","R,1",-0.0,1.5\n'
            '2020-01-01, lead,"x\ny",,2.0\n'
            "2020-01-01,plain,,5e-324,\n"
            '2020-01-02,"Q""T","""",5e-324,\n'
            '2020-01-02,"N\nL", E,1e+16,\n'
            '2020-01-02, lead,"x\ny",1e-05,7.0\n'
            "2020-01-02,plain,,0.30000000000000004,\n"
            "2020-01-03,plain,,,3.25\n"
        )

    @settings(max_examples=60)
    @given(st.one_of(
        st.lists(st.floats(width=64), max_size=40).map(
            lambda xs: np.array(xs, dtype=np.float64)),
        st.lists(st.booleans(), max_size=40).map(
            lambda xs: np.array(xs, dtype=bool)),
    ))
    def test_column_formatter_matches_cell_formatter(self, column):
        assert data._fmt_column(column) == [data._fmt(x) for x in column.tolist()]

    @pytest.mark.parametrize("block", [1, 3, data._READ_BLOCK])
    @settings(max_examples=40)
    @given(text=panel_texts())
    def test_matches_row_loader(self, tmp_path_factory, block, text):
        path = tmp_path_factory.mktemp("blocks") / "p.csv"
        path.write_text(text, encoding="utf-8", newline="")
        want = load_outcome(reference_load_panel, path)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(data, "_READ_BLOCK", block)
            assert_same_outcome(load_outcome(data.load_panel, path), want)

    @pytest.mark.parametrize("first_bad", [True, False])
    @pytest.mark.parametrize("unreadable", ["\xff", "x" * (csv.field_size_limit() + 1)])
    def test_unreadable_row_comes_after_earlier_rows(self, tmp_path, first_bad,
                                                     unreadable):
        # a row the csv module cannot read (an oversized cell, or bytes that
        # are not UTF-8 past the first decoded chunk) is raised only after
        # the rows before it are checked, as a row-at-a-time reader would
        lines = ["date,asset_id,ret"]
        lines += [f"2020-01-02,A{k:03d},0.0{k}" for k in range(600)]
        if first_bad:
            lines[3] = "2020-01-02,A002,zork"
        lines[500] = f"2020-01-02,A499,{unreadable}"
        path = tmp_path / "p.csv"
        path.write_bytes("\n".join(lines).encode("utf-8", "surrogateescape")
                         .replace(b"\xc3\xbf", b"\xff") + b"\n")
        want = load_outcome(reference_load_panel, path)
        assert isinstance(want, tuple) and (want[0] is data.PanelError) == first_bad
        assert_same_outcome(load_outcome(data.load_panel, path), want)

    def test_ragged_rows_whose_commas_cancel(self, tmp_path):
        # a row a cell short and a row a cell long leave the block with as
        # many commas as a plain one; the short row is still named
        lines = ["date,asset_id,ret,price"]
        lines += [f"2020-01-02,A{k},0.{k},1" for k in range(6)]
        lines[2] = "2020-01-02,A1,0.1"
        lines[5] = "2020-01-02,A4,0.4,1,9"
        path = write_lines(tmp_path / "p.csv", lines)
        want = load_outcome(reference_load_panel, path)
        assert want == (data.PanelError, f"{path}: line 3: expected 4 cells, got 3")
        assert_same_outcome(load_outcome(data.load_panel, path), want)

    @pytest.mark.parametrize("bad_after", [False, True])
    @pytest.mark.parametrize("block", [1, 3, 1024])
    def test_quoted_cell_across_block_boundary(self, tmp_path, monkeypatch,
                                               block, bad_after):
        # the last row of the first block opens a quoted cell that closes on
        # the next line; the blocks after it are plain again
        lines = ["date,asset_id,ret"]
        lines += [f"2020-01-{2 + k // 50:02d},A{k % 50:02d},0.{k}"
                  for k in range(1100)]
        lines[block] = lines[block].replace(",A", ',"A\n', 1).replace(",0.", '",0.')
        if bad_after:
            lines[block + 6] = lines[block + 6].rsplit(",", 1)[0] + ",zork"
        path = write_lines(tmp_path / "p.csv", lines)
        monkeypatch.setattr(data, "_READ_BLOCK", block)
        want = load_outcome(reference_load_panel, path)
        assert isinstance(want, tuple) == bad_after
        if bad_after:
            assert f"line {block + 8}: bad value 'zork'" in want[1]
        readers = count_readers(monkeypatch)
        assert_same_outcome(load_outcome(data.load_panel, path), want)
        assert len(readers) == 2   # the header's, and the quoted block's

    @pytest.mark.parametrize("line", [
        "2020-01-02,A05,0.5\r",                          # a CRLF line end
        "2020-01-02,A\r05,0.5",                          # a lone CR
        "2020-01-02,A\x0005,0.5",                        # a NUL in a cell
        "2020-01-02,A05," + "1" * csv.field_size_limit(),  # a line over the limit
        "2020-01-02,A05," + "1" * (csv.field_size_limit() + 1),  # a cell over it
    ], ids=["crlf", "lone_cr", "nul", "long_line", "long_cell"])
    def test_irregular_line_in_plain_block(self, tmp_path, monkeypatch, line):
        lines = ["date,asset_id,ret"]
        lines += [f"2020-01-02,A{k:02d},0.{k}" for k in range(10)]
        lines[6] = line
        path = tmp_path / "p.csv"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8", newline="")
        want = load_outcome(reference_load_panel, path)
        readers = count_readers(monkeypatch)
        assert_same_outcome(load_outcome(data.load_panel, path), want)
        assert len(readers) == 2

    @pytest.mark.parametrize("open_quote", [False, True])
    @pytest.mark.parametrize("block", [7, 1024])
    def test_unreadable_bytes_in_a_quoted_block(self, tmp_path, monkeypatch,
                                                block, open_quote):
        # the file stops decoding in a block that holds a quoted cell, or
        # whose last readable line opens one, so that block goes to the csv
        # module after the file failed
        lines = ["date,asset_id,ret"]
        lines += [f"2020-01-02,A{k:03d},0.0{k}" for k in range(600)]
        lines[500] = "2020-01-02,A499,\xff"
        path = tmp_path / "p.csv"

        def write():
            path.write_bytes("\n".join(lines).encode("utf-8")
                             .replace(b"\xc3\xbf", b"\xff") + b"\n")
        write()
        readable = []
        with pytest.raises(UnicodeDecodeError):
            with open(path, encoding="utf-8", newline="") as fh:
                readable.extend(fh)
        last = len(readable) - 1
        assert 100 < last < 500
        lines[last - 2] = '2020-01-02,"A,q",0.5'
        if open_quote:
            lines[last] = '2020-01-02,"A'
        write()
        monkeypatch.setattr(data, "_READ_BLOCK", block)
        want = load_outcome(reference_load_panel, path)
        assert want[0] is UnicodeDecodeError
        assert_same_outcome(load_outcome(data.load_panel, path), want)

    @pytest.mark.parametrize("char", ["\x0b", "\x0c", "\x1e", "\x85", "\u2028"])
    def test_other_line_breaks_stay_in_their_cell(self, tmp_path, monkeypatch,
                                                  char):
        # str.splitlines would break a line here; the csv module and a
        # plain block do not
        path = tmp_path / "p.csv"
        path.write_text(f"date,asset_id,ret\n2020-01-02,A{char}B,0.1\n"
                        f"2020-01-02,C,{char}0.2\n", encoding="utf-8",
                        newline="")
        want = reference_load_panel(path)
        readers = count_readers(monkeypatch)
        panel = data.load_panel(path)
        assert len(readers) == 1
        assert panel.assets == (f"A{char}B", "C")
        assert_same_outcome(panel, want)

    def test_plain_panel_builds_no_body_reader(self, three_asset_csv,
                                               tmp_path, monkeypatch):
        text = Path(three_asset_csv).read_text().replace("BBB", '"B,B"')
        quoted = tmp_path / "q.csv"
        quoted.write_text(text)
        want = [reference_load_panel(p) for p in (three_asset_csv, quoted)]
        readers = count_readers(monkeypatch)
        assert_same_outcome(data.load_panel(three_asset_csv), want[0])
        assert len(readers) == 1   # the header's
        panel = data.load_panel(quoted)
        assert len(readers) == 3
        assert panel.assets == ("AAA", "B,B", "CCC")
        assert_same_outcome(panel, want[1])

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


def reference_forward_fill(panel, name, limit_days):
    """The per-date loop the whole-panel `data.forward_fill_field` replaced."""
    raw = panel.field(name)
    t, n = raw.shape
    out = raw.copy()
    day_num = panel.dates.astype("datetime64[D]").astype(np.int64)
    last_val = np.full(n, np.nan)
    last_day = np.full(n, -(10 ** 9), dtype=np.int64)
    for i in range(t):
        fresh = np.isfinite(raw[i])
        last_val[fresh] = raw[i, fresh]
        last_day[fresh] = day_num[i]
        stale = ~fresh
        usable = stale & np.isfinite(last_val) & (day_num[i] - last_day <= limit_days)
        out[i, usable] = last_val[usable]
    return out


class TestForwardFill:
    @settings(max_examples=40)
    @given(st.data())
    def test_matches_per_date_loop(self, data_strategy):
        t = data_strategy.draw(st.integers(1, 12))
        n = data_strategy.draw(st.integers(0, 4))
        cells = data_strategy.draw(st.lists(
            st.sampled_from([np.nan, np.inf, -np.inf, 0.0, -0.0, 1.5, -2.0]),
            min_size=t * n, max_size=t * n))
        gaps = data_strategy.draw(st.lists(st.integers(1, 9), min_size=t, max_size=t))
        dates = np.datetime64("2020-01-01", "D") + np.cumsum(gaps)
        panel = data.ReturnsPanel(dates=dates, assets=tuple(f"A{j}" for j in range(n)),
                                  regions=("",) * n,
                                  arrays={"earnings": np.array(cells).reshape(t, n)})
        limit = data_strategy.draw(st.integers(0, 30))
        got = data.forward_fill_field(panel, "earnings", limit_days=limit)
        want = reference_forward_fill(panel, "earnings", limit)
        assert got.flags.writeable
        assert np.array_equal(got.view(np.int64), want.view(np.int64))

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

    @pytest.mark.parametrize("key", ["adv_window_days", "min_valid_days"])
    def test_window_below_one_day_rejected(self, key):
        panel = self.make_panel(np.tile(np.array([5.0, 4.0]), (150, 1)))
        with pytest.raises(data.PanelError, match=f"{key} must be at least 1, got 0"):
            data.select_pool(panel, {"NA": 1}, **{key: 0})

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
        # the fixture's blocks and factors share one calendar and no sentinel
        _, names, values = data.read_ff_table(paths["HML"])
        b = dict(zip(names, values.T / 100.0))
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
        _, names, values = data.read_ff_table(factors_path)
        market = values[:, names.index("Mkt-RF")] + values[:, names.index("RF")]
        assert np.all(np.abs(legs.market_vw - market / 100.0) < 1e-12)

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
