"""Panel storage, CSV ingestion, trailing-window statistics, Fama-French 2x3
building blocks, and liquidity-based pool selection.

Panels are rectangular date x asset stores. Missing cells are NaN and every
computation in the package treats NaN as "not there" rather than zero.
Panels are frozen after construction (arrays are marked read-only).
"""

from __future__ import annotations

import csv
import math
import re
from array import array
from dataclasses import dataclass
from itertools import chain, compress, islice, repeat
from operator import itemgetter
from typing import Mapping

import numpy as np

PANEL_FIELDS = (
    "ret",
    "price",
    "adv",
    "mcap",
    "earnings",
    "net_income",
    "total_assets",
    "borrow_fee",
)

# forward-filled by `forward_fill_field` (annual reporting cadence)
FUNDAMENTAL_FIELDS = ("earnings", "net_income", "total_assets", "borrow_fee")

DEFAULT_POOL_COUNTS = {"NA": 1200, "EU": 1000, "JP": 900, "AU": 200}

DEFAULT_FFILL_LIMIT_DAYS = 370

# cells formatted per batch by `write_panel`, which bounds its string buffers
_WRITE_CHUNK = 1 << 16

# rows parsed per block by `_read_rows`, which bounds the loaders' working set
_READ_BLOCK = 1024


class PanelError(ValueError):
    """Malformed panel input or inconsistent panel operation."""


def _fmt(x) -> str:
    """Shortest round-trip decimal form; empty string for None, NaN or inf."""
    return "" if x is None or not math.isfinite(x) else repr(float(x))


@dataclass(frozen=True)
class ReturnsPanel:
    """Date x asset rectangular store of returns, prices, volumes and
    fundamentals.

    dates    strictly increasing trading days (datetime64[D])
    assets   asset identifiers, lexicographically sorted
    regions  region tag per asset (free-form strings, matched against config)
    arrays   field name -> (T, N) float64 matrix, NaN = missing
    """

    dates: np.ndarray
    assets: tuple[str, ...]
    regions: tuple[str, ...]
    arrays: dict[str, np.ndarray]

    def __post_init__(self):
        if self.dates.ndim != 1 or len(self.dates) == 0:
            raise PanelError("panel needs at least one date")
        if np.any(np.diff(self.dates.astype("datetime64[D]").astype(np.int64)) <= 0):
            raise PanelError("dates must be strictly increasing")
        if len(self.assets) != len(self.regions):
            raise PanelError("assets and regions length mismatch")
        t, n = len(self.dates), len(self.assets)
        for name, arr in self.arrays.items():
            if name not in PANEL_FIELDS:
                raise PanelError(
                    f"unknown field {name!r}; known fields: {', '.join(PANEL_FIELDS)}"
                )
            if arr.shape != (t, n):
                raise PanelError(f"field {name!r} has shape {arr.shape}, want {(t, n)}")
            arr.setflags(write=False)
        self.dates.setflags(write=False)

    @property
    def n_dates(self) -> int:
        return len(self.dates)

    @property
    def n_assets(self) -> int:
        return len(self.assets)

    def field(self, name: str) -> np.ndarray:
        if name not in self.arrays:
            raise PanelError(
                f"field {name!r} not loaded; available: {', '.join(sorted(self.arrays))}"
            )
        return self.arrays[name]

    def has_field(self, name: str) -> bool:
        return name in self.arrays

    def date_index(self, date) -> int:
        """Row of `date`: a datetime64, or text in the YYYY-MM-DD form the
        CSV loaders accept."""
        try:
            if isinstance(date, str) and not _ISO_DAY.fullmatch(date):
                raise ValueError
            d = np.datetime64(date, "D")
        except ValueError:
            raise PanelError(f"bad date {date!r}: want a YYYY-MM-DD day") from None
        i = int(np.searchsorted(self.dates, d))
        if i >= len(self.dates) or self.dates[i] != d:
            raise PanelError(f"date {d} not in panel")
        return i


@dataclass(frozen=True)
class PoolMask:
    """Monthly-rebalanced stock pool membership.

    mask is (T, N) bool; membership only changes on rebalance dates.
    """

    dates: np.ndarray
    assets: tuple[str, ...]
    mask: np.ndarray
    rebalance_indices: np.ndarray

    def __post_init__(self):
        self.mask.setflags(write=False)


def business_days(start, n: int) -> np.ndarray:
    """n consecutive weekdays starting on/after `start` (synthetic calendars)."""
    start64 = np.datetime64(start, "D")
    return np.busday_offset(start64, np.arange(n), roll="forward")


# ---------------------------------------------------------------------------
# generic panel CSV
# ---------------------------------------------------------------------------

def _read_rows(path, columns, error):
    """Cells of a CSV whose stripped, lower-cased header starts with
    `columns`, a block at a time.

    Yields the header, then blocks of about `_READ_BLOCK` lines as (line
    numbers, columns of unstripped cells). Rows whose cells are all blank
    are skipped; every other row must have as many cells as the header. An
    empty file, a wrong header and a row of the wrong width raise `error`,
    naming the path (and the line). A row of the wrong width, or one the
    csv module cannot read, is raised after the rows before it are yielded,
    so a caller that checks each block before it takes the next names the
    first bad line of the file.

    A plain block (no quote, CR or NUL, one comma fewer than the header has
    cells on every line, no blank first cell, no line longer than the csv
    field limit) is split on its commas straight into columns. Any other
    block is read by `csv.reader`, which reads on past the block while a
    quoted cell is open; a block with a blank or ragged row is then checked
    row by row. Both give the cells and line numbers the csv module gives.
    """
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        raw = next(reader, None)
        if raw is None:
            raise error(f"{path}: empty file")
        header = [h.strip().lower() for h in raw]
        if header[:len(columns)] != list(columns):
            raise error(f"{path}: header must start with {','.join(columns)}")
        yield header
        width, done = len(header), reader.line_num
        while True:
            lines, failure = [], None
            try:
                lines.extend(islice(fh, _READ_BLOCK))
            except UnicodeDecodeError as exc:
                failure = exc
            if not lines and failure is None:
                return
            text = "".join(lines)
            if ('"' not in text and "\r" not in text and "\0" not in text
                    and set(map(str.count, lines, repeat(","))) == {width - 1}
                    and max(map(len, lines)) <= csv.field_size_limit()):
                cells = text.removesuffix("\n").replace("\n", ",").split(",")
                cols = [cells[k::width] for k in range(width)]
                # a row of blank cells has a blank first cell
                if all(map(str.strip, set(cols[0]))):
                    yield range(done + 1, done + len(lines) + 1), cols
                    done += len(lines)
                    if failure is not None:
                        raise failure
                    continue
            # the file is not read again after it failed
            reader = csv.reader(chain(lines, fh if failure is None
                                      else _raising(failure)))
            rows, nums = [], []
            try:
                # read on while a quoted cell is open
                for row in reader:
                    rows.append(row)
                    nums.append(done + reader.line_num)
                    if reader.line_num >= len(lines):
                        break
            except (csv.Error, UnicodeDecodeError) as exc:
                failure = exc
            done += reader.line_num
            # a row of blank cells has a blank first cell
            if (set(map(len, rows)) != {width}
                    or not all(map(str.strip, set(map(itemgetter(0), rows))))):
                keep = []
                for k, row in enumerate(rows):
                    if not any(map(str.strip, row)):
                        continue
                    if len(row) != width:
                        failure = error(f"{path}: line {nums[k]}: expected "
                                        f"{width} cells, got {len(row)}")
                        break
                    keep.append(k)
                nums, rows = [nums[k] for k in keep], [rows[k] for k in keep]
            if rows:
                yield nums, list(zip(*rows))
            if failure is not None:
                raise failure


def _raising(exc):
    """An iterator that raises `exc` when it is read."""
    raise exc
    yield


def _each_row(path, columns, error):
    """`_read_rows` a row at a time: the header, then (line number,
    stripped cells) for each row."""
    blocks = _read_rows(path, columns, error)
    yield next(blocks)
    for lines, cols in blocks:
        for lineno, row in zip(lines, zip(*cols)):
            yield lineno, [c.strip() for c in row]


# a date cell: YYYY-MM-DD in ASCII digits
_ISO_DAY = re.compile(r"[0-9]{4}-[0-9]{2}-[0-9]{2}")


def _day(text: str, path, lineno: int, error) -> int:
    """Day number (days since 1970-01-01) of a YYYY-MM-DD date cell."""
    try:
        day = np.datetime64(text, "D") if _ISO_DAY.fullmatch(text) else None
    except ValueError:
        day = None
    if day is None:
        raise error(f"{path}: line {lineno}: bad date {text!r}")
    return int(day.astype(np.int64))


def load_panel(path) -> ReturnsPanel:
    """Load a long-format panel CSV.

    Expected header: date,asset_id[,region],<field columns>. Field columns
    must be a subset of PANEL_FIELDS. Empty cells are missing. Loading is
    order-independent: rows may come in any order, the panel is a normal
    form (dates ascending, assets sorted).

    `_read_rows` hands over the file a block of about `_READ_BLOCK` rows at
    a time, as columns of cells, and each column is parsed at once: a date
    or (asset, region) text is resolved the first time it is seen, and
    `float` runs on the non-blank cells of a field column only. So the
    working memory is one block of cells plus typed buffers that hold each
    row's day, asset and line and its field values.
    """
    blocks = _read_rows(path, ("date", "asset_id"), PanelError)
    header = next(blocks)
    col = 3 if header[2:3] == ["region"] else 2
    names = header[col:]
    unknown = [c for c in names if c not in PANEL_FIELDS]
    if unknown:
        raise PanelError(
            f"{path}: unknown field column(s) {', '.join(unknown)}; "
            f"known fields: {', '.join(PANEL_FIELDS)}"
        )
    if not names:
        raise PanelError(f"{path}: no field columns")

    # one pass, a block at a time: each distinct date text and (asset,
    # region) text pair is resolved once, assets get codes in order of first
    # sight, and each block lands in flat typed buffers
    day_of: dict[str, int] = {}    # date text, as read or stripped -> day
    code_of: dict[str, int] = {}   # asset text, as read or stripped -> code
    asset_of: list[str] = []
    region_of: list[str] = []
    checked: set[tuple[str, str]] = set()   # (asset, region) texts as read
    days, codes, lines, values = array("q"), array("q"), array("q"), array("d")
    for block_lines, cols in blocks:
        n = len(block_lines)
        dates, assets = cols[0], cols[1]
        keys = list(zip(assets, cols[2] if col == 3 else repeat("")))
        # each check's first bad row in the block, as (row, rank of the
        # check within a row, error): the least is the file's first bad line
        bad = []
        k = 0
        for text in dict.fromkeys(dates):   # in first-seen order, so k grows
            if text in day_of:
                continue
            k = dates.index(text, k)
            stripped = text.strip()
            if stripped not in day_of:
                try:
                    day_of[stripped] = _day(stripped, path, block_lines[k],
                                            PanelError)
                except PanelError as exc:
                    bad.append((k, 0, exc))
                    break
            day_of[text] = day_of[stripped]
        k = 0
        for key in dict.fromkeys(keys):
            if key in checked:
                continue
            k = keys.index(key, k)
            asset, region = key[0].strip(), key[1].strip()
            code = code_of.get(asset)
            if code is None:
                if not asset:
                    bad.append((k, 1, PanelError(
                        f"{path}: line {block_lines[k]}: empty asset_id")))
                    break
                code = code_of[asset] = len(asset_of)
                asset_of.append(asset)
                region_of.append(region)
            elif region_of[code] != region:
                bad.append((k, 1, PanelError(
                    f"{path}: line {block_lines[k]}: asset {asset!r} has "
                    f"conflicting regions {region_of[code]!r} and {region!r}")))
                break
            code_of[key[0]] = code
            checked.add(key)
        block = np.full((n, len(names)), np.nan)
        for f, (name, cells) in enumerate(zip(names, cols[col:])):
            try:
                if "" in cells:   # a blank cell stays NaN; float parses the rest
                    at = np.fromiter(compress(range(n), cells), np.intp)
                    block[at, f] = np.fromiter(map(float, compress(cells, cells)),
                                               np.float64, len(at))
                else:
                    block[:, f] = np.fromiter(map(float, cells), np.float64, n)
            except ValueError:   # a padded blank cell, or a bad one
                for k, cell in enumerate(cells):
                    cell = cell.strip()
                    try:
                        block[k, f] = float(cell) if cell else np.nan
                    except ValueError:
                        bad.append((k, 2 + f, PanelError(
                            f"{path}: line {block_lines[k]}: bad value "
                            f"{cell!r} for field {name!r}")))
                        break
        if bad:
            raise min(bad, key=lambda b: b[:2])[2]
        days.extend(map(day_of.__getitem__, dates))
        codes.extend(map(code_of.__getitem__, assets))
        lines.extend(block_lines)
        values.frombytes(block.view(np.uint8))
    if not days:
        raise PanelError(f"{path}: no data rows")

    # scatter: rows -> (date, asset) cells of the normal form
    day_nums, i = np.unique(np.frombuffer(days, np.int64), return_inverse=True)
    by_name = sorted(range(len(asset_of)), key=asset_of.__getitem__)
    rank = np.empty(len(by_name), np.int64)
    rank[by_name] = np.arange(len(by_name))
    j = rank[np.frombuffer(codes, np.int64)]
    cell = i * len(by_name) + j
    order = np.argsort(cell, kind="stable")
    repeats = order[1:][cell[order[1:]] == cell[order[:-1]]]
    if len(repeats):
        k = int(repeats.min())  # rows are in file order: the first repeat
        raise PanelError(
            f"{path}: line {lines[k]}: duplicate (date, asset) "
            f"({day_nums[i[k]].astype('datetime64[D]')}, {asset_of[codes[k]]})"
        )
    # the row buffers and sort keys go before the (T, N) arrays come, so the
    # loader's peak memory is the field values, the arrays and two indices
    del days, codes, lines, cell, order
    table = np.frombuffer(values, np.float64).reshape(-1, len(names))
    arrays = {}
    for k, name in enumerate(names):
        arrays[name] = np.full((len(day_nums), len(by_name)), np.nan)
        arrays[name][i, j] = table[:, k]
    return ReturnsPanel(
        dates=day_nums.astype("datetime64[D]"),
        assets=tuple(asset_of[c] for c in by_name),
        regions=tuple(region_of[c] for c in by_name),
        arrays=arrays,
    )


def write_panel(panel: ReturnsPanel, path, fields=None) -> None:
    """Write a panel in the same long-format layout `load_panel` reads.

    Emits one row per (date, asset) cell that carries at least one valid
    field, in normal-form order. write(load(f)) is a stable normal form:
    re-loading and re-writing reproduces the file byte for byte.
    """
    names = list(fields) if fields is not None else [
        f for f in PANEL_FIELDS if f in panel.arrays
    ]
    for f in names:
        panel.field(f)
    mats = [panel.arrays[f] for f in names]
    any_valid = np.zeros((panel.n_dates, panel.n_assets), dtype=bool)
    for m in mats:
        any_valid |= np.isfinite(m)
    rows, cols = np.nonzero(any_valid)    # normal-form order: date, then asset
    days = [str(d) for d in panel.dates]
    with open(path, "w", encoding="utf-8", newline="") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(["date", "asset_id", "region"] + names)
        for lo in range(0, len(rows), _WRITE_CHUNK):
            i, j = rows[lo:lo + _WRITE_CHUNK], cols[lo:lo + _WRITE_CHUNK]
            w.writerows(zip(
                [days[k] for k in i.tolist()],
                [panel.assets[k] for k in j.tolist()],
                [panel.regions[k] for k in j.tolist()],
                *([_fmt(x) for x in m[i, j].tolist()] for m in mats),
            ))


def forward_fill_field(panel: ReturnsPanel, name: str,
                       limit_days: int = DEFAULT_FFILL_LIMIT_DAYS) -> np.ndarray:
    """Forward-fill a slow-moving field, expiring stale values.

    A value observed on day s is carried to day t while (t - s) is at most
    `limit_days` calendar days; beyond that the cell goes back to missing.
    Returns a fresh writable array; the panel itself is never mutated.
    """
    raw = panel.field(name)
    fresh = np.isfinite(raw)
    # row of the latest valid value at or before each row, -1 before any
    last = np.where(fresh, np.arange(len(raw))[:, None], -1)
    np.maximum.accumulate(last, axis=0, out=last)
    day_num = panel.dates.astype("datetime64[D]").astype(np.int64)
    usable = ~fresh & (last >= 0) & (day_num[:, None] - day_num[last] <= limit_days)
    out = raw.copy()
    out[usable] = raw[last, np.arange(raw.shape[1])][usable]
    return out


# ---------------------------------------------------------------------------
# trailing windows
# ---------------------------------------------------------------------------

def window_sums(a: np.ndarray, window: int) -> np.ndarray:
    """Column sums of a (T, N) array over the trailing window ending at
    (including) each row, as differences of cumulative sums. The first
    window - 1 rows sum over the shorter window the panel holds."""
    c = np.vstack([np.zeros((1, a.shape[1])), np.cumsum(a, axis=0)])
    return c[1:] - c[np.maximum(0, np.arange(len(a)) - window + 1)]


def rolling_vols(returns: np.ndarray, window: int = 250,
                 min_obs: int = 20) -> np.ndarray:
    """Trailing sample volatility (ddof=1) per asset, windows ending at t."""
    t_total, n = returns.shape
    valid = np.isfinite(returns)
    y = np.where(valid, returns, 0.0)
    cnt = window_sums(valid.astype(float), window)
    s, ss = window_sums(y, window), window_sums(y * y, window)
    out = np.full((t_total, n), np.nan)
    with np.errstate(invalid="ignore", divide="ignore"):
        var = (ss - s * s / np.maximum(cnt, 1)) / np.maximum(cnt - 1, 1)
        ok = cnt >= min_obs
        out[ok] = np.sqrt(np.maximum(var[ok], 0.0))
    return out


# ---------------------------------------------------------------------------
# liquidity pool
# ---------------------------------------------------------------------------

def month_start_indices(dates: np.ndarray) -> np.ndarray:
    """Index of the first trading day of each calendar month present."""
    months = dates.astype("datetime64[M]")
    first = np.ones(len(dates), dtype=bool)
    first[1:] = months[1:] != months[:-1]
    return np.nonzero(first)[0]


def select_pool(panel: ReturnsPanel,
                adv_window_days: int = 180,
                counts_by_region: Mapping[str, int] | None = None,
                min_valid_days: int = 60) -> PoolMask:
    """Monthly-rebalanced liquidity pool: per region, the top-k assets by
    trailing mean ADV.

    The trailing window ends the day before the rebalance date. Assets need
    at least `min_valid_days` valid ADV observations in the window to be
    eligible. When fewer eligible assets exist than the configured count,
    the selection clamps to what is available.
    """
    if counts_by_region is None:
        counts_by_region = DEFAULT_POOL_COUNTS
    adv = panel.field("adv")
    regions = np.array(panel.regions)
    for region, count in counts_by_region.items():
        if count <= 0:
            raise PanelError(f"pool count for region {region!r} must be positive")
        if not np.any(regions == region):
            raise PanelError(f"region {region!r} has no assets in the panel")

    t, n = adv.shape
    mask = np.zeros((t, n), dtype=bool)
    rebal = month_start_indices(panel.dates)
    current = np.zeros(n, dtype=bool)
    boundaries = list(rebal) + [t]
    for k, start in enumerate(rebal):
        lo = max(0, start - adv_window_days)
        window = adv[lo:start]
        counts = np.sum(np.isfinite(window), axis=0)
        means = np.full(n, np.nan)
        ok = counts >= min_valid_days
        if np.any(ok):
            with np.errstate(invalid="ignore"):
                means[ok] = np.nanmean(window[:, ok], axis=0)
        current = np.zeros(n, dtype=bool)
        for region, count in counts_by_region.items():
            in_region = np.nonzero((regions == region) & np.isfinite(means))[0]
            if len(in_region) == 0:
                continue
            # sort by ADV descending, asset index as a deterministic tie-break
            order = in_region[np.lexsort((in_region, -means[in_region]))]
            current[order[: min(count, len(order))]] = True
        mask[start:boundaries[k + 1]] = current
    return PoolMask(
        dates=panel.dates,
        assets=panel.assets,
        mask=mask,
        rebalance_indices=rebal,
    )


# ---------------------------------------------------------------------------
# Fama-French 2x3 building blocks
# ---------------------------------------------------------------------------

# which sort tertile the factor is long
DEFAULT_LONG_TERTILE = {
    "HML": "hi",
    "WML": "hi",
    "UMD": "hi",
    "MOM": "hi",
    "RMW": "hi",
    "CMA": "lo",
    "VOL": "lo",
}

_FF_MISSING_CUTOFF = -99.0  # sentinel codes -99.99 / -999


@dataclass(frozen=True)
class LegPanel:
    """Monthly 2x3 building blocks and the per-factor long/short legs.

    All series share one monthly calendar and are decimal returns. Each
    factor carries its six size-x-sort blocks, the equal-weight mean of
    those blocks (a half-small half-big market), and its two legs: the
    long leg averages the small and big blocks of the long tertile, the
    short leg the two blocks of the opposite tertile.
    """

    months: np.ndarray
    factors: tuple[str, ...]
    blocks: dict[str, dict[str, np.ndarray]]
    long_leg: dict[str, np.ndarray]
    short_leg: dict[str, np.ndarray]
    block_market: dict[str, np.ndarray]
    market_vw: np.ndarray
    smb: np.ndarray
    rf: np.ndarray


def read_ff_table(path) -> tuple[np.ndarray, list[str], np.ndarray]:
    """Parse the first monthly block of a Kenneth-French-layout CSV.

    The files carry a free-text preamble, then a header row, then rows whose
    first cell is a YYYYMM integer. Reading stops at the first line whose
    first cell is not six digits (annual blocks, second tables, blank
    lines); six digits with a month outside 01-12 are an error. Values stay
    in percent; sentinels are not masked here.
    """
    with open(path, "r", encoding="latin-1", newline="") as fh:
        lines = fh.read().splitlines()
    start = None
    for i, line in enumerate(lines):
        first = line.split(",")[0].strip()
        if len(first) == 6 and first.isdigit():
            start = i
            break
    if start is None or start == 0:
        raise PanelError(f"{path}: no monthly data block found")
    header = None
    for j in range(start - 1, -1, -1):
        cells = [c.strip() for c in lines[j].split(",")]
        if len(cells) >= 2 and any(cells[1:]):
            header = cells
            break
    if header is None:
        raise PanelError(f"{path}: no header row above the data block")
    names = [c for c in header[1:] if c]
    rows: dict[int, list[float]] = {}   # month -> values, in file order
    for lineno in range(start, len(lines)):
        cells = [c.strip() for c in lines[lineno].split(",")]
        first = cells[0]
        if len(first) != 6 or not first.isdigit():
            break
        month = _month(first, path, lineno + 1)
        if len(cells) < 1 + len(names):
            raise PanelError(f"{path}: line {lineno + 1}: expected {len(names)} values")
        try:
            row = [float(c) for c in cells[1 : 1 + len(names)]]
        except ValueError:
            raise PanelError(f"{path}: line {lineno + 1}: bad numeric cell") from None
        if month in rows:
            raise PanelError(f"{path}: line {lineno + 1}: duplicate month {first}")
        rows[month] = row
    return (np.array(list(rows), dtype=np.int64), names,
            np.array(list(rows.values()), dtype=float))


# a month cell: YYYYMM, or YYYY-MM where a dash is allowed, in ASCII digits
_MONTH = re.compile(r"([0-9]{4})(-?)([0-9]{2})")


def _month(text: str, path, lineno: int, dash: bool = False) -> int:
    """YYYYMM number of a month cell whose month is 01-12."""
    m = _MONTH.fullmatch(text)
    if m is None or (m[2] and not dash) or not 1 <= int(m[3]) <= 12:
        raise PanelError(f"{path}: line {lineno}: bad month {text!r}")
    return int(m[1] + m[3])


def _yyyymm_to_month(months: np.ndarray) -> np.ndarray:
    return np.array(
        [f"{m // 100:04d}-{m % 100:02d}" for m in months.tolist()],
        dtype="datetime64[M]",
    )


def _classify_block(name: str) -> tuple[str | None, str]:
    s = name.lower()
    if "small" in s or s.startswith("me1"):
        size = "small"
    elif "big" in s or s.startswith("me2"):
        size = "big"
    else:
        size = None
    if "hi" in s:
        tertile = "hi"
    elif "lo" in s:
        tertile = "lo"
    else:
        tertile = "mid"
    return size, tertile


def _mask_percent(values: np.ndarray) -> np.ndarray:
    out = values / 100.0
    out[values <= _FF_MISSING_CUTOFF] = np.nan
    return out


def load_leg_csv(path) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Pre-built monthly legs: CSV with header date,long,short.

    Dates are YYYYMM or YYYY-MM with a month of 01-12; returns are decimal
    fractions. Used for factor series distributed as ready-made legs rather
    than 2x3 blocks.
    """
    rows = _each_row(path, ("date", "long", "short"), PanelError)
    next(rows)
    legs: dict[int, tuple[float, float]] = {}
    for lineno, cells in rows:
        month = _month(cells[0], path, lineno, dash=True)
        try:
            long_r, short_r = float(cells[1]), float(cells[2])
        except ValueError:
            raise PanelError(
                f"{path}: line {lineno}: bad long,short returns "
                f"{','.join(cells[1:])!r} in month {cells[0]}"
            ) from None
        if month in legs:
            raise PanelError(f"{path}: line {lineno}: duplicate month {cells[0]}")
        legs[month] = (long_r, short_r)
    pairs = np.array(list(legs.values()), dtype=float).reshape(-1, 2)
    return np.array(list(legs), dtype=np.int64), pairs[:, 0], pairs[:, 1]


def load_famafrench(block_paths: Mapping[str, str],
                    factors_path,
                    long_tertile: Mapping[str, str] | None = None,
                    leg_paths: Mapping[str, str] | None = None) -> LegPanel:
    """Assemble a LegPanel from Kenneth-French-layout files.

    block_paths   factor name -> 2x3 portfolio CSV (six size-x-sort blocks)
    factors_path  the research-factors CSV providing Mkt-RF, SMB and RF
    long_tertile  overrides for which tertile a factor is long
    leg_paths     extra factors shipped as pre-built legs (date,long,short)

    Percent returns become decimal fractions, sentinel codes become missing,
    and everything is aligned on the intersection of the monthly calendars.
    """
    tertile_map = dict(DEFAULT_LONG_TERTILE)
    if long_tertile:
        tertile_map.update({k: v.lower() for k, v in long_tertile.items()})

    fac_months, fac_names, fac_values = read_ff_table(factors_path)
    lowered = [n.lower() for n in fac_names]
    needed = {"mkt-rf": None, "smb": None, "rf": None}
    for key in needed:
        if key not in lowered:
            raise PanelError(f"{factors_path}: missing column {key!r}")
        needed[key] = _mask_percent(fac_values[:, lowered.index(key)].copy())

    per_factor: dict[str, dict[str, np.ndarray]] = {}
    factor_months: dict[str, np.ndarray] = {}
    for factor, path in block_paths.items():
        direction = tertile_map.get(factor.upper())
        if direction not in ("hi", "lo"):
            raise PanelError(
                f"factor {factor!r}: unknown long tertile; pass long_tertile={{...}}"
            )
        months, names, values = read_ff_table(path)
        blocks: dict[str, np.ndarray] = {}
        corners: dict[tuple[str, str], np.ndarray] = {}
        for k, name in enumerate(names):
            series = _mask_percent(values[:, k].copy())
            blocks[name] = series
            size, tertile = _classify_block(name)
            if size is not None and tertile in ("hi", "lo"):
                corners[(size, tertile)] = series
        missing = [
            f"{size} {tert}"
            for size in ("small", "big")
            for tert in ("hi", "lo")
            if (size, tert) not in corners
        ]
        if missing:
            raise PanelError(
                f"factor {factor!r}: missing required 2x3 blocks: {', '.join(missing)}"
            )
        short_dir = "lo" if direction == "hi" else "hi"
        per_factor[factor] = {
            "__blocks__": blocks,
            "long": 0.5 * (corners[("small", direction)] + corners[("big", direction)]),
            "short": 0.5 * (corners[("small", short_dir)] + corners[("big", short_dir)]),
            "market": np.nanmean(np.column_stack(list(blocks.values())), axis=1),
        }
        factor_months[factor] = months

    extra: dict[str, tuple[np.ndarray, np.ndarray, np.ndarray]] = {}
    if leg_paths:
        for factor, path in leg_paths.items():
            extra[factor] = load_leg_csv(path)

    common = set(fac_months.tolist())
    for months in factor_months.values():
        common &= set(months.tolist())
    for months, _, _ in extra.values():
        common &= set(months.tolist())
    if not common:
        raise PanelError("calendar mismatch: no overlapping months across input files")
    common_arr = np.array(sorted(common), dtype=np.int64)

    def align(months: np.ndarray, series: np.ndarray) -> np.ndarray:
        pos = {m: i for i, m in enumerate(months.tolist())}
        return series[[pos[m] for m in common_arr.tolist()]]

    factors = tuple(list(block_paths) + list(extra))
    blocks_out: dict[str, dict[str, np.ndarray]] = {}
    long_out: dict[str, np.ndarray] = {}
    short_out: dict[str, np.ndarray] = {}
    market_out: dict[str, np.ndarray] = {}
    for factor in block_paths:
        months = factor_months[factor]
        blocks_out[factor] = {
            name: align(months, series)
            for name, series in per_factor[factor]["__blocks__"].items()
        }
        long_out[factor] = align(months, per_factor[factor]["long"])
        short_out[factor] = align(months, per_factor[factor]["short"])
        market_out[factor] = align(months, per_factor[factor]["market"])
    if extra:
        fallback = (
            np.nanmean(np.column_stack(list(market_out.values())), axis=1)
            if market_out
            else align(fac_months, needed["mkt-rf"] + needed["rf"])
        )
        for factor, (months, longs, shorts) in extra.items():
            blocks_out[factor] = {}
            long_out[factor] = align(months, longs)
            short_out[factor] = align(months, shorts)
            market_out[factor] = fallback

    return LegPanel(
        months=_yyyymm_to_month(common_arr),
        factors=factors,
        blocks=blocks_out,
        long_leg=long_out,
        short_leg=short_out,
        block_market=market_out,
        market_vw=align(fac_months, needed["mkt-rf"] + needed["rf"]),
        smb=align(fac_months, needed["smb"]),
        rf=align(fac_months, needed["rf"]),
    )
