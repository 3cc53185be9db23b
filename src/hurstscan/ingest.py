"""Price-file loading, log returns, descriptive statistics, and the CSV dialect.

Every CSV file hurstscan reads or writes, a price or return series, a
rolling result, a fluctuation profile or a report, goes through one
reader and one writer here.  Files are UTF-8 (a leading byte-order mark
is skipped, CRLF or LF line ends, a byte that is not UTF-8 reads as
U+FFFD) with a header row by default; blank lines are skipped and a bad
file fails naming its first bad line.  Cells
are ISO-8601 dates (YYYY-MM-DD, surrounding spaces allowed), finite
floats (``nan`` or ``inf`` fail) written with ``repr`` so a write/read
round trip is bit-identical, ``true``/``false`` flags, and integers.
Series rows are sorted ascending by date on load, with duplicate dates
rejected; missing trading days are simply absent rows.

The reader parses a file in blocks of ``_BLOCK_ROWS`` rows and drops a
block's cell texts before it reads the next, so what a long file keeps
in memory per row is its parsed values (a date object and a float for
a series) and its line number in one integer array, not its text.  It
stops at the first short row or bad cell and returns the rows before
it with that row; the loader that owns a row rule applies it to those
rows, and ``_raise_first`` names the earliest bad line found.
"""
from __future__ import annotations

import csv
import datetime as dt
import operator
from array import array
from dataclasses import dataclass, field
from itertools import islice
from typing import Callable, NamedTuple

import numpy as np

from .exceptions import InputError

SYNTHETIC_START = dt.date(2000, 1, 3)  # first date of series with no natural calendar

__all__ = [
    "CsvLayout",
    "PriceSeries",
    "ReturnSeries",
    "load_prices",
    "load_returns",
    "save_returns",
    "log_returns",
    "synthetic_dates",
]


def _is_integer(value) -> bool:
    """The one rule for whole-number parameters: an int or numpy integer, not a bool or a float."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


@dataclass(frozen=True)
class CsvLayout:
    """Which columns hold the date and the value; names need a header row."""

    date_col: str | int = "date"
    value_col: str | int = "close"
    header: bool = True

    def __post_init__(self):
        if not self.header and not all(isinstance(c, int) for c in (self.date_col, self.value_col)):
            raise InputError("columns must be integer positions when there is no header")


def _first_unordered(dates) -> int | None:
    """The index of the first date not later than the one before it, or None."""
    # compared in C; the offending date is looked for only on failure
    if all(map(operator.lt, dates, islice(dates, 1, None))):
        return None
    return list(map(operator.lt, dates, islice(dates, 1, None))).index(False) + 1


@dataclass(frozen=True)
class _DatedSeries:
    """Finite values on strictly increasing dates; positive too for prices."""

    dates: tuple[dt.date, ...]
    values: np.ndarray = field(repr=False)
    _positive = False  # a class constant, not a field

    def __post_init__(self):
        # a copy: freezing the caller's own array would break their writes
        values = np.array(self.values, dtype=float)
        dates = tuple(self.dates)
        if len(dates) != values.size:
            raise InputError("dates and values must have equal length")
        if len(dates) == 0:
            raise InputError("empty series")
        k = _first_unordered(dates)
        if k is not None:
            raise InputError(f"dates must be strictly increasing (at {dates[k]})")
        if not np.all(np.isfinite(values)):
            raise InputError("values contain non-finite entries")
        if self._positive and np.any(values <= 0):
            raise InputError("values must be strictly positive")
        values.flags.writeable = False
        object.__setattr__(self, "dates", dates)
        object.__setattr__(self, "values", values)

    def __len__(self) -> int:
        return self.values.size


class PriceSeries(_DatedSeries):
    """Dated sequence of strictly positive closing levels."""

    _positive = True


class ReturnSeries(_DatedSeries):
    """Dated sequence of log returns (one shorter than its source prices)."""


# The CSV dialect: every table hurstscan reads or writes goes through
# _read_table or _write_table a whole column at a time, each column of
# one kind (or through _write_cells, with cells its kind formatted).  A
# kind's parser raises ValueError if any cell is bad.
class _Kind(NamedTuple):
    parse: Callable | None  # a column's cell texts -> its values
    format: Callable  # a column's values -> cell texts that parse reads back equal


_NON_FINITE = "non-finite"


def _parse_floats(cells) -> np.ndarray:
    values = np.array(list(map(float, cells)), dtype=float)
    if not np.all(np.isfinite(values)):
        raise ValueError(_NON_FINITE)
    return values


def _parse_flags(cells) -> list[bool]:
    if not set(cells) <= {"true", "false"}:
        raise ValueError("not true or false")
    return [cell == "true" for cell in cells]


_DATE = _Kind(
    lambda cells: list(map(dt.date.fromisoformat, map(str.strip, cells))),
    lambda dates: [date.isoformat() for date in dates],
)
# repr round-trips every float bit for bit
_FLOAT = _Kind(_parse_floats, lambda values: list(map(repr, np.asarray(values, float).tolist())))
_FLAG = _Kind(_parse_flags, lambda flags: ["true" if flag else "false" for flag in flags])
# written only: no file hurstscan reads has an integer column
_INT = _Kind(None, lambda values: list(map(str, np.asarray(values, int).tolist())))


def _cell_problem(row, columns) -> str | None:
    """Why one row's cells do not parse, or None."""
    if len(row) <= max(at for at, _ in columns.values()):
        return "too few columns"
    for label, (at, kind) in columns.items():
        try:
            kind.parse([row[at]])
        except ValueError as exc:
            problem = _NON_FINITE if str(exc) == _NON_FINITE else "unparsable"
            return f"{problem} {label} {row[at]!r}"
    return None


# rows parsed at a time: a block's raw cells are dropped before the next
# block is read, so a long file costs its parsed values, not its text
_BLOCK_ROWS = 1024


def _join(chunks: dict) -> dict:
    """Each column whole from its parsed blocks: float arrays are concatenated, lists chained."""
    return {
        label: np.concatenate(parts)
        if isinstance(parts[0], np.ndarray)
        else [value for part in parts for value in part]
        for label, parts in chunks.items()
    }


def _raise_first(path, lines, *found) -> None:
    """Fail naming the line of the earliest (row index, why) found; a None finds nothing."""
    found = [problem for problem in found if problem]
    if found:
        k, why = min(found)
        raise InputError(f"{path}:{lines[k]}: {why}")


def _nonblank_rows(reader, lines):
    """The reader's non-blank rows; each row's line number is appended to ``lines``."""
    for row in reader:
        if row:
            lines.append(reader.line_num)
            yield row


def _parse_rows(rows, columns) -> dict:
    """Each column of the rows, parsed by its kind; a short row or a bad cell raises."""
    return {label: kind.parse([row[at] for row in rows]) for label, (at, kind) in columns.items()}


def _read_table(path, columns: dict, header: bool = True):
    """The columns of a CSV file by label, each parsed by its kind, each row's line and the bad row.

    ``columns`` maps a label to (column name or position, kind).  Reading
    stops at the first short row or bad cell: the columns hold the rows
    before it, and it comes back as (row index, why), its line at
    ``lines[index]``, or None when every row parses, for the caller to
    fail with ``_raise_first``.

    Rows are read and parsed ``_BLOCK_ROWS`` at a time.  What stays in
    memory per row is its parsed values and its line number, held in one
    integer array; a block's cell texts are dropped before the next
    block is read.
    """
    try:
        # a byte that is not UTF-8 reads as U+FFFD: a cell that holds one
        # fails to parse on its own line, and a column that is not parsed loads
        fh = open(path, newline="", encoding="utf-8-sig", errors="replace")
    except FileNotFoundError:
        raise InputError(f"file not found: {path}") from None
    chunks = {label: [] for label in columns}
    lines, bad = array("q"), None
    with fh:
        reader = csv.reader(fh)
        if header:
            names = next(reader, [])
            missing = [at for at, _ in columns.values() if isinstance(at, str) and at not in names]
            if missing:
                raise InputError(f"{path}: missing columns {missing} in header {names}")
            columns = {
                label: (at if isinstance(at, int) else names.index(at), kind)
                for label, (at, kind) in columns.items()
            }
        rows = _nonblank_rows(reader, lines)
        while bad is None and (block := list(islice(rows, _BLOCK_ROWS))):
            try:
                parsed = _parse_rows(block, columns)
            except (IndexError, ValueError):
                # find the first bad row, looking row by row, and keep the rows before it
                problems = (_cell_problem(row, columns) for row in block)
                k, why = next((k, why) for k, why in enumerate(problems) if why)
                bad = (len(lines) - len(block) + k, why)
                parsed = _parse_rows(block[:k], columns)
            for label, values in parsed.items():
                chunks[label].append(values)
    if not lines:
        raise InputError(f"{path}: no data rows")
    return _join(chunks), lines, bad


def _write_table(path, columns, header=None) -> None:
    """Write (kind, values) columns, each formatted by its kind, with ``_write_cells``."""
    _write_cells(path, [kind.format(values) for kind, values in columns], header)


def _write_cells(path, cells, header=None, row_format=None) -> None:
    """Write columns of cell texts: the header, then ``row_format % cells`` per row.

    The cells are joined by commas unless a row format is given.
    """
    row_format = row_format or ",".join(["%s"] * len(cells)) + "\n"
    with open(path, "w", encoding="utf-8") as fh:
        if header is not None:
            fh.write(",".join(header) + "\n")
        fh.writelines(map(row_format.__mod__, zip(*cells)))


def _read_dated_values(path, layout: CsvLayout):
    """Dates, values and line numbers of a series file in date order; duplicate dates fail."""
    columns = {"date": (layout.date_col, _DATE), "value": (layout.value_col, _FLOAT)}
    parsed, lines, bad = _read_table(path, columns, layout.header)
    _raise_first(path, lines, bad)
    dates, values = parsed["date"], parsed["value"]
    if _first_unordered(dates) is None:
        # already in order, as every file hurstscan writes: nothing to sort
        return dates, values, lines
    order = sorted(range(len(lines)), key=dates.__getitem__)
    dates, lines = [dates[i] for i in order], [lines[i] for i in order]
    # sorted, so the first date not later than the one before repeats it
    k = _first_unordered(dates)
    if k is not None:
        _raise_first(path, lines, (k, f"duplicate date {dates[k].isoformat()}"))
    return dates, values[order], lines


def load_prices(path, layout: CsvLayout = CsvLayout()) -> PriceSeries:
    """Load a dated price CSV; rows are sorted by date, bad rows reported by line."""
    dates, values, lines = _read_dated_values(path, layout)
    bad = np.flatnonzero(values <= 0)
    if bad.size:
        k = int(bad[0])
        _raise_first(path, lines, (k, f"non-positive price {values[k].item()!r}"))
    return PriceSeries(dates=dates, values=values)


def load_returns(path, layout: CsvLayout = CsvLayout(value_col="value")) -> ReturnSeries:
    """Load a dated return CSV (any finite values allowed)."""
    dates, values, _ = _read_dated_values(path, layout)
    return ReturnSeries(dates=dates, values=values)


def save_returns(series: ReturnSeries, path) -> None:
    """Write a return series as ``date,value`` rows."""
    _write_table(path, [(_DATE, series.dates), (_FLOAT, series.values)], ("date", "value"))


def log_returns(prices: PriceSeries) -> ReturnSeries:
    """Natural-log returns: values[t] = ln(P_{t+1} / P_t), dated by the later day."""
    if len(prices) < 2:
        raise InputError("need at least 2 prices to compute returns")
    values = np.log(prices.values[1:] / prices.values[:-1])
    return ReturnSeries(dates=prices.dates[1:], values=values)


def synthetic_dates(n: int, start: dt.date = SYNTHETIC_START) -> tuple[dt.date, ...]:
    """n consecutive calendar dates, for series that have no natural calendar."""
    if not _is_integer(n):
        raise InputError(f"n must be an integer, got {n!r}")
    if n < 1:
        raise InputError("n must be at least 1")
    if (dt.date.max - start).days < n - 1:
        raise InputError(
            f"{n} dates from {start.isoformat()} run past the last representable "
            f"date {dt.date.max.isoformat()}"
        )
    return tuple(start + dt.timedelta(days=i) for i in range(n))
