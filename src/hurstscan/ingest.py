"""Price-file loading, log returns, and descriptive statistics.

CSV files are UTF-8 (a leading byte-order mark is skipped) with one
header row by default; the date and value columns are configurable by
name or position.  Every value must be a finite number: ``nan`` or
``inf`` cells fail at load time with the file and line.  Dates are ISO-8601
(YYYY-MM-DD) and rows are sorted ascending by date on load, with
duplicate dates rejected.  Missing trading days are simply absent rows.
Floats are written with ``repr`` so a save/load round trip is
bit-identical.
"""
from __future__ import annotations

import csv
import datetime as dt
import math
from dataclasses import dataclass, field

import numpy as np

from .exceptions import InputError

SYNTHETIC_START = dt.date(2000, 1, 3)  # first date of series with no natural calendar

__all__ = [
    "CsvLayout",
    "PriceSeries",
    "ReturnSeries",
    "load_prices",
    "load_returns",
    "save_prices",
    "save_returns",
    "log_returns",
    "max_drawdown",
    "synthetic_dates",
]


@dataclass(frozen=True)
class CsvLayout:
    """Which columns hold the date and the value; names need a header row."""

    date_col: str | int = "date"
    value_col: str | int = "close"
    header: bool = True

    def __post_init__(self):
        if not self.header:
            for col in (self.date_col, self.value_col):
                if not isinstance(col, int):
                    raise InputError(
                        "columns must be integer positions when there is no header"
                    )


def _validate_series(dates, values, positive: bool):
    if len(dates) != values.size:
        raise InputError("dates and values must have equal length")
    if len(dates) == 0:
        raise InputError("empty series")
    for a, b in zip(dates, dates[1:]):
        if b <= a:
            raise InputError(f"dates must be strictly increasing (at {b})")
    if not np.all(np.isfinite(values)):
        raise InputError("values contain non-finite entries")
    if positive and np.any(values <= 0):
        raise InputError("values must be strictly positive")


@dataclass(frozen=True)
class PriceSeries:
    """Dated sequence of strictly positive closing levels."""

    dates: tuple[dt.date, ...]
    values: np.ndarray = field(repr=False)

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        dates = tuple(self.dates)
        _validate_series(dates, values, positive=True)
        values.flags.writeable = False
        object.__setattr__(self, "dates", dates)
        object.__setattr__(self, "values", values)

    def __len__(self) -> int:
        return self.values.size


@dataclass(frozen=True)
class ReturnSeries:
    """Dated sequence of log returns (one shorter than its source prices)."""

    dates: tuple[dt.date, ...]
    values: np.ndarray = field(repr=False)

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        dates = tuple(self.dates)
        _validate_series(dates, values, positive=False)
        values.flags.writeable = False
        object.__setattr__(self, "dates", dates)
        object.__setattr__(self, "values", values)

    def __len__(self) -> int:
        return self.values.size


def _finite_float(text, path, line: int, what: str = "value") -> float:
    """Parse one CSV cell as a finite float, or fail naming the file and line."""
    try:
        value = float(text)
    except (TypeError, ValueError):
        raise InputError(f"{path}:{line}: unparsable {what} {text!r}") from None
    if not math.isfinite(value):
        raise InputError(f"{path}:{line}: non-finite {what} {text!r}")
    return value


def _resolve_columns(header_row, layout: CsvLayout, path):
    def resolve(col):
        if isinstance(col, int):
            return col
        try:
            return header_row.index(col)
        except ValueError:
            raise InputError(
                f"{path}: column {col!r} not found in header {header_row}"
            ) from None

    return resolve(layout.date_col), resolve(layout.value_col)


def _read_dated_values(path, layout: CsvLayout):
    try:
        fh = open(path, newline="", encoding="utf-8-sig")
    except FileNotFoundError:
        raise InputError(f"file not found: {path}") from None
    rows = []
    with fh:
        reader = csv.reader(fh)
        if layout.header:
            try:
                header_row = next(reader)
            except StopIteration:
                raise InputError(f"{path}: empty file") from None
            date_idx, value_idx = _resolve_columns(header_row, layout, path)
        else:
            date_idx, value_idx = layout.date_col, layout.value_col
        for row in reader:
            if not row:
                continue
            line = reader.line_num
            if max(date_idx, value_idx) >= len(row):
                raise InputError(f"{path}:{line}: too few columns")
            try:
                date = dt.date.fromisoformat(row[date_idx].strip())
            except ValueError:
                raise InputError(
                    f"{path}:{line}: unparsable date {row[date_idx]!r}"
                ) from None
            rows.append((date, _finite_float(row[value_idx], path, line), line))
    if not rows:
        raise InputError(f"{path}: no data rows")
    rows.sort(key=lambda item: item[0])
    for (d1, _, _), (d2, _, line) in zip(rows, rows[1:]):
        if d1 == d2:
            raise InputError(f"{path}:{line}: duplicate date {d2.isoformat()}")
    dates = tuple(r[0] for r in rows)
    values = np.array([r[1] for r in rows])
    return dates, values, [r[2] for r in rows]


def load_prices(path, layout: CsvLayout = CsvLayout()) -> PriceSeries:
    """Load a dated price CSV; rows are sorted by date, bad rows reported by line."""
    dates, values, lines = _read_dated_values(path, layout)
    for value, line in zip(values, lines):
        if value <= 0:
            raise InputError(f"{path}:{line}: non-positive price {value!r}")
    return PriceSeries(dates=dates, values=values)


def load_returns(path, layout: CsvLayout = CsvLayout(value_col="value")) -> ReturnSeries:
    """Load a dated return CSV (any finite values allowed)."""
    dates, values, _ = _read_dated_values(path, layout)
    return ReturnSeries(dates=dates, values=values)


def _write_dated_values(dates, values, path, value_header: str):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"date,{value_header}\n")
        for date, value in zip(dates, values):
            fh.write(f"{date.isoformat()},{float(value)!r}\n")


def save_prices(series: PriceSeries, path) -> None:
    """Write a price series as ``date,close`` rows; round-trips bit-identically."""
    _write_dated_values(series.dates, series.values, path, "close")


def save_returns(series: ReturnSeries, path) -> None:
    """Write a return series as ``date,value`` rows."""
    _write_dated_values(series.dates, series.values, path, "value")


def log_returns(prices: PriceSeries) -> ReturnSeries:
    """Natural-log returns: values[t] = ln(P_{t+1} / P_t), dated by the later day."""
    if len(prices) < 2:
        raise InputError("need at least 2 prices to compute returns")
    values = np.log(prices.values[1:] / prices.values[:-1])
    return ReturnSeries(dates=prices.dates[1:], values=values)


def max_drawdown(
    prices: PriceSeries,
    start: dt.date | None = None,
    end: dt.date | None = None,
) -> float:
    """Largest peak-to-trough loss fraction within [start, end] (inclusive).

    Defined as 1 - min_t(value_t / running max up to t); 0 for a series
    that never falls below an earlier level.
    """
    mask = np.ones(len(prices), dtype=bool)
    if start is not None:
        mask &= np.array([d >= start for d in prices.dates])
    if end is not None:
        mask &= np.array([d <= end for d in prices.dates])
    selected = prices.values[mask]
    if selected.size == 0:
        raise InputError("empty date range")
    running_max = np.maximum.accumulate(selected)
    return float(1.0 - np.min(selected / running_max))


def synthetic_dates(n: int, start: dt.date = SYNTHETIC_START) -> tuple[dt.date, ...]:
    """n consecutive calendar dates, for series that have no natural calendar."""
    if n < 1:
        raise InputError("n must be at least 1")
    return tuple(start + dt.timedelta(days=i) for i in range(n))
