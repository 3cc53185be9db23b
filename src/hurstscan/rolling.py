"""Sliding-window engine: GARCH filter + scaling analysis + liquidity measures per window.

``roll`` returns one ``RollingResult``: the windows' dates plus one
array per measure, the q=2 Hurst exponent, its fit diagnostics, the
four liquidity indicators and the GARCH flag, one entry per window in
chronological order.  Each window is stamped with its last date by
default (the values are "known as of" that day).  The writers format
the rolling CSV and JSON-lines files from these columns, and
``read_rolling_csv`` reads a CSV back into the same type.

Every mode analyzes all windows in one array pass over (windows x
scales); only the source of the squared segment fluctuations differs.
With one whole-sample GARCH fit and detrending order >= 1, windows
share their segments and each is detrended once; per-window GARCH fits
and order 0 give every window its own profile.  Per-window GARCH fits
run as one batched search over all windows, each window's fit equal,
bit for bit, to ``garch_fit`` on that window alone.
"""
from __future__ import annotations

import csv
import datetime as dt
import json
import math
from dataclasses import asdict, dataclass, fields

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .exceptions import InputError
from .garch import GarchFit, _fit_rows, garch_filter, garch_fit
from .ingest import ReturnSeries, _finite_float
from .liquidity import _check_has_q2, _indicator_rows, _indicators_ok
from .scaling import (
    _check_fluctuations,
    _check_qs,
    _check_scale_range,
    _fit_loglog,
    _residual_f2,
    _run_marker,
    _segment_starts,
    _zero_flat,
)

__all__ = [
    "RollingConfig",
    "RollingResult",
    "RegimeRun",
    "roll",
    "detect_regimes",
    "write_rolling_csv",
    "write_rolling_jsonl",
    "read_rolling_csv",
]

GARCH_MODES = ("whole-sample", "per-window")
STAMP_CHOICES = ("end", "start", "center")


@dataclass(frozen=True)
class RollingConfig:
    """Window geometry and analysis settings.

    ``s_max`` defaults to window // 10; ``garch_mode`` selects one fit
    over the full series ("whole-sample", the default) or an independent
    fit per window ("per-window").  ``stamp`` picks which window day
    dates the result (end by default).
    """

    window: int = 500
    step: int = 1
    s_min: int = 10
    s_max: int | None = None
    q_set: tuple[float, ...] = (2.0,)
    detrend_order: int = 1
    garch_mode: str = "whole-sample"
    stamp: str = "end"

    def __post_init__(self):
        if self.s_max is None:
            object.__setattr__(self, "s_max", self.window // 10)
        object.__setattr__(self, "q_set", _check_qs(self.q_set))
        _check_has_q2(self.q_set)
        if self.step < 1:
            raise InputError("step must be at least 1")
        # the kernel never calls segment_fluctuations, so check the window here
        _check_scale_range(self.s_min, self.s_max, self.detrend_order, self.window)
        if self.s_max < self.s_min + 2:
            raise InputError("need at least 3 scales: s_max must be >= s_min + 2")
        if self.window < 10 * self.s_min:
            raise InputError("window must be at least 10 * s_min")
        if self.garch_mode not in GARCH_MODES:
            raise InputError(f"garch_mode must be one of {GARCH_MODES}")
        if self.stamp not in STAMP_CHOICES:
            raise InputError(f"stamp must be one of {STAMP_CHOICES}")

    def scales(self) -> range:
        return range(self.s_min, self.s_max + 1)

    def to_dict(self) -> dict:
        return {**asdict(self), "q_set": list(self.q_set)}


@dataclass(frozen=True, eq=False)
class RollingResult:
    """Every window's outputs as columns, one entry per window.

    The fields are the rolling CSV's columns, in order: each window's
    date (last day by default, see ``RollingConfig.stamp``), its q=2
    scaling fit, its four liquidity indicators and whether its GARCH
    fit converged.  The arrays are read-only.
    """

    date: tuple[dt.date, ...]
    hurst: np.ndarray
    stderr_hurst: np.ndarray
    r_squared: np.ndarray
    f0: np.ndarray
    f_sigma: np.ndarray
    f_range: np.ndarray
    f_ratio: np.ndarray
    garch_converged: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "date", tuple(self.date))
        for col in ROLLING_CSV_COLUMNS[1:]:
            values = np.asarray(
                getattr(self, col), dtype=bool if col == "garch_converged" else float
            )
            if values.shape != (len(self.date),):
                raise InputError(f"{col} must hold one value per date")
            values.flags.writeable = False
            object.__setattr__(self, col, values)
        if not np.all(_indicators_ok(self.f0, self.f_sigma, self.f_range, self.f_ratio)):
            raise InputError("inconsistent indicator values")

    def __len__(self) -> int:
        return len(self.date)


ROLLING_CSV_COLUMNS = tuple(col.name for col in fields(RollingResult))


@dataclass(frozen=True)
class RegimeRun:
    """A maximal run of consecutive windows on one side of the threshold."""

    start: dt.date
    end: dt.date
    label: str
    n_windows: int


def _shared_f2(values: np.ndarray, starts: np.ndarray, config: RollingConfig):
    """Each scale's squared segment fluctuations of every window of one series.

    Over one segment, a window's profile differs from the running sum
    of the values started at the segment's first point only by a
    constant plus a linear term.  Detrending of order >= 1 removes both,
    so a segment's squared fluctuation depends only on its absolute
    start and its scale, not on the window.  Each scale's fluctuations
    are computed once for every start position, then gathered into each
    window's forward and backward segments in ``mfdfa``'s order.  The
    running sums stay at the size of one segment, so their rounding
    is no larger than that of ``mfdfa``'s per-window profile.

    Yields one (windows x 2*(window // s)) array per scale.
    """
    steps = values - values.mean()
    marker = _run_marker(values)
    for s in config.scales():
        # row a: the profile over [a, a + s) up to a constant
        segments = np.cumsum(sliding_window_view(steps, s), axis=1)
        f2_at = _residual_f2(segments, config.detrend_order)
        _zero_flat(f2_at, marker, s, config.detrend_order, np.arange(f2_at.size))
        yield f2_at[starts[:, None] + _segment_starts(config.window, s)]


def _row_f2(rows: np.ndarray, config: RollingConfig):
    """Like ``_shared_f2``, for a (windows x window) matrix whose every row is its own series.

    Each row's profile is cut as ``segment_fluctuations`` cuts it.
    """
    m, w = rows.shape
    order = config.detrend_order
    profiles = np.cumsum(rows - rows.mean(axis=1, keepdims=True), axis=1)
    marker = _run_marker(rows)
    for s in config.scales():
        ns = w // s
        forward = profiles[:, : ns * s].reshape(m, ns, s)
        backward = profiles[:, w - ns * s :].reshape(m, ns, s)[:, ::-1]
        f2 = _residual_f2(np.concatenate([forward, backward], axis=1), order)
        yield _zero_flat(f2, marker, s, order)


def _window_columns(f2_per_scale, n_windows: int, config: RollingConfig):
    """Scaling fit and indicators of every window from its squared segment fluctuations.

    Returns (hurst, stderr_hurst, r_squared, f0, f_sigma, f_range,
    f_ratio), one array entry per window; raises the same InputError as
    ``mfdfa`` + ``liquidity_indicators`` on a degenerate window.
    """
    scales = np.asarray(config.scales())
    has_zero = np.zeros(n_windows, dtype=bool)
    fq = {q: np.empty((n_windows, scales.size)) for q in config.q_set}
    for j, f2 in enumerate(f2_per_scale):
        has_zero |= np.any(f2 == 0.0, axis=1)
        with np.errstate(divide="ignore"):
            for q in config.q_set:
                fq[q][:, j] = np.mean(f2 ** (q / 2.0), axis=1) ** (1.0 / q)

    def check(rows):
        # mfdfa's order within one window: per q, the negative-q rule, then F_q > 0
        for q in config.q_set:
            if q < 0 and np.any(has_zero[rows]):
                raise InputError("zero segment fluctuation with negative q")
            _check_fluctuations(fq[q][rows])

    try:
        check(slice(None))
    except InputError:
        # report the error of the first bad window, as mfdfa on each window would
        for i in range(n_windows):
            check(i)
    hurst, intercept, r_squared, stderr = _fit_loglog(scales, fq[2.0])
    return (hurst, stderr, r_squared, *_indicator_rows(scales, fq[2.0], hurst, intercept))


def roll(returns: ReturnSeries, config: RollingConfig = RollingConfig()) -> RollingResult:
    """Run the full pipeline over every sliding window position.

    In whole-sample mode the series is GARCH-filtered once and the
    windows slice the filtered series.  In per-window mode each window
    is fitted and filtered independently; a window whose fit raises
    still produces scaling results on its unfiltered returns, flagged
    ``garch_converged=False``, so one bad window cannot abort a long run.
    """
    n = len(returns)
    w = config.window
    if n < w:
        raise InputError(f"series length {n} is shorter than window {w}")
    starts = np.arange(0, n - w + 1, config.step)
    offset = {"end": w - 1, "start": 0, "center": (w - 1) // 2}[config.stamp]
    dates = [returns.dates[i] for i in (starts + offset).tolist()]

    if config.garch_mode == "per-window":
        rows = sliding_window_view(returns.values, w)[starts]
        converged = []
        # one batched search fits every window; each fit is used before
        # the next is asked for, so one chunk of variance paths is alive
        for row, fit in zip(rows, _fit_rows(rows)):
            if isinstance(fit, GarchFit):
                row /= np.sqrt(fit.h)
            converged.append(isinstance(fit, GarchFit) and fit.converged)
        f2_per_scale = _row_f2(rows, config)
    else:
        fit = garch_fit(returns.values)
        filtered = garch_filter(returns, fit)
        converged = np.full(starts.size, fit.converged)
        if config.detrend_order == 0:
            # order 0 leaves a window's linear profile term in: no shared segments
            f2_per_scale = _row_f2(sliding_window_view(filtered, w)[starts], config)
        else:
            f2_per_scale = _shared_f2(filtered, starts, config)
    return RollingResult(dates, *_window_columns(f2_per_scale, starts.size, config), converged)


def detect_regimes(results: RollingResult, threshold: float) -> list[RegimeRun]:
    """Merge consecutive windows into runs below/above the Hurst threshold.

    Windows with hurst < threshold are labeled "below", the rest "above";
    adjacent windows with equal labels join one run.  The threshold
    must be finite: at +-inf every window would fall on one side.
    """
    if not math.isfinite(threshold):
        raise InputError(f"threshold must be finite, got {threshold!r}")
    if len(results) == 0:
        raise InputError("no window results")
    below = results.hurst < threshold
    cuts = (np.flatnonzero(below[1:] != below[:-1]) + 1).tolist()
    return [
        RegimeRun(
            start=results.date[a],
            end=results.date[b - 1],
            label="below" if below[a] else "above",
            n_windows=b - a,
        )
        for a, b in zip([0, *cuts], [*cuts, len(results)])
    ]


def _rows(results: RollingResult):
    """Each window's cells in column order: ISO date, Python floats, Python bool."""
    return zip(
        [date.isoformat() for date in results.date],
        *(getattr(results, col).tolist() for col in ROLLING_CSV_COLUMNS[1:]),
    )


def write_rolling_csv(results: RollingResult, path) -> None:
    """One row per window: date, fit diagnostics, indicators, GARCH flag."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(ROLLING_CSV_COLUMNS) + "\n")
        for date, *numbers, converged in _rows(results):
            fh.write(",".join([date, *map(repr, numbers), "true" if converged else "false"]) + "\n")


def write_rolling_jsonl(results: RollingResult, path) -> None:
    """JSON-lines variant of the rolling output, identical fields."""
    with open(path, "w", encoding="utf-8") as fh:
        for row in _rows(results):
            fh.write(json.dumps(dict(zip(ROLLING_CSV_COLUMNS, row))) + "\n")


def read_rolling_csv(path) -> RollingResult:
    """Read back a rolling CSV produced by write_rolling_csv.

    A bad row fails naming its line: a cell that is not a finite
    number, an unparsable date or GARCH flag, indicators that break
    their rule, or a date not later than the row before.
    """
    try:
        fh = open(path, newline="", encoding="utf-8-sig")
    except FileNotFoundError:
        raise InputError(f"file not found: {path}") from None
    dates, flags = [], []
    numbers = {col: [] for col in ROLLING_CSV_COLUMNS[1:-1]}
    with fh:
        reader = csv.DictReader(fh)
        missing = set(ROLLING_CSV_COLUMNS) - set(reader.fieldnames or ())
        if missing:
            raise InputError(f"{path}: missing columns {sorted(missing)}")
        for row in reader:
            where = f"{path}:{reader.line_num}"
            num = {col: _finite_float(row[col], path, reader.line_num, col) for col in numbers}
            try:
                date = dt.date.fromisoformat(row["date"])
            except ValueError as exc:
                raise InputError(f"{where}: bad row ({exc})") from None
            if not _indicators_ok(num["f0"], num["f_sigma"], num["f_range"], num["f_ratio"]):
                raise InputError(f"{where}: bad row (inconsistent indicator values)")
            flag = row["garch_converged"]
            if flag not in ("true", "false"):
                raise InputError(f"{where}: unparsable garch_converged {flag!r}")
            if dates and date <= dates[-1]:
                raise InputError(f"{where}: date {date} is not later than {dates[-1]}")
            dates.append(date)
            flags.append(flag == "true")
            for col, value in num.items():
                numbers[col].append(value)
    if not dates:
        raise InputError(f"{path}: no data rows")
    return RollingResult(dates, *numbers.values(), flags)
