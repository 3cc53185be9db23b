"""Sliding-window engine: GARCH filter + scaling analysis + liquidity measures per window.

``roll`` returns one ``RollingResult``: the windows' dates plus one
array per measure, the q=2 Hurst exponent, its fit diagnostics, the
four liquidity indicators and the GARCH flag, one entry per window in
chronological order.  Every measure comes from F_2, so a roll computes
no other q, and the CLI's ``roll --q`` accepts only 2.  Each window is
stamped with its last date by default.  In per-window GARCH mode its
values are then "known as of" that day; the default whole-sample fit
uses the whole series, so it filters each window with later returns
too.  The writers write the rolling CSV and JSON-lines files from the
same cells, which a result formats once with the CSV dialect of
``ingest``, and ``read_rolling_csv`` reads a CSV back into the same
type under the same row rules, so every result reads back.

Every mode fills one (windows x scales) array with every window's F_2
and then fits it once, ``_window_columns``, whose fit and measures run
``_FIT_ROWS`` windows at a time, so their temporaries stay a few times
a block's size.  F_2 comes from two producers in ``scaling``, the one
module that knows the segment layout.  With one whole-sample GARCH fit
windows share their segments: ``scaling._shared_f2`` detrends each
once, in one pass over the segment lengths that updates the fit at
every start of the series, and sums each window's segments by one
strided reduce per scale over those per-start values.  It returns the
windows it cannot serve, degenerate ones and those whose per-start
values lose digits below the normal range or underflow to 0.  Those
windows, and in per-window GARCH mode every window, take F_2 from
their own values in one loop,
``_own_f2``: ``_BLOCK`` windows at a time in date order, through
``mfdfa``'s producer ``scaling._series_fq``, stopping after the first
block whose F_2 fails the roll.  The per-window GARCH fits of a block
run as one batched search, each window's fit equal, bit for bit, to
``garch_fit`` on that window alone.  A window's values do not depend
on the windows computed with it, nor, bit for bit, on the scale of the
rest of the series the windows slice (in whole-sample mode the filtered
returns) while the squares stay normal floats, and a failed roll names
its first bad window, found by bisection.
"""
from __future__ import annotations

import datetime as dt
import functools
import math
from dataclasses import asdict, dataclass, fields

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .exceptions import InputError
from .garch import GarchFit, _fit_rows, garch_filter, garch_fit
from .ingest import (
    _DATE,
    _FLAG,
    _FLOAT,
    ReturnSeries,
    _first_unordered,
    _is_integer,
    _raise_first,
    _read_table,
    _write_cells,
)
from .liquidity import _indicator_rows, _indicators_ok
from .scaling import (
    _check_fluctuations,
    _check_scale_range,
    _fit_loglog,
    _series_fq,
    _shared_f2,
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
# windows per block of the own-values loop, and so per batched GARCH search:
# blocks of 32-96 windows take the same time, and 64 keeps a roll of
# 41 windows (the per-window benchmark workload) in one search
_BLOCK = 64
# windows per block of the fit and the measures, whose temporaries are a
# few times a block's F_2: a roll of the paper's size fits in one
_FIT_ROWS = 8192


@dataclass(frozen=True)
class RollingConfig:
    """Window geometry and analysis settings.

    There is no q: a roll computes the q = 2 fluctuation function only,
    the one its measures use.  ``s_max`` defaults to window // 10;
    ``garch_mode`` selects one fit over the full series ("whole-sample",
    the default) or an independent fit per window ("per-window").
    ``stamp`` picks which window day dates the result (end by default).
    """

    window: int = 500
    step: int = 1
    s_min: int = 10
    s_max: int | None = None
    detrend_order: int = 1
    garch_mode: str = "whole-sample"
    stamp: str = "end"

    def __post_init__(self):
        for name in ("window", "step", "s_min", "s_max", "detrend_order"):
            value = getattr(self, name)
            if not (_is_integer(value) or (name == "s_max" and value is None)):
                raise InputError(f"{name} must be an integer, got {value!r}")
        if self.s_max is None:
            object.__setattr__(self, "s_max", self.window // 10)
        if self.step < 1:
            raise InputError("step must be at least 1")
        # the kernel runs no scale check of its own, so check the window here
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
        return asdict(self)


@dataclass(frozen=True, eq=False)
class RollingResult:
    """Every window's outputs as columns, one entry per window.

    The fields are the rolling CSV's columns, in order: each window's
    date (last day by default, see ``RollingConfig.stamp``), its q=2
    scaling fit, its four liquidity indicators and whether its GARCH
    fit converged.  The arrays are read-only copies.  There is at least one
    window, and every window keeps the rules of ``_first_bad_row``, which
    the CSV reader applies too: every result writes a file that reads back.
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
        if not self.date:
            raise InputError("no window results")
        for col in ROLLING_CSV_COLUMNS[1:]:
            # a copy: freezing the caller's own array would break their writes
            values = np.array(
                getattr(self, col), dtype=bool if col == "garch_converged" else float
            )
            if values.shape != (len(self.date),):
                raise InputError(f"{col} must hold one value per date")
            values.flags.writeable = False
            object.__setattr__(self, col, values)
        broken = _first_bad_row(vars(self))
        if broken:
            raise InputError("window %d: %s" % broken)

    def __len__(self) -> int:
        return len(self.date)

    @functools.cached_property
    def _cells(self) -> list[list[str]]:
        """Each column's cell texts, formatted once for both writers."""
        return [kind.format(getattr(self, col)) for col, kind in _KINDS.items()]


ROLLING_CSV_COLUMNS = tuple(col.name for col in fields(RollingResult))
_FLOATS = ROLLING_CSV_COLUMNS[1:-1]
_KINDS = {"date": _DATE, **dict.fromkeys(_FLOATS, _FLOAT), "garch_converged": _FLAG}
# a JSON object per row from the CSV cells: a finite float's repr is its
# JSON text, and an ISO date needs only quotes
_JSONL_ROW = "{%s}\n" % ", ".join(
    f'"{col}": ' + ('"%s"' if col == "date" else "%s") for col in ROLLING_CSV_COLUMNS
)


def _first_bad_row(cols) -> tuple[int, str] | None:
    """The first window that breaks a row rule, and why; None if none does.

    ``cols`` maps each column to its values.  A window's floats are
    finite, its indicators obey their rule and its date is later than
    the window before's.
    """
    date = cols["date"]
    rules = [(np.isfinite(cols[col]), f"non-finite {col}") for col in _FLOATS]
    indicators = _indicators_ok(cols["f0"], cols["f_sigma"], cols["f_range"], cols["f_ratio"])
    rules.append((indicators, "bad row (inconsistent indicator values)"))
    # only the first date out of order is marked: no later one is the first bad row
    later = np.ones(len(date), dtype=bool)
    unordered = _first_unordered(date)
    if unordered is not None:
        later[unordered] = False
    rules.append((later, "date {} is not later than {}"))
    bad = ~np.all([ok for ok, _ in rules], axis=0)
    if not bad.any():
        return None
    k = int(np.argmax(bad))
    problem = next(problem for ok, problem in rules if not ok[k])
    return k, problem.format(date[k], date[k - 1])


@dataclass(frozen=True)
class RegimeRun:
    """A maximal run of consecutive windows on one side of the threshold."""

    start: dt.date
    end: dt.date
    label: str
    n_windows: int


def _window_columns(fq, dates, config: RollingConfig):
    """Scaling fit and indicators of every window from its F_2, _FIT_ROWS windows at a time.

    ``fq`` holds the F_2 of the roll's windows, one row per window,
    dated by ``dates``.  Returns (hurst, stderr_hurst, r_squared, f0,
    f_sigma, f_range, f_ratio) as the rows of one array, one entry per
    window; raises the InputError of ``mfdfa`` + ``liquidity_indicators``
    on the first bad window, prefixed with its number and date.
    """
    scales = np.asarray(config.scales())

    def columns(rows):
        # each window's row contiguous, as it is alone, so that its sums
        # run as they do alone; then mfdfa's order within one window: F_2 > 0,
        # then the fit and liquidity_indicators' measures
        block = np.ascontiguousarray(fq[rows])
        _check_fluctuations(block)
        hurst, intercept, r_squared, stderr = _fit_loglog(scales, block)
        return (hurst, stderr, r_squared, *_indicator_rows(scales, block, hurst, intercept))

    out = np.empty((7, len(fq)))
    for a in range(0, len(fq), _FIT_ROWS):
        b = min(a + _FIT_ROWS, len(fq))
        try:
            out[:, a:b] = columns(slice(a, b))
        except InputError:
            # windows a..k-1 fail together exactly when one of them fails
            # alone, so bisection finds the first bad window; its error is
            # the one it gives alone
            good, bad = a, b
            while bad - good > 1:
                mid = (good + bad) // 2
                try:
                    columns(slice(a, mid))
                except InputError:
                    bad = mid
                else:
                    good = mid
            try:
                columns(good)
            except InputError as exc:
                raise InputError(f"window {good} ({dates[good]}): {exc}") from exc
            raise
    return out


def _own_f2(fq, values, starts, own, config: RollingConfig, converged) -> None:
    """Fill the rows ``own`` of ``fq`` with F_2 from the windows' own values, _BLOCK at a time.

    The windows of ``values`` numbered ``own`` (increasing) begin at
    ``starts[own]``; they are cut and taken through ``_series_fq``
    block by block, in date order.  In per-window mode each block's
    windows are first GARCH-fitted by one batched search and divided by
    their own sqrt(h), and ``converged`` gets each window's flag; a
    window whose fit raises keeps its raw values.  The loop stops after
    the first block that holds an F_2 which ``_check_fluctuations``
    rejects: the roll fails at that window or before it, and the rows
    after are left as they are.
    """
    windows = sliding_window_view(values, config.window)
    for a in range(0, own.size, _BLOCK):
        at = own[a : a + _BLOCK]
        # fancy indexing copies: the block's rows are filtered in place
        rows = windows[starts[at]]
        if config.garch_mode == "per-window":
            for k, row, fit in zip(at, rows, _fit_rows(rows)):
                if isinstance(fit, GarchFit):
                    row /= np.sqrt(fit.h)
                converged[k] = isinstance(fit, GarchFit) and fit.converged
        (block,) = _series_fq(rows, config.scales(), (2.0,), config.detrend_order)
        fq[at] = block
        try:
            _check_fluctuations(block)
        except InputError:
            break


def roll(returns: ReturnSeries, config: RollingConfig = RollingConfig()) -> RollingResult:
    """Run the full pipeline over every sliding window position.

    In whole-sample mode the series is GARCH-filtered once and the
    windows slice the filtered series.  In per-window mode each window
    is fitted and filtered independently; a window whose fit raises
    still produces scaling results on its unfiltered returns, flagged
    ``garch_converged=False``.  Every window is analyzed at q = 2 only.
    A window whose scaling or measures fail (a degenerate window, R(s)
    out of the float range) aborts the run: the InputError names
    the first such window, ``window k (YYYY-MM-DD): ...``.
    """
    n = len(returns)
    w = config.window
    if n < w:
        raise InputError(f"series length {n} is shorter than window {w}")
    starts = np.arange(0, n - w + 1, config.step)
    offset = {"end": w - 1, "start": 0, "center": (w - 1) // 2}[config.stamp]
    dates = [returns.dates[i] for i in (starts + offset).tolist()]

    if config.garch_mode == "per-window":
        values = returns.values
        fq, own = np.empty((starts.size, len(config.scales()))), np.arange(starts.size)
        converged = np.zeros(starts.size, dtype=bool)
    else:
        fit = garch_fit(returns.values)
        values = garch_filter(returns, fit)
        fq, own = _shared_f2(values, starts, w, config.scales(), config.detrend_order)
        converged = np.full(starts.size, fit.converged)
    _own_f2(fq, values, starts, own, config, converged)
    return RollingResult(dates, *_window_columns(fq, dates, config), converged)


def detect_regimes(results: RollingResult, threshold: float) -> list[RegimeRun]:
    """Merge consecutive windows into runs below/above the Hurst threshold.

    Windows with hurst < threshold are labeled "below", the rest "above";
    adjacent windows with equal labels join one run.  The threshold
    must be finite: at +-inf every window would fall on one side.
    """
    if not math.isfinite(threshold):
        raise InputError(f"threshold must be finite, got {threshold!r}")
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


def write_rolling_csv(results: RollingResult, path) -> None:
    """One row per window: date, fit diagnostics, indicators, GARCH flag."""
    _write_cells(path, results._cells, ROLLING_CSV_COLUMNS)


def write_rolling_jsonl(results: RollingResult, path) -> None:
    """JSON-lines variant of the rolling output, identical fields."""
    _write_cells(path, results._cells, row_format=_JSONL_ROW)


def read_rolling_csv(path) -> RollingResult:
    """Read back a rolling CSV produced by write_rolling_csv.

    A bad row fails naming its line: a missing or unparsable cell, a
    float that is not finite, a GARCH flag other than ``true`` or
    ``false``, or a row that breaks a rule of ``_first_bad_row``.
    """
    columns = {col: (col, kind) for col, kind in _KINDS.items()}
    parsed, lines, bad = _read_table(path, columns)
    if bad is None:
        try:
            return RollingResult(**parsed)
        except InputError:
            # the result names the window that breaks a rule; name its line
            _raise_first(path, lines, _first_bad_row(parsed))
            raise
    # the rows before the bad one can break a rule first
    _raise_first(path, lines, _first_bad_row(parsed), bad)
