"""Sliding-window engine: GARCH filter + scaling analysis + liquidity measures per window.

``roll`` returns one ``RollingResult``: the windows' dates plus one
array per measure, the q=2 Hurst exponent, its fit diagnostics, the
four liquidity indicators and the GARCH flag, one entry per window in
chronological order.  Each window is stamped with its last date by
default (the values are "known as of" that day).  The writers format
the rolling CSV and JSON-lines files from these columns with the CSV
dialect of ``ingest``, and ``read_rolling_csv`` reads a CSV back into
the same type under the same row rules, so every result reads back.

Every mode analyzes its windows in array passes over (windows x
scales); only the source of the squared segment fluctuations differs.
With one whole-sample GARCH fit and detrending order >= 1, windows
share their segments and each is detrended once, in one pass over all
windows.  Per-window GARCH fits and order 0 give every window its own
profile; those windows run in order, in blocks of a fixed number of
windows, so memory stays bounded however many windows there are.  The
per-window GARCH fits of a block run as one batched search, each
window's fit equal, bit for bit, to ``garch_fit`` on that window alone.
"""
from __future__ import annotations

import datetime as dt
import math
from dataclasses import asdict, dataclass, fields

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .exceptions import InputError
from .garch import GarchFit, _fit_rows, garch_filter, garch_fit
from .ingest import _DATE, _FLAG, _FLOAT, ReturnSeries, _read_table, _write_table
from .liquidity import _check_has_q2, _indicator_rows, _indicators_ok
from .scaling import (
    _check_fluctuations,
    _check_qs,
    _check_scale_range,
    _check_square_range,
    _check_zero_rule,
    _cut_segments,
    _fit_loglog,
    _is_integer,
    _power_means,
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
# windows per block of a per-row source, and so per batched GARCH search:
# blocks of 32-96 windows take the same time, and 64 keeps a roll of
# 41 windows (the per-window benchmark workload) in one search
_BLOCK = 64


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
        for name in ("window", "step", "s_min", "s_max", "detrend_order"):
            value = getattr(self, name)
            if not (_is_integer(value) or (name == "s_max" and value is None)):
                raise InputError(f"{name} must be an integer, got {value!r}")
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
    later = [k == 0 or date[k - 1] < date[k] for k in range(len(date))]
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
    # a running sum over at most s_max steps bounds every segment's values
    _check_square_range(config.s_max * max(steps.max(), -steps.min()), config.s_max)
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
    order = config.detrend_order
    profiles = np.cumsum(rows - rows.mean(axis=1, keepdims=True), axis=1)
    _check_square_range(max(profiles.max(), -profiles.min()), config.s_max)
    marker = _run_marker(rows)
    for s in config.scales():
        yield _zero_flat(_residual_f2(_cut_segments(profiles, s), order), marker, s, order)


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
        means, zero = _power_means(f2, config.q_set)
        has_zero |= zero
        for q, fq_q in zip(config.q_set, means):
            fq[q][:, j] = fq_q

    def check(rows):
        # mfdfa's order within one window: per q, the negative-q rule, then F_q > 0
        for q in config.q_set:
            _check_zero_rule(q, has_zero[rows])
            _check_fluctuations(fq[q][rows])

    try:
        check(slice(None))
    except InputError:
        # report the error of the first bad window, as mfdfa on each window would
        for i in range(n_windows):
            check(i)
    hurst, intercept, r_squared, stderr = _fit_loglog(scales, fq[2.0])
    return (hurst, stderr, r_squared, *_indicator_rows(scales, fq[2.0], hurst, intercept))


def _row_columns(values: np.ndarray, starts: np.ndarray, config: RollingConfig, refit: bool):
    """``_window_columns`` of windows that each get their own profile, _BLOCK windows at a time.

    The windows of ``values`` that begin at ``starts`` are cut and
    analyzed block by block, in order, so the first bad window raises
    first.  With ``refit`` each block's windows are GARCH-fitted by one
    batched search and divided by their own sqrt(h); a window whose fit
    raises keeps its raw values.  Returns the seven columns and, with
    ``refit``, each window's ``garch_converged`` flag.
    """
    blocks, converged = [], []
    for first in range(0, starts.size, _BLOCK):
        # fancy indexing copies: the block's rows are filtered in place
        rows = sliding_window_view(values, config.window)[starts[first : first + _BLOCK]]
        if refit:
            for row, fit in zip(rows, _fit_rows(rows)):
                if isinstance(fit, GarchFit):
                    row /= np.sqrt(fit.h)
                converged.append(isinstance(fit, GarchFit) and fit.converged)
        blocks.append(_window_columns(_row_f2(rows, config), len(rows), config))
    return [np.concatenate(column) for column in zip(*blocks)], converged


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
        columns, converged = _row_columns(returns.values, starts, config, refit=True)
    else:
        fit = garch_fit(returns.values)
        filtered = garch_filter(returns, fit)
        converged = np.full(starts.size, fit.converged)
        if config.detrend_order == 0:
            # order 0 leaves a window's linear profile term in: no shared segments
            columns, _ = _row_columns(filtered, starts, config, refit=False)
        else:
            columns = _window_columns(_shared_f2(filtered, starts, config), starts.size, config)
    return RollingResult(dates, *columns, converged)


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
    columns = [(kind, getattr(results, col)) for col, kind in _KINDS.items()]
    _write_table(path, columns, ROLLING_CSV_COLUMNS)


def write_rolling_jsonl(results: RollingResult, path) -> None:
    """JSON-lines variant of the rolling output, identical fields."""
    columns = [(kind, getattr(results, col)) for col, kind in _KINDS.items()]
    _write_table(path, columns, row_format=_JSONL_ROW)


def read_rolling_csv(path) -> RollingResult:
    """Read back a rolling CSV produced by write_rolling_csv.

    A bad row fails naming its line: a missing or unparsable cell, a
    float that is not finite, a GARCH flag other than ``true`` or
    ``false``, or a row that breaks a rule of ``_first_bad_row``.
    """
    columns = {col: (col, kind) for col, kind in _KINDS.items()}
    parsed, _ = _read_table(path, columns, rule=_first_bad_row)
    return RollingResult(**parsed)
