"""Sliding-window engine: GARCH filter + scaling analysis + liquidity measures per window.

One window result carries the q=2 Hurst exponent, the fit diagnostics
and the four liquidity indicators, stamped with the window's last date
by default (the values are "known as of" that day).  Results come in
chronological order.

With one whole-sample GARCH fit and detrending order >= 1, windows
share their segments' fluctuations, and one array pass over
(windows x scales) analyzes every window at once.  Per-window GARCH
fits and order-0 detrending run ``mfdfa`` on each window instead.
"""
from __future__ import annotations

import csv
import datetime as dt
import json
import math
from dataclasses import dataclass, field

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .exceptions import InputError, NumericalError
from .garch import garch_fit
from .ingest import ReturnSeries
from .liquidity import LiquidityIndicators, _indicator_rows, liquidity_indicators
from .scaling import _check_fluctuations, _fit_loglog, mfdfa

__all__ = [
    "RollingConfig",
    "WindowResult",
    "RegimeRun",
    "roll",
    "detect_regimes",
    "write_rolling_csv",
    "write_rolling_jsonl",
    "read_rolling_csv",
]

ROLLING_CSV_COLUMNS = (
    "date",
    "hurst",
    "stderr_hurst",
    "r_squared",
    "f0",
    "f_sigma",
    "f_range",
    "f_ratio",
    "garch_converged",
)

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
        object.__setattr__(self, "q_set", tuple(float(q) for q in self.q_set))
        if self.step < 1:
            raise InputError("step must be at least 1")
        if self.detrend_order < 0:
            raise InputError("detrend order must be non-negative")
        if self.s_min < self.detrend_order + 2:
            raise InputError("s_min must be at least detrend_order + 2")
        if self.s_max < self.s_min + 2:
            raise InputError("need at least 3 scales: s_max must be >= s_min + 2")
        if self.s_max > self.window // 4:
            raise InputError("s_max must not exceed window / 4")
        if self.window < 10 * self.s_min:
            raise InputError("window must be at least 10 * s_min")
        if 0.0 in self.q_set:
            raise InputError("q = 0 is not supported")
        if 2.0 not in self.q_set:
            raise InputError("q_set must include 2 (the liquidity measures need it)")
        if self.garch_mode not in GARCH_MODES:
            raise InputError(f"garch_mode must be one of {GARCH_MODES}")
        if self.stamp not in STAMP_CHOICES:
            raise InputError(f"stamp must be one of {STAMP_CHOICES}")

    def scales(self) -> range:
        return range(self.s_min, self.s_max + 1)

    def to_dict(self) -> dict:
        return {
            "window": self.window,
            "step": self.step,
            "s_min": self.s_min,
            "s_max": self.s_max,
            "q_set": list(self.q_set),
            "detrend_order": self.detrend_order,
            "garch_mode": self.garch_mode,
            "stamp": self.stamp,
        }


@dataclass(frozen=True)
class WindowResult:
    """Per-window outputs, stamped with one date of the window (last by default)."""

    date: dt.date
    hurst: float
    log_intercept: float
    stderr_hurst: float
    r_squared: float
    indicators: LiquidityIndicators = field(repr=False)
    garch_converged: bool = True

    def to_dict(self) -> dict:
        return {
            "date": self.date.isoformat(),
            "hurst": float(self.hurst),
            "stderr_hurst": float(self.stderr_hurst),
            "r_squared": float(self.r_squared),
            **self.indicators.to_dict(),
            "garch_converged": bool(self.garch_converged),
        }


@dataclass(frozen=True)
class RegimeRun:
    """A maximal run of consecutive windows on one side of the threshold."""

    start: dt.date
    end: dt.date
    label: str
    n_windows: int


def _stamp_date(dates, start_idx: int, window: int, stamp: str) -> dt.date:
    if stamp == "end":
        return dates[start_idx + window - 1]
    if stamp == "start":
        return dates[start_idx]
    return dates[start_idx + (window - 1) // 2]


def _analyze_values(values, date, config: RollingConfig, converged: bool) -> WindowResult:
    results = mfdfa(values, config.scales(), config.q_set, config.detrend_order)
    fp, fit = results[2.0]
    return WindowResult(
        date=date,
        hurst=fit.hurst,
        log_intercept=fit.log_intercept,
        stderr_hurst=fit.stderr_hurst,
        r_squared=fit.r_squared,
        indicators=liquidity_indicators(fp, fit),
        garch_converged=converged,
    )


def _shared_segment_windows(values: np.ndarray, starts: np.ndarray, config: RollingConfig):
    """Scaling fit and indicators of every window of ``values`` in one pass per scale.

    Over one segment, a window's profile differs from the running sum
    of the values started at the segment's first point only by a
    constant plus a linear term.  Detrending of order >= 1 removes both,
    so a segment's squared fluctuation depends only on its absolute
    start and its scale, not on the window.  Each scale's fluctuations
    are computed once for every start position, then gathered into each
    window's forward and backward segments in ``mfdfa``'s order.  The
    running sums stay at the size of one segment, so their rounding
    is no larger than that of ``mfdfa``'s per-window profile.

    Returns (hurst, log_intercept, stderr_hurst, r_squared, f0, f_sigma,
    f_range, f_ratio), one array entry per window; raises the same
    InputError as ``mfdfa`` + ``liquidity_indicators`` on a degenerate
    window.
    """
    w = config.window
    scales = np.asarray(config.scales())
    steps = values - values.mean()
    # changes[t]: how many of values[1..t] differ from their predecessor
    changes = np.concatenate(([0], np.cumsum(values[1:] != values[:-1])))
    has_zero = np.zeros(starts.size, dtype=bool)
    fq = {q: np.empty((starts.size, scales.size)) for q in config.q_set}
    for j, s in enumerate(scales):
        x = np.arange(s, dtype=float)
        basis = np.linalg.qr(np.vander(x, config.detrend_order + 1, increasing=True))[0]
        # row a: the profile over [a, a + s) up to a constant
        segments = np.cumsum(sliding_window_view(steps, s), axis=1)
        residuals = segments - (segments @ basis) @ basis.T
        f2_at = np.mean(residuals**2, axis=1)
        # Over a run of equal values the profile is a straight line with
        # zero residual, which the running sums reproduce only up to
        # rounding; make it exact, so a window of equal values is
        # rejected as degenerate just as mfdfa rejects it.
        f2_at[changes[s - 1 :] == changes[1 : changes.size - s + 2]] = 0.0
        k = np.arange(w // s)
        f2 = f2_at[starts[:, None] + np.concatenate([k * s, w - (k + 1) * s])]
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
        # report the error of the first bad window, as the per-window path does
        for i in range(starts.size):
            check(i)
    hurst, intercept, r_squared, stderr = _fit_loglog(scales, fq[2.0])
    return (
        hurst,
        intercept,
        stderr,
        r_squared,
        *_indicator_rows(scales, fq[2.0], hurst, intercept),
    )


def roll(returns: ReturnSeries, config: RollingConfig = RollingConfig()) -> list[WindowResult]:
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
    dates = [_stamp_date(returns.dates, i, w, config.stamp) for i in starts]

    if config.garch_mode == "per-window":
        results = []
        for i, date in zip(starts, dates):
            window_values = returns.values[i : i + w]
            try:
                fit = garch_fit(window_values)
                values = window_values / np.sqrt(fit.h)
                converged = fit.converged
            except (InputError, NumericalError):
                values = window_values
                converged = False
            results.append(_analyze_values(values, date, config, converged))
        return results

    fit = garch_fit(returns.values)
    filtered = returns.values / np.sqrt(fit.h)
    if config.detrend_order == 0:
        return [
            _analyze_values(filtered[i : i + w], date, config, fit.converged)
            for i, date in zip(starts, dates)
        ]
    columns = (a.tolist() for a in _shared_segment_windows(filtered, starts, config))
    return [
        WindowResult(
            date=date,
            hurst=hurst,
            log_intercept=intercept,
            stderr_hurst=stderr,
            r_squared=r_squared,
            indicators=LiquidityIndicators(f0=f0, f_sigma=sigma, f_range=spread, f_ratio=ratio),
            garch_converged=fit.converged,
        )
        for date, hurst, intercept, stderr, r_squared, f0, sigma, spread, ratio in zip(
            dates, *columns
        )
    ]


def detect_regimes(results, threshold: float) -> list[RegimeRun]:
    """Merge consecutive windows into runs below/above the Hurst threshold.

    Windows with hurst < threshold are labeled "below", the rest "above";
    adjacent windows with equal labels join one run.
    """
    results = list(results)
    if not results:
        raise InputError("no window results")
    runs: list[RegimeRun] = []
    run_start = 0
    current = "below" if results[0].hurst < threshold else "above"
    for idx in range(1, len(results) + 1):
        label = None
        if idx < len(results):
            label = "below" if results[idx].hurst < threshold else "above"
        if label != current:
            runs.append(
                RegimeRun(
                    start=results[run_start].date,
                    end=results[idx - 1].date,
                    label=current,
                    n_windows=idx - run_start,
                )
            )
            run_start = idx
            current = label
    return runs


def write_rolling_csv(results, path) -> None:
    """One row per window: date, fit diagnostics, indicators, GARCH flag."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(ROLLING_CSV_COLUMNS) + "\n")
        for res in results:
            row = res.to_dict()
            fh.write(
                ",".join(
                    row["date"]
                    if col == "date"
                    else ("true" if row[col] else "false")
                    if col == "garch_converged"
                    else repr(row[col])
                    for col in ROLLING_CSV_COLUMNS
                )
                + "\n"
            )


def write_rolling_jsonl(results, path) -> None:
    """JSON-lines variant of the rolling output, identical fields."""
    with open(path, "w", encoding="utf-8") as fh:
        for res in results:
            fh.write(json.dumps(res.to_dict()) + "\n")


def read_rolling_csv(path) -> list[WindowResult]:
    """Read back a rolling CSV produced by write_rolling_csv."""
    try:
        fh = open(path, newline="", encoding="utf-8")
    except FileNotFoundError:
        raise InputError(f"file not found: {path}") from None
    results = []
    with fh:
        reader = csv.DictReader(fh)
        missing = set(ROLLING_CSV_COLUMNS) - set(reader.fieldnames or ())
        if missing:
            raise InputError(f"{path}: missing columns {sorted(missing)}")
        for row in reader:
            try:
                results.append(
                    WindowResult(
                        date=dt.date.fromisoformat(row["date"]),
                        hurst=float(row["hurst"]),
                        # f0 = exp(log_intercept), so the intercept is recoverable
                        log_intercept=math.log(float(row["f0"])),
                        stderr_hurst=float(row["stderr_hurst"]),
                        r_squared=float(row["r_squared"]),
                        indicators=LiquidityIndicators(
                            f0=float(row["f0"]),
                            f_sigma=float(row["f_sigma"]),
                            f_range=float(row["f_range"]),
                            f_ratio=float(row["f_ratio"]),
                        ),
                        garch_converged=row["garch_converged"] == "true",
                    )
                )
            except (ValueError, InputError) as exc:
                raise InputError(f"{path}:{reader.line_num}: bad row ({exc})") from None
    if not results:
        raise InputError(f"{path}: no data rows")
    return results
