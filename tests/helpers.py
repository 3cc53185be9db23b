"""Shared oracle helpers for the test suite.

The naive DFA implementation here deliberately avoids the vectorized
projection used by the library: segments are materialized one at a time
and the linear detrend is solved through the explicit 2x2 normal
equations, so agreement between the two is a real cross-check rather
than the same arithmetic twice.
"""
from __future__ import annotations

import datetime as dt

import numpy as np

from hurstscan import (
    InputError,
    NumericalError,
    ReturnSeries,
    WindowResult,
    garch_fit,
    liquidity_indicators,
    mfdfa,
    synthetic_dates,
)

# filled by test_acceptance, printed by the conftest terminal-summary hook
ACCEPTANCE_LINES: list[str] = []


def naive_segment_fluctuations(profile, s: int) -> np.ndarray:
    """Per-segment mean squared residual about a least-squares line.

    Forward segments from the head, backward segments from the tail in
    the same order the library emits them.
    """
    prof = np.asarray(profile, dtype=float)
    t = prof.size
    ns = t // s
    x = np.arange(s, dtype=float)
    sx = x.sum()
    sxx = (x * x).sum()
    det = s * sxx - sx * sx

    def one(seg):
        sy = seg.sum()
        sxy = (x * seg).sum()
        slope = (s * sxy - sx * sy) / det
        intercept = (sy - slope * sx) / s
        resid = seg - intercept - slope * x
        return float(np.mean(resid * resid))

    forward = [one(prof[i * s : (i + 1) * s]) for i in range(ns)]
    backward = [one(prof[t - (j + 1) * s : t - j * s]) for j in range(ns)]
    return np.array(forward + backward)


def lag1_autocorr(x) -> float:
    x = np.asarray(x, dtype=float)
    d = x - x.mean()
    return float(np.dot(d[1:], d[:-1]) / np.dot(d, d))


def sample_kurtosis(x) -> float:
    x = np.asarray(x, dtype=float)
    d = x - x.mean()
    return float(np.mean(d**4) / np.mean(d**2) ** 2)


def make_return_series(values, start: dt.date = dt.date(2000, 1, 3)) -> ReturnSeries:
    values = np.asarray(values, dtype=float)
    return ReturnSeries(dates=synthetic_dates(values.size, start), values=values)


def reference_roll(series: ReturnSeries, config) -> list[WindowResult]:
    """Rolling analysis one window at a time through mfdfa.

    The oracle for roll()'s window kernel.  In whole-sample mode GARCH
    is fitted once and every window slices the filtered series; in
    per-window mode each window is fitted on its own, and a window whose
    fit raises is analyzed on its raw values with converged=False.  Each
    window then goes through mfdfa and liquidity_indicators.
    """
    w = config.window
    offset = {"end": w - 1, "start": 0, "center": (w - 1) // 2}[config.stamp]
    if config.garch_mode == "whole-sample":
        fit = garch_fit(series.values)
        filtered = series.values / np.sqrt(fit.h)
    results = []
    for i in range(0, len(series) - w + 1, config.step):
        if config.garch_mode == "whole-sample":
            values, converged = filtered[i : i + w], fit.converged
        else:
            values = series.values[i : i + w]
            try:
                window_fit = garch_fit(values)
            except (InputError, NumericalError):
                converged = False
            else:
                values, converged = values / np.sqrt(window_fit.h), window_fit.converged
        fp, scaling_fit = mfdfa(values, config.scales(), config.q_set, config.detrend_order)[2.0]
        results.append(
            WindowResult(
                date=series.dates[i + offset],
                hurst=scaling_fit.hurst,
                log_intercept=scaling_fit.log_intercept,
                stderr_hurst=scaling_fit.stderr_hurst,
                r_squared=scaling_fit.r_squared,
                indicators=liquidity_indicators(fp, scaling_fit),
                garch_converged=converged,
            )
        )
    return results


def assert_results_close(got, want, rel: float = 1e-12) -> None:
    """Equal dates and GARCH flags; every float field within ``rel`` relative.

    A field is compared relative to the larger of its own size and the
    size of what it is computed from.  The log-log fit statistics
    (hurst, log_intercept, stderr_hurst, r_squared) are of order 1 and
    come from differences of ln F(s); f_sigma and f_range are spreads of
    R(s), which is of order f0**2.  Near a perfect or a useless fit, or
    near exact scaling, these fields are differences of nearly equal
    numbers and carry rounding error of their inputs' size, not their
    own: with 3 scales, ln F(s) differing in the 16th digit moves
    stderr_hurst by ~1e-15 even when stderr_hurst itself is 1e-4.
    """
    assert len(got) == len(want)
    for k, (a, b) in enumerate(zip(got, want)):
        da = {**a.to_dict(), "log_intercept": a.log_intercept}
        db = {**b.to_dict(), "log_intercept": b.log_intercept}
        assert da.keys() == db.keys()
        spread_scale = max(da["f0"], db["f0"]) ** 2
        floor = {
            "hurst": 1.0,
            "log_intercept": 1.0,
            "stderr_hurst": 1.0,
            "r_squared": 1.0,
            "f_sigma": spread_scale,
            "f_range": spread_scale,
        }
        for key, x in da.items():
            y = db[key]
            if isinstance(y, float):
                scale = max(abs(x), abs(y), floor.get(key, 0.0))
                assert abs(x - y) <= rel * scale, (k, key, x, y)
            else:
                assert x == y, (k, key, x, y)
