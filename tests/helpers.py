"""Shared oracle helpers for the test suite.

The naive DFA implementation here deliberately avoids the vectorized
projection used by the library: segments are materialized one at a time
and the linear detrend is solved through the explicit 2x2 normal
equations, so agreement between the two is a real cross-check rather
than the same arithmetic twice.
"""
from __future__ import annotations

import datetime as dt
import itertools
import math
from unittest import mock

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from hurstscan import (
    InputError,
    NumericalError,
    PriceSeries,
    ReturnSeries,
    RollingResult,
    garch_fit,
    ingest,
    liquidity_indicators,
    mfdfa,
    synthetic_dates,
)
from hurstscan.rolling import ROLLING_CSV_COLUMNS
from hurstscan.scaling import (
    _power_means,
    _residual_f2,
    _run_marker,
    _segment_starts,
    _unit_scaled,
    _zero_flat,
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


def naive_mfdfa(series, scales, qs, order: int) -> dict[float, tuple[list[float], float, float]]:
    """MF-DFA one segment at a time, the oracle for ``mfdfa``: {q: (F_q per scale, H, r^2)}.

    Each segment's trend is fitted by ``np.linalg.lstsq`` on the abscissa
    centred and scaled to [-1, 1]; sums run through ``math.fsum``.  The
    segments are cut forward from the head and backward from the tail,
    and ln F_q is fitted on ln s by ordinary least squares.  Segments
    that detrend to exactly zero are not special-cased: the oracle is
    for series with no flat stretch.
    """
    x = [float(v) for v in series]
    mean = math.fsum(x) / len(x)
    profile = list(itertools.accumulate(v - mean for v in x))
    t_len = len(profile)
    out = {}
    f2_by_scale = []
    for s in scales:
        half = (s - 1) / 2.0
        basis = np.vander([(k - half) / half for k in range(s)], order + 1)
        starts = [i * s for i in range(t_len // s)]
        starts += [t_len - (j + 1) * s for j in range(t_len // s)]
        f2 = []
        for a in starts:
            segment = np.array(profile[a : a + s])
            coef = np.linalg.lstsq(basis, segment, rcond=None)[0]
            residuals = (segment - basis @ coef).tolist()
            f2.append(math.fsum(r * r for r in residuals) / s)
        f2_by_scale.append(f2)
    log_s = [math.log(s) for s in scales]
    mx = math.fsum(log_s) / len(log_s)
    sxx = math.fsum((a - mx) ** 2 for a in log_s)
    for q in qs:
        fq = [(math.fsum(v ** (q / 2.0) for v in f2) / len(f2)) ** (1.0 / q) for f2 in f2_by_scale]
        log_f = [math.log(v) for v in fq]
        my = math.fsum(log_f) / len(log_f)
        slope = math.fsum((a - mx) * (b - my) for a, b in zip(log_s, log_f)) / sxx
        ssr = math.fsum((b - my - slope * (a - mx)) ** 2 for a, b in zip(log_s, log_f))
        sst = math.fsum((b - my) ** 2 for b in log_f)
        out[q] = (fq, slope, 1.0 - ssr / sst)
    return out


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


def reference_roll(series: ReturnSeries, config) -> RollingResult:
    """Rolling analysis one window at a time through mfdfa.

    The oracle for roll()'s window kernel.  In whole-sample mode GARCH
    is fitted once and every window slices the filtered series; in
    per-window mode each window is fitted on its own, and a window whose
    fit raises is analyzed on its raw values with converged=False.  Each
    window then goes through mfdfa and liquidity_indicators; the first
    window that fails raises their InputError, prefixed with the
    window's number and date.
    """
    w = config.window
    offset = {"end": w - 1, "start": 0, "center": (w - 1) // 2}[config.stamp]
    if config.garch_mode == "whole-sample":
        fit = garch_fit(series.values)
        filtered = series.values / np.sqrt(fit.h)
    rows = []
    for k, i in enumerate(range(0, len(series) - w + 1, config.step)):
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
        date = series.dates[i + offset]
        try:
            results = mfdfa(values, config.scales(), (2.0,), config.detrend_order)
            fp, scaling_fit = results[2.0]
            ind = liquidity_indicators(fp, scaling_fit)
        except InputError as exc:
            raise InputError(f"window {k} ({date}): {exc}") from exc
        rows.append(
            (
                date,
                scaling_fit.hurst,
                scaling_fit.stderr_hurst,
                scaling_fit.r_squared,
                ind.f0,
                ind.f_sigma,
                ind.f_range,
                ind.f_ratio,
                converged,
            )
        )
    return RollingResult(*(list(column) for column in zip(*rows)))


def assert_results_close(got, want, rel: float = 1e-12) -> None:
    """Equal dates and GARCH flags; every float column within ``rel`` relative.

    A value is compared relative to the larger of its own size and the
    size of what it is computed from.  The log-log fit statistics
    (hurst, stderr_hurst, r_squared) are of order 1 and come from
    differences of ln F(s); f_sigma and f_range are spreads of R(s),
    which is of order f0**2.  Near a perfect or a useless fit, or near
    exact scaling, these values are differences of nearly equal numbers
    and carry rounding error of their inputs' size, not their own: with
    3 scales, ln F(s) differing in the 16th digit moves stderr_hurst by
    ~1e-15 even when stderr_hurst itself is 1e-4.  The fit's intercept
    is not a column; f0 = exp(intercept) within ``rel`` relative bounds
    it to ``rel`` absolute.
    """
    assert len(got) == len(want)
    assert got.date == want.date
    np.testing.assert_array_equal(got.garch_converged, want.garch_converged)
    spread_scale = np.maximum(got.f0, want.f0) ** 2
    floor = {
        "hurst": 1.0,
        "stderr_hurst": 1.0,
        "r_squared": 1.0,
        "f_sigma": spread_scale,
        "f_range": spread_scale,
    }
    for key in ROLLING_CSV_COLUMNS[1:-1]:
        x, y = getattr(got, key), getattr(want, key)
        scale = np.maximum(np.maximum(np.abs(x), np.abs(y)), floor.get(key, 0.0))
        bad = np.flatnonzero(~(np.abs(x - y) <= rel * scale))
        assert bad.size == 0, [(k, key, x[k], y[k]) for k in bad[:3]]


def per_scale_shared_f2(values, starts, window, scales, order):
    """``scaling._shared_f2`` by a projection per scale, a gather per window and the power means.

    The reference for the per-start recursion and the strided sums: at
    each scale s the segments are ``cumsum(sliding_window_view(steps, s),
    axis=1)``, an (n - s + 1) x s array detrended by ``_residual_f2`` in
    one matmul; each window's segments are gathered by fancy indexing,
    and ``_power_means`` averages them at q = 2.  The arithmetic differs
    from ``_shared_f2``'s, so the two agree to rounding, with the same
    exact zeros of ``_zero_flat``.  Returns F_2, (windows x scales).
    """
    steps, e = _unit_scaled(values)
    marker = _run_marker(values)
    fq = []
    for s in scales:
        segments = np.cumsum(sliding_window_view(steps, s), axis=1)
        f2_at = _residual_f2(segments, order)
        _zero_flat(f2_at, marker, s, order, np.arange(f2_at.size))
        gathered = f2_at[starts[:, None] + _segment_starts(window, s)]
        (mean,) = _power_means(gathered, (2.0,), [0])
        fq.append(mean[:, 0])
    return np.ldexp(np.stack(fq, axis=-1), e)


def expected_f2(gamma, window: int, scales, order: int) -> np.ndarray:
    """E[F_2(s)**2] of one window of a stationary Gaussian process, exact, one value per scale.

    ``gamma`` holds the process' autocovariance at lags 0..window - 1.
    The window's profile is y = L x, the running sum of the demeaned
    values, so its covariance is C = L Sigma L^T with Sigma the Toeplitz
    matrix of ``gamma``.  A segment's f2 is |P y_seg|**2 / s, with P the
    projection that removes the polynomials of degree <= order (the
    span of ``_detrend_basis(s, order)``, here from a QR factorization
    of their Vandermonde matrix, so that no library arithmetic enters),
    so its mean is tr(P C_seg P) / s.  F_2(s)**2 is the mean of the
    window's 2 (window // s) segment f2, so its expectation is the mean
    of theirs: exact at finite window and scale (Höll & Kantz, Eur.
    Phys. J. B 88, 2015).
    """
    lag = np.abs(np.subtract.outer(np.arange(window), np.arange(window)))
    cov = np.asarray(gamma, dtype=float)[lag]
    running = np.tril(np.ones((window, window)))
    # L = T (I - 1 1^T / w) with T the running sum: row i of T 1 1^T is i + 1
    lmat = running - running.sum(axis=1, keepdims=True) / window
    c = lmat @ cov @ lmat.T
    out = []
    for s in scales:
        basis, _ = np.linalg.qr(np.vander(np.arange(s, dtype=float), order + 1))
        idx = _segment_starts(window, s)[:, None] + np.arange(s)
        blocks = c[idx[:, :, None], idx[:, None, :]]
        # tr(P C P) = tr(C) - tr(B^T C B) for P = I - B B^T
        kept = np.einsum("ia,kij,jb->kab", basis, blocks, basis).trace(axis1=1, axis2=2)
        out.append(np.mean(np.trace(blocks, axis1=1, axis2=2) - kept) / s)
    return np.array(out)


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


def read_outcome(read, *args):
    """What ``read(*args)`` gives: its result's fields, arrays as bytes, or its error text."""
    try:
        result = read(*args)
    except InputError as exc:
        return str(exc)
    return {
        name: value.tobytes() if isinstance(value, np.ndarray) else value
        for name, value in vars(result).items()
    }


def assert_block_size_free(read, *args, sizes=(1, 2, 3, 7)) -> None:
    """``read(*args)`` gives the same result, or the same error, at each CSV reader block size."""
    want = read_outcome(read, *args)
    for size in sizes:
        with mock.patch.object(ingest, "_BLOCK_ROWS", size):
            assert read_outcome(read, *args) == want, size
