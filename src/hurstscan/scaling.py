"""Multifractal detrended fluctuation analysis (MF-DFA).

Implements the standard MF-DFA procedure of Kantelhardt et al. (2002):
cumulate the demeaned series into a profile, split the profile into
segments of length s (from the front and from the back, so no
observation is dropped when the length is not a multiple of s), remove
a least-squares polynomial trend from every segment, and average the
squared residuals across segments with a power mean of order q.  The
average fluctuations F_q(s) follow a power law in s whose log-log slope
is the generalized Hurst exponent H(q).
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .exceptions import InputError

__all__ = [
    "FluctuationProfile",
    "ScalingFit",
    "build_profile",
    "segment_fluctuations",
    "average_fluctuation",
    "fit_scaling",
    "mfdfa",
]


def _check_fluctuations(fq) -> None:
    """Reject any F_q(s) that is non-finite or not positive, in an array of any shape."""
    if not np.all(np.isfinite(fq)) or np.any(fq <= 0):
        raise InputError(
            "fluctuations must be finite and positive; "
            "zero fluctuation indicates a degenerate (e.g. constant) input series"
        )


def _check_qs(qs) -> tuple[float, ...]:
    """The moment orders as floats: a non-empty set of finite q != 0."""
    q_set = tuple(map(float, qs))
    if not q_set:
        raise InputError("empty q set")
    if 0.0 in q_set:
        raise InputError("q = 0 is not supported")
    if not all(map(math.isfinite, q_set)):
        raise InputError(f"q must be finite, got {list(q_set)}")
    return q_set


def _check_scale_range(s_min: int, s_max: int, order: int, length: int) -> None:
    """Every scale s of a series of ``length`` points needs order + 2 <= s <= length // 4."""
    if not order >= 0:
        raise InputError("polynomial order must be non-negative")
    if not (order + 2 <= s_min and s_max <= length // 4):
        raise InputError(
            f"scales {s_min}..{s_max} out of range [{order + 2}, {length // 4}] "
            f"for series length {length}"
        )


@dataclass(frozen=True)
class FluctuationProfile:
    """Average fluctuations F_q(s) over a set of scales for one moment order q."""

    q: float
    scales: np.ndarray
    fq: np.ndarray

    def __post_init__(self):
        scales = np.asarray(self.scales, dtype=int)
        fq = np.asarray(self.fq, dtype=float)
        if scales.ndim != 1 or fq.shape != scales.shape:
            raise InputError("scales and fq must be 1-d arrays of equal length")
        if scales.size == 0:
            raise InputError("empty scale set")
        if np.any(np.diff(scales) <= 0):
            raise InputError("scales must be strictly increasing")
        _check_fluctuations(fq)
        object.__setattr__(self, "scales", scales)
        object.__setattr__(self, "fq", fq)

    def to_dict(self) -> dict:
        return {
            "q": float(self.q),
            "scales": [int(s) for s in self.scales],
            "fq": [float(f) for f in self.fq],
        }

    def write_csv(self, path) -> None:
        """Write the (s, F_q(s)) pairs as a two-column CSV with header ``s,fq``."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("s,fq\n")
            for s, f in zip(self.scales, self.fq):
                fh.write(f"{int(s)},{float(f)!r}\n")


@dataclass(frozen=True)
class ScalingFit:
    """OLS fit of ln F_q(s) on ln s: slope is H(q), intercept the log prefactor."""

    q: float
    hurst: float
    log_intercept: float
    r_squared: float
    stderr_hurst: float

    def to_dict(self) -> dict:
        return {
            "q": float(self.q),
            "hurst": float(self.hurst),
            "log_intercept": float(self.log_intercept),
            "r_squared": float(self.r_squared),
            "stderr_hurst": float(self.stderr_hurst),
        }


def build_profile(series) -> np.ndarray:
    """Cumulative sum of the demeaned series.

    The profile integrates the (stationary) input once, turning e.g.
    noise with Hurst exponent H into a random-walk-like signal whose
    detrended fluctuations scale as s**H.
    """
    x = np.asarray(series, dtype=float)
    if x.ndim != 1 or x.size < 2:
        raise InputError("series must be one-dimensional with at least 2 points")
    if not np.all(np.isfinite(x)):
        raise InputError("series contains non-finite values")
    return np.cumsum(x - x.mean())


def segment_fluctuations(profile, s: int, order: int = 1) -> np.ndarray:
    """Per-segment mean squared detrending residuals at scale s.

    The profile is cut into floor(T/s) non-overlapping segments starting
    from the beginning and another floor(T/s) starting from the end, so
    both tails of a series whose length is not a multiple of s are
    covered.  Each segment is detrended by a least-squares polynomial of
    the given order; the segment's fluctuation is the mean of the squared
    residuals.

    Returns an array of 2*floor(T/s) squared fluctuations: the forward
    segments in order, then the backward segments (the j-th backward
    segment covers [T-(j+1)*s, T-j*s)).
    """
    prof = np.asarray(profile, dtype=float)
    t = prof.size
    s = int(s)
    order = int(order)
    _check_scale_range(s, s, order, t)
    ns = t // s
    forward = prof[: ns * s].reshape(ns, s)
    backward = prof[t - ns * s :].reshape(ns, s)[::-1]
    segments = np.concatenate([forward, backward])

    # Orthonormal polynomial basis on the segment abscissa: residuals via
    # projection, one matmul for all segments at a fixed scale.
    x = np.arange(s, dtype=float)
    basis = np.linalg.qr(np.vander(x, order + 1, increasing=True))[0]
    residuals = segments - (segments @ basis) @ basis.T
    return np.mean(residuals**2, axis=1)


def average_fluctuation(segment_f2, q: float) -> float:
    """Power mean of order q across segments: F_q(s) = (mean (F^2)^(q/2))^(1/q).

    q = 0 (logarithmic averaging) is rejected; for q < 0 any exactly-zero
    segment fluctuation is rejected as well, since it would blow up the
    negative power.
    """
    f2 = np.asarray(segment_f2, dtype=float)
    if f2.size == 0:
        raise InputError("no segment fluctuations to average")
    if np.any(f2 < 0):
        raise InputError("squared fluctuations must be non-negative")
    (q,) = _check_qs((q,))
    if q < 0 and np.any(f2 == 0.0):
        raise InputError("zero segment fluctuation with negative q")
    return float(np.mean(f2 ** (q / 2.0)) ** (1.0 / q))


def fit_scaling(fp: FluctuationProfile) -> ScalingFit:
    """Ordinary least squares of ln F_q(s) on ln s.

    Slope is the estimated generalized Hurst exponent, intercept the log
    of the scaling prefactor; the slope standard error uses the usual
    OLS formula with n - 2 degrees of freedom.
    """
    if fp.scales.size < 3:
        raise InputError("need at least 3 scales to fit")
    slope, intercept, r_squared, stderr = _fit_loglog(fp.scales, fp.fq)
    return ScalingFit(
        q=fp.q,
        hurst=float(slope),
        log_intercept=float(intercept),
        r_squared=float(r_squared),
        stderr_hurst=float(stderr),
    )


def _fit_loglog(scales, fq):
    """OLS of ln F on ln s along the last axis of ``fq``.

    Returns (slope, intercept, r_squared, stderr_slope), each with the
    leading shape of ``fq``: one window's F_q(s) gives scalars, a
    (windows x scales) array gives one fit per row.
    """
    x = np.log(np.asarray(scales, dtype=float))
    y = np.log(fq)
    dx = x - x.mean()
    sxx = np.sum(dx * dx)
    y_mean = y.mean(axis=-1, keepdims=True)
    dy = y - y_mean
    slope = np.sum(dx * dy, axis=-1, keepdims=True) / sxx
    intercept = y_mean - slope * x.mean()
    resid = y - (intercept + slope * x)
    ssr = np.sum(resid * resid, axis=-1)
    sst = np.sum(dy * dy, axis=-1)
    with np.errstate(divide="ignore", invalid="ignore"):
        r_squared = np.where(sst > 0.0, 1.0 - ssr / sst, 1.0)
    stderr = np.sqrt(ssr / (x.size - 2) / sxx)
    return slope[..., 0], intercept[..., 0], r_squared, stderr


def mfdfa(
    series,
    scales: Sequence[int],
    qs: Iterable[float] = (2.0,),
    order: int = 1,
) -> dict[float, tuple[FluctuationProfile, ScalingFit]]:
    """Full MF-DFA: fluctuation profile and scaling fit for every q.

    Parameters
    ----------
    series : array-like
        The (stationary) series to analyze, e.g. filtered returns.
    scales : sequence of int
        Segment lengths; the series must be at least 4 times the largest.
    qs : iterable of float
        Moment orders; each must be finite and q = 0 is rejected.
    order : int
        Detrending polynomial order (1 = linear).

    Returns
    -------
    dict mapping q to a (FluctuationProfile, ScalingFit) pair.
    """
    scale_arr = np.unique(np.asarray(list(scales), dtype=int))
    if scale_arr.size == 0:
        raise InputError("empty scale set")
    q_list = _check_qs(qs)
    x = np.asarray(series, dtype=float)
    _check_scale_range(int(scale_arr[0]), int(scale_arr[-1]), order, x.size)
    prof = build_profile(x)

    seg_f2 = [segment_fluctuations(prof, int(s), order) for s in scale_arr]
    out: dict[float, tuple[FluctuationProfile, ScalingFit]] = {}
    for q in q_list:
        fq = np.array([average_fluctuation(f2, q) for f2 in seg_f2])
        fp = FluctuationProfile(q=q, scales=scale_arr, fq=fq)
        out[q] = (fp, fit_scaling(fp))
    return out

