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

import functools
import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .exceptions import InputError
from .ingest import _FLOAT, _INT, _write_table

__all__ = [
    "FluctuationProfile",
    "ScalingFit",
    "build_profile",
    "segment_fluctuations",
    "average_fluctuation",
    "fit_scaling",
    "mfdfa",
]

_FLOAT_MAX = float(np.finfo(float).max)
# a row's powers f2**(q/2) are left as they are while its largest term
# lies within 2**+-_POWER_BITS: sums of such terms stay normal and finite
_POWER_BITS = 512


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


def _is_integer(value) -> bool:
    """The one rule for whole-number parameters: an int or a numpy integer, never a float."""
    return isinstance(value, (int, np.integer))


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
        _write_table(path, [(_INT, self.scales), (_FLOAT, self.fq)], ("s", "fq"))


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
    s = int(s)
    order = int(order)
    _check_scale_range(s, s, order, prof.size)
    _check_square_range(max(prof.max(), -prof.min()), s)
    return _residual_f2(_cut_segments(prof, s), order)


def _cut_segments(profiles, s: int) -> np.ndarray:
    """Each profile's (last axis) forward then backward segments of length s.

    The order is ``segment_fluctuations``'s; the segments are the
    second-to-last axis of the result.
    """
    t = profiles.shape[-1]
    shape = (*profiles.shape[:-1], t // s, s)
    forward = profiles[..., : shape[-2] * s].reshape(shape)
    backward = profiles[..., t - shape[-2] * s :].reshape(shape)[..., ::-1, :]
    return np.concatenate([forward, backward], axis=-2)


def _check_square_range(largest, s_max: int) -> None:
    """Reject profile values up to ``largest`` whose squares, summed over s_max points, overflow.

    A segment's residual sum of squares is at most that of its profile
    values, so this bounds every detrending step.  It must run before
    them: the row sums of squares overflow to inf without a warning.
    """
    largest = float(largest)
    # twice the sum leaves room for rounding
    if not 2.0 * s_max * largest * largest <= _FLOAT_MAX:
        raise InputError(
            f"series too large: profile values up to {largest:.3g} square beyond "
            f"the floating-point range (largest float {_FLOAT_MAX:.3g})"
        )


def _detrend_basis(s: int, order: int) -> np.ndarray:
    """Orthonormal basis (s x (order + 1)) of the polynomials of degree <= order on s points.

    The Gram polynomials on the centred abscissa t = k - (s-1)/2, from
    their three-term recurrence t p_k = b_(k+1) p_(k+1) + b_k p_(k-1)
    with b_k**2 = k**2 (s**2 - k**2) / (4 (4 k**2 - 1)); the abscissa is
    symmetric, so the recurrence has no diagonal term.
    """
    t = np.arange(s) - (s - 1) / 2.0
    rows = np.empty((order + 1, s))
    rows[0] = 1.0 / math.sqrt(s)
    b = 0.0
    for k in range(1, order + 1):
        b_next = math.sqrt(k * k * (s * s - k * k) / (4.0 * (4 * k * k - 1)))
        rows[k] = t * rows[k - 1]
        if k > 1:
            rows[k] -= b * rows[k - 2]
        rows[k] /= b_next
        b = b_next
    return rows.T


def _residual_f2(segments, order: int) -> np.ndarray:
    """Mean squared residual of each segment (last axis) about its least-squares polynomial.

    Residuals by projection on an orthonormal polynomial basis, one
    matmul for all segments at a fixed scale.  Each row's sum of squares
    runs along that row alone, so a row's result does not depend on the
    rows around it.
    """
    s = segments.shape[-1]
    basis = _detrend_basis(s, order)
    # in place: a fresh full-size temporary per step and scale costs page
    # faults whenever the allocator has handed the pages back in between
    residuals = (segments @ basis) @ basis.T
    np.subtract(segments, residuals, out=residuals)
    return np.einsum("...i,...i->...", residuals, residuals) / s


def _segment_starts(length: int, s: int) -> np.ndarray:
    """First profile position of each segment of a series, in segment_fluctuations' order."""
    k = np.arange(length // s)
    return np.concatenate([k * s, length - (k + 1) * s])


def _run_marker(x) -> np.ndarray | None:
    """marker[..., t]: how many of x[..., 1..t+1] differ from their predecessor.

    One per series (or row of series), read by ``_zero_flat`` at every
    scale; None when no two neighbours are equal, so nothing is flat.
    """
    changes = x[..., 1:] != x[..., :-1]
    return None if changes.all() else np.cumsum(changes, axis=-1)


def _zero_flat(f2, marker, s: int, order: int, starts=None):
    """Set f2 = 0 exactly, in place, on segments whose profile detrending removes.

    Over x[a+1] = ... = x[a+s-1] the profile of the segment starting at
    a is a straight line, which order >= 1 removes up to rounding noise
    that would pass for a tiny fluctuation.  A constant series is flat
    for every order.  ``starts`` default to ``segment_fluctuations``'s.
    """
    if marker is None:
        return f2
    if starts is None:
        starts = _segment_starts(marker.shape[-1] + 1, s)
    flat = marker[..., -1:] == 0
    if order >= 1:
        flat = flat | (marker[..., starts + s - 2] == marker[..., starts])
    f2[np.broadcast_to(flat, f2.shape)] = 0.0
    return f2


def average_fluctuation(segment_f2, q: float) -> float:
    """Power mean of order q across segments: F_q(s) = (mean (F^2)^(q/2))^(1/q).

    q = 0 (logarithmic averaging) is rejected; for q < 0 any exactly-zero
    segment fluctuation is rejected as well, since it would blow up the
    negative power.
    """
    f2 = np.asarray(segment_f2, dtype=float).ravel()
    if f2.size == 0:
        raise InputError("no segment fluctuations to average")
    if np.any(f2 < 0):
        raise InputError("squared fluctuations must be non-negative")
    (q,) = _check_qs((q,))
    (fq,), has_zero = _power_means(f2, (q,))
    _check_zero_rule(q, has_zero)
    return float(fq)


@functools.lru_cache(maxsize=8)
def _power_bound(qs) -> float:
    """2**(2 * _POWER_BITS / max|q|), capped at 2**1000.

    Every f2 within 2**+- that keeps each f2**(q/2) within 2**+-_POWER_BITS.
    """
    return 2.0 ** min(2.0 * _POWER_BITS / max(map(abs, qs)), 1000.0)


def _power_means(f2, qs):
    """F_q for each q over the last axis of ``f2``, and whether that axis holds a zero.

    The one power mean of ``average_fluctuation``, ``mfdfa`` and
    ``roll``: one scale's segments give one F_q per q, a (windows x
    segments) array one per window.  Nothing is checked here; a zero
    f2 gives F_q = 0 for q > 0 and inf for q < 0, which the callers
    reject with ``_check_zero_rule`` and ``_check_fluctuations``.

    A row far from unit scale would over- or underflow in the power, so
    a row whose largest f2 lies outside 2**+-(2 * _POWER_BITS / max|q|)
    is scaled by the even power of two 2**-2k that puts its largest f2
    in [0.5, 2), and its F_q by 2**k after.  Powers of two scale
    exactly, so F_q of x * 2**k is 2**k times F_q of x up to the
    rounding of the power, and every other row keeps its bits.
    """
    n = f2.shape[-1]
    # mfdfa calls this once per scale, often on a few dozen segments, so
    # fixed costs count: ufunc reductions without the method wrappers,
    # and whole-array extremes, which on ordinary data show that no f2
    # is zero and no row is far from unit scale
    smallest = np.minimum.reduce(f2, axis=None)
    largest = np.maximum.reduce(f2, axis=None)
    if smallest == 0.0:
        has_zero = (f2 == 0.0).any(axis=-1)
    else:
        has_zero = np.zeros(f2.shape[:-1], dtype=bool)
    bound = _power_bound(qs)
    half = None
    if largest > bound or smallest < 1.0 / bound:
        # decided row by row, so a row's F_q does not depend on the rows beside it
        largest = f2.max(axis=-1)
        far = (largest > bound) | (largest < 1.0 / bound)
        half = np.where(far, np.frexp(largest)[1] // 2, 0)
        f2 = np.ldexp(f2, -2 * half[..., None])
    with np.errstate(divide="ignore"):
        # sum / n: the bits of np.mean; at q = 2 the power is the
        # identity, so f2 is summed as it is
        fq = [
            (np.add.reduce(f2 if q == 2.0 else np.power(f2, q / 2.0), axis=-1) / n) ** (1.0 / q)
            for q in qs
        ]
    if half is not None:
        fq = [np.ldexp(fq_q, half) for fq_q in fq]
    return fq, has_zero


def _check_zero_rule(q: float, has_zero) -> None:
    """Negative q cannot average an exactly-zero segment fluctuation."""
    if q < 0 and np.any(has_zero):
        raise InputError("zero segment fluctuation with negative q")


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
    _check_square_range(max(prof.max(), -prof.min()), int(scale_arr[-1]))
    marker = _run_marker(x)

    fq = np.empty((len(q_list), scale_arr.size))
    has_zero = False
    for j, s in enumerate(scale_arr.tolist()):
        f2 = _zero_flat(_residual_f2(_cut_segments(prof, s), order), marker, s, order)
        means, zero = _power_means(f2, q_list)
        fq[:, j] = means
        has_zero |= zero
    out: dict[float, tuple[FluctuationProfile, ScalingFit]] = {}
    for q, fq_q in zip(q_list, fq):
        _check_zero_rule(q, has_zero)
        fp = FluctuationProfile(q=q, scales=scale_arr, fq=fq_q)
        out[q] = (fp, fit_scaling(fp))
    return out
