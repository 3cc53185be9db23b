"""Horizon-level trading-activity measures from variance scaling.

If variance scales exactly, the rescaled fluctuations
R(s) = F^2(s) / s^(2H) are the same constant at every horizon s.  How
far they spread is a gauge of how unevenly trading activity is
distributed across horizons: a calm market shows near-exact scaling,
a stressed one shows horizon dominance and dispersed R(s).

``liquidity_indicators`` condenses a q=2 fluctuation profile and its
scaling fit into one ``LiquidityIndicators`` record, whose four fields
are the measures:

* ``f0``      -- exp(log-intercept), the fitted fluctuation extrapolated
                 to the shortest horizon (numerically the fitted value
                 at s = 1);
* ``f_sigma`` -- sample standard deviation of R(s) across horizons (mean
                 over n horizons, squared deviations over n - 1);
* ``f_range`` -- max R(s) - min R(s);
* ``f_ratio`` -- max R(s) / min R(s), equal to 1 under exact scaling.

``rescale`` returns R(s) itself, one value per scale.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .exceptions import InputError
from .scaling import FluctuationProfile, ScalingFit, _even_halves, _float_fields

__all__ = ["LiquidityIndicators", "rescale", "liquidity_indicators"]

# a row's R(s) are left as they are while its largest lies within
# 2**+-256: their squared deviations then stay finite, summed over any
# number of scales, and normal down to the rounding of R(s)
_SPREAD_BOUND = 2.0**256
_SMALLEST_NORMAL = 2.0**-1022


def _check_has_q2(q_set) -> None:
    """The measures come from the q = 2 profile, so every q set must contain 2."""
    if 2.0 not in q_set:
        raise InputError("q set must include 2 (the liquidity measures need it)")


def _indicators_ok(f0, f_sigma, f_range, f_ratio):
    """The rule every set of indicators obeys, elementwise over scalars or arrays.

    All four are finite, f0 > 0, f_sigma >= 0, f_range >= 0 and
    f_ratio >= 1 up to rounding.
    """
    finite = np.isfinite(f0) & np.isfinite(f_sigma) & np.isfinite(f_range) & np.isfinite(f_ratio)
    return finite & (f0 > 0) & (f_sigma >= 0) & (f_range >= 0) & (f_ratio >= 1.0 - 1e-12)


@dataclass(frozen=True)
class LiquidityIndicators:
    f0: float
    f_sigma: float
    f_range: float
    f_ratio: float

    def __post_init__(self):
        if not _indicators_ok(self.f0, self.f_sigma, self.f_range, self.f_ratio):
            raise InputError("inconsistent indicator values")

    def to_dict(self) -> dict:
        return _float_fields(self)


def _rescale_rows(scales, fq, hurst) -> np.ndarray:
    """R(s) = F_2(s)^2 / s^(2*H) along the last axis of ``fq``, one H per row.

    R(s) is in squared units: one outside the normal float range raises, without a warning.
    """
    s = np.asarray(scales, dtype=float)
    with np.errstate(all="ignore"):
        r = fq**2 / s ** (2.0 * np.asarray(hurst, dtype=float)[..., None])
    if not np.all((r >= _SMALLEST_NORMAL) & (r < np.inf)):
        raise InputError(
            "rescaled fluctuations must be finite and positive normal floats; "
            "R(s) = F_2(s)^2 / s^(2H) leaves the floating-point range"
        )
    return r


def _spread_rows(r):
    """(f_sigma, f_range, f_ratio) of rescaled fluctuations along the last axis.

    The squared deviations of a row far from unit scale would over- or
    underflow, so a row whose largest R(s) lies outside 2**+-256 is
    scaled by 2**-2k, k from ``scaling._even_halves``, and its f_sigma
    and f_range by 2**2k after.
    """
    if r.shape[-1] < 2:
        raise InputError("need at least 2 scales")
    half = _even_halves(r.max(axis=-1), _SPREAD_BOUND)
    r = np.ldexp(r, -2 * half[..., None])
    hi, lo = r.max(axis=-1), r.min(axis=-1)
    dev = r - r.mean(axis=-1, keepdims=True)
    sigma = np.sqrt(np.sum(dev * dev, axis=-1) / (r.shape[-1] - 1))
    return np.ldexp(sigma, 2 * half), np.ldexp(hi - lo, 2 * half), hi / lo


def _indicator_rows(scales, fq, hurst, log_intercept):
    """(f0, f_sigma, f_range, f_ratio) for every row of q=2 fluctuations and its fit."""
    return (np.exp(log_intercept), *_spread_rows(_rescale_rows(scales, fq, hurst)))


def _require_q2(fp: FluctuationProfile, fit: ScalingFit) -> None:
    if fp.q != 2.0 or fit.q != 2.0:
        raise InputError("rescaling is defined for the q = 2 profile and its fit")


def rescale(fp: FluctuationProfile, fit: ScalingFit) -> np.ndarray:
    """R(s) = F_2(s)^2 / s^(2*H) with H the same window's q=2 estimate, aligned with fp.scales."""
    _require_q2(fp, fit)
    return _rescale_rows(fp.scales, fp.fq, fit.hurst)


def liquidity_indicators(fp: FluctuationProfile, fit: ScalingFit) -> LiquidityIndicators:
    """All four measures for one window's q=2 profile and fit."""
    _require_q2(fp, fit)
    f0, sigma, spread, ratio = _indicator_rows(fp.scales, fp.fq, fit.hurst, fit.log_intercept)
    return LiquidityIndicators(
        f0=float(f0), f_sigma=float(sigma), f_range=float(spread), f_ratio=float(ratio)
    )
