"""Horizon-level trading-activity measures from variance scaling.

If variance scales exactly, the rescaled fluctuations
R(s) = F^2(s) / s^(2H) are the same constant at every horizon s.  How
far they spread is a gauge of how unevenly trading activity is
distributed across horizons: a calm market shows near-exact scaling,
a stressed one shows horizon dominance and dispersed R(s).

Four summary measures are computed from a q=2 fluctuation profile and
its scaling fit:

* ``f0``      -- exp(log-intercept), the fitted fluctuation extrapolated
                 to the shortest horizon (numerically the fitted value
                 at s = 1);
* ``f_sigma`` -- sample standard deviation of R(s) across horizons;
* ``f_range`` -- max R(s) - min R(s);
* ``f_ratio`` -- max R(s) / min R(s), equal to 1 under exact scaling.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .exceptions import InputError
from .scaling import FluctuationProfile, ScalingFit

__all__ = [
    "RescaledFluctuations",
    "LiquidityIndicators",
    "rescale",
    "f_zero",
    "f_sigma",
    "f_range",
    "f_ratio",
    "liquidity_indicators",
]


def _check_rescaled(r) -> None:
    if not np.all(np.isfinite(r)) or np.any(r <= 0):
        raise InputError("rescaled fluctuations must be finite and positive")


@dataclass(frozen=True)
class RescaledFluctuations:
    """Squared average fluctuations divided by their fitted scaling, per horizon."""

    scales: np.ndarray
    r_values: np.ndarray

    def __post_init__(self):
        scales = np.asarray(self.scales, dtype=int)
        r = np.asarray(self.r_values, dtype=float)
        if scales.ndim != 1 or r.shape != scales.shape:
            raise InputError("scales and r_values must be 1-d arrays of equal length")
        _check_rescaled(r)
        object.__setattr__(self, "scales", scales)
        object.__setattr__(self, "r_values", r)


@dataclass(frozen=True)
class LiquidityIndicators:
    f0: float
    f_sigma: float
    f_range: float
    f_ratio: float

    def __post_init__(self):
        if self.f0 <= 0 or self.f_sigma < 0 or self.f_range < 0 or self.f_ratio < 1.0 - 1e-12:
            raise InputError("inconsistent indicator values")

    def to_dict(self) -> dict:
        return {
            "f0": float(self.f0),
            "f_sigma": float(self.f_sigma),
            "f_range": float(self.f_range),
            "f_ratio": float(self.f_ratio),
        }


def _rescale_rows(scales, fq, hurst) -> np.ndarray:
    """R(s) = F_2(s)^2 / s^(2*H) along the last axis of ``fq``, one H per row."""
    s = np.asarray(scales, dtype=float)
    r = fq**2 / s ** (2.0 * np.asarray(hurst, dtype=float)[..., None])
    _check_rescaled(r)
    return r


def _spread_rows(r):
    """(f_sigma, f_range, f_ratio) of rescaled fluctuations along the last axis."""
    if r.shape[-1] < 2:
        raise InputError("need at least 2 scales")
    dev = r - r.mean(axis=-1, keepdims=True)
    hi, lo = r.max(axis=-1), r.min(axis=-1)
    return np.sqrt(np.sum(dev * dev, axis=-1) / (r.shape[-1] - 1)), hi - lo, hi / lo


def _indicator_rows(scales, fq, hurst, log_intercept):
    """(f0, f_sigma, f_range, f_ratio) for every row of q=2 fluctuations and its fit."""
    return (np.exp(log_intercept), *_spread_rows(_rescale_rows(scales, fq, hurst)))


def _require_q2(fp: FluctuationProfile, fit: ScalingFit) -> None:
    if fp.q != 2.0 or fit.q != 2.0:
        raise InputError("rescaling is defined for the q = 2 profile and its fit")


def rescale(fp: FluctuationProfile, fit: ScalingFit) -> RescaledFluctuations:
    """R(s) = F_2(s)^2 / s^(2*H) with H the same window's q=2 estimate."""
    _require_q2(fp, fit)
    return RescaledFluctuations(
        scales=fp.scales, r_values=_rescale_rows(fp.scales, fp.fq, fit.hurst)
    )


def f_zero(fit: ScalingFit) -> float:
    """Short-horizon activity level: exp of the fitted log-intercept."""
    return float(np.exp(fit.log_intercept))


def f_sigma(rf: RescaledFluctuations) -> float:
    """Sample standard deviation of the rescaled fluctuations across horizons.

    The mean uses denominator n (number of horizons), the squared
    deviations n - 1.
    """
    return float(_spread_rows(rf.r_values)[0])


def f_range(rf: RescaledFluctuations) -> float:
    """Spread of the rescaled fluctuations: max R - min R."""
    return float(_spread_rows(rf.r_values)[1])


def f_ratio(rf: RescaledFluctuations) -> float:
    """max R / min R; exactly 1 when variance scaling is exact."""
    return float(_spread_rows(rf.r_values)[2])


def liquidity_indicators(fp: FluctuationProfile, fit: ScalingFit) -> LiquidityIndicators:
    """All four measures for one window's q=2 profile and fit."""
    _require_q2(fp, fit)
    f0, sigma, spread, ratio = _indicator_rows(fp.scales, fp.fq, fit.hurst, fit.log_intercept)
    return LiquidityIndicators(
        f0=float(f0), f_sigma=float(sigma), f_range=float(spread), f_ratio=float(ratio)
    )
