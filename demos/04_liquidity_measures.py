"""Horizon-level liquidity measures from deviations around the scaling law.

A perfect power law F(s) = c * s^H means every horizon carries
proportionally the same fluctuation budget. Rescaling each observed
F(s) by the fitted s^H gives a per-scale ratio R(s); its dispersion
(f_sigma), spread (f_range) and max/min ratio (f_ratio) quantify how
unevenly the law holds, and f0 = exp(intercept) extrapolates the
fluctuation level at horizon one.
"""
import numpy as np

from hurstscan import (
    FluctuationProfile,
    fit_scaling,
    gen_fgn,
    liquidity_indicators,
    mfdfa,
    rescale,
)

scales = np.arange(10, 51)

# Exact power law: all deviation measures collapse to their floors.
fp = FluctuationProfile(q=2.0, scales=scales, fq=0.04 * scales**0.6)
ind = liquidity_indicators(fp, fit_scaling(fp))
print("exact F(s) = 0.04 * s^0.6")
print(f"  f0={ind.f0:.6f}  f_sigma={ind.f_sigma:.2e}  "
      f"f_range={ind.f_range:.2e}  f_ratio={ind.f_ratio:.12f}")

# A finite noisy window: the measures pick up the scatter around the fit.
x = gen_fgn(500, 0.7, seed=21)
profile, fit = mfdfa(x, range(10, 51))[2.0]
ind = liquidity_indicators(profile, fit)
print(f"\nfGn window, n=500, H=0.7 (fitted {fit.hurst:.3f})")
print(f"  f0={ind.f0:.4f}  f_sigma={ind.f_sigma:.4f}  "
      f"f_range={ind.f_range:.4f}  f_ratio={ind.f_ratio:.4f}")

r = rescale(profile, fit)  # R(s), one value per entry of profile.scales
print("  R(s) summary: min={:.4f} max={:.4f} at s={} and s={}".format(
    r.min(), r.max(), profile.scales[r.argmin()], profile.scales[r.argmax()]))

# The two spread measures are tied: f_range = (f_ratio - 1) * min R(s).
lhs = ind.f_range
rhs = (ind.f_ratio - 1) * r.min()
print(f"  identity f_range = (f_ratio - 1) * min R: {lhs:.6f} vs {rhs:.6f}")

# More scatter in the profile inflates every deviation measure.
rng = np.random.default_rng(5)
bumpy = FluctuationProfile(
    q=2.0, scales=scales,
    fq=0.04 * scales**0.6 * np.exp(rng.normal(0, 0.05, scales.size)),
)
bind = liquidity_indicators(bumpy, fit_scaling(bumpy))
print(f"\nsame law with 5% log-noise: f_sigma={bind.f_sigma:.4f}  "
      f"f_ratio={bind.f_ratio:.4f}")
