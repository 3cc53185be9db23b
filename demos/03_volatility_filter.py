"""Fit GARCH(1,1) by maximum likelihood and standardize returns by it.

Scaling estimates on raw returns conflate long memory with volatility
clustering; dividing each return by its fitted conditional volatility
removes the clustering so the Hurst exponent reflects memory alone.
"""
import numpy as np

from hurstscan import garch_filter, garch_fit, gen_garch, mfdfa


def excess_kurtosis(x):
    x = x - x.mean()
    return np.mean(x**4) / np.mean(x**2) ** 2 - 3


omega, alpha, beta = 0.1, 0.1, 0.8
r = gen_garch(5000, omega, alpha, beta, seed=3)

fit = garch_fit(r)
p = fit.params
print(f"true   omega={omega:.3f}  alpha={alpha:.3f}  beta={beta:.3f}")
print(f"fitted omega={p.omega:.3f}  alpha={p.alpha:.3f}  beta={p.beta:.3f}")
print(f"converged={fit.converged} after {fit.iterations} iterations, "
      f"loglik={fit.loglik:.2f}")
print(f"persistence alpha+beta = {p.alpha + p.beta:.3f}")
print(f"implied unconditional var {p.omega / (1 - p.alpha - p.beta):.3f} "
      f"vs sample {r.var(ddof=1):.3f}")

z = garch_filter(r, fit)
print("\nafter standardizing by the fitted volatility path:")
print(f"  variance {z.var(ddof=1):.4f} (want 1)")
print(f"  excess kurtosis {excess_kurtosis(r):+.3f} -> {excess_kurtosis(z):+.3f}")
r2 = r**2
z2 = z**2
print(f"  lag-1 corr of squares {np.corrcoef(r2[:-1], r2[1:])[0, 1]:+.3f} "
      f"-> {np.corrcoef(z2[:-1], z2[1:])[0, 1]:+.3f}")

# GARCH returns have no linear memory, so H should sit near 0.5 both ways.
h_raw = mfdfa(r, range(10, 51))[2.0][1].hurst
h_fil = mfdfa(z, range(10, 51))[2.0][1].hurst
print(f"\nHurst exponent: raw {h_raw:.3f}, filtered {h_fil:.3f}")
