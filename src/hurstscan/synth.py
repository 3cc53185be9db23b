"""Seeded reference generators: fractional Gaussian noise, white noise, GARCH(1,1).

Every generator checks its own arguments, and a bad one raises
InputError: n must be an integer (a float or a bool is not), sigma
positive and finite, the GARCH parameters must pass ``GarchParams``'
checks, and the seed must be a non-negative integer (``_check_seed``;
None, a float or a bool is not one).  The ``synth`` command calls the
generators through ``_KINDS``.  Every generator is a pure function of
its arguments including the seed (numpy PCG64 streams).  For
reproducible parallel generation give each task its own seed, or split
one seed into k::

    seeds = [child.generate_state(1)[0] for child in np.random.SeedSequence(seed).spawn(k)]
"""
from __future__ import annotations

import math
import sys

import numpy as np

from .exceptions import InputError, NumericalError
from .garch import GarchParams
from .ingest import _is_integer

__all__ = ["fgn_autocovariance", "gen_fgn", "gen_white", "gen_garch"]

GARCH_BURN_IN = 500


def fgn_autocovariance(k, hurst: float, sigma: float = 1.0) -> np.ndarray:
    """Autocovariance of fractional Gaussian noise at integer lags k.

    Beyond lag 1 the direct sum of three powers cancels, so there it is
    k**2H / 2 times (1 + 1/k)**2H - 1 plus (1 - 1/k)**2H - 1 by expm1.
    hurst and sigma follow ``gen_fgn``'s rules.
    """
    _check_fgn_params(hurst, sigma)
    k = np.abs(np.asarray(k, dtype=float))
    h2 = 2.0 * hurst
    with np.errstate(divide="ignore", invalid="ignore"):
        far = k**h2 * (np.expm1(h2 * np.log1p(1.0 / k)) + np.expm1(h2 * np.log1p(-1.0 / k)))
    near = (k + 1) ** h2 - 2 * k**h2 + np.abs(k - 1) ** h2
    return (0.5 * np.where(k > 1, far, near) * sigma**2)[()]


def _check_size(n: int, sigma: float = 1.0, min_n: int = 1) -> None:
    """Length and noise scale of every generator: integer n >= min_n, sigma positive and finite."""
    if not _is_integer(n):
        raise InputError(f"n must be an integer, got {n!r}")
    if not n >= min_n:
        raise InputError(f"n must be at least {min_n}")
    if not (sigma > 0 and math.isfinite(sigma)):
        raise InputError(f"sigma must be positive and finite, got {sigma}")


def _check_seed(seed) -> None:
    """The seed of every generator and of ``synth``: a non-negative integer, numpy's included."""
    if not (_is_integer(seed) and seed >= 0):
        raise InputError(f"seed must be a non-negative integer, got {seed!r}")


def _check_fgn_params(hurst: float, sigma: float, n: int = 2) -> None:
    """fGn's parameters: hurst in (0, 1), sigma**2 (its variance) a finite normal float, n >= 2."""
    if not 0.0 < hurst < 1.0:
        raise InputError(f"hurst must be in (0, 1), got {hurst}")
    _check_size(n, sigma, min_n=2)
    sigma = float(sigma)
    if not sys.float_info.min <= sigma * sigma <= sys.float_info.max:
        raise InputError(
            f"fgn sigma out of range [{math.sqrt(sys.float_info.min):.3g}, "
            f"{math.sqrt(sys.float_info.max):.3g}], where its square is a normal float; "
            f"got {sigma}"
        )


def _check_finite(x: np.ndarray, cause: str) -> np.ndarray:
    """x, if every value is finite; else fail naming the parameter that took it out of range."""
    if not np.all(np.isfinite(x)):
        raise InputError(
            f"{cause} out of range: the series leaves the float range "
            f"(largest float {sys.float_info.max:.3g})"
        )
    return x


def gen_fgn(n: int, hurst: float, sigma: float = 1.0, seed: int = 0) -> np.ndarray:
    """Exact fractional Gaussian noise by circulant embedding (Davies-Harte).

    The target autocovariance is embedded in the minimal circulant matrix,
    of size 2n rounded up to a power of two, whose eigenvalues come from a
    single FFT of the first row; the sample is then a weighted inverse FFT
    of independent Gaussians.  For fGn this embedding is non-negative
    definite for every H (Craigmile, J. Time Ser. Anal. 2003, H <= 1/2;
    Dietrich and Newsam, SIAM J. Sci. Comput. 1997, H >= 1/2): negative
    eigenvalues from roundoff are clipped, and anything worse raises.
    """
    _check_fgn_params(hurst, sigma, n)
    _check_seed(seed)
    rng = np.random.default_rng(seed)
    m = 1 << int(np.ceil(np.log2(2 * n)))
    lam = _embedding_eigenvalues(m, hurst, sigma)
    if lam.min() < -1e-12 * lam.max():
        raise NumericalError(f"circulant embedding of size {m} not non-negative definite")
    lam = np.clip(lam, 0.0, None)

    half = m // 2
    u = rng.standard_normal(half + 1)
    v = rng.standard_normal(half + 1)
    w = np.zeros(m, dtype=complex)
    w[0] = np.sqrt(lam[0]) * u[0]
    w[half] = np.sqrt(lam[half]) * u[half]
    k = np.arange(1, half)
    w[k] = np.sqrt(lam[k] / 2.0) * (u[k] + 1j * v[k])
    w[m - k] = np.conj(w[k])
    x = np.fft.ifft(w).real * np.sqrt(m)
    return x[:n]


def _embedding_eigenvalues(m: int, hurst: float, sigma: float) -> np.ndarray:
    half = m // 2
    gamma = fgn_autocovariance(np.arange(half + 1), hurst, sigma)
    row = np.concatenate([gamma, gamma[-2:0:-1]])
    # the sums over the row overflow before sigma**2 itself does
    with np.errstate(over="ignore", invalid="ignore"):
        lam = np.fft.fft(row).real
    return _check_finite(lam, f"sigma {sigma}")


def gen_white(n: int, sigma: float = 1.0, seed: int = 0) -> np.ndarray:
    """IID Gaussian noise with standard deviation sigma."""
    _check_size(n, sigma)
    _check_seed(seed)
    with np.errstate(over="ignore"):
        x = sigma * np.random.default_rng(seed).standard_normal(n)
    return _check_finite(x, f"sigma {sigma}")


def gen_garch(n: int, omega: float, alpha: float, beta: float, seed: int = 0) -> np.ndarray:
    """Simulate a GARCH(1,1) path r_t = sqrt(h_t) * z_t with Gaussian innovations.

    The variance recursion starts at its unconditional level
    omega / (1 - alpha - beta) and the first GARCH_BURN_IN draws are
    discarded so the returned sample is effectively stationary.
    """
    _check_size(n)
    h = GarchParams(omega, alpha, beta).unconditional_variance
    _check_seed(seed)
    rng = np.random.default_rng(seed)
    z = rng.standard_normal(n + GARCH_BURN_IN)
    r = np.empty(n + GARCH_BURN_IN)
    for t in range(n + GARCH_BURN_IN):
        rt = math.sqrt(h) * z[t]
        r[t] = rt
        h = omega + alpha * rt * rt + beta * h
    return _check_finite(r[GARCH_BURN_IN:], f"omega {omega}")


# each kind's generator and its parameters, in the order synth's manifest records them
_KINDS = {
    "fgn": (gen_fgn, ("hurst", "sigma")),
    "gaussian-white": (gen_white, ("sigma",)),
    "garch": (gen_garch, ("omega", "alpha", "beta")),
}
