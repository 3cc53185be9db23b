"""Seeded reference generators: fractional Gaussian noise, white noise, GARCH(1,1).

Every generator is a pure function of its arguments including the seed
(numpy PCG64 streams).  For reproducible parallel generation give each
task its own seed, or split one seed with
``np.random.SeedSequence(seed).spawn(k)`` and pass the children's
``generate_state`` values as seeds.
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .exceptions import InputError, NumericalError
from .garch import GarchParams

__all__ = [
    "GeneratorSpec",
    "fgn_autocovariance",
    "gen_fgn",
    "gen_white",
    "gen_garch",
    "generate",
]

GARCH_BURN_IN = 500


def fgn_autocovariance(k, hurst: float, sigma: float = 1.0) -> np.ndarray:
    """Autocovariance of fractional Gaussian noise at integer lags k."""
    k = np.abs(np.asarray(k, dtype=float))
    h2 = 2.0 * hurst
    return 0.5 * sigma**2 * ((k + 1) ** h2 - 2 * k**h2 + np.abs(k - 1) ** h2)


def _check_size(n: int, sigma: float = 1.0, min_n: int = 1) -> None:
    """Length and noise scale of every generator: n >= min_n, sigma positive and finite."""
    if not n >= min_n:
        raise InputError(f"n must be at least {min_n}")
    if not (sigma > 0 and math.isfinite(sigma)):
        raise InputError(f"sigma must be positive and finite, got {sigma}")


def _check_fgn_params(n: int, hurst: float, sigma: float) -> None:
    if not 0.0 < hurst < 1.0:
        raise InputError(f"hurst must be in (0, 1), got {hurst}")
    _check_size(n, sigma, min_n=2)


def gen_fgn(n: int, hurst: float, sigma: float = 1.0, seed: int = 0) -> np.ndarray:
    """Exact fractional Gaussian noise by circulant embedding (Davies-Harte).

    The target autocovariance is embedded in a circulant matrix of size
    >= 2n (rounded up to a power of two), whose eigenvalues come from a
    single FFT of the first row; the sample is then a weighted inverse
    FFT of independent Gaussians.  For fGn the embedding is positive
    semi-definite in theory; tiny negative eigenvalues from roundoff are
    clipped, and anything worse triggers a doubling of the embedding.
    """
    _check_fgn_params(n, hurst, sigma)
    rng = np.random.default_rng(seed)
    m = 1 << int(np.ceil(np.log2(2 * n)))
    for _ in range(3):
        lam = _embedding_eigenvalues(m, hurst, sigma)
        tol = 1e-12 * lam.max()
        if lam.min() >= -tol:
            break
        warnings.warn(
            f"circulant embedding of size {m} not positive semi-definite "
            f"(min eigenvalue {lam.min():.3e}); enlarging embedding"
        )
        m *= 2
    else:
        raise NumericalError("circulant embedding not positive semi-definite")
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
    return np.fft.fft(row).real


def gen_white(n: int, sigma: float = 1.0, seed: int = 0) -> np.ndarray:
    """IID Gaussian noise with standard deviation sigma."""
    _check_size(n, sigma)
    return sigma * np.random.default_rng(seed).standard_normal(n)


def gen_garch(
    n: int,
    omega: float,
    alpha: float,
    beta: float,
    seed: int = 0,
    burn: int = GARCH_BURN_IN,
) -> np.ndarray:
    """Simulate a GARCH(1,1) path r_t = sqrt(h_t) * z_t with Gaussian innovations.

    The variance recursion starts at its unconditional level
    omega / (1 - alpha - beta) and the first ``burn`` draws are discarded
    so the returned sample is effectively stationary.
    """
    _check_size(n)
    if burn < GARCH_BURN_IN:
        raise InputError(f"burn-in must be at least {GARCH_BURN_IN}")
    h = GarchParams(omega, alpha, beta).unconditional_variance
    rng = np.random.default_rng(seed)
    z = rng.standard_normal(n + burn)
    r = np.empty(n + burn)
    for t in range(n + burn):
        rt = math.sqrt(h) * z[t]
        r[t] = rt
        h = omega + alpha * rt * rt + beta * h
    return r[burn:]


@dataclass(frozen=True)
class GeneratorSpec:
    """Declarative description of a synthetic series: kind, length, parameters, seed.

    kind is one of "fgn" (needs hurst, optional sigma), "gaussian-white"
    (optional sigma) or "garch" (needs omega, alpha, beta).
    """

    kind: str
    n: int
    seed: int = 0
    hurst: float | None = None
    sigma: float = 1.0
    omega: float | None = None
    alpha: float | None = None
    beta: float | None = None

    def __post_init__(self):
        if self.kind not in ("fgn", "gaussian-white", "garch"):
            raise InputError(f"unknown generator kind: {self.kind!r}")
        if self.kind == "fgn":
            if self.hurst is None:
                raise InputError("fgn requires hurst")
            _check_fgn_params(self.n, self.hurst, self.sigma)
        elif self.kind == "gaussian-white":
            _check_size(self.n, self.sigma)
        else:
            if self.omega is None or self.alpha is None or self.beta is None:
                raise InputError("garch requires omega, alpha and beta")
            _check_size(self.n)
            GarchParams(self.omega, self.alpha, self.beta)

    def to_dict(self) -> dict:
        out = {"kind": self.kind, "n": int(self.n), "seed": int(self.seed)}
        if self.kind == "fgn":
            out["hurst"] = float(self.hurst)
            out["sigma"] = float(self.sigma)
        elif self.kind == "gaussian-white":
            out["sigma"] = float(self.sigma)
        else:
            out.update(
                omega=float(self.omega), alpha=float(self.alpha), beta=float(self.beta)
            )
        return out


def generate(spec: GeneratorSpec) -> np.ndarray:
    """Realize a GeneratorSpec as a numpy array."""
    if spec.kind == "fgn":
        return gen_fgn(spec.n, spec.hurst, spec.sigma, spec.seed)
    if spec.kind == "gaussian-white":
        return gen_white(spec.n, spec.sigma, spec.seed)
    return gen_garch(spec.n, spec.omega, spec.alpha, spec.beta, spec.seed)
