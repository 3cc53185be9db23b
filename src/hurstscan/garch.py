"""GARCH(1,1) estimation by Gaussian maximum likelihood and volatility filtering.

The conditional variance follows h_t = omega + alpha * r_{t-1}^2 +
beta * h_{t-1}.  Fitting runs a derivative-free Nelder-Mead search over
an unconstrained reparameterization (log omega; multinomial-logit map of
(alpha, beta) into the stationarity simplex), so every evaluated point
satisfies the constraints by construction.  Dividing returns by the
fitted sqrt(h_t) standardizes volatility across time, which is what
makes fluctuation levels comparable between different periods.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import minimize
from scipy.signal import lfilter

from .exceptions import InputError, NumericalError

__all__ = [
    "GarchParams",
    "GarchFit",
    "variance_path",
    "garch_loglik",
    "garch_fit",
    "garch_filter",
]

_LOG_2PI = math.log(2.0 * math.pi)

# Documented defaults so runs are reproducible.
START_ALPHA = 0.05
START_BETA = 0.90
START_OMEGA_VAR_FRACTION = 0.1
DEFAULT_TOL = 1e-8
DEFAULT_MAX_ITER = 2000
MIN_FIT_LENGTH = 100


@dataclass(frozen=True)
class GarchParams:
    """GARCH(1,1) parameters; covariance stationarity (alpha + beta < 1) enforced.

    The one home of the parameter rules: the generators build a
    GarchParams to validate theirs.  Every check is a positive
    comparison, so NaN fails it.
    """

    omega: float
    alpha: float
    beta: float

    def __post_init__(self):
        if not (self.omega > 0 and np.isfinite(self.omega)):
            raise InputError(f"omega must be positive and finite, got {self.omega}")
        if not (self.alpha >= 0 and self.beta >= 0):
            raise InputError(
                f"alpha and beta must be non-negative, got {self.alpha} and {self.beta}"
            )
        if not self.alpha + self.beta < 1.0:
            raise InputError(
                f"alpha + beta = {self.alpha + self.beta} >= 1 violates stationarity"
            )

    @property
    def unconditional_variance(self) -> float:
        return self.omega / (1.0 - self.alpha - self.beta)


@dataclass(frozen=True)
class GarchFit:
    """Fitted parameters plus the conditional-variance path over the input returns."""

    params: GarchParams
    h: np.ndarray
    loglik: float
    converged: bool
    iterations: int

    def to_dict(self) -> dict:
        return {
            "omega": float(self.params.omega),
            "alpha": float(self.params.alpha),
            "beta": float(self.params.beta),
            "loglik": float(self.loglik),
            "converged": bool(self.converged),
            "iterations": int(self.iterations),
        }


def _return_values(returns) -> np.ndarray:
    values = getattr(returns, "values", returns)
    r = np.asarray(values, dtype=float)
    if r.ndim != 1:
        raise InputError("returns must be one-dimensional")
    if not np.all(np.isfinite(r)):
        raise InputError("returns contain non-finite values")
    return r


def _variance_path_raw(r, omega, alpha, beta, h1):
    # h_t = (omega + alpha*r_{t-1}^2) + beta*h_{t-1} is a first-order
    # linear recursion, so the whole path comes from one IIR filter pass.
    x = omega + alpha * r[:-1] ** 2
    rest, _ = lfilter([1.0], [1.0, -beta], x, zi=np.array([beta * h1]))
    h = np.empty(r.size)
    h[0] = h1
    h[1:] = rest
    return h


def variance_path(returns, params: GarchParams, h1: float) -> np.ndarray:
    """Conditional-variance recursion h_t = omega + alpha*r_{t-1}^2 + beta*h_{t-1}."""
    r = _return_values(returns)
    if h1 <= 0:
        raise InputError("initial variance h1 must be positive")
    return _variance_path_raw(r, params.omega, params.alpha, params.beta, h1)


def _gaussian_loglik(r, h):
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        return -0.5 * float(np.sum(_LOG_2PI + np.log(h) + r * r / h))


def garch_loglik(returns, params: GarchParams, h1: float) -> float:
    """Gaussian log-likelihood of the returns under the given parameters.

    The recursion starts at h_1 = h1.  Raises NumericalError if the
    evaluation overflows to a non-finite value.
    """
    r = _return_values(returns)
    if r.size < 2:
        raise InputError("need at least 2 returns")
    h = variance_path(r, params, h1)
    ll = _gaussian_loglik(r, h)
    if not np.isfinite(ll):
        raise NumericalError("log-likelihood evaluation produced a non-finite value")
    return ll


def _unpack_theta(theta):
    omega = math.exp(min(theta[0], 700.0))
    # Multinomial logit onto the open simplex {alpha>0, beta>0, alpha+beta<1},
    # shifted by the max exponent so large coordinates cannot overflow.
    m = max(0.0, theta[1], theta[2])
    e0 = math.exp(-m)
    ea = math.exp(theta[1] - m)
    eb = math.exp(theta[2] - m)
    denom = e0 + ea + eb
    return omega, ea / denom, eb / denom


def _pack_theta(omega, alpha, beta):
    rest = 1.0 - alpha - beta
    return np.array([math.log(omega), math.log(alpha / rest), math.log(beta / rest)])


def garch_fit(returns, *, demean: bool = False) -> GarchFit:
    """Fit GARCH(1,1) by maximizing the Gaussian log-likelihood.

    Nelder-Mead over the transformed parameters, started from
    omega = 0.1 * var(r), alpha = 0.05, beta = 0.90, with h_1 set to the
    sample variance of the returns.  If the search hits the iteration cap
    the best point found is returned with ``converged=False``.

    Returns are used as-is (the filter is defined on raw returns);
    pass ``demean=True`` to subtract the sample mean first.
    """
    r = _return_values(returns)
    if r.size < MIN_FIT_LENGTH:
        raise InputError(
            f"need at least {MIN_FIT_LENGTH} returns to fit GARCH, got {r.size}"
        )
    if np.ptp(r) == 0.0:
        raise InputError("degenerate input: all returns identical")
    if demean:
        r = r - r.mean()

    h1 = float(np.var(r, ddof=1))
    theta0 = _pack_theta(START_OMEGA_VAR_FRACTION * h1, START_ALPHA, START_BETA)

    def objective(theta):
        omega, alpha, beta = _unpack_theta(theta)
        if not np.isfinite(omega) or alpha + beta >= 1.0:
            return np.inf
        h = _variance_path_raw(r, omega, alpha, beta, h1)
        ll = _gaussian_loglik(r, h)
        return -ll if np.isfinite(ll) else np.inf

    result = minimize(
        objective,
        theta0,
        method="Nelder-Mead",
        options={"maxiter": DEFAULT_MAX_ITER, "fatol": DEFAULT_TOL, "xatol": DEFAULT_TOL},
    )
    omega, alpha, beta = _unpack_theta(result.x)
    params = GarchParams(omega=omega, alpha=alpha, beta=beta)
    h = _variance_path_raw(r, omega, alpha, beta, h1)
    loglik = _gaussian_loglik(r, h)
    if not np.isfinite(loglik):
        raise NumericalError("fitted log-likelihood is non-finite")
    return GarchFit(
        params=params,
        h=h,
        loglik=loglik,
        converged=bool(result.success),
        iterations=int(result.nit),
    )


def garch_filter(returns, fit: GarchFit) -> np.ndarray:
    """Standardize returns by the fitted conditional volatility: r_t / sqrt(h_t)."""
    r = _return_values(returns)
    if r.size != fit.h.size:
        raise InputError(
            f"length mismatch: {r.size} returns vs variance path of {fit.h.size}"
        )
    return r / np.sqrt(fit.h)
