"""GARCH(1,1) estimation by Gaussian maximum likelihood and volatility filtering.

The conditional variance follows h_t = omega + alpha * r_{t-1}^2 +
beta * h_{t-1}.  That recursion, and the recursions of its first and
second derivatives (Fiorentini, Calzolari & Panattoni 1996), are all the
same first-order linear filter, computed here by a numpy block scan.
Fitting runs a projected Newton search with the exact score and Hessian
on the box omega / h_1 >= OMEGA_FLOOR, 0 <= alpha + beta <=
MAX_PERSISTENCE, 0 <= alpha / (alpha + beta) <= 1, so every point it
evaluates is a valid, covariance-stationary GarchParams.  Dividing
returns by the fitted sqrt(h_t) standardizes volatility across time,
which is what makes fluctuation levels comparable between different
periods.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

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
RESTART_ALPHA = 0.10  # second start, see garch_fit
RESTART_BETA = 0.40
DEFAULT_TOL = 1e-9  # nats: half the Newton decrement on the free coordinates
DEFAULT_MAX_ITER = 100
MIN_FIT_LENGTH = 100
OMEGA_FLOOR = 1e-12  # lower bound of omega / h_1, keeps omega > 0
MAX_PERSISTENCE = 1.0 - 1e-8
ARMIJO = 1e-4
MIN_STEP = 2.0**-40


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


def _filter_matrix(factor: float, size: int) -> np.ndarray:
    """(size x size) matrix M with M[j, i] = factor**(i - j) for i >= j, else 0.

    x @ M runs y_i = x_i + factor * y_{i-1} along the last axis of x from y_{-1} = 0.
    """
    powers = np.concatenate([np.zeros(size - 1), factor ** np.arange(size)])
    return sliding_window_view(powers, size)[::-1].copy()


def _scan(x: np.ndarray, beta: float) -> np.ndarray:
    """y_t = x_t + beta * y_{t-1} along the last axis of x, from y_{-1} = 0.

    Two-level block scan over blocks of L ~ sqrt(n) values.  Each block's
    end value from a zero start is one matrix-vector product; the carries
    between blocks follow the same recursion with factor beta**L and come
    from one more.  The carry c into a block adds beta**(i+1) * c at its
    position i, which is what adding beta * c to its first value does, so
    one matmul with the matrix of beta powers then filters every block.
    With x >= 0 and 0 <= beta < 1 every term is non-negative and every
    power at most 1, so nothing cancels or overflows.
    """
    lead, n = x.shape[:-1], x.shape[-1]
    size = math.isqrt(n - 1) + 1  # ceil(sqrt(n))
    blocks = -(-n // size)
    y = np.zeros((*lead, blocks * size))
    y[..., :n] = x
    y = y.reshape(*lead, blocks, size)
    powers = beta ** np.arange(size + 1)
    carry = (y @ powers[size - 1 :: -1]) @ _filter_matrix(powers[size], blocks)
    y[..., 1:, 0] += beta * carry[..., :-1]
    return (y @ _filter_matrix(beta, size)).reshape(*lead, blocks * size)[..., :n]


def _variance_path_raw(r2, omega, alpha, beta, h1):
    # h_t = (omega + alpha*r_{t-1}^2) + beta*h_{t-1}: one filter pass from h_1
    x = np.empty(r2.size)
    x[0] = h1
    np.multiply(r2[:-1], alpha, out=x[1:])
    x[1:] += omega
    return _scan(x, beta)


def variance_path(returns, params: GarchParams, h1: float) -> np.ndarray:
    """Conditional-variance recursion h_t = omega + alpha*r_{t-1}^2 + beta*h_{t-1}."""
    r = _return_values(returns)
    if r.size == 0:
        raise InputError("need at least 1 return")
    if h1 <= 0:
        raise InputError("initial variance h1 must be positive")
    return _variance_path_raw(r * r, params.omega, params.alpha, params.beta, h1)


def _gaussian_loglik(r2, h):
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        return -0.5 * (r2.size * _LOG_2PI + float(np.sum(np.log(h))) + float(np.sum(r2 / h)))


def garch_loglik(returns, params: GarchParams, h1: float) -> float:
    """Gaussian log-likelihood of the returns under the given parameters.

    The recursion starts at h_1 = h1.  Raises NumericalError if the
    evaluation overflows to a non-finite value.
    """
    r = _return_values(returns)
    if r.size < 2:
        raise InputError("need at least 2 returns")
    h = variance_path(r, params, h1)
    ll = _gaussian_loglik(r * r, h)
    if not np.isfinite(ll):
        raise NumericalError("log-likelihood evaluation produced a non-finite value")
    return ll


def _natural_derivatives(r2, h, beta):
    """Score and Hessian of the log-likelihood in (omega, alpha, beta).

    dh_t/d(omega, alpha, beta) = (1, r_{t-1}^2, h_{t-1}) + beta * dh_{t-1}/d(...),
    and the only non-zero second derivatives, d2h_t/d(beta)d(theta_j),
    follow the same recursion driven by dh_{t-1}/d(theta_j) (twice that
    for theta_j = beta).  h_1 is fixed, so all of them start at 0.
    """
    drive = np.empty((3, r2.size))
    drive[:, 0] = 0.0
    drive[0, 1:] = 1.0
    drive[1, 1:] = r2[:-1]
    drive[2, 1:] = h[:-1]
    d = _scan(drive, beta)
    np.multiply(d[:, :-1], [[1.0], [1.0], [2.0]], out=drive[:, 1:])
    d2 = _scan(drive, beta)
    # d loglik_t / d h_t = (z - 1) / (2 h) and d2 loglik_t / d h_t^2 =
    # (1/2 - z) / h^2 with z = r^2 / h, formed in place: on long series
    # every fresh temporary costs page faults
    dl = r2 / h
    d2l = 0.5 - dl
    d2l /= h
    d2l /= h
    dl -= 1.0
    dl *= 0.5
    dl /= h
    hess = (d * d2l) @ d.T
    beta_row = d2 @ dl
    hess[2, :] += beta_row
    hess[:, 2] += beta_row
    hess[2, 2] -= beta_row[2]
    return d @ dl, hess


def _natural_params(x):
    """(omega / h_1, alpha, beta) of the search coordinates x = (omega / h_1, pi, s)."""
    u, persistence, share = x
    return u, persistence * share, persistence * (1.0 - share)


def _box_derivatives(score, hess, x):
    """Score and Hessian in (omega / h_1, alpha, beta) carried to x = (omega / h_1, pi, s).

    The chain rule through d(alpha, beta)/d(pi, s), plus the second
    derivatives of alpha = pi*s and beta = pi*(1-s).
    """
    jac = np.array([[1.0, 0.0, 0.0], [0.0, x[2], x[1]], [0.0, 1.0 - x[2], -x[1]]])
    box_hess = jac.T @ hess @ jac
    box_hess[1, 2] += score[1] - score[2]
    box_hess[2, 1] += score[1] - score[2]
    return jac.T @ score, box_hess


def _ascent_step(grad, hess, free):
    """Newton step on the free coordinates, and whether -H is positive definite there.

    Where it is not, the eigenvalues of -H are replaced by their moduli
    (at least 1e-10 of the largest), so the step still ascends and moves
    away from a saddle along directions of negative curvature.
    """
    step = np.zeros(grad.size)
    if not free.any():
        return step, True
    curvature = -hess[np.ix_(free, free)]
    concave = True
    try:
        np.linalg.cholesky(curvature)
    except np.linalg.LinAlgError:
        concave = False
        lam, vec = np.linalg.eigh(curvature)
        lam = np.abs(lam)
        curvature = (vec * np.maximum(lam, 1e-10 * lam.max())) @ vec.T
    step[free] = np.linalg.solve(curvature, grad[free])
    return step, concave


def _line_search(z2, x, step, grad, loglik, lower, upper):
    """Armijo search from x along step; (x, h, loglik) of the accepted point, or None.

    Tries the Newton step projected onto the box first, then the step cut
    where it first reaches a bound it is not on yet, then halvings of
    that.  The cut sets its coordinate onto the bound exactly, so the next
    iteration can hold it instead of creeping towards it.
    """
    moving = ((step > 0.0) & (x < upper)) | ((step < 0.0) & (x > lower))
    room = np.full(x.size, np.inf)
    room[moving] = (np.where(step > 0.0, upper, lower) - x)[moving] / step[moving]
    hit = int(np.argmin(room))
    t = 1.0
    trial = np.clip(x + step, lower, upper)
    while True:
        h = _variance_path_raw(z2, *_natural_params(trial), 1.0)
        ll = _gaussian_loglik(z2, h)
        if ll >= loglik + ARMIJO * float(grad @ (trial - x)):
            return trial, h, ll
        t = room[hit] if t > room[hit] else 0.5 * t
        if t < MIN_STEP:
            return None
        trial = np.clip(x + t * step, lower, upper)
        if t == room[hit]:
            trial[hit] = upper[hit] if step[hit] > 0.0 else lower[hit]


def _newton(z2, alpha, beta):
    """Projected Newton search on returns in units of sqrt(h_1), from alpha, beta.

    omega / h_1 starts at 1 - alpha - beta.  Returns the end point x, its
    log-likelihood, whether it converged, and the number of steps taken.
    """
    lower = np.array([OMEGA_FLOOR, 0.0, 0.0])
    upper = np.array([np.inf, MAX_PERSISTENCE, 1.0])
    x = np.array([1.0 - alpha - beta, alpha + beta, alpha / (alpha + beta)])
    h = _variance_path_raw(z2, *_natural_params(x), 1.0)
    loglik = _gaussian_loglik(z2, h)
    for iterations in range(DEFAULT_MAX_ITER + 1):
        score, hess = _natural_derivatives(z2, h, _natural_params(x)[2])
        # at pi = 0 the variance path does not depend on s: hold s at the
        # end along which the likelihood rises faster in pi
        pinned = x[1] == 0.0
        if pinned:
            x[2] = 1.0 if score[1] > score[2] else 0.0
        grad, hess = _box_derivatives(score, hess, x)
        # hold each coordinate that sits on the bound its gradient points at
        outward = np.where(grad > 0.0, upper, lower)
        if pinned:
            outward[2] = x[2]
        step, concave = _ascent_step(grad, hess, x != outward)
        if concave and 0.5 * float(grad @ step) < DEFAULT_TOL:
            return x, loglik, True, iterations
        if iterations == DEFAULT_MAX_ITER:
            break
        accepted = _line_search(z2, x, step, grad, loglik, lower, upper)
        if accepted is None:
            break
        x, h, loglik = accepted
    return x, loglik, False, iterations


def garch_fit(returns, *, demean: bool = False) -> GarchFit:
    """Fit GARCH(1,1) by maximizing the Gaussian log-likelihood.

    h_1 is set to the sample variance of the returns.  The search is a
    projected Newton method with the exact score and Hessian in
    x = (omega / h_1, pi = alpha + beta, s = alpha / pi) over the box
    [OMEGA_FLOOR, inf) x [0, MAX_PERSISTENCE] x [0, 1], started at
    alpha = 0.05, beta = 0.90 and omega = (1 - alpha - beta) * h_1; if it
    ends at alpha = 0, a second search starts at alpha = 0.10, beta = 0.40
    and the more likely end wins.  Each
    iteration holds the coordinates that sit on a bound with the gradient
    pointing out of the box, takes a Newton step on the others (see
    _ascent_step for where -H is not positive definite) and searches
    along it (_line_search).  At pi = 0 the variance path does not depend
    on s; s is then held at the end (0 or 1) along which the likelihood
    rises faster in pi.

    ``converged`` is True only when -H is positive definite on the free
    coordinates and half the Newton decrement there is below DEFAULT_TOL
    nats; every held coordinate's gradient points out of the box by
    construction.  A search stopped by DEFAULT_MAX_ITER or by a failed
    line search returns its last point with ``converged=False``.
    ``iterations`` counts the Newton steps of both searches.

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

    with np.errstate(over="ignore"):
        h1 = float(np.var(r, ddof=1))
    if not 0.0 < h1 < math.inf:
        raise NumericalError(f"sample variance of the returns out of floating-point range: {h1}")
    # the search runs on returns in units of sqrt(h_1), where neither the
    # steps nor the tolerances depend on the scale of the returns
    z2 = (r / math.sqrt(h1)) ** 2
    x, loglik, converged, iterations = _newton(z2, START_ALPHA, START_BETA)
    if _natural_params(x)[1] == 0.0:
        # alpha = 0 leaves no volatility clustering: a face of the box where
        # a search started at high persistence can stall far below an
        # interior optimum.  Search again from low persistence and keep the
        # more likely end point.
        again = _newton(z2, RESTART_ALPHA, RESTART_BETA)
        iterations += again[3]
        if again[1] > loglik:
            x, loglik, converged = again[:3]

    u, alpha, beta = _natural_params(x)
    params = GarchParams(omega=u * h1, alpha=alpha, beta=beta)
    h = variance_path(r, params, h1)
    loglik = _gaussian_loglik(r * r, h)
    if not np.isfinite(loglik):
        raise NumericalError("fitted log-likelihood is non-finite")
    return GarchFit(params=params, h=h, loglik=loglik, converged=converged, iterations=iterations)


def garch_filter(returns, fit: GarchFit) -> np.ndarray:
    """Standardize returns by the fitted conditional volatility: r_t / sqrt(h_t)."""
    r = _return_values(returns)
    if r.size != fit.h.size:
        raise InputError(
            f"length mismatch: {r.size} returns vs variance path of {fit.h.size}"
        )
    return r / np.sqrt(fit.h)
