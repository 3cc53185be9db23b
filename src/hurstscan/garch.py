"""GARCH(1,1) estimation by Gaussian maximum likelihood and volatility filtering.

The conditional variance follows h_t = omega + alpha * r_{t-1}^2 +
beta * h_{t-1}.  That recursion, and the recursions of its first and
second derivatives (Fiorentini, Calzolari & Panattoni 1996), are all the
same first-order linear filter, computed here by a numpy block scan.
Fitting runs a projected Newton search with the exact score and Hessian
on the box omega / h_1 >= OMEGA_FLOOR, 0 <= alpha + beta <=
MAX_PERSISTENCE, 0 <= alpha / (alpha + beta) <= 1, so every point it
evaluates is a valid, covariance-stationary GarchParams.  The search
runs on a stack of series at once, one row each: each block of windows
of a rolling analysis is fitted by one batched search, and ``garch_fit``
is its one-row case.  The block is handled as arrays throughout: one
row-wise pass checks every row and scales it by its sample variance,
and each Newton step decides every row's concavity by one stacked
eigendecomposition.  Every row takes the same steps, with the same
rounding, whichever rows share its batch.  The batch keeps its shape
from the first iteration to the last: a row that converges or fails its
line search leaves by holding every coordinate, so its step is 0 and
its state no longer changes, and no rows are compacted.  Dividing returns
by the fitted sqrt(h_t) standardizes volatility across time, which is
what makes fluctuation levels comparable between different periods.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import as_strided

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
_SMALLEST_NORMAL = np.finfo(float).tiny  # 2.2e-308: the least sample variance fitted


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


def _filter_matrices(powers: np.ndarray) -> np.ndarray:
    """(rows x size x size) stack of M with M[r, j, i] = powers[r, i - j] for i >= j, else 0.

    With powers[r, k] = f_r**k, x @ M[r] runs y_i = x_i + f_r * y_{i-1}
    along the last axis of x from y_{-1} = 0.  Row j of M[r] is a window
    of powers[r] behind size - 1 zeros.  The copy lays each row's matrix
    out contiguously: the same memory layout, and so the same BLAS call,
    for every number of rows.
    """
    rows, size = powers.shape
    padded = np.zeros((rows, 2 * size - 1))
    padded[:, size - 1 :] = powers
    row, step = padded.strides
    return as_strided(padded[:, size - 1 :], (rows, size, size), (row, -step, step)).copy()


def _scan_matrices(beta: np.ndarray, n: int) -> tuple:
    """Each row's matrices of powers of its beta for the block scan of n values.

    Blocks hold L = ceil(sqrt(n)) values.  Returns (beta, tail, carry,
    block): tail[r] = (beta**(L-1), ..., beta, 1) gives a block's end
    value, carry[r] filters the block ends with factor beta**L and
    block[r] filters within a block (see _filter_matrices).  They are
    built in closed form, once per beta, and every array has one leading
    entry per row, so rows of the tuple are taken array by array.
    """
    size = math.isqrt(n - 1) + 1
    blocks = -(-n // size)
    powers = beta[:, None] ** np.arange(size + 1)
    carry = _filter_matrices(powers[:, size:] ** np.arange(blocks))
    tail = np.ascontiguousarray(powers[:, size - 1 :: -1])
    return beta, tail, carry, _filter_matrices(powers[:, :size])


def _scan(x: np.ndarray, matrices: tuple) -> np.ndarray:
    """y_t = x_t + beta[r] * y_{t-1} along the last axis of each row x[r], from y_{-1} = 0.

    x is (rows x ... x n); matrices are _scan_matrices(beta, n), one
    beta per row.  Two-level block scan over blocks of L ~ sqrt(n)
    values.  Each block's end value from a zero start is one
    matrix-vector product; the carries between blocks follow the same
    recursion with factor beta**L and come from one more.  The carry c
    into a block adds beta**(i+1) * c at its position i, which is what
    adding beta * c to its first value does, so one matmul with the
    matrix of beta powers then filters every block.  With x >= 0 and
    0 <= beta < 1 every term is non-negative and every power at most 1,
    so nothing cancels or overflows.

    Every product is taken with one row's own matrix, so a row's result
    does not depend on the other rows of x.
    """
    y = _blocked(x.shape[:-1], matrices)
    y[..., : x.shape[-1]] = x
    return _scan_blocked(y, matrices)[..., : x.shape[-1]]


def _blocked(lead: tuple, matrices: tuple) -> np.ndarray:
    """Zeros of shape (*lead, blocks * L): room for a series and its padding to whole blocks."""
    return np.zeros((*lead, matrices[2].shape[-1] * matrices[3].shape[-1]))


def _scan_blocked(y: np.ndarray, matrices: tuple) -> np.ndarray:
    """_scan, in place, of series padded with zeros to whole blocks in a _blocked array y.

    Each series of a row gets its own last product, so the only
    temporary the size of the data is one series per row.
    """
    beta, tail, carry_matrix, block_matrix = matrices
    rows, blocks, size = len(y), carry_matrix.shape[-1], block_matrix.shape[-1]
    flat = y.reshape(rows, -1, blocks, size)
    series = flat.shape[1]  # series per row, scanned by the same products
    ends = flat.reshape(rows, series * blocks, size) @ tail[..., None]
    carry = ends.reshape(rows, series, blocks) @ carry_matrix
    flat[..., 1:, 0] += beta[:, None, None] * carry[..., :-1]
    for j in range(series):
        flat[:, j] = flat[:, j] @ block_matrix
    return y


def _variance_paths(r2, omega, alpha, matrices, h1):
    """Each row's h_t = (omega + alpha*r_{t-1}^2) + beta*h_{t-1}: one filter pass from h_1.

    omega, alpha and h1 are one value per row or one for all; matrices
    are the rows' _scan_matrices.
    """
    n = r2.shape[1]
    x = _blocked(r2.shape[:1], matrices)
    x[:, 0] = h1
    np.multiply(r2[:, :-1], np.reshape(alpha, (-1, 1)), out=x[:, 1:n])
    x[:, 1:n] += np.reshape(omega, (-1, 1))
    return _scan_blocked(x, matrices)[:, :n]


def variance_path(returns, params: GarchParams, h1: float) -> np.ndarray:
    """Conditional-variance recursion h_t = omega + alpha*r_{t-1}^2 + beta*h_{t-1}.

    Raises NumericalError if a squared return overflows, which the scan
    would otherwise carry as NaN.
    """
    r = _return_values(returns)
    if r.size == 0:
        raise InputError("need at least 1 return")
    if not 0.0 < h1 < math.inf:
        raise InputError(f"initial variance h1 must be positive and finite, got {h1}")
    with np.errstate(over="ignore"):
        r2 = r * r
    if not np.all(np.isfinite(r2)):
        raise NumericalError("squared returns overflow the floating-point range")
    matrices = _scan_matrices(np.full(1, params.beta), r.size)
    return _variance_paths(r2[None], params.omega, params.alpha, matrices, h1)[0]


def _gaussian_loglik(r2, h):
    """Log-likelihood along the last axis: one value per row of r2 and h."""
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        return -0.5 * (
            r2.shape[-1] * _LOG_2PI + np.sum(np.log(h), axis=-1) + np.sum(r2 / h, axis=-1)
        )


def garch_loglik(returns, params: GarchParams, h1: float) -> float:
    """Gaussian log-likelihood of the returns under the given parameters.

    The recursion starts at h_1 = h1.  Raises NumericalError if a
    squared return overflows (see variance_path), or if the evaluation
    overflows to a non-finite value.
    """
    r = _return_values(returns)
    if r.size < 2:
        raise InputError("need at least 2 returns")
    h = variance_path(r, params, h1)
    ll = float(_gaussian_loglik(r * r, h))
    if not np.isfinite(ll):
        raise NumericalError("log-likelihood evaluation produced a non-finite value")
    return ll


def _dot(a, b):
    """Row-wise dot product of two (rows x 3) arrays.

    Summed term by term, not by a reduction whose order numpy may pick
    from the shape, so a row's sum does not depend on the other rows.
    """
    return a[:, 0] * b[:, 0] + a[:, 1] * b[:, 1] + a[:, 2] * b[:, 2]


def _natural_derivatives(r2, h, matrices):
    """Score (rows x 3) and Hessian (rows x 3 x 3) of each row's loglik in (omega, alpha, beta).

    matrices are the _scan_matrices of each row's beta.

    dh_t/d(omega, alpha, beta) = (1, r_{t-1}^2, h_{t-1}) + beta * dh_{t-1}/d(...),
    and the only non-zero second derivatives, d2h_t/d(beta)d(theta_j),
    follow the same recursion driven by dh_{t-1}/d(theta_j) (twice that
    for theta_j = beta).  h_1 is fixed, so all of them start at 0.  The
    Hessian needs the second derivatives only summed against
    g_t = d loglik_t / d h_t, and that sum is their drive summed against
    G_t = g_t + beta * G_{t+1}: one backward scan of g instead of three
    forward scans.
    """
    rows, n = r2.shape
    drive = _blocked((rows, 3), matrices)
    drive[:, 0, 1:n] = 1.0
    drive[:, 1, 1:n] = r2[:, :-1]
    drive[:, 2, 1:n] = h[:, :-1]
    d = _scan_blocked(drive, matrices)[..., :n]
    # d2 loglik_t / d h_t^2 = (1/2 - z) / h^2 and g = (z - 1) / (2 h) with
    # z = r^2 / h, formed in place and each dropped once used: on long
    # series every fresh temporary costs page faults
    g = r2 / h
    d2l = 0.5 - g
    d2l /= h
    d2l /= h
    hess = np.empty((rows, 3, 3))
    for i in range(3):
        hess[:, i] = ((d[:, i] * d2l)[:, None] @ d.transpose(0, 2, 1))[:, 0]
    del d2l
    g -= 1.0
    g *= 0.5
    g /= h
    backward = _scan(g[:, ::-1], matrices)  # G in reverse order
    beta_row = (d[..., :-1] @ backward[:, -2::-1, None])[..., 0]
    beta_row[:, 2] *= 2.0
    hess[:, 2, :] += beta_row
    hess[:, :, 2] += beta_row
    hess[:, 2, 2] -= beta_row[:, 2]
    return (d @ g[..., None])[..., 0], hess


def _natural_params(x):
    """(omega / h_1, alpha, beta) of the search coordinates x = (omega / h_1, pi, s).

    x is one point (3,) or one point per row (rows x 3).
    """
    u, persistence, share = x.T
    return u, persistence * share, persistence * (1.0 - share)


def _box_derivatives(score, hess, x):
    """Each row's score and Hessian in (omega / h_1, alpha, beta) carried to x.

    x = (omega / h_1, pi, s) holds one point per row.  The chain rule
    through d(alpha, beta)/d(pi, s), plus the second derivatives of
    alpha = pi*s and beta = pi*(1-s).
    """
    jac = np.zeros((len(x), 3, 3))
    jac[:, 0, 0] = 1.0
    jac[:, 1, 1] = x[:, 2]
    jac[:, 1, 2] = x[:, 1]
    jac[:, 2, 1] = 1.0 - x[:, 2]
    jac[:, 2, 2] = -x[:, 1]
    jac_t = jac.transpose(0, 2, 1)
    box_hess = jac_t @ hess @ jac
    cross = score[:, 1] - score[:, 2]
    box_hess[:, 1, 2] += cross
    box_hess[:, 2, 1] += cross
    return (jac_t @ score[..., None])[..., 0], box_hess


def _ascent_steps(grad, hess, free):
    """Newton step on each row's free coordinates, and whether -H is positive definite there.

    A held coordinate gets the identity's row and column in -H and a
    gradient of 0, so one stacked solve gives every row's step, exactly
    0 on its held coordinates; a row that holds every coordinate gets a
    step of 0 and counts as concave.  One stacked eigendecomposition
    decides every row: -H is positive definite where its least
    eigenvalue is.  Where it is not, its eigenvalues are replaced by
    their moduli (at least 1e-10 of the largest), so the step still
    ascends and moves away from a saddle along directions of negative
    curvature.  A row whose -H is not finite counts as not concave and
    gets a NaN step, so its search cannot converge.  The eigenvalues of
    a matrix do not depend on the others in the stack, and a concave
    row's matrix goes into the solve unchanged.
    """
    held = ~free
    curvature = np.where(held[:, :, None] | held[:, None, :], np.eye(3), -hess)
    # eigh rejects a whole stack that holds a non-finite matrix
    finite = np.isfinite(curvature).all(axis=(1, 2))
    lam, vec = np.linalg.eigh(np.where(finite[:, None, None], curvature, np.eye(3)))
    concave = finite & (lam[:, 0] > 0.0)
    lam, vec = np.abs(lam[~concave]), vec[~concave]
    lam = np.maximum(lam, 1e-10 * lam.max(axis=-1, keepdims=True))
    curvature[~concave] = (vec * lam[:, None, :]) @ vec.transpose(0, 2, 1)
    step = np.linalg.solve(curvature, np.where(free, grad, 0.0)[..., None])[..., 0]
    step[~finite] = np.nan
    step[held] = 0.0  # the eigenvalue repair leaves rounding residue there
    return step, concave


def _evaluate(z2, x):
    """Variance path, log-likelihood and scan matrices of each row's search point x (h_1 = 1)."""
    u, alpha, beta = _natural_params(x)
    matrices = _scan_matrices(beta, z2.shape[1])
    h = _variance_paths(z2, u, alpha, matrices, 1.0)
    return h, _gaussian_loglik(z2, h), matrices


def _line_search(z2, x, step, grad, loglik, h, matrices, lower, upper):
    """Armijo search from each row's x along its step.

    Each row tries its Newton step projected onto the box first, then
    the step cut where it first reaches a bound it is not on yet, then
    halvings of that.  The cut sets its coordinate onto the bound
    exactly, so the next iteration can hold it instead of creeping
    towards it.  Every trial evaluates every row, and a row that accepts
    tries no more.  Returns which rows accepted, and the state x,
    loglik, h and scan matrices with those rows at their new point and
    the others as they were.  A row with a step of 0 accepts its own
    point at the first trial, so its state does not change.
    """
    state = (x, loglik, h, *matrices)
    accepted = np.zeros(len(x), dtype=bool)
    t = np.ones(len(x))  # step length each row tries next, 0 once it stops
    first = None  # where each row's step first meets a bound, once some row fails
    while t.any():
        trial = np.clip(x + t[:, None] * step, lower, upper)
        if first is not None:
            np.copyto(trial, bound, where=first & (t == reach)[:, None])
        trial_h, trial_ll, trial_matrices = _evaluate(z2, trial)
        ok = (t > 0.0) & (trial_ll >= loglik + ARMIJO * _dot(grad, trial - x))
        # the trial's arrays become the state, with the rows that did not
        # accept copied back: nothing is copied when every row accepts, and
        # the freed old state is memory the next evaluation reuses (updating
        # the state in place cost a 20,000-point fit 60% more page faults)
        trial_state = (trial, trial_ll, trial_h, *trial_matrices)
        if not ok.all():
            for part, kept in zip(trial_state, state):
                part[~ok] = kept[~ok]
        state = trial_state
        accepted |= ok
        t[ok] = 0.0
        if not t.any():
            break
        if first is None:
            bound = np.where(step > 0.0, upper, lower)
            moving = ((step > 0.0) & (x < upper)) | ((step < 0.0) & (x > lower))
            with np.errstate(divide="ignore", invalid="ignore"):
                room = np.where(moving, (bound - x) / step, np.inf)
            first = np.arange(3) == np.argmin(room, axis=1)[:, None]
            reach = room.min(axis=1)
        t = np.where(t > reach, reach, 0.5 * t)
        t[t < MIN_STEP] = 0.0
    x, loglik, h, *matrices = state
    return accepted, x, loglik, h, tuple(matrices)


def _newton(z2, alpha, beta):
    """Projected Newton searches on rows of returns in units of sqrt(h_1), all from alpha, beta.

    omega / h_1 starts at 1 - alpha - beta.  Returns per row the end
    point x, its log-likelihood, whether it converged, and the number of
    steps taken.  Every array keeps one entry per row throughout: a row
    leaves the search, once it converges or its line search fails, by
    holding every coordinate from then on, so its step is exactly 0 and
    its state no longer changes.
    """
    lower = np.array([OMEGA_FLOOR, 0.0, 0.0])
    upper = np.array([np.inf, MAX_PERSISTENCE, 1.0])
    x = np.tile([1.0 - alpha - beta, alpha + beta, alpha / (alpha + beta)], (len(z2), 1))
    h, loglik, matrices = _evaluate(z2, x)
    converged = np.zeros(len(x), dtype=bool)
    iterations = np.zeros(len(x), dtype=int)
    searching = np.ones(len(x), dtype=bool)
    for iteration in range(DEFAULT_MAX_ITER + 1):
        iterations[searching] = iteration
        score, hess = _natural_derivatives(z2, h, matrices)
        # at pi = 0 the variance path does not depend on s: hold s at the
        # end along which the likelihood rises faster in pi
        pinned = np.flatnonzero(x[:, 1] == 0.0)
        x[pinned, 2] = np.where(score[pinned, 1] > score[pinned, 2], 1.0, 0.0)
        grad, hess = _box_derivatives(score, hess, x)
        # hold each coordinate that sits on the bound its gradient points at
        outward = np.where(grad > 0.0, upper, lower)
        outward[pinned, 2] = x[pinned, 2]
        step, concave = _ascent_steps(grad, hess, (x != outward) & searching[:, None])
        converged |= searching & concave & (0.5 * _dot(grad, step) < DEFAULT_TOL)
        searching &= ~converged
        if iteration == DEFAULT_MAX_ITER or not searching.any():
            break
        step[converged] = 0.0  # a row that stops takes no last step
        accepted, x, loglik, h, matrices = _line_search(
            z2, x, step, grad, loglik, h, matrices, lower, upper
        )
        searching &= accepted
        if not searching.any():
            break
    return x, loglik, converged, iterations


def _scaled_squares(r: np.ndarray) -> tuple:
    """Each row's h_1 and (r / sqrt(h_1))**2, and the error garch_fit raises for it, or None.

    r is (rows x n).  h_1 is the sample variance of a row's returns.
    The search runs on returns in units of sqrt(h_1), where neither the
    steps nor the tolerances depend on the scale of the returns.  The
    checks run in garch_fit's order: too short, then constant, then a
    variance that is not a normal float: below the smallest one it keeps
    few digits, and the fit on it reports success with wrong ones.  A
    row that fails one gets z2 of 0.
    """
    rows, n = r.shape
    if n < MIN_FIT_LENGTH:
        text = f"need at least {MIN_FIT_LENGTH} returns to fit GARCH, got {n}"
        return np.ones(rows), np.zeros(r.shape), [InputError(text) for _ in range(rows)]
    with np.errstate(over="ignore"):
        constant = np.ptp(r, axis=1) == 0.0
        h1 = np.var(r, axis=1, ddof=1)
    usable = ~constant & (_SMALLEST_NORMAL <= h1) & (h1 < math.inf)
    errors = [
        None
        if ok
        else InputError("degenerate input: all returns identical")
        if flat
        else NumericalError(f"sample variance of the returns out of floating-point range: {v}")
        for ok, flat, v in zip(usable.tolist(), constant.tolist(), h1.tolist())
    ]
    # a row that fails is divided by inf, which gives 0 without a warning
    return h1, (r / np.sqrt(np.where(usable, h1, np.inf))[:, None]) ** 2, errors


def _fit_rows(r: np.ndarray) -> list:
    """GARCH(1,1) fit of every row of r (rows x n), each as garch_fit fits it alone.

    Returns, row by row, the GarchFit of the row or the InputError /
    NumericalError that garch_fit raises for it.  Rows that cannot be
    fitted (too short, constant, variance out of range) are set aside
    before the search; the others run through one batched search, so
    the memory of a fit grows with the rows it is given: a caller with
    many rows passes them in blocks.
    """
    h1, z2, fits = _scaled_squares(r)
    rows = np.flatnonzero([fit is None for fit in fits])
    if rows.size == 0:
        return fits
    h1, z2 = h1[rows], z2[rows]
    x, loglik, converged, iterations = _newton(z2, START_ALPHA, START_BETA)
    restart = np.flatnonzero(_natural_params(x)[1] == 0.0)
    if restart.size:
        # alpha = 0 leaves no volatility clustering: a face of the box where
        # a search started at high persistence can stall far below an
        # interior optimum.  Search again from low persistence and keep the
        # more likely end point.
        again = _newton(z2[restart], RESTART_ALPHA, RESTART_BETA)
        iterations[restart] += again[3]
        better = again[1] > loglik[restart]
        won = restart[better]
        x[won], loglik[won], converged[won] = (part[better] for part in again[:3])

    u, alpha, beta = _natural_params(x)
    omega = u * h1
    r2 = r[rows] ** 2
    h = _variance_paths(r2, omega, alpha, _scan_matrices(beta, r.shape[1]), h1)
    loglik = _gaussian_loglik(r2, h)
    for k, i in enumerate(rows.tolist()):
        try:
            params = GarchParams(omega=float(omega[k]), alpha=float(alpha[k]), beta=float(beta[k]))
        except InputError as exc:
            fits[i] = exc
            continue
        if not np.isfinite(loglik[k]):
            fits[i] = NumericalError("fitted log-likelihood is non-finite")
            continue
        fits[i] = GarchFit(
            params=params,
            h=h[k],
            loglik=float(loglik[k]),
            converged=bool(converged[k]),
            iterations=int(iterations[k]),
        )
    return fits


def garch_fit(returns) -> GarchFit:
    """Fit GARCH(1,1) by maximizing the Gaussian log-likelihood.

    h_1 is set to the sample variance of the returns, which must be a
    normal float, or NumericalError is raised.  The search is a
    projected Newton method with the exact score and Hessian in
    x = (omega / h_1, pi = alpha + beta, s = alpha / pi) over the box
    [OMEGA_FLOOR, inf) x [0, MAX_PERSISTENCE] x [0, 1], started at
    alpha = 0.05, beta = 0.90 and omega = (1 - alpha - beta) * h_1; if it
    ends at alpha = 0, a second search starts at alpha = 0.10, beta = 0.40
    and the more likely end wins.  Each
    iteration holds the coordinates that sit on a bound with the gradient
    pointing out of the box, takes a Newton step on the others (see
    _ascent_steps for where -H is not positive definite) and searches
    along it (_line_search).  At pi = 0 the variance path does not depend
    on s; s is then held at the end (0 or 1) along which the likelihood
    rises faster in pi.

    ``converged`` is True only when -H is positive definite on the free
    coordinates and half the Newton decrement there is below DEFAULT_TOL
    nats; every held coordinate's gradient points out of the box by
    construction.  A search stopped by DEFAULT_MAX_ITER or by a failed
    line search returns its last point with ``converged=False``.
    ``iterations`` counts the Newton steps of both searches.

    This is the one-row case of the batched search that fits each
    block of windows of a per-window rolling analysis at once
    (_fit_rows); both give the same fit, bit for bit.

    Returns are used as-is: the filter is defined on raw returns.
    """
    (fit,) = _fit_rows(_return_values(returns)[None])
    if isinstance(fit, Exception):
        raise fit
    return fit


def garch_filter(returns, fit: GarchFit) -> np.ndarray:
    """Standardize returns by the fitted conditional volatility: r_t / sqrt(h_t)."""
    r = _return_values(returns)
    if r.size != fit.h.size:
        raise InputError(
            f"length mismatch: {r.size} returns vs variance path of {fit.h.size}"
        )
    return r / np.sqrt(fit.h)
