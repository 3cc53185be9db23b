"""Multifractal detrended fluctuation analysis (MF-DFA).

Implements the standard MF-DFA procedure of Kantelhardt et al. (2002):
cumulate the demeaned series into a profile, split the profile into
segments of length s (from the front and from the back, so no
observation is dropped when the length is not a multiple of s), remove
a least-squares polynomial trend from every segment, and average the
squared residuals across segments with a power mean of order q.  The
average fluctuations F_q(s) follow a power law in s whose log-log slope
is the generalized Hurst exponent H(q).

``mfdfa`` and ``roll`` share one detrending rule, and two producers of
F_q.  ``_series_fq`` serves series with a profile of their own
(``mfdfa``'s one series, a block of ``roll``'s windows).  Below
``_MOMENT_SCALE``, and at every scale for orders other than 1, it
detrends each scale's segments in place in their profile by one
projection.  At order 1 from ``_MOMENT_SCALE`` up it takes each
segment's residual sum from differences of double-double prefix sums
of y, k*y and y**2 (``_moment_f2``).  A projection passes over the
whole profile at every scale, while the moments cost a fixed amount
per segment, of which a scale has 2T/s, so the constant sits where the
two costs cross, whatever T is.  Each segment's moment arithmetic is
elementwise, so its bits depend on nothing beside it.  It then takes
the power means of consecutive scales in one call and scales F_q back
to the series' units.  The power mean reduces every scale on its own,
so F_q at a scale is the same, bit for bit, whichever other scales are
asked for.  ``_shared_f2`` serves windows that share one series'
segments, at q = 2 only: one pass over the segment lengths 1..s_max
updates the fit at every start of the series by Givens rotations
(``_start_f2``), and at each scale one strided reduce over those
per-start values sums every window's segments, with no copy, so F_2
comes out for all windows at once.  It names the windows it cannot
serve (far below the series' scale, or degenerate), and ``roll`` takes
those through ``_series_fq``.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, fields
from typing import Iterable, Sequence

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .exceptions import InputError
from .ingest import _FLOAT, _INT, _is_integer, _write_table

__all__ = ["FluctuationProfile", "ScalingFit", "fit_scaling", "mfdfa"]

# a row's powers f2**(q/2) are left as they are while its dominant term
# lies within 2**+-_POWER_BITS: sums of such terms stay normal and finite
_POWER_BITS = 512
# a rescaled row's dominant f2 lies in [0.5, 2), so its power lies within
# 2**+-(|q| / 2): up to 2**+-1000, which leaves room for 2**22 terms
_MAX_ABS_Q = 2000.0
# order-1 scales from which _series_fq takes segment f2 from prefix moments
# (_moment_f2), not by projection: a projection of one scale passes over
# all 2T profile values, about 60 us at T = 20,000 whatever s is, the
# moments cost a fixed ~200 ns per segment, of which a scale has 2T/s,
# so the two cross near s = 90 whatever T is (timings flat from 96 to 256)
_MOMENT_SCALE = 96
# segments, times series, per chunk of the moment kernel: its temporaries
# stay a few tens of kB each
_MOMENT_CHUNK = 4096


def _even_halves(anchor, bound: float):
    """The k of each group's rescale by 2**-2k: 0 while its anchor value lies within bound**+-1.

    The anchor is the value that dominates the group's result.  Outside
    the bound, k puts it in [0.5, 2), and a result in the root units
    scales back by 2**k.  Powers of two scale exactly in the normal
    range, so a group keeps its bits within the bound and can neither
    overflow nor sink below the normal range outside it.
    """
    far = (anchor > bound) | (anchor < 1.0 / bound)
    return np.where(far, np.frexp(anchor)[1] // 2, 0)


def _in_units(fq, e):
    """F_q at unit scale times 2**e, in place: inf wherever that leaves the float range.

    Above the largest float the product is inf; one below the smallest
    would round to 0, an exactly zero fluctuation's value, so it is set
    to inf too.  ``_check_fluctuations`` then names the range either
    way, and only an F_q that is 0 at unit scale is 0.
    """
    # the smallest value times the smallest 2**e bounds every product from
    # below: while that is positive nothing underflows, and no mask is built
    floor = np.ldexp(np.minimum.reduce(fq, axis=None), np.min(e))
    nonzero = None if floor > 0.0 else fq != 0.0
    with np.errstate(over="ignore"):
        np.ldexp(fq, e, out=fq)
    if nonzero is not None:
        fq[nonzero & (fq == 0.0)] = np.inf
    return fq


def _check_fluctuations(fq) -> None:
    """Reject any F_q(s) that is non-finite or not positive, in an array of any shape."""
    if not np.all(np.isfinite(fq)):
        raise InputError(
            "fluctuations must be finite and positive; F_q(s) leaves the floating-point range"
        )
    if np.any(fq <= 0):
        raise InputError(
            "fluctuations must be finite and positive; "
            "zero fluctuation indicates a degenerate (e.g. constant) input series"
        )


def _check_qs(qs) -> tuple[float, ...]:
    """The moment orders as floats, in first-seen order without repeats: 0 < |q| <= 2000."""
    q_set = tuple(dict.fromkeys(map(float, qs)))
    if not q_set:
        raise InputError("empty q set")
    if 0.0 in q_set:
        raise InputError("q = 0 is not supported")
    if not all(map(math.isfinite, q_set)):
        raise InputError(f"q must be finite, got {list(q_set)}")
    if max(map(abs, q_set)) > _MAX_ABS_Q:
        raise InputError(f"|q| must be at most {_MAX_ABS_Q:g}, got {list(q_set)}")
    return q_set


def _check_scale_range(s_min: int, s_max: int, order: int, length: int) -> None:
    """Every scale s of a series of ``length`` points needs order + 2 <= s <= length // 4."""
    if not order >= 0:
        raise InputError("polynomial order must be non-negative")
    if not (order + 2 <= s_min and s_max <= length // 4):
        raise InputError(
            f"scales {s_min}..{s_max} out of range [{order + 2}, {length // 4}] "
            f"for series length {length}"
        )


def _float_fields(record) -> dict:
    """A dataclass record of numbers as {field name: Python float}, in field order."""
    return {f.name: float(getattr(record, f.name)) for f in fields(record)}


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
    """OLS fit of ln F_q(s) on ln s: slope is H(q), intercept the log prefactor.

    ``stderr_hurst`` is the OLS standard-error formula applied to the
    points ln F_q(s), as if they were independent.  They come from
    overlapping segments of one series and are strongly correlated, so
    it is a fit diagnostic, not a sampling error: on windows of 500
    white-noise returns at scales 10..50, H varies with a standard
    deviation of 0.061 across windows while the median ``stderr_hurst``
    is 0.011 (README, "Output schema").
    """

    q: float
    hurst: float
    log_intercept: float
    r_squared: float
    stderr_hurst: float

    def to_dict(self) -> dict:
        return _float_fields(self)


def _unit_scaled(values):
    """The values (last axis), each series scaled to unit size, and the scale.

    Each series (each row of a 2-d array) is scaled by the power of two
    2**-e that puts its largest |value| in [0.5, 1); e comes back with
    the last axis kept, and F_q of the scaled series times 2**e is F_q
    of the series.  A power of two scales exactly while nothing leaves
    the normal range, so the mean, the running sums and the detrending
    residuals are 2**-e times the series' own, bit for bit, and a
    series far from unit scale can neither overflow the squared
    residuals nor sink them below the normal range.
    """
    x = np.asarray(values, dtype=float)
    largest = np.maximum.reduce(np.abs(x), axis=-1, keepdims=True)
    if not np.all(np.isfinite(largest)):
        raise InputError("series contains non-finite values")
    e = np.frexp(largest)[1]
    return np.ldexp(x, -e), e


def _scale_f2(profiles, s: int, order: int) -> np.ndarray:
    """Per-segment mean squared detrending residuals at scale s of C-contiguous float profiles.

    Each profile (last axis) of length T is cut into floor(T/s) segments
    from the front and floor(T/s) from the back, so both tails are
    covered when s does not divide T, and each segment is detrended by
    a least-squares polynomial of the given order.  The last axis of the
    result holds the forward segments in order, then the backward ones
    (the j-th covers [T-(j+1)*s, T-j*s)), as ``_segment_starts`` lists them.

    The segments are not copied: a strided view replaces each profile's
    axis by (2, floor(T/s), s), whose row 0 holds the forward segments
    in order and row 1 the backward ones from the head of the profile on
    (when s divides T both rows are the same segments).  One detrending
    call, and so one basis, covers both rows, and the backward row is
    reversed into place.
    """
    t = profiles.shape[-1]
    m = t // s
    step = profiles.itemsize
    # the ndarray constructor: as_strided's generic path costs ten times as
    # much, once per scale
    segments = np.ndarray(
        (*profiles.shape[:-1], 2, m, s),
        float,
        profiles,
        0,
        (*profiles.strides[:-1], (t - m * s) * step, s * step, step),
    )
    f2 = _residual_f2(segments, order)
    return np.concatenate([f2[..., 0, :], f2[..., 1, ::-1]], axis=-1)


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
    runs along that row alone, but the matmul does not: BLAS picks its
    kernel, and so its rounding, by the shape of the stack, and a row
    detrended within a stack of another height may differ in its last
    bits.  What holds is that the same stack shape gives the same bits,
    so callers that must agree bit for bit keep the shape.
    """
    s = segments.shape[-1]
    basis = _detrend_basis(s, order)
    # in place: a fresh full-size temporary per step and scale costs page
    # faults whenever the allocator has handed the pages back in between
    residuals = (segments @ basis) @ basis.T
    np.subtract(segments, residuals, out=residuals)
    return np.einsum("...i,...i->...", residuals, residuals) / s


def _two_sum(a, b):
    """a + b as (s, e): s = fl(a + b) and s + e = a + b exactly (Knuth's TwoSum)."""
    s = a + b
    v = s - a
    return s, (a - (s - v)) + (b - v)


def _renormalized(s, e):
    """s + e as a pair whose head is the rounded sum (Fast2Sum).

    Exact while |e| <= |s|; past that, as where two heads cancel, the
    tail is off by about a rounding of e.
    """
    head = s + e
    return head, e - (head - s)


def _split(a):
    """a as two halves of at most 26 bits each, a = high + low (Veltkamp)."""
    c = 134217729.0 * a  # 2**27 + 1
    high = c - (c - a)
    return high, a - high


def _two_product(a, b):
    """a * b as (p, e): p = fl(a * b) and p + e = a * b exactly (Dekker's TwoProduct).

    Exact while the factors and their half products stay clear of
    over- and underflow.
    """
    p = a * b
    a1, a2 = _split(a)
    b1, b2 = _split(b)
    return p, ((a1 * b1 - p) + a1 * b2 + a2 * b1) + a2 * b2


def _dd_sum(x, y):
    """The sum of two double-double pairs (head, tail)."""
    s, e = _two_sum(x[0], y[0])
    return _renormalized(s, e + (x[1] + y[1]))


def _dd_product(x, y):
    """The product of two double-double pairs (head, tail)."""
    p, e = _two_product(x[0], y[0])
    return _renormalized(p, e + (x[0] * y[1] + x[1] * y[0]))


def _dd_quotient(x, d):
    """The double-double pair x divided by the float d."""
    q = x[0] / d
    p, e = _two_product(q, d)
    return _renormalized(q, ((x[0] - p) - e + x[1]) / d)


def _prefix_moments(profiles):
    """Running sums of y, k*y and y**2 along the last axis of the profiles y, as double-double pairs.

    k is each value's position in its profile.  Returns three pairs
    (head, tail) of arrays (..., T + 1): entry j holds the sum over
    positions below j, so any run of positions sums as the difference
    of two entries.  Each term is first taken exactly as a pair
    (``_two_product``).  ``np.cumsum`` adds the heads left to right, so
    each step rounds fl(head + term), whose error is the TwoSum error of
    the two; those errors and the terms' tails sum in a second
    ``np.cumsum`` (Ogita, Rump & Oishi, SIAM J. Sci. Comput. 26, 2005,
    at every prefix).  Head plus tail is then the running sum up to
    about eps**2 * T times its size.
    """
    t = profiles.shape[-1]
    table = []
    for term, tail in (
        (profiles, 0.0),
        _two_product(np.arange(t, dtype=float), profiles),
        _two_product(profiles, profiles),
    ):
        head = np.zeros((*profiles.shape[:-1], t + 1))
        np.cumsum(term, axis=-1, out=head[..., 1:])
        _, error = _two_sum(head[..., :-1], term)
        error += tail
        low = np.zeros_like(head)
        np.cumsum(error, axis=-1, out=low[..., 1:])
        table.append((head, low))
    return table


def _moment_f2(table, starts, lengths):
    """Mean squared residual about its least-squares line of each profile segment, from prefix moments.

    Segment j covers the ``lengths[j]`` positions from ``starts[j]`` of
    each profile of ``_prefix_moments``' table; the result has the
    table's leading shape and one entry per segment.  Each segment's
    sums M0 of y, M1 of k*y and M2 of y**2 are differences of table
    entries.  With c its centre position and S_tt = s (s**2 - 1) / 12
    the sum of the squared positions about c, S_yy = M2 - M0**2 / s,
    S_ty = M1 - c M0 and the residual sum of squares is
    S_yy - S_ty**2 / S_tt.  Those
    differences cancel the profile's level and trend, so they run in
    double-double arithmetic, and only the residual sum is rounded to a
    float, clamped at 0.  S_tt is exact for s < 2**17.  Every step is
    elementwise, so a segment's bits depend on nothing beside it.
    """
    ends = starts + lengths
    m0, m1, m2 = (
        _dd_sum(
            (np.take(h, ends, axis=-1), np.take(l, ends, axis=-1)),
            (-np.take(h, starts, axis=-1), -np.take(l, starts, axis=-1)),
        )
        for h, l in table
    )
    s = lengths.astype(float)
    centre = starts + (s - 1.0) / 2.0
    p, e = _dd_product(m0, (centre, 0.0))
    cross = _dd_sum(m1, (-p, -e))
    level = _dd_quotient(_dd_product(m0, m0), s)
    tilt = _dd_quotient(_dd_product(cross, cross), s * (s * s - 1.0) / 12.0)
    p, e = _dd_sum(level, tilt)
    rss, _ = _dd_sum(m2, (-p, -e))
    return np.maximum(rss, 0.0) / s


def _run_moment_f2(table, marker, length: int, scales):
    """``_moment_f2`` of every segment of a run of scales, end to end, ``_MOMENT_CHUNK`` at a time.

    The segments are numbered as ``_run_segments`` numbers them, and
    each chunk's positions and lengths are built for that chunk alone;
    each chunk gets ``_zero_flat``'s exact zeros.
    """
    scales = np.asarray(scales)
    total = int(np.sum(2 * (length // scales)))
    lead = table[0][0].shape[:-1]
    f2 = np.empty((*lead, total))
    step = max(1, _MOMENT_CHUNK // math.prod(lead))
    for a in range(0, total, step):
        starts, lengths = _run_segments(length, scales, np.arange(a, min(a + step, total)))
        chunk = f2[..., a : a + starts.size]
        chunk[...] = _moment_f2(table, starts, lengths)
        _zero_flat(chunk, marker, lengths, 1, starts)
    return f2


def _segment_starts(length: int, s: int) -> np.ndarray:
    """First profile position of each segment of a series, in ``_scale_f2``'s order."""
    return _run_segments(length, [s], np.arange(2 * (length // s)))[0]


def _run_segments(length: int, scales, at):
    """First profile position and length of segments ``at`` of a run of scales (increasing).

    The run's segments are numbered end to end: each scale's in
    ``_scale_f2``'s order, floor(length/s) forward from the head, then
    as many backward from the tail, the j-th covering
    [length - (j+1)*s, length - j*s).
    """
    scales = np.asarray(scales)
    counts = 2 * (length // scales)
    ends = np.cumsum(counts)
    k = np.searchsorted(ends, at, side="right")
    s, m = scales[k], counts[k] // 2
    # the segment's number within its scale
    i = at - ends[k] + 2 * m
    return np.where(i < m, i * s, length - (i - m + 1) * s), s


def _run_marker(x) -> np.ndarray | None:
    """marker[..., t]: how many of x[..., 1..t] differ from their predecessor.

    One per series (or row of series), read by ``_constant``; None when
    no two neighbours are equal, so no run of values is constant.
    """
    changes = x[..., 1:] != x[..., :-1]
    if changes.all():
        return None
    marker = np.zeros(x.shape, dtype=np.intp)
    np.cumsum(changes, axis=-1, out=marker[..., 1:])
    return marker


def _constant(marker, first, last):
    """Whether x[..., first..last] are all equal, for each pair of positions, by x's run marker."""
    return marker[..., last] == marker[..., first]


def _zero_flat(f2, marker, s, order: int, starts=None):
    """Set f2 = 0 exactly, in place, on segments whose profile detrending removes.

    Over x[a+1] = ... = x[a+s-1] the profile of the segment starting at
    a is a straight line, which order >= 1 removes up to rounding noise
    that would pass for a tiny fluctuation.  A constant series is flat
    for every order.  ``starts`` default to ``_segment_starts``'; an
    array ``s`` gives each segment's own length.
    """
    if marker is None:
        return f2
    if starts is None:
        starts = _segment_starts(marker.shape[-1], s)
    flat = _constant(marker, [0], [-1])
    if order >= 1:
        flat = flat | _constant(marker, starts + 1, starts + s - 1)
    f2[np.broadcast_to(flat, f2.shape)] = 0.0
    return f2


def _start_f2(steps, scales, order: int):
    """Each scale's mean squared detrending residual, and straight-line slope, at every start.

    Yields, for each of ``scales`` (consecutive and increasing), two
    arrays of n - s + 1 values.  Entry a of the first is the mean
    squared residual, about its least-squares polynomial of the given
    order (>= 1; ``_shared_f2`` builds order 0 on order 1), of the
    running sums of ``steps[a : a + s] - steps[a]`` taken left to right;
    entry a of the second is the slope of those sums' least-squares
    line: the triangle's z[1], which the rotations of any later
    polynomial term leave as they find it.

    One pass grows every start's segment by one point at a time,
    vectorized over the starts.  A least-squares fit over a segment
    that gains a point updates with one Givens rotation per polynomial
    term, and its residual sum of squares gains one non-negative term,
    so nothing cancels (Gentleman, J. Inst. Maths Applics 12, 1973, in
    his square-root-free form).  Term i of a row x of weight w turns
    the triangle's d_i into d_i + w x_i**2, takes r -= x_i z_i off the
    row's remainder, adds w x_i / d_i' times r to z_i and scales w by
    d_i / d_i'; the remainder left after the last term adds w r**2.
    Every start has the same design row (1, k, ..., k**order) at its
    k-th point, so the triangle (d, u), the rotations and the weight are
    scalars; only the right-hand sides z and the remainder r are arrays.
    The profile grows as ``profile += steps[k:] - steps``: each segment's
    running sum of its own steps less its first, a linear term that the
    detrending removes, so no sum spans two segments and each rounds at
    its segment's spread, as ``mfdfa``'s demeaned profile does.
    """
    n, p = steps.size, order + 1
    # zeros at the end let every start run to the largest scale; the
    # values of the starts without a whole segment are never read
    padded = np.concatenate([steps, np.zeros(scales[-1] - 1)])
    profile, rss, r, t = np.zeros(n), np.zeros(n), np.empty(n), np.empty(n)
    z = np.zeros((p, n))
    d = [0.0] * p
    u = [[0.0] * p for _ in range(p)]
    for k in range(scales[-1]):
        np.subtract(padded[k : k + n], steps, out=t)
        profile += t
        x = [float(k) ** i for i in range(p)]
        weight = 1.0
        np.subtract(profile, z[0], out=r)
        for i in range(p):
            if i:
                np.multiply(z[i], x[i], out=t)
                r -= t
            d_new = d[i] + weight * x[i] * x[i]
            rotate = weight * x[i] / d_new
            weight *= d[i] / d_new
            d[i] = d_new
            for j in range(i + 1, p):
                x[j] -= x[i] * u[i][j]
                u[i][j] += rotate * x[j]
            np.multiply(r, rotate, out=t)
            z[i] += t
            if weight == 0.0:
                # the row is absorbed into the triangle: it leaves no remainder
                break
        if weight:
            np.multiply(r, r, out=t)
            t *= weight
            rss += t
        if k + 1 >= scales[0]:
            yield rss[: n - k] / (k + 1), z[1, : n - k].copy()


def _window_sums(f2_at, first: int, step: int, count: int, ns: int, back: int, s: int):
    """Each of ``count`` windows' sum of its 2 * ns segment values, added in one order for all.

    Window j's values sit in ``f2_at`` at first + step * j plus s * i
    (forward segments) and back + s * i (backward ones), i < ns, where
    back < s or back = 0.  One strided view, (2, ns, windows), holds
    them, and one ``np.add.reduce`` over its first two axes sums them
    with no copy.  numpy orders a reduction's loops by stride, so the
    window axis is kept the innermost, the one of the smallest stride:
    the sums run on a grid of starts whose spacing divides the step and
    is at most the other strides, and add every window's terms in one
    order, whatever the step and the number of windows.
    """
    if count == 1:
        # an axis of one window would be dropped, and the terms summed
        # in another order: the window twice, at stride 0
        grid, skip, rows = 0, 1, 2
    else:
        # the largest divisor of the step that is no larger than the
        # view's other nonzero strides
        limit = back or s
        grid = step if step <= limit else max(d for d in range(1, limit + 1) if step % d == 0)
        skip = step // grid
        rows = (count - 1) * skip + 1
    item = f2_at.itemsize
    # the ndarray constructor: as_strided's generic path costs ten times
    # as much, once per scale
    view = np.ndarray(
        (2, ns, rows), float, f2_at, first * item, (back * item, s * item, grid * item)
    )
    return np.add.reduce(view, axis=(0, 1))[::skip][:count]


def _slope_squares(slope, steps, means, first: int, step: int, ns: int, back: int, s: int):
    """Each window's sum of (b' + (x_a - m))**2 over its 2 * ns segments, one segment at a time.

    The windows and their segments are laid out as ``_window_sums`` has
    them; ``slope`` holds b' and ``steps`` x_a at every start a, and
    ``means`` each window's m.  Each of the 2 * ns segment positions is
    one strided slice over the windows, so the work holds a few arrays
    of one value per window, and every window adds its terms in one order.
    """
    count = means.size
    total, t = np.zeros(count), np.empty(count)
    for a in (*range(first, first + ns * s, s), *range(first + back, first + back + ns * s, s)):
        at = slice(a, a + step * (count - 1) + 1, step or 1)
        np.subtract(steps[at], means, out=t)
        t += slope[at]
        total += np.square(t, out=t)
    return total


def _shared_f2(values, starts, window: int, scales, order: int):
    """F_2 of every window of one series that shares its segments, and the windows it cannot serve.

    The windows are ``window`` points long and begin at ``starts``,
    which step evenly; ``scales`` are consecutive and increasing, as
    ``roll``'s are.  Returns a (windows x scales) array, F_2 in the
    series' units (the transpose of one (scales x windows) buffer), and
    the numbers of the windows, in order, whose F_2 must come from their
    own values instead; their rows hold no usable F_2.

    Over one segment, a window's profile differs from the running sum
    of the values started at the segment's first point only by a
    constant plus a linear term.  Detrending of order >= 1 removes both,
    so a segment's squared fluctuation depends only on its own values:
    the series is scaled to unit size (``_unit_scaled``) but not
    demeaned, and ``_start_f2`` computes every start's value, one scale
    after the other.  Order 0 keeps the linear term.  With the running
    sums split into their line a + b i and a residual orthogonal to 1
    and i, the window's profile over the segment is a constant plus
    (b - m) i and that residual, m the window's mean, so

        f2_0(window, segment) = f2_1(segment) + (s**2 - 1) / 12 * (b - m)**2.

    ``_start_f2``'s slope b' is that of the steps less the first, x_a,
    so b - m is taken as b' + (x_a - m), where m is rounded as ``mfdfa``
    rounds it, or is the value of a constant window, whose rounded mean
    often is not.  At q = 2, F_2 is the root of the mean of a window's
    2 * (window // s) segment values, whose sums ``_window_sums`` and
    ``_slope_squares`` take for all windows at once.  While a window's
    per-start values are normal floats its F_2 keeps its bits whatever
    the scale of the rest of the series.  Below, where ``_start_f2``'s
    squares lose digits or underflow to 0, and in a degenerate window,
    F_2 at unit scale is below 2**-485: such windows are returned as the
    ones to serve from their own values.
    """
    count = starts.size
    steps, e = _unit_scaled(values)
    marker = _run_marker(values)
    first = int(starts[0])
    step = int(starts[1] - first) if count > 1 else 0
    if order == 0:
        # the window axis' stride is never below the values', so each
        # window's mean sums in the order of one series' mean
        means = sliding_window_view(steps, window)[first :: step or 1][:count].mean(axis=-1)
        if marker is not None:
            constant = _constant(marker, starts, starts + window - 1)
            means[constant] = steps[starts[constant]]
    fq = np.empty((len(scales), count))
    # order 0 adds its slope term to the order-1 fit
    fit_order = max(order, 1)
    for row, s, (f2_at, slope) in zip(fq, scales, _start_f2(steps, scales, fit_order)):
        if marker is not None:
            _zero_flat(f2_at, marker, s, fit_order, np.arange(f2_at.size))
        ns, back = window // s, window % s
        sums = _window_sums(f2_at, first, step, count, ns, back, s)
        if order == 0:
            squares = _slope_squares(slope, steps, means, first, step, ns, back, s)
            sums += (s * s - 1) / 12 * squares
        np.sqrt(sums / (2 * ns), out=row)
    # a mean f2 below 2**-970, 2**52 times the smallest normal float
    low = np.flatnonzero(np.minimum.reduce(fq, axis=0) < 2.0**-485)
    return _in_units(fq, e).T, low


def _power_means(f2, qs, starts):
    """F_q for each q of each group of ``f2``'s last axis, one array per q.

    ``starts`` are the groups' first positions, increasing from 0: a
    group runs up to the next start, the last one to the end of the
    axis; ``_series_fq`` passes consecutive scales end to end,
    one group per scale.  Each array has ``f2``'s leading shape and
    one entry per group on the last axis.  Nothing is checked here.  A
    group of zeros gives F_q = 0 for every q, and one zero in a group
    gives F_q = 0 for every q < 0, where its power is inf: mfdfa's
    negative-q rule reads that 0, and ``_check_fluctuations`` rejects it.

    A group far from unit scale would over- or underflow in the power.
    The power is dominated by the group's largest f2 for q > 0 and by
    its smallest for q < 0, so for each q a group whose dominant f2 lies
    outside 2**+-(2 * _POWER_BITS / |q|) is scaled by 2**-2k and its F_q
    by 2**k after, k from ``_even_halves``; F_q of x * 2**k is then 2**k
    times F_q of x up to the rounding of the power, and the other terms
    can only shrink in the power.  Sums run by ``np.add.reduceat`` over
    each group alone, and the scaling is decided for each group and q on
    its own, so a group's F_q is, bit for bit, what it gives alone,
    whatever groups and other q sit beside it.
    """
    # roll calls this once per scale, so its fixed cost counts: one array
    # of the group bounds gives the starts and the sizes
    bounds = np.array((*starts, f2.shape[-1]))
    starts, n = bounds[:-1], bounds[1:] - bounds[:-1]
    # whole-array extremes, which on ordinary data show that no group is
    # far from unit scale
    smallest = np.minimum.reduce(f2, axis=None)
    largest = np.maximum.reduce(f2, axis=None)
    fq = []
    for q in qs:
        # the per-group halves (None when no group is far) and f2 scaled by them
        half, x = None, f2
        bound = 2.0 ** min(2.0 * _POWER_BITS / abs(q), 1000.0)
        if largest > bound or smallest < 1.0 / bound:
            dominant = (np.maximum if q > 0 else np.minimum).reduceat(f2, starts, axis=-1)
            half = _even_halves(dominant, bound)
            x = np.ldexp(f2, -2 * np.repeat(half, n, axis=-1))
        with np.errstate(divide="ignore"):
            # at q = 2 the power is the identity, so f2 is summed as it is
            sums = np.add.reduceat(x if q == 2.0 else np.power(x, q / 2.0), starts, axis=-1)
            fq_q = (sums / n) ** (1.0 / q)
        fq.append(fq_q if half is None else np.ldexp(fq_q, half))
    return fq


def _series_fq(values, scales, qs, order: int):
    """F_q(s) of series (last axis) that each have their own profile.

    Each series is scaled to unit size on its own by 2**-e
    (``_unit_scaled``) and demeaned, and its profile is cut as
    ``_scale_f2`` cuts it.  Consecutive scales go to one
    ``_power_means`` call, one group each, once they hold, per series,
    as many values as a series has.  Within a call, order-1 scales from
    ``_MOMENT_SCALE`` up take their f2 from prefix moments: one table
    per call of this function (``_prefix_moments``), and all of the
    call's such segments together, ``_MOMENT_CHUNK`` at a time
    (``_run_moment_f2``).  The other scales are detrended by
    ``_scale_f2``'s projection, one scale at a time, and a lone
    projected scale goes in uncopied; ``_MOMENT_SCALE`` sits where the
    two kernels' costs cross.  Both get ``_zero_flat``'s exact zeros.
    ``scales`` increase, as ``mfdfa``'s and ``roll``'s do.
    Returns F_q scaled back by 2**e (``_in_units``), (q x series x
    scales).  Nothing is checked here: at q < 0 an exactly-zero segment
    makes F_q exactly 0 at its scale, and an F_q that leaves the float
    range when scaled back is inf.
    """
    steps, e = _unit_scaled(values)
    steps -= steps.mean(axis=-1, keepdims=True)
    profiles = np.cumsum(steps, axis=-1)
    marker = _run_marker(values)
    t = profiles.shape[-1]
    table = None
    fq, run, size = [], [], 0
    for k, s in enumerate(scales, 1):
        run.append(s)
        size += 2 * (t // s)
        if size < t and k < len(scales):
            continue
        # the run's scales are increasing: the projected ones come first
        small = [r for r in run if order != 1 or r < _MOMENT_SCALE]
        f2 = [_zero_flat(_scale_f2(profiles, r, order), marker, r, order) for r in small]
        if len(small) < len(run):
            if table is None:
                table = _prefix_moments(profiles)
            f2.append(_run_moment_f2(table, marker, t, run[len(small) :]))
        starts = np.cumsum([0, *(2 * (t // r) for r in run[:-1])])
        joined = f2[0] if len(f2) == 1 else np.concatenate(f2, axis=-1)
        fq.append(np.stack(_power_means(joined, qs, starts)))
        run, size = [], 0
    return _in_units(np.concatenate(fq, axis=-1), e)


def fit_scaling(fp: FluctuationProfile) -> ScalingFit:
    """Ordinary least squares of ln F_q(s) on ln s.

    Slope is the estimated generalized Hurst exponent, intercept the log
    of the scaling prefactor; the slope standard error uses the usual
    OLS formula with n - 2 degrees of freedom over points that are
    correlated, so it measures the fit, not the sampling error of H
    (see ``ScalingFit``).
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
    # in place, so that a block of rows holds at most three arrays of its size
    resid = slope * x
    resid += intercept
    np.subtract(y, resid, out=resid)
    ssr = np.sum(np.square(resid, out=resid), axis=-1)
    sst = np.sum(np.square(dy, out=dy), axis=-1)
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
        Moment orders, 0 < |q| <= 2000: beyond that the power means of
        a group's f2 can leave the float range.
    order : int
        Detrending polynomial order (1 = linear).

    Returns
    -------
    dict mapping q to a (FluctuationProfile, ScalingFit) pair.

    Notes
    -----
    The one-series case of ``roll``'s per-window path: ``_series_fq``
    scales the series to unit size by an exact power of two, detrends
    each scale's 2*floor(T/s) segments (at order 1, by prefix moments
    from ``_MOMENT_SCALE`` = 96 up and by projection below; at other
    orders by projection), averages runs of scales holding T or more values in
    one power-mean call each (991 scales of 20,000 points take ten) and
    scales F_q back.  So a series anywhere in the normal float range
    gives the H it gives at unit scale.  The negative-q rule is checked
    over all scales, on F_q at unit scale: an F_q that only falls below
    the float range once scaled back fails as leaving the range, not as
    a zero segment fluctuation.
    """
    scale_list = list(scales)
    for s in scale_list:
        if not _is_integer(s):
            raise InputError(f"scales must be integers, got {s!r}")
    if not _is_integer(order):
        raise InputError(f"order must be an integer, got {order!r}")
    scale_arr = np.unique(np.asarray(scale_list, dtype=int))
    if scale_arr.size == 0:
        raise InputError("empty scale set")
    q_list = _check_qs(qs)
    x = np.asarray(series, dtype=float)
    if x.ndim != 1:
        raise InputError("series must be one-dimensional")
    _check_scale_range(int(scale_arr[0]), int(scale_arr[-1]), order, x.size)
    fq = _series_fq(x, scale_arr.tolist(), q_list, order)
    out: dict[float, tuple[FluctuationProfile, ScalingFit]] = {}
    for q, fq_q in zip(q_list, fq):
        # a negative power of an exactly-zero segment fluctuation is inf,
        # which sends F_q to exactly 0; one that underflows when scaled
        # back is inf (_in_units), so 0 here is 0 at unit scale
        if q < 0 and np.any(fq_q == 0.0):
            raise InputError("zero segment fluctuation with negative q")
        fp = FluctuationProfile(q=q, scales=scale_arr, fq=fq_q)
        out[q] = (fp, fit_scaling(fp))
    return out
