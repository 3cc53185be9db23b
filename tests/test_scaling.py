import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.lib.stride_tricks import sliding_window_view

from helpers import expected_f2, naive_mfdfa, naive_segment_fluctuations
from hurstscan import FluctuationProfile, InputError, fit_scaling, gen_fgn, gen_garch, mfdfa
from hurstscan import scaling
from hurstscan.scaling import (
    _MOMENT_SCALE,
    _check_qs,
    _check_scale_range,
    _detrend_basis,
    _moment_f2,
    _power_means,
    _prefix_moments,
    _residual_f2,
    _run_moment_f2,
    _scale_f2,
    _segment_starts,
    _series_fq,
    _shared_f2,
    _start_f2,
    _unit_scaled,
)
from hurstscan.synth import fgn_autocovariance


def profile(x) -> np.ndarray:
    """The profile of ``x`` (running sum of the demeaned values) in the units of ``x``."""
    scaled, e = _unit_scaled(x)
    return np.ldexp(np.cumsum(scaled - scaled.mean()), e)


def long_double_f2(segments, order: int) -> np.ndarray:
    """Mean squared residual of each segment (last axis), in long double.

    The reference detrending: Gram-Schmidt (twice) on the centred powers.
    """
    s = segments.shape[-1]
    t = np.arange(s, dtype=np.longdouble) - np.longdouble(s - 1) / 2
    basis = []
    for k in range(order + 1):
        v = t**k
        for _ in range(2):
            for b in basis:
                v = v - (b @ v) * b
        basis.append(v / np.sqrt(v @ v))
    residuals = segments.astype(np.longdouble)
    for b in basis:
        residuals = residuals - np.outer(residuals @ b, b)
    return (residuals * residuals).sum(axis=-1) / s


LONG_DOUBLE = pytest.mark.skipif(
    np.finfo(np.longdouble).eps >= np.finfo(float).eps,
    reason="long double is no wider than double here",
)


def power_mean(f2, q: float) -> float:
    """F_q of one group of squared segment fluctuations, under mfdfa's rules for q."""
    (q,) = _check_qs((q,))
    ((fq,),) = _power_means(np.asarray(f2, dtype=float), (q,), (0,))
    if q < 0 and fq == 0.0:
        raise InputError("zero segment fluctuation with negative q")
    return float(fq)


class TestBuildProfile:
    def test_alternating_series(self):
        np.testing.assert_allclose(profile([1, -1, 1, -1]), [1, 0, 1, 0])

    def test_constant_series_annihilated(self):
        np.testing.assert_allclose(profile([5.0, 5.0, 5.0]), [0, 0, 0])

    def test_direct_arithmetic(self):
        # 3 = 0.75 * 2**2: the values are scaled by 2**-2 before they are demeaned
        scaled, e = _unit_scaled([1.0, 2.0, 3.0])
        assert e.tolist() == [2]
        assert scaled.tolist() == [0.25, 0.5, 0.75]
        np.testing.assert_allclose(profile([1, 2, 3]), [-1, -1, 0])

    def test_too_short(self):
        # every scale needs at least four times its length of series
        with pytest.raises(InputError, match="out of range"):
            mfdfa([1.0], [2], order=0)

    @given(
        st.lists(
            st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
            min_size=2,
            max_size=400,
        )
    )
    def test_profile_closes(self, xs):
        # cumulative demeaned sum returns to zero at the end, in unit-size steps
        scaled, e = _unit_scaled(xs)
        assert scaled.tobytes() == np.ldexp(xs, -e).tobytes()
        assert np.all(np.abs(scaled) < 1.0)
        assert not np.any(xs) or np.abs(scaled).max() >= 0.5
        assert abs(np.cumsum(scaled - scaled.mean())[-1]) <= 1e-9 * len(xs)


class TestAverageFluctuation:
    def test_constant_segments_any_q(self):
        for q in (-2.0, -1.0, 1.0, 2.0, 3.0, 4.0):
            assert power_mean([9.0, 9.0, 9.0], q) == pytest.approx(3.0)

    def test_two_segment_q2(self):
        # ((1 + 4) / 2) ** (1/2), evaluated by hand
        assert power_mean([1.0, 4.0], 2.0) == pytest.approx(
            1.5811388300841898, abs=1e-14
        )

    def test_two_segment_q4(self):
        # ((1**2 + 4**2) / 2) ** (1/4) = 8.5 ** 0.25, evaluated by hand
        assert power_mean([1.0, 4.0], 4.0) == pytest.approx(
            1.7074764851741444, abs=1e-14
        )

    def test_q_zero_rejected(self):
        with pytest.raises(InputError):
            power_mean([1.0, 4.0], 0.0)

    def test_zero_segment_with_negative_q_rejected(self):
        with pytest.raises(InputError):
            power_mean([0.0, 4.0], -2.0)

    @given(
        st.lists(
            st.floats(min_value=1e-3, max_value=1e3), min_size=2, max_size=30
        ),
        st.sampled_from([(-2.0, -1.0), (-1.0, 1.0), (1.0, 2.0), (2.0, 4.0)]),
    )
    def test_monotone_in_q(self, f2, qpair):
        # power means are nondecreasing in the order
        lo, hi = qpair
        assert power_mean(f2, lo) <= power_mean(f2, hi) * (1 + 1e-12)


class TestGroupedPowerMeans:
    QS = (-8.0, -2.0, 2.0, 4.0)

    @staticmethod
    def groups():
        f2 = _scale_f2(profile(gen_fgn(600, 0.6, seed=4)), 10, 1)
        with_zero = f2[:20].copy()
        with_zero[7] = 0.0
        return [
            f2,
            f2[:30],
            # at 2**+-600 every power but q = 2 over- or underflows unless rescaled
            np.ldexp(f2[:30], 600),
            np.ldexp(f2[5:50], -600),
            with_zero,
            f2[3:4],
            np.ldexp(f2[8:9], 600),
        ]

    @pytest.mark.parametrize("seed", range(6))
    def test_each_group_as_alone(self, seed):
        # any choice and order of groups, repeats included: each group's F_q
        # bit for bit as when it is reduced on its own
        groups = self.groups()
        rng = np.random.default_rng(seed)
        chosen = [groups[k] for k in rng.choice(len(groups), size=rng.integers(1, 12))]
        starts = np.cumsum([0] + [g.size for g in chosen[:-1]])
        means = _power_means(np.concatenate(chosen), self.QS, starts)
        assert [m.shape for m in means] == [(len(chosen),)] * len(self.QS)
        for j, group in enumerate(chosen):
            alone = _power_means(group, self.QS, (0,))
            assert [m[j] for m in means] == [a[0] for a in alone], j

    def test_rows_of_groups(self):
        # a 2-d f2: groups along the last axis of every row
        groups = self.groups()
        rows = np.stack([np.concatenate(groups), np.concatenate(groups[::-1])[::-1]])
        starts = np.cumsum([0] + [g.size for g in groups[:-1]])
        means = _power_means(rows, self.QS, starts)
        assert [m.shape for m in means] == [(2, len(groups))] * len(self.QS)
        for i, row in enumerate(rows):
            alone = _power_means(row, self.QS, starts)
            assert [m[i].tobytes() for m in means] == [a.tobytes() for a in alone]

    def test_rescaled_zero_and_single_groups(self):
        groups = self.groups()
        starts = np.cumsum([0] + [g.size for g in groups[:-1]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            means = _power_means(np.concatenate(groups), self.QS, starts)
        for q, fq in zip(self.QS, means):
            # 2**600 in f2 is 2**300 in F_q
            assert fq[2] == pytest.approx(np.ldexp(fq[1], 300), rel=1e-14, abs=0), q
            # a single segment's power mean is its own square root
            assert fq[5] == pytest.approx(np.sqrt(groups[5][0]), rel=1e-15, abs=0), q
            assert fq[6] == pytest.approx(np.sqrt(groups[6][0]), rel=1e-15, abs=0), q
            assert np.isfinite(fq[3]) and fq[3] > 0.0, q
            # a zero segment sends q < 0, and only q < 0, to exactly 0, which
            # mfdfa rejects: the one group that holds a zero
            assert (fq == 0.0).tolist() == [q < 0 and j == 4 for j in range(len(groups))], q


@st.composite
def fq_series(draw):
    """A series, 1-d or rows x T, with its scales, q set and order, for ``_series_fq``.

    Each row lies anywhere in the float range, and some hold a run of
    equal values, whose flat segments give exact zeros, or of values that
    differ only in their last digits, whose segment f2 sit far below the
    rest, so the power means rescale some groups of a call but not others.
    Some series are long enough for scales from ``_MOMENT_SCALE`` up, so
    that at order 1 a call takes segments from both kernels.
    """
    t = draw(st.integers(8, 160) | st.integers(4 * _MOMENT_SCALE, 1200))
    order = draw(st.integers(0, min(3, t // 4 - 2)))
    scales = draw(st.lists(st.integers(order + 2, t // 4), min_size=1, max_size=12, unique=True))
    lead = draw(st.sampled_from([(), (1,), (3,), (7,)]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    x = rng.standard_normal((*lead, t))
    # the run covers one forward segment of the largest scale, which the
    # smaller scales of its power-mean call may not see
    s = max(scales)
    a = s * draw(st.integers(0, t // s - 1))
    noise = draw(st.sampled_from([None, 0.0, 2.0**-30, 2.0**-45]))
    if noise is not None:
        x[..., a : a + s] = x[..., a : a + 1] * (1.0 + noise * rng.standard_normal(s))
    n_rows = lead[0] if lead else 1
    k = draw(st.lists(st.integers(-1000, 1000), min_size=n_rows, max_size=n_rows))
    x = np.ldexp(x, np.reshape(k, (*lead, 1)))
    qs = draw(st.sampled_from([(2.0,), (-2.0, 2.0), (-4.0, 2.0, 4.0), (-8.0, 0.5, 2.0), (8.0, -8.0)]))
    return x, sorted(scales), qs, order


def flat_at_the_larger_scale():
    """A series whose segment [60, 80) is flat at scale 20, while no segment of scale 17 is."""
    x = np.random.default_rng(1).standard_normal(100)
    x[60:80] = x[60]
    return x, [17, 20], (-2.0, 2.0), 1


class TestLargeOrders:
    SERIES = {
        "garch": lambda: gen_garch(3000, 1e-6, 0.08, 0.91, seed=1),
        "fgn": lambda: gen_fgn(20000, 0.7, 0.01, seed=3),
    }

    @pytest.mark.parametrize("name", ["garch", "fgn"])
    @pytest.mark.parametrize("q", [-400.0, 2000.0, -2000.0])
    def test_matches_log_space_power_means(self, name, q):
        # each q's power is ruled by the smallest f2 for q < 0 and the largest
        # for q > 0; the rescale anchored on the largest overflowed at q = -400
        x = self.SERIES[name]()
        scales = range(10, 100)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            fp, fit = mfdfa(x, scales, (q,))[q]
        assert np.isfinite(fit.hurst)
        for s, got in zip(scales, fp.fq):
            log_f2 = np.log(_scale_f2(profile(x), s, 1))
            log_mean = np.logaddexp.reduce(q / 2 * log_f2) - np.log(log_f2.size)
            assert got == pytest.approx(np.exp(log_mean / q), rel=1e-10, abs=0), s

    @pytest.mark.parametrize("q", [2000.0000000000002, -2000.0000000000002, 2100.0])
    def test_orders_past_the_limit_rejected(self, q):
        x = gen_garch(3000, 1e-6, 0.08, 0.91, seed=1)
        with pytest.raises(InputError, match=r"\|q\| must be at most 2000"):
            mfdfa(x, range(10, 100), (2.0, q))

    @given(
        name=st.sampled_from(["garch", "fgn"]),
        qs=st.lists(
            st.floats(-2000.0, 2000.0).filter(lambda q: q != 0.0), min_size=2, max_size=4,
            unique=True,
        ),
    )
    @example(name="garch", qs=[-3.0, 400.0])
    @settings(max_examples=25, deadline=None)
    def test_each_order_as_alone(self, name, qs):
        # each q's bound and rescale follow from that q alone: with one bound
        # for the set, F_-3 moved at 78 of 90 scales once q = 400 was asked too
        x = self.SERIES[name]()
        results = mfdfa(x, range(10, 100), qs)
        for q in qs:
            alone, _ = mfdfa(x, range(10, 100), (q,))[q]
            assert results[q][0].fq.tobytes() == alone.fq.tobytes(), q

    def test_each_sign_as_alone(self):
        # a group far below unit scale: q > 0 keeps the rescale by its largest
        # f2, and q < 0 alone moves to its smallest
        f2 = np.ldexp(_scale_f2(profile(gen_fgn(600, 0.6, seed=4)), 10, 1), -700)
        both = _power_means(f2, (-8.0, 8.0), (0,))
        assert both[1].tobytes() == _power_means(f2, (8.0,), (0,))[0].tobytes()
        assert both[0].tobytes() == _power_means(f2, (-8.0,), (0,))[0].tobytes()


class TestSeriesFq:
    @given(fq_series())
    @example(flat_at_the_larger_scale())
    @settings(max_examples=100, deadline=None)
    def test_each_scale_alone_or_all_at_once(self, drawn):
        # F_q at a scale, bit for bit, whether its scale is asked for alone
        # or shares power-mean calls with the others
        x, scales, qs, order = drawn
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            fq = _series_fq(x, scales, qs, order)
            alone = [_series_fq(x, [s], qs, order) for s in scales]
        assert fq.shape == (len(qs), *x.shape[:-1], len(scales))
        for k, fq_s in enumerate(alone):
            assert fq_s.shape == (*fq.shape[:-1], 1)
            assert fq_s[..., 0].tobytes() == fq[..., k].tobytes(), scales[k]


    def test_moment_chunks_free(self, monkeypatch):
        # the moment kernel works segment by segment: chunks of any size,
        # across scales and rows, give the same bits
        x = np.stack([gen_fgn(2000, h, seed=5) for h in (0.4, 0.8)])
        scales = range(_MOMENT_SCALE - 6, 501)
        want = _series_fq(x, scales, (-4.0, 2.0), 1)
        monkeypatch.setattr(scaling, "_MOMENT_CHUNK", 50)
        assert _series_fq(x, scales, (-4.0, 2.0), 1).tobytes() == want.tobytes()


class TestSegmentFluctuations:
    def test_matches_naive_normal_equations(self):
        rng = np.random.default_rng(7)
        prof = profile(rng.normal(size=20))
        got = _scale_f2(prof, 5, 1)
        want = naive_segment_fluctuations(prof, 5)
        assert got.shape == (8,)
        np.testing.assert_allclose(got, want, atol=1e-10)

    def test_naive_agreement_many_shapes(self):
        rng = np.random.default_rng(123)
        for _ in range(25):
            t = int(rng.integers(12, 51))
            s = int(rng.integers(3, t // 4 + 1))
            prof = profile(rng.normal(size=t))
            np.testing.assert_allclose(
                _scale_f2(prof, s, 1),
                naive_segment_fluctuations(prof, s),
                atol=1e-10,
            )

    def test_divisible_length_symmetry(self):
        # when s divides T the backward pass sees the same segments
        rng = np.random.default_rng(11)
        prof = profile(rng.normal(size=40))
        f2 = _scale_f2(prof, 10, 1)
        assert f2.size == 8
        np.testing.assert_array_equal(np.sort(f2[:4]), np.sort(f2[4:]))

    def test_linear_profile_detrended_exactly(self):
        t = np.arange(60, dtype=float)
        f2 = _scale_f2(3.0 + 2.0 * t, 10, 1)
        np.testing.assert_allclose(f2, 0.0, atol=1e-9)

    def test_quadratic_profile_with_order_two(self):
        t = np.arange(80, dtype=float)
        prof = 1.0 - 0.5 * t + 0.03 * t**2
        np.testing.assert_allclose(_scale_f2(prof, 10, 2), 0.0, atol=1e-9)
        # order 1 must leave the curvature behind
        assert _scale_f2(prof, 10, 1).max() > 1e-3

    def test_scale_bounds(self):
        # the one scale rule of mfdfa and roll, on a profile of 40 points
        with pytest.raises(InputError):
            _check_scale_range(2, 2, 1, 40)  # below order + 2
        with pytest.raises(InputError):
            _check_scale_range(11, 11, 1, 40)  # above T // 4
        _check_scale_range(3, 10, 1, 40)

    @given(
        st.lists(
            st.floats(min_value=-1e4, max_value=1e4), min_size=16, max_size=480
        ),
        st.integers(min_value=3, max_value=120),
    )
    @settings(max_examples=60)
    def test_nonnegative(self, xs, s):
        if s > len(xs) // 4:
            s = len(xs) // 4
        prof = np.cumsum(xs)
        f2 = _scale_f2(prof, s, 1)
        assert np.all(f2 >= 0.0)
        # the moment kernel clamps each residual sum at 0
        starts = _segment_starts(len(xs), s)
        moments = _moment_f2(_prefix_moments(prof), starts, np.full(starts.size, s))
        assert np.all(moments >= 0.0)

    @given(
        t=st.integers(400, 3000),
        scales=st.lists(
            st.integers(_MOMENT_SCALE - 40, _MOMENT_SCALE + 300), min_size=1, max_size=8, unique=True
        ),
        lead=st.sampled_from([(), (1,), (3,)]),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=60, deadline=None)
    def test_moments_agree_with_projection(self, t, scales, lead, seed):
        # the two order-1 kernels on one profile, across the threshold that
        # picks between them: each segment's f2, in the power means' order
        scales = sorted({min(s, t // 4) for s in scales})
        steps, _ = _unit_scaled(np.random.default_rng(seed).standard_normal((*lead, t)))
        prof = np.cumsum(steps - steps.mean(axis=-1, keepdims=True), axis=-1)
        moments = _run_moment_f2(_prefix_moments(prof), None, t, scales)
        projected = np.concatenate([_scale_f2(prof, s, 1) for s in scales], axis=-1)
        np.testing.assert_allclose(moments, projected, rtol=1e-13, atol=0)


class TestDetrendBasis:
    @pytest.mark.parametrize("order", [0, 1, 2, 3])
    def test_orthonormal_and_spans_vandermonde(self, order):
        for s in range(order + 2, 2001):
            basis = _detrend_basis(s, order)
            assert basis.shape == (s, order + 1)
            assert np.abs(basis.T @ basis - np.eye(order + 1)).max() <= 1e-13, s
            # the powers of an abscissa scaled to [-1, 1]: columns of size 1
            vander = np.vander(np.linspace(-1.0, 1.0, s), order + 1, increasing=True)
            outside = vander - basis @ (basis.T @ vander)
            assert np.abs(outside).max() <= 1e-12, s

    @LONG_DOUBLE
    def test_residuals_no_less_accurate_than_qr(self):
        profile = np.cumsum(np.random.default_rng(1).standard_normal(20_000))

        def qr_f2(segments, order):
            x = np.arange(segments.shape[-1], dtype=float)
            basis = np.linalg.qr(np.vander(x, order + 1, increasing=True))[0]
            residuals = segments - (segments @ basis) @ basis.T
            return np.mean(residuals**2, axis=-1)

        for order in range(4):
            scales = [*range(order + 2, 31), 47, 100, 333, 1000, 2500, 5000]
            new, old = [], []
            for s in scales:
                ns = profile.size // s
                segments = profile[: ns * s].reshape(ns, s)
                exact = long_double_f2(segments, order)
                new.append(np.abs(_residual_f2(segments, order) - exact) / exact)
                old.append(np.abs(qr_f2(segments, order) - exact) / exact)
            new, old = (np.concatenate(err).astype(float) for err in (new, old))
            # the worst segment is set by the cancellation in its own residual
            assert new.max() <= 1.01 * old.max(), order
            assert np.sqrt(np.mean(new**2)) <= np.sqrt(np.mean(old**2)), order

    @LONG_DOUBLE
    @pytest.mark.parametrize(
        "name, steps",
        [
            ("random walk", lambda: np.random.default_rng(1).standard_normal(20_000)),
            ("fgn H = 0.9", lambda: gen_fgn(20_000, 0.9, seed=2)),
        ],
    )
    def test_moments_no_less_accurate_than_projection(self, name, steps):
        # the double-double moments cancel the profile's level and trend
        # without rounding them: about one rounding of the result
        profile = np.cumsum(steps())
        table = _prefix_moments(profile)
        new, old = [], []
        for s in (96, 100, 150, 333, 1000, 2500, 5000):
            ns = profile.size // s
            segments = profile[: ns * s].reshape(ns, s)
            exact = long_double_f2(segments, 1)
            moments = _moment_f2(table, s * np.arange(ns), np.full(ns, s))
            new.append(np.abs(moments - exact) / exact)
            old.append(np.abs(_residual_f2(segments, 1) - exact) / exact)
        new, old = (np.concatenate(err).astype(float) for err in (new, old))
        assert new.max() <= old.max(), name
        assert np.sqrt(np.mean(new**2)) <= np.sqrt(np.mean(old**2)), name
        assert new.max() <= 4 * np.finfo(float).eps, name


class TestStartF2:
    @LONG_DOUBLE
    def test_recursion_against_long_double(self):
        # each start's segment grows one point at a time; its running sums
        # less its first step, taken in double as the recursion takes
        # them, are detrended and fitted by a line in long double at three
        # scales.  The slope is the same, bit for bit, at every order
        eps = np.finfo(float).eps
        noise = np.random.default_rng(2).standard_normal(2000)
        steps_by_profile = {
            "white steps": noise,
            "drift 1.0, noise 0.01": 1.0 + 0.01 * noise,
            "trending random walk": np.cumsum(noise) / 30 + 0.2,
        }
        scales = range(10, 51)
        for name, steps in steps_by_profile.items():
            lines = {}
            for order in (1, 2, 3):
                got = dict(zip(scales, _start_f2(steps, scales, order)))
                for s in (10, 23, 50):
                    f2, slope = got[s]
                    assert slope.tobytes() == lines.setdefault(s, slope).tobytes(), (order, s)
                    view = sliding_window_view(steps, s)
                    segments = np.cumsum(view - view[:, :1], axis=1)
                    exact = long_double_f2(segments, order)
                    error = np.abs(f2 - exact).astype(float)
                    # a backward-stable detrending errs by a few ulps of the
                    # profile: its residuals cancel a trend that much larger
                    size = np.sqrt(exact * np.mean(segments**2, axis=-1)).astype(float)
                    assert np.all(error <= 8 * eps * size), (name, order, s)
                    # and the line drawn by the slope, at the segment's ends
                    # (s - 1) / 2 from its centre, by a few ulps of the profile
                    centred = np.arange(s, dtype=np.longdouble) - np.longdouble(s - 1) / 2
                    exact_slope = (segments @ centred) / (centred @ centred)
                    slope_error = np.abs(slope - exact_slope).astype(float)
                    spread = np.sqrt(np.mean(segments**2, axis=-1))
                    assert np.all(slope_error * (s - 1) / 2 <= 8 * eps * spread), (name, order, s)
                    if name == "white steps":
                        relative = error / exact.astype(float)
                        assert relative.max() <= 1e-13, (order, s)
                        assert np.sqrt(np.mean(relative**2)) <= 1e-14, (order, s)


class TestFitScaling:
    def test_exact_power_law(self):
        scales = np.arange(10, 51)
        fp = FluctuationProfile(q=2.0, scales=scales, fq=2.0 * scales**0.6)
        fit = fit_scaling(fp)
        assert fit.hurst == pytest.approx(0.6, abs=1e-12)
        assert fit.log_intercept == pytest.approx(np.log(2.0), abs=1e-12)
        assert fit.r_squared == pytest.approx(1.0, abs=1e-12)
        assert fit.stderr_hurst == pytest.approx(0.0, abs=1e-12)

    def test_constant_fluctuations_zero_slope(self):
        scales = np.arange(10, 21)
        fit = fit_scaling(FluctuationProfile(2.0, scales, np.full(11, 3.0)))
        assert fit.hurst == pytest.approx(0.0, abs=1e-14)

    def test_needs_three_scales(self):
        with pytest.raises(InputError):
            fit_scaling(FluctuationProfile(2.0, np.array([10, 20]), np.array([1.0, 2.0])))


class TestMfdfa:
    def test_white_noise_hurst_half(self):
        x = np.random.default_rng(42).normal(size=10000)
        _, fit = mfdfa(x, range(10, 51))[2.0]
        assert 0.45 <= fit.hurst <= 0.55

    def test_fgn_persistent(self):
        x = gen_fgn(10000, 0.7, seed=5)
        _, fit = mfdfa(x, range(10, 51))[2.0]
        assert 0.65 <= fit.hurst <= 0.75

    def test_fgn_antipersistent(self):
        x = gen_fgn(10000, 0.3, seed=5)
        _, fit = mfdfa(x, range(10, 51))[2.0]
        assert 0.25 <= fit.hurst <= 0.35

    def test_monofractal_flatness(self):
        x = gen_fgn(10000, 0.7, seed=17)
        res = mfdfa(x, range(10, 51), qs=(1.0, 2.0, 3.0, 4.0))
        hs = [res[q][1].hurst for q in (1.0, 2.0, 3.0, 4.0)]
        assert max(hs) - min(hs) < 0.1

    def test_scale_invariance(self):
        # down to 1e-160 the squared residuals would be subnormal, at 1e-170
        # zero, and at 1e300 infinite, were the series not scaled to unit size
        x = gen_fgn(4000, 0.6, seed=3)
        qs = (-2.0, 2.0)
        base = mfdfa(x, range(10, 41), qs)
        for k in (1e-3, 7.3, 1e-160, 1e-170, 1e-300, 1e300):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                got = mfdfa(k * x, range(10, 41), qs)
            for q in qs:
                fit, want = got[q][1], base[q][1]
                assert abs(fit.hurst - want.hurst) <= 1e-12, (k, q)
                assert fit.log_intercept - want.log_intercept == pytest.approx(
                    np.log(k), abs=1e-9
                ), (k, q)

    def test_fluctuations_beyond_the_float_range_rejected(self):
        # every value of x * 2**1020 is finite, but F_2 at the large scales is not
        x = gen_fgn(2000, 0.9, seed=4)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert np.isfinite(mfdfa(np.ldexp(x, 1018), range(10, 501))[2.0][1].hurst)
            with pytest.raises(InputError, match=r"F_q\(s\) leaves the floating-point range"):
                mfdfa(np.ldexp(x, 1020), range(10, 501))

    @given(
        seed=st.integers(0, 2**16),
        order=st.sampled_from([0, 1, 2]),
        q=st.sampled_from([-8.0, -4.0, -2.0, 2.0, 4.0, 8.0]),
        k=st.integers(-1100, 1100),
    )
    @settings(max_examples=60, deadline=None)
    def test_scale_invariance_across_float_range(self, seed, order, q, k):
        # k clipped to the range where every x * 2**k is a normal float:
        # x * 2**k scales every profile value exactly, so F_q scales by 2**k
        # and the fit moves only by rounding.  Where F_q * 2**k itself
        # leaves the float range, mfdfa fails with an InputError, never a
        # warning
        x = gen_fgn(600, 0.6, seed=seed)
        lowest = np.frexp(np.abs(x[x != 0]).min())[1]
        highest = np.frexp(np.abs(x).max())[1]
        k = min(max(k, -1021 - lowest), 1024 - highest)
        scales = range(10, 41)
        want_fp, want_fit = mfdfa(x, scales, (q,), order)[q]
        with np.errstate(over="ignore"):
            want_fq = np.ldexp(want_fp.fq, k)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            if not np.all(np.isfinite(want_fq)):
                with pytest.raises(InputError, match=r"F_q\(s\) leaves the floating-point"):
                    mfdfa(np.ldexp(x, k), scales, (q,), order)
                return
            got_fp, got_fit = mfdfa(np.ldexp(x, k), scales, (q,), order)[q]
        np.testing.assert_allclose(got_fp.fq, want_fq, rtol=1e-12, atol=0)
        for field in ("hurst", "r_squared", "stderr_hurst"):
            assert abs(getattr(got_fit, field) - getattr(want_fit, field)) <= 1e-12, field

    def test_power_means_rescale_row_by_row(self):
        # rows at unit scale and far from it: each row's F_q, bit for bit,
        # whichever rows share its array
        f2 = _scale_f2(profile(gen_fgn(600, 0.6, seed=4)), 10, 1)
        rows = np.stack([np.ldexp(f2, 2 * k) for k in (0, 300, -300, 5, -450)])
        qs = (-8.0, 2.0, 4.0)
        means = _power_means(rows, qs, (0,))
        for i, row in enumerate(rows):
            alone = _power_means(row, qs, (0,))
            assert [m[i, 0] for m in means] == [a[0] for a in alone]
        assert means[1][0, 0] == _power_means(f2, (2.0,), (0,))[0][0]

    def test_shuffle_destroys_persistence(self):
        x = gen_fgn(10000, 0.8, seed=9)
        shuffled = np.random.default_rng(1234).permutation(x)
        _, fit = mfdfa(shuffled, range(10, 51))[2.0]
        assert 0.45 <= fit.hurst <= 0.55

    def test_series_too_short(self):
        with pytest.raises(InputError):
            mfdfa(np.random.default_rng(0).normal(size=150), range(10, 51))

    @pytest.mark.parametrize("q", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_q_rejected(self, q):
        x = np.random.default_rng(3).normal(size=400)
        with pytest.raises(InputError, match="q must be finite"):
            mfdfa(x, range(10, 21), qs=(2.0, q))

    @pytest.mark.parametrize(
        "scales, order, message",
        [
            # truncating these would analyze scales 10, 20 and 30 without a word
            ([10.5, 20.7, 30.9], 1, r"scales must be integers, got 10\.5"),
            (["10", "20", "30"], 1, r"scales must be integers, got '10'"),
            ([10, 20, 30], 1.5, r"order must be an integer, got 1\.5"),
            # order=True once ran as order 1
            ([10, 20, 30], True, r"order must be an integer, got True"),
            ([True, 20, 30], 1, r"scales must be integers, got True"),
        ],
    )
    def test_non_integer_scales_and_order_rejected(self, scales, order, message):
        x = np.random.default_rng(6).normal(size=400)
        with pytest.raises(InputError, match=message):
            mfdfa(x, scales, order=order)

    def test_scale_below_detrending_order_rejected(self):
        x = np.random.default_rng(4).normal(size=400)
        with pytest.raises(InputError, match=r"scales 3\.\.20 out of range \[4, 100\]"):
            mfdfa(x, range(3, 21), order=2)

    @pytest.mark.parametrize("series", [np.ones((2, 10)), np.float64(1.0)])
    def test_series_shape_checked_before_the_scale_range(self, series):
        # a 2-d or 0-d series is no series: its size is no series length
        # for the scale range to be checked against
        with pytest.raises(InputError, match="^series must be one-dimensional$"):
            mfdfa(series, range(10, 51))

    @pytest.mark.parametrize("c", [0.0, 0.1, 7.0, 0.3, 0.001])
    def test_constant_series_degenerate_for_every_order(self, c):
        # demeaning a constant leaves rounding noise, which must not be fitted
        for order in (0, 1, 2):
            with pytest.raises(InputError, match="degenerate"):
                mfdfa(np.full(500, c), range(10, 51), order=order)

    def test_underflowing_fluctuations_leave_the_range(self):
        # 400 points at 2**-1055, all subnormal: F_-4 at unit scale is
        # positive at scales 11..59 but goes below the smallest float at
        # the smallest scales once scaled back, where it read as a zero
        # segment fluctuation
        rng = np.random.default_rng(112)
        x = rng.standard_normal(400)
        x[178:275] = x[178] * (1 + 1e-6 * rng.standard_normal(97))
        x = np.ldexp(x, -1055)
        for qs in ((2.0, -4.0), (-4.0, 2.0)):
            with pytest.raises(InputError, match=r"F_q\(s\) leaves the floating-point range"):
                mfdfa(x, range(11, 60), qs)
        assert np.isfinite(mfdfa(x, range(11, 60), (2.0,))[2.0][1].hurst)
        # the subnormal values keep about 19 bits, fewer than the run's
        # noise: x[200..209] are equal, so the segment of scale 10 from
        # 200 is flat, a true zero
        assert np.all(x[200:210] == x[200])
        with pytest.raises(InputError, match="zero segment fluctuation with negative q"):
            mfdfa(x, range(10, 60), (2.0, -4.0))

    def test_flat_stretch_segments_are_exactly_zero(self):
        x = np.random.default_rng(5).normal(size=400)
        x[100:130] = 0.0
        for qs in ((-2.0, 2.0), (2.0, 4.0, -2.0)):
            with pytest.raises(InputError, match="zero segment fluctuation with negative q"):
                mfdfa(x, range(10, 21), qs=qs)
        # constant detrending leaves the profile's slope over the stretch
        mfdfa(x, range(10, 21), qs=(-2.0, 2.0), order=0)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("order", [0, 1, 2])
    def test_matches_per_scale_reference(self, seed, order):
        x = gen_fgn(1500, 0.6, seed=seed)
        qs = (-4.0, -2.0, 2.0, 4.0)
        scales = range(order + 3, 120, 7)
        results = mfdfa(x, scales, qs, order)
        prof = profile(x)
        for q in qs:
            want = [power_mean(_scale_f2(prof, s, order), q) for s in scales]
            np.testing.assert_allclose(results[q][0].fq, want, rtol=1e-12, atol=0)

    @pytest.mark.parametrize(
        "qs, message",
        [
            ((2.0, -2.0), "degenerate"),
            ((-2.0, 2.0), "zero segment fluctuation with negative q"),
        ],
    )
    def test_all_zero_scale_first_error(self, qs, message):
        # nonzero only where the segments of scale 10 start: every segment
        # of that scale is flat, the other scales' are not
        x = np.zeros(400)
        x[::10] = np.random.default_rng(6).normal(size=40)
        with pytest.raises(InputError, match=message):
            mfdfa(x, range(10, 13), qs)
        mfdfa(x, range(11, 14), qs)

    def test_overflowing_squares_rejected_without_warning(self):
        # returns of about 1e157, whose profile's squares would leave the
        # float range: the series is scaled to unit size before its profile,
        # so F_q is 1e160 times that of the unscaled run and H is the same
        x = gen_garch(200, 1e-6, 0.08, 0.91, seed=8)
        want_fp, want_fit = mfdfa(x, range(3, 16))[2.0]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got_fp, got_fit = mfdfa(x * 1e160, range(3, 16))[2.0]
        np.testing.assert_allclose(got_fp.fq, want_fp.fq * 1e160, rtol=1e-12, atol=0)
        assert abs(got_fit.hurst - want_fit.hurst) <= 1e-12

    def test_results_keyed_and_ordered_by_scale(self):
        x = np.random.default_rng(2).normal(size=800)
        fp, _ = mfdfa(x, [20, 10, 15])[2.0]
        np.testing.assert_array_equal(fp.scales, [10, 15, 20])


def flat_scale_flags(x, scales) -> list[bool]:
    """Whether some segment of each scale covers equal values only, from its definition.

    The segment starting at p is flat when x[p+1..p+s-1] are all equal:
    its profile is then a straight line, which order 1 removes exactly.
    """
    flags = []
    for s in scales:
        m = x.size // s
        starts = [k * s for k in range(m)] + [x.size - (k + 1) * s for k in range(m)]
        flags.append(any(np.all(x[p + 1 : p + s] == x[p + 1]) for p in starts))
    return flags


class TestMfdfaFlushGroups:
    # 2,000 points at scales 4..500: about 19,000 segments, which mfdfa
    # reduces in ten calls of at least a series length each but the last
    SCALES = range(4, 501)
    QS = (-4.0, 2.0, 4.0)

    @staticmethod
    def series():
        return gen_fgn(2000, 0.6, seed=11)

    @staticmethod
    def record_flushes(monkeypatch):
        """F_q by q, one entry per group, of each ``_power_means`` call from here on."""
        calls = []
        real = scaling._power_means

        def recording(f2, qs, starts):
            means = real(f2, qs, starts)
            calls.append({q: fq.copy() for q, fq in zip(qs, means)})
            return means

        monkeypatch.setattr(scaling, "_power_means", recording)
        return calls

    def test_spans_several_flushes(self, monkeypatch):
        calls = self.record_flushes(monkeypatch)
        mfdfa(self.series(), self.SCALES, self.QS)
        assert len(calls) == 10
        assert sum(fq[2.0].size for fq in calls) == len(self.SCALES)

    def test_a_block_of_series_flushes_as_one_series_does(self, monkeypatch):
        # the batch rule counts each series' own values: a block of series
        # makes mfdfa's ten calls, and each series gets its F_q alone
        block = np.stack([gen_fgn(2000, h, seed=11) for h in (0.4, 0.6, 0.8)])
        alone = [_series_fq(x, self.SCALES, self.QS, 1) for x in block]
        calls = self.record_flushes(monkeypatch)
        fq = _series_fq(block, self.SCALES, self.QS, 1)
        assert len(calls) == 10
        for k, want in enumerate(alone):
            assert fq[:, k].tobytes() == want.tobytes(), k

    @pytest.mark.parametrize("seed", range(4))
    def test_scale_free_of_the_other_scales(self, seed):
        # F_q at a scale, bit for bit, whichever scales share its flushes
        x = self.series()
        full = mfdfa(x, self.SCALES, self.QS)
        subset = np.sort(np.random.default_rng(seed).choice(self.SCALES, 60, replace=False))
        part = mfdfa(x, subset, self.QS)
        at = subset - self.SCALES.start
        for q in self.QS:
            assert part[q][0].fq.tobytes() == full[q][0].fq[at].tobytes(), q

    def test_last_flush_of_one_scale(self, monkeypatch):
        # scales 4..451 make exactly nine runs of a series length: 452 is reduced alone
        x = self.series()
        full = mfdfa(x, self.SCALES, self.QS)
        calls = self.record_flushes(monkeypatch)
        part = mfdfa(x, range(4, 453), self.QS)
        assert len(calls) == 10 and calls[-1][2.0].size == 1
        for q in self.QS:
            assert part[q][0].fq.tobytes() == full[q][0].fq[:449].tobytes(), q

    @pytest.mark.parametrize(
        "first, length, later",
        # 6 equal values from 1004: only scales 4..6, the first flush, see
        # them; 300 from 700: scales up to 300, across the first eight flushes
        [(1004, 6, False), (700, 300, True)],
    )
    def test_flat_stretch_flags_its_own_scales(self, monkeypatch, first, length, later):
        x = self.series()
        x[first : first + length] = x[first]
        calls = self.record_flushes(monkeypatch)
        for qs in (self.QS, (2.0, -2.0)):
            with pytest.raises(InputError, match="zero segment fluctuation with negative q"):
                mfdfa(x, self.SCALES, qs)
        # F_q at q < 0 is exactly 0 at the scales that hold a flat segment,
        # and only there, in both runs; at q > 0 it stays positive
        for run, q in ((calls[: len(calls) // 2], -4.0), (calls[len(calls) // 2 :], -2.0)):
            zeros = [fq[q] == 0.0 for fq in run]
            assert np.concatenate(zeros).tolist() == flat_scale_flags(x, self.SCALES), q
            assert any(zero.any() for zero in zeros[1:]) == later, q
            assert all(np.all(fq[2.0] > 0.0) for fq in run), q
        mfdfa(x, self.SCALES, (2.0, 4.0))


class TestMfdfaOracle:
    QS = (-8.0, -4.0, -2.0, 2.0, 4.0, 8.0)
    # from 10 points up: a cubic fitted to fewer leaves residuals so small
    # that the rounding of the profile's level shows in F_q at q < 0
    SCALES = (10, 14, 20, 30, 45, 70, 100, 150, 250)

    @pytest.mark.parametrize("order", [0, 1, 2, 3])
    @pytest.mark.parametrize("factor", [1.0, 1e-30, 1e30])
    def test_matches_plain_loop(self, order, factor):
        # at 1e+-30 f2 lies beyond 2**+-128, where _power_means rescales rows for |q| = 8
        x = gen_fgn(1000, 0.6, seed=4) * factor
        got = mfdfa(x, self.SCALES, self.QS, order)
        want = naive_mfdfa(x, self.SCALES, self.QS, order)
        for q in self.QS:
            fp, fit = got[q]
            fq, hurst, r_squared = want[q]
            np.testing.assert_allclose(fp.fq, fq, rtol=1e-12, atol=0, err_msg=f"q={q}")
            assert fit.hurst == pytest.approx(hurst, rel=1e-12, abs=0), q
            assert fit.r_squared == pytest.approx(r_squared, rel=1e-12, abs=0), q

    @pytest.mark.parametrize("order", [0, 1, 2, 3])
    def test_matches_plain_loop_across_flushes(self, order):
        # scales 10..500 of 2,000 points: their segments make about eight
        # runs of a series length, so F_q comes from several power-mean calls
        x = gen_fgn(2000, 0.6, seed=4)
        scales = range(10, 501)
        got = mfdfa(x, scales, self.QS, order)
        want = naive_mfdfa(x, scales, self.QS, order)
        for q in self.QS:
            fp, fit = got[q]
            fq, hurst, r_squared = want[q]
            np.testing.assert_allclose(fp.fq, fq, rtol=1e-12, atol=0, err_msg=f"q={q}")
            assert fit.hurst == pytest.approx(hurst, rel=1e-12, abs=0), q
            assert fit.r_squared == pytest.approx(r_squared, rel=1e-12, abs=0), q


class TestExpectedFluctuation:
    # the mean F_2**2 of N independent Gaussian windows lies within K
    # standard errors of expected_f2's exact curve at every scale; N and K
    # were fixed before the first run
    WINDOW, SCALES, N, K = 200, range(10, 51), 2000, 5.0
    # autocovariances by lag: fGn (H = 0.5 is white noise), and white
    # noise plus an AR(1) of time constant 20 carrying 30% of the variance
    PROCESSES = {
        "0.5": lambda k: fgn_autocovariance(k, 0.5),
        "0.7": lambda k: fgn_autocovariance(k, 0.7),
        "0.3": lambda k: fgn_autocovariance(k, 0.3),
        "ar1": lambda k: np.where(k == 0, 1.0, 0.3 * np.exp(-k / 20.0)),
    }

    @pytest.mark.parametrize("producer", ["series", "shared"])
    @pytest.mark.parametrize("order", [1, 2, 3])
    @pytest.mark.parametrize("process", PROCESSES)
    def test_mean_f2_within_clt_band(self, process, order, producer):
        # the windows are the rows of Cholesky-coloured standard normals:
        # each through _series_fq on its own profile, or the rows end to
        # end as one series whose windows _shared_f2 takes w apart, so
        # that each is one row
        w, scales = self.WINDOW, self.SCALES
        gamma = self.PROCESSES[process](np.arange(w))
        lag = np.abs(np.subtract.outer(np.arange(w), np.arange(w)))
        rows = np.random.default_rng(7).standard_normal((self.N, w))
        rows = rows @ np.linalg.cholesky(gamma[lag]).T
        if producer == "series":
            (fq,) = _series_fq(rows, scales, (2.0,), order)
        else:
            fq, own = _shared_f2(rows.ravel(), w * np.arange(self.N), w, scales, order)
            assert own.size == 0
        f2 = fq**2
        z = (f2.mean(axis=0) - expected_f2(gamma, w, scales, order)) / (
            f2.std(axis=0, ddof=1) / np.sqrt(self.N)
        )
        assert np.all(np.abs(z) <= self.K), dict(zip(scales, np.round(z, 2)))


UNEQUAL = "scales and fq must be 1-d arrays of equal length"


class TestValidationMessages:
    # each raises its InputError cleanly, with warnings as errors
    @pytest.mark.parametrize(
        "make, message",
        [
            (lambda x: mfdfa(x, range(10, 51), qs=[]), "empty q set"),
            (lambda x: mfdfa(x, range(10, 51), order=-1), "polynomial order must be non-negative"),
            (lambda x: mfdfa(x, []), "empty scale set"),
            (
                lambda x: mfdfa(np.where(np.arange(x.size) == 7, np.nan, x), range(10, 51)),
                "series contains non-finite values",
            ),
            (lambda x: FluctuationProfile(2.0, [], []), "empty scale set"),
            (lambda x: FluctuationProfile(2.0, [10, 11], [1.0]), UNEQUAL),
            (lambda x: FluctuationProfile(2.0, [[10, 11]], [[1.0, 1.0]]), UNEQUAL),
        ],
    )
    def test_raises(self, make, message):
        x = gen_fgn(500, 0.6, seed=1)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InputError, match=f"^{message}$"):
                make(x)


class TestFluctuationProfileType:
    def test_to_dict(self):
        fp = FluctuationProfile(2.0, np.array([10, 11]), np.array([0.5, 0.625]))
        d = fp.to_dict()
        assert d == {"q": 2.0, "scales": [10, 11], "fq": [0.5, 0.625]}
        assert [type(s) for s in d["scales"]] == [int, int]
        assert [type(f) for f in d["fq"]] == [float, float]

    def test_rejects_unsorted_scales(self):
        with pytest.raises(InputError):
            FluctuationProfile(2.0, np.array([10, 10, 12]), np.array([1.0, 1.0, 1.0]))

    def test_rejects_nonpositive_fluctuations(self):
        with pytest.raises(InputError):
            FluctuationProfile(2.0, np.array([10, 12, 14]), np.array([1.0, 0.0, 1.0]))

    def test_csv_export_format(self, tmp_path):
        fp = FluctuationProfile(2.0, np.array([10, 11]), np.array([0.5, 0.625]))
        path = tmp_path / "fluct.csv"
        fp.write_csv(path)
        assert path.read_text() == "s,fq\n10,0.5\n11,0.625\n"
