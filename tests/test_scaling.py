import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import naive_segment_fluctuations
from hurstscan import (
    FluctuationProfile,
    InputError,
    average_fluctuation,
    build_profile,
    fit_scaling,
    gen_fgn,
    gen_garch,
    mfdfa,
    segment_fluctuations,
)
from hurstscan.scaling import _detrend_basis, _power_means, _residual_f2


class TestBuildProfile:
    def test_alternating_series(self):
        np.testing.assert_allclose(build_profile([1, -1, 1, -1]), [1, 0, 1, 0])

    def test_constant_series_annihilated(self):
        np.testing.assert_allclose(build_profile([5.0, 5.0, 5.0]), [0, 0, 0])

    def test_direct_arithmetic(self):
        np.testing.assert_allclose(build_profile([1, 2, 3]), [-1, -1, 0])

    def test_too_short(self):
        with pytest.raises(InputError):
            build_profile([1.0])

    @given(
        st.lists(
            st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
            min_size=2,
            max_size=400,
        )
    )
    def test_profile_closes(self, xs):
        # cumulative demeaned sum returns to zero at the end
        prof = build_profile(xs)
        bound = 1e-9 * len(xs) * max(np.std(xs), 1.0)
        assert abs(prof[-1]) <= bound


class TestAverageFluctuation:
    def test_constant_segments_any_q(self):
        for q in (-2.0, -1.0, 1.0, 2.0, 3.0, 4.0):
            assert average_fluctuation([9.0, 9.0, 9.0], q) == pytest.approx(3.0)

    def test_two_segment_q2(self):
        # ((1 + 4) / 2) ** (1/2), evaluated by hand
        assert average_fluctuation([1.0, 4.0], 2.0) == pytest.approx(
            1.5811388300841898, abs=1e-14
        )

    def test_two_segment_q4(self):
        # ((1**2 + 4**2) / 2) ** (1/4) = 8.5 ** 0.25, evaluated by hand
        assert average_fluctuation([1.0, 4.0], 4.0) == pytest.approx(
            1.7074764851741444, abs=1e-14
        )

    def test_q_zero_rejected(self):
        with pytest.raises(InputError):
            average_fluctuation([1.0, 4.0], 0.0)

    def test_zero_segment_with_negative_q_rejected(self):
        with pytest.raises(InputError):
            average_fluctuation([0.0, 4.0], -2.0)

    @given(
        st.lists(
            st.floats(min_value=1e-3, max_value=1e3), min_size=2, max_size=30
        ),
        st.sampled_from([(-2.0, -1.0), (-1.0, 1.0), (1.0, 2.0), (2.0, 4.0)]),
    )
    def test_monotone_in_q(self, f2, qpair):
        # power means are nondecreasing in the order
        lo, hi = qpair
        assert average_fluctuation(f2, lo) <= average_fluctuation(f2, hi) * (1 + 1e-12)


class TestSegmentFluctuations:
    def test_matches_naive_normal_equations(self):
        rng = np.random.default_rng(7)
        prof = build_profile(rng.normal(size=20))
        got = segment_fluctuations(prof, 5)
        want = naive_segment_fluctuations(prof, 5)
        assert got.shape == (8,)
        np.testing.assert_allclose(got, want, atol=1e-10)

    def test_naive_agreement_many_shapes(self):
        rng = np.random.default_rng(123)
        for _ in range(25):
            t = int(rng.integers(12, 51))
            s = int(rng.integers(3, t // 4 + 1))
            prof = build_profile(rng.normal(size=t))
            np.testing.assert_allclose(
                segment_fluctuations(prof, s),
                naive_segment_fluctuations(prof, s),
                atol=1e-10,
            )

    def test_divisible_length_symmetry(self):
        # when s divides T the backward pass sees the same segments
        rng = np.random.default_rng(11)
        prof = build_profile(rng.normal(size=40))
        f2 = segment_fluctuations(prof, 10)
        assert f2.size == 8
        np.testing.assert_array_equal(np.sort(f2[:4]), np.sort(f2[4:]))

    def test_linear_profile_detrended_exactly(self):
        t = np.arange(60, dtype=float)
        f2 = segment_fluctuations(3.0 + 2.0 * t, 10, order=1)
        np.testing.assert_allclose(f2, 0.0, atol=1e-9)

    def test_quadratic_profile_with_order_two(self):
        t = np.arange(80, dtype=float)
        prof = 1.0 - 0.5 * t + 0.03 * t**2
        np.testing.assert_allclose(segment_fluctuations(prof, 10, order=2), 0.0, atol=1e-9)
        # order 1 must leave the curvature behind
        assert segment_fluctuations(prof, 10, order=1).max() > 1e-3

    def test_scale_bounds(self):
        prof = np.arange(40, dtype=float)
        with pytest.raises(InputError):
            segment_fluctuations(prof, 2, order=1)  # below order + 2
        with pytest.raises(InputError):
            segment_fluctuations(prof, 11)  # above T // 4

    @given(
        st.lists(
            st.floats(min_value=-1e4, max_value=1e4), min_size=16, max_size=120
        ),
        st.integers(min_value=3, max_value=30),
    )
    @settings(max_examples=60)
    def test_nonnegative(self, xs, s):
        if s > len(xs) // 4:
            s = len(xs) // 4
        f2 = segment_fluctuations(np.cumsum(xs), s)
        assert np.all(f2 >= 0.0)


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

    @pytest.mark.skipif(
        np.finfo(np.longdouble).eps >= np.finfo(float).eps,
        reason="long double is no wider than double here",
    )
    def test_residuals_no_less_accurate_than_qr(self):
        # a long-double reference: Gram-Schmidt (twice) on the centred powers
        profile = np.cumsum(np.random.default_rng(1).standard_normal(20_000))

        def qr_f2(segments, order):
            x = np.arange(segments.shape[-1], dtype=float)
            basis = np.linalg.qr(np.vander(x, order + 1, increasing=True))[0]
            residuals = segments - (segments @ basis) @ basis.T
            return np.mean(residuals**2, axis=-1)

        def exact_f2(segments, order):
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

        for order in range(4):
            scales = [*range(order + 2, 31), 47, 100, 333, 1000, 2500, 5000]
            new, old = [], []
            for s in scales:
                ns = profile.size // s
                segments = profile[: ns * s].reshape(ns, s)
                exact = exact_f2(segments, order)
                new.append(np.abs(_residual_f2(segments, order) - exact) / exact)
                old.append(np.abs(qr_f2(segments, order) - exact) / exact)
            new, old = (np.concatenate(err).astype(float) for err in (new, old))
            # the worst segment is set by the cancellation in its own residual
            assert new.max() <= 1.01 * old.max(), order
            assert np.sqrt(np.mean(new**2)) <= np.sqrt(np.mean(old**2)), order


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
        x = gen_fgn(4000, 0.6, seed=3)
        base = mfdfa(x, range(10, 41))[2.0][1]
        for k in (1e-3, 7.3):
            fit = mfdfa(k * x, range(10, 41))[2.0][1]
            assert abs(fit.hurst - base.hurst) <= 1e-12
            assert fit.log_intercept - base.log_intercept == pytest.approx(
                np.log(k), abs=1e-9
            )

    @given(
        seed=st.integers(0, 2**16),
        order=st.sampled_from([0, 1, 2]),
        q=st.sampled_from([-8.0, -4.0, -2.0, 2.0, 4.0, 8.0]),
        k=st.integers(-400, 400),
    )
    @settings(max_examples=60, deadline=None)
    def test_scale_invariance_across_float_range(self, seed, order, q, k):
        # x * 2**k scales every profile value exactly, so F_q scales by 2**k
        # and the fit moves only by rounding; unscaled, f2**(q/2) would over-
        # or underflow far from unit scale
        x = gen_fgn(600, 0.6, seed=seed)
        scales = range(10, 41)
        want_fp, want_fit = mfdfa(x, scales, (q,), order)[q]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got_fp, got_fit = mfdfa(np.ldexp(x, k), scales, (q,), order)[q]
        np.testing.assert_allclose(got_fp.fq, np.ldexp(want_fp.fq, k), rtol=1e-12, atol=0)
        for field in ("hurst", "r_squared", "stderr_hurst"):
            assert abs(getattr(got_fit, field) - getattr(want_fit, field)) <= 1e-12, field

    def test_power_means_rescale_row_by_row(self):
        # rows at unit scale and far from it: each row's F_q, bit for bit,
        # whichever rows share its array
        f2 = segment_fluctuations(build_profile(gen_fgn(600, 0.6, seed=4)), 10)
        rows = np.stack([np.ldexp(f2, 2 * k) for k in (0, 300, -300, 5, -450)])
        qs = (-8.0, 2.0, 4.0)
        means, _ = _power_means(rows, qs)
        for i, row in enumerate(rows):
            alone, _ = _power_means(row, qs)
            assert [m[i] for m in means] == alone
        assert means[1][0] == _power_means(f2, (2.0,))[0][0]

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
        with pytest.raises(InputError, match="q must be finite"):
            average_fluctuation([1.0, 4.0], q)

    def test_scale_below_detrending_order_rejected(self):
        x = np.random.default_rng(4).normal(size=400)
        with pytest.raises(InputError, match=r"scales 3\.\.20 out of range \[4, 100\]"):
            mfdfa(x, range(3, 21), order=2)

    @pytest.mark.parametrize("c", [0.0, 0.1, 7.0, 0.3, 0.001])
    def test_constant_series_degenerate_for_every_order(self, c):
        # demeaning a constant leaves rounding noise, which must not be fitted
        for order in (0, 1, 2):
            with pytest.raises(InputError, match="degenerate"):
                mfdfa(np.full(500, c), range(10, 51), order=order)

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
        profile = build_profile(x)
        for q in qs:
            want = [
                average_fluctuation(segment_fluctuations(profile, s, order), q) for s in scales
            ]
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
        # returns of about 1e157: the profile's squares leave the float range
        x = gen_garch(200, 1e-6, 0.08, 0.91, seed=8) * 1e160
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InputError, match="floating-point range"):
                mfdfa(x, range(3, 16))
            with pytest.raises(InputError, match="floating-point range"):
                segment_fluctuations(build_profile(x), 3)
        # at 1e-10 of that size every square fits
        mfdfa(x * 1e-10, range(3, 16))

    def test_results_keyed_and_ordered_by_scale(self):
        x = np.random.default_rng(2).normal(size=800)
        fp, _ = mfdfa(x, [20, 10, 15])[2.0]
        np.testing.assert_array_equal(fp.scales, [10, 15, 20])


class TestFluctuationProfileType:
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
