import csv
import math

import numpy as np
import pytest

from hurstscan import (
    FluctuationProfile,
    InputError,
    ScalingFit,
    fit_scaling,
    gen_fgn,
    liquidity_indicators,
    mfdfa,
    rescale,
)

SCALES = np.arange(10, 51)


def exact_profile(c: float, hurst: float) -> FluctuationProfile:
    return FluctuationProfile(q=2.0, scales=SCALES, fq=c * SCALES**hurst)


def flat_fit(log_intercept: float = 0.0, hurst: float = 0.0) -> ScalingFit:
    return ScalingFit(
        q=2.0, hurst=hurst, log_intercept=log_intercept, r_squared=1.0, stderr_hurst=0.0
    )


def indicators_of(r_values, log_intercept: float = 0.0):
    """Indicators of a window whose R(s) is ``r_values``: with H = 0, R(s) = F(s)^2."""
    r = np.asarray(r_values, dtype=float)
    fp = FluctuationProfile(q=2.0, scales=SCALES[: r.size], fq=np.sqrt(r))
    return liquidity_indicators(fp, flat_fit(log_intercept))


def pure_python_measures(scales, fq, hurst):
    """Rescale and summarize with plain floats, no numpy, as a cross-check."""
    r_vals = [float(f) ** 2 / float(s) ** (2.0 * hurst) for s, f in zip(scales, fq)]
    n = len(r_vals)
    mean = sum(r_vals) / n
    ssq = sum((v - mean) ** 2 for v in r_vals)
    return (
        r_vals,
        math.sqrt(ssq / (n - 1)),
        max(r_vals) - min(r_vals),
        max(r_vals) / min(r_vals),
    )


class TestRescale:
    def test_exact_power_law_cancels(self):
        fp = exact_profile(2.0, 0.7)
        r = rescale(fp, fit_scaling(fp))
        assert r.shape == fp.scales.shape
        np.testing.assert_allclose(r, 4.0, rtol=1e-12)

    def test_doubled_endpoint_with_external_hurst(self):
        fq = SCALES**0.6
        fq[-1] *= 2.0
        fp = FluctuationProfile(q=2.0, scales=SCALES, fq=fq)
        fit = ScalingFit(q=2.0, hurst=0.6, log_intercept=0.0, r_squared=1.0, stderr_hurst=0.0)
        r = rescale(fp, fit)
        assert r[-1] == pytest.approx(4.0 * r[0], rel=1e-12)

    def test_matches_recomputation_from_exported_csv(self, tmp_path):
        # recompute R(s) by hand from the CSV the library writes
        fp, fit = mfdfa(gen_fgn(500, 0.7, seed=14), range(10, 51))[2.0]
        path = tmp_path / "fluct.csv"
        fp.write_csv(path)
        with open(path, newline="") as fh:
            rows = list(csv.DictReader(fh))
        r_hand = [float(r["fq"]) ** 2 / int(r["s"]) ** (2.0 * fit.hurst) for r in rows]
        np.testing.assert_allclose(rescale(fp, fit), r_hand, rtol=1e-12)

    def test_requires_q_two(self):
        fp = FluctuationProfile(q=1.0, scales=SCALES, fq=SCALES**0.5)
        fit = ScalingFit(q=1.0, hurst=0.5, log_intercept=0.0, r_squared=1.0, stderr_hurst=0.0)
        with pytest.raises(InputError):
            rescale(fp, fit)


class TestFZero:
    def test_zero_intercept(self):
        assert indicators_of([1.0, 3.0], log_intercept=0.0).f0 == 1.0

    def test_log_two_intercept(self):
        assert indicators_of([1.0, 3.0], log_intercept=math.log(2.0)).f0 == pytest.approx(2.0)

    def test_exact_fit_recovers_prefactor(self):
        fp = exact_profile(0.04, 0.5)
        assert liquidity_indicators(fp, fit_scaling(fp)).f0 == pytest.approx(0.04, rel=1e-12)


class TestMeasures:
    # R = [1, 3] comes from F = [1, sqrt(3)], whose square is 3 to within one ulp
    def test_f_sigma_two_point(self):
        assert indicators_of([1.0, 3.0]).f_sigma == pytest.approx(math.sqrt(2.0), abs=1e-14)

    def test_f_sigma_constant_is_zero(self):
        assert indicators_of(np.full(SCALES.size, 2.5)).f_sigma == 0.0

    def test_f_sigma_needs_two_scales(self):
        with pytest.raises(InputError, match="at least 2 scales"):
            indicators_of([1.0])

    def test_f_range_two_point(self):
        assert indicators_of([1.0, 3.0]).f_range == pytest.approx(2.0, rel=1e-15)

    def test_f_ratio_two_point(self):
        assert indicators_of([1.0, 3.0]).f_ratio == pytest.approx(3.0, rel=1e-15)

    def test_nonpositive_rescaled_values_unconstructible(self):
        # s^(2H) overflows at H = 200, so R(s) = F^2 / s^(2H) underflows to 0
        fp = FluctuationProfile(q=2.0, scales=np.array([10, 11]), fq=np.array([1.0, 1.0]))
        with np.errstate(over="ignore"), pytest.raises(InputError, match="finite and positive"):
            rescale(fp, flat_fit(hurst=200.0))

    def test_perturbed_profile_matches_pure_python(self):
        fq = 1.3 * SCALES**0.55
        fq[20] *= 2.0
        fp = FluctuationProfile(q=2.0, scales=SCALES, fq=fq)
        fit = fit_scaling(fp)
        ind = liquidity_indicators(fp, fit)
        r_hand, sig_hand, range_hand, ratio_hand = pure_python_measures(
            SCALES, fq, fit.hurst
        )
        np.testing.assert_allclose(rescale(fp, fit), r_hand, rtol=1e-10)
        assert ind.f_sigma == pytest.approx(sig_hand, rel=1e-10)
        assert ind.f_range == pytest.approx(range_hand, rel=1e-10)
        assert ind.f_ratio == pytest.approx(ratio_hand, rel=1e-10)


class TestIndicators:
    def test_exact_scaling_degenerate_suite(self):
        fp = exact_profile(0.04, 0.5)
        ind = liquidity_indicators(fp, fit_scaling(fp))
        assert ind.f0 == pytest.approx(0.04, rel=1e-12)
        assert ind.f_sigma == pytest.approx(0.0, abs=1e-12)
        assert ind.f_range == pytest.approx(0.0, abs=1e-12)
        assert ind.f_ratio == pytest.approx(1.0, abs=1e-12)

    def test_series_scaling_response(self):
        x = gen_fgn(2000, 0.65, seed=20)
        k = 3.7
        base_fp, base_fit = mfdfa(x, range(10, 51))[2.0]
        scaled_fp, scaled_fit = mfdfa(k * x, range(10, 51))[2.0]
        base = liquidity_indicators(base_fp, base_fit)
        scaled = liquidity_indicators(scaled_fp, scaled_fit)
        assert scaled.f0 == pytest.approx(k * base.f0, rel=1e-9)
        assert scaled.f_sigma == pytest.approx(k**2 * base.f_sigma, rel=1e-9)
        assert scaled.f_range == pytest.approx(k**2 * base.f_range, rel=1e-9)
        assert scaled.f_ratio == pytest.approx(base.f_ratio, rel=1e-9)

    def test_monotone_response_to_single_point_perturbation(self):
        fq = SCALES**0.6
        for idx in (5, 20, 35):
            bumped = fq.copy()
            bumped[idx] *= 2.0
            fp = FluctuationProfile(q=2.0, scales=SCALES, fq=bumped)
            ind = liquidity_indicators(fp, fit_scaling(fp))
            assert ind.f_sigma > 1e-6
            assert ind.f_range > 1e-6
            assert ind.f_ratio > 1.0 + 1e-6

    def test_range_ratio_identity(self):
        fq = 0.8 * SCALES**0.45
        fq[7] *= 1.9
        fp = FluctuationProfile(q=2.0, scales=SCALES, fq=fq)
        fit = fit_scaling(fp)
        ind = liquidity_indicators(fp, fit)
        assert ind.f_range == pytest.approx(
            (ind.f_ratio - 1.0) * rescale(fp, fit).min(), rel=1e-12
        )

    def test_json_fields(self):
        fp = exact_profile(1.0, 0.5)
        d = liquidity_indicators(fp, fit_scaling(fp)).to_dict()
        assert set(d) == {"f0", "f_sigma", "f_range", "f_ratio"}
