from functools import partial

import numpy as np
import pytest

from helpers import lag1_autocorr
from hurstscan import (
    GarchParams,
    GeneratorSpec,
    InputError,
    fgn_autocovariance,
    gen_fgn,
    gen_garch,
    gen_white,
    generate,
    mfdfa,
)


def exact_mean_se(n: int, hurst: float, sigma: float = 1.0) -> float:
    # Var(sample mean) from the exact autocovariance, taper included
    k = np.arange(1, n)
    gamma = fgn_autocovariance(k, hurst, sigma)
    var = (sigma**2 + 2.0 * np.sum((1.0 - k / n) * gamma)) / n
    return float(np.sqrt(var))


def exact_variance_se(n: int, hurst: float, sigma: float = 1.0) -> float:
    # Gaussian case: Var(sample variance) ~ (2/n) * sum of squared autocovariances
    k = np.arange(1, n)
    gamma = fgn_autocovariance(k, hurst, sigma)
    var = 2.0 * (sigma**4 + 2.0 * np.sum((1.0 - k / n) * gamma**2)) / n
    return float(np.sqrt(var))


class TestAutocovariance:
    def test_lag_zero_is_variance(self):
        for hurst in (0.3, 0.5, 0.7):
            assert fgn_autocovariance(0, hurst, sigma=2.0) == pytest.approx(4.0)

    def test_persistent_lag_one(self):
        # (2**1.4 - 2) / 2, evaluated independently
        assert fgn_autocovariance(1, 0.7) == pytest.approx(0.3195079107728942, abs=1e-15)

    def test_antipersistent_lag_one_negative(self):
        assert fgn_autocovariance(1, 0.3) == pytest.approx(-0.242141716744801, abs=1e-15)

    def test_half_is_white(self):
        np.testing.assert_allclose(fgn_autocovariance(np.arange(1, 20), 0.5), 0.0, atol=1e-12)

    def test_sigma_scaling(self):
        k = np.arange(0, 10)
        np.testing.assert_allclose(
            fgn_autocovariance(k, 0.7, sigma=3.0), 9.0 * fgn_autocovariance(k, 0.7)
        )


class TestGenFgn:
    def test_deterministic_in_seed(self):
        a = gen_fgn(4096, 0.7, seed=42)
        b = gen_fgn(4096, 0.7, seed=42)
        np.testing.assert_array_equal(a, b)
        assert not np.array_equal(a, gen_fgn(4096, 0.7, seed=43))

    def test_arbitrary_length(self):
        x = gen_fgn(777, 0.65, seed=1)
        assert x.shape == (777,)
        assert np.all(np.isfinite(x))

    def test_lag1_autocorr_white(self):
        x = gen_fgn(100000, 0.5, seed=10)
        assert abs(lag1_autocorr(x)) < 0.01

    def test_lag1_autocorr_persistent(self):
        x = gen_fgn(100000, 0.7, seed=10)
        assert lag1_autocorr(x) == pytest.approx(0.3195079107728942, abs=0.02)

    def test_lag1_autocorr_antipersistent(self):
        x = gen_fgn(100000, 0.3, seed=10)
        assert lag1_autocorr(x) == pytest.approx(-0.242141716744801, abs=0.02)

    def test_mean_and_variance_within_three_se(self):
        n = 100000
        for hurst in (0.3, 0.5, 0.7):
            x = gen_fgn(n, hurst, seed=101)
            assert abs(x.mean()) <= 3.0 * exact_mean_se(n, hurst)
            assert abs(np.var(x, ddof=1) - 1.0) <= 3.0 * exact_variance_se(n, hurst)

    def test_sigma_is_output_scale(self):
        n = 100000
        x = gen_fgn(n, 0.6, sigma=0.25, seed=7)
        assert abs(np.var(x, ddof=1) - 0.0625) <= 3.0 * exact_variance_se(n, 0.6, 0.25)

    def test_hurst_out_of_range(self):
        for bad in (0.0, 1.0, 1.2, -0.3):
            with pytest.raises(InputError):
                gen_fgn(1000, bad)

    def test_dfa_closure(self):
        # the central oracle loop: generate at known H, recover it by DFA
        for hurst in (0.3, 0.5, 0.7):
            x = gen_fgn(10000, hurst, seed=55)
            _, fit = mfdfa(x, range(10, 51))[2.0]
            assert fit.hurst == pytest.approx(hurst, abs=0.05)


class TestGenWhite:
    def test_deterministic(self):
        np.testing.assert_array_equal(gen_white(500, seed=3), gen_white(500, seed=3))

    def test_variance(self):
        x = gen_white(100000, sigma=2.0, seed=12)
        assert np.var(x, ddof=1) == pytest.approx(4.0, rel=0.02)


class TestGenGarch:
    def test_degenerate_is_iid_gaussian(self):
        x = gen_garch(100000, omega=4.0, alpha=0.0, beta=0.0, seed=21)
        assert np.var(x, ddof=1) == pytest.approx(4.0, rel=0.02)
        assert abs(lag1_autocorr(x)) < 0.01

    def test_unconditional_variance(self):
        x = gen_garch(200000, omega=0.1, alpha=0.1, beta=0.8, seed=8)
        assert np.var(x, ddof=1) == pytest.approx(1.0, rel=0.05)

    def test_deterministic(self):
        a = gen_garch(1000, 0.1, 0.1, 0.8, seed=5)
        b = gen_garch(1000, 0.1, 0.1, 0.8, seed=5)
        np.testing.assert_array_equal(a, b)

    def test_volatility_clustering_present(self):
        # squared returns must be positively autocorrelated
        x = gen_garch(50000, omega=0.1, alpha=0.15, beta=0.8, seed=2)
        assert lag1_autocorr(x * x) > 0.05

    def test_invalid_params(self):
        with pytest.raises(InputError):
            gen_garch(1000, omega=0.1, alpha=0.5, beta=0.5, seed=0)
        with pytest.raises(InputError):
            gen_garch(1000, omega=-1.0, alpha=0.1, beta=0.8, seed=0)


class TestGeneratorSpec:
    def test_dispatch_matches_direct_calls(self):
        np.testing.assert_array_equal(
            generate(GeneratorSpec(kind="fgn", n=512, seed=4, hurst=0.7)),
            gen_fgn(512, 0.7, seed=4),
        )
        np.testing.assert_array_equal(
            generate(GeneratorSpec(kind="gaussian-white", n=512, seed=4, sigma=1.5)),
            gen_white(512, sigma=1.5, seed=4),
        )
        np.testing.assert_array_equal(
            generate(GeneratorSpec(kind="garch", n=512, seed=4, omega=0.1, alpha=0.1, beta=0.8)),
            gen_garch(512, 0.1, 0.1, 0.8, seed=4),
        )

    def test_fgn_requires_hurst(self):
        with pytest.raises(InputError):
            GeneratorSpec(kind="fgn", n=100, seed=0)

    def test_fgn_rejects_hurst_out_of_range(self):
        with pytest.raises(InputError):
            GeneratorSpec(kind="fgn", n=100, seed=0, hurst=1.2)

    def test_garch_requires_stationary_params(self):
        with pytest.raises(InputError):
            GeneratorSpec(kind="garch", n=100, seed=0, omega=0.1, alpha=0.6, beta=0.5)

    def test_unknown_kind(self):
        with pytest.raises(InputError):
            GeneratorSpec(kind="brownian", n=100, seed=0)

    def test_bad_length(self):
        with pytest.raises(InputError):
            GeneratorSpec(kind="fgn", n=0, seed=0, hurst=0.5)



GARCH_OK = {"omega": 1e-6, "alpha": 0.08, "beta": 0.9}

# (label, constructor, a valid set of its float parameters)
GENERATORS = [
    ("GarchParams", GarchParams, GARCH_OK),
    ("gen_garch", partial(gen_garch, 100), GARCH_OK),
    ("gen_white", partial(gen_white, 100), {"sigma": 1.0}),
    ("gen_fgn", partial(gen_fgn, 100), {"hurst": 0.6, "sigma": 1.0}),
    ("GeneratorSpec-fgn", partial(GeneratorSpec, "fgn", 100), {"hurst": 0.6, "sigma": 1.0}),
    ("GeneratorSpec-white", partial(GeneratorSpec, "gaussian-white", 100), {"sigma": 1.0}),
    ("GeneratorSpec-garch", partial(GeneratorSpec, "garch", 100), GARCH_OK),
]


@pytest.mark.parametrize(
    "make, kwargs",
    [
        pytest.param(make, {**valid, name: bad}, id=f"{label}-{name}-{bad}")
        for label, make, valid in GENERATORS
        for name in valid
        for bad in (float("nan"), float("inf"), float("-inf"))
    ],
)
def test_non_finite_parameters_rejected(make, kwargs):
    with pytest.raises(InputError):
        make(**kwargs)
