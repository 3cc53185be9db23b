import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import make_return_series, sample_kurtosis
from hurstscan import (
    GarchParams,
    InputError,
    garch_filter,
    garch_fit,
    garch_loglik,
    gen_garch,
    gen_white,
    variance_path,
)

# Hand-unrolled three-step recursion for r = [0.1, -0.2, 0.05],
# omega = 0.01, alpha = 0.1, beta = 0.8, h1 = 0.01, computed with the
# math module before the library existed:
#   h2 = 0.01 + 0.1*0.01 + 0.8*0.01   = 0.019
#   h3 = 0.01 + 0.1*0.04 + 0.8*0.019  = 0.0292
#   ll = sum of -0.5*(ln 2pi + ln h_t + r_t^2/h_t)
THREE_STEP_RETURNS = np.array([0.1, -0.2, 0.05])
THREE_STEP_PARAMS = GarchParams(omega=0.01, alpha=0.1, beta=0.8)
THREE_STEP_H = np.array([0.01, 0.019000000000000003, 0.029200000000000004])
THREE_STEP_LOGLIK = 1.6987811300163755


class TestGarchParams:
    def test_stationarity_enforced(self):
        with pytest.raises(InputError):
            GarchParams(omega=0.1, alpha=0.5, beta=0.5)

    def test_omega_must_be_positive(self):
        with pytest.raises(InputError):
            GarchParams(omega=0.0, alpha=0.1, beta=0.8)

    def test_negative_coefficients_rejected(self):
        with pytest.raises(InputError):
            GarchParams(omega=0.1, alpha=-0.01, beta=0.8)

    def test_unconditional_variance(self):
        params = GarchParams(omega=0.1, alpha=0.1, beta=0.8)
        assert params.unconditional_variance == pytest.approx(1.0)


class TestVariancePath:
    def test_three_step_recursion(self):
        h = variance_path(THREE_STEP_RETURNS, THREE_STEP_PARAMS, h1=0.01)
        np.testing.assert_allclose(h, THREE_STEP_H, rtol=1e-14)

    def test_constant_variance_when_alpha_beta_zero(self):
        r = np.array([0.5, -0.3, 0.2, 0.1])
        h = variance_path(r, GarchParams(omega=2.0, alpha=0.0, beta=0.0), h1=2.0)
        np.testing.assert_allclose(h, 2.0)

    def test_h1_must_be_positive(self):
        with pytest.raises(InputError):
            variance_path(THREE_STEP_RETURNS, THREE_STEP_PARAMS, h1=0.0)

    @given(
        st.lists(st.floats(min_value=-5, max_value=5), min_size=2, max_size=200),
        st.floats(min_value=1e-6, max_value=1.0),
        st.floats(min_value=0.0, max_value=0.5),
        st.floats(min_value=0.0, max_value=0.49),
        st.floats(min_value=1e-6, max_value=4.0),
    )
    @settings(max_examples=80)
    def test_path_exceeds_omega(self, r, omega, alpha, beta, h1):
        # every h_t is omega plus nonnegative terms, except the seeded h_1
        params = GarchParams(omega=omega, alpha=alpha, beta=beta)
        h = variance_path(np.array(r), params, h1=h1)
        assert np.all(h > 0.0)
        assert np.all(h[1:] >= omega * (1 - 1e-12))


class TestGarchLoglik:
    def test_zero_returns_unit_variance(self):
        ll = garch_loglik(np.zeros(2), GarchParams(1.0, 0.0, 0.0), h1=1.0)
        assert ll == pytest.approx(-1.8378770664093453, abs=1e-14)

    def test_three_step_oracle(self):
        ll = garch_loglik(THREE_STEP_RETURNS, THREE_STEP_PARAMS, h1=0.01)
        assert ll == pytest.approx(THREE_STEP_LOGLIK, abs=1e-12)

    def test_nonstationary_params_unconstructible(self):
        with pytest.raises(InputError):
            garch_loglik(THREE_STEP_RETURNS, GarchParams(0.01, 0.7, 0.4), h1=0.01)

    def test_needs_two_returns(self):
        with pytest.raises(InputError):
            garch_loglik(np.array([0.1]), THREE_STEP_PARAMS, h1=0.01)


class TestGarchFit:
    def test_recovers_simulated_parameters(self):
        r = gen_garch(5000, omega=0.1, alpha=0.1, beta=0.8, seed=7)
        fit = garch_fit(r)
        assert fit.converged
        assert fit.params.omega == pytest.approx(0.1, abs=0.05)
        assert fit.params.alpha == pytest.approx(0.1, abs=0.05)
        assert fit.params.beta == pytest.approx(0.8, abs=0.05)

    def test_loglik_beats_random_feasible_draws(self):
        r = gen_garch(2000, omega=0.2, alpha=0.12, beta=0.75, seed=3)
        fit = garch_fit(r)
        h1 = float(np.var(r, ddof=1))
        rng = np.random.default_rng(99)
        for _ in range(100):
            alpha, beta = rng.dirichlet((1.0, 1.0, 1.0))[:2] * 0.999
            params = GarchParams(omega=float(rng.uniform(0.01, 2.0)), alpha=alpha, beta=beta)
            assert garch_loglik(r, params, h1) <= fit.loglik + 1e-9

    def test_white_noise_variance_level(self):
        # on iid data the fitted variance path must sit at sigma^2 even
        # though (alpha, beta) themselves are not identified there
        for seed in (0, 1, 2):
            r = gen_white(5000, sigma=0.02, seed=seed)
            fit = garch_fit(r)
            assert np.all(np.abs(fit.h / 0.0004 - 1.0) < 0.10)
            filtered = garch_filter(r, fit)
            assert 0.9 <= np.var(filtered, ddof=1) <= 1.1

    @pytest.mark.xfail(
        strict=False,
        reason="on iid data the likelihood is flat in beta once alpha is 0, and "
        "finite-sample variance drift pulls Nelder-Mead to the alpha+beta boundary; "
        "the point estimates are not interpretable there even though the fitted "
        "variance path is correct (see test_white_noise_variance_level)",
    )
    def test_white_noise_point_estimates(self):
        r = gen_white(5000, sigma=0.02, seed=1)
        fit = garch_fit(r)
        assert fit.params.alpha + fit.params.beta < 0.1
        assert fit.params.unconditional_variance == pytest.approx(0.0004, rel=0.1)

    def test_constant_returns_rejected(self):
        with pytest.raises(InputError):
            garch_fit(np.full(500, 0.01))

    def test_short_series_rejected(self):
        with pytest.raises(InputError):
            garch_fit(np.random.default_rng(0).normal(size=99))

    def test_accepts_return_series_objects(self):
        series = make_return_series(gen_garch(600, 0.1, 0.1, 0.8, seed=1))
        fit = garch_fit(series)
        assert fit.h.size == 600

    def test_demean_option(self):
        r = gen_garch(1000, 0.1, 0.1, 0.8, seed=4) + 5.0
        fit = garch_fit(r, demean=True)
        # without demeaning the huge offset dominates the variance level
        assert fit.params.unconditional_variance < 5.0

    def test_json_round_trip_fields(self):
        fit = garch_fit(gen_garch(500, 0.1, 0.1, 0.8, seed=6))
        d = fit.to_dict()
        assert set(d) == {"omega", "alpha", "beta", "loglik", "converged", "iterations"}
        assert isinstance(d["converged"], bool)
        assert isinstance(d["iterations"], int)


class TestGarchFilter:
    def test_constant_variance_scaling(self):
        r = np.linspace(-0.5, 0.5, 200)
        params = GarchParams(omega=4.0, alpha=0.0, beta=0.0)
        h = variance_path(r, params, h1=4.0)
        fit_like = garch_fit(gen_garch(500, 0.1, 0.1, 0.8, seed=0))
        filtered = garch_filter(
            r, type(fit_like)(params=params, h=h, loglik=0.0, converged=True, iterations=0)
        )
        np.testing.assert_allclose(filtered, r / 2.0)

    def test_zero_return_stays_zero(self):
        r = gen_garch(600, 0.1, 0.1, 0.8, seed=9).copy()
        r[300] = 0.0
        fit = garch_fit(r)
        assert garch_filter(r, fit)[300] == 0.0

    def test_roundtrip_reproduces_input(self):
        r = gen_garch(2000, 0.1, 0.1, 0.8, seed=10)
        fit = garch_fit(r)
        back = garch_filter(r, fit) * np.sqrt(fit.h)
        np.testing.assert_allclose(back, r, rtol=1e-12)

    def test_kurtosis_reduced(self):
        r = gen_garch(20000, omega=0.1, alpha=0.15, beta=0.8, seed=11)
        fit = garch_fit(r)
        filtered = garch_filter(r, fit)
        assert sample_kurtosis(filtered) < sample_kurtosis(r)

    def test_length_mismatch(self):
        r = gen_garch(600, 0.1, 0.1, 0.8, seed=12)
        fit = garch_fit(r)
        with pytest.raises(InputError):
            garch_filter(r[:-1], fit)
