import functools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.lib.stride_tricks import sliding_window_view

import hurstscan.garch
from helpers import make_return_series, sample_kurtosis
from hurstscan import (
    GarchParams,
    InputError,
    NumericalError,
    garch_filter,
    garch_fit,
    garch_loglik,
    gen_fgn,
    gen_garch,
    gen_white,
    variance_path,
)
from hurstscan.garch import (
    START_ALPHA,
    START_BETA,
    _ascent_steps,
    _box_derivatives,
    _fit_rows,
    _natural_derivatives,
    _natural_params,
    _newton,
    _scaled_squares,
    _scan,
    _scan_matrices,
)

EPS = np.finfo(np.float64).eps

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
        # an input error, not an all-NaN or all-inf path
        for h1 in (0.0, -1.0, np.nan, np.inf, -np.inf):
            with pytest.raises(InputError, match="h1 must be positive and finite"):
                variance_path(THREE_STEP_RETURNS, THREE_STEP_PARAMS, h1=h1)
            with pytest.raises(InputError, match="h1 must be positive and finite"):
                garch_loglik(THREE_STEP_RETURNS, THREE_STEP_PARAMS, h1=h1)

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


def loop_filter(x, beta):
    """y_t = x_t + beta * y_{t-1} from y_{-1} = 0, one value at a time."""
    out, y = [], 0.0
    for value in x:
        y = value + beta * y
        out.append(y)
    return np.array(out)


class TestBlockScan:
    # The loop rounds once per step and the scan sums about 2*sqrt(n)
    # non-negative terms per value; at n <= 3,000 both stay within a few
    # hundred ulps, and 450 ulps is 1e-13.
    RTOL = 450 * EPS

    @given(
        st.integers(min_value=2, max_value=3000),
        st.lists(
            st.floats(min_value=0.0, max_value=1.0, exclude_max=True), min_size=1, max_size=3
        ),
        st.integers(min_value=0, max_value=2**32 - 1),
    )
    @settings(max_examples=60, deadline=None)
    def test_matches_plain_loop(self, n, betas, seed):
        # one factor per row
        x = np.random.default_rng(seed).random((len(betas), n))
        got = _scan(x, _scan_matrices(np.array(betas), n))
        for row, values, beta in zip(got, x, betas):
            np.testing.assert_allclose(row, loop_filter(values, beta), rtol=self.RTOL, atol=0)

    def test_variance_path_is_the_scan(self):
        r = gen_garch(700, 1e-6, 0.08, 0.91, seed=1)
        params = GarchParams(2e-6, 0.1, 0.85)
        h = variance_path(r, params, h1=1e-4)
        want = loop_filter(np.r_[1e-4, params.omega + params.alpha * r[:-1] ** 2], params.beta)
        np.testing.assert_allclose(h, want, rtol=self.RTOL, atol=0)
        assert h[0] == 1e-4


class TestAnalyticDerivatives:
    # Central differences of the log-likelihood: the score's error is of
    # order EPS**(2/3) and the Hessian's (four-point second difference) of
    # order EPS**(1/2), times |loglik| / |derivative|.  The tolerances are
    # one root wider: EPS**(1/2) for the score and EPS**(1/3) for the Hessian,
    # relative to the largest entry, in coordinates scaled by the point.
    SCORE_RTOL = EPS ** (1 / 2)
    HESS_RTOL = EPS ** (1 / 3)

    @staticmethod
    def finite_differences(f, point):
        k = point.size
        basis = np.eye(k)
        d1 = EPS ** (1 / 3) * point
        score = np.array(
            [(f(point + d1[i] * basis[i]) - f(point - d1[i] * basis[i])) / (2 * d1[i]) for i in range(k)]
        )
        d2 = EPS ** (1 / 4) * point
        hess = np.empty((k, k))
        for i in range(k):
            for j in range(k):
                a, b = d2[i] * basis[i], d2[j] * basis[j]
                hess[i, j] = (
                    f(point + a + b) - f(point + a - b) - f(point - a + b) + f(point - a - b)
                ) / (4 * d2[i] * d2[j])
        return score, hess

    def assert_close(self, analytic, numeric, point):
        (score, hess), (fd_score, fd_hess) = analytic, numeric
        scaled = np.outer(point, point)
        assert np.max(np.abs((score - fd_score) * point)) <= self.SCORE_RTOL * np.max(np.abs(score * point))
        assert np.max(np.abs((hess - fd_hess) * scaled)) <= self.HESS_RTOL * np.max(np.abs(hess * scaled))

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_natural_parameters(self, seed):
        r = gen_garch(400, 0.1, 0.1, 0.8, seed=seed)
        h1 = float(np.var(r, ddof=1))
        theta = np.array([0.12, 0.15, 0.7])
        h = variance_path(r, GarchParams(*theta), h1)
        matrices = _scan_matrices(theta[2:], r.size)
        score, hess = _natural_derivatives((r * r)[None], h[None], matrices)
        analytic = score[0], hess[0]
        numeric = self.finite_differences(lambda t: garch_loglik(r, GarchParams(*t), h1), theta)
        self.assert_close(analytic, numeric, theta)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_search_coordinates(self, seed):
        # x = (omega / h_1, alpha + beta, alpha / (alpha + beta)); the fit
        # differentiates on returns in units of sqrt(h_1), which moves the
        # log-likelihood by a constant only
        r = gen_garch(400, 1e-6, 0.08, 0.91, seed=seed)
        h1 = float(np.var(r, ddof=1))
        x = np.array([0.02, 0.95, 0.1])

        def loglik(point):
            u, alpha, beta = _natural_params(point)
            return garch_loglik(r, GarchParams(u * h1, alpha, beta), h1)

        u, alpha, beta = _natural_params(x)
        z = r / np.sqrt(h1)
        h = variance_path(z, GarchParams(u, alpha, beta), 1.0)
        matrices = _scan_matrices(np.array([beta]), r.size)
        score, hess = _box_derivatives(
            *_natural_derivatives((z * z)[None], h[None], matrices), x[None]
        )
        self.assert_close((score[0], hess[0]), self.finite_differences(loglik, x), x)


class TestAscentSteps:
    def test_held_coordinates_step_zero_free_ones_solve_their_block(self):
        # well-conditioned -H = Q diag(lam) Q^T: the first half concave, the
        # second with curvature of either sign; random held coordinates
        rng = np.random.default_rng(3)
        rows = 400
        q = np.linalg.qr(rng.standard_normal((rows, 3, 3)))[0]
        lam = rng.uniform(0.5, 2.0, (rows, 3))
        lam[rows // 2 :] *= rng.choice([-1.0, 1.0], (rows - rows // 2, 3))
        hess = -(q * lam[:, None, :]) @ q.transpose(0, 2, 1)
        grad = rng.standard_normal((rows, 3))
        free = rng.random((rows, 3)) < 0.6
        step, concave = _ascent_steps(grad, hess, free)
        assert np.all(step[~free] == 0.0)
        for k in range(rows):
            f = free[k]
            block = -hess[k][np.ix_(f, f)]
            values, vectors = np.linalg.eigh(block)
            assert concave[k] == bool(np.all(values > 0.0))
            if not concave[k]:
                # the same repair on the free block alone
                moduli = np.abs(values)
                moduli = np.maximum(moduli, 1e-10 * moduli.max())
                block = (vectors * moduli) @ vectors.T
            want = np.linalg.solve(block, grad[k, f]) if f.any() else np.zeros(0)
            error = np.abs(step[k, f] - want).max(initial=0.0)
            assert error <= 1e-12 * np.abs(want).max(initial=0.0)
        assert 0 < concave.sum() < rows
        assert (~free).all(axis=1).any() and free.all(axis=1).any()


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
        # on iid data (alpha, beta) are not identified, and the maximum
        # likelihood path need not stay within 10% of sigma^2 (seeds 2, 4, 9
        # leave that band); against the truth oracle the fit must be at least
        # as likely as the true constant variance and filter to unit variance
        truth = GarchParams(0.0004, 0.0, 0.0)
        for seed in range(20):
            r = gen_white(5000, sigma=0.02, seed=seed)
            fit = garch_fit(r)
            assert fit.loglik >= garch_loglik(r, truth, float(np.var(r, ddof=1))) - 1e-6
            filtered = garch_filter(r, fit)
            assert 0.9 <= np.var(filtered, ddof=1) <= 1.1

    @pytest.mark.xfail(
        strict=False,
        reason="on iid data the likelihood is flat in beta once alpha is 0, and "
        "finite-sample variance drift puts its maximum near the alpha+beta boundary "
        "(alpha+beta = 0.994 on this seed); the point estimates are not interpretable "
        "there even though the fitted variance path is correct "
        "(see test_white_noise_variance_level)",
    )
    def test_white_noise_point_estimates(self):
        r = gen_white(5000, sigma=0.02, seed=1)
        fit = garch_fit(r)
        assert fit.params.alpha + fit.params.beta < 0.1
        assert fit.params.unconditional_variance == pytest.approx(0.0004, rel=0.1)

    def test_realistic_persistence_reaches_the_optimum(self):
        # daily-return scale at the persistence of real index returns: every
        # fit must be at least as likely as the true parameters
        truth = GarchParams(1e-6, 0.08, 0.91)
        alpha_err, beta_err = [], []
        for seed in range(20):
            r = gen_garch(3000, truth.omega, truth.alpha, truth.beta, seed=seed)
            fit = garch_fit(r)
            assert fit.converged
            assert fit.loglik >= garch_loglik(r, truth, float(np.var(r, ddof=1))) - 1e-6
            alpha_err.append(abs(fit.params.alpha - truth.alpha))
            beta_err.append(abs(fit.params.beta - truth.beta))
        assert np.median(alpha_err) <= 0.03
        assert np.median(beta_err) <= 0.03

    @pytest.mark.parametrize("seed", [3, 9])
    def test_alpha_beta_zero_corner(self, seed):
        # ARCH(1) returns with a non-zero mean, fitted as-is: the search
        # reaches alpha = beta = 0, where alpha / (alpha + beta) is not
        # identified.  On seed 3 it must leave the corner along alpha for
        # the ARCH(1) optimum; on seed 9 the optimum is the corner itself.
        r = gen_garch(1000, omega=0.8, alpha=0.2, beta=0.0, seed=seed) + 5.0
        fit = garch_fit(r)
        assert fit.converged
        h1 = float(np.var(r, ddof=1))
        level = float(np.mean(r[1:] ** 2))
        best_arch = max(
            garch_loglik(r, GarchParams(omega, alpha, 0.0), h1)
            for alpha in np.linspace(0.0, 0.1, 41)
            for omega in np.linspace(0.8, 1.05, 51) * level
        )
        assert fit.loglik >= best_arch - 1e-9

    @pytest.mark.parametrize("seed", [4201, 4205])
    def test_escapes_constant_variance_faces(self, seed):
        # long fGn: from the default start the search ends at alpha = 0, with
        # alpha + beta = MAX_PERSISTENCE (seed 4201) or just below it (seed
        # 4205), about 80 nats below the interior optimum
        r = gen_fgn(20000, 0.7, 0.01, seed)
        fit = garch_fit(r)
        assert fit.converged
        h1 = float(np.var(r, ddof=1))
        grid = max(
            garch_loglik(r, GarchParams((1.0 - alpha - beta) * h1, alpha, beta), h1)
            for alpha in (0.02, 0.05, 0.1, 0.2)
            for beta in (0.0, 0.2, 0.4, 0.6, 0.75)
        )
        assert fit.loglik >= grid - 1e-6

    @pytest.mark.parametrize("n, sigma, seed", [(500, 3e-3, 7), (100, 1.0, 36)])
    def test_converges_next_to_the_persistence_bound(self, n, sigma, seed):
        # white noise whose optimum sits at alpha + beta = MAX_PERSISTENCE:
        # steps that cross the bound must land on it, not creep towards it
        r = gen_white(n, sigma=sigma, seed=seed)
        fit = garch_fit(r)
        assert fit.converged
        truth = GarchParams(sigma**2, 0.0, 0.0)
        assert fit.loglik >= garch_loglik(r, truth, float(np.var(r, ddof=1))) - 1e-6

    @pytest.mark.parametrize("exponent", [-480, -8, 480])
    def test_scale_free(self, exponent):
        # multiplying returns by a power of two scales h_1 exactly, so the
        # search sees the same numbers and only omega and h move
        r = gen_garch(600, 1e-6, 0.05, 0.94, seed=1)
        scale = 2.0**exponent
        base, fit = garch_fit(r), garch_fit(r * scale)
        assert fit.converged and fit.iterations == base.iterations
        assert (fit.params.alpha, fit.params.beta) == (base.params.alpha, base.params.beta)
        assert fit.params.omega == base.params.omega * scale**2
        np.testing.assert_array_equal(fit.h, base.h * scale**2)

    def test_variance_out_of_range_is_numerical_error(self):
        r = gen_garch(600, 1e-6, 0.05, 0.94, seed=1)
        with pytest.raises(NumericalError, match="sample variance"):
            garch_fit(r * 1e160)

    def test_reports_its_own_path_and_likelihood(self):
        r = gen_garch(600, 1e-6, 0.05, 0.94, seed=2)
        fit = garch_fit(r)
        h1 = float(np.var(r, ddof=1))
        np.testing.assert_array_equal(fit.h, variance_path(r, fit.params, h1))
        assert fit.loglik == garch_loglik(r, fit.params, h1)

    def test_iteration_cap_reports_not_converged(self, monkeypatch):
        # one step per search; a second search runs when the first ends at
        # alpha + beta = MAX_PERSISTENCE
        with monkeypatch.context() as patch:
            patch.setattr(hurstscan.garch, "DEFAULT_MAX_ITER", 1)
            fit = garch_fit(gen_garch(3000, 1e-6, 0.08, 0.91, seed=0))
        assert 1 <= fit.iterations <= 2
        assert not fit.converged
        # both early exits in a batch: the iteration cap, and a line search
        # that fails because no step of at least 1/4 is accepted.  Rows that
        # stop early share batches with rows that go on, and each ends
        # exactly as it does alone.  Benchmark-shaped windows: 500 returns
        # at step 5 on the 700 of two seeds whose searches refuse full steps
        rows = np.concatenate(
            [
                sliding_window_view(gen_garch(700, 1e-6, 0.08, 0.91, seed=seed), 500)[::5]
                for seed in (1, 2)
            ]
        )
        for name, value in (("DEFAULT_MAX_ITER", 1), ("MIN_STEP", 0.25)):
            with monkeypatch.context() as patch:
                patch.setattr(hurstscan.garch, name, value)
                fits = list(_fit_rows(rows))
                for got, row in zip(fits, rows):
                    assert_same_fit(got, fit_alone(row))
            stopped = [not fit.converged for fit in fits]
            if name == "DEFAULT_MAX_ITER":
                assert all(stopped) and all(fit.iterations <= 2 for fit in fits)
            else:
                assert 0 < sum(stopped) < len(fits)

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

    def test_json_round_trip_fields(self):
        fit = garch_fit(gen_garch(500, 0.1, 0.1, 0.8, seed=6))
        d = fit.to_dict()
        assert set(d) == {"omega", "alpha", "beta", "loglik", "converged", "iterations"}
        assert isinstance(d["converged"], bool)
        assert isinstance(d["iterations"], int)


def fit_alone(row):
    """garch_fit of one row, or the error it raises."""
    try:
        return garch_fit(row)
    except (InputError, NumericalError) as exc:
        return exc


def assert_same_fit(got, want):
    """Bit-for-bit equal fits, or errors of the same type and message."""
    if isinstance(want, Exception):
        assert type(got) is type(want) and str(got) == str(want)
        return
    assert got.params == want.params
    assert got.loglik == want.loglik
    assert (got.converged, got.iterations) == (want.converged, want.iterations)
    np.testing.assert_array_equal(got.h, want.h)


def takes_restart(row):
    """Whether the search from the default start ends at alpha = 0."""
    _, z2 = _scaled_squares(row)
    x = _newton(z2[None], START_ALPHA, START_BETA)[0]
    return _natural_params(x)[1][0] == 0.0


class TestBatchedFit:
    # every row of a batched search takes the steps it takes alone, with
    # the same rounding: results are compared exactly

    def test_benchmark_windows_equal_one_by_one(self):
        # 41 windows of 500 at step 5 per series, as roll --garch-mode
        # per-window cuts 700 daily returns; all 164 rows in one call
        rows = np.concatenate(
            [
                sliding_window_view(gen_garch(700, 1e-6, 0.08, 0.91, seed=seed), 500)[::5]
                for seed in range(4)
            ]
        )
        fits = list(_fit_rows(rows))
        assert len(fits) == len(rows) == 164
        for got, row in zip(fits, rows):
            assert_same_fit(got, fit_alone(row))

    POOL_SIZE = 13

    @staticmethod
    @functools.lru_cache(maxsize=1)
    def pool():
        """Rows of 500 returns with their one-by-one fits.

        GARCH windows, white noise and fGn whose first search ends at
        alpha = 0 (so the restart runs), a constant row and a row whose
        variance overflows (both set aside before the search).
        """
        rows = np.stack(
            [gen_garch(500, 1e-6, 0.08, 0.91, seed=seed) for seed in range(5)]
            + [gen_white(500, 0.01, seed) for seed in range(4)]
            + [gen_fgn(500, 0.7, 0.01, seed) for seed in (0, 1)]
            + [np.full(500, 0.01), gen_white(500, 1e160, 5)]
        )
        return rows, [fit_alone(row) for row in rows]

    def test_pool_covers_restart_and_set_aside_rows(self):
        rows, fits = self.pool()
        assert len(rows) == self.POOL_SIZE
        assert sum(takes_restart(row) for row in rows[5:11]) == 6
        assert isinstance(fits[-2], InputError) and isinstance(fits[-1], NumericalError)

    @given(st.lists(st.integers(0, POOL_SIZE - 1), min_size=1, max_size=40))
    @settings(max_examples=40, deadline=None)
    def test_row_result_independent_of_batch(self, picks):
        # any subset, order and repetition of rows, searched as one batch
        rows, fits = self.pool()
        for k, got in zip(picks, _fit_rows(rows[picks])):
            assert_same_fit(got, fits[k])


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
