import re
import warnings
from decimal import Decimal, localcontext
from functools import partial

import numpy as np
import pytest

from helpers import lag1_autocorr
from hurstscan import (
    GarchParams,
    InputError,
    fgn_autocovariance,
    gen_fgn,
    gen_garch,
    gen_white,
    load_returns,
    mfdfa,
)
from hurstscan import synth
from hurstscan.cli import build_parser, cmd_synth


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

    @pytest.mark.parametrize("hurst", [0.01, 0.3, 0.49, 0.51, 0.7, 0.95, 0.999999])
    def test_long_lags_match_a_50_digit_evaluation(self, hurst):
        # the direct sum of three powers cancels at long lags: up to 4e-2 off at lag 2**21
        lags = np.unique(np.r_[0:20, np.geomspace(20, 2**21, 100).astype(int), 2**21])
        with localcontext() as ctx:
            ctx.prec = 50
            h2 = Decimal(2.0 * hurst)
            exact = [
                float(((k + 1) ** h2 - 2 * k**h2 + abs(k - 1) ** h2) / 2)
                for k in map(Decimal, lags.tolist())
            ]
        np.testing.assert_allclose(fgn_autocovariance(lags, hurst), exact, rtol=1e-7, atol=0)

    @pytest.mark.parametrize(
        "hurst, sigma, message",
        [(0.7, 1e200, "fgn sigma out of range"), (-0.2, 1.0, "hurst must be in"),
         (1.5, 1.0, "hurst must be in")],
    )
    def test_parameters_checked_as_gen_fgn_checks_them(self, hurst, sigma, message):
        # once a bare OverflowError, [-inf, inf, ...] with a warning, and values
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InputError, match=message):
                fgn_autocovariance([0, 1, 5], hurst, sigma)
            with pytest.raises(InputError, match=message):
                gen_fgn(100, hurst, sigma)

    def test_scalar_lag_gives_a_scalar(self):
        assert np.ndim(fgn_autocovariance(5, 0.7)) == 0
        assert fgn_autocovariance(5, 0.7) == fgn_autocovariance(np.array([5]), 0.7)[0]


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

    @pytest.mark.parametrize("n", [2, 3, 17, 1000, 4097, 65537])
    def test_minimal_embedding_serves_every_hurst(self, n):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for hurst in [*np.round(np.arange(0.01, 1.0, 0.01), 2), 0.999999]:
                x = gen_fgn(n, hurst, seed=1)
                assert x.shape == (n,) and np.all(np.isfinite(x))

    @pytest.mark.parametrize("n, hurst", [(40_000, 0.999999), (600_000, 0.97)])
    def test_long_and_near_one_series_need_no_larger_embedding(self, n, hurst):
        # with the cancelling autocovariance both failed after three doublings
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert np.all(np.isfinite(gen_fgn(n, hurst, seed=2)))

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


# a parameter's synth flag, where it differs from the parameter's name
FLAGS = {"hurst": "h"}


def synth_spec(kind, n, seed=0, **params):
    """The run of ``synth`` for one generator spec: a kind, n, a seed and the kind's parameters."""
    flags = [f"--{FLAGS.get(name, name)}={value}" for name, value in params.items()]
    argv = ["synth", f"--kind={kind}", f"--n={n}", f"--seed={seed}", *flags]
    return cmd_synth(build_parser().parse_args(argv))


def synth_values(run, tmp_path):
    path = tmp_path / run.outputs["series"][0]
    run.outputs["series"][1](path)
    return load_returns(path).values


class TestGeneratorSpec:
    # what synth takes as a generator spec and realizes through the generators;
    # n and seed follow the generators' own rules
    def test_dispatch_matches_direct_calls(self, tmp_path):
        np.testing.assert_array_equal(
            synth_values(synth_spec("fgn", 512, seed=4, hurst=0.7), tmp_path),
            gen_fgn(512, 0.7, seed=4),
        )
        np.testing.assert_array_equal(
            synth_values(synth_spec("gaussian-white", 512, seed=4, sigma=1.5), tmp_path),
            gen_white(512, sigma=1.5, seed=4),
        )
        np.testing.assert_array_equal(
            synth_values(synth_spec("garch", 512, seed=4, omega=0.1, alpha=0.1, beta=0.8), tmp_path),
            gen_garch(512, 0.1, 0.1, 0.8, seed=4),
        )

    def test_fgn_requires_hurst(self):
        with pytest.raises(InputError, match="^fgn requires hurst$"):
            synth_spec("fgn", 100)

    def test_fgn_rejects_hurst_out_of_range(self):
        with pytest.raises(InputError, match="hurst must be in"):
            synth_spec("fgn", 100, hurst=1.2)

    def test_garch_requires_stationary_params(self):
        with pytest.raises(InputError):
            synth_spec("garch", 100, omega=0.1, alpha=0.6, beta=0.5)

    @pytest.mark.parametrize(
        "kind, extra",
        [
            ("fgn", {"hurst": 0.6, "alpha": 0.1}),
            ("gaussian-white", {"hurst": 0.6}),
            ("garch", {"omega": 0.1, "alpha": 0.1, "beta": 0.8, "sigma": 1.0}),
        ],
    )
    def test_parameters_of_other_kinds_rejected(self, kind, extra):
        with pytest.raises(InputError, match="does not take"):
            synth_spec(kind, 100, **extra)

    def test_sigma_defaults_to_one(self):
        assert synth_spec("gaussian-white", 10).config["sigma"] == 1.0
        assert synth_spec("fgn", 10, hurst=0.6).config["sigma"] == 1.0

    def test_unknown_kind(self, capsys):
        with pytest.raises(SystemExit, match="^1$"):
            synth_spec("brownian", 100)
        assert "invalid choice: 'brownian'" in capsys.readouterr().err

    def test_bad_length(self):
        with pytest.raises(InputError, match="^n must be at least 2$"):
            synth_spec("fgn", 1, hurst=0.5)
        for make in (partial(gen_fgn, hurst=0.5), gen_white, partial(gen_garch, **GARCH_OK)):
            with pytest.raises(InputError, match="^n must be at least"):
                make(0)

    @pytest.mark.parametrize("n", [10.5, 10.0, "10", None, True])
    def test_length_must_be_integer(self, n):
        # each once failed inside numpy with a TypeError, or ran: gen_garch(True, ...)
        for make in (partial(gen_fgn, hurst=0.5), gen_white, partial(gen_garch, **GARCH_OK)):
            with pytest.raises(InputError, match=re.escape(f"n must be an integer, got {n!r}")):
                make(n)

    def test_numpy_integer_length_and_seed_accepted(self):
        n, seed = np.int64(10), np.uint32(3)
        np.testing.assert_array_equal(gen_white(n, seed=seed), gen_white(10, seed=3))
        np.testing.assert_array_equal(gen_fgn(n, 0.6, seed=seed), gen_fgn(10, 0.6, seed=3))
        np.testing.assert_array_equal(
            gen_garch(n, **GARCH_OK, seed=seed), gen_garch(10, **GARCH_OK, seed=3)
        )

    @pytest.mark.parametrize("seed", [-1, 1.5, "3.0", None])
    def test_seed_must_be_non_negative_integer(self, seed, capsys):
        if seed == -1:
            with pytest.raises(InputError, match="^seed must be a non-negative integer, got -1$"):
                synth_spec("gaussian-white", 10, seed=seed)
            return
        # --seed parses integers only: anything else is a usage error
        with pytest.raises(SystemExit, match="^1$"):
            synth_spec("gaussian-white", 10, seed=seed)
        assert f"argument --seed: invalid int value: '{seed}'" in capsys.readouterr().err

    @pytest.mark.parametrize("seed", [-1, 1.5, "a", None, True, np.int64(-1)])
    def test_generators_take_non_negative_integer_seeds(self, seed):
        # -1 once failed inside numpy with a bare ValueError, 1.5 and "a"
        # with a TypeError; None drew a new series on every call, and True
        # ran as seed 1
        message = "^" + re.escape(f"seed must be a non-negative integer, got {seed!r}") + "$"
        for make in (partial(gen_fgn, hurst=0.5), gen_white, partial(gen_garch, **GARCH_OK)):
            with pytest.raises(InputError, match=message):
                make(10, seed=seed)

    def test_docstring_recipe_splits_one_seed(self):
        # the module docstring's recipe gives k seeds that every generator takes
        recipe = synth.__doc__.split("::")[1].strip()
        runs = []
        for _ in range(2):
            scope = {"np": np, "seed": 7, "k": 3}
            exec(recipe, scope)
            runs.append([gen_fgn(64, 0.6, seed=s).tobytes() for s in scope["seeds"]])
        assert runs[0] == runs[1] and len(set(runs[0])) == 3


GARCH_OK = {"omega": 1e-6, "alpha": 0.08, "beta": 0.9}

# (label, constructor, a valid set of its float parameters)
GENERATORS = [
    ("GarchParams", GarchParams, GARCH_OK),
    ("gen_garch", partial(gen_garch, 100), GARCH_OK),
    ("gen_white", partial(gen_white, 100), {"sigma": 1.0}),
    ("gen_fgn", partial(gen_fgn, 100), {"hurst": 0.6, "sigma": 1.0}),
    # synth's generator specs, through the synth command
    ("GeneratorSpec-fgn", partial(synth_spec, "fgn", 100), {"hurst": 0.6, "sigma": 1.0}),
    ("GeneratorSpec-white", partial(synth_spec, "gaussian-white", 100), {"sigma": 1.0}),
    ("GeneratorSpec-garch", partial(synth_spec, "garch", 100), GARCH_OK),
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


class TestFloatRange:
    @pytest.mark.parametrize("sigma", [1e300, 1e160, 1e-160, 1e-300])
    def test_fgn_sigma_whose_square_is_not_normal_rejected(self, sigma):
        for make in (partial(gen_fgn, 100, 0.6), partial(synth_spec, "fgn", 100, hurst=0.6)):
            with pytest.raises(InputError, match=r"fgn sigma out of range \[1.49e-154, 1.34e\+154\]"):
                make(sigma=sigma)

    @pytest.mark.parametrize("sigma", [1e150, 1e-150])
    def test_fgn_sigma_near_the_range_ends_scales_the_series(self, sigma):
        x = gen_fgn(500, 0.6, sigma=sigma, seed=2)
        np.testing.assert_allclose(x, sigma * gen_fgn(500, 0.6, seed=2), rtol=1e-12)

    @pytest.mark.parametrize(
        "make, match",
        [
            # sigma**2 is finite; the circulant embedding's eigenvalues are not
            (partial(gen_fgn, 2000, 0.6, sigma=1.3e154), "sigma 1.3e\\+154 out of range"),
            (partial(gen_white, 100, sigma=1e308), "sigma 1e\\+308 out of range"),
            (partial(gen_garch, 100, 1e308, 0.08, 0.91), "omega 1e\\+308 out of range"),
        ],
    )
    def test_series_leaving_the_float_range_rejected_without_warning(self, make, match):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InputError, match=match):
                make()
