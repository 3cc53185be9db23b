"""The public surface: each module's ``__all__`` lists its public names once.

The package republishes those lists in a fixed order, and the names it
binds are the modules' own objects.
"""
import inspect

import pytest

import hurstscan
from hurstscan import exceptions, garch, ingest, liquidity, rolling, scaling, synth

MODULES = [exceptions, ingest, garch, scaling, liquidity, rolling, synth]

PUBLIC = [
    "__version__",
    "InputError",
    "NumericalError",
    "CsvLayout",
    "PriceSeries",
    "ReturnSeries",
    "load_prices",
    "load_returns",
    "save_returns",
    "log_returns",
    "synthetic_dates",
    "GarchParams",
    "GarchFit",
    "variance_path",
    "garch_loglik",
    "garch_fit",
    "garch_filter",
    "FluctuationProfile",
    "ScalingFit",
    "fit_scaling",
    "mfdfa",
    "LiquidityIndicators",
    "rescale",
    "liquidity_indicators",
    "RollingConfig",
    "RollingResult",
    "RegimeRun",
    "roll",
    "detect_regimes",
    "write_rolling_csv",
    "write_rolling_jsonl",
    "read_rolling_csv",
    "fgn_autocovariance",
    "gen_fgn",
    "gen_white",
    "gen_garch",
]


def test_package_all_is_the_public_list():
    assert hurstscan.__all__ == PUBLIC
    assert len(set(PUBLIC)) == len(PUBLIC)
    for name in PUBLIC:
        assert hasattr(hurstscan, name), name


def test_names_that_served_only_the_cli_or_the_tests_are_gone():
    # the synth command does the spec's work itself, and tests write price files directly
    for name in ("GeneratorSpec", "generate", "save_prices"):
        assert not hasattr(hurstscan, name), name
    assert len(PUBLIC) == 36


def test_package_all_joins_the_module_lists():
    assert hurstscan.__all__ == ["__version__", *(n for m in MODULES for n in m.__all__)]
    for module in MODULES:
        for name in module.__all__:
            assert getattr(hurstscan, name) is getattr(module, name), name


def test_star_import_binds_exactly_the_public_names():
    namespace = {}
    exec("from hurstscan import *", namespace)
    namespace.pop("__builtins__")
    assert sorted(namespace) == sorted(PUBLIC)


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__)
def test_public_classes_and_functions_belong_to_their_module(module):
    for name in module.__all__:
        value = getattr(module, name)
        if inspect.isclass(value) or inspect.isfunction(value):
            assert value.__module__ == module.__name__, name
