"""Rolling-window scaling analysis of financial returns.

The pipeline: load prices, take log returns, standardize them by a
fitted GARCH(1,1) volatility path, run detrended fluctuation analysis
over sliding windows, and summarize each window by its Hurst exponent
and four horizon-level liquidity measures derived from how exactly
variance scales across segment lengths.
"""

__version__ = "0.1.0"

from .exceptions import InputError, NumericalError
from .garch import (
    GarchFit,
    GarchParams,
    garch_filter,
    garch_fit,
    garch_loglik,
    variance_path,
)
from .ingest import (
    CsvLayout,
    PriceSeries,
    ReturnSeries,
    load_prices,
    load_returns,
    log_returns,
    max_drawdown,
    save_prices,
    save_returns,
    synthetic_dates,
)
from .liquidity import LiquidityIndicators, liquidity_indicators, rescale
from .rolling import (
    RegimeRun,
    RollingConfig,
    RollingResult,
    detect_regimes,
    read_rolling_csv,
    roll,
    write_rolling_csv,
    write_rolling_jsonl,
)
from .scaling import (
    FluctuationProfile,
    ScalingFit,
    average_fluctuation,
    build_profile,
    fit_scaling,
    mfdfa,
    segment_fluctuations,
)
from .synth import GeneratorSpec, fgn_autocovariance, gen_fgn, gen_garch, gen_white, generate

__all__ = [
    "__version__",
    "InputError",
    "NumericalError",
    "CsvLayout",
    "PriceSeries",
    "ReturnSeries",
    "load_prices",
    "load_returns",
    "save_prices",
    "save_returns",
    "log_returns",
    "max_drawdown",
    "synthetic_dates",
    "GarchParams",
    "GarchFit",
    "variance_path",
    "garch_loglik",
    "garch_fit",
    "garch_filter",
    "FluctuationProfile",
    "ScalingFit",
    "build_profile",
    "segment_fluctuations",
    "average_fluctuation",
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
    "GeneratorSpec",
    "fgn_autocovariance",
    "gen_fgn",
    "gen_white",
    "gen_garch",
    "generate",
]
