"""Rolling-window scaling analysis of financial returns.

The pipeline: load prices, take log returns, standardize them by a
fitted GARCH(1,1) volatility path, run detrended fluctuation analysis
over sliding windows, and summarize each window by its Hurst exponent
and four horizon-level liquidity measures derived from how exactly
variance scales across segment lengths.
"""

__version__ = "0.1.0"

# each module's __all__ is the one list of its public names; the
# package's __all__ joins those lists in the order given below
from . import exceptions, garch, ingest, liquidity, rolling, scaling, synth
from .exceptions import *
from .garch import *
from .ingest import *
from .liquidity import *
from .rolling import *
from .scaling import *
from .synth import *

__all__ = [
    "__version__",
    *exceptions.__all__,
    *ingest.__all__,
    *garch.__all__,
    *scaling.__all__,
    *liquidity.__all__,
    *rolling.__all__,
    *synth.__all__,
]
