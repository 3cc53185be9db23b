"""Track the Hurst exponent through time and flag persistence regimes.

Builds a series that switches from persistent (H=0.7) to anti-persistent
(H=0.3) halfway, runs the rolling pipeline over it, and shows the regime
detector finding the switch. Also writes the per-window CSV the CLI
produces.
"""
import datetime as dt
import tempfile
from pathlib import Path

import numpy as np

from hurstscan import (
    ReturnSeries,
    RollingConfig,
    detect_regimes,
    gen_fgn,
    roll,
    synthetic_dates,
    write_rolling_csv,
)

values = np.concatenate([gen_fgn(1500, 0.7, seed=1), gen_fgn(1500, 0.3, seed=2)])
series = ReturnSeries(
    dates=synthetic_dates(len(values), start=dt.date(2000, 1, 3)), values=values
)

config = RollingConfig(window=500, step=10)
results = roll(series, config)
print(f"{len(results)} windows of {config.window}, step {config.step}")

# Course of the estimate: mean H over blocks of 25 windows.
hs = np.array([r.hurst for r in results])
print("\nmean H by block of 25 windows (switch lands mid-series):")
for i in range(0, len(hs), 25):
    block = hs[i : i + 25]
    bar = "#" * int(round(block.mean() * 40))
    print(f"  windows {i:3d}-{i + len(block) - 1:3d}: {block.mean():.3f} {bar}")

print("\nregimes at threshold 0.5:")
for run in detect_regimes(results, 0.5):
    print(f"  {run.label:5s} {run.start} .. {run.end} ({run.n_windows} windows)")
print("true switch date:", series.dates[1500])

with tempfile.TemporaryDirectory() as tmp:
    out = Path(tmp) / "rolling.csv"
    write_rolling_csv(results, out)
    lines = out.read_text().splitlines()
    print(f"\nwrote {out.name}: {len(lines) - 1} rows")
    print("  " + lines[0])
    print("  " + lines[1])
