"""The benchmark's workloads: seeded input files and the CLI arguments to run on them.

Inputs come from hurstscan.synth and are written as CSV; the program
under test sees only those files.  The same seed gives byte-identical
inputs.
"""
from __future__ import annotations

import datetime as dt
import hashlib
from dataclasses import dataclass
from pathlib import Path

import numpy as np

# Input sizes keep one CLI invocation under about a second on a 2-vCPU
# cloud host: the reference runs between invocations cancel only host
# drift slower than an invocation (reference.py).  Rolling over all of
# the paper's 3,000 returns takes 6-10 s per invocation there, so the
# roll workloads' input is the first ROLL_RETURNS of them; the oracle
# still measures the GARCH fit on all PAPER_RETURNS.
# Daily-scale GARCH(1,1) at the persistence of real index returns.
GARCH_TRUTH = {"omega": 1e-6, "alpha": 0.08, "beta": 0.91}
PAPER_RETURNS = 3000
ROLL_RETURNS = 700
# Long fractional Gaussian noise at daily scale; it has no GARCH effect.
FGN_N = 20_000
FGN_HURST = 0.7
FGN_SIGMA = 0.01

START_DATE = dt.date(2000, 1, 3)
START_PRICE = 100.0


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    command: str  # hurstscan subcommand
    input_kind: str  # "prices" or "returns"
    flags: tuple[str, ...]
    window: int | None = None  # rolling window length (roll only)
    step: int | None = None
    per_window_garch: bool = False
    scales: range = range(10, 51)
    qs: tuple[float, ...] = (2.0,)

    def argv(self, input_path: Path) -> list[str]:
        return [self.command, str(input_path), *self.flags]

    def starts(self, n_returns: int) -> range:
        """First index of each window; analyze has one window over everything."""
        if self.window is None:
            return range(1)
        return range(0, n_returns - self.window + 1, self.step)


_ROLL_FLAGS = ("--window", "500", "--s-min", "10", "--s-max", "50", "--q", "2")

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="roll-whole",
            why="paper setup (window 500, step 1, one whole-sample GARCH fit) on the "
            "first 700 of 3,000 daily GARCH returns: 201 windows; scaling dominates",
            command="roll",
            input_kind="prices",
            flags=(*_ROLL_FLAGS, "--step", "1", "--garch-mode", "whole-sample"),
            window=500,
            step=1,
        ),
        Workload(
            name="roll-per-window",
            why="same input with one GARCH fit per window, step 5 (41 windows); "
            "GARCH dominates and windows share no segments",
            command="roll",
            input_kind="prices",
            flags=(*_ROLL_FLAGS, "--step", "5", "--garch-mode", "per-window"),
            window=500,
            step=5,
            per_window_garch=True,
        ),
        Workload(
            name="analyze-long",
            why="one 20,000-point fGn series, scales 10..1000, q in {-4,-2,2,4}: "
            "many long segments, negative q, and the only visible ingest cost",
            command="analyze",
            input_kind="returns",
            flags=(
                "--returns",
                "--s-min", "10",
                "--s-max", "1000",
                "--q=-4", "--q=-2", "--q=2", "--q=4",
                "--garch",
            ),
            scales=range(10, 1001),
            qs=(-4.0, -2.0, 2.0, 4.0),
        ),
    )
}


@dataclass(frozen=True)
class Inputs:
    path: Path
    sha256: str
    dates: list[dt.date]  # dates of the return series the CLI analyzes
    returns: np.ndarray  # the return series as the CLI will compute it
    # roll workloads: the paper-size series the input is cut from
    paper_returns: np.ndarray | None = None


def _write_dated(path: Path, header: str, values: np.ndarray) -> list[dt.date]:
    dates = [START_DATE + dt.timedelta(days=i) for i in range(values.size)]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"date,{header}\n")
        for date, value in zip(dates, values):
            fh.write(f"{date.isoformat()},{float(value)!r}\n")
    return dates


def make_inputs(workload: Workload, seed: int, directory: Path) -> Inputs:
    """Write the workload's input CSV for this seed into ``directory``."""
    from hurstscan.synth import gen_fgn, gen_garch

    paper_returns = None
    if workload.input_kind == "prices":
        paper_returns = gen_garch(PAPER_RETURNS, seed=seed, **GARCH_TRUTH)
        r = paper_returns[:ROLL_RETURNS]
        prices = START_PRICE * np.exp(np.concatenate([[0.0], np.cumsum(r)]))
        path = directory / f"garch_prices_seed{seed}.csv"
        dates = _write_dated(path, "close", prices)
        returns = np.log(prices[1:] / prices[:-1])
        dates = dates[1:]
    else:
        returns = gen_fgn(FGN_N, FGN_HURST, FGN_SIGMA, seed)
        path = directory / f"fgn_returns_seed{seed}.csv"
        dates = _write_dated(path, "value", returns)
    digest = hashlib.sha256(path.read_bytes()).hexdigest()
    return Inputs(path, digest, dates, returns, paper_returns)
