"""Time the paper's workload row by row, one fresh interpreter per row.
Each row makes timed calls until they have taken 2 s, and at least 5,
and records their number in ``calls``.  Its wall_rel compares only rows
measured in one session.

    python bench/paper.py --src <checkout>/src --label parent --out bench/BENCH_32.json

Runs every row of ROWS against the hurstscan in ``--src`` and writes the
rows under ``--label`` into ``--out``, replacing that label's earlier
rows and keeping the others, so one file can hold a parent and a change
measured on the same host.  Each row runs in its own interpreter: it
builds its input, makes one warm-up call, then timed calls until they
have taken BUDGET_S of wall time, and at least MIN_CALLS of them.
Right before each timed call it times the fixed work of
``perfbench/reference.py`` (imported from its file, not modified), and
``wall_rel`` is wall time over reference time.  That reference does not
track this workload's speed: between two sessions that ran the same
``src/``, raw times fell 35-45% and the reference's 55%.  So only a
parent and a change measured in one session compare, by ``wall_rel`` or
by raw time, and no row compares with another file's.  It records the
peak ``ru_maxrss`` and its rise over the process before the first call,
the python, numpy and BLAS versions, and the commit of ``--src``.

Rows (paper series: ``gen_garch(3000, 1e-6, 0.08, 0.91, seed=1)``,
window 500, step 1, scales 10..50; long series:
``gen_fgn(100_000, 0.7, 0.01, seed=3)``):

- ``roll-per-window`` and ``roll-whole``: ``roll()`` on the paper series;
- ``roll-order0``: whole-sample ``roll()`` on the paper series at
  detrending order 0;
- ``roll-long``: whole-sample ``roll()`` on the long series;
- ``mfdfa-20k``: ``mfdfa`` on ``gen_fgn(20_000, 0.7, 0.01, seed=3)``,
  scales 10..1000, q in {-4, -2, 2, 4};
- ``cli-roll-paper`` and ``cli-roll-long``: ``hurstscan.cli.main(["roll",
  ...])`` in-process, whole-sample, on each series written by
  ``save_returns``.
"""
from __future__ import annotations

import argparse
import importlib.util
import json
import os
import platform
import resource
import subprocess
import sys
import tempfile
import time
from pathlib import Path

REFERENCE = Path(__file__).resolve().parents[1] / "perfbench" / "reference.py"
# timed calls per row: until they have taken BUDGET_S, and at least MIN_CALLS
BUDGET_S = 2.0
MIN_CALLS = 5
ROLL_FLAGS = ["--window", "500", "--step", "1", "--s-min", "10", "--s-max", "50"]
STAGE_TIMES = (
    "not recorded: stage times need the run record of ROADMAP item 1, "
    "which does not exist yet"
)


def _paper():
    from hurstscan import ReturnSeries, gen_garch, synthetic_dates

    values = gen_garch(3000, 1e-6, 0.08, 0.91, seed=1)
    return ReturnSeries(synthetic_dates(values.size), values)


def _long():
    from hurstscan import ReturnSeries, gen_fgn, synthetic_dates

    values = gen_fgn(100_000, 0.7, 0.01, seed=3)
    return ReturnSeries(synthetic_dates(values.size), values)


def _roll(make, mode, order=1):
    from hurstscan import RollingConfig, roll

    series = make()
    config = RollingConfig(
        window=500, step=1, s_min=10, s_max=50, detrend_order=order, garch_mode=mode
    )
    return lambda tmp: roll(series, config)


def _mfdfa():
    from hurstscan import gen_fgn, mfdfa

    x = gen_fgn(20_000, 0.7, 0.01, seed=3)
    return lambda tmp: mfdfa(x, range(10, 1001), (-4.0, -2.0, 2.0, 4.0))


def _cli(make, tmp):
    from hurstscan import save_returns
    from hurstscan.cli import main

    path = tmp / "series.csv"
    save_returns(make(), path)

    def call(out):
        code = main(["roll", str(path), "--returns", *ROLL_FLAGS, "--out-dir", str(out)])
        if code != 0:
            raise RuntimeError(f"hurstscan roll exited with {code}")

    return call


# row name -> (what it runs, setup(tmp dir) -> call(out dir))
ROWS = {
    "roll-per-window": (
        "roll() per-window, paper series",
        lambda tmp: _roll(_paper, "per-window"),
    ),
    "roll-whole": (
        "roll() whole-sample, paper series",
        lambda tmp: _roll(_paper, "whole-sample"),
    ),
    "roll-order0": (
        "roll() whole-sample, detrending order 0, paper series",
        lambda tmp: _roll(_paper, "whole-sample", order=0),
    ),
    "roll-long": (
        "roll() whole-sample, long series",
        lambda tmp: _roll(_long, "whole-sample"),
    ),
    "mfdfa-20k": (
        "mfdfa, 20,000 fGn points, scales 10..1000, q +-2 +-4",
        lambda tmp: _mfdfa(),
    ),
    "cli-roll-paper": (
        "hurstscan roll in-process, whole-sample, paper series",
        lambda tmp: _cli(_paper, tmp),
    ),
    "cli-roll-long": (
        "hurstscan roll in-process, whole-sample, long series",
        lambda tmp: _cli(_long, tmp),
    ),
}


def _rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _quartiles(values) -> tuple[float, float, float]:
    import numpy as np

    q1, median, q3 = np.percentile(values, [25, 50, 75])
    return float(q1), float(median), float(q3)


def _environment() -> dict:
    import numpy

    blas = "unknown"
    try:
        deps = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{deps.get('name')} {deps.get('version')}"
    except (TypeError, KeyError):  # numpy < 1.26 has no dict mode
        pass
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas,
        "nproc": os.cpu_count(),
        "platform": platform.platform(),
    }


def child(row: str, src: str) -> dict:
    """Run one row in this interpreter and return its record."""
    sys.path.insert(0, src)
    import hurstscan

    if Path(src) not in Path(hurstscan.__file__).resolve().parents:
        raise SystemExit(f"hurstscan was imported from {hurstscan.__file__}, not from {src}")

    spec = importlib.util.spec_from_file_location("perfbench_reference", REFERENCE)
    reference = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(reference)
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        call = ROWS[row][1](tmp)
        before = _rss_mb()
        call(tmp / "warm-up")
        walls, references = [], []
        while len(walls) < MIN_CALLS or sum(walls) < BUDGET_S:
            references.append(reference.run())
            t0 = time.perf_counter()
            call(tmp / f"call-{len(walls)}")
            walls.append(time.perf_counter() - t0)
        peak = _rss_mb()
    q1, median, q3 = _quartiles(walls)
    rel = _quartiles([w / r for w, r in zip(walls, references)])
    return {
        "row": row,
        "what": ROWS[row][0],
        "calls": len(walls),
        "budget_s": BUDGET_S,
        "min_calls": MIN_CALLS,
        "warm_up_calls": 1,
        "wall_s": walls,
        "wall_median_s": median,
        "wall_iqr_s": q3 - q1,
        "reference_s": references,
        "wall_rel_median": rel[1],
        "wall_rel_iqr": rel[2] - rel[0],
        "peak_rss_mb": peak,
        "rss_rise_mb": peak - before,
        "environment": _environment(),
    }


def _commit(src: Path) -> dict:
    def git(*args):
        done = subprocess.run(
            ["git", "-C", str(src), *args], capture_output=True, text=True, check=False
        )
        return done.stdout.strip() if done.returncode == 0 else None

    commit = git("rev-parse", "HEAD")
    dirty = git("status", "--porcelain", "--", ".") if commit else None
    return {"commit": commit, "uncommitted_changes": bool(dirty) if commit else None}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--src", required=True, help="the src/ directory of a checkout")
    parser.add_argument("--label", required=True, help="name of this set of rows, e.g. parent")
    parser.add_argument("--out", required=True, help="JSON file to add the rows to")
    parser.add_argument("--child", choices=list(ROWS), help=argparse.SUPPRESS)
    parser.add_argument("--result", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    src = Path(args.src).resolve()
    if args.child:
        Path(args.result).write_text(json.dumps(child(args.child, str(src))))
        return 0

    source = _commit(src)
    rows = []
    with tempfile.TemporaryDirectory() as tmp:
        result = Path(tmp) / "row.json"
        for row in ROWS:
            command = [sys.executable, str(Path(__file__).resolve()), "--child", row]
            command += ["--src", str(src), "--label", args.label, "--out", args.out]
            command += ["--result", str(result)]
            # the CLI's messages are not the report: shown only on failure
            done = subprocess.run(command, capture_output=True, text=True, check=False)
            if done.returncode != 0:
                sys.stderr.write(done.stdout + done.stderr)
                raise SystemExit(f"row {row} failed")
            record = {"label": args.label, **json.loads(result.read_text()), "source": source}
            print(
                f"{args.label} {row}: median {record['wall_median_s']:.4f} s, "
                f"wall_rel {record['wall_rel_median']:.3f}, "
                f"peak {record['peak_rss_mb']:.1f} MB"
            )
            rows.append(record)

    out = Path(args.out)
    data = json.loads(out.read_text()) if out.exists() else {}
    data["about"] = " ".join(__doc__.split("\n\n")[0].split())
    data["command"] = "python bench/paper.py --src <checkout>/src --label <label> --out <file>"
    data["stage_times"] = STAGE_TIMES
    kept = [r for r in data.get("rows", []) if r["label"] != args.label]
    data["rows"] = kept + rows
    out.write_text(json.dumps(data, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
