"""Command-line interface: analyze, roll, synth, report.

Outputs are plain CSV/JSON, written only inside the output directory
(flag --out-dir, env var HURSTSCAN_OUT_DIR, else the working directory).
Every command writes a manifest recording inputs, configuration, seeds,
tool version and the SHA-256 of each output file, so identical
invocations are verifiably bit-identical.

Exit codes: 0 success, 1 input/validation error, 2 numerical failure.
"""
from __future__ import annotations

import argparse
import datetime as dt
import hashlib
import json
import os
import sys
import time
from pathlib import Path

from . import __version__
from .exceptions import InputError, NumericalError
from .garch import garch_filter, garch_fit
from .ingest import (
    SYNTHETIC_START,
    CsvLayout,
    _write_dated_values,
    load_prices,
    load_returns,
    log_returns,
    synthetic_dates,
)
from .liquidity import _check_has_q2, liquidity_indicators
from .rolling import (
    RollingConfig,
    detect_regimes,
    read_rolling_csv,
    roll,
    write_rolling_csv,
    write_rolling_jsonl,
)
from .scaling import mfdfa
from .synth import GeneratorSpec, generate

OUT_DIR_ENV = "HURSTSCAN_OUT_DIR"


class _Parser(argparse.ArgumentParser):
    # usage problems are input errors: exit 1, not argparse's default 2
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _sha256(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            digest.update(chunk)
    return digest.hexdigest()


def _out_dir(args) -> Path:
    """The output directory, created if missing: call it once the results exist."""
    out = args.out_dir or os.environ.get(OUT_DIR_ENV) or "."
    path = Path(out)
    path.mkdir(parents=True, exist_ok=True)
    return path


def _write_json(path: Path, data) -> Path:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(data, fh, indent=2)
        fh.write("\n")
    return path


def _write_manifest(args, command: str, inputs, config: dict, outputs, started, seed=None):
    out_dir = _out_dir(args)
    manifest = {
        "command": command,
        "version": __version__,
        "inputs": [str(p) for p in inputs],
        "config": config,
        "seed": seed,
        "outputs": {
            name: {"path": str(path), "sha256": _sha256(path)}
            for name, path in outputs.items()
        },
        "duration_seconds": time.perf_counter() - started,
    }
    stem = Path(next(iter(outputs.values()))).stem.split(".")[0]
    return _write_json(out_dir / f"{stem}.{command}.manifest.json", manifest)


def _layout(args) -> CsvLayout:
    value_col = args.price_col
    if value_col is None:
        value_col = "value" if getattr(args, "returns", False) else "close"
    return CsvLayout(date_col=args.date_col, value_col=value_col)


def _load_return_series(args):
    if args.returns:
        return load_returns(args.input, _layout(args))
    return log_returns(load_prices(args.input, _layout(args)))


def _add_input_flags(parser):
    parser.add_argument("input", help="input CSV file")
    parser.add_argument(
        "--returns",
        action="store_true",
        help="treat the value column as returns instead of prices (default: prices)",
    )
    parser.add_argument("--date-col", default="date", help="date column name (default: date)")
    parser.add_argument(
        "--price-col",
        default=None,
        help="value column name (default: close; value when --returns is set)",
    )


def _add_scale_flags(parser, with_window: bool):
    if with_window:
        parser.add_argument(
            "--window", type=int, default=500, help="window length in trading days (default: 500)"
        )
        parser.add_argument("--step", type=int, default=1, help="window step in days (default: 1)")
        parser.add_argument(
            "--s-max", type=int, default=None, help="largest scale (default: window/10 = 50)"
        )
    else:
        parser.add_argument("--s-max", type=int, default=50, help="largest scale (default: 50)")
    parser.add_argument("--s-min", type=int, default=10, help="smallest scale (default: 10)")
    parser.add_argument(
        "--q",
        type=float,
        action="append",
        default=None,
        help="moment order, repeatable (default: 2)",
    )
    parser.add_argument(
        "--detrend-order", type=int, default=1, help="detrending polynomial order (default: 1)"
    )


def _add_out_dir_flag(parser):
    parser.add_argument(
        "--out-dir",
        default=None,
        help=f"output directory (default: ${OUT_DIR_ENV} or the working directory)",
    )


def _q_list(args):
    return tuple(args.q) if args.q else (2.0,)


def _q_tag(q: float) -> str:
    return str(int(q)) if float(q).is_integer() else str(q)


def cmd_analyze(args) -> int:
    started = time.perf_counter()
    stem = Path(args.input).stem
    series = _load_return_series(args)
    qs = _q_list(args)
    _check_has_q2(qs)

    outputs: dict[str, Path] = {}
    config = {
        "s_min": args.s_min,
        "s_max": args.s_max,
        "q_set": list(qs),
        "detrend_order": args.detrend_order,
        "garch": args.garch,
        "returns": args.returns,
    }

    values = series.values
    if args.garch:
        fit = garch_fit(values)
        values = garch_filter(series, fit)
    # compute everything before touching the output directory, so a
    # failed run leaves neither files nor an empty directory
    results = mfdfa(values, range(args.s_min, args.s_max + 1), qs, args.detrend_order)
    indicators = liquidity_indicators(*results[2.0])

    out_dir = _out_dir(args)
    if args.garch:
        outputs["garch"] = _write_json(out_dir / f"{stem}.garch.json", fit.to_dict())

    for q in sorted(results):
        fp, _ = results[q]
        fluct_path = out_dir / f"{stem}.fluct_q{_q_tag(q)}.csv"
        fp.write_csv(fluct_path)
        outputs[f"fluctuations_q{_q_tag(q)}"] = fluct_path

    fits = [results[q][1].to_dict() for q in sorted(results)]
    outputs["scaling"] = _write_json(out_dir / f"{stem}.scaling.json", fits)
    outputs["indicators"] = _write_json(
        out_dir / f"{stem}.indicators.json", indicators.to_dict()
    )

    manifest = _write_manifest(args, "analyze", [args.input], config, outputs, started)
    print(f"wrote {len(outputs)} files and {manifest}", file=sys.stderr)
    return 0


def cmd_roll(args) -> int:
    started = time.perf_counter()
    stem = Path(args.input).stem
    series = _load_return_series(args)
    config = RollingConfig(
        window=args.window,
        step=args.step,
        s_min=args.s_min,
        s_max=args.s_max,
        q_set=_q_list(args),
        detrend_order=args.detrend_order,
        garch_mode=args.garch_mode,
        stamp=args.stamp,
    )
    results = roll(series, config)

    out_dir = _out_dir(args)
    csv_path = out_dir / f"{stem}.rolling.csv"
    write_rolling_csv(results, csv_path)
    jsonl_path = out_dir / f"{stem}.rolling.jsonl"
    write_rolling_jsonl(results, jsonl_path)

    outputs = {"rolling_csv": csv_path, "rolling_jsonl": jsonl_path}
    manifest = _write_manifest(
        args,
        "roll",
        [args.input],
        {**config.to_dict(), "returns": args.returns},
        outputs,
        started,
    )
    print(f"wrote {csv_path}, {jsonl_path} and {manifest}", file=sys.stderr)
    return 0


def cmd_synth(args) -> int:
    started = time.perf_counter()
    if not args.dates and args.start_date is not None:
        raise InputError("--start-date needs dates; it has no effect with --no-dates")
    spec = GeneratorSpec(
        kind=args.kind,
        n=args.n,
        seed=args.seed,
        hurst=args.h,
        sigma=args.sigma,
        omega=args.omega,
        alpha=args.alpha,
        beta=args.beta,
    )
    values = generate(spec)

    out_dir = _out_dir(args)
    name = args.out or f"{args.kind.replace('-', '_')}_n{args.n}_seed{args.seed}.csv"
    path = out_dir / name
    if args.dates:
        dates = synthetic_dates(args.n, args.start_date or SYNTHETIC_START)
        _write_dated_values(dates, values, path, "value")
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("value\n")
            for value in values:
                fh.write(f"{float(value)!r}\n")

    manifest = _write_manifest(
        args, "synth", [], spec.to_dict(), {"series": path}, started, seed=args.seed
    )
    print(f"wrote {path} and {manifest}", file=sys.stderr)
    return 0


def cmd_report(args) -> int:
    started = time.perf_counter()
    stem = Path(args.input).stem.split(".")[0]
    results = read_rolling_csv(args.input)
    runs = detect_regimes(results, args.threshold)

    out_dir = _out_dir(args)
    outputs: dict[str, Path] = {}
    for name in ("hurst", "f0", "f_sigma", "f_range", "f_ratio"):
        path = out_dir / f"{stem}.{name}.csv"
        _write_dated_values(results.date, getattr(results, name).tolist(), path, "value")
        outputs[name] = path

    regimes_path = out_dir / f"{stem}.regimes.txt"
    with open(regimes_path, "w", encoding="utf-8") as fh:
        fh.write(f"hurst regimes at threshold {args.threshold!r}\n")
        for run in runs:
            fh.write(
                f"{run.label} {args.threshold!r} from {run.start.isoformat()} "
                f"to {run.end.isoformat()} ({run.n_windows} windows)\n"
            )
    outputs["regimes"] = regimes_path

    manifest = _write_manifest(
        args, "report", [args.input], {"threshold": args.threshold}, outputs, started
    )
    print(f"wrote {len(outputs)} files and {manifest}", file=sys.stderr)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="hurstscan",
        description="Scaling analysis of return series: GARCH filtering, "
        "detrended fluctuation analysis, Hurst exponents and liquidity measures.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_analyze = sub.add_parser(
        "analyze",
        help="single-window analysis of a whole series",
        description="GARCH-filter a series and estimate its scaling over one window "
        "(the whole series); writes fluctuation CSVs, a scaling JSON and an "
        "indicators JSON.",
    )
    _add_input_flags(p_analyze)
    _add_scale_flags(p_analyze, with_window=False)
    garch_group = p_analyze.add_mutually_exclusive_group()
    garch_group.add_argument(
        "--garch",
        dest="garch",
        action="store_true",
        help="fit GARCH(1,1) and analyze the filtered series (default: on)",
    )
    garch_group.add_argument(
        "--no-garch",
        dest="garch",
        action="store_false",
        help="analyze the raw series without volatility filtering",
    )
    p_analyze.set_defaults(garch=True)
    _add_out_dir_flag(p_analyze)
    p_analyze.set_defaults(func=cmd_analyze)

    p_roll = sub.add_parser(
        "roll",
        help="sliding-window pipeline over a series",
        description="Run the GARCH + scaling + liquidity pipeline over every "
        "sliding window; writes a rolling CSV and JSON-lines file.",
    )
    _add_input_flags(p_roll)
    _add_scale_flags(p_roll, with_window=True)
    p_roll.add_argument(
        "--garch-mode",
        choices=["whole-sample", "per-window"],
        default="whole-sample",
        help="one GARCH fit for the full series, or one per window "
        "(default: whole-sample)",
    )
    p_roll.add_argument(
        "--stamp",
        choices=["end", "start", "center"],
        default="end",
        help="which window day dates each result row (default: end)",
    )
    _add_out_dir_flag(p_roll)
    p_roll.set_defaults(func=cmd_roll)

    p_synth = sub.add_parser(
        "synth",
        help="generate a seeded synthetic series",
        description="Write a deterministic synthetic series (fractional Gaussian "
        "noise, white noise, or GARCH) as CSV.",
    )
    p_synth.add_argument(
        "--kind", choices=["fgn", "gaussian-white", "garch"], required=True, help="generator"
    )
    p_synth.add_argument("--n", type=int, required=True, help="series length")
    p_synth.add_argument("--seed", type=int, default=0, help="random seed (default: 0)")
    p_synth.add_argument("--h", type=float, default=None, help="Hurst exponent (fgn only)")
    p_synth.add_argument(
        "--sigma", type=float, default=None, help="noise scale, fgn/white (default: 1.0)"
    )
    p_synth.add_argument("--omega", type=float, default=None, help="GARCH omega (garch only)")
    p_synth.add_argument("--alpha", type=float, default=None, help="GARCH alpha (garch only)")
    p_synth.add_argument("--beta", type=float, default=None, help="GARCH beta (garch only)")
    dates_group = p_synth.add_mutually_exclusive_group()
    dates_group.add_argument(
        "--dates",
        dest="dates",
        action="store_true",
        help="include a synthetic date index column (default: on)",
    )
    dates_group.add_argument(
        "--no-dates",
        dest="dates",
        action="store_false",
        help="write a single value column with no dates",
    )
    p_synth.set_defaults(dates=True)
    p_synth.add_argument(
        "--start-date",
        type=dt.date.fromisoformat,
        default=None,
        help=f"first synthetic date (default: {SYNTHETIC_START}; not with --no-dates)",
    )
    p_synth.add_argument(
        "--out", default=None, help="output file name (default: derived from kind/n/seed)"
    )
    _add_out_dir_flag(p_synth)
    p_synth.set_defaults(func=cmd_synth)

    p_report = sub.add_parser(
        "report",
        help="split a rolling output into plot-ready files",
        description="Write one two-column (date,value) CSV per indicator from a "
        "rolling CSV, plus a text summary of Hurst regimes.",
    )
    p_report.add_argument("input", help="rolling CSV produced by the roll command")
    p_report.add_argument(
        "--threshold", type=float, default=0.5, help="Hurst threshold for regime runs (default: 0.5)"
    )
    _add_out_dir_flag(p_report)
    p_report.set_defaults(func=cmd_report)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except InputError as exc:
        print(f"hurstscan: error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"hurstscan: error: {exc}", file=sys.stderr)
        return 1
    except NumericalError as exc:
        print(f"hurstscan: numerical failure: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
