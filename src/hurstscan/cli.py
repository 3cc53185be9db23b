"""Command-line interface: analyze, roll, synth, report.

Each command computes its results and returns them unwritten; ``main``
alone writes them.  Outputs are plain CSV/JSON, each under a bare file
name inside the output directory (flag --out-dir, env var
HURSTSCAN_OUT_DIR, else the working directory); a name with a directory
part is an input error.  A failed run writes nothing: the directory is
created only after the command has returned.  Then come the outputs and
a manifest that lists every one of them with its SHA-256, next to the
inputs, configuration, seed and tool version, so identical invocations
are verifiably bit-identical.  One line on stderr names every file
written: ``wrote <file>, <file> and <manifest>``.

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
from dataclasses import dataclass, fields
from functools import partial
from pathlib import Path

from . import __version__
from .exceptions import InputError, NumericalError
from .garch import garch_filter, garch_fit
from .ingest import (
    _DATE,
    _FLOAT,
    SYNTHETIC_START,
    CsvLayout,
    _write_table,
    load_prices,
    load_returns,
    log_returns,
    synthetic_dates,
)
from .liquidity import _check_has_q2, liquidity_indicators
from .rolling import (
    GARCH_MODES,
    STAMP_CHOICES,
    RollingConfig,
    detect_regimes,
    read_rolling_csv,
    roll,
    write_rolling_csv,
    write_rolling_jsonl,
)
from .scaling import _check_qs, mfdfa
from .synth import _KINDS, _check_seed

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


@dataclass(frozen=True)
class _Run:
    """What a command computed, still unwritten: main writes it.

    ``outputs`` maps each output name to its file name and to a function
    that writes the file at the path it is given.
    """

    stem: str
    inputs: list[str]
    config: dict
    outputs: dict
    seed: int | None = None


def _out_dir(args) -> Path:
    """The output directory, created if missing: call it once the results exist."""
    out = args.out_dir or os.environ.get(OUT_DIR_ENV) or "."
    path = Path(out)
    path.mkdir(parents=True, exist_ok=True)
    return path


def _write_text(path: Path, text: str) -> None:
    path.write_text(text, encoding="utf-8")


def _write_json(path: Path, data) -> None:
    _write_text(path, json.dumps(data, indent=2) + "\n")


def _write_manifest(out_dir: Path, command: str, run: _Run, paths: dict, started) -> Path:
    """Write <stem>.<command>.manifest.json: inputs, config, seed and the outputs' hashes."""
    manifest = {
        "command": command,
        "version": __version__,
        "inputs": run.inputs,
        "config": run.config,
        "seed": run.seed,
        "outputs": {
            name: {"path": str(out), "sha256": _sha256(out)} for name, out in paths.items()
        },
        "duration_seconds": time.perf_counter() - started,
    }
    path = out_dir / f"{run.stem}.{command}.manifest.json"
    _write_json(path, manifest)
    return path


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


def _int_flag(parser, flag: str, default: int, text: str):
    parser.add_argument(flag, type=int, default=default, help=f"{text} (default: {default})")


def _add_scale_flags(parser, with_window: bool):
    # the defaults are RollingConfig's, for analyze as for roll
    if with_window:
        _int_flag(parser, "--window", RollingConfig.window, "window length in trading days")
        _int_flag(parser, "--step", RollingConfig.step, "window step in days")
        parser.add_argument(
            "--s-max", type=int, default=None, help="largest scale (default: window/10 = 50)"
        )
    else:
        parser.add_argument("--s-max", type=int, default=50, help="largest scale (default: 50)")
    _int_flag(parser, "--s-min", RollingConfig.s_min, "smallest scale")
    _int_flag(parser, "--detrend-order", RollingConfig.detrend_order, "detrending polynomial order")


def _add_switch(parser, name: str, on_help: str, off_help: str):
    """--<name> and --no-<name>, mutually exclusive; on by default."""
    group = parser.add_mutually_exclusive_group()
    on_help = f"{on_help} (default: on)"
    group.add_argument(f"--{name}", dest=name, action="store_true", help=on_help)
    group.add_argument(f"--no-{name}", dest=name, action="store_false", help=off_help)
    parser.set_defaults(**{name: True})


def _add_out_dir_flag(parser):
    parser.add_argument(
        "--out-dir",
        default=None,
        help=f"output directory (default: ${OUT_DIR_ENV} or the working directory)",
    )


def _q_tag(q: float) -> str:
    return str(int(q)) if float(q).is_integer() else str(q)


def cmd_analyze(args) -> _Run:
    series = _load_return_series(args)
    # each q's own rule first, then the set's: the measures need q = 2
    qs = _check_qs(args.q or (2.0,))
    _check_has_q2(qs)
    config = {
        "s_min": args.s_min,
        "s_max": args.s_max,
        "q_set": list(qs),
        "detrend_order": args.detrend_order,
        "garch": args.garch,
        "returns": args.returns,
    }

    stem = Path(args.input).stem
    outputs = {}
    values = series.values
    if args.garch:
        fit = garch_fit(values)
        values = garch_filter(series, fit)
        outputs["garch"] = (f"{stem}.garch.json", partial(_write_json, data=fit.to_dict()))
    results = mfdfa(values, range(args.s_min, args.s_max + 1), qs, args.detrend_order)
    indicators = liquidity_indicators(*results[2.0])

    for q in sorted(results):
        tag = _q_tag(q)
        outputs[f"fluctuations_q{tag}"] = (f"{stem}.fluct_q{tag}.csv", results[q][0].write_csv)
    fits = [results[q][1].to_dict() for q in sorted(results)]
    outputs["scaling"] = (f"{stem}.scaling.json", partial(_write_json, data=fits))
    outputs["indicators"] = (
        f"{stem}.indicators.json",
        partial(_write_json, data=indicators.to_dict()),
    )
    return _Run(stem, [args.input], config, outputs)


def cmd_roll(args) -> _Run:
    series = _load_return_series(args)
    # every RollingConfig field has a flag of its own name
    config = RollingConfig(**{f.name: getattr(args, f.name) for f in fields(RollingConfig)})
    results = roll(series, config)

    stem = Path(args.input).stem
    outputs = {
        "rolling_csv": (f"{stem}.rolling.csv", partial(write_rolling_csv, results)),
        "rolling_jsonl": (f"{stem}.rolling.jsonl", partial(write_rolling_jsonl, results)),
    }
    return _Run(stem, [args.input], {**config.to_dict(), "returns": args.returns}, outputs)


def cmd_synth(args) -> _Run:
    if not args.dates and args.start_date is not None:
        raise InputError("--start-date needs dates; it has no effect with --no-dates")
    _check_seed(args.seed)
    generator, names = _KINDS[args.kind]
    # each generator flag's dest is its parameter's name, and sigma defaults to 1.0
    given = {
        name: getattr(args, name)
        for _, kind_names in _KINDS.values()
        for name in kind_names
        if getattr(args, name) is not None
    }
    unused = [name for name in given if name not in names]
    if unused:
        raise InputError(f"{args.kind} does not take {', '.join(unused)}")
    params = {name: given.get(name, 1.0 if name == "sigma" else None) for name in names}
    missing = [name for name, value in params.items() if value is None]
    if missing:
        raise InputError(f"{args.kind} requires {', '.join(missing)}")
    columns, header = [(_FLOAT, generator(args.n, seed=args.seed, **params))], ("value",)
    if args.dates:
        dates = synthetic_dates(args.n, args.start_date or SYNTHETIC_START)
        columns, header = [(_DATE, dates), *columns], ("date", *header)

    name = args.out or f"{args.kind.replace('-', '_')}_n{args.n}_seed{args.seed}.csv"
    outputs = {"series": (name, partial(_write_table, columns=columns, header=header))}
    config = {"kind": args.kind, "n": args.n, "seed": args.seed, **params}
    return _Run(Path(name).stem, [], config, outputs, seed=args.seed)


def cmd_report(args) -> _Run:
    results = read_rolling_csv(args.input)
    runs = detect_regimes(results, args.threshold)

    stem = Path(args.input).stem.removesuffix(".rolling")
    outputs = {}
    for name in ("hurst", "f0", "f_sigma", "f_range", "f_ratio"):
        columns = [(_DATE, results.date), (_FLOAT, getattr(results, name))]
        write = partial(_write_table, columns=columns, header=("date", "value"))
        outputs[name] = (f"{stem}.{name}.csv", write)

    lines = [f"hurst regimes at threshold {args.threshold!r}\n"]
    lines += [
        f"{run.label} {args.threshold!r} from {run.start.isoformat()} "
        f"to {run.end.isoformat()} ({run.n_windows} windows)\n"
        for run in runs
    ]
    outputs["regimes"] = (f"{stem}.regimes.txt", partial(_write_text, text="".join(lines)))
    return _Run(stem, [args.input], {"threshold": args.threshold}, outputs)


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
    p_analyze.add_argument(
        "--q",
        type=float,
        action="append",
        default=None,
        help="moment order, repeatable (default: 2)",
    )
    _add_switch(
        p_analyze,
        "garch",
        "fit GARCH(1,1) and analyze the filtered series",
        "analyze the raw series without volatility filtering",
    )
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
    # the measures use q = 2 only: --q stays so that "--q 2" still parses
    p_roll.add_argument(
        "--q",
        type=float,
        choices=[2.0],
        metavar="{2}",
        help="moment order; roll computes q = 2 only (default: 2)",
    )
    p_roll.add_argument(
        "--garch-mode",
        choices=GARCH_MODES,
        default=RollingConfig.garch_mode,
        help="one GARCH fit for the full series, or one per window "
        f"(default: {RollingConfig.garch_mode})",
    )
    p_roll.add_argument(
        "--stamp",
        choices=STAMP_CHOICES,
        default=RollingConfig.stamp,
        help=f"which window day dates each result row (default: {RollingConfig.stamp})",
    )
    _add_out_dir_flag(p_roll)
    p_roll.set_defaults(func=cmd_roll)

    p_synth = sub.add_parser(
        "synth",
        help="generate a seeded synthetic series",
        description="Write a deterministic synthetic series (fractional Gaussian "
        "noise, white noise, or GARCH) as CSV.",
    )
    p_synth.add_argument("--kind", choices=list(_KINDS), required=True, help="generator")
    p_synth.add_argument("--n", type=int, required=True, help="series length")
    p_synth.add_argument("--seed", type=int, default=0, help="random seed (default: 0)")
    # each generator flag's dest is the name of its generator parameter
    p_synth.add_argument(
        "--h", dest="hurst", type=float, default=None, help="Hurst exponent (fgn only)"
    )
    p_synth.add_argument(
        "--sigma", type=float, default=None, help="noise scale, fgn/white (default: 1.0)"
    )
    p_synth.add_argument("--omega", type=float, default=None, help="GARCH omega (garch only)")
    p_synth.add_argument("--alpha", type=float, default=None, help="GARCH alpha (garch only)")
    p_synth.add_argument("--beta", type=float, default=None, help="GARCH beta (garch only)")
    _add_switch(
        p_synth,
        "dates",
        "include a synthetic date index column",
        "write a single value column with no dates",
    )
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
    args = build_parser().parse_args(argv)
    started = time.perf_counter()
    try:
        run = args.func(args)
        for file_name, _ in run.outputs.values():
            if file_name in (".", "..") or Path(file_name).name != file_name:
                raise InputError(f"output file name {file_name!r} is not a bare file name")
        # the directory is created only once every result exists, so a
        # failed command leaves neither files nor an empty directory
        out_dir = _out_dir(args)
        paths = {}
        for name, (file_name, write) in run.outputs.items():
            paths[name] = out_dir / file_name
            write(paths[name])
        manifest = _write_manifest(out_dir, args.command, run, paths, started)
    except (InputError, OSError) as exc:
        print(f"hurstscan: error: {exc}", file=sys.stderr)
        return 1
    except NumericalError as exc:
        print(f"hurstscan: numerical failure: {exc}", file=sys.stderr)
        return 2
    print(f"wrote {', '.join(map(str, paths.values()))} and {manifest}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
