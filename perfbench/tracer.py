"""Outside-in tracer: wraps hurstscan's public functions where callers look them up.

Each wrapped call records one span (name, start, end, parent span) in
memory.  Self time is a span's duration minus the time of its direct
child spans, so the self times of all spans add up to the root span.
A target whose function no longer exists is skipped and reports zero
calls, so the tracer keeps working while the program is refactored.

Installing the tracer changes nothing on disk and nothing in the
program's source: it only rebinds module attributes in this process.
"""
from __future__ import annotations

import functools
import os
import statistics
import sys
import time
from collections import defaultdict


def _rows(tracer, args, kwargs, result):
    tracer.counters["ingest.rows"] += len(result)


def _iterations(tracer, args, kwargs, result):
    tracer.samples["garch.iterations"].append(result.iterations)


def _residual_elems(tracer, args, kwargs, result):
    # 2 * floor(T/s) segments of s points each, forward and backward
    profile = args[0] if args else kwargs["profile"]
    s = int(args[1] if len(args) > 1 else kwargs["s"])
    tracer.counters["scaling.residual_elems"] += 2 * (len(profile) // s) * s


def _windows(tracer, args, kwargs, result):
    tracer.counters["rolling.windows"] += len(result)


def _out_bytes(tracer, args, kwargs, result):
    path = args[1] if len(args) > 1 else kwargs["path"]
    tracer.counters["rolling.out_bytes"] += os.path.getsize(path)


# (span name, module that defines the function, function name, result hook)
TARGETS = (
    ("cli.main", "hurstscan.cli", "main", None),
    ("cli.manifest", "hurstscan.cli", "_write_manifest", None),
    ("ingest.load_prices", "hurstscan.ingest", "load_prices", _rows),
    ("ingest.load_returns", "hurstscan.ingest", "load_returns", _rows),
    ("ingest.log_returns", "hurstscan.ingest", "log_returns", None),
    ("garch.fit", "hurstscan.garch", "garch_fit", _iterations),
    ("scaling.mfdfa", "hurstscan.scaling", "mfdfa", None),
    ("scaling.segment_fluctuations", "hurstscan.scaling", "segment_fluctuations", _residual_elems),
    ("scaling.average_fluctuation", "hurstscan.scaling", "average_fluctuation", None),
    ("scaling.fit_scaling", "hurstscan.scaling", "fit_scaling", None),
    ("liquidity.indicators", "hurstscan.liquidity", "liquidity_indicators", None),
    ("rolling.roll", "hurstscan.rolling", "roll", _windows),
    ("rolling.write_csv", "hurstscan.rolling", "write_rolling_csv", _out_bytes),
    ("rolling.write_jsonl", "hurstscan.rolling", "write_rolling_jsonl", _out_bytes),
)

INGEST_SPANS = ("ingest.load_prices", "ingest.load_returns", "ingest.log_returns")


class Tracer:
    """In-memory span recorder for one single-threaded process."""

    def __init__(self):
        self.names: list[str] = []
        self.parents: list[int] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.child_time: list[float] = []
        self._stack: list[int] = []
        self.counters: dict[str, int] = defaultdict(int)
        self.samples: dict[str, list] = defaultdict(list)
        self.raised: dict[str, int] = defaultdict(int)

    def wrap(self, name, fn, hook=None):
        names, parents, starts, ends = self.names, self.parents, self.starts, self.ends
        child_time, stack = self.child_time, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(names)
            parent = stack[-1] if stack else -1
            names.append(name)
            parents.append(parent)
            child_time.append(0.0)
            ends.append(0.0)
            stack.append(idx)
            t0 = clock()
            starts.append(t0)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self.raised[name] += 1
                raise
            finally:
                t1 = clock()
                stack.pop()
                ends[idx] = t1
                if parent >= 0:
                    child_time[parent] += t1 - t0
            if hook is not None:
                hook(self, args, kwargs, result)
            return result

        return traced

    def self_time(self, idx: int) -> float:
        return self.ends[idx] - self.starts[idx] - self.child_time[idx]

    def write_spans(self, path) -> None:
        """One line per span: index, parent index, name, start, end, self time."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("idx,parent,name,start,end,self\n")
            for i, name in enumerate(self.names):
                fh.write(
                    f"{i},{self.parents[i]},{name},{self.starts[i]!r},"
                    f"{self.ends[i]!r},{self.self_time(i)!r}\n"
                )

    def self_sum(self) -> float:
        """Sum of every span's self time: the root span's duration if all nest under it."""
        return sum(self.self_time(i) for i in range(len(self.names)))

    def summary(self) -> dict:
        """Per-layer metrics of one traced invocation."""
        calls = defaultdict(int)
        total = defaultdict(float)
        own = defaultdict(float)
        for i, name in enumerate(self.names):
            calls[name] += 1
            total[name] += self.ends[i] - self.starts[i]
            own[name] += self.self_time(i)
        fit_calls = calls["garch.fit"]
        iterations = self.samples["garch.iterations"]
        return {
            "ingest.load_s": sum(total[n] for n in INGEST_SPANS),
            "ingest.rows": self.counters["ingest.rows"],
            "garch.fit_calls": fit_calls,
            "garch.fit_s": total["garch.fit"],
            "garch.fit_ms": 1e3 * total["garch.fit"] / fit_calls if fit_calls else 0.0,
            "garch.iterations": statistics.median(iterations) if iterations else 0,
            "garch.raised": self.raised["garch.fit"],
            "scaling.mfdfa_calls": calls["scaling.mfdfa"],
            "scaling.mfdfa_s": total["scaling.mfdfa"],
            "scaling.segment_fluctuations_calls": calls["scaling.segment_fluctuations"],
            "scaling.segment_fluctuations_s": total["scaling.segment_fluctuations"],
            "scaling.average_fluctuation_s": total["scaling.average_fluctuation"],
            "scaling.fit_scaling_s": total["scaling.fit_scaling"],
            "scaling.residual_elems": self.counters["scaling.residual_elems"],
            "liquidity.indicators_calls": calls["liquidity.indicators"],
            "liquidity.indicators_s": total["liquidity.indicators"],
            "rolling.roll_s": total["rolling.roll"],
            "rolling.self_s": own["rolling.roll"],
            "rolling.windows": self.counters["rolling.windows"],
            "rolling.write_csv_s": total["rolling.write_csv"],
            "rolling.write_jsonl_s": total["rolling.write_jsonl"],
            "rolling.out_bytes": self.counters["rolling.out_bytes"],
            "cli.main_s": total["cli.main"],
            "cli.self_s": own["cli.main"],
            "cli.manifest_s": total["cli.manifest"],
        }


def install(tracer: Tracer, package: str = "hurstscan") -> tuple[list, list[str]]:
    """Wrap every TARGETS function that exists, under every name bound to it.

    Call after the package is imported.  Returns the replaced bindings,
    for uninstall(), and the targets that were missing.
    """
    modules = [
        mod
        for name, mod in list(sys.modules.items())
        if mod is not None and (name == package or name.startswith(package + "."))
    ]
    bindings, missing = [], []
    for span, modname, fname, hook in TARGETS:
        original = getattr(sys.modules.get(modname), fname, None)
        if not callable(original):
            missing.append(f"{modname}.{fname}")
            continue
        traced = tracer.wrap(span, original, hook)
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, traced)
                    bindings.append((mod, attr, original))
    return bindings, missing


def uninstall(bindings: list) -> None:
    """Restore the functions install() replaced."""
    for mod, attr, original in bindings:
        setattr(mod, attr, original)
