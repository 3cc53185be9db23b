"""Repeat one hurstscan CLI invocation inside this fresh interpreter and report each.

    python child.py import
    python child.py loop <spec.json>

`import` prints the time this interpreter takes to import hurstscan.cli.
`loop` imports it, then calls cli.main(argv) in-process again and again
until the spec's time budget is spent, each time with its own output
directory.  The first invocation is a warm-up.  With tracing on, every
second invocation after it runs with the tracer installed.  Right before
each invocation the fixed work of reference.py is timed.  It prints one
JSON line: the import time, the peak RSS after the first invocation,
and per invocation the reference time before it, the wall and CPU time
from argv to all files written and the exit code (plus the per-layer
summary when traced).

hurstscan must be importable: run.py sets PYTHONPATH to the checkout's src/.
"""
import json
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _call(cli, argv) -> dict:
    t0, c0 = time.perf_counter(), time.process_time()
    try:
        # looked up at call time, so an installed tracer's wrapper is used
        code = cli.main(argv)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 1
    except Exception:
        traceback.print_exc()
        code = 99
    return {
        "wall_s": time.perf_counter() - t0,
        "cpu_s": time.process_time() - c0,
        "exit_code": code,
    }


def loop(cli, spec: dict) -> dict:
    import reference
    import tracer as tracing

    invocations = []
    peak_rss_mb = None
    tracer = None
    started = time.perf_counter()
    while True:
        k = len(invocations)
        traced = spec["trace"] and k % 2 == 1
        # timed right before the call, so that both see the host at the same speed
        reference_s = reference.run()
        argv = [*spec["argv"], "--out-dir", str(Path(spec["out_root"]) / f"out{k}")]
        if traced:
            tracer = tracing.Tracer()
            bindings, missing = tracing.install(tracer)
        result = _call(cli, argv)
        if traced:
            tracing.uninstall(bindings)
            result["layers"] = tracer.summary()
            result["self_sum_s"] = tracer.self_sum()
            result["spans"] = len(tracer.names)
            result["missing_targets"] = missing
        result["reference_s"] = reference_s
        result["traced"] = traced
        result["warmup"] = k == 0
        result["out_dir"] = argv[-1]
        invocations.append(result)
        if peak_rss_mb is None:
            peak_rss_mb = _peak_rss_mb()

        elapsed = time.perf_counter() - started
        typical = statistics.median(r["wall_s"] + r["reference_s"] for r in invocations)
        timed = [r for r in invocations if not r["warmup"]]
        untraced = sum(not r["traced"] for r in timed)
        enough = untraced >= spec["min_untraced"] and (
            not spec["trace"] or len(timed) - untraced >= 1
        )
        if enough and elapsed + typical > spec["seconds"]:
            if tracer is not None:
                tracer.write_spans(spec["spans_path"])
            return {"peak_rss_mb": peak_rss_mb, "invocations": invocations}


def main() -> int:
    t0 = time.perf_counter()
    import hurstscan.cli

    report = {"import_s": time.perf_counter() - t0}
    if sys.argv[1] == "loop":
        report.update(loop(hurstscan.cli, json.loads(Path(sys.argv[2]).read_text())))
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
