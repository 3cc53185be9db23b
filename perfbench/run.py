"""hurstscan benchmark: seeded CLI workloads, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload roll-whole --seed 1 --seconds 30 --trace 0

Run from the root of a checkout: the program is imported from src/.
The workload's input CSV is generated from --seed (perfbench/workloads.py).
One fresh interpreter (perfbench/child.py) imports hurstscan.cli and calls
cli.main(argv) in-process again and again until --seconds are spent; the
first call is a warm-up.  Right before each call it times a fixed
reference computation (perfbench/reference.py) that gauges the shared
host's current speed.  wall_rel is the summed wall time of the timed
calls divided by the summed time of the reference runs before them:
the host's drift, which moves both, cancels.  wall_s, the median call
in seconds, is reported per layer.  peak_rss_mb is the peak RSS of that
process after its first call.  setup_s is the median time of fresh
interpreters to import hurstscan.cli.  Outside the timed region the
outputs are checked against an oracle (perfbench/oracle.py) and against
each other, byte for byte.

With --trace 1 untraced and traced calls alternate; the traced ones wrap
each module's public functions (perfbench/tracer.py) and give the
per-layer metrics.  A record of the run (seed, input SHA-256,
environment, every sample) and the spans of the last traced call are
written under .perfbench_work/results/.  The last line of standard
output is the JSON result.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

MIN_INVOCATIONS = 5  # timed untraced calls per run, after the warm-up
SETUP_SAMPLES = 3  # fresh imports per run; setup_s is their median
CHILD_TIMEOUT_S = 150
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
IMPORT_MODULES = (
    "hurstscan",
    "hurstscan.exceptions",
    "hurstscan.garch",
    "hurstscan.ingest",
    "hurstscan.scaling",
    "hurstscan.liquidity",
    "hurstscan.rolling",
    "hurstscan.synth",
    "hurstscan.cli",
)
END_TO_END_UNITS = {
    "wall_rel": "ratio",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "garch_lr_per_obs": "ratio",
    "pass_frac": "ratio",
}


def _unit(name: str) -> str:
    if name.endswith("_s") or name.startswith("setup.import_s."):
        return "s"
    if name.endswith("_ms"):
        return "ms"
    if name.endswith("_bytes"):
        return "bytes"
    if name == "garch.ll_shortfall":
        return "nats"
    return "count"


def _child_env() -> dict:
    # import the program from this checkout's src/ only
    return {**os.environ, "PYTHONPATH": str(SRC)}


def _child(args: list[str]) -> dict:
    """Run child.py in a fresh interpreter; returns its JSON report."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "child.py"), *args],
        env=_child_env(),
        capture_output=True,
        text=True,
        timeout=CHILD_TIMEOUT_S,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"benchmark child failed ({proc.returncode}): {proc.stderr[-2000:]}")
    return {**json.loads(lines[-1]), "stderr_tail": proc.stderr[-1000:]}


def import_times() -> dict[str, float]:
    """Cumulative `python -X importtime` seconds of each hurstscan module."""
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", "-c", "import hurstscan.cli"],
        env=_child_env(),
        capture_output=True,
        text=True,
        timeout=CHILD_TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"import of hurstscan.cli failed: {proc.stderr[-2000:]}")
    cumulative = {}
    for line in proc.stderr.splitlines():
        parts = line.split("|")
        if line.startswith("import time:") and len(parts) == 3 and parts[1].strip().isdigit():
            cumulative[parts[2].strip()] = int(parts[1]) / 1e6
    return {f"setup.import_s.{m}": cumulative.get(m, 0.0) for m in IMPORT_MODULES}


def environment() -> dict:
    import numpy
    import scipy

    blas = "unknown"
    try:
        deps = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{deps.get('name')} {deps.get('version')}"
    except (TypeError, KeyError):  # numpy < 1.26 has no dict mode
        pass
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "thread_env": {var: os.environ.get(var) for var in THREAD_VARS},
        "platform": platform.platform(),
    }


def measure(w, inputs, seconds: float, trace: bool, run_dir: Path, spans_path: Path) -> dict:
    """In-process invocations in one fresh interpreter until `seconds` are spent.

    After a warm-up, untraced, at least MIN_INVOCATIONS run.  With
    tracing, untraced and traced invocations alternate, at least one of
    each.
    """
    spec = {
        "argv": w.argv(inputs.path),
        "out_root": str(run_dir),
        "seconds": seconds,
        "min_untraced": 1 if trace else MIN_INVOCATIONS,
        "trace": trace,
        "spans_path": str(spans_path),
    }
    spec_path = run_dir / "spec.json"
    spec_path.write_text(json.dumps(spec))
    return _child(["loop", str(spec_path)])


def verify(w, inputs, reports: list, stderr_tail: str) -> dict:
    """Oracle check of the first successful invocation; byte identity for all.

    A window fails if its invocation exited non-zero, if its outputs differ
    from the reference invocation's, if its row says garch_converged=false,
    or if it is outside the oracle's tolerance.
    """
    import oracle

    windows = len(w.starts(inputs.returns.size))
    good = [r for r in reports if r["exit_code"] == 0]
    problems = []
    if len(good) < len(reports):
        problems.append(f"{len(reports) - len(good)} invocations exited non-zero: {stderr_tail}")
    check = oracle.check_outputs(w, inputs, Path(good[0]["out_dir"] if good else "missing"))
    failed = windows * (len(reports) - len(good))
    digests = [oracle.output_digests(Path(r["out_dir"])) for r in good]
    for r, digest in zip(good, digests):
        if digest is None or digest != digests[0]:
            problems.append(f"outputs in {r['out_dir']} unreadable or unlike {good[0]['out_dir']}")
            failed += windows
        else:
            failed += len(check.failed)
    problems += check.problems
    return {
        "correct": not problems,
        "attempted": windows * len(reports),
        "failed": failed,
        "problems": problems,
        "output_sha256": digests[0] if digests else None,
        "garch_ll_shortfall": check.ll_shortfall,
        "garch_lr_per_obs": check.lr_per_obs,
    }


def _median(reports: list, key: str) -> float:
    return statistics.median(r[key] for r in reports)


def run(w, seed: int, seconds: float, trace: bool, run_dir: Path, spans_path: Path) -> dict:
    """Measure and check one workload; returns the run's record."""
    from workloads import make_inputs

    inputs = make_inputs(w, seed, run_dir)
    child = measure(w, inputs, seconds, trace, run_dir, spans_path)
    invocations = child["invocations"]
    timed = [r for r in invocations if not r["warmup"]]
    untraced = [r for r in timed if not r["traced"]]
    traced = [r for r in timed if r["traced"]]
    wall_s = _median(untraced, "wall_s")
    setups = [child["import_s"]]
    if not trace:  # setup_s is an end-to-end metric, reported only untraced
        setups += [_child(["import"])["import_s"] for _ in range(SETUP_SAMPLES - 1)]
    outcome = verify(w, inputs, invocations, child["stderr_tail"])

    if not trace:
        metrics = {
            "wall_rel": sum(r["wall_s"] for r in untraced) / sum(r["reference_s"] for r in untraced),
            "setup_s": statistics.median(setups),
            "peak_rss_mb": child["peak_rss_mb"],
            "garch_lr_per_obs": outcome["garch_lr_per_obs"],
            "pass_frac": 1.0 - outcome["failed"] / outcome["attempted"],
        }
        units = END_TO_END_UNITS
    else:
        layers = [r["layers"] for r in traced]
        metrics = {key: statistics.median(l[key] for l in layers) for key in layers[0]}
        metrics["garch.ll_shortfall"] = outcome["garch_ll_shortfall"]
        metrics.update(import_times())
        metrics["trace_overhead_s"] = _median(traced, "wall_s") - wall_s
        metrics["wall_s"] = wall_s
        metrics["reference_s"] = _median(untraced, "reference_s")
        units = {name: _unit(name) for name in metrics}

    record = {
        "workload": w.name,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "inputs": {inputs.path.name: inputs.sha256},
        "environment": environment(),
        "correct": outcome["correct"],
        "attempted": outcome["attempted"],
        "failed": outcome["failed"],
        "problems": outcome["problems"],
        "output_sha256": outcome["output_sha256"],
        "setup_samples_s": setups,
        "peak_rss_mb": child["peak_rss_mb"],
        "invocations": [{k: v for k, v in r.items() if k != "out_dir"} for r in invocations],
        "metrics": {name: {"value": v, "unit": units[name]} for name, v in metrics.items()},
    }
    if trace:
        # the layers' self times add up to the traced wall time of each invocation
        record["self_time_gap_s"] = [r["wall_s"] - r["self_sum_s"] for r in traced]
    return record


def _print_report(record: dict) -> None:
    print(f"workload {record['workload']}  seed {record['seed']}  trace {int(record['trace'])}")
    for name, sha in record["inputs"].items():
        print(f"  input {name}  sha256 {sha}")
    env = record["environment"]
    print(
        f"  python {env['python']}  numpy {env['numpy']}  scipy {env['scipy']}  "
        f"blas {env['blas']}  nproc {env['nproc']}  threads {env['thread_env']}"
    )
    n_traced = sum(r["traced"] for r in record["invocations"])
    n_untraced = len(record["invocations"]) - n_traced
    print(
        f"  invocations: {n_untraced} untraced (one a warm-up), {n_traced} traced, "
        f"each after a reference run; setup samples {len(record['setup_samples_s'])}"
    )
    for name, m in record["metrics"].items():
        print(f"  {name:40s} {m['value']:>16.6g} {m['unit']}")
    if "self_time_gap_s" in record:
        overhead = record["metrics"]["trace_overhead_s"]["value"]
        gap = max(record["self_time_gap_s"], key=abs)
        verdict = "within" if abs(gap) <= abs(overhead) else "OUTSIDE"
        print(f"  traced wall - sum of layer self times, largest = {gap:.6f} s ({verdict} trace overhead)")
    print(f"  correct {record['correct']}  windows attempted {record['attempted']}  failed {record['failed']}")
    for problem in record["problems"]:
        print(f"  problem: {problem}")


def main(argv=None) -> int:
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "hurstscan" / "cli.py").is_file():
        print(f"perfbench: no hurstscan sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    w = WORKLOADS[args.workload]
    name = f"{w.name}-seed{args.seed}-trace{args.trace}"
    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    run_dir = WORK / f"{name}-{os.getpid()}"
    run_dir.mkdir()
    try:
        record = run(w, args.seed, args.seconds, bool(args.trace), run_dir, results / f"{name}.spans.csv")
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    record_path = results / f"{name}.json"
    record_path.write_text(json.dumps(record, indent=1) + "\n")
    _print_report(record)
    print(f"  record {record_path.relative_to(ROOT)}")
    print(
        json.dumps(
            {
                "correct": record["correct"],
                "attempted": record["attempted"],
                "failed": record["failed"],
                "metrics": record["metrics"],
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
