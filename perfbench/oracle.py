"""Correctness check of the CLI's outputs and the quality of its GARCH fits.

The oracle recomputes a fixed sample of windows from the public
reference functions (garch_fit, then mfdfa, then liquidity_indicators)
and compares them with the files the CLI wrote, within REL_TOL.  It runs
outside the timed region.
"""
from __future__ import annotations

import csv
import hashlib
import json
import math
import statistics
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
from hurstscan.exceptions import InputError, NumericalError
from hurstscan.garch import GarchParams, garch_fit, garch_loglik
from hurstscan.liquidity import liquidity_indicators
from hurstscan.scaling import mfdfa

from workloads import FGN_SIGMA, GARCH_TRUTH, Inputs, Workload

REL_TOL = 1e-12
SAMPLE_WINDOWS = 101
DETREND_ORDER = 1
MAX_PROBLEMS = 5


@dataclass
class Check:
    windows: int  # windows in one invocation's output
    failed: set = field(default_factory=set)  # indices of failed windows
    problems: list = field(default_factory=list)
    ll_pairs: list = field(default_factory=list)  # (fitted loglik, truth loglik, n)

    def problem(self, message: str) -> None:
        if len(self.problems) < MAX_PROBLEMS:
            self.problems.append(message)
        elif len(self.problems) == MAX_PROBLEMS:
            self.problems.append("...")

    @property
    def ll_shortfall(self) -> float:
        """Median over fits of max(0, truth loglik - fitted loglik), in nats."""
        return statistics.median(max(0.0, lt - lf) for lf, lt, _ in self.ll_pairs)

    @property
    def lr_per_obs(self) -> float:
        """Likelihood ratio of fit over truth per observation, pooled over fits."""
        gain = sum(lf - lt for lf, lt, _ in self.ll_pairs)
        return math.exp(gain / sum(n for _, _, n in self.ll_pairs))


def _close(a, b) -> bool:
    return a == b or abs(a - b) <= REL_TOL * max(abs(a), abs(b))


def _compare(check: Check, where: str, expected: dict, got: dict) -> bool:
    ok = True
    for key, want in expected.items():
        have = got.get(key)
        if isinstance(want, float):
            good = isinstance(have, float) and _close(want, have)
        else:
            good = type(want) is type(have) and want == have
        if not good:
            check.problem(f"{where}: {key} = {have!r}, oracle {want!r}")
            ok = False
    return ok


def _truth_loglik(r: np.ndarray, params: GarchParams) -> float:
    # same h1 as garch_fit: the sample variance of the returns
    return garch_loglik(r, params, float(np.var(r, ddof=1)))


def sha256(path: Path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def read_outputs(out_dir: Path) -> dict[str, Path]:
    """Output name -> path, from the single manifest the invocation wrote.

    Raises ValueError if the manifest is missing or its hashes disagree
    with the files.
    """
    manifests = sorted(out_dir.glob("*.manifest.json"))
    if len(manifests) != 1:
        raise ValueError(f"expected one manifest in {out_dir}, found {len(manifests)}")
    outputs = json.loads(manifests[0].read_text())["outputs"]
    paths = {}
    for name, entry in outputs.items():
        path = Path(entry["path"])
        if sha256(path) != entry["sha256"]:
            raise ValueError(f"manifest hash of {name} does not match {path}")
        paths[name] = path
    return paths


def output_digests(out_dir: Path) -> dict[str, str] | None:
    """SHA-256 of every output file, keyed by output name; None if unreadable."""
    try:
        return {name: sha256(path) for name, path in read_outputs(out_dir).items()}
    except (OSError, ValueError, KeyError):
        return None


def _window_expected(values, date, w: Workload, converged: bool) -> dict:
    profile, fit = mfdfa(values, w.scales, w.qs, DETREND_ORDER)[2.0]
    return {
        "date": date.isoformat(),
        "hurst": fit.hurst,
        "stderr_hurst": fit.stderr_hurst,
        "r_squared": fit.r_squared,
        **liquidity_indicators(profile, fit).to_dict(),
        "garch_converged": converged,
    }


def _roll_expected(w: Workload, inputs: Inputs, check: Check) -> dict[int, dict]:
    """Oracle rows of a fixed sample of windows, keyed by window index."""
    r = inputs.returns
    starts = w.starts(r.size)
    truth = GarchParams(**GARCH_TRUTH)
    if not w.per_window_garch:
        fit = garch_fit(r)
        filtered = r / np.sqrt(fit.h)
        # fit quality is judged on the whole paper-size series the input is cut from
        paper = inputs.paper_returns
        paper_fit = garch_fit(paper)
        check.ll_pairs.append((paper_fit.loglik, _truth_loglik(paper, truth), paper.size))

    expected = {}
    for k in np.unique(np.linspace(0, len(starts) - 1, SAMPLE_WINDOWS).round().astype(int)):
        i = starts[k]
        date = inputs.dates[i + w.window - 1]
        if not w.per_window_garch:
            values, converged = filtered[i : i + w.window], fit.converged
        else:
            # per-window mode: a window whose fit raises is analyzed unfiltered
            values = r[i : i + w.window]
            try:
                wfit = garch_fit(values)
            except (InputError, NumericalError):
                converged = False
            else:
                check.ll_pairs.append((wfit.loglik, _truth_loglik(values, truth), values.size))
                values, converged = values / np.sqrt(wfit.h), wfit.converged
        expected[int(k)] = _window_expected(values, date, w, converged)
    return expected


def _parse_csv_row(row: dict) -> dict:
    out = {}
    for key, text in row.items():
        if key == "date":
            out[key] = text
        elif key == "garch_converged":
            out[key] = {"true": True, "false": False}.get(text, text)
        else:
            out[key] = float(text)
    return out


def _roll_compare(check: Check, expected: dict, out_dir: Path) -> None:
    outputs = read_outputs(out_dir)
    with open(outputs["rolling_csv"], newline="", encoding="utf-8") as fh:
        rows = [_parse_csv_row(row) for row in csv.DictReader(fh)]
    with open(outputs["rolling_jsonl"], encoding="utf-8") as fh:
        jrows = [json.loads(line) for line in fh]
    if len(rows) != check.windows or len(jrows) != check.windows:
        check.problem(f"{len(rows)} CSV / {len(jrows)} JSONL rows, expected {check.windows}")
        check.failed.update(range(check.windows))
        return
    for k, (row, jrow) in enumerate(zip(rows, jrows)):
        if row != jrow:
            check.problem(f"window {k}: CSV and JSONL rows differ")
            check.failed.add(k)
        if row["garch_converged"] is not True:
            check.failed.add(k)
    for k, want in expected.items():
        if not _compare(check, f"window {k}", want, rows[k]):
            check.failed.add(k)


def _analyze_expected(w: Workload, inputs: Inputs, check: Check) -> dict:
    x = inputs.returns
    fit = garch_fit(x)
    # the series has no GARCH effect: the truth is constant variance
    truth = GarchParams(FGN_SIGMA**2, 0.0, 0.0)
    check.ll_pairs.append((fit.loglik, _truth_loglik(x, truth), x.size))
    results = mfdfa(x / np.sqrt(fit.h), w.scales, w.qs, DETREND_ORDER)
    return {
        "garch": fit.to_dict(),
        "fluctuations": {
            q: {"s": [int(s) for s in fp.scales], "fq": [float(f) for f in fp.fq]}
            for q, (fp, _) in results.items()
        },
        "scaling": [results[q][1].to_dict() for q in sorted(results)],
        "indicators": liquidity_indicators(*results[2.0]).to_dict(),
    }


def _analyze_compare(check: Check, expected: dict, out_dir: Path) -> None:
    outputs = read_outputs(out_dir)
    ok = _compare(check, "garch", expected["garch"], json.loads(outputs["garch"].read_text()))
    ok &= expected["garch"]["converged"]  # like roll's flag, a non-converged fit fails

    prefix = "fluctuations_q"
    fluct = {float(n[len(prefix) :]): p for n, p in outputs.items() if n.startswith(prefix)}
    if sorted(fluct) != sorted(expected["fluctuations"]):
        check.problem(f"fluctuation files for q {sorted(fluct)}, expected {sorted(expected['fluctuations'])}")
        ok = False
    for q, path in sorted(fluct.items()):
        want = expected["fluctuations"].get(q)
        if want is None:
            continue
        with open(path, newline="", encoding="utf-8") as fh:
            rows = list(csv.DictReader(fh))
        if [int(row["s"]) for row in rows] != want["s"]:
            check.problem(f"fluctuation file for q={q}: scales differ")
            ok = False
            continue
        for s, f, row in zip(want["s"], want["fq"], rows):
            ok &= _compare(check, f"F_q(s={s}), q={q}", {"fq": f}, {"fq": float(row["fq"])})

    fits = json.loads(outputs["scaling"].read_text())
    if len(fits) != len(expected["scaling"]):
        check.problem(f"{len(fits)} scaling fits, expected {len(expected['scaling'])}")
        ok = False
    for want, have in zip(expected["scaling"], fits):
        ok &= _compare(check, f"scaling fit q={want['q']}", want, have)
    indicators = json.loads(outputs["indicators"].read_text())
    ok &= _compare(check, "indicators", expected["indicators"], indicators)
    if not ok:
        check.failed.add(0)


def check_outputs(w: Workload, inputs: Inputs, out_dir: Path) -> Check:
    """Compare one invocation's output files with the oracle."""
    check = Check(windows=len(w.starts(inputs.returns.size)))
    if w.command == "roll":
        expected, compare = _roll_expected(w, inputs, check), _roll_compare
    else:
        expected, compare = _analyze_expected(w, inputs, check), _analyze_compare
    try:
        compare(check, expected, out_dir)
    except (OSError, ValueError, KeyError, TypeError) as exc:
        check.problem(f"unreadable outputs in {out_dir}: {exc!r}")
        check.failed.update(range(check.windows))
    return check
