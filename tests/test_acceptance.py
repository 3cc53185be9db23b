"""End-to-end acceptance checks, one test per criterion.

Each test prints a single "[acceptance n] PASS/FAIL" line (collected into
the terminal summary) in addition to its assertion, so a full run shows
the verdict for every criterion at a glance.  Criterion 8 exercises real
index data and only runs when HURSTSCAN_DJI_CSV points at a daily-close
CSV; it is reporting-only for context, not a gate.
"""
import datetime as dt
import os
import time

import numpy as np
import pytest

from helpers import (
    ACCEPTANCE_LINES,
    assert_results_close,
    make_return_series,
    naive_segment_fluctuations,
    reference_roll,
)
from hurstscan import (
    FluctuationProfile,
    RollingConfig,
    build_profile,
    detect_regimes,
    fit_scaling,
    garch_filter,
    garch_fit,
    gen_fgn,
    gen_garch,
    liquidity_indicators,
    load_prices,
    log_returns,
    max_drawdown,
    mfdfa,
    read_rolling_csv,
    roll,
    segment_fluctuations,
    write_rolling_csv,
)

SCALES = range(10, 51)
N_SEEDS = 20


def verdict(n: int, ok: bool, detail: str) -> None:
    line = f"[acceptance {n}] {'PASS' if ok else 'FAIL'} ({detail})"
    ACCEPTANCE_LINES.append(line)
    print(line)
    assert ok, line


def hurst_of(series) -> float:
    return mfdfa(series, SCALES)[2.0][1].hurst


def test_criterion_1_hurst_recovery():
    started = time.perf_counter()
    worst_median = 0.0
    worst_single = 0.0
    for true_h in (0.3, 0.5, 0.7):
        estimates = np.array(
            [hurst_of(gen_fgn(10000, true_h, seed=s)) for s in range(N_SEEDS)]
        )
        worst_median = max(worst_median, abs(np.median(estimates) - true_h))
        worst_single = max(worst_single, np.max(np.abs(estimates - true_h)))
    elapsed = time.perf_counter() - started
    ok = worst_median <= 0.03 and worst_single <= 0.07 and elapsed < 10.0
    verdict(
        1,
        ok,
        f"median dev {worst_median:.4f} <= 0.03, max dev {worst_single:.4f} <= 0.07, "
        f"{elapsed:.1f}s < 10s",
    )


def test_criterion_2_monofractal_flatness():
    qs = (1.0, 2.0, 3.0, 4.0)
    flat = 0
    spreads = []
    for seed in range(N_SEEDS):
        res = mfdfa(gen_fgn(10000, 0.7, seed=seed), SCALES, qs=qs)
        hs = [res[q][1].hurst for q in qs]
        spread = max(hs) - min(hs)
        spreads.append(spread)
        flat += spread < 0.1
    ok = flat >= 18
    verdict(2, ok, f"{flat}/{N_SEEDS} runs flat, worst spread {max(spreads):.4f}")


def test_criterion_3_exact_scaling_degenerate_suite():
    worst = 0.0
    scales = np.arange(10, 51)
    for c in (0.04, 1.0, 2.0):
        for true_h in (0.3, 0.5, 0.8):
            fp = FluctuationProfile(q=2.0, scales=scales, fq=c * scales**true_h)
            fit = fit_scaling(fp)
            ind = liquidity_indicators(fp, fit)
            worst = max(
                worst,
                abs(fit.r_squared - 1.0),
                abs(ind.f_sigma),
                abs(ind.f_range),
                abs(ind.f_ratio - 1.0),
            )
    ok = worst <= 1e-9
    verdict(3, ok, f"worst deviation {worst:.2e} <= 1e-9")


def test_criterion_4_brute_force_dfa_oracle():
    rng = np.random.default_rng(2024)
    worst = 0.0
    for _ in range(50):
        t = int(rng.integers(12, 51))
        s = int(rng.integers(3, t // 4 + 1))
        profile = build_profile(rng.normal(size=t))
        got = segment_fluctuations(profile, s)
        want = naive_segment_fluctuations(profile, s)
        worst = max(worst, float(np.max(np.abs(got - want))))
    ok = worst <= 1e-10
    verdict(4, ok, f"worst |diff| {worst:.2e} <= 1e-10 over 50 pairs")


def test_criterion_5_garch_recovery():
    started = time.perf_counter()
    truth = {"omega": 0.1, "alpha": 0.1, "beta": 0.8}
    estimates = {k: [] for k in truth}
    variances = []
    for seed in range(N_SEEDS):
        r = gen_garch(5000, seed=seed, **truth)
        fit = garch_fit(r)
        for key in truth:
            estimates[key].append(getattr(fit.params, key))
        variances.append(float(np.var(garch_filter(r, fit), ddof=1)))
    elapsed = time.perf_counter() - started
    median_dev = max(abs(np.median(estimates[k]) - truth[k]) for k in truth)
    var_ok = all(0.9 <= v <= 1.1 for v in variances)
    ok = median_dev <= 0.03 and var_ok and elapsed < 30.0
    verdict(
        5,
        ok,
        f"max median dev {median_dev:.4f} <= 0.03, filtered var in "
        f"[{min(variances):.3f}, {max(variances):.3f}], {elapsed:.1f}s < 30s",
    )


def _spliced_series():
    first = gen_fgn(1500, 0.7, seed=31)
    second = gen_fgn(1500, 0.3, seed=1031)
    return make_return_series(np.concatenate([first, second]))


def test_criterion_6_rolling_regime_contrast():
    series = _spliced_series()
    config = RollingConfig(window=500, step=10)
    results = roll(series, config)
    switch = series.dates[1500]
    dates = np.array(results.date)
    first = results.hurst[dates <= series.dates[1499]]
    second = results.hurst[dates >= series.dates[1999]]
    contrast = float(np.mean(first) - np.mean(second))

    runs = detect_regimes(results, 0.5)
    below = max(
        (r for r in runs if r.label == "below"),
        key=lambda r: r.n_windows,
        default=None,
    )
    locate_days = abs((below.start - switch).days) if below else 10**9
    ok = contrast >= 0.2 and locate_days <= 500
    verdict(
        6,
        ok,
        f"contrast {contrast:.3f} >= 0.2, switch located within {locate_days} days "
        f"<= one window (500)",
    )


def test_criterion_7_determinism_and_kernel_equivalence(tmp_path):
    series = _spliced_series()
    config = RollingConfig(window=500, step=10)
    paths = []
    for name in ("first.csv", "second.csv"):
        path = tmp_path / name
        write_rolling_csv(roll(series, config), path)
        paths.append(path)
    identical = paths[0].read_bytes() == paths[1].read_bytes()
    reference = tmp_path / "reference.csv"
    write_rolling_csv(reference_roll(series, config), reference)
    try:
        assert_results_close(read_rolling_csv(paths[0]), read_rolling_csv(reference))
        close = True
    except AssertionError:
        close = False
    ok = identical and close
    verdict(
        7,
        ok,
        "rolling CSVs byte-identical across two runs; shared-segment kernel CSV "
        "equals the per-window mfdfa reference within 1e-12",
    )


def test_criterion_8_real_data_optional():
    csv_path = os.environ.get("HURSTSCAN_DJI_CSV")
    if not csv_path:
        line = (
            "[acceptance 8] SKIP (optional real-data check; set HURSTSCAN_DJI_CSV "
            "to a daily DJI close CSV covering 2000-2011 to run)"
        )
        ACCEPTANCE_LINES.append(line)
        print(line)
        pytest.skip("HURSTSCAN_DJI_CSV not set")
    prices = load_prices(csv_path)
    drawdown = max_drawdown(prices, start=dt.date(2007, 6, 1), end=dt.date(2009, 6, 30))
    dd_ok = abs(drawdown - 0.5378) <= 0.01

    results = roll(log_returns(prices), RollingConfig(window=500, step=5))
    dates = np.array(results.date)
    early = results.hurst[dates < dt.date(2006, 1, 1)]
    late = results.hurst[(dates >= dt.date(2007, 6, 1)) & (dates <= dt.date(2009, 12, 31))]
    declining = np.mean(late) < np.mean(early)
    sub_half = np.flatnonzero((dates >= dt.date(2007, 6, 1)) & (results.hurst < 0.5))
    ok = dd_ok and declining and len(sub_half) >= 20
    verdict(
        8,
        ok,
        f"drawdown {drawdown:.4f} vs 0.5378 +-0.01, H declining {declining}, "
        f"{len(sub_half)} sub-0.5 windows after mid-2007",
    )
