import dataclasses
import datetime as dt
import functools
import json
import math
import re
import tracemalloc
import warnings
from unittest import mock

import numpy as np
import pytest
from numpy.lib.stride_tricks import sliding_window_view
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import (
    assert_block_size_free,
    assert_results_close,
    make_return_series,
    per_scale_shared_f2,
    reference_roll,
)
from hurstscan import (
    InputError,
    RollingConfig,
    RollingResult,
    detect_regimes,
    garch_fit,
    gen_fgn,
    gen_garch,
    ingest,
    mfdfa,
    read_rolling_csv,
    roll,
    write_rolling_csv,
    write_rolling_jsonl,
)
from hurstscan import rolling
from hurstscan.rolling import ROLLING_CSV_COLUMNS, _shared_f2
from hurstscan.scaling import _series_fq, _unit_scaled

FAST = RollingConfig(window=500, step=100)


def spliced_series(seed=0):
    # persistent first half, anti-persistent second half
    first = gen_fgn(1500, 0.7, seed=seed)
    second = gen_fgn(1500, 0.3, seed=seed + 1000)
    return make_return_series(np.concatenate([first, second]))


def results_with_hurst(hursts):
    """Consecutive daily windows with the given H and exact scaling."""
    n = len(hursts)
    return RollingResult(
        date=[dt.date(2000, 1, 3) + dt.timedelta(days=i) for i in range(n)],
        hurst=hursts,
        stderr_hurst=np.full(n, 0.01),
        r_squared=np.full(n, 0.99),
        f0=np.full(n, 0.1),
        f_sigma=np.zeros(n),
        f_range=np.zeros(n),
        f_ratio=np.ones(n),
        garch_converged=np.ones(n, dtype=bool),
    )


def columns(results, rows=slice(None)):
    """Every column's values for the windows ``rows``, as lists for exact comparison."""
    return {col: list(getattr(results, col)[rows]) for col in ROLLING_CSV_COLUMNS}


INDEPENDENCE_WINDOW = 250
INDEPENDENCE_WINDOWS = 171


@functools.cache
def independence_full_run(garch_mode, order):
    """A series and its roll at step 1, the reference for every subset of its windows."""
    series = make_return_series(
        gen_garch(INDEPENDENCE_WINDOW + INDEPENDENCE_WINDOWS - 1, 0.1, 0.1, 0.8, seed=6)
    )
    config = RollingConfig(
        window=INDEPENDENCE_WINDOW, detrend_order=order, garch_mode=garch_mode
    )
    return series, roll(series, config)


class TestRollingConfig:
    def test_defaults(self):
        config = RollingConfig()
        assert config.window == 500
        assert config.step == 1
        assert config.s_min == 10
        assert config.s_max == 50
        assert config.detrend_order == 1
        assert config.garch_mode == "whole-sample"

    def test_s_max_derived_from_window(self):
        assert RollingConfig(window=800).s_max == 80

    def test_window_must_cover_scales(self):
        with pytest.raises(InputError):
            RollingConfig(window=90, s_min=10)

    def test_scale_range_checked_against_window(self):
        with pytest.raises(InputError, match=r"scales 10\.\.60 out of range \[3, 50\]"):
            RollingConfig(window=200, s_min=10, s_max=60)

    def test_bad_mode(self):
        with pytest.raises(InputError):
            RollingConfig(garch_mode="hybrid")

    @pytest.mark.parametrize(
        "field, value",
        [
            ("window", 500.0),
            ("step", 2.5),
            ("s_min", 10.5),
            ("s_max", 40.0),
            ("detrend_order", 1.5),
            ("step", "2"),
            ("window", None),
            # a bool is no whole number: step=True was once stored as True
            ("step", True),
            ("detrend_order", False),
        ],
    )
    def test_whole_number_fields_must_be_integers(self, field, value):
        with pytest.raises(InputError, match=f"{field} must be an integer"):
            RollingConfig(**{field: value})

    @pytest.mark.parametrize(
        "fields, message",
        [
            ({"step": 0}, "step must be at least 1"),
            ({"window": 100, "s_min": 11, "s_max": 25}, r"window must be at least 10 \* s_min"),
            ({"stamp": "middle"}, r"stamp must be one of \('end', 'start', 'center'\)"),
        ],
    )
    def test_field_rules_name_the_field(self, fields, message):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InputError, match=f"^{message}$"):
                RollingConfig(**fields)

    def test_numpy_integers_accepted(self):
        config = RollingConfig(window=np.int64(800), step=np.int32(5), detrend_order=np.int64(0))
        assert config.s_max == 80


class TestRoll:
    def test_exact_window_count_boundary(self):
        series = make_return_series(gen_garch(500, 0.1, 0.1, 0.8, seed=1))
        results = roll(series, RollingConfig())
        assert len(results) == 1

    def test_window_count_502(self):
        series = make_return_series(gen_garch(502, 0.1, 0.1, 0.8, seed=2))
        results = roll(series, RollingConfig())
        assert len(results) == 3

    def test_too_short(self):
        series = make_return_series(gen_garch(499, 0.1, 0.1, 0.8, seed=3))
        with pytest.raises(InputError):
            roll(series, RollingConfig())

    def test_end_date_stamping(self):
        series = make_return_series(gen_garch(502, 0.1, 0.1, 0.8, seed=4))
        results = roll(series, RollingConfig())
        assert results.date == series.dates[499:502]

    def test_start_and_center_stamping(self):
        series = make_return_series(gen_garch(502, 0.1, 0.1, 0.8, seed=4))
        starts = roll(series, RollingConfig(stamp="start"))
        assert starts.date == series.dates[:3]
        centers = roll(series, RollingConfig(stamp="center"))
        # center of an even window floors to index (window - 1) // 2
        assert centers.date == series.dates[249:252]

    def test_results_ordered_by_date(self):
        series = spliced_series()
        results = roll(series, FAST)
        assert list(results.date) == sorted(results.date)

    def test_regime_contrast(self):
        series = spliced_series()
        results = roll(series, FAST)
        dates = np.array(results.date)
        first = results.hurst[dates <= series.dates[1499]]
        second = results.hurst[dates >= series.dates[1999]]
        assert np.mean(first) - np.mean(second) >= 0.2

    def test_step_consistency(self):
        series = make_return_series(gen_garch(560, 0.1, 0.1, 0.8, seed=5))
        fine = roll(series, RollingConfig(step=1))
        coarse = roll(series, RollingConfig(step=5))
        assert columns(coarse) == columns(fine, slice(None, None, 5))

    def test_deterministic(self):
        series = spliced_series(seed=3)
        assert columns(roll(series, FAST)) == columns(roll(series, FAST))

    def test_kernel_matches_reference(self):
        series = spliced_series(seed=4)
        assert_results_close(roll(series, FAST), reference_roll(series, FAST))

    def test_order_zero_uses_reference_path(self):
        series = make_return_series(gen_garch(560, 0.1, 0.1, 0.8, seed=5))
        config = RollingConfig(step=20, detrend_order=0, s_min=10)
        assert_results_close(roll(series, config), reference_roll(series, config))

    def test_flat_windows_rejected_on_both_paths(self):
        # windows inside the zero tail have an identically zero profile
        values = np.concatenate(
            [gen_garch(1000, omega=1e-6, alpha=0.08, beta=0.91, seed=3), np.zeros(600)]
        )
        series = make_return_series(values)
        config = RollingConfig(window=500, step=50)
        with pytest.raises(InputError, match="degenerate") as kernel:
            roll(series, config)
        with pytest.raises(InputError) as reference:
            reference_roll(series, config)
        assert str(kernel.value) == str(reference.value)

    def test_constant_windows_rejected_at_order_zero(self):
        # 300 returns of 0.55, each window of 200 filtered by h = 1: the
        # mean of 200 such values is not 0.55 in floating point, so without
        # its constant-window rule the shared source would give the windows
        # inside the run a rounding-sized F_2 where mfdfa finds them
        # degenerate
        values = gen_garch(1200, 1e-6, 0.08, 0.91, seed=3)
        values /= values.std()
        values[600:900] = 0.55
        assert np.full(200, 0.55).mean() != 0.55
        series = make_return_series(values)
        config = RollingConfig(window=200, step=10, s_min=5, s_max=40, detrend_order=0)

        def unit_variance(returns):
            return dataclasses.replace(garch_fit(returns), h=np.ones(len(returns)))

        with mock.patch("hurstscan.rolling.garch_fit", unit_variance), mock.patch(
            "helpers.garch_fit", unit_variance
        ):
            with pytest.raises(InputError, match="degenerate") as want:
                reference_roll(series, config)
            with pytest.raises(InputError) as got:
                roll(series, config)
        assert str(got.value) == str(want.value)

    def test_flat_stretch_same_rule_on_both_paths(self):
        # twelve zero returns: segments inside them have a straight-line profile
        values = gen_garch(1200, omega=1e-6, alpha=0.08, beta=0.91, seed=3)
        values[700:712] = 0.0
        series = make_return_series(values)
        config = RollingConfig(window=500, step=50)
        assert_results_close(roll(series, config), reference_roll(series, config))

    @given(
        seed=st.integers(0, 2**32 - 1),
        order=st.sampled_from([0, 1, 2]),
        garch_mode=st.sampled_from(["whole-sample", "per-window"]),
        s_min_extra=st.integers(0, 8),
        window_extra=st.integers(0, 120),
        s_max_frac=st.floats(0.0, 1.0),
        tail=st.integers(0, 80),
        step=st.integers(1, 17),
        stamp=st.sampled_from(["end", "start", "center"]),
        flat_at=st.floats(0.0, 1.0),
        flat_len=st.sampled_from([0, 0, 6, 40]),
    )
    @settings(max_examples=60, deadline=None)
    def test_kernel_matches_reference_property(
        self, seed, order, garch_mode, s_min_extra, window_extra, s_max_frac, tail, step,
        stamp, flat_at, flat_len,
    ):
        s_min = order + 2 + s_min_extra
        window = 10 * s_min + window_extra
        s_max = s_min + 2 + int(s_max_frac * (window // 4 - s_min - 2))
        config = RollingConfig(
            window=window, step=step, s_min=s_min, s_max=s_max,
            detrend_order=order, garch_mode=garch_mode, stamp=stamp,
        )
        rng = np.random.default_rng(seed)
        n = max(window, 100) + tail
        values = rng.standard_normal(n) * np.exp(rng.normal(-4, 1))
        # a stretch of zero returns: flat segments, or whole flat windows
        flat_start = int(flat_at * (n - flat_len))
        values[flat_start : flat_start + flat_len] = 0.0
        series = make_return_series(values)
        try:
            want = reference_roll(series, config)
        except InputError as exc:
            with pytest.raises(InputError) as got:
                roll(series, config)
            assert str(got.value) == str(exc)
        else:
            assert_results_close(roll(series, config), want)

    @given(
        seed=st.integers(0, 2**32 - 1),
        order=st.sampled_from([1, 2, 3]),
        s_min_extra=st.integers(0, 6),
        window_extra=st.integers(0, 80),
        s_max_frac=st.floats(0.0, 1.0),
        tail=st.integers(0, 60),
        step=st.integers(1, 7),
        flat_at=st.floats(0.0, 1.0),
        flat_len=st.sampled_from([0, 3, 8, 40]),
    )
    @settings(max_examples=60, deadline=None)
    def test_shared_sums_match_per_scale_sums(
        self, seed, order, s_min_extra, window_extra, s_max_frac, tail, step, flat_at, flat_len
    ):
        # the per-start recursion against a projection per scale: the same
        # error text, or every column within reference_roll's 1e-12; at
        # s_max = window // 4 the last starts' segments reach the padding
        s_min = order + 2 + s_min_extra
        window = max(10 * s_min, 100) + window_extra
        s_max = s_min + 2 + int(s_max_frac * (window // 4 - s_min - 2))
        config = RollingConfig(
            window=window, step=step, s_min=s_min, s_max=s_max, detrend_order=order
        )
        rng = np.random.default_rng(seed)
        n = window + tail
        values = rng.standard_normal(n) * np.exp(rng.normal(-4, 1))
        # equal neighbours give flat segments, which _zero_flat sets to 0
        flat_start = int(flat_at * (n - flat_len))
        if flat_len:
            values[flat_start : flat_start + flat_len] = values[flat_start]
        series = make_return_series(values)
        try:
            # the per-scale sums with no window served from its own values
            shared = mock.patch(
                "hurstscan.rolling._shared_f2",
                lambda *args: (per_scale_shared_f2(*args), np.arange(0)),
            )
            with shared:
                want = roll(series, config)
        except InputError as exc:
            with pytest.raises(InputError) as got:
                roll(series, config)
            assert str(got.value) == str(exc)
        else:
            assert_results_close(roll(series, config), want)

    @given(
        case=st.sampled_from(
            [("per-window", 0), ("per-window", 1), ("per-window", 2), ("whole-sample", 0),
             ("whole-sample", 1)]
        ),
        start=st.integers(0, INDEPENDENCE_WINDOWS - 1),
        step=st.integers(1, 40),
        count=st.integers(1, 20),
    )
    @settings(max_examples=40, deadline=None)
    def test_per_window_independence(self, case, start, step, count):
        # a window's columns must not depend on the windows computed with it
        garch_mode, order = case
        series, full = independence_full_run(garch_mode, order)
        config = RollingConfig(
            window=INDEPENDENCE_WINDOW, step=step, detrend_order=order, garch_mode=garch_mode
        )
        if garch_mode == "per-window":
            count = min(count, (INDEPENDENCE_WINDOWS - 1 - start) // step + 1)
            end = start + (count - 1) * step + INDEPENDENCE_WINDOW
            sub = make_return_series(series.values[start:end], start=series.dates[start])
            rows = slice(start, start + count * step, step)
        else:
            # one GARCH fit of the whole series: only the step picks a subset
            sub, rows = series, slice(None, None, step)
        assert columns(roll(sub, config)) == columns(full, rows)

    @pytest.mark.parametrize(
        "garch_mode, order",
        [("per-window", 0), ("per-window", 1), ("per-window", 2), ("whole-sample", 0)],
    )
    def test_blocks_do_not_change_columns(self, monkeypatch, garch_mode, order):
        # the per-row sources run _BLOCK windows at a time; these 57 windows
        # share one block by default and span 12 blocks of 5
        series, _ = independence_full_run(garch_mode, order)
        config = RollingConfig(
            window=INDEPENDENCE_WINDOW, step=3, detrend_order=order, garch_mode=garch_mode
        )
        default = roll(series, config)
        monkeypatch.setattr("hurstscan.rolling._BLOCK", 5)
        assert columns(roll(series, config)) == columns(default)

    @pytest.mark.parametrize(
        "garch_mode, order",
        [("per-window", 1), ("per-window", 0), ("whole-sample", 0)],
    )
    def test_first_error_in_a_later_block(self, monkeypatch, garch_mode, order):
        # 23 windows in blocks of 5: the zero tail's windows sit in blocks 2-4
        values = np.concatenate(
            [gen_garch(1000, omega=1e-6, alpha=0.08, beta=0.91, seed=3), np.zeros(600)]
        )
        series = make_return_series(values)
        config = RollingConfig(window=500, step=50, detrend_order=order, garch_mode=garch_mode)
        monkeypatch.setattr("hurstscan.rolling._BLOCK", 5)
        with pytest.raises(InputError) as kernel:
            roll(series, config)
        with pytest.raises(InputError) as reference:
            reference_roll(series, config)
        assert str(kernel.value) == str(reference.value)

    @given(
        garch_mode=st.sampled_from(["whole-sample", "per-window"]),
        windows=st.integers(1, 200),
        zeros_at=st.floats(0.0, 1.0),
        fit_rows=st.sampled_from([None, 7]),
    )
    @settings(max_examples=40, deadline=None)
    def test_first_bad_window_found_by_bisection(self, garch_mode, windows, zeros_at, fit_rows):
        # a stretch of zero returns one window long makes the windows inside
        # it flat.  Blocks of one window each search row by row; the default
        # blocks bisect, which must name the same window with the same text
        # as that search and as reference_roll, in at most about
        # 2 log2(windows) + 3 checks.  Windows of 60 are too short to fit,
        # so per-window mode keeps each window's raw returns
        config = RollingConfig(window=60, s_min=3, s_max=15, garch_mode=garch_mode)
        n = config.window + windows - 1
        values = gen_garch(n, 1e-6, 0.08, 0.91, seed=8)
        start = int(zeros_at * (n - config.window))
        values[start : start + config.window] = 0.0
        series = make_return_series(values)

        def first_error(fit_rows):
            checks = mock.patch.object(
                rolling, "_check_fluctuations", wraps=rolling._check_fluctuations
            )
            with mock.patch.object(rolling, "_FIT_ROWS", fit_rows), checks as spy:
                with pytest.raises(InputError) as error:
                    roll(series, config)
            return str(error.value), spy.call_count

        row_by_row, _ = first_error(1)
        got, checks = first_error(fit_rows or rolling._FIT_ROWS)
        with pytest.raises(InputError) as reference:
            reference_roll(series, config)
        assert got == row_by_row == str(reference.value)
        if fit_rows is None:
            assert checks <= 2 * math.log2(windows) + 3

    def test_fit_in_blocks_within_three_times_f2(self):
        # the windows' F_2 is the one array of full size: the fit and the
        # measures run _FIT_ROWS windows at a time
        config = RollingConfig()
        series = make_return_series(gen_fgn(30_000, 0.7, 0.01, seed=3))
        f2_bytes = (len(series) - config.window + 1) * len(config.scales()) * 8
        tracemalloc.start()
        try:
            roll(series, config)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 3 * f2_bytes, peak / f2_bytes

    def test_overflow_in_a_later_block(self, monkeypatch):
        # windows of 60 are too short to fit, so each keeps its raw values;
        # in blocks of 5 the windows that reach the 1e160 tail are in block 2,
        # where their R(s), in squared units, leaves the float range; the
        # error names the first of them, window 13
        values = gen_garch(200, 1e-6, 0.08, 0.91, seed=8)
        values[150:] *= 1e160
        config = RollingConfig(window=60, step=7, s_min=3, s_max=15, garch_mode="per-window")
        monkeypatch.setattr("hurstscan.rolling._BLOCK", 5)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            series = make_return_series(values)
            with pytest.raises(
                InputError, match=r"^window 13 \(2000-06-01\): .*R\(s\).*floating-point range"
            ) as kernel:
                roll(series, config)
            with pytest.raises(InputError) as reference:
                reference_roll(series, config)
            assert str(kernel.value) == str(reference.value)
            # a flat window in block 0 raises first, as it does one window at a time
            values[:60] = 0.0
            series = make_return_series(values)
            with pytest.raises(
                InputError, match=r"^window 0 \(2000-03-02\): .*degenerate"
            ) as kernel:
                roll(series, config)
            with pytest.raises(InputError) as reference:
                reference_roll(series, config)
        assert str(kernel.value) == str(reference.value)

    def test_garch_failure_flagged_not_fatal(self, monkeypatch):
        # the failure is injected where the batched fit checks its rows
        import hurstscan.garch as garch_mod

        series = make_return_series(gen_garch(600, 0.1, 0.1, 0.8, seed=7))
        real_check = garch_mod._scaled_squares
        bad_first = series.values[:500]

        def flaky_check(rows):
            h1, z2, errors = real_check(rows)
            for k, row in enumerate(rows):
                if np.array_equal(row, bad_first):
                    errors[k] = InputError("forced failure for this window")
            return h1, z2, errors

        monkeypatch.setattr(garch_mod, "_scaled_squares", flaky_check)
        config = RollingConfig(window=500, step=100, garch_mode="per-window")
        results = roll(series, config)
        assert results.garch_converged.tolist() == [False, True]
        assert np.isfinite(results.hurst[0])

    def test_windows_too_short_to_fit_keep_raw_returns(self):
        # every window is shorter than MIN_FIT_LENGTH: each fit raises, and
        # each window is analyzed on its raw returns
        series = make_return_series(gen_garch(200, 1e-6, 0.08, 0.91, seed=8))
        config = RollingConfig(window=60, step=7, s_min=3, s_max=15, garch_mode="per-window")
        results = roll(series, config)
        assert len(results) == 21
        assert not results.garch_converged.any()
        assert_results_close(results, reference_roll(series, config))

    def test_window_with_subnormal_variance_keeps_raw_returns(self):
        # returns from 700 on at 1e-160 times unit size: the windows inside
        # that tail have a subnormal sample variance, whose fit raises, so
        # each keeps its raw returns and is flagged False.  In raw units
        # their R(s) is subnormal too, so the roll fails at the first of
        # them, with reference_roll's text
        values = gen_garch(1300, 1e-6, 0.08, 0.91, seed=2)
        values /= values.std()
        values[700:] *= 1e-160
        config = RollingConfig(window=500, step=100, garch_mode="per-window")
        starts = np.arange(0, 801, 100)
        fq = np.empty((starts.size, len(config.scales())))
        converged = np.ones(starts.size, dtype=bool)
        rolling._own_f2(fq, values, starts, np.arange(starts.size), config, converged)
        tail = starts >= 700
        assert not converged[tail].any() and converged[0]
        rows = sliding_window_view(values, config.window)[starts[tail]]
        (raw,) = _series_fq(rows, config.scales(), (2.0,), config.detrend_order)
        assert fq[tail].tobytes() == raw.tobytes()
        series = make_return_series(values)
        with pytest.raises(InputError, match=r"^window 7 .*R\(s\)") as got:
            roll(series, config)
        with pytest.raises(InputError) as want:
            reference_roll(series, config)
        assert str(got.value) == str(want.value)

    @given(
        case=st.sampled_from([("per-window", 1), ("whole-sample", 0), ("whole-sample", 1)]),
        k=st.integers(-1100, 1100),
    )
    @example(case=("per-window", 1), k=266)
    @settings(max_examples=30, deadline=None)
    def test_huge_windows_measured_without_warning(self, case, k):
        # the same windows at 2**k times the scale, k clipped to the range
        # where the liquidity measures, F_2**2 and the returns' sum of
        # squares (which the GARCH fit takes) stay normal floats; at the
        # example k = 266 (about 1e80) R(s) is about 1e160, where unscaled
        # squared deviations would overflow f_sigma.  Per-window windows
        # are too short to fit, so they stay unfiltered; whole-sample
        # filtering is the identity here, so the shared source sees
        # x * 2**k itself
        garch_mode, order = case
        values = gen_garch(200, 1e-6, 0.08, 0.91, seed=8)
        config = RollingConfig(
            window=60, step=7, s_min=3, s_max=15, detrend_order=order, garch_mode=garch_mode
        )
        fits = mock.patch("hurstscan.rolling._fit_loglog", wraps=rolling._fit_loglog)
        identity = mock.patch("hurstscan.rolling.garch_filter", lambda series, fit: series.values)
        with identity, fits as spy:
            want = roll(make_return_series(values), config)
            want_fq = spy.call_args.args[1]
            # everything in squared units, which 2**k scales by 4**k
            variance = np.var(values, ddof=1)
            squared = [want.f_sigma, want.f_range, want_fq**2, want.f0**2]
            squared.append(np.array([variance, variance * values.size]))
            top = max(np.frexp(col.max())[1] for col in squared)
            bottom = min(np.frexp(col.min())[1] for col in squared)
            k = min(max(k, (-1020 - bottom) // 2), (1024 - top) // 2)
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                got = roll(make_return_series(np.ldexp(values, k)), config)
            got_fq = spy.call_args.args[1]
        assert got_fq.tobytes() == np.ldexp(want_fq, k).tobytes()
        for col, shift in [("f0", k), ("f_sigma", 2 * k), ("f_range", 2 * k), ("f_ratio", 0)]:
            want_col = np.ldexp(getattr(want, col), shift)
            np.testing.assert_allclose(getattr(got, col), want_col, rtol=1e-12, atol=0)
        for col in ("hurst", "stderr_hurst", "r_squared"):
            np.testing.assert_allclose(getattr(got, col), getattr(want, col), rtol=0, atol=1e-12)

    def test_overflowing_squares_rejected_without_warning(self):
        # at 1e160 times the scale the windows' profile squares would
        # overflow; each window is scaled to unit size first, so the first
        # value out of range is R(s), which is in squared units
        base = gen_garch(200, 1e-6, 0.08, 0.91, seed=8)
        values = base * 1e160
        config = RollingConfig(window=60, step=7, s_min=3, s_max=15, garch_mode="per-window")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InputError, match=r"R\(s\).*floating-point range"):
                roll(make_return_series(values), config)
            # whole-sample GARCH filtering standardizes the returns first,
            # so the shared-segment source is checked on its own: it scales
            # each series to unit size, so F_2 of the scaled series is 1e160
            # times F_2 of the unscaled one, to rounding
            starts = np.arange(0, 141, 7)
            geometry = (config.window, config.scales(), config.detrend_order)
            got, _ = _shared_f2(values, starts, *geometry)
            want, _ = _shared_f2(base, starts, *geometry)
            np.testing.assert_allclose(got, want * 1e160, rtol=1e-12, atol=0)

    def test_window_far_below_the_series_scale(self):
        # a series whose second half is 2**-200 times its first: each
        # window of the shared source keeps its own digits, as mfdfa's own
        # window does, where one taken at the rounding of the whole
        # series' mean detrends to exact zeros and fails the roll
        values = gen_garch(1200, 1e-6, 0.08, 0.91, seed=3)
        values[600:] *= 2.0**-200
        series = make_return_series(values)
        config = RollingConfig(window=200, step=10, s_min=5, s_max=40)
        assert_results_close(roll(series, config), reference_roll(series, config))

    @pytest.mark.parametrize(
        "head, tail, problem",
        [(0, -560, "R(s)"), (0, -540, "R(s)"), (250, -300, None), (250, -270, None)],
    )
    def test_window_below_the_normal_range(self, head, tail, problem):
        # the two halves at 2**head and 2**tail times unit size, each
        # window filtered by h = 1 in both paths.  Relative to the series'
        # largest value the tail's per-start f2 lie near 2**(2 (tail -
        # head)), where their squares lose digits (-270) or underflow to
        # 0 (-300, -540, -560): those windows take F_2 from their own
        # values, so the roll fails with reference_roll's text, or
        # analyzes all 101 windows as it does
        values = gen_garch(1200, 1e-6, 0.08, 0.91, seed=3)
        values /= values.std()
        values[:600] *= 2.0**head
        values[600:] *= 2.0**tail
        series = make_return_series(values)
        config = RollingConfig(window=200, step=10, s_min=5, s_max=40)

        def unit_variance(returns):
            return dataclasses.replace(garch_fit(returns), h=np.ones(len(returns)))

        with mock.patch("hurstscan.rolling.garch_fit", unit_variance), mock.patch(
            "helpers.garch_fit", unit_variance
        ):
            if problem:
                with pytest.raises(InputError) as want:
                    reference_roll(series, config)
                assert problem in str(want.value)
                with pytest.raises(InputError) as got:
                    roll(series, config)
                assert str(got.value) == str(want.value)
            else:
                got = roll(series, config)
                assert len(got) == 101
                assert_results_close(got, reference_roll(series, config))

    def test_flat_tail_recomputes_one_block(self):
        # the last 500 returns are 0, so the 301 windows within them are
        # degenerate; the shared source leaves them to the own-values loop,
        # which computes the first _BLOCK of them, finds them still 0 and
        # stops there, where the roll fails with reference_roll's text
        values = gen_garch(1200, 1e-6, 0.08, 0.91, seed=3)
        values[700:] = 0.0
        series = make_return_series(values)
        config = RollingConfig(window=200, step=1, s_min=5, s_max=40)
        with pytest.raises(InputError, match="degenerate") as want:
            reference_roll(series, config)
        spy = mock.patch("hurstscan.rolling._series_fq", wraps=_series_fq)
        with spy as calls, pytest.raises(InputError) as got:
            roll(series, config)
        assert str(got.value) == str(want.value)
        assert calls.call_count == 1

    @pytest.mark.parametrize(
        "garch_mode, order, step",
        [("whole-sample", 1, 1), ("whole-sample", 2, 1), ("whole-sample", 0, 6),
         ("per-window", 1, 6), ("per-window", 0, 6)],
    )
    def test_own_values_loop_stops_after_the_failing_block(self, garch_mode, order, step):
        # returns 600..699 at 2**-550 times the rest, then 0: the windows
        # that take F_2 from their own values are the shared source's ones
        # below 2**-485 (windows 599 on at step 1, 100 on at step 6) or,
        # in per-window mode, every window.  The first degenerate window
        # (699 at step 1, 117 at step 6) lies in the second block of
        # _BLOCK such windows, or in the first of the shared source's at
        # step 6: the loop computes that block and stops, of 7, 3 or 2,
        # and the roll fails with reference_roll's text
        blocks = 1 if (garch_mode, step) == ("whole-sample", 6) else 2
        values = gen_garch(1200, 1e-6, 0.08, 0.91, seed=3)
        values /= values.std()
        values[:600] *= 2.0**250
        values[600:] *= 2.0**-300
        values[700:] = 0.0
        series = make_return_series(values)
        config = RollingConfig(
            window=200, step=step, s_min=5, s_max=40, detrend_order=order, garch_mode=garch_mode
        )

        def unit_variance(returns):
            return dataclasses.replace(garch_fit(returns), h=np.ones(len(returns)))

        fit = unit_variance if garch_mode == "whole-sample" else garch_fit
        with mock.patch("hurstscan.rolling.garch_fit", fit), mock.patch("helpers.garch_fit", fit):
            with pytest.raises(InputError, match="degenerate") as want:
                reference_roll(series, config)
            spy = mock.patch("hurstscan.rolling._series_fq", wraps=_series_fq)
            with spy as calls, pytest.raises(InputError) as got:
                roll(series, config)
        assert str(got.value) == str(want.value)
        assert calls.call_count == blocks

    @pytest.mark.parametrize(
        "garch_mode, order", [("per-window", 1), ("whole-sample", 0), ("whole-sample", 1)]
    )
    def test_one_fit_pass(self, garch_mode, order):
        # every mode fills one F_2 array and fits it in one pass: a roll of
        # the paper's size is one block of _FIT_ROWS
        config = RollingConfig(detrend_order=order, garch_mode=garch_mode)
        series = make_return_series(gen_garch(3000, 1e-6, 0.08, 0.91, seed=1))
        fits = mock.patch.object(rolling, "_fit_loglog", wraps=rolling._fit_loglog)
        with fits as spy:
            roll(series, config)
        assert spy.call_count == 1


class TestSharedSource:
    @given(
        seed=st.integers(0, 2**32 - 1),
        order=st.sampled_from([1, 2, 3]),
        s_min_extra=st.integers(0, 6),
        scale_count=st.integers(3, 30),
        window_extra=st.integers(0, 60),
        first=st.integers(0, 120),
        step=st.integers(1, 150),
        past_s_max=st.booleans(),
        count=st.integers(1, 6),
        tail=st.integers(0, 40),
        flat_at=st.floats(0.0, 1.0),
        flat_len=st.sampled_from([0, 3, 12, 60]),
        tiny_half=st.booleans(),
    )
    # windows that start on multiples of s_min = 10, one lone window, and
    # a second half at 2**-300, whose windows' f2, about 2**-600 times the
    # first half's, are summed at unit scale (at 2**-500 they would reach
    # the subnormal range, where the detrending itself loses its digits)
    @example(
        seed=1, order=1, s_min_extra=7, scale_count=3, window_extra=0, first=20, step=30,
        past_s_max=False, count=4, tail=0, flat_at=0.0, flat_len=0, tiny_half=False,
    )
    @example(
        seed=2, order=2, s_min_extra=0, scale_count=10, window_extra=7, first=0, step=1,
        past_s_max=False, count=1, tail=5, flat_at=0.5, flat_len=12, tiny_half=False,
    )
    @example(
        seed=3, order=1, s_min_extra=2, scale_count=20, window_extra=9, first=5, step=40,
        past_s_max=True, count=6, tail=40, flat_at=0.0, flat_len=0, tiny_half=True,
    )
    @settings(max_examples=60, deadline=None)
    def test_matches_projection_and_gather(
        self, seed, order, s_min_extra, scale_count, window_extra, first, step, past_s_max,
        count, tail, flat_at, flat_len, tiny_half,
    ):
        # the per-start recursion and the strided sums against a projection
        # per scale, a fancy-index gather and the power means.  Tolerance,
        # set from the arithmetic before any run: each segment detrends to
        # a few ulps of its profile, which is at most s * m (m the window's
        # largest unit-scaled step), so each f2 moves by at most
        # 8 eps s m sqrt(f2) and F_2 = sqrt(sum / 2ns) by 4 eps s m; each
        # sum of 2ns terms and the root round by (2ns + 1) eps relative.
        # Doubled and scaled back by 2**e:
        # |got - want| <= 2**e (8 eps s m) + 4 (ns + 1) eps want
        s_min = order + 2 + s_min_extra
        scales = range(s_min, s_min + scale_count)
        window = 4 * scales[-1] + window_extra
        step += scales[-1] if past_s_max else 0
        starts = first + step * np.arange(count)
        n = int(starts[-1]) + window + tail
        rng = np.random.default_rng(seed)
        if tiny_half:
            values = rng.integers(-1000, 1001, n).astype(float)
        else:
            values = rng.standard_normal(n) * np.exp(rng.normal(-4, 1))
        # equal neighbours give flat segments, which _zero_flat sets to 0
        flat_start = int(flat_at * (n - flat_len))
        if flat_len:
            values[flat_start : flat_start + flat_len] = values[flat_start]
        if tiny_half:
            # whole numbers whose second half is scaled by 2**-300
            values[n // 2 :] = np.ldexp(values[n // 2 :], -300)
        got, _ = _shared_f2(values, starts, window, scales, order)
        want = per_scale_shared_f2(values, starts, window, scales, order)
        assert got.shape == want.shape == (count, len(scales))
        np.testing.assert_array_equal(got == 0.0, want == 0.0)
        steps, e = _unit_scaled(values)
        m = np.abs(sliding_window_view(steps, window)[starts]).max(axis=1, keepdims=True)
        eps = np.finfo(float).eps
        ns = window // np.asarray(scales)
        bound = np.ldexp(8 * eps * np.asarray(scales) * m, e) + 4 * (ns + 1) * eps * want
        assert np.all(np.abs(got - want) <= bound)
        # each window's sums run in one order whatever the step and the
        # window count: all the series' windows together give the same bits
        every, _ = _shared_f2(values, np.arange(n - window + 1), window, scales, order)
        assert got.tobytes() == np.ascontiguousarray(every[starts]).tobytes()

    @pytest.mark.parametrize("step", [1, 7, 60])
    def test_sums_keep_the_digits_of_tiny_windows(self, step):
        # the second half is 2**-530 times the first, so the per-start f2
        # of its windows lie in the subnormal range, where their squares
        # keep few digits and a mean taken from them fewer still; the
        # shared source leaves those windows to the roll's own-values loop,
        # after which every window agrees with _series_fq on that window alone
        rng = np.random.default_rng(5)
        values = rng.integers(-1000, 1001, 1200).astype(float)
        values[600:] = np.ldexp(values[600:], -530)
        config = RollingConfig(window=200, step=step, s_min=5, s_max=50)
        window, scales, order = config.window, config.scales(), config.detrend_order
        starts = np.arange(0, 1001, step)
        got, own = _shared_f2(values, starts, window, scales, order)
        rolling._own_f2(got, values, starts, own, config, None)
        rows = sliding_window_view(values, window)[starts]
        (want,) = _series_fq(rows, scales, (2.0,), order)
        # at unit scale the tail's mean f2 is below the normal range, 2**-1022
        _, e = _unit_scaled(values)
        assert np.ldexp(want.min(), -int(e[0])) < 2.0**-511
        assert own.size > 0
        np.testing.assert_allclose(got, want, rtol=1e-13, atol=0)

    def test_windows_served_from_their_own_values(self):
        # none on the paper series, at order 0 as at order 1; with a tail
        # at 2**-560 times unit size, exactly the windows whose own F_2
        # lies below 2**-485 at the series' unit size
        paper = gen_garch(3000, 1e-6, 0.08, 0.91, seed=1)
        starts = np.arange(2501)
        for order in (0, 1):
            _, own = _shared_f2(paper, starts, 500, range(10, 51), order)
            assert own.size == 0, order
        values = gen_garch(1200, 1e-6, 0.08, 0.91, seed=3)
        values /= values.std()
        values[600:] *= 2.0**-560
        starts, scales = np.arange(0, 1001, 10), range(5, 41)
        for order in (0, 1):
            _, own = _shared_f2(values, starts, 200, scales, order)
            (fq,) = _series_fq(sliding_window_view(values, 200)[starts], scales, (2.0,), order)
            _, e = _unit_scaled(values)
            below = np.ldexp(fq.min(axis=1), -int(e[0])) < 2.0**-485
            assert own.size > 0
            assert own.tolist() == np.flatnonzero(below).tolist(), order

    @given(
        seed=st.integers(0, 2**32 - 1),
        order=st.sampled_from([0, 1, 2, 3]),
        s_min_extra=st.integers(0, 6),
        scale_count=st.integers(3, 20),
        window_extra=st.integers(0, 40),
        step=st.integers(1, 30),
        count=st.integers(1, 5),
        head=st.integers(0, 60),
        tail=st.integers(1, 60),
        k=st.integers(-400, 400),
    )
    @example(
        seed=4, order=3, s_min_extra=0, scale_count=20, window_extra=0, step=1, count=5,
        head=30, tail=30, k=250,
    )
    @example(
        seed=6, order=3, s_min_extra=6, scale_count=20, window_extra=40, step=29, count=5,
        head=60, tail=60, k=400,
    )
    @example(
        seed=5, order=1, s_min_extra=0, scale_count=3, window_extra=3, step=7, count=2,
        head=0, tail=1, k=-250,
    )
    @example(
        seed=7, order=0, s_min_extra=0, scale_count=20, window_extra=13, step=3, count=5,
        head=40, tail=40, k=-250,
    )
    @settings(max_examples=60, deadline=None)
    def test_window_blind_to_the_rest_of_the_series(
        self, seed, order, s_min_extra, scale_count, window_extra, step, count, head, tail, k
    ):
        # unit-size windows among values 2**k times as large or as small:
        # every segment, and at order 0 the window's mean, sees only its
        # own values, scaled to the series' unit size by a power of two,
        # so each window's F_2 keeps its bits
        # while the squares stay normal floats, as they do for |k| <= 400
        s_min = order + 2 + s_min_extra
        scales = range(s_min, s_min + scale_count)
        window = 4 * scales[-1] + window_extra
        starts = head + step * np.arange(count)
        end = int(starts[-1]) + window
        values = np.random.default_rng(seed).standard_normal(end + tail)
        rest = values.copy()
        rest[:head] = np.ldexp(rest[:head], k)
        rest[end:] = np.ldexp(rest[end:], k)
        want, _ = _shared_f2(values, starts, window, scales, order)
        got, _ = _shared_f2(rest, starts, window, scales, order)
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("order", [0, 1, 2, 3])
    def test_series_far_from_zero_mean(self, order):
        # returns 10**4 or 10**6 times their spread above zero: each
        # segment's profile is its running sum less its first step, so it
        # rounds at the segment's spread, as mfdfa's demeaned window does,
        # not at the mean's size (3e-12 relative off without that level).
        # At order 0 the slope term b' + (x_a - m) cancels only in x_a - m,
        # whose m is the window's mean as mfdfa rounds it
        starts = np.arange(0, 401, 8)
        scales = range(10, 51)
        for level in (1e4, 1e6):
            values = level + gen_fgn(900, 0.6, seed=2)
            got, _ = _shared_f2(values, starts, 500, scales, order)
            for row, a in zip(got, starts):
                fp, _ = mfdfa(values[a : a + 500], scales, (2.0,), order)[2.0]
                np.testing.assert_allclose(row, fp.fq, rtol=1e-12, atol=0, err_msg=str(level))

    @pytest.mark.parametrize("k", [600, -600])
    def test_row_far_from_unit_scale(self, k):
        # the series is scaled to unit size by an exact power of two, so F_2
        # of x * 2**k is F_2 of x times 2**k, bit for bit
        values = gen_garch(400, 1e-6, 0.08, 0.91, seed=8)
        values[100:130] = values[100]
        starts = np.arange(0, 201, 3)
        geometry = (200, range(4, 51), 2)
        want, _ = _shared_f2(values, starts, *geometry)
        got, _ = _shared_f2(np.ldexp(values, k), starts, *geometry)
        assert got.tobytes() == np.ldexp(want, k).tobytes()


class TestDetectRegimes:
    def test_single_above_run(self):
        runs = detect_regimes(results_with_hurst([0.6, 0.6, 0.6]), 0.5)
        assert len(runs) == 1
        assert runs[0].label == "above"
        assert runs[0].n_windows == 3

    def test_three_runs(self):
        runs = detect_regimes(results_with_hurst([0.6, 0.4, 0.4, 0.6]), 0.5)
        assert [r.label for r in runs] == ["above", "below", "above"]
        assert [r.n_windows for r in runs] == [1, 2, 1]

    def test_switch_located_in_spliced_run(self):
        series = spliced_series(seed=5)
        results = roll(series, FAST)
        runs = detect_regimes(results, 0.5)
        below = max((r for r in runs if r.label == "below"), key=lambda r: r.n_windows)
        # the below-threshold stretch should start within one window
        # length of the true switch point
        switch = series.dates[1500]
        assert abs((below.start - switch).days) <= 500

    def test_empty_rejected(self):
        with pytest.raises(InputError):
            detect_regimes(results_with_hurst([]), 0.5)


class TestSerialization:
    def test_csv_header_and_round_trip(self, tmp_path):
        series = make_return_series(gen_garch(520, 0.1, 0.1, 0.8, seed=9))
        results = roll(series, RollingConfig(step=10))
        path = tmp_path / "roll.csv"
        write_rolling_csv(results, path)
        header = path.read_text().splitlines()[0]
        assert header == (
            "date,hurst,stderr_hurst,r_squared,f0,f_sigma,f_range,f_ratio,garch_converged"
        )
        again = read_rolling_csv(path)
        assert again.date == results.date
        for col in ROLLING_CSV_COLUMNS[1:]:
            # bit for bit: repr round-trips every float
            assert getattr(again, col).tobytes() == getattr(results, col).tobytes(), col

    def test_read_checks_the_rows_once(self, tmp_path):
        results = roll(make_return_series(gen_garch(520, 0.1, 0.1, 0.8, seed=9)), FAST)
        path = tmp_path / "roll.csv"
        write_rolling_csv(results, path)
        with mock.patch.object(rolling, "_first_bad_row", wraps=rolling._first_bad_row) as rule:
            read_rolling_csv(path)
            assert rule.call_count == 1
            # a bad row is still named by its line
            lines = path.read_text().splitlines()
            path.write_text("\n".join([*lines, lines[-1]]) + "\n")
            with pytest.raises(InputError, match=r"roll\.csv:%d: date " % (len(results) + 2)):
                read_rolling_csv(path)

    def test_csv_identical_across_runs(self, tmp_path):
        series = spliced_series(seed=6)
        paths = []
        for name in ("a.csv", "b.csv"):
            path = tmp_path / name
            write_rolling_csv(roll(series, FAST), path)
            paths.append(path)
        assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_jsonl_lines(self, tmp_path):
        import json

        series = make_return_series(gen_garch(520, 0.1, 0.1, 0.8, seed=10))
        results = roll(series, RollingConfig(step=10))
        path = tmp_path / "roll.jsonl"
        write_rolling_jsonl(results, path)
        lines = path.read_text().splitlines()
        assert len(lines) == len(results)
        row = json.loads(lines[0])
        assert list(row) == list(ROLLING_CSV_COLUMNS)
        assert row["date"] == results.date[0].isoformat()
        assert row["hurst"] == results.hurst[0]

    def test_read_rejects_missing_columns(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("date,hurst\n2000-01-03,0.5\n")
        with pytest.raises(InputError, match=r"bad\.csv: missing"):
            read_rolling_csv(path)

    @pytest.mark.parametrize("cell", ["nan", "inf"])
    def test_read_rejects_non_finite_with_line(self, tmp_path, cell):
        path = tmp_path / "run.rolling.csv"
        path.write_text(
            "date,hurst,stderr_hurst,r_squared,f0,f_sigma,f_range,f_ratio,garch_converged\n"
            "2000-01-03,0.5,0.01,0.99,0.1,0.002,0.008,1.3,true\n"
            f"2000-01-04,{cell},0.01,0.99,0.1,0.002,0.008,1.3,true\n"
        )
        with pytest.raises(InputError, match=r"run\.rolling\.csv:3: non-finite hurst"):
            read_rolling_csv(path)

    def write_rows(self, tmp_path, *rows):
        path = tmp_path / "run.rolling.csv"
        path.write_text("\n".join([",".join(ROLLING_CSV_COLUMNS), *rows]) + "\n")
        return path

    @pytest.mark.parametrize("flag", ["yes", "True", ""])
    def test_read_rejects_unparsable_flag_with_line(self, tmp_path, flag):
        path = self.write_rows(
            tmp_path,
            "2000-01-03,0.5,0.01,0.99,0.1,0.002,0.008,1.3,false",
            f"2000-01-04,0.5,0.01,0.99,0.1,0.002,0.008,1.3,{flag}",
        )
        message = rf"run\.rolling\.csv:3: unparsable garch_converged '{flag}'"
        with pytest.raises(InputError, match=message):
            read_rolling_csv(path)

    @pytest.mark.parametrize("date", ["2000-01-04", "2000-01-03"])
    def test_read_rejects_date_not_after_previous_with_line(self, tmp_path, date):
        path = self.write_rows(
            tmp_path,
            "2000-01-02,0.5,0.01,0.99,0.1,0.002,0.008,1.3,true",
            "2000-01-04,0.5,0.01,0.99,0.1,0.002,0.008,1.3,true",
            f"{date},0.5,0.01,0.99,0.1,0.002,0.008,1.3,true",
        )
        with pytest.raises(InputError, match=rf"run\.rolling\.csv:4: date {date} is not later"):
            read_rolling_csv(path)

    @pytest.mark.parametrize("f0, f_ratio", [(0.0, 1.3), (0.1, 0.5)])
    def test_read_rejects_inconsistent_indicators_with_line(self, tmp_path, f0, f_ratio):
        path = self.write_rows(
            tmp_path,
            "2000-01-03,0.5,0.01,0.99,0.1,0.002,0.008,1.3,true",
            f"2000-01-04,0.5,0.01,0.99,{f0},0.002,0.008,{f_ratio},true",
        )
        with pytest.raises(
            InputError, match=r"run\.rolling\.csv:3: bad row \(inconsistent indicator values\)"
        ):
            read_rolling_csv(path)

    def test_result_checks_its_columns(self):
        good = results_with_hurst([0.6, 0.4])
        cols = {col: getattr(good, col) for col in ROLLING_CSV_COLUMNS}
        with pytest.raises(InputError, match="inconsistent indicator values"):
            RollingResult(**{**cols, "f_ratio": [1.0, 0.5]})
        with pytest.raises(InputError, match="hurst must hold one value per date"):
            RollingResult(**{**cols, "hurst": [0.6]})

    def test_result_copies_the_callers_arrays(self):
        good = results_with_hurst([0.6, 0.4])
        cols = {col: getattr(good, col) for col in ROLLING_CSV_COLUMNS}
        hurst = np.array([0.6, 0.4])
        result = RollingResult(**{**cols, "hurst": hurst})
        hurst[0] = 0.1
        assert result.hurst.tolist() == [0.6, 0.4]
        with pytest.raises(ValueError, match="read-only"):
            result.hurst[0] = 0.1

    def test_read_strips_padded_date(self, tmp_path):
        # a padded date cell loads, as it does in a price or return file
        path = self.write_rows(tmp_path, " 2000-01-03\t,0.5,0.01,0.99,0.1,0.002,0.008,1.3,true")
        assert read_rolling_csv(path).date == (dt.date(2000, 1, 3),)

    def test_result_keeps_the_reader_rules(self):
        good = results_with_hurst([0.6, 0.4])
        cols = {col: getattr(good, col) for col in ROLLING_CSV_COLUMNS}
        with pytest.raises(InputError, match=r"^window 1: non-finite hurst$"):
            RollingResult(**{**cols, "hurst": [0.6, np.nan]})
        with pytest.raises(InputError, match=r"^window 0: non-finite f_sigma$"):
            RollingResult(**{**cols, "f_sigma": [np.inf, 0.0]})
        with pytest.raises(
            InputError, match=r"^window 1: date 2000-01-03 is not later than 2000-01-03$"
        ):
            RollingResult(**{**cols, "date": [good.date[0]] * 2})
        with pytest.raises(InputError, match="^no window results$"):
            RollingResult(**{col: [] for col in ROLLING_CSV_COLUMNS})

    def test_read_rejects_short_row_with_line(self, tmp_path):
        path = tmp_path / "run.rolling.csv"
        path.write_text(
            "date,hurst,stderr_hurst,r_squared,f0,f_sigma,f_range,f_ratio,garch_converged\n"
            "2000-01-03,0.5,0.01\n"
        )
        with pytest.raises(InputError, match=r"run\.rolling\.csv:2"):
            read_rolling_csv(path)


FLOATS = ROLLING_CSV_COLUMNS[1:-1]
FINITE = st.floats(allow_nan=False, allow_infinity=False)
FLOAT_CELLS = {
    "hurst": FINITE,
    "stderr_hurst": FINITE,
    "r_squared": FINITE,
    "f0": st.floats(min_value=0.0, exclude_min=True, allow_infinity=False),
    "f_sigma": st.floats(min_value=0.0, allow_infinity=False),
    "f_range": st.floats(min_value=0.0, allow_infinity=False),
    "f_ratio": st.floats(min_value=1.0 - 1e-12, allow_infinity=False),
}


@st.composite
def rolling_columns(draw, spoil=True):
    """Columns of a rolling result; with ``spoil``, some draws break one cell.

    A spoiled cell is a date drawn anywhere, or a float that may be
    non-finite or break the indicator rule.
    """
    n = draw(st.integers(1, 12))
    gaps = draw(st.lists(st.integers(1, 9), min_size=n, max_size=n))
    cols = {"date": [dt.date(2001, 1, 1) + dt.timedelta(days=sum(gaps[: i + 1])) for i in range(n)]}
    for col, cells in FLOAT_CELLS.items():
        cols[col] = draw(st.lists(cells, min_size=n, max_size=n))
    cols["garch_converged"] = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    if spoil and draw(st.booleans()):
        col = draw(st.sampled_from(["date", *FLOATS]))
        k = draw(st.integers(0, n - 1))
        if col == "date":
            bad = st.dates(dt.date(2001, 1, 1), dt.date(2001, 4, 1))
        else:
            bad = st.sampled_from([math.nan, math.inf, -math.inf, -1.0, 0.0, 0.5])
        cols[col][k] = draw(bad)
    return cols


def csv_rows(cols):
    """Each window's values as Python objects, keyed by column in column order."""
    columns = [
        [d.isoformat() for d in cols["date"]],
        *([float(v) for v in cols[col]] for col in FLOATS),
        [bool(v) for v in cols["garch_converged"]],
    ]
    return [dict(zip(ROLLING_CSV_COLUMNS, row)) for row in zip(*columns)]


def csv_text(cols):
    """The rolling CSV of these columns, written out by hand: ISO dates, float repr, true/false."""
    lines = [",".join(ROLLING_CSV_COLUMNS)]
    for row in csv_rows(cols):
        date, *numbers, flag = row.values()
        lines.append(",".join([date, *map(repr, numbers), "true" if flag else "false"]))
    return "\n".join(lines) + "\n"


class TestRoundTripProperty:
    @given(cols=rolling_columns())
    @settings(max_examples=120)
    def test_result_reads_back_or_reader_rejects_its_row(self, cols, tmp_path_factory):
        directory = tmp_path_factory.mktemp("rt")
        try:
            results = RollingResult(**cols)
        except InputError as exc:
            # the reader keeps the same rules: these cells fail at that window's line
            k = int(re.fullmatch(r"window (\d+): .*", str(exc)).group(1))
            path = directory / "bad.rolling.csv"
            path.write_text(csv_text(cols))
            with pytest.raises(InputError, match=rf"bad\.rolling\.csv:{k + 2}: "):
                read_rolling_csv(path)
            return
        path = directory / "run.rolling.csv"
        write_rolling_csv(results, path)
        assert path.read_text() == csv_text(cols)
        again = read_rolling_csv(path)
        assert again.date == results.date
        for col in ROLLING_CSV_COLUMNS[1:]:
            assert getattr(again, col).tobytes() == getattr(results, col).tobytes(), col
        jsonl = directory / "run.rolling.jsonl"
        write_rolling_jsonl(results, jsonl)
        lines = jsonl.read_text().splitlines()
        assert len(lines) == len(results)
        for line, row in zip(lines, csv_rows(cols)):
            # byte-identical to json.dumps of the row, and loads to the CSV row's values
            assert line == json.dumps(row)
            assert json.loads(line) == row


PADDING = st.sampled_from(["", "", " ", "  ", "\t"])
FLAG_PADDING = st.sampled_from(["", "", "", "", "", " "])


def edited_rolling_csv(data, written: str) -> tuple[str, int | None]:
    """A written rolling CSV edited as real files are, and the line the reader must name.

    Edits: CRLF or LF, a BOM, blank, whitespace-only and trailing lines,
    padded cells and two rows swapped.  The reader must name the first
    line that is whitespace-only, holds a padded flag, or dates its row
    no later than the row before; None if no line does.
    """
    header, *rows = written.splitlines()
    if len(rows) > 1 and data.draw(st.booleans()):
        pair = st.lists(st.integers(0, len(rows) - 1), min_size=2, max_size=2, unique=True)
        i, j = sorted(data.draw(pair))
        rows[i], rows[j] = rows[j], rows[i]
    lines = [header]
    for row in rows:
        *cells, flag = row.split(",")
        # a padded flag fails: pad one in six, so rows swapped before it are met first
        padded = [f"{data.draw(PADDING)}{cell}{data.draw(PADDING)}" for cell in cells]
        lines.append(",".join([*padded, flag + data.draw(FLAG_PADDING)]))
    for _ in range(data.draw(st.integers(0, 4))):
        at = data.draw(st.integers(1, len(lines)))
        lines.insert(at, data.draw(st.sampled_from(["", "", "", " "])))
    newline = data.draw(st.sampled_from(["\n", "\r\n"]))
    bom = data.draw(st.sampled_from(["", "\ufeff"]))
    text = bom + newline.join(lines) + data.draw(st.sampled_from(["", newline, newline * 2]))

    bad, previous = None, None
    for number, line in enumerate(lines[1:], start=2):
        if line == "":
            continue
        cells = line.split(",")
        date = dt.date.fromisoformat(cells[0].strip()) if len(cells) > 1 else None
        if date is None or cells[-1] not in ("true", "false") or (
            previous is not None and date <= previous
        ):
            bad = number
            break
        previous = date
    return text, bad


class TestRollingReaderFuzz:
    @given(cols=rolling_columns(spoil=False), data=st.data())
    @settings(max_examples=80)
    def test_loads_written_result_or_names_line(self, cols, data, tmp_path_factory):
        """A written rolling CSV edited as real files are: it loads equal, or fails naming a line."""
        results = RollingResult(**cols)
        directory = tmp_path_factory.mktemp("fuzz")
        written = directory / "written.csv"
        write_rolling_csv(results, written)
        text, bad = edited_rolling_csv(data, written.read_text())

        path = directory / "messy.rolling.csv"
        path.write_bytes(text.encode())
        if bad is not None:
            with pytest.raises(InputError, match=rf"messy\.rolling\.csv:{bad}: "):
                read_rolling_csv(path)
            return
        again = read_rolling_csv(path)
        assert again.date == results.date
        for col in ROLLING_CSV_COLUMNS[1:]:
            assert getattr(again, col).tobytes() == getattr(results, col).tobytes(), col

    @given(cols=rolling_columns(spoil=False), data=st.data())
    @settings(max_examples=40)
    def test_block_size_does_not_change_the_read(self, cols, data, tmp_path_factory):
        directory = tmp_path_factory.mktemp("fuzz")
        written = directory / "written.csv"
        write_rolling_csv(RollingResult(**cols), written)
        text, _ = edited_rolling_csv(data, written.read_text())
        path = directory / "messy.rolling.csv"
        path.write_bytes(text.encode())
        assert_block_size_free(read_rolling_csv, path)

    @pytest.mark.parametrize("late", [1, 2])
    def test_rule_in_an_early_block_named_before_a_later_bad_cell(self, tmp_path, monkeypatch, late):
        # blocks of two rows: row ``late`` (block 1 or 2) dates itself no
        # later than row 0, and the flag of row 4, in block 3, is bad
        monkeypatch.setattr(ingest, "_BLOCK_ROWS", 2)
        path = tmp_path / "run.rolling.csv"

        def write(days):
            flags = ["true", "true", "true", "true", "yes", "true"]
            rows = [f"{d},0.5,0.01,0.99,0.1,0.002,0.008,1.3,{f}" for d, f in zip(days, flags)]
            path.write_text("\n".join([",".join(ROLLING_CSV_COLUMNS), *rows]) + "\n")

        days = [dt.date(2000, 1, 3) + dt.timedelta(days=k) for k in range(6)]
        write(days)
        with pytest.raises(InputError, match=r"run\.rolling\.csv:6: unparsable garch_converged"):
            read_rolling_csv(path)
        days[late] = days[0]
        write(days)
        message = rf"run\.rolling\.csv:{late + 2}: date {days[0]} is not later than "
        with pytest.raises(InputError, match=message):
            read_rolling_csv(path)
