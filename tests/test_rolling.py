import datetime as dt
import functools
import json
import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import assert_results_close, make_return_series, reference_roll
from hurstscan import (
    InputError,
    RollingConfig,
    RollingResult,
    detect_regimes,
    gen_fgn,
    gen_garch,
    read_rolling_csv,
    roll,
    write_rolling_csv,
    write_rolling_jsonl,
)
from hurstscan.rolling import ROLLING_CSV_COLUMNS, _shared_f2

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
        assert config.q_set == (2.0,)
        assert config.detrend_order == 1
        assert config.garch_mode == "whole-sample"

    def test_s_max_derived_from_window(self):
        assert RollingConfig(window=800).s_max == 80

    def test_window_must_cover_scales(self):
        with pytest.raises(InputError):
            RollingConfig(window=90, s_min=10)

    def test_q_set_must_include_two(self):
        with pytest.raises(InputError):
            RollingConfig(q_set=(1.0, 3.0))

    def test_q_zero_rejected(self):
        with pytest.raises(InputError, match="q = 0"):
            RollingConfig(q_set=(0.0, 2.0))

    def test_q_inf_rejected(self):
        with pytest.raises(InputError, match="q must be finite"):
            RollingConfig(q_set=(2.0, float("inf")))

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
        ],
    )
    def test_whole_number_fields_must_be_integers(self, field, value):
        with pytest.raises(InputError, match=f"{field} must be an integer"):
            RollingConfig(**{field: value})

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
        for q_set, message in (((2.0,), "degenerate"), ((-2.0, 2.0), "negative q")):
            config = RollingConfig(window=500, step=50, q_set=q_set)
            with pytest.raises(InputError, match=message) as kernel:
                roll(series, config)
            with pytest.raises(InputError) as reference:
                reference_roll(series, config)
            assert str(kernel.value) == str(reference.value)

    def test_flat_stretch_same_rule_on_both_paths(self):
        # twelve zero returns: segments inside them have a straight-line profile
        values = gen_garch(1200, omega=1e-6, alpha=0.08, beta=0.91, seed=3)
        values[700:712] = 0.0
        series = make_return_series(values)
        config = RollingConfig(window=500, step=50, q_set=(-2.0, 2.0))
        with pytest.raises(InputError, match="negative q") as kernel:
            roll(series, config)
        with pytest.raises(InputError) as reference:
            reference_roll(series, config)
        assert str(kernel.value) == str(reference.value)
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
        other_qs=st.lists(
            st.sampled_from([-4.0, -2.0, -0.5, 0.5, 1.0, 3.0]), max_size=3, unique=True
        ),
        q_pos=st.integers(0, 3),
        stamp=st.sampled_from(["end", "start", "center"]),
        flat_at=st.floats(0.0, 1.0),
        flat_len=st.sampled_from([0, 0, 6, 40]),
    )
    @settings(max_examples=60, deadline=None)
    def test_kernel_matches_reference_property(
        self, seed, order, garch_mode, s_min_extra, window_extra, s_max_frac, tail, step,
        other_qs, q_pos, stamp, flat_at, flat_len,
    ):
        s_min = order + 2 + s_min_extra
        window = 10 * s_min + window_extra
        s_max = s_min + 2 + int(s_max_frac * (window // 4 - s_min - 2))
        q_set = list(other_qs)
        q_set.insert(min(q_pos, len(q_set)), 2.0)
        config = RollingConfig(
            window=window, step=step, s_min=s_min, s_max=s_max, q_set=tuple(q_set),
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
        "garch_mode, order, q_set",
        [
            ("per-window", 1, (2.0,)),
            ("per-window", 1, (-2.0, 2.0)),
            ("per-window", 0, (-2.0, 2.0)),
            ("whole-sample", 0, (2.0,)),
            ("whole-sample", 0, (-2.0, 2.0)),
        ],
    )
    def test_first_error_in_a_later_block(self, monkeypatch, garch_mode, order, q_set):
        # 23 windows in blocks of 5: the zero tail's windows sit in blocks 2-4
        values = np.concatenate(
            [gen_garch(1000, omega=1e-6, alpha=0.08, beta=0.91, seed=3), np.zeros(600)]
        )
        series = make_return_series(values)
        config = RollingConfig(
            window=500, step=50, q_set=q_set, detrend_order=order, garch_mode=garch_mode
        )
        monkeypatch.setattr("hurstscan.rolling._BLOCK", 5)
        with pytest.raises(InputError) as kernel:
            roll(series, config)
        with pytest.raises(InputError) as reference:
            reference_roll(series, config)
        assert str(kernel.value) == str(reference.value)

    def test_overflow_in_a_later_block(self, monkeypatch):
        # windows of 60 are too short to fit, so each keeps its raw values;
        # in blocks of 5 the windows that reach the 1e160 tail are in block 2
        values = gen_garch(200, 1e-6, 0.08, 0.91, seed=8)
        values[150:] *= 1e160
        config = RollingConfig(window=60, step=7, s_min=3, s_max=15, garch_mode="per-window")
        monkeypatch.setattr("hurstscan.rolling._BLOCK", 5)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InputError, match="floating-point range"):
                roll(make_return_series(values), config)
            # a flat window in block 0 raises first, as it does one window at a time
            values[:60] = 0.0
            series = make_return_series(values)
            with pytest.raises(InputError, match="degenerate") as kernel:
                roll(series, config)
            with pytest.raises(InputError) as reference:
                reference_roll(series, config)
        assert str(kernel.value) == str(reference.value)

    def test_garch_failure_flagged_not_fatal(self, monkeypatch):
        # the failure is injected where the batched fit checks each row
        import hurstscan.garch as garch_mod

        series = make_return_series(gen_garch(600, 0.1, 0.1, 0.8, seed=7))
        real_check = garch_mod._scaled_squares
        bad_first = series.values[:500]

        def flaky_check(row):
            if np.array_equal(row, bad_first):
                raise InputError("forced failure for this window")
            return real_check(row)

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

    def test_overflowing_windows_rejected_without_warning(self):
        # the same windows at 1e80 times the scale: R(s) is about 1e160 and
        # f_sigma overflows, so the result could not be read back
        series = make_return_series(gen_garch(200, 1e-6, 0.08, 0.91, seed=8) * 1e80)
        config = RollingConfig(window=60, step=7, s_min=3, s_max=15, garch_mode="per-window")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InputError, match=r"^window \d+: non-finite f_sigma$"):
                roll(series, config)

    def test_overflowing_squares_rejected_without_warning(self):
        # at 1e160 times the scale the windows' profile squares overflow
        values = gen_garch(200, 1e-6, 0.08, 0.91, seed=8) * 1e160
        config = RollingConfig(window=60, step=7, s_min=3, s_max=15, garch_mode="per-window")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InputError, match="floating-point range"):
                roll(make_return_series(values), config)
            # whole-sample GARCH filtering standardizes the returns first,
            # so the shared-segment source is checked on its own
            with pytest.raises(InputError, match="floating-point range"):
                list(_shared_f2(values, np.arange(0, 141, 7), config))


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


class TestRollingReaderFuzz:
    @given(cols=rolling_columns(spoil=False), data=st.data())
    @settings(max_examples=80)
    def test_loads_written_result_or_names_line(self, cols, data, tmp_path_factory):
        """A written rolling CSV edited as real files are: it loads equal, or fails naming a line.

        Edits: CRLF or LF, a BOM, blank, whitespace-only and trailing
        lines, padded cells and two rows swapped.  The reader must name
        the first line that is whitespace-only, holds a padded flag, or
        dates its row no later than the row before.
        """
        results = RollingResult(**cols)
        directory = tmp_path_factory.mktemp("fuzz")
        written = directory / "written.csv"
        write_rolling_csv(results, written)
        header, *rows = written.read_text().splitlines()
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
