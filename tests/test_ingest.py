import datetime as dt
import itertools
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import assert_block_size_free, make_return_series, max_drawdown
from hurstscan import (
    CsvLayout,
    InputError,
    PriceSeries,
    ReturnSeries,
    load_prices,
    load_returns,
    log_returns,
    save_returns,
    synthetic_dates,
)
from hurstscan.ingest import _DATE, _FLOAT, _first_unordered, _write_table


def write(tmp_path, text, name="prices.csv"):
    path = tmp_path / name
    path.write_text(text)
    return path


def write_prices(series, path):
    _write_table(path, [(_DATE, series.dates), (_FLOAT, series.values)], ("date", "close"))


def make_prices(values, start=dt.date(2000, 1, 3)):
    values = np.asarray(values, dtype=float)
    return PriceSeries(dates=synthetic_dates(values.size, start), values=values)


class TestLoadPrices:
    def test_three_row_parse(self, tmp_path):
        path = write(tmp_path, "date,close\n2000-01-03,100\n2000-01-04,105\n2000-01-05,102\n")
        series = load_prices(path)
        assert len(series) == 3
        np.testing.assert_allclose(series.values, [100.0, 105.0, 102.0])
        assert series.dates[0] == dt.date(2000, 1, 3)

    def test_zero_price_rejected_with_line_number(self, tmp_path):
        path = write(tmp_path, "date,close\n2000-01-03,100\n2000-01-04,0\n")
        with pytest.raises(InputError, match=r":3"):
            load_prices(path)

    def test_rows_sorted_by_date(self, tmp_path):
        path = write(tmp_path, "date,close\n2000-01-05,102\n2000-01-03,100\n2000-01-04,105\n")
        series = load_prices(path)
        np.testing.assert_allclose(series.values, [100.0, 105.0, 102.0])

    def test_duplicate_dates_rejected(self, tmp_path):
        path = write(tmp_path, "date,close\n2000-01-03,100\n2000-01-03,105\n")
        with pytest.raises(InputError, match=r"prices\.csv:3: duplicate"):
            load_prices(path)

    def test_missing_file_names_path(self, tmp_path):
        missing = tmp_path / "nope.csv"
        with pytest.raises(InputError, match="file not found"):
            load_prices(missing)

    def test_unparsable_value_reports_location(self, tmp_path):
        path = write(tmp_path, "date,close\n2000-01-03,100\n2000-01-04,abc\n")
        with pytest.raises(InputError, match=r"prices\.csv:3"):
            load_prices(path)

    def test_unparsable_date_reports_location(self, tmp_path):
        path = write(tmp_path, "date,close\n03/01/2000,100\n")
        with pytest.raises(InputError, match=r":2"):
            load_prices(path)

    def test_bom_header_loads(self, tmp_path):
        path = tmp_path / "prices.csv"
        path.write_bytes("\ufeffdate,close\r\n2000-01-03,100\r\n2000-01-04,105\r\n".encode())
        series = load_prices(path)
        np.testing.assert_allclose(series.values, [100.0, 105.0])

    def test_windows_1252_text_in_an_unparsed_column_loads(self, tmp_path):
        path = tmp_path / "prices.csv"
        text = "date,close,issuer\n2000-01-03,100,Soci\u00e9t\u00e9\n2000-01-04,105,Z\u00fcrich\n"
        path.write_bytes(text.encode("cp1252"))
        np.testing.assert_allclose(load_prices(path).values, [100.0, 105.0])

    def test_byte_not_utf8_in_a_parsed_cell_reports_location(self, tmp_path):
        path = tmp_path / "prices.csv"
        path.write_bytes(b"date,close\n2000-01-03,100\n2000-01-04,10\xe9\n2000-01-05,x\n")
        with pytest.raises(InputError, match=r"prices\.csv:3: unparsable value '10\ufffd'"):
            load_prices(path)

    def test_byte_not_utf8_in_a_header_name_misses_the_column(self, tmp_path):
        path = tmp_path / "prices.csv"
        path.write_bytes(b"date,cl\xe9se\n2000-01-03,100\n")
        with pytest.raises(InputError, match=r"missing columns \['close'\]"):
            load_prices(path)

    @pytest.mark.parametrize("cell", ["nan", "inf", "-inf", "NaN", " Infinity"])
    def test_non_finite_value_reports_location(self, tmp_path, cell):
        path = write(tmp_path, f"date,value\n2000-01-03,0.01\n2000-01-04,{cell}\n")
        with pytest.raises(InputError, match=r"prices\.csv:3: non-finite"):
            load_returns(path)

    def test_missing_column(self, tmp_path):
        path = write(tmp_path, "date,px\n2000-01-03,100\n")
        with pytest.raises(InputError, match="close"):
            load_prices(path)

    def test_custom_columns(self, tmp_path):
        path = write(tmp_path, "day,adj\n2000-01-03,100\n2000-01-04,105\n")
        series = load_prices(path, CsvLayout(date_col="day", value_col="adj"))
        assert len(series) == 2

    def test_headerless_positional_columns(self, tmp_path):
        path = write(tmp_path, "2000-01-03,100\n2000-01-04,105\n")
        series = load_prices(path, CsvLayout(date_col=0, value_col=1, header=False))
        np.testing.assert_allclose(series.values, [100.0, 105.0])


class TestValidationMessages:
    # each raises its InputError cleanly, with warnings as errors
    @pytest.mark.parametrize(
        "make, message",
        [
            (
                lambda: CsvLayout(date_col="date", value_col=1, header=False),
                "columns must be integer positions when there is no header",
            ),
            (
                lambda: ReturnSeries(synthetic_dates(2), np.zeros(3)),
                "dates and values must have equal length",
            ),
            (lambda: ReturnSeries((), np.zeros(0)), "empty series"),
            (
                lambda: ReturnSeries(synthetic_dates(3), np.array([0.0, np.nan, 0.0])),
                "values contain non-finite entries",
            ),
            (lambda: synthetic_dates(0), "n must be at least 1"),
            # once a bare TypeError from range
            (lambda: synthetic_dates(3.0), r"n must be an integer, got 3\.0"),
            (lambda: synthetic_dates(True), "n must be an integer, got True"),
            (lambda: synthetic_dates("3"), "n must be an integer, got '3'"),
        ],
    )
    def test_raises(self, make, message):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InputError, match=f"^{message}$"):
                make()

    @pytest.mark.parametrize("load", [load_prices, load_returns])
    def test_header_only_file_has_no_data_rows(self, tmp_path, load):
        path = write(tmp_path, "date,close,value\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InputError) as exc:
                load(path)
        assert str(exc.value) == f"{path}: no data rows"


class TestFirstUnordered:
    # steps of 0 repeat a date and negative steps go back
    @given(st.lists(st.integers(-3, 3)))
    def test_matches_the_plain_loop(self, steps):
        dates = [dt.date(2001, 1, 1) + dt.timedelta(days=d) for d in itertools.accumulate(steps)]
        want = next((k for k in range(1, len(dates)) if not dates[k - 1] < dates[k]), None)
        assert _first_unordered(dates) == want


class TestSeriesType:
    @pytest.mark.parametrize("kind", [PriceSeries, ReturnSeries])
    def test_copies_the_callers_array(self, kind):
        values = np.ones(3)
        series = kind(synthetic_dates(3), values)
        values[0] = 2.0
        assert series.values.tolist() == [1.0, 1.0, 1.0]
        with pytest.raises(ValueError, match="read-only"):
            series.values[0] = 2.0


class TestRoundTrip:
    def test_prices_bit_identical(self, tmp_path):
        series = make_prices([100.0, 105.13000000000001, 1e-3, 98765.4321])
        path = tmp_path / "out.csv"
        write_prices(series, path)
        again = load_prices(path)
        assert again.dates == series.dates
        np.testing.assert_array_equal(again.values, series.values)

    @given(
        values=st.lists(
            st.floats(
                min_value=-1e12, max_value=1e12, allow_nan=False, allow_infinity=False
            ),
            min_size=1,
            max_size=50,
        )
    )
    @settings(max_examples=60)
    def test_returns_bit_identical(self, values, tmp_path_factory):
        series = make_return_series(values)
        path = tmp_path_factory.mktemp("rt") / "returns.csv"
        save_returns(series, path)
        again = load_returns(path)
        np.testing.assert_array_equal(again.values, series.values)


    @given(
        values=st.lists(
            st.floats(min_value=0.0, exclude_min=True, allow_infinity=False),
            min_size=1,
            max_size=50,
        ),
        gaps=st.lists(st.integers(1, 10), min_size=50, max_size=50),
    )
    @settings(max_examples=60)
    def test_prices_bit_identical_property(self, values, gaps, tmp_path_factory):
        # any positive finite price, subnormals included, on an irregular calendar
        start = dt.date(1990, 1, 1)
        dates = [start + dt.timedelta(days=sum(gaps[: i + 1])) for i in range(len(values))]
        series = PriceSeries(dates=dates, values=values)
        path = tmp_path_factory.mktemp("rt") / "prices.csv"
        write_prices(series, path)
        again = load_prices(path)
        assert again.dates == series.dates
        np.testing.assert_array_equal(again.values, series.values)


PADDING = st.sampled_from(["", "", " ", "  ", "\t"])


# Windows-1252 text, as spreadsheet exports write it: not UTF-8
NOTE = st.text(st.sampled_from("Soci\u00e9t\u00e9 Z\u00fcrich \u20ac"), max_size=12)


@st.composite
def messy_return_files(draw):
    """A return CSV as real files come: CRLF or LF, blank lines, padded cells, rows out of order.

    The file may lack a header (columns then go by position), may
    repeat dates, may carry an extra column of Windows-1252 text that
    the reader never parses, and may hold a byte that is not UTF-8 in
    one value cell.  Returns the file's bytes, its layout, the series it
    holds in date order, and the line number the reader must reject, or
    None: the first whitespace-only line or value with a bad byte, else
    the second row of the earliest repeated date.
    """
    n = draw(st.integers(1, 25))
    gaps = draw(st.lists(st.integers(1, 7), min_size=n, max_size=n))
    dates = [dt.date(2001, 1, 1) + dt.timedelta(days=sum(gaps[: i + 1])) for i in range(n)]
    values = draw(
        st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=n, max_size=n)
    )
    header = draw(st.booleans())
    notes = draw(st.booleans())
    repeats = draw(st.lists(st.integers(0, n - 1), max_size=2))
    rows = [*range(n), *repeats]
    bad_byte_row = draw(st.none() | st.integers(0, len(rows) - 1))
    lines = [b"date,value" + b",note" * notes] if header else []
    line_dates = [None] * len(lines)
    broken = [False] * len(lines)
    for i, k in enumerate(draw(st.permutations(rows))):
        pads = [draw(PADDING) for _ in range(4)]
        value = f"{pads[2]}{values[k]!r}{pads[3]}".encode()
        if i == bad_byte_row:
            at = draw(st.integers(0, len(value)))
            value = value[:at] + b"\xe9" + value[at:]
        line = f"{pads[0]}{dates[k]}{pads[1]},".encode() + value
        if notes:
            line += b"," + draw(NOTE).encode("cp1252")
        lines.append(line)
        line_dates.append(dates[k])
        broken.append(i == bad_byte_row)
    for _ in range(draw(st.integers(0, 4))):
        # blank lines anywhere after the header, trailing ones included
        at = draw(st.integers(int(header), len(lines)))
        blank = draw(st.sampled_from([b"", b"", b"", b" "]))
        lines.insert(at, blank)
        line_dates.insert(at, None)
        broken.insert(at, blank == b" ")
    newline = draw(st.sampled_from([b"\n", b"\r\n"]))
    data = newline.join(lines) + draw(st.sampled_from([b"", newline, newline * 2]))
    bad = next((i + 1 for i, flag in enumerate(broken) if flag), None)
    if bad is None and repeats:
        earliest = min(dates[k] for k in repeats)
        bad = [i + 1 for i, date in enumerate(line_dates) if date == earliest][1]
    layout = CsvLayout(value_col="value") if header else CsvLayout(0, 1, header=False)
    return data, layout, dates, values, bad


class TestReaderFuzz:
    @given(case=messy_return_files())
    @settings(max_examples=80)
    def test_loads_sorted_or_names_line(self, case, tmp_path_factory):
        data, layout, dates, values, bad = case
        path = tmp_path_factory.mktemp("fuzz") / "messy.csv"
        path.write_bytes(data)
        if bad is not None:
            with pytest.raises(InputError, match=rf"messy\.csv:{bad}: "):
                load_returns(path, layout)
            return
        series = load_returns(path, layout)
        assert series.dates == tuple(dates)
        np.testing.assert_array_equal(series.values, values)


class TestBlockReader:
    @given(case=messy_return_files())
    @settings(max_examples=40)
    def test_block_size_does_not_change_the_read(self, case, tmp_path_factory):
        data, layout, *_ = case
        path = tmp_path_factory.mktemp("fuzz") / "messy.csv"
        path.write_bytes(data)
        assert_block_size_free(load_returns, path, layout)

    def test_load_keeps_parsed_values_not_cell_texts(self, tmp_path):
        # the text of every row held at once costs about 350 bytes a row
        n = 20_000
        path = tmp_path / "long.csv"
        values = np.random.default_rng(4).standard_normal(n) * 0.01
        save_returns(make_return_series(values), path)
        load_returns(path)
        tracemalloc.start()
        try:
            load_returns(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak / n <= 120, peak / n


class TestLogReturns:
    def test_constant_prices(self):
        r = log_returns(make_prices([100.0, 100.0, 100.0]))
        np.testing.assert_allclose(r.values, [0.0, 0.0])

    def test_single_e_ratio(self):
        r = log_returns(make_prices([1.0, math.e]))
        assert r.values[0] == pytest.approx(1.0, abs=1e-15)

    def test_direct_formula(self):
        # ln(105/100) and ln(102/105), evaluated independently
        r = log_returns(make_prices([100.0, 105.0, 102.0]))
        assert r.values[0] == pytest.approx(0.04879016416943205, abs=1e-15)
        assert r.values[1] == pytest.approx(-0.028987536873252298, abs=1e-15)

    def test_dated_by_later_day(self):
        prices = make_prices([100.0, 105.0, 102.0])
        r = log_returns(prices)
        assert r.dates == prices.dates[1:]

    def test_exponential_growth_constant_returns(self):
        g = 1.0172
        prices = make_prices(100.0 * g ** np.arange(50))
        np.testing.assert_allclose(log_returns(prices).values, math.log(g), rtol=1e-12)

    def test_too_short(self):
        with pytest.raises(InputError):
            log_returns(make_prices([100.0]))


class TestMaxDrawdown:
    def test_half_loss(self):
        assert max_drawdown(make_prices([100.0, 50.0, 75.0])) == pytest.approx(0.5)

    def test_monotone_rise_has_none(self):
        assert max_drawdown(make_prices([100.0, 101.0, 105.0, 130.0])) == 0.0

    def test_scale_invariant(self):
        values = [100.0, 80.0, 120.0, 60.0, 90.0]
        base = max_drawdown(make_prices(values))
        scaled = max_drawdown(make_prices([17.3 * v for v in values]))
        assert scaled == pytest.approx(base, rel=1e-12)

    def test_date_window_restricts_peak(self):
        prices = make_prices([100.0, 80.0, 120.0, 60.0])
        assert max_drawdown(prices) == pytest.approx(0.5)
        early = max_drawdown(prices, end=dt.date(2000, 1, 4))
        assert early == pytest.approx(0.2)
        late = max_drawdown(prices, start=dt.date(2000, 1, 5))
        assert late == pytest.approx(0.5)

    def test_empty_range(self):
        prices = make_prices([100.0, 80.0])
        with pytest.raises(InputError):
            max_drawdown(prices, start=dt.date(2001, 1, 1))


class TestSeriesTypes:
    def test_prices_must_be_positive(self):
        with pytest.raises(InputError):
            make_prices([100.0, -1.0])

    def test_dates_strictly_increasing(self):
        with pytest.raises(InputError):
            PriceSeries(
                dates=(dt.date(2000, 1, 4), dt.date(2000, 1, 3)),
                values=np.array([1.0, 2.0]),
            )

    @pytest.mark.parametrize("at", [1, 2, 5])
    def test_first_date_out_of_order_named(self, at):
        # a repeated date, and a later date out of order that must not be named
        dates = list(synthetic_dates(8))
        dates[at] = dates[at - 1]
        dates[7] = dates[0]
        with pytest.raises(InputError, match=rf"^dates must be strictly increasing \(at {dates[at]}\)$"):
            ReturnSeries(dates, np.zeros(8))

    def test_values_read_only(self):
        series = make_prices([100.0, 105.0])
        with pytest.raises(ValueError):
            series.values[0] = 50.0

    def test_synthetic_dates_consecutive(self):
        dates = synthetic_dates(4)
        assert dates[0] == dt.date(2000, 1, 3)
        assert all((b - a).days == 1 for a, b in zip(dates, dates[1:]))
        assert synthetic_dates(np.int64(4)) == dates

    def test_synthetic_dates_past_the_last_date_rejected(self):
        start = dt.date(9999, 12, 1)
        assert synthetic_dates(31, start)[-1] == dt.date.max
        with pytest.raises(InputError) as exc:
            synthetic_dates(1000, start)
        assert all(part in str(exc.value) for part in ("1000", "9999-12-01", "9999-12-31"))
