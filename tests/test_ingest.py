import datetime as dt
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import make_return_series
from hurstscan import (
    CsvLayout,
    InputError,
    PriceSeries,
    load_prices,
    load_returns,
    log_returns,
    max_drawdown,
    save_prices,
    save_returns,
    synthetic_dates,
)


def write(tmp_path, text, name="prices.csv"):
    path = tmp_path / name
    path.write_text(text)
    return path


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
        with pytest.raises(InputError, match="duplicate"):
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


class TestRoundTrip:
    def test_prices_bit_identical(self, tmp_path):
        series = make_prices([100.0, 105.13000000000001, 1e-3, 98765.4321])
        path = tmp_path / "out.csv"
        save_prices(series, path)
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
        save_prices(series, path)
        again = load_prices(path)
        assert again.dates == series.dates
        np.testing.assert_array_equal(again.values, series.values)


PADDING = st.sampled_from(["", "", " ", "  ", "\t"])


@st.composite
def messy_return_files(draw):
    """A return CSV as real files come: CRLF or LF, blank lines, padded cells, rows out of order.

    The file may lack a header (columns then go by position) and may
    repeat dates.  Returns the text, its layout, the series it holds in
    date order, and the line number the reader must reject, or None:
    the first whitespace-only line, else the second row of the earliest
    repeated date.
    """
    n = draw(st.integers(1, 25))
    gaps = draw(st.lists(st.integers(1, 7), min_size=n, max_size=n))
    dates = [dt.date(2001, 1, 1) + dt.timedelta(days=sum(gaps[: i + 1])) for i in range(n)]
    values = draw(
        st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=n, max_size=n)
    )
    header = draw(st.booleans())
    repeats = draw(st.lists(st.integers(0, n - 1), max_size=2))
    rows = [*range(n), *repeats]
    lines = ["date,value"] if header else []
    line_dates = [None] * len(lines)
    for k in draw(st.permutations(rows)):
        pads = [draw(PADDING) for _ in range(4)]
        lines.append(f"{pads[0]}{dates[k]}{pads[1]},{pads[2]}{values[k]!r}{pads[3]}")
        line_dates.append(dates[k])
    for _ in range(draw(st.integers(0, 4))):
        # blank lines anywhere after the header, trailing ones included
        at = draw(st.integers(int(header), len(lines)))
        lines.insert(at, draw(st.sampled_from(["", "", "", " "])))
        line_dates.insert(at, None)
    newline = draw(st.sampled_from(["\n", "\r\n"]))
    text = newline.join(lines) + draw(st.sampled_from(["", newline, newline * 2]))
    bad = next((i + 1 for i, line in enumerate(lines) if line == " "), None)
    if bad is None and repeats:
        earliest = min(dates[k] for k in repeats)
        bad = [i + 1 for i, date in enumerate(line_dates) if date == earliest][1]
    layout = CsvLayout(value_col="value") if header else CsvLayout(0, 1, header=False)
    return text, layout, dates, values, bad


class TestReaderFuzz:
    @given(case=messy_return_files())
    @settings(max_examples=80)
    def test_loads_sorted_or_names_line(self, case, tmp_path_factory):
        text, layout, dates, values, bad = case
        path = tmp_path_factory.mktemp("fuzz") / "messy.csv"
        path.write_bytes(text.encode())
        if bad is not None:
            with pytest.raises(InputError, match=rf"messy\.csv:{bad}: "):
                load_returns(path, layout)
            return
        series = load_returns(path, layout)
        assert series.dates == tuple(dates)
        np.testing.assert_array_equal(series.values, values)


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

    def test_values_read_only(self):
        series = make_prices([100.0, 105.0])
        with pytest.raises(ValueError):
            series.values[0] = 50.0

    def test_synthetic_dates_consecutive(self):
        dates = synthetic_dates(4)
        assert dates[0] == dt.date(2000, 1, 3)
        assert all((b - a).days == 1 for a, b in zip(dates, dates[1:]))
