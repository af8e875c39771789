import io
import logging
import math

import numpy as np
import pytest

from hhtscale.series import (
    DataError,
    TimeSeries,
    TradingCalendar,
    ingest_prices,
    log_returns,
)

from conftest import build_price_csv


class TestTimeSeries:
    def test_basic_construction(self):
        ts = TimeSeries(np.arange(20.0), dt=30.0, label="x")
        assert len(ts) == 20
        assert ts.dt == 30.0

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            TimeSeries(np.array([1.0, np.nan, 2.0]))
        with pytest.raises(ValueError):
            TimeSeries(np.array([1.0, np.inf]))

    def test_rejects_bad_dt(self):
        with pytest.raises(ValueError):
            TimeSeries(np.arange(4.0), dt=0.0)

    def test_values_immutable(self):
        ts = TimeSeries(np.arange(4.0))
        with pytest.raises(ValueError):
            ts.values[0] = 9.0


class TestLogReturns:
    def test_small_example(self):
        out = log_returns(TimeSeries(np.array([0.0, 1.0, 3.0])))
        assert np.array_equal(out.values, [1.0, 2.0])

    def test_constant_series(self):
        out = log_returns(TimeSeries(np.full(10, 2.5)))
        assert np.array_equal(out.values, np.zeros(9))

    def test_length_and_differences(self):
        rng = np.random.default_rng(1)
        x = rng.standard_normal(100)
        out = log_returns(TimeSeries(x))
        assert len(out) == 99
        assert np.allclose(out.values, x[1:] - x[:-1])

    def test_too_short(self):
        with pytest.raises(ValueError):
            log_returns(TimeSeries(np.array([1.0])))


class TestIngest:
    def test_three_constant_prices(self):
        text = "date,time,price\n" + "\n".join(
            f"2026-01-05,09:{k:02d}:00,100" for k in range(3)
        )
        ts, cal = ingest_prices(io.StringIO(text))
        assert np.allclose(ts.values, math.log(100.0))
        assert cal.n_days == 1
        assert cal.day_slices == [(0, 3)]

    def test_exp_round_trip(self, tmp_path):
        path = tmp_path / "p.csv"
        build_price_csv(path, n_days=2, per_session=25, seed=3)
        raw = [
            float(line.split(",")[2])
            for line in path.read_text().splitlines()[1:]
        ]
        ts, _ = ingest_prices(path)
        assert np.allclose(np.exp(ts.values), raw, rtol=1e-12, atol=0.0)

    def test_calendar_partitions_series(self, tmp_path):
        path = tmp_path / "p.csv"
        total = build_price_csv(path, n_days=4, per_session=17)
        ts, cal = ingest_prices(path)
        assert len(ts) == total
        cursor = 0
        for start, stop in cal.day_slices:
            assert start == cursor
            cursor = stop
        assert cursor == total

    def test_nonpositive_price_names_row(self):
        text = "date,time,price\n" + "\n".join(
            f"2026-01-05,09:{k:02d}:00,{100 + k}" for k in range(8)
        )
        lines = text.splitlines()
        lines[7] = "2026-01-05,09:06:00,0"  # data row 7
        with pytest.raises(DataError, match="row 7"):
            ingest_prices(io.StringIO("\n".join(lines)))

    def test_unsorted_timestamps_rejected(self):
        text = (
            "date,time,price\n"
            "2026-01-05,09:01:00,100\n"
            "2026-01-05,09:00:00,101\n"
        )
        with pytest.raises(DataError):
            ingest_prices(io.StringIO(text))

    def test_unparseable_price_names_row(self):
        text = "date,time,price\n2026-01-05,09:00:00,abc\n"
        with pytest.raises(DataError, match="row 1"):
            ingest_prices(io.StringIO(text))

    def test_ragged_days_warn_but_load(self):
        rows = ["date,time,price"]
        for k in range(10):
            rows.append(f"2026-01-05,09:{k:02d}:00,100")
        for k in range(7):
            rows.append(f"2026-01-06,09:{k:02d}:00,100")
        ts, cal = ingest_prices(io.StringIO("\n".join(rows)))
        assert cal.n_days == 2
        assert list(cal.day_lengths()) == [10, 7]
        assert any("ragged" in w for w in cal.metadata["warnings"])

    def test_two_sessions_split_on_gap(self, two_session_csv):
        ts, cal = ingest_prices(two_session_csv, session_gap=3600.0)
        assert cal.sessions_per_day == 2
        for day_sessions, (start, stop) in zip(cal.sessions, cal.day_slices):
            assert len(day_sessions) == 2
            assert day_sessions[0][0] == start
            assert day_sessions[-1][1] == stop

    def test_several_session_gaps_warn_in_the_log(self, caplog):
        rows = ["date,time,price"]
        for t in ("09:00:00", "09:00:30", "11:00:00", "11:00:30", "13:00:00", "13:00:30"):
            rows.append(f"2026-01-05,{t},100")
        with caplog.at_level(logging.WARNING, logger="hhtscale.series"):
            _, cal = ingest_prices(io.StringIO("\n".join(rows)), session_gap=3600.0)
        note = "day 2026-01-05: 2 session-size gaps; splitting at the largest"
        assert cal.metadata["warnings"] == [note]
        assert [r.getMessage() for r in caplog.records] == [f"ingest: {note}"]

    def test_ffill_inserts_missing_in_session_samples(self):
        rows = ["date,time,price"]
        times = ["09:00:00", "09:00:30", "09:01:30", "09:02:00"]  # one gap
        for t in times:
            rows.append(f"2026-01-05,{t},100")
        ts, cal = ingest_prices(io.StringIO("\n".join(rows)), fill="ffill")
        assert len(ts) == 5
        assert cal.metadata["filled_samples"] == 1

    def test_no_fill_by_default(self):
        rows = ["date,time,price"]
        times = ["09:00:00", "09:00:30", "09:01:30", "09:02:00"]
        for t in times:
            rows.append(f"2026-01-05,{t},100")
        ts, _ = ingest_prices(io.StringIO("\n".join(rows)))
        assert len(ts) == 4


class TestTradingCalendar:
    def test_validation_rejects_overlap(self):
        with pytest.raises(ValueError):
            TradingCalendar(
                day_ids=["a", "b"],
                day_slices=[(0, 5), (3, 8)],
                sessions=[[(0, 5)], [(3, 8)]],
                sessions_per_day=1,
            )

    def test_day_lengths(self):
        cal = TradingCalendar(
            day_ids=["a", "b"],
            day_slices=[(0, 5), (5, 8)],
            sessions=[[(0, 5)], [(5, 8)]],
            sessions_per_day=1,
        )
        assert list(cal.day_lengths()) == [5, 3]
        assert cal.n_days == 2
