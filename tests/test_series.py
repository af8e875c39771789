import hashlib
import io
import logging
import math
import os
import subprocess
import sys
from datetime import datetime, timedelta
from pathlib import Path

import numpy as np
import pytest

import hhtscale
from hhtscale.series import (
    DataError,
    TimeSeries,
    TradingCalendar,
    ingest_prices,
    read_values,
)

from conftest import build_price_csv


class TestTimeSeries:
    def test_basic_construction(self):
        ts = TimeSeries(np.arange(20.0), dt=30.0)
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

    @pytest.mark.parametrize("offsets", [("+01:00", ""), ("", "Z")])
    def test_mixed_utc_offsets_rejected(self, offsets):
        first, second = offsets
        text = f"date,time,price\n2026-01-05,09:00:00{first},100\n2026-01-05,09:00:30{second},101\n"
        message = "^row 2: timestamp .* UTC offset, unlike the row before$"
        with pytest.raises(DataError, match=message):
            ingest_prices(io.StringIO(text))

    def test_one_utc_offset_throughout_loads(self):
        text = "date,time,price\n2026-01-05,09:00:00+01:00,100\n2026-01-05,09:00:30+01:00,101\n"
        ts, _ = ingest_prices(io.StringIO(text))
        assert ts.dt == 30.0

    def test_session_gap_below_the_bar_step_rejected(self, price_csv):
        with pytest.raises(DataError, match="^day 2026-01-05: all 39 within-day gaps are >="):
            ingest_prices(price_csv, session_gap=10.0, fill="ffill")

    def test_one_gap_day_splits_without_a_bar_step(self):
        # a day of one bar per session has no gap but the split to refuse
        text = "date,time,price\n2026-01-05,09:00:00,100\n2026-01-05,13:00:00,101\n"
        _, cal = ingest_prices(io.StringIO(text), session_gap=3600.0)
        assert cal.splits == [1]

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
        # 30 bars, then the 13:00 session
        assert cal.splits == [start + 30 for start, _ in cal.day_slices]

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

    def test_dates_only_group_by_date_with_unit_spacing(self, price_csv):
        ts, cal = ingest_prices(price_csv, time_col=None)
        assert cal.n_days == 3
        assert list(cal.day_lengths()) == [40, 40, 40]
        assert ts.dt == 1.0

    @pytest.mark.parametrize("gap", [0, -5.0, float("nan")])
    def test_bad_session_gap_refused_before_reading(self, tmp_path, gap):
        # the file does not exist, so reading a row would raise OSError
        with pytest.raises(ValueError, match="session_gap must be a positive number"):
            ingest_prices(tmp_path / "absent.csv", session_gap=gap)

    def test_comment_lines_skipped(self):
        text = (
            "# schema: prices v1\ndate,time,price\n2026-01-05,09:00:00,100\n"
            "# a note\n2026-01-05,09:00:30,0\n"
        )
        with pytest.raises(DataError, match="^row 2: non-positive price '0'$"):
            ingest_prices(io.StringIO(text))

    def test_no_fill_by_default(self):
        rows = ["date,time,price"]
        times = ["09:00:00", "09:00:30", "09:01:30", "09:02:00"]
        for t in times:
            rows.append(f"2026-01-05,{t},100")
        ts, _ = ingest_prices(io.StringIO("\n".join(rows)))
        assert len(ts) == 4

    # within-day gaps 30, 0.7 and 45.3 s, then one of 0.1 s more: the bar
    # step is the middle gap of an odd count and the mean of the middle two of
    # an even one, the floats np.median gives for these gaps
    @pytest.mark.parametrize(
        "times, dt",
        [
            (("09:00:00", "09:00:30", "09:00:30.7", "09:01:16"), 30.0),
            (("09:00:00", "09:00:30", "09:00:30.7", "09:01:16", "09:01:16.1"), 15.35),
        ],
        ids=["odd", "even"],
    )
    def test_bar_step_is_the_median_gap(self, times, dt):
        text = "date,time,price\n" + "\n".join(
            f"2026-01-05,{t},{100 + k}" for k, t in enumerate(times)
        )
        ts, _ = ingest_prices(io.StringIO(text))
        assert ts.dt == dt

    def test_ingest_does_not_import_numpy_ma(self, price_csv):
        # numpy.ma costs milliseconds of every cold run that reads prices
        script = f"""
import sys
from hhtscale.series import ingest_prices
ingest_prices({str(price_csv)!r})
print("numpy.ma" in sys.modules)
"""
        package_root = str(Path(hhtscale.__file__).resolve().parents[1])
        done = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": package_root},
            timeout=120,
        )
        assert done.returncode == 0, done.stderr
        assert done.stdout.strip() == "False"


class TestReadValues:
    def test_column_and_label(self, tmp_path):
        path = tmp_path / "walk.csv"
        path.write_text("# schema: walk v1\nt, v\n0, 1.5\n\n1,-2e3\n")
        ts = read_values(path, "v")
        assert ts.values.tolist() == [1.5, -2000.0]
        assert ts.dt == 1.0

    def test_path_with_a_newline_is_read_as_a_path(self, tmp_path):
        path = tmp_path / "two\nlines.csv"
        path.write_text("v\n1\n2\n")
        assert read_values(path, "v").values.tolist() == [1.0, 2.0]

    def test_errors_number_data_rows_like_ingest(self):
        text = "t;v\n0;1\n1;x\n"
        with pytest.raises(DataError, match="^row 2: bad value 'x' in column 'v'$"):
            read_values(io.StringIO(text), "v", delimiter=";")
        with pytest.raises(DataError, match="^row 2: 3 fields, header has 2$"):
            read_values(io.StringIO("t,v\n0,1\n1,2,3\n"), "v")
        with pytest.raises(DataError, match="^row 1: fewer fields than the header$"):
            read_values(io.StringIO("t,v\n0\n"), "v")
        with pytest.raises(DataError, match="missing column 'w'"):
            read_values(io.StringIO(text), "w", delimiter=";")


def _pinned_file(rng) -> str:
    """Tick-quantized prices in 30.5 s steps: ragged days, each with a 2 h
    lunch break, some missed bars and now and then a second long gap."""
    rows = ["date,time,price"]
    ticks = 0
    for day in range(int(rng.integers(1, 4))):
        stamp = datetime(2024, 1, 2 + day, 9)
        bars = int(rng.integers(2, 60))
        lunch = int(rng.integers(1, bars))
        for k in range(bars):
            if k == lunch:
                step = 7200.0
            elif k and rng.random() < 0.05:
                step = 4000.0
            else:
                step = 30.5 * int(rng.choice([1, 1, 1, 1, 1, 2, 3]))
            stamp += timedelta(seconds=step)
            ticks += int(rng.choice([0, 0, 1, -1, 2, -2]))
            rows.append(f"{stamp.date()},{stamp.time()},{100 + 0.01 * ticks:.2f}")
    return "\n".join(rows) + "\n"


def test_ingest_pinned():
    # values, dt and the whole calendar of 100 seeded files under each
    # option set, as one digest
    digest = hashlib.sha256()
    for seed in range(100):
        text = _pinned_file(np.random.default_rng(seed))
        for options in ({}, {"fill": "ffill"}, {"session_gap": 3600.0},
                        {"session_gap": 3600.0, "fill": "ffill"}):
            ts, cal = ingest_prices(io.StringIO(text), **options)
            digest.update(ts.values.tobytes())
            digest.update(
                repr((ts.dt, cal.day_ids, cal.day_slices, cal.splits, cal.metadata)).encode()
            )
    assert digest.hexdigest() == "1c8d7a6db5ec423e5e8e2140e93cfbb91302c4727d9ad3780377a6c848f1683c"


class TestTradingCalendar:
    def test_validation_rejects_overlap(self):
        with pytest.raises(ValueError):
            TradingCalendar(day_ids=["a", "b"], day_slices=[(0, 5), (3, 8)])

    def test_validation_rejects_a_split_outside_its_day(self):
        with pytest.raises(ValueError, match="outside"):
            TradingCalendar(day_ids=["a", "b"], day_slices=[(0, 5), (5, 8)], splits=[3, 9])
        with pytest.raises(ValueError, match="one entry per day"):
            TradingCalendar(day_ids=["a", "b"], day_slices=[(0, 5), (5, 8)], splits=[3])

    def test_day_lengths(self):
        cal = TradingCalendar(day_ids=["a", "b"], day_slices=[(0, 5), (5, 8)])
        assert list(cal.day_lengths()) == [5, 3]
        assert cal.n_days == 2
        assert cal.splits is None
