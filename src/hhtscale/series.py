"""Series containers and market-data ingestion.

A :class:`TimeSeries` is a validated, immutable 1-D float array plus sample
spacing metadata.  :func:`ingest_prices` reads delimited price files (date /
time / price columns), converts to log prices, and returns a
:class:`TradingCalendar` describing how samples group into days and trading
sessions — the geometry later used to fold a measure track into an intraday
panel.
"""

from __future__ import annotations

import csv
import io
import logging
import math
import os
from dataclasses import dataclass, field
from datetime import datetime

import numpy as np

logger = logging.getLogger(__name__)

__all__ = [
    "DataError",
    "TimeSeries",
    "TradingCalendar",
    "ingest_prices",
    "log_returns",
]


class DataError(ValueError):
    """Malformed input data (bad prices, unsorted rows, missing columns)."""


@dataclass(frozen=True)
class TimeSeries:
    """Immutable 1-D real-valued series.

    ``dt`` is the sample spacing in whatever physical unit applies (seconds
    for ingested market data, 1.0 for synthetic series); downstream
    computations work in sample units throughout.
    """

    values: np.ndarray
    dt: float = 1.0
    label: str = ""

    def __post_init__(self):
        values = np.asarray(self.values, dtype=np.float64)
        if values.ndim != 1:
            raise ValueError("TimeSeries values must be one-dimensional")
        if values.size and not np.all(np.isfinite(values)):
            raise ValueError("TimeSeries values must all be finite")
        if not (self.dt > 0):
            raise ValueError("dt must be positive")
        values = values.copy()
        values.flags.writeable = False
        object.__setattr__(self, "values", values)

    def __len__(self):
        return self.values.shape[0]


def log_returns(series: TimeSeries) -> TimeSeries:
    """First differences of a (log-price) series."""
    if len(series) < 2:
        raise ValueError("need at least two samples to difference")
    return TimeSeries(
        np.diff(series.values), dt=series.dt,
        label=f"{series.label}.returns" if series.label else "returns",
    )


@dataclass
class TradingCalendar:
    """Day/session layout of an ingested series.

    ``day_slices`` holds ``(start, stop)`` half-open index ranges, one per
    day, ascending and non-overlapping.  ``sessions`` holds the same kind of
    ranges nested per day (two per day when a lunch break was split out).
    """

    day_ids: list[str]
    day_slices: list[tuple[int, int]]
    sessions: list[list[tuple[int, int]]]
    sessions_per_day: int
    metadata: dict = field(default_factory=dict)

    def __post_init__(self):
        if not (len(self.day_ids) == len(self.day_slices) == len(self.sessions)):
            raise ValueError("calendar arrays must have one entry per day")
        if self.sessions_per_day not in (1, 2):
            raise ValueError("sessions_per_day must be 1 or 2")
        prev_stop = 0
        for day, (start, stop) in enumerate(self.day_slices):
            if not (0 <= start < stop):
                raise ValueError(f"day {day}: bad slice ({start}, {stop})")
            if start < prev_stop:
                raise ValueError(f"day {day}: slices overlap or are unordered")
            prev_stop = stop
            sess = self.sessions[day]
            if len(sess) != self.sessions_per_day:
                raise ValueError(f"day {day}: expected {self.sessions_per_day} sessions")
            cursor = start
            for s_start, s_stop in sess:
                if s_start != cursor or s_stop > stop:
                    raise ValueError(f"day {day}: sessions do not tile the day")
                cursor = s_stop
            if cursor != stop:
                raise ValueError(f"day {day}: sessions do not cover the day")

    @property
    def n_days(self) -> int:
        return len(self.day_ids)

    def day_lengths(self) -> np.ndarray:
        return np.array([stop - start for start, stop in self.day_slices], dtype=np.intp)


def _open_source(source):
    """Accept a path, raw CSV text, or an open text stream."""
    if hasattr(source, "read"):
        return source, ""
    if isinstance(source, (str, os.PathLike)):
        text = os.fspath(source)
        if "\n" in text or "\r" in text:
            return io.StringIO(text), ""
        label = os.path.splitext(os.path.basename(text))[0]
        return open(text, "r", newline=""), label
    raise TypeError("source must be a path, CSV text, or a text stream")


def _parse_timestamp(raw: str, row: int) -> datetime:
    try:
        return datetime.fromisoformat(raw.strip())
    except ValueError as exc:
        raise DataError(f"row {row}: unparseable timestamp {raw!r}") from exc


def ingest_prices(
    source,
    date_col: str = "date",
    time_col: str | None = "time",
    price_col: str = "price",
    delimiter: str = ",",
    session_gap: float | None = None,
    fill: str = "none",
) -> tuple[TimeSeries, TradingCalendar]:
    """Read a delimited price file into a log-price series plus calendar.

    Parameters
    ----------
    source : path, CSV text, or open text stream
    date_col, time_col, price_col : str
        Header names.  ``time_col=None`` groups rows by date only.
    delimiter : str
        Field separator.
    session_gap : float or None
        When given (seconds), a within-day gap of at least this size splits
        the day into two sessions (the lunch break).  Every day must then
        contain exactly one such gap.  ``None`` keeps one session per day.
    fill : {"none", "ffill"}
        ``"ffill"`` re-inserts samples missing from the regular grid inside
        a session by carrying the last price forward (counts are logged in
        the calendar metadata).  The default keeps rows exactly as given,
        treating intra-session gaps as contiguous samples.

    Returns
    -------
    (TimeSeries, TradingCalendar)
        Natural-log prices and the day/session layout.
    """
    if fill not in ("none", "ffill"):
        raise ValueError("fill must be 'none' or 'ffill'")
    if session_gap is not None and time_col is None:
        raise ValueError("session_gap requires a time column")
    stream, label = _open_source(source)
    close = not hasattr(source, "read") and stream is not source
    try:
        reader = csv.DictReader(stream, delimiter=delimiter)
        if reader.fieldnames is None:
            raise DataError("empty input: no header row")
        fields = [name.strip() for name in reader.fieldnames]
        needed = [date_col, price_col] + ([time_col] if time_col else [])
        for col in needed:
            if col not in fields:
                raise DataError(f"missing column {col!r} (header has {fields})")

        dates: list[str] = []
        stamps: list[datetime] = []
        prices: list[float] = []
        prev_stamp = None
        for row_num, row in enumerate(reader, start=1):
            if None in row:  # DictReader files cells past the header under None
                raise DataError(
                    f"row {row_num}: {len(fields) + len(row[None])} fields, "
                    f"header has {len(fields)}"
                )
            clean = {k.strip(): (v.strip() if isinstance(v, str) else v) for k, v in row.items()}
            raw_price = clean.get(price_col)
            if raw_price in (None, ""):
                raise DataError(f"row {row_num}: missing price")
            try:
                price = float(raw_price)
            except ValueError as exc:
                raise DataError(f"row {row_num}: unparseable price {raw_price!r}") from exc
            if not math.isfinite(price) or price <= 0.0:
                raise DataError(f"row {row_num}: non-positive price {raw_price!r}")
            stamp_parts = [clean[date_col]] + ([clean[time_col]] if time_col else [])
            if None in stamp_parts:  # DictReader fills a short row with None
                raise DataError(f"row {row_num}: fewer fields than the header")
            stamp = _parse_timestamp(" ".join(stamp_parts), row_num)
            if prev_stamp is not None:
                ordered = stamp > prev_stamp if time_col else stamp >= prev_stamp
                if not ordered:
                    raise DataError(f"row {row_num}: timestamps not sorted ascending")
            prev_stamp = stamp
            dates.append(stamp.date().isoformat())
            stamps.append(stamp)
            prices.append(price)
    finally:
        if close:
            stream.close()

    if not prices:
        raise DataError("no data rows")

    # group rows by calendar date
    day_ids: list[str] = []
    day_rows: list[list[int]] = []
    for idx, date_text in enumerate(dates):
        if not day_ids or date_text != day_ids[-1]:
            day_ids.append(date_text)
            day_rows.append([])
        day_rows[-1].append(idx)

    warnings: list[str] = []
    # infer the regular sample spacing from within-day deltas
    deltas = []
    for rows in day_rows:
        for a, b in zip(rows[:-1], rows[1:]):
            deltas.append((stamps[b] - stamps[a]).total_seconds())
    if session_gap is not None:
        deltas = [d for d in deltas if d < session_gap]
    dt_seconds = float(np.median(deltas)) if deltas else 1.0

    out_values: list[float] = []
    day_slices: list[tuple[int, int]] = []
    sessions: list[list[tuple[int, int]]] = []
    filled_total = 0
    for day_idx, rows in enumerate(day_rows):
        day_start = len(out_values)
        split_at = None  # position within the day's output where session 2 begins
        if session_gap is not None:
            gaps = [
                (stamps[b] - stamps[a]).total_seconds()
                for a, b in zip(rows[:-1], rows[1:])
            ]
            candidates = [i for i, g in enumerate(gaps) if g >= session_gap]
            if not candidates:
                raise DataError(f"day {day_ids[day_idx]}: no session gap >= {session_gap}s found")
            if len(candidates) > 1:
                best = max(candidates, key=lambda i: gaps[i])
                note = (
                    f"day {day_ids[day_idx]}: {len(candidates)} session-size gaps; "
                    "splitting at the largest"
                )
                warnings.append(note)
                logger.warning("ingest: %s", note)
                candidates = [best]
            split_row = candidates[0]  # gap between rows[split_row] and rows[split_row+1]
        else:
            split_row = None

        for pos, row_idx in enumerate(rows):
            if pos > 0 and fill == "ffill":
                gap = (stamps[row_idx] - stamps[rows[pos - 1]]).total_seconds()
                crosses_split = split_row is not None and pos - 1 == split_row
                if not crosses_split and gap > dt_seconds:
                    missing = int(gap / dt_seconds + 0.5) - 1
                    if missing > 0:
                        out_values.extend([out_values[-1]] * missing)
                        filled_total += missing
            if split_row is not None and pos == split_row + 1:
                split_at = len(out_values) - day_start
            out_values.append(math.log(prices[row_idx]))
        day_stop = len(out_values)
        day_slices.append((day_start, day_stop))
        if split_at is None:
            sessions.append([(day_start, day_stop)])
        else:
            sessions.append([(day_start, day_start + split_at), (day_start + split_at, day_stop)])

    lengths = {stop - start for start, stop in day_slices}
    if len(lengths) > 1:
        warnings.append(f"ragged day lengths: {sorted(lengths)}")
        logger.warning("ingest: ragged day lengths %s", sorted(lengths))
    if filled_total:
        logger.info("ingest: carried %d missing samples forward", filled_total)

    metadata = {
        "inferred_dt_seconds": dt_seconds,
        "filled_samples": filled_total,
        "warnings": warnings,
    }
    calendar = TradingCalendar(
        day_ids=day_ids,
        day_slices=day_slices,
        sessions=sessions,
        sessions_per_day=2 if session_gap is not None else 1,
        metadata=metadata,
    )
    series = TimeSeries(np.array(out_values, dtype=np.float64), dt=dt_seconds, label=label)
    return series, calendar
