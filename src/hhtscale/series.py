"""Series containers and market-data ingestion.

A :class:`TimeSeries` is a validated, immutable 1-D float array plus sample
spacing metadata.  :func:`ingest_prices` reads delimited price files (date /
time / price columns), converts to log prices, and returns a
:class:`TradingCalendar` describing how samples group into days and trading
sessions — the geometry later used to fold a measure track into an intraday
panel.  The pipeline decomposes the log prices themselves; nothing
differences them into returns.  :func:`read_values` reads one numeric column
instead; both go through one row reader.
"""

from __future__ import annotations

import csv
import math
import os
from contextlib import contextmanager
from dataclasses import dataclass, field
from datetime import datetime
from itertools import accumulate

import numpy as np

__all__ = [
    "DataError",
    "TimeSeries",
    "TradingCalendar",
    "ingest_prices",
    "read_values",
]


class DataError(ValueError):
    """Malformed input data (bad prices, unsorted rows, missing columns)."""


def _logger():
    """This module's logger; ``logging`` loads only when ingest has a note."""
    import logging

    return logging.getLogger(__name__)


@dataclass(frozen=True)
class TimeSeries:
    """Immutable 1-D real-valued series.

    ``dt`` is the sample spacing in whatever physical unit applies (seconds
    for ingested market data, 1.0 for synthetic series); downstream
    computations work in sample units throughout.
    """

    values: np.ndarray
    dt: float = 1.0

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


@dataclass
class TradingCalendar:
    """Day/session layout of an ingested series.

    ``day_slices`` holds ``(start, stop)`` half-open index ranges, one per
    day, ascending and non-overlapping.  ``splits`` holds, per day, the
    index where its second session begins when a lunch break was split
    out, and is ``None`` for one-session days.
    """

    day_ids: list[str]
    day_slices: list[tuple[int, int]]
    splits: list[int] | None = None
    metadata: dict = field(default_factory=dict)

    def __post_init__(self):
        n_days = len(self.day_ids)
        if len(self.day_slices) != n_days or (
            self.splits is not None and len(self.splits) != n_days
        ):
            raise ValueError("calendar arrays must have one entry per day")
        prev_stop = 0
        for day, (start, stop) in enumerate(self.day_slices):
            if not (0 <= start < stop):
                raise ValueError(f"day {day}: bad slice ({start}, {stop})")
            if start < prev_stop:
                raise ValueError(f"day {day}: slices overlap or are unordered")
            if self.splits is not None and not start <= self.splits[day] <= stop:
                raise ValueError(f"day {day}: split {self.splits[day]} outside the day")
            prev_stop = stop

    @property
    def n_days(self) -> int:
        return len(self.day_ids)

    def day_lengths(self) -> np.ndarray:
        return np.array([stop - start for start, stop in self.day_slices], dtype=np.intp)


@contextmanager
def _opened(source):
    """A text stream over a path, or an open text stream as it is."""
    if hasattr(source, "read"):
        yield source
    elif isinstance(source, (str, os.PathLike)):
        with open(source, "r", newline="") as stream:
            yield stream
    else:
        raise TypeError("source must be a path or a text stream")


def _shown(cell: str) -> str:
    """``repr`` of a cell quoted in an error, cut to at most 40 characters."""
    return repr(cell if len(cell) <= 40 else cell[:37] + "...")


def _read_rows(stream, columns, delimiter: str):
    """Yield ``(data row number, stripped cells of columns)`` per data row.

    The first line is the header and must name every column.  Lines that
    start with ``#`` and blank lines are skipped; data rows count from 1.
    A row with cells past the header, or one that ends before a column it
    is read for, raises :class:`DataError`, as does a malformed line.
    """
    if not (isinstance(delimiter, str) and len(delimiter) == 1):
        raise ValueError(f"delimiter must be one character, got {delimiter!r}")
    lines = (line for line in stream if not line.startswith("#"))
    reader = csv.reader(lines, delimiter=delimiter)
    header, row_num = None, 0
    try:
        header = next(reader, None)
        if header is None:
            raise DataError("empty input: no header row")
        fields = [name.strip() for name in header]
        index = {name: i for i, name in enumerate(fields)}  # a repeated name: the last
        for col in columns:
            if col not in index:
                shown = ", ".join(_shown(name) for name in fields)
                raise DataError(f"missing column {col!r} (header has [{shown}])")
        wanted = [index[col] for col in columns]
        for row in reader:
            if not row:  # a blank line
                continue
            row_num += 1
            if len(row) > len(fields):
                raise DataError(f"row {row_num}: {len(row)} fields, header has {len(fields)}")
            if len(row) <= max(wanted):
                raise DataError(f"row {row_num}: fewer fields than the header")
            yield row_num, [row[i].strip() for i in wanted]
    except csv.Error as exc:
        where = "header" if header is None else f"row {row_num + 1}"
        raise DataError(f"{where}: {exc}") from None


def read_values(source, column: str, delimiter: str = ",") -> TimeSeries:
    """Read one numeric column of a delimited file as a series (``dt`` 1.0)."""
    values = []
    with _opened(source) as stream:
        for row_num, (text,) in _read_rows(stream, [column], delimiter):
            try:
                values.append(float(text))
            except ValueError:
                raise DataError(
                    f"row {row_num}: bad value {_shown(text)} in column {column!r}"
                ) from None
    return TimeSeries(np.array(values))


def _median(values: list[float]) -> float:
    """The float ``np.median`` gives for a non-empty list: the middle value of
    an odd count, (a + b) / 2 of the middle two of an even one.  Written out
    because ``np.median`` imports ``numpy.ma``, a cost on every cold run
    that reads prices."""
    ordered = sorted(values)
    middle = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[middle]
    return (ordered[middle - 1] + ordered[middle]) / 2


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
    source : path or open text stream
    date_col, time_col, price_col : str
        Header names.  ``time_col=None`` groups rows by date only; the
        sample spacing is then 1.0.
    delimiter : str
        Field separator, one character.  Lines starting with ``#`` are
        skipped.
    session_gap : float or None
        When given (seconds, positive), a within-day gap of at least this
        size splits the day into two sessions (the lunch break).  Every
        day must then contain such a gap; of several, the largest splits.
        It must exceed the bar step: a day with two or more gaps, none of
        them below it, raises :class:`DataError`.  ``None`` keeps one
        session per day.
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
    if session_gap is not None:
        if time_col is None:
            raise ValueError("session_gap requires a time column")
        if not 0 < session_gap < math.inf:
            raise ValueError(
                f"session_gap must be a positive number of seconds, got {session_gap!r}"
            )
    columns = [date_col, price_col] + ([time_col] if time_col else [])
    dates: list[str] = []
    stamps: list[datetime] = []
    prices: list[float] = []
    with _opened(source) as stream:
        for row_num, (date_text, raw_price, *time_text) in _read_rows(stream, columns, delimiter):
            if not raw_price:
                raise DataError(f"row {row_num}: missing price")
            try:
                price = float(raw_price)
            except ValueError:
                raise DataError(f"row {row_num}: unparseable price {_shown(raw_price)}") from None
            if not math.isfinite(price) or price <= 0.0:
                raise DataError(f"row {row_num}: non-positive price {_shown(raw_price)}")
            raw_stamp = " ".join([date_text, *time_text])
            try:
                stamp = datetime.fromisoformat(raw_stamp.strip())
            except ValueError:
                shown = _shown(raw_stamp)
                raise DataError(f"row {row_num}: unparseable timestamp {shown}") from None
            if stamps and (stamp.tzinfo is None) != (stamps[-1].tzinfo is None):
                which = "has a UTC offset" if stamp.tzinfo else "has no UTC offset"
                raise DataError(
                    f"row {row_num}: timestamp {_shown(raw_stamp)} {which}, unlike the row before"
                )
            if stamps and not (stamp > stamps[-1] if time_col else stamp >= stamps[-1]):
                raise DataError(f"row {row_num}: timestamps not sorted ascending")
            dates.append(stamp.date().isoformat())
            stamps.append(stamp)
            prices.append(price)
    if not prices:
        raise DataError("no data rows")

    # the layout pass: gap i joins rows i and i + 1, within a day or across one
    n_rows = len(prices)
    gaps = [(b - a).total_seconds() for a, b in zip(stamps, stamps[1:])]
    firsts = [0] + [i + 1 for i in range(n_rows - 1) if dates[i + 1] != dates[i]]
    days = list(zip(firsts, firsts[1:] + [n_rows]))
    steps = []  # within-day gaps between bars of one session
    for first, stop in days:
        within = [gap for gap in gaps[first : stop - 1] if gap > 0]
        day_steps = [gap for gap in within if session_gap is None or gap < session_gap]
        if len(within) > 1 and not day_steps:
            # every gap would split a session: the session gap is below the bar step
            raise DataError(
                f"day {dates[first]}: all {len(within)} within-day gaps are >= the session "
                f"gap of {session_gap:g}s; it must exceed the bar step"
            )
        steps += day_steps
    dt_seconds = _median(steps) if steps else 1.0

    warnings: list[str] = []
    split_rows: list[int] = []
    counts = [1] * n_rows  # samples each row fills: itself plus the ones it carries forward
    for first, stop in days:
        split = None  # the gap between sessions
        if session_gap is not None:
            candidates = [i for i in range(first, stop - 1) if gaps[i] >= session_gap]
            if not candidates:
                raise DataError(f"day {dates[first]}: no session gap >= {session_gap}s found")
            if len(candidates) > 1:
                note = (
                    f"day {dates[first]}: {len(candidates)} session-size gaps; "
                    "splitting at the largest"
                )
                warnings.append(note)
                _logger().warning("ingest: %s", note)
            split = max(candidates, key=gaps.__getitem__)
            split_rows.append(split + 1)
        if fill == "ffill":
            for i in range(first, stop - 1):
                if i != split and gaps[i] > dt_seconds:
                    counts[i] += int(gaps[i] / dt_seconds + 0.5) - 1

    offsets = list(accumulate(counts, initial=0))  # output index of each row
    day_slices = [(offsets[first], offsets[stop]) for first, stop in days]
    lengths = sorted({stop - start for start, stop in day_slices})
    if len(lengths) > 1:
        warnings.append(f"ragged day lengths: {lengths}")
        _logger().warning("ingest: ragged day lengths %s", lengths)
    filled_total = offsets[-1] - n_rows
    if filled_total:
        _logger().info("ingest: carried %d missing samples forward", filled_total)

    calendar = TradingCalendar(
        day_ids=[dates[first] for first, _ in days],
        day_slices=day_slices,
        splits=[offsets[row] for row in split_rows] if session_gap is not None else None,
        metadata={
            "inferred_dt_seconds": dt_seconds,
            "filled_samples": filled_total,
            "warnings": warnings,
        },
    )
    values = np.repeat(np.array([math.log(price) for price in prices]), counts)
    return TimeSeries(values, dt=dt_seconds), calendar
