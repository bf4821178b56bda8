"""CSV ingestion, validation, and weather joining for a single bus route.

A route dataset couples three inputs: per-departure ridership counts, hourly
weather observations binarized into a rain flag, and a timetable that maps
each service index to its scheduled departure time from the first stop. The
weather attached to a service is the observation at the hour of that
departure.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass, replace
from datetime import date, time, timedelta
from enum import Enum
from functools import cached_property
from pathlib import Path
from typing import Callable, Mapping, Sequence

import numpy as np

from .errors import (
    DuplicateKey,
    EmptyDataset,
    HourOutOfRange,
    MalformedRow,
    MissingColumn,
    MissingTimetableEntry,
    MissingWeather,
    UnknownCategory,
    read_input,
)
from .nn_core import header_values, integer, read_arrays, read_header, save_params

ServiceKey = tuple[date, int]


class WeatherCategory(Enum):
    SUNNY = "Sunny"
    CLOUDY = "Cloudy"
    RAIN_SHOWERS = "RainShowers"
    RAIN = "Rain"
    FREEZING_RAIN = "FreezingRain"
    OTHER = "Other"


#: Categories that count as rain. The remaining two (Sunny, Cloudy) do not.
RAIN_CATEGORIES = frozenset(
    {
        WeatherCategory.RAIN_SHOWERS,
        WeatherCategory.RAIN,
        WeatherCategory.FREEZING_RAIN,
        WeatherCategory.OTHER,
    }
)


def _normalize_label(label: str) -> str:
    return " ".join(label.replace("_", " ").split()).lower()


#: Built-in spellings for the six categories; config alias maps extend this.
DEFAULT_CATEGORY_ALIASES: dict[str, WeatherCategory] = {
    "sunny": WeatherCategory.SUNNY,
    "cloudy": WeatherCategory.CLOUDY,
    "rain showers": WeatherCategory.RAIN_SHOWERS,
    "rainshowers": WeatherCategory.RAIN_SHOWERS,
    "rain": WeatherCategory.RAIN,
    "freezing rain": WeatherCategory.FREEZING_RAIN,
    "freezingrain": WeatherCategory.FREEZING_RAIN,
    "other": WeatherCategory.OTHER,
}

MIN_OBS_HOUR = 6
MAX_OBS_HOUR = 23


#: The six categories in code order: a weather column holds a category as its index here.
CATEGORIES = tuple(WeatherCategory)
_IS_RAIN = np.array([category in RAIN_CATEGORIES for category in CATEGORIES])


class _Columns:
    """Equal-length columns of one table, in row order; ``len`` is the row count."""

    day: Sequence[int]

    def __len__(self) -> int:
        return len(self.day)


@dataclass(frozen=True, eq=False)
class RidershipColumns(_Columns):
    """Ridership rows as (date ordinal, service, stop, count) columns, in input order.

    A parsed CSV gives int64 arrays, or an object array for an integer column
    holding a value beyond 64 bits. Any sequences are accepted:
    ``build_route_dataset`` validates the values.
    """

    day: Sequence[int]
    service: Sequence[int]
    stop: Sequence[int]
    count: Sequence[int]


@dataclass(frozen=True, eq=False)
class WeatherColumns(_Columns):
    """Hourly observations as columns in input order: int64 date ordinals, hours and
    category codes (indices into ``CATEGORIES``), and float64 precipitation."""

    day: np.ndarray
    hour: np.ndarray
    category: np.ndarray
    precipitation: np.ndarray

    @property
    def rain(self) -> np.ndarray:
        """The binarized weather: whether each observation's category counts as rain."""
        return _IS_RAIN[self.category]


@dataclass(frozen=True, eq=False)
class ServiceWeatherColumns(_Columns):
    """Weather joined onto services, as (date ordinal, service, rain flag, precipitation) columns.

    The join gives int64, bool and float64 arrays; any sequences are
    accepted, and ``build_route_dataset`` validates the values.
    """

    day: Sequence[int]
    service: Sequence[int]
    rain: Sequence[bool]
    precipitation: Sequence[float]


#: Default timetable: 26 services, 30-minute headway in the morning and
#: evening peaks, hourly in between. Departure times at the first stop.
DEFAULT_TIMETABLE: dict[int, time] = dict(
    enumerate(
        [time(6, 40), time(7, 10), time(7, 40), time(8, 10), time(8, 40), time(9, 10),
         time(9, 40), time(10, 40), time(11, 40), time(12, 40), time(13, 40),
         time(14, 40), time(15, 10), time(15, 40), time(16, 10), time(16, 40),
         time(17, 10), time(17, 40), time(18, 10), time(18, 40), time(19, 10),
         time(19, 40), time(20, 10), time(20, 40), time(21, 10), time(21, 40)],
        start=1,
    )
)

DEFAULT_RIDERSHIP_COLUMNS = {
    "date": "date",
    "service_index": "service_index",
    "stop_index": "stop_index",
    "ridership": "ridership",
}

WEATHER_COLUMNS = ("date", "hour", "category", "precipitation_mm")


#: Every byte but the comma and the line feed, on which a quote-free CSV is split.
_NOT_SEPARATOR = bytes(sorted(set(range(256)) - set(b",\n")))


def _split_quote_free(text: str) -> tuple[list[str], int, list[list[str]]] | None:
    """The header, row count and columns that ``csv.reader`` reads from ``text``, split with ``str.split``.

    None unless the csv module would split the text on commas alone: after
    CRLF becomes LF, the text holds no quote, no other CR and no NUL, no line
    is longer than the field size limit, and every line but a blank one has
    as many fields as the first. Blank lines are dropped, as ``csv.reader``
    reads them as empty rows; an empty first line is an empty header.
    """
    text = text.replace("\r\n", "\n")
    if '"' in text or "\r" in text or "\0" in text:
        return None
    first = text.partition("\n")[0]
    if not first:
        return None if text.strip("\n") else ([], 0, [])
    while "\n\n" in text:
        text = text.replace("\n\n", "\n")
    text = text.rstrip("\n")
    raw = text.encode()
    breaks = np.flatnonzero(np.frombuffer(raw, np.uint8) == ord("\n"))
    # a line's UTF-8 bytes bound its characters
    if np.diff(breaks, prepend=-1, append=len(raw)).max() - 1 > csv.field_size_limit():
        return None
    width = first.count(",") + 1
    if raw.translate(None, _NOT_SEPARATOR) != ((b"," * (width - 1) + b"\n") * (len(breaks) + 1))[:-1]:
        return None
    fields = text.replace("\n", ",").split(",")
    return fields[:width], len(breaks), [fields[width + j :: width] for j in range(width)]


class _CsvTable:
    """A CSV file's header and non-blank row count, with the columns of its full-length rows.

    Rows are validated in file order, so only the rows before the first one
    with fewer fields than the header are split into columns: a failure among
    them comes first, and that short row comes next. A leading byte order
    mark is not part of the text. A quote-free file is split with
    ``str.split`` (``_split_quote_free``), any other with ``csv.reader``;
    both give the same table.
    """

    def __init__(self, path: Path, what: str):
        self.path = path
        self.text = read_input(path, what).removeprefix("\ufeff")
        split = _split_quote_free(self.text)
        if split is not None:
            self.header, self.n_rows, self.columns = split
            self.n_full = self.n_rows
        else:
            reader = csv.reader(io.StringIO(self.text, newline=""))
            try:
                self.header = next(reader, [])
                rows = [row for row in reader if row]
            except csv.Error as exc:
                raise MalformedRow(f"{path}:{reader.line_num}: {exc}") from None
            short = np.flatnonzero(np.fromiter(map(len, rows), np.intp, len(rows)) < len(self.header))
            self.n_rows = len(rows)
            self.n_full = int(short[0]) if short.size else len(rows)
            self.columns = list(zip(*rows[: self.n_full])) or [()] * len(self.header)
        self.position = {name: i for i, name in enumerate(self.header)}

    def column(self, name: str) -> Sequence[str]:
        return self.columns[self.position[name]]

    def raise_first(self, *checks: tuple[np.ndarray, type[Exception], Callable[[int], str]]) -> None:
        """Raise for the first row that is short or fails a check, prefixed with its ``path:line``.

        Each check flags the full rows it fails and builds the message for a
        row; the first check that flags the row raises, through
        ``_raise_first``, as its exception class. The full rows all come
        before the short one.
        """
        _raise_first(*((flags, lambda i, error=error, message=message: error(f"{self._line(i)[0]}: {message(i)}"))
                       for flags, error, message in checks))
        if self.n_full < self.n_rows:
            where, row = self._line(self.n_full)
            raise MalformedRow(f"{where}: expected {len(self.header)} fields, got {len(row)}")

    def _line(self, i: int) -> tuple[str, list[str]]:
        """``path:line`` of non-blank row i, the line being the physical one on which the row ends, and the row;
        found by reading the text again."""
        reader = csv.reader(io.StringIO(self.text, newline=""))
        next(reader)  # the header, blank or not
        rows = (row for row in reader if row)
        for _ in range(i + 1):
            row = next(rows)
        return f"{self.path}:{reader.line_num}", row


def _parse_column(raws: Sequence[str], parse: Callable[[str], object], dtype: type) -> tuple[np.ndarray, np.ndarray]:
    """Parse each distinct string of a column once, stripped of surrounding whitespace.

    Returns the values as ``dtype`` (as objects where an integer does not fit
    it), and a flag on each value that ``parse`` rejected (stored as 0).
    """
    distinct = list(set(raws))
    values, bad = [], []
    for raw in distinct:
        try:
            values.append(parse(raw.strip()))
            bad.append(False)
        except (KeyError, ValueError):
            values.append(0)
            bad.append(True)
    try:
        parsed = np.array(values, dtype=dtype)
    except OverflowError:
        parsed = np.array(values, dtype=object)
    rows = np.fromiter(map({raw: i for i, raw in enumerate(distinct)}.__getitem__, raws), np.intp, len(raws))
    return parsed[rows], np.array(bad, dtype=bool)[rows]


def _integer_column(raws: Sequence[str], minimum: int) -> tuple[np.ndarray, list[tuple]]:
    """An integer column as ``_parse_column`` parses it, and its checks: an integer, then at least ``minimum``."""
    values, bad = _parse_column(raws, int, np.int64)
    return values, [
        (bad, MalformedRow, lambda i: f"bad integer {raws[i]!r}"),
        (values < minimum, MalformedRow, lambda i: f"value {int(values[i])} below minimum {minimum}"),
    ]


def _date_ordinal(text: str) -> int:
    return date.fromisoformat(text).toordinal()


def _repeated(*keys: np.ndarray) -> np.ndarray:
    """Flags the rows whose key columns all equal those of an earlier row."""
    keys = tuple(np.unique(k, return_inverse=True)[1] if k.dtype == object else k for k in keys)
    order = np.lexsort(keys[::-1])
    repeated = np.zeros(len(order), dtype=bool)
    repeated[order[1:][np.logical_and.reduce([np.diff(k[order]) == 0 for k in keys])]] = True
    return repeated


def parse_ridership_csv(
    path: str | Path,
    columns: Mapping[str, str] | None = None,
) -> RidershipColumns:
    """Parse and validate a ridership CSV into columns, preserving row order.

    ``columns`` remaps the canonical field names (date, service_index,
    stop_index, ridership) to the file's actual header names. The first bad
    row in file order raises, with its first failing check: too few fields,
    the date, the service index (at least 1), the stop index (at least 1),
    the count (at least 0), then a (date, service, stop) seen before.
    """
    path = Path(path)
    colmap = dict(DEFAULT_RIDERSHIP_COLUMNS)
    if columns:
        colmap.update(columns)
    table = _CsvTable(path, "ridership CSV")
    for canonical, actual in colmap.items():
        if actual not in table.position:
            raise MissingColumn(f"{path}: column {actual!r} (for {canonical}) not in header")

    dates = table.column(colmap["date"])
    day, bad_day = _parse_column(dates, _date_ordinal, np.int64)
    (service, service_checks), (stop, stop_checks), (count, count_checks) = (
        _integer_column(table.column(colmap[name]), minimum)
        for name, minimum in (("service_index", 1), ("stop_index", 1), ("ridership", 0))
    )
    table.raise_first(
        (bad_day, MalformedRow, lambda i: f"bad date {dates[i]!r}"), *service_checks, *stop_checks, *count_checks,
        (_repeated(day, service, stop), DuplicateKey, lambda i: "repeated (date, service, stop) "
         f"{(date.fromordinal(int(day[i])), int(service[i]), int(stop[i]))}"),
    )
    return RidershipColumns(day, service, stop, count)


def parse_weather_csv(
    path: str | Path,
    aliases: Mapping[str, str] | None = None,
) -> WeatherColumns:
    """Parse hourly weather rows into columns; hours outside [6, 23] are rejected.

    ``aliases`` maps source-language labels to one of the six canonical
    category names (e.g. ``{"ame": "Rain"}``). The first bad row in file
    order raises, with its first failing check: too few fields, the date, the
    hour, its range, the category, the precipitation (a finite number, at
    least 0), then a (date, hour) seen before.
    """
    path = Path(path)
    lookup = dict(DEFAULT_CATEGORY_ALIASES)
    if aliases:
        for alias, canonical in aliases.items():
            target = DEFAULT_CATEGORY_ALIASES.get(_normalize_label(canonical))
            if target is None:
                raise UnknownCategory(f"alias {alias!r} maps to unknown category {canonical!r}")
            lookup[_normalize_label(alias)] = target
    table = _CsvTable(path, "weather CSV")
    for name in WEATHER_COLUMNS:
        if name not in table.position:
            raise MissingColumn(f"{path}: column {name!r} not in header")

    code = {label: CATEGORIES.index(category) for label, category in lookup.items()}
    dates, hours, labels, amounts = (table.column(name) for name in WEATHER_COLUMNS)
    day, bad_day = _parse_column(dates, _date_ordinal, np.int64)
    hour, bad_hour = _parse_column(hours, int, np.int64)
    category, bad_category = _parse_column(labels, lambda s: code[_normalize_label(s)], np.int64)
    precipitation, bad_precipitation = _parse_column(amounts, float, np.float64)
    table.raise_first(
        (bad_day, MalformedRow, lambda i: f"bad date {dates[i]!r}"),
        (bad_hour, MalformedRow, lambda i: f"bad integer {hours[i]!r}"),
        ((hour < MIN_OBS_HOUR) | (hour > MAX_OBS_HOUR), HourOutOfRange,
         lambda i: f"hour {int(hour[i])} outside [{MIN_OBS_HOUR}, {MAX_OBS_HOUR}]"),
        (bad_category, UnknownCategory, lambda i: f"unknown weather category {labels[i]!r}"),
        (bad_precipitation, MalformedRow, lambda i: f"bad number {amounts[i]!r}"),
        (precipitation < 0.0, MalformedRow, lambda i: f"value {float(precipitation[i])} below minimum 0.0"),
        (~np.isfinite(precipitation), MalformedRow, lambda i: f"non-finite number {amounts[i]!r}"),
        (_repeated(day, hour), DuplicateKey,
         lambda i: f"repeated (date, hour) {(date.fromordinal(int(day[i])), int(hour[i]))}"),
    )
    return WeatherColumns(day, hour, category, precipitation)


def join_weather_to_services(
    records: RidershipColumns,
    weather: WeatherColumns,
    timetable: Mapping[int, time],
) -> ServiceWeatherColumns:
    """Attach to each (date, service) the observation at its scheduled departure hour.

    The hour is the floor of the departure time from the first stop; the
    route fits within an hour, so one observation covers the whole run.
    The first error found is raised: the first repeated (date, hour)
    observation in input order, then the first record in input order whose
    service has no departure time or whose departure hour no observation.
    Returns one row per (date, service) of the records, in that order.
    """
    w_day, w_hour = weather.day, weather.hour
    _raise_first((_repeated(w_day, w_hour), lambda i: DuplicateKey(
        f"duplicate weather observation for {(date.fromordinal(int(w_day[i])), int(w_hour[i]))}")))
    first = int(w_day.min()) if len(weather) else 0
    observation = np.full((int(w_day.max()) - first + 1 if len(weather) else 0, 24), -1, dtype=np.intp)
    on_grid = (w_hour >= 0) & (w_hour < 24)
    observation[w_day[on_grid] - first, w_hour[on_grid]] = np.flatnonzero(on_grid)

    day = np.asarray(records.day, dtype=np.int64) - first
    service, bad_service = _int_column(records.service)
    services, slot = np.unique(service, return_inverse=True)
    hour = np.array([timetable[s].hour if s in timetable else -1 for s in services.tolist()], dtype=np.intp)[slot]
    hour[bad_service] = -1
    found = (hour >= 0) & (day >= 0) & (day < len(observation))
    obs = np.full(len(day), -1, dtype=np.intp)
    obs[found] = observation[day[found], hour[found]]
    _raise_first(
        (hour < 0, lambda i: MissingTimetableEntry(f"service {records.service[i]} has no departure time")),
        (obs < 0, lambda i: MissingWeather(f"no weather for {date.fromordinal(int(day[i]) + first)} hour {hour[i]}")),
    )

    _, pick = np.unique(day * len(services) + slot, return_index=True)
    obs = obs[pick]
    return ServiceWeatherColumns(day[pick] + first, service[pick], weather.rain[obs], weather.precipitation[obs])


def check_date_span(path: str | Path, columns: _Columns) -> None:
    """Refuse a parsed CSV whose dates span more days than it has rows, naming both dates and the row count.

    The join's observation index and the dataset grid have a day axis as long as the span, so this runs
    before either is sized."""
    if len(columns):
        first, last = int(np.min(columns.day)), int(np.max(columns.day))
        if last - first + 1 > len(columns):
            raise MalformedRow(f"{path}: its dates run from {date.fromordinal(first)} to {date.fromordinal(last)}, "
                               f"{last - first + 1} days, more than its {len(columns)} rows")


def check_grid_size(path: str | Path, records: RidershipColumns, n_stops: int, services_per_day: int) -> None:
    """Refuse ridership records whose span of days times their stops exceeds their rows, naming the grid's sizes.

    The span and the stop count are each bounded by the rows, but not their product, and the dataset grid is
    (days, services, stops): this keeps it within ``services_per_day`` cells per row, that is, on average
    one record per stop per day."""
    if len(records):
        days = int(np.max(records.day)) - int(np.min(records.day)) + 1
        if days * n_stops > len(records):
            raise MalformedRow(f"{path}: its {days} days x {n_stops} stops are more than its {len(records)} rows, "
                               f"for a grid of {days} x {services_per_day} x {n_stops} = "
                               f"{days * services_per_day * n_stops} cells")


def route_shape(records: RidershipColumns) -> tuple[int, int]:
    """The (n_stops, services_per_day) parsed records state: their highest stop and service index, once
    every stop 1..n has a record. Costs in proportion to the rows, never to an index; (0, 0) for no rows."""
    stops = np.unique(records.stop, return_inverse=True)[0]  # sorts, as the join does; the hash path adds ~1 MB RSS
    if (gap := np.flatnonzero(stops != np.arange(1, len(stops) + 1))).size:
        raise EmptyDataset(f"stop {gap[0] + 1} has no ridership record (the highest stop index is {stops[-1]})")
    return len(stops), int(np.max(records.service, initial=0))


def service_key(slot: int, services_per_day: int) -> ServiceKey:
    """The (date, service) of an absolute slot ``date.toordinal() * services_per_day + service - 1``."""
    day, index = divmod(int(slot), services_per_day)
    return date.fromordinal(day), index + 1


#: The grids of a dataset, in cache order, with the dtype each has in a version-4 cache.
GRIDS = {
    "ridership": np.dtype("<i8"),
    "mask": np.dtype(bool),
    "rain": np.dtype(bool),
    "precipitation": np.dtype("<f8"),
    "weather_mask": np.dtype(bool),
}


@dataclass(frozen=True, eq=False)
class RouteDataset:
    """One route's observations as a dense (day, service, stop) grid.

    Day d of the grid is ``first_date + d``; service s and stop b sit at
    index s-1 and b-1. ``ridership`` holds the observed counts (0 where
    ``mask`` is unset) and ``rain``/``precipitation`` the weather joined onto
    each service (where ``weather_mask`` is set; False and 0.0 elsewhere). A
    service is complete when every stop has a count; only complete services
    are encoded downstream. A date range of the route is a slice of the day
    axis, so splits share these arrays. Downstream, a service is named by
    its absolute slot ``date.toordinal() * S + service - 1``, which counts
    the timetable's services one by one across days.

    The cache ``save`` writes is the checkpoint container (see
    ``nn_core.save_params``): a JSON header of ``format``, ``version`` 4,
    ``n_stops``, ``services_per_day``, ``first_date`` and ``days``, then each
    grid of ``GRIDS`` as its little-endian, C-order bytes.
    """

    n_stops: int
    services_per_day: int
    first_date: date
    ridership: np.ndarray  # (days, S, n) int64
    mask: np.ndarray  # (days, S, n) bool
    rain: np.ndarray  # (days, S) bool
    precipitation: np.ndarray  # (days, S) float64
    weather_mask: np.ndarray  # (days, S) bool

    @cached_property
    def complete(self) -> np.ndarray:
        """(days, S) bool: the services observed at every stop."""
        return self.mask.all(-1)

    @property
    def first_slot(self) -> int:
        """The slot of service 1 on ``first_date``; grid cell (d, s - 1) holds slot first_slot + d * S + s - 1."""
        return self.first_date.toordinal() * self.services_per_day

    def dates(self) -> list[date]:
        """The dates with at least one observed count, in order."""
        days = np.flatnonzero(self.mask.any(axis=(1, 2)))
        return [self.first_date + timedelta(days=d) for d in days.tolist()]

    def date_range(self) -> tuple[date, date]:
        dates = self.dates()
        return dates[0], dates[-1]

    def subset_by_dates(self, start: date, end: date) -> "RouteDataset":
        """The days start <= date <= end, as views of this dataset's arrays."""
        n_days = len(self.mask)
        lo = min(max((start - self.first_date).days, 0), n_days)
        days = slice(lo, max(min((end - self.first_date).days + 1, n_days), lo))
        subset = replace(
            self,
            first_date=self.first_date + timedelta(days=lo),
            **{name: getattr(self, name)[days] for name in GRIDS},
        )
        if not subset.mask.any():
            raise EmptyDataset("no ridership records")
        return subset

    def save(self, path: str | Path) -> None:
        """Write the version-4 cache: the header, then each grid of ``GRIDS`` in the checkpoint container."""
        header = {
            "format": "buscast-dataset",
            "version": 4,
            "n_stops": self.n_stops,
            "services_per_day": self.services_per_day,
            "first_date": self.first_date.isoformat(),
            "days": len(self.mask),
        }
        save_params(path, header, [(name, np.asarray(getattr(self, name), dtype)) for name, dtype in GRIDS.items()])

    @classmethod
    def load(cls, path: str | Path) -> "RouteDataset":
        """Read a version-4 cache, validating it as outside input; the grids are read-only views of its bytes.

        The first error found is raised, in this order: neither the container
        nor JSON; not a buscast cache; a version-1, -2 or -3 cache (JSON, as
        written before the container), then any version but 4; a container
        that ``nn_core.read_arrays`` refuses (its version, its ``params``
        list, arrays the file cuts short, bytes after the last array); a
        missing grid, or an array that is not a grid; the first header key,
        in the order ``n_stops``, ``services_per_day``, ``days``,
        ``first_date``, that is missing or that ``nn_core.header_values``
        refuses; days that run past the last date; the first grid, in
        ``GRIDS`` order, that is not a days x services_per_day (x n_stops)
        grid of its dtype; then the cells, as ``_check_cells`` checks them.
        """
        raw = read_input(path, "dataset cache", text=False)
        try:
            container = read_header(raw)
            header, offset = container or (json.loads(raw), None)
        except (ValueError, RecursionError) as exc:  # RecursionError: nesting too deep to decode
            raise MalformedRow(f"{path}: malformed dataset cache: {exc}") from None
        if not (isinstance(header, dict) and header.get("format") == "buscast-dataset"):
            raise MalformedRow(f"{path}: not a buscast dataset cache")
        version = header.get("version")
        if type(version) is int and version in (1, 2, 3):
            raise MalformedRow(f"{path}: version-{version} dataset cache; run 'buscast ingest' again to rewrite it")
        if type(version) is not int or version != 4 or offset is None:
            raise MalformedRow(f"{path}: unsupported dataset cache version {version!r}")
        try:
            arrays = read_arrays(raw, header, offset)
        except ValueError as exc:
            raise MalformedRow(f"{path}: {exc}") from None
        for name in (*GRIDS, *arrays):  # the first grid missing, then the first array that is not a grid
            if name not in arrays:
                raise MalformedRow(f"{path}: dataset cache lacks {name!r}")
            if name not in GRIDS:
                raise MalformedRow(f"{path}: dataset cache holds {name!r}, which is not a grid")
        n_stops, services, days, first_date = header_values(header, {
            "n_stops": integer(1), "services_per_day": integer(1), "days": integer(0), "first_date": date.fromisoformat,
        }, lambda message: MalformedRow(f"{path}: {message}")).values()
        if days and first_date.toordinal() + days - 1 > date.max.toordinal():
            raise MalformedRow(f"{path}: {days} days from {first_date} run past the last representable date")
        for name, dtype in GRIDS.items():
            grid = (days, services, n_stops) if name in ("ridership", "mask") else (days, services)
            stored = arrays[name]
            if (stored.shape, stored.dtype) != (grid, dtype):
                raise MalformedRow(f"{path}: {name!r} is a {' x '.join(map(str, stored.shape))} grid of "
                                   f"{stored.dtype.name}, not a {' x '.join(map(str, grid))} grid of {dtype.name}")
        dataset = cls(n_stops, services, first_date, **{name: arrays[name] for name in GRIDS})
        _check_cells(dataset)
        return dataset


def _int_column(values: Sequence) -> tuple[np.ndarray, np.ndarray]:
    """``values`` as int64, plus a flag on each one that is not a 64-bit integer (stored as 0)."""
    column = np.asarray(values)
    if column.dtype.kind == "i":
        return column.astype(np.int64, copy=False), np.zeros(len(column), dtype=bool)
    if column.dtype == object and set(map(type, column.tolist())) <= {int}:
        try:
            return column.astype(np.int64), np.zeros(len(column), dtype=bool)
        except OverflowError:  # an integer beyond 64 bits, flagged below
            pass
    low, high = np.iinfo(np.int64).min, np.iinfo(np.int64).max
    integral = (lambda v: isinstance(v, (int, np.integer)) and not isinstance(v, bool) and low <= v <= high)
    bad = np.array([not integral(v) for v in values], dtype=bool)
    return np.array([0 if b else v for v, b in zip(values, bad)], dtype=np.int64), bad


def _raise_first(*checks: tuple[np.ndarray, Callable[[int], Exception]]) -> None:
    """Raise the error for the first index any check flags, from the first check that flags it."""
    failing = np.logical_or.reduce([flags for flags, _ in checks])
    if failing.any():
        i = int(np.argmax(failing))
        raise next(error(i) for flags, error in checks if flags[i])


def _check_cells(dataset: RouteDataset) -> None:
    """Validate a dataset's cells; its bool grids may hold any byte.

    The first error found is raised, in this order: the first bad count cell
    in (date, service, stop) order, with its first failing check: an
    observed flag that is not 0 or 1, a count where none is observed, then a
    negative count; no count at all; the first observed service without
    weather; the first (date, service) with bad weather, with its first
    failing check: a weather or rain flag that is not 0 or 1, a rain flag or
    a precipitation set without weather, then a precipitation that is
    negative or not finite.
    """
    observed, counts = dataset.mask.view(np.uint8).ravel(), dataset.ridership.ravel()
    n_stops, services = dataset.n_stops, dataset.services_per_day

    def cell(i: int) -> tuple[date, int, int]:
        return (*service(i // n_stops), i % n_stops + 1)

    def service(i: int) -> ServiceKey:
        return service_key(dataset.first_slot + i, services)

    _raise_first(
        (observed > 1, lambda i: MalformedRow(f"observed flag {observed[i]} for {cell(i)} is not 0 or 1")),
        ((observed == 0) & (counts != 0),
         lambda i: MalformedRow(f"ridership {counts[i]} for {cell(i)} is not observed")),
        (counts < 0, lambda i: MalformedRow(f"negative ridership {counts[i]}")),
    )
    if not observed.any():
        raise EmptyDataset("no ridership records")

    weather, rain = dataset.weather_mask.view(np.uint8).ravel(), dataset.rain.view(np.uint8).ravel()
    amount = dataset.precipitation.ravel()
    _raise_first((
        observed.reshape(-1, n_stops).any(-1) & (weather == 0),
        lambda i: MissingWeather(f"no service weather for {service(i)}"),
    ))
    _raise_first(
        (weather > 1, lambda i: MalformedRow(f"weather flag {weather[i]} for {service(i)} is not 0 or 1")),
        (rain > 1, lambda i: MalformedRow(f"rain flag {rain[i]} for {service(i)} is not 0 or 1")),
        ((weather == 0) & (rain != 0), lambda i: MalformedRow(f"rain flag for {service(i)} is set without weather")),
        ((weather == 0) & (amount.view(np.uint64) != 0),  # -0.0 and NaN too: an unobserved cell holds 0.0
         lambda i: MalformedRow(f"precipitation {amount[i]} for {service(i)} is set without weather")),
        (~(amount >= 0.0) | np.isinf(amount),
         lambda i: MalformedRow(f"precipitation {amount[i]} for {service(i)} is negative or not finite")),
    )


def build_route_dataset(
    records: RidershipColumns, weather: ServiceWeatherColumns, n_stops: int, services_per_day: int,
) -> RouteDataset:
    """Validate record and service-weather columns, given in input order, and lay them out as a grid.

    The first error found is raised, in this order: no records; the first
    repeated service weather in input order; the first bad record in (date,
    service, stop) order, with its first failing check; the first service
    weather outside the timetable in input order; then the laid-out grid's
    cells, as ``_check_cells`` checks them (so the first service without
    weather, then the first bad precipitation in (date, service) order).
    """
    day, service, stop, count = records.day, records.service, records.stop, records.count
    w_day, w_service, rain = weather.day, weather.service, weather.rain
    if not len(day):
        raise EmptyDataset("no ridership records")
    w_day = np.array(w_day, dtype=np.int64)
    w_svc, w_bad = _int_column(w_service)
    _raise_first((w_bad, lambda i: MalformedRow(f"non-integer service index {w_service[i]!r} in service weather")))
    _raise_first((_repeated(w_day, w_svc), lambda i: DuplicateKey(
        f"duplicate service weather for {(date.fromordinal(int(w_day[i])), int(w_svc[i]))}")))

    (svc, bad_svc), (stp, bad_stp), (cnt, bad_cnt) = (_int_column(c) for c in (service, stop, count))
    days = np.array(day, dtype=np.int64)
    order = np.lexsort((stp, svc, days))
    days, svc, stp, cnt = days[order], svc[order], stp[order], cnt[order]
    repeated = np.zeros(len(order), dtype=bool)
    repeated[1:] = (np.diff(days) == 0) & (np.diff(svc) == 0) & (np.diff(stp) == 0)
    checks = (
        (bad_svc[order], lambda i: MalformedRow(f"service index {service[order[i]]!r} is not a 64-bit integer")),
        ((svc < 1) | (svc > services_per_day),
         lambda i: MalformedRow(f"service index {service[order[i]]} outside [1, {services_per_day}]")),
        (bad_stp[order], lambda i: MalformedRow(f"stop index {stop[order[i]]!r} is not a 64-bit integer")),
        ((stp < 1) | (stp > n_stops), lambda i: MalformedRow(f"stop index {stop[order[i]]} outside [1, {n_stops}]")),
        (bad_cnt[order], lambda i: MalformedRow(f"ridership {count[order[i]]!r} is not a 64-bit integer")),
        (cnt < 0, lambda i: MalformedRow(f"negative ridership {count[order[i]]}")),
        (repeated, lambda i: DuplicateKey(
            f"repeated (date, service, stop) {(date.fromordinal(int(days[i])), int(svc[i]), int(stp[i]))}")),
    )
    _raise_first(*checks)
    _raise_first(((w_svc < 1) | (w_svc > services_per_day),
                  lambda i: MalformedRow(f"service weather for service {w_svc[i]} outside [1, {services_per_day}]")))

    first = int(min(days[0], w_day.min(initial=days[0])))
    n_days = int(max(days[-1], w_day.max(initial=days[-1]))) - first + 1
    ridership = np.zeros((n_days, services_per_day, n_stops), dtype=np.int64)
    mask = np.zeros(ridership.shape, dtype=bool)
    ridership[days - first, svc - 1, stp - 1] = cnt
    mask[days - first, svc - 1, stp - 1] = True
    cells = (w_day - first, w_svc - 1)
    weather_mask, rain_grid = np.zeros((2, n_days, services_per_day), dtype=bool)
    weather_mask[cells], rain_grid[cells] = True, np.array(rain, dtype=bool)
    precipitation = np.zeros((n_days, services_per_day), dtype=np.float64)
    precipitation[cells] = np.array(weather.precipitation, dtype=np.float64)

    dataset = RouteDataset(
        n_stops, services_per_day, date.fromordinal(first), ridership, mask, rain_grid, precipitation, weather_mask,
    )
    _check_cells(dataset)
    return dataset


def _write_csv(path: str | Path, header: Sequence[str], day: Sequence[int], *columns: Sequence) -> None:
    """Write ``header``, then a row per date ordinal of ``day`` and value of each of ``columns``, as
    ``csv.writer`` writes values that need no quoting: ISO dates, each value's ``str``, CRLF line ends."""
    day = np.asarray(day).tolist()
    iso = {d: date.fromordinal(d).isoformat() for d in set(day)}
    row = ",".join(["{}"] * len(header)) + "\r\n"
    rows = map(row.format, map(iso.__getitem__, day), *(np.asarray(c).tolist() for c in columns))
    Path(path).write_text(row.format(*header) + "".join(rows), encoding="utf-8", newline="")


def write_ridership_csv(columns: RidershipColumns, path: str | Path) -> None:
    _write_csv(path, tuple(DEFAULT_RIDERSHIP_COLUMNS), columns.day, columns.service, columns.stop, columns.count)


def write_weather_csv(columns: WeatherColumns, path: str | Path) -> None:
    labels = np.array([category.value for category in CATEGORIES])[columns.category]
    _write_csv(path, WEATHER_COLUMNS, columns.day, columns.hour, labels, columns.precipitation)


def timetable_from_strings(departures: Sequence[str]) -> dict[int, time]:
    """Build a timetable from "HH:MM" strings, service indices 1..S in order."""
    table: dict[int, time] = {}
    for i, raw in enumerate(departures, start=1):
        try:
            table[i] = time.fromisoformat(raw.strip())
        except ValueError as exc:
            raise MalformedRow(f"bad departure time {raw!r}") from exc
    return table
