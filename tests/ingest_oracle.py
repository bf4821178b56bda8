"""Reference row-by-row CSV parsing and weather join, kept as an exact-equality oracle.

This is the straightforward implementation the columnar ingest in
``buscast.data_ingest`` replaced: a ``DictReader`` dict, a parsed date and a
dataclass per row, and a dict lookup per (date, service) for the join. The
columnar path must raise the same errors, or return the same rows, except
where it rejects more: a row with fewer fields than the header, a file that
is not UTF-8, and a precipitation that is not finite.

``csv_table`` reads a CSV file's table by ``csv.reader`` alone: the
reference for ``data_ingest._CsvTable``, which splits a quote-free file
with ``str.split``.

The helpers at the end convert between these row lists and the columns,
list a dataset's incomplete services, and read, edit and write a dataset
cache, as a payload of header keys and grid arrays, independently of
``RouteDataset.save`` and ``load``.
The row types, ``RidershipRecord`` and ``WeatherObservation``, are the
oracle's own: the library reads and writes only columns.
"""

from __future__ import annotations

import csv
import io
import json
import math
import struct
from dataclasses import dataclass, fields
from datetime import date, time, timedelta
from pathlib import Path
from typing import Iterable, Mapping

import numpy as np

from buscast.data_ingest import (
    DEFAULT_CATEGORY_ALIASES,
    DEFAULT_RIDERSHIP_COLUMNS,
    MAX_OBS_HOUR,
    MIN_OBS_HOUR,
    RAIN_CATEGORIES,
    WEATHER_COLUMNS,
    CATEGORIES,
    RidershipColumns,
    GRIDS,
    RouteDataset,
    ServiceKey,
    ServiceWeatherColumns,
    WeatherCategory,
    WeatherColumns,
)
from buscast.errors import (
    DuplicateKey,
    HourOutOfRange,
    MalformedRow,
    MissingColumn,
    MissingTimetableEntry,
    MissingWeather,
    UnknownCategory,
)


@dataclass(frozen=True)
class RidershipRecord:
    """One observed departure: persons on board when leaving a stop."""

    service_date: date
    service_index: int
    stop_index: int
    ridership: int


@dataclass(frozen=True)
class WeatherObservation:
    """One hourly weather row in the 6:00-23:00 collection window."""

    obs_date: date
    obs_hour: int
    category: WeatherCategory
    precipitation_mm: float


@dataclass(frozen=True)
class ServiceWeather:
    """Weather joined onto one service: binarized rain flag plus raw precipitation."""

    service_date: date
    service_index: int
    rain_flag: bool
    precipitation_mm: float


def _normalize_label(label: str) -> str:
    return " ".join(label.replace("_", " ").split()).lower()


def _parse_date(raw: str, where: str) -> date:
    try:
        return date.fromisoformat(raw.strip())
    except ValueError as exc:
        raise MalformedRow(f"{where}: bad date {raw!r}") from exc


def _parse_int(raw: str, where: str, minimum: int | None = None) -> int:
    try:
        value = int(raw.strip())
    except ValueError as exc:
        raise MalformedRow(f"{where}: bad integer {raw!r}") from exc
    if minimum is not None and value < minimum:
        raise MalformedRow(f"{where}: value {value} below minimum {minimum}")
    return value


def _parse_float(raw: str, where: str, minimum: float | None = None) -> float:
    try:
        value = float(raw.strip())
    except ValueError as exc:
        raise MalformedRow(f"{where}: bad number {raw!r}") from exc
    if minimum is not None and value < minimum:
        raise MalformedRow(f"{where}: value {value} below minimum {minimum}")
    return value


def csv_table(path: Path, text: str) -> tuple[list[str], dict[str, int], int, int, list[list[str]], list[int]]:
    """The table ``csv.reader`` reads from ``text``: the header, each name's last position in it, the
    non-blank row count, the count of rows before the first one shorter than the header, the columns of
    those rows, and the line each row ends on. A csv error raises ``MalformedRow`` at ``path:line``."""
    reader = csv.reader(io.StringIO(text, newline=""))
    rows, lines = [], []
    try:
        header = next(reader, [])
        for row in reader:
            if row:
                rows.append(row)
                lines.append(reader.line_num)
    except csv.Error as exc:
        raise MalformedRow(f"{path}:{reader.line_num}: {exc}") from None
    n_full = next((i for i, row in enumerate(rows) if len(row) < len(header)), len(rows))
    columns = [list(column) for column in zip(*rows[:n_full])] or [[] for _ in header]
    return header, {name: i for i, name in enumerate(header)}, len(rows), n_full, columns, lines


def parse_ridership_csv(
    path: str | Path,
    columns: Mapping[str, str] | None = None,
) -> list[RidershipRecord]:
    """Parse and validate a ridership CSV, preserving row order.

    ``columns`` remaps the canonical field names (date, service_index,
    stop_index, ridership) to the file's actual header names.
    """
    path = Path(path)
    colmap = dict(DEFAULT_RIDERSHIP_COLUMNS)
    if columns:
        colmap.update(columns)

    records: list[RidershipRecord] = []
    seen: set[tuple[date, int, int]] = set()
    with path.open(newline="", encoding="utf-8") as fh:
        reader = csv.DictReader(fh)
        header = reader.fieldnames or []
        for canonical, actual in colmap.items():
            if actual not in header:
                raise MissingColumn(f"{path}: column {actual!r} (for {canonical}) not in header")
        for row in reader:
            where = f"{path}:{reader.line_num}"
            service_date = _parse_date(row[colmap["date"]], where)
            service_index = _parse_int(row[colmap["service_index"]], where, minimum=1)
            stop_index = _parse_int(row[colmap["stop_index"]], where, minimum=1)
            ridership = _parse_int(row[colmap["ridership"]], where, minimum=0)
            key = (service_date, service_index, stop_index)
            if key in seen:
                raise DuplicateKey(f"{where}: repeated (date, service, stop) {key}")
            seen.add(key)
            records.append(RidershipRecord(service_date, service_index, stop_index, ridership))
    return records


def parse_weather_csv(
    path: str | Path,
    aliases: Mapping[str, str] | None = None,
) -> list[WeatherObservation]:
    """Parse hourly weather rows; hours outside [6, 23] are rejected.

    ``aliases`` maps source-language labels to one of the six canonical
    category names (e.g. ``{"ame": "Rain"}``).
    """
    path = Path(path)
    lookup = dict(DEFAULT_CATEGORY_ALIASES)
    if aliases:
        for alias, canonical in aliases.items():
            target = DEFAULT_CATEGORY_ALIASES.get(_normalize_label(canonical))
            if target is None:
                raise UnknownCategory(f"alias {alias!r} maps to unknown category {canonical!r}")
            lookup[_normalize_label(alias)] = target

    observations: list[WeatherObservation] = []
    seen: set[tuple[date, int]] = set()
    with path.open(newline="", encoding="utf-8") as fh:
        reader = csv.DictReader(fh)
        header = reader.fieldnames or []
        for name in WEATHER_COLUMNS:
            if name not in header:
                raise MissingColumn(f"{path}: column {name!r} not in header")
        for row in reader:
            where = f"{path}:{reader.line_num}"
            obs_date = _parse_date(row["date"], where)
            obs_hour = _parse_int(row["hour"], where)
            if not MIN_OBS_HOUR <= obs_hour <= MAX_OBS_HOUR:
                raise HourOutOfRange(f"{where}: hour {obs_hour} outside [{MIN_OBS_HOUR}, {MAX_OBS_HOUR}]")
            category = lookup.get(_normalize_label(row["category"]))
            if category is None:
                raise UnknownCategory(f"{where}: unknown weather category {row['category']!r}")
            precipitation = _parse_float(row["precipitation_mm"], where, minimum=0.0)
            key = (obs_date, obs_hour)
            if key in seen:
                raise DuplicateKey(f"{where}: repeated (date, hour) {key}")
            seen.add(key)
            observations.append(WeatherObservation(obs_date, obs_hour, category, precipitation))
    return observations


def binarize_weather(obs: WeatherObservation) -> tuple[bool, float]:
    """Collapse the six categories into (rain_flag, precipitation)."""
    return obs.category in RAIN_CATEGORIES, obs.precipitation_mm


def join_weather_to_services(
    records: Iterable[RidershipRecord],
    weather: Iterable[WeatherObservation],
    timetable: Mapping[int, time],
) -> list[ServiceWeather]:
    """Attach to each (date, service) the observation at its scheduled departure hour.

    The hour is the floor of the departure time from the first stop; the
    route fits within an hour, so one observation covers the whole run.
    """
    by_hour: dict[tuple[date, int], WeatherObservation] = {}
    for obs in weather:
        key = (obs.obs_date, obs.obs_hour)
        if key in by_hour:
            raise DuplicateKey(f"duplicate weather observation for {key}")
        by_hour[key] = obs

    services: dict[ServiceKey, ServiceWeather] = {}
    for record in records:
        key = (record.service_date, record.service_index)
        if key in services:
            continue
        departure = timetable.get(record.service_index)
        if departure is None:
            raise MissingTimetableEntry(f"service {record.service_index} has no departure time")
        obs = by_hour.get((record.service_date, departure.hour))
        if obs is None:
            raise MissingWeather(f"no weather for {record.service_date} hour {departure.hour}")
        rain_flag, precipitation = binarize_weather(obs)
        services[key] = ServiceWeather(record.service_date, record.service_index, rain_flag, precipitation)
    return sorted(services.values(), key=lambda sw: (sw.service_date, sw.service_index))


def ridership_columns(records: Iterable[RidershipRecord]) -> RidershipColumns:
    """Records as the columns ``build_route_dataset`` takes, values as given."""
    rows = [(r.service_date.toordinal(), r.service_index, r.stop_index, r.ridership) for r in records]
    return RidershipColumns(*(list(zip(*rows)) or [()] * 4))


def weather_columns(observations: Iterable[WeatherObservation]) -> WeatherColumns:
    """Observations as the columns ``parse_weather_csv`` returns."""
    code = {category: i for i, category in enumerate(CATEGORIES)}
    rows = [(o.obs_date.toordinal(), o.obs_hour, code[o.category], o.precipitation_mm) for o in observations]
    day, hour, category, precipitation = list(zip(*rows)) or [()] * 4
    return WeatherColumns(*(np.array(c, dtype=np.int64) for c in (day, hour, category)),
                          np.array(precipitation, dtype=np.float64))


def _lists(columns) -> list[list]:
    return [np.asarray(getattr(columns, field.name)).tolist() for field in fields(columns)]


def records_of(columns: RidershipColumns) -> list[RidershipRecord]:
    day, service, stop, count = _lists(columns)
    return [RidershipRecord(date.fromordinal(d), *row) for d, *row in zip(day, service, stop, count)]


def observations_of(columns: WeatherColumns) -> list[WeatherObservation]:
    categories = list(WeatherCategory)
    day, hour, category, precipitation = _lists(columns)
    return [
        WeatherObservation(date.fromordinal(d), h, categories[c], p)
        for d, h, c, p in zip(day, hour, category, precipitation)
    ]


def service_weather_of(columns: ServiceWeatherColumns) -> list[ServiceWeather]:
    day, service, rain, precipitation = _lists(columns)
    return [ServiceWeather(date.fromordinal(d), *row) for d, *row in zip(day, service, rain, precipitation)]


def service_weather_columns(rows: Iterable[ServiceWeather]) -> ServiceWeatherColumns:
    """Joined weather rows as the columns ``build_route_dataset`` takes, values as given."""
    rows = list(rows)
    return ServiceWeatherColumns(
        [sw.service_date.toordinal() for sw in rows],
        [sw.service_index for sw in rows],
        [sw.rain_flag for sw in rows],
        [sw.precipitation_mm for sw in rows],
    )


def _keys(dataset: RouteDataset, services: np.ndarray) -> tuple[ServiceKey, ...]:
    days, indices = np.nonzero(services)
    return tuple((dataset.first_date + timedelta(days=d), s + 1) for d, s in zip(days.tolist(), indices.tolist()))


def incomplete_keys(dataset: RouteDataset) -> tuple[ServiceKey, ...]:
    """(date, service) of each service observed at some stops but not all, chronologically."""
    return _keys(dataset, dataset.mask.any(-1) & ~dataset.complete)


def complete_keys(dataset: RouteDataset) -> tuple[ServiceKey, ...]:
    """(date, service) of each service observed at every stop, chronologically."""
    return _keys(dataset, dataset.complete)


def dataset_payload(dataset: RouteDataset) -> dict:
    """The payload of a dataset's version-4 cache: its header keys, then each grid of ``GRIDS`` as a writable
    array of the grid's dtype."""
    return {
        "format": "buscast-dataset",
        "version": 4,
        "n_stops": dataset.n_stops,
        "services_per_day": dataset.services_per_day,
        "first_date": dataset.first_date.isoformat(),
        "days": len(dataset.mask),
        **{name: np.array(getattr(dataset, name), dtype) for name, dtype in GRIDS.items()},
    }


def cache_bytes(payload: dict) -> bytes:
    """The version-4 cache file holding a payload: the container magic, the header's length, the header, then
    each array's bytes in payload order.

    The header holds every key whose value is not an array, ``format_version``
    1 and a ``params`` entry per array, ``[name, shape]`` for float64 and
    ``[name, shape, dtype]`` otherwise; a payload's own ``params`` replaces
    the entries.
    """
    arrays = {key: value for key, value in payload.items() if isinstance(value, np.ndarray)}
    header = {"format_version": 1, **{key: value for key, value in payload.items() if key not in arrays}}
    header.setdefault("params", [
        [name, list(arr.shape)] + ([arr.dtype.str] if arr.dtype != np.float64 else []) for name, arr in arrays.items()
    ])
    blob = json.dumps(header, sort_keys=True).encode()
    return b"BCKP" + struct.pack("<Q", len(blob)) + blob + b"".join(arr.tobytes() for arr in arrays.values())


def dataset_bytes(dataset: RouteDataset) -> bytes:
    """The bytes of a dataset's version-4 cache, to compare two datasets by."""
    return cache_bytes(dataset_payload(dataset))


def read_cache(path: Path) -> dict:
    """The payload of a version-4 cache file: its header keys but ``format_version`` and ``params``, then each
    array, a writable copy, under its name."""
    raw = Path(path).read_bytes()
    assert raw[:4] == b"BCKP", f"{path} is not a version-4 cache"
    (length,) = struct.unpack_from("<Q", raw, 4)
    header, offset = json.loads(raw[12 : 12 + length]), 12 + length
    payload = {key: value for key, value in header.items() if key not in ("format_version", "params")}
    for name, shape, *dtype in header["params"]:
        dtype = np.dtype(dtype[0] if dtype else "<f8")
        payload[name] = np.frombuffer(raw, dtype, math.prod(shape), offset).reshape(shape).copy()
        offset += math.prod(shape) * dtype.itemsize
    assert offset == len(raw)
    return payload


def cache_grid(payload: dict, name: str) -> np.ndarray:
    """A writable copy of grid ``name`` of a cache payload; a bool grid reads as its raw bytes."""
    grid = payload[name]
    return (grid.view(np.uint8) if grid.dtype == bool else grid).copy()


def with_cache_cells(payload: dict, name: str, *cells: tuple) -> dict:
    """The payload with cells of grid ``name`` replaced, each given as an (index, value) pair."""
    grid = cache_grid(payload, name)
    for index, value in cells:
        grid[index] = value
    return {**payload, name: grid.view(payload[name].dtype)}
