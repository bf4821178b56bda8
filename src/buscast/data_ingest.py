"""CSV ingestion, validation, and weather joining for a single bus route.

A route dataset couples three inputs: per-departure ridership counts, hourly
weather observations binarized into a rain flag, and a timetable that maps
each service index to its scheduled departure time from the first stop. The
weather attached to a service is the observation at the hour of that
departure.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass
from datetime import date, time, timedelta
from enum import Enum
from functools import cached_property
from pathlib import Path
from typing import Iterable, Mapping, Sequence

from .errors import (
    DuplicateKey,
    EmptyDataset,
    HourOutOfRange,
    MalformedRow,
    MissingColumn,
    MissingTimetableEntry,
    MissingWeather,
    UnknownCategory,
)

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


def next_service_key(key: ServiceKey, services_per_day: int) -> ServiceKey:
    """The slot immediately after ``key`` in the daily timetable grid."""
    day, index = key
    if index < services_per_day:
        return day, index + 1
    return day + timedelta(days=1), 1


def keys_adjacent(a: ServiceKey, b: ServiceKey, services_per_day: int) -> bool:
    return next_service_key(a, services_per_day) == b


@dataclass(frozen=True)
class RouteDataset:
    """Immutable, chronologically sorted view of one route's observations.

    Services missing any of the ``n_stops`` stop rows are flagged incomplete
    and excluded from window construction downstream.
    """

    n_stops: int
    services_per_day: int
    records: tuple[RidershipRecord, ...]
    weather: dict[ServiceKey, ServiceWeather]
    timetable: dict[int, time]
    complete_services: tuple[ServiceKey, ...]
    incomplete_services: tuple[ServiceKey, ...]

    @cached_property
    def _rows_by_service(self) -> dict[ServiceKey, dict[int, RidershipRecord]]:
        index: dict[ServiceKey, dict[int, RidershipRecord]] = {}
        for record in self.records:
            index.setdefault((record.service_date, record.service_index), {})[record.stop_index] = record
        return index

    def date_range(self) -> tuple[date, date]:
        return self.records[0].service_date, self.records[-1].service_date

    def rows_for_service(self, key: ServiceKey) -> dict[int, RidershipRecord]:
        return self._rows_by_service[key]

    def ridership_series(self, stop_index: int) -> dict[ServiceKey, int]:
        """All observed counts at one stop, keyed by (date, service)."""
        return {
            key: rows[stop_index].ridership
            for key, rows in self._rows_by_service.items()
            if stop_index in rows
        }

    def subset_by_dates(self, start: date, end: date) -> "RouteDataset":
        """Services with start <= date <= end, re-validated as a dataset."""
        records = [r for r in self.records if start <= r.service_date <= end]
        weather = [sw for sw in self.weather.values() if start <= sw.service_date <= end]
        return build_route_dataset(records, weather, self.n_stops, self.services_per_day, self.timetable)

    def to_payload(self) -> dict:
        return {
            "format": "buscast-dataset",
            "version": 1,
            "n_stops": self.n_stops,
            "services_per_day": self.services_per_day,
            "timetable": {str(i): t.isoformat(timespec="minutes") for i, t in self.timetable.items()},
            "records": [
                [r.service_date.isoformat(), r.service_index, r.stop_index, r.ridership]
                for r in self.records
            ],
            "weather": [
                [sw.service_date.isoformat(), sw.service_index, int(sw.rain_flag), sw.precipitation_mm]
                for sw in sorted(self.weather.values(), key=lambda s: (s.service_date, s.service_index))
            ],
        }

    def save(self, path: str | Path) -> None:
        Path(path).write_text(json.dumps(self.to_payload()), encoding="utf-8")

    @classmethod
    def load(cls, path: str | Path) -> "RouteDataset":
        try:
            payload = json.loads(Path(path).read_text(encoding="utf-8"))
            if not (
                isinstance(payload, dict)
                and payload.get("format") == "buscast-dataset"
                and payload.get("version") == 1
            ):
                raise MalformedRow(f"{path}: not a version-1 buscast dataset cache")
            records = [
                RidershipRecord(date.fromisoformat(d), svc, stop, count)
                for d, svc, stop, count in payload["records"]
            ]
            weather = [
                ServiceWeather(date.fromisoformat(d), svc, bool(rain), precip)
                for d, svc, rain, precip in payload["weather"]
            ]
            timetable = {int(i): time.fromisoformat(t) for i, t in payload["timetable"].items()}
            return build_route_dataset(
                records, weather, payload["n_stops"], payload["services_per_day"], timetable
            )
        except KeyError as exc:
            raise MalformedRow(f"{path}: dataset cache lacks {exc}") from None
        except (AttributeError, TypeError, ValueError) as exc:
            raise MalformedRow(f"{path}: malformed dataset cache: {exc}") from None


def build_route_dataset(
    records: Iterable[RidershipRecord],
    service_weather: Iterable[ServiceWeather],
    n_stops: int,
    services_per_day: int,
    timetable: Mapping[int, time],
) -> RouteDataset:
    """Assemble validated records and joined weather into a RouteDataset."""
    records = sorted(records, key=lambda r: (r.service_date, r.service_index, r.stop_index))
    if not records:
        raise EmptyDataset("no ridership records")

    weather: dict[ServiceKey, ServiceWeather] = {}
    for sw in service_weather:
        key = (sw.service_date, sw.service_index)
        if key in weather:
            raise DuplicateKey(f"duplicate service weather for {key}")
        weather[key] = sw

    grouped: dict[ServiceKey, set[int]] = {}
    seen: set[tuple[date, int, int]] = set()
    for record in records:
        if not 1 <= record.service_index <= services_per_day:
            raise MalformedRow(f"service index {record.service_index} outside [1, {services_per_day}]")
        if not 1 <= record.stop_index <= n_stops:
            raise MalformedRow(f"stop index {record.stop_index} outside [1, {n_stops}]")
        if record.ridership < 0:
            raise MalformedRow(f"negative ridership {record.ridership}")
        triple = (record.service_date, record.service_index, record.stop_index)
        if triple in seen:
            raise DuplicateKey(f"repeated (date, service, stop) {triple}")
        seen.add(triple)
        grouped.setdefault((record.service_date, record.service_index), set()).add(record.stop_index)

    all_stops = set(range(1, n_stops + 1))
    complete: list[ServiceKey] = []
    incomplete: list[ServiceKey] = []
    for key in sorted(grouped):
        if key not in weather:
            raise MissingWeather(f"no service weather for {key}")
        (complete if grouped[key] == all_stops else incomplete).append(key)

    return RouteDataset(
        n_stops=n_stops,
        services_per_day=services_per_day,
        records=tuple(records),
        weather=weather,
        timetable=dict(timetable),
        complete_services=tuple(complete),
        incomplete_services=tuple(incomplete),
    )


def write_ridership_csv(records: Iterable[RidershipRecord], path: str | Path) -> None:
    with Path(path).open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["date", "service_index", "stop_index", "ridership"])
        for r in records:
            writer.writerow([r.service_date.isoformat(), r.service_index, r.stop_index, r.ridership])


def write_weather_csv(observations: Iterable[WeatherObservation], path: str | Path) -> None:
    with Path(path).open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(list(WEATHER_COLUMNS))
        for o in observations:
            writer.writerow([o.obs_date.isoformat(), o.obs_hour, o.category.value, repr(o.precipitation_mm)])


def timetable_from_strings(departures: Sequence[str]) -> dict[int, time]:
    """Build a timetable from "HH:MM" strings, service indices 1..S in order."""
    table: dict[int, time] = {}
    for i, raw in enumerate(departures, start=1):
        try:
            table[i] = time.fromisoformat(raw.strip())
        except ValueError as exc:
            raise MalformedRow(f"bad departure time {raw!r}") from exc
    return table
