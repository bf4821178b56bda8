"""Synthetic route generator for desk-scale testing.

Ridership at (date, service, stop) is built from a per-stop scale times a
service-of-day profile, multiplied by day-of-week and rain effects and by a
latent demand factor shared across stops (which injects positive cross-stop
correlation), plus seeded noise. Defaults are chosen so that the weather and
calendar features carry real signal: rainy services lose 30% of riders and
weekend days 40%. These are test-fixture knobs, not measurements.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from datetime import date, timedelta
from pathlib import Path

import numpy as np

from .data_ingest import (
    DEFAULT_TIMETABLE,
    RidershipColumns,
    RidershipRecord,
    RouteDataset,
    WeatherCategory,
    WeatherColumns,
    WeatherObservation,
    build_route_dataset,
    join_weather_to_services,
    write_ridership_csv,
    write_weather_csv,
)
from .errors import BadArgs

RAIN_CHOICES = (
    WeatherCategory.RAIN_SHOWERS,
    WeatherCategory.RAIN,
    WeatherCategory.FREEZING_RAIN,
    WeatherCategory.OTHER,
)
DRY_CHOICES = (WeatherCategory.SUNNY, WeatherCategory.CLOUDY)


def _stop_scale(stop_index: int, n_stops: int) -> float:
    # Deterministic spread with distinct levels per stop; the next-to-last
    # stop is the busiest, the first the quietest.
    base = [4.0, 9.0, 11.0, 16.0, 7.0]
    return base[(stop_index - 1) % len(base)] + 2.0 * ((stop_index - 1) // len(base))


def _service_profile(service_index: int, services_per_day: int) -> float:
    # Morning and evening peaks, quiet midday.
    third = services_per_day / 3.0
    if service_index <= third:
        return 1.3
    if service_index <= 2 * third:
        return 0.7
    return 1.2


@dataclass(frozen=True)
class SynthConfig:
    n_days: int = 60
    n_stops: int = 5
    services_per_day: int = 26
    seed: int = 0
    start_date: date = date(2021, 10, 1)
    rain_probability: float = 0.25
    rain_effect: float = -0.30  # fractional ridership change on rainy services
    weekend_effect: float = -0.40  # fractional change on Saturdays/Sundays
    latent_weight: float = 0.15  # strength of the shared demand factor
    noise_scale: float = 1.0  # std-dev of additive per-record noise
    timetable: dict = field(default_factory=lambda: dict(DEFAULT_TIMETABLE))


def generate(config: SynthConfig) -> tuple[list[RidershipRecord], list[WeatherObservation]]:
    """Seeded ridership records plus matching hourly weather observations."""
    if config.n_days < 1:
        raise BadArgs(f"need at least one day, got {config.n_days}")
    for name in ("rain_probability", "rain_effect", "weekend_effect", "latent_weight", "noise_scale"):
        if not math.isfinite(getattr(config, name)):
            raise BadArgs(f"{name} must be a finite number, got {getattr(config, name)}")
    if config.services_per_day > len(config.timetable):
        raise BadArgs(
            f"timetable has {len(config.timetable)} departures for "
            f"{config.services_per_day} services per day"
        )
    rng = np.random.default_rng(config.seed)
    records: list[RidershipRecord] = []
    observations: list[WeatherObservation] = []

    for day_offset in range(config.n_days):
        day = config.start_date + timedelta(days=day_offset)
        rainy_day = rng.random() < config.rain_probability
        hour_rain: dict[int, tuple[bool, float]] = {}
        for hour in range(6, 24):
            if rainy_day:
                category = RAIN_CHOICES[int(rng.integers(len(RAIN_CHOICES)))]
                precipitation = round(float(rng.gamma(2.0, 1.0)), 1)
            else:
                category = DRY_CHOICES[int(rng.integers(len(DRY_CHOICES)))]
                precipitation = 0.0
            observations.append(WeatherObservation(day, hour, category, precipitation))
            hour_rain[hour] = (category in RAIN_CHOICES, precipitation)

        dow_mult = 1.0 + (config.weekend_effect if day.weekday() >= 5 else 0.0)
        for svc in range(1, config.services_per_day + 1):
            depart_hour = config.timetable[svc].hour
            rain_mult = 1.0 + (config.rain_effect if hour_rain[depart_hour][0] else 0.0)
            latent = max(0.1, 1.0 + config.latent_weight * float(rng.standard_normal()))
            for stop in range(1, config.n_stops + 1):
                mean = (
                    _stop_scale(stop, config.n_stops)
                    * _service_profile(svc, config.services_per_day)
                    * dow_mult
                    * rain_mult
                    * latent
                )
                noise = config.noise_scale * float(rng.standard_normal())
                count = max(0, int(round(mean + noise)))
                records.append(RidershipRecord(day, svc, stop, count))
    return records, observations


def generate_dataset(config: SynthConfig) -> RouteDataset:
    """Generate and assemble in one step (used heavily by tests)."""
    records, observations = generate(config)
    ridership = RidershipColumns.from_records(records)
    weather = WeatherColumns.from_observations(observations)
    service_weather = join_weather_to_services(ridership, weather, config.timetable)
    return build_route_dataset(ridership, service_weather, config.n_stops, config.services_per_day)


def write_synthetic_csvs(config: SynthConfig, out_dir: str | Path) -> tuple[Path, Path]:
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    records, observations = generate(config)
    ridership_path = out_dir / "ridership.csv"
    weather_path = out_dir / "weather.csv"
    write_ridership_csv(records, ridership_path)
    write_weather_csv(observations, weather_path)
    return ridership_path, weather_path
