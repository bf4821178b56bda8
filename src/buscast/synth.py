"""Synthetic route generator for desk-scale testing.

Ridership at (date, service, stop) is built from a per-stop scale times a
service-of-day profile, multiplied by day-of-week and rain effects and by a
latent demand factor shared across stops (which injects positive cross-stop
correlation), plus seeded noise. Defaults are chosen so that the weather and
calendar features carry real signal: rainy services lose 30% of riders and
weekend days 40%. These are test-fixture knobs, not measurements.

The seeded generator draws, day by day: one uniform for whether the day is
rainy; the 18 hourly categories (6:00-23:00), each followed on a rainy day
by its gamma precipitation; then the day's S x (1 + n) standard normals,
row by row over the S services: the latent factor, then the n per-stop
noises. The ridership grid is computed from those draws as arrays.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from datetime import date
from pathlib import Path

import numpy as np

from .data_ingest import (
    CATEGORIES,
    DEFAULT_TIMETABLE,
    MAX_OBS_HOUR,
    MIN_OBS_HOUR,
    RidershipColumns,
    RouteDataset,
    WeatherCategory,
    WeatherColumns,
    build_route_dataset,
    join_weather_to_services,
    write_ridership_csv,
    write_weather_csv,
)
from .errors import BadArgs

#: The category codes (indices into ``CATEGORIES``) an hour of a rainy and of a dry day draws from.
RAIN_CODES = np.array([CATEGORIES.index(c) for c in (
    WeatherCategory.RAIN_SHOWERS, WeatherCategory.RAIN, WeatherCategory.FREEZING_RAIN, WeatherCategory.OTHER,
)])
DRY_CODES = np.array([CATEGORIES.index(c) for c in (WeatherCategory.SUNNY, WeatherCategory.CLOUDY)])
HOURS = MAX_OBS_HOUR - MIN_OBS_HOUR + 1


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


def generate(config: SynthConfig) -> tuple[RidershipColumns, WeatherColumns]:
    """Seeded ridership rows in (date, service, stop) order, and the hourly weather rows of the same days."""
    if config.n_days < 1:
        raise BadArgs(f"need at least one day, got {config.n_days}")
    if config.start_date.toordinal() + config.n_days - 1 > date.max.toordinal():
        raise BadArgs(f"{config.n_days} days from {config.start_date} run past the last representable date")
    for name in ("rain_probability", "rain_effect", "weekend_effect", "latent_weight", "noise_scale"):
        if not math.isfinite(getattr(config, name)):
            raise BadArgs(f"{name} must be a finite number, got {getattr(config, name)}")
    days, services, n_stops = config.n_days, config.services_per_day, config.n_stops
    if services > len(config.timetable):
        raise BadArgs(f"timetable has {len(config.timetable)} departures for {services} services per day")
    rng = np.random.default_rng(config.seed)
    rainy = np.zeros(days, dtype=bool)
    category = np.empty((days, HOURS), dtype=np.int64)
    precipitation = np.zeros((days, HOURS))
    normals = np.empty((days, services, 1 + n_stops))
    for day in range(days):
        rainy[day] = rng.random() < config.rain_probability
        if rainy[day]:
            for hour in range(HOURS):
                category[day, hour] = RAIN_CODES[rng.integers(len(RAIN_CODES))]
                precipitation[day, hour] = round(float(rng.gamma(2.0, 1.0)), 1)
        else:
            category[day] = DRY_CODES[rng.integers(len(DRY_CODES), size=HOURS)]
        normals[day] = rng.standard_normal(services * (1 + n_stops)).reshape(services, 1 + n_stops)

    ordinals = config.start_date.toordinal() + np.arange(days)
    # Distinct levels per stop (the next-to-last stop is the busiest, the first the quietest), and
    # morning and evening peaks with a quiet midday.
    stop, service = np.arange(n_stops), np.arange(1, services + 1)
    scale = np.array([4.0, 9.0, 11.0, 16.0, 7.0])[stop % 5] + 2.0 * (stop // 5)
    profile = np.where(service <= services / 3.0, 1.3, np.where(service <= 2 * (services / 3.0), 0.7, 1.2))
    mean = (
        scale
        * profile[:, None]
        * np.where((ordinals - 1) % 7 >= 5, 1.0 + config.weekend_effect, 1.0)[:, None, None]  # ordinal 1: a Monday
        * np.where(rainy, 1.0 + config.rain_effect, 1.0)[:, None, None]  # every hour of a rainy day is rain
        * np.maximum(0.1, 1.0 + config.latent_weight * normals[:, :, :1])
    )
    counts = np.maximum(0.0, np.rint(mean + config.noise_scale * normals[:, :, 1:]))
    if not counts.max() < 2.0**63:
        raise BadArgs("the effects give a count beyond 64-bit integers")
    d, s, b = np.indices(counts.shape).reshape(3, -1)
    return (
        RidershipColumns(ordinals[d], s + 1, b + 1, counts.astype(np.int64).ravel()),
        WeatherColumns(np.repeat(ordinals, HOURS), np.tile(np.arange(MIN_OBS_HOUR, MAX_OBS_HOUR + 1), days),
                       category.ravel(), precipitation.ravel()),
    )


def generate_dataset(config: SynthConfig) -> RouteDataset:
    """Generate and assemble in one step (used heavily by tests)."""
    ridership, weather = generate(config)
    service_weather = join_weather_to_services(ridership, weather, config.timetable)
    return build_route_dataset(ridership, service_weather, config.n_stops, config.services_per_day)


def write_synthetic_csvs(config: SynthConfig, out_dir: str | Path) -> tuple[Path, Path]:
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    ridership, weather = generate(config)
    write_ridership_csv(ridership, out_dir / "ridership.csv")
    write_weather_csv(weather, out_dir / "weather.csv")
    return out_dir / "ridership.csv", out_dir / "weather.csv"
