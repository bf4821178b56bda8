"""Reference synthetic route generator, kept as an exact-equality oracle.

This is the straightforward implementation the columnar generator in
``buscast.synth`` replaced: one scalar draw at a time, one
``RidershipRecord`` per (date, service, stop) and one ``WeatherObservation``
per hour, written row by row with ``csv.writer``. The columnar path must
write the same CSV bytes.
"""

import csv
from datetime import timedelta
from pathlib import Path

import numpy as np

from buscast.data_ingest import WEATHER_COLUMNS, RidershipRecord, WeatherCategory, WeatherObservation

RAIN_CHOICES = (
    WeatherCategory.RAIN_SHOWERS,
    WeatherCategory.RAIN,
    WeatherCategory.FREEZING_RAIN,
    WeatherCategory.OTHER,
)
DRY_CHOICES = (WeatherCategory.SUNNY, WeatherCategory.CLOUDY)


def _stop_scale(stop_index: int) -> float:
    base = [4.0, 9.0, 11.0, 16.0, 7.0]
    return base[(stop_index - 1) % len(base)] + 2.0 * ((stop_index - 1) // len(base))


def _service_profile(service_index: int, services_per_day: int) -> float:
    third = services_per_day / 3.0
    if service_index <= third:
        return 1.3
    if service_index <= 2 * third:
        return 0.7
    return 1.2


def oracle_generate(config) -> tuple[list[RidershipRecord], list[WeatherObservation]]:
    """The records and observations of ``config`` (a ``SynthConfig``), drawn one value at a time."""
    rng = np.random.default_rng(config.seed)
    records: list[RidershipRecord] = []
    observations: list[WeatherObservation] = []

    for day_offset in range(config.n_days):
        day = config.start_date + timedelta(days=day_offset)
        rainy_day = rng.random() < config.rain_probability
        hour_rain: dict[int, bool] = {}
        for hour in range(6, 24):
            if rainy_day:
                category = RAIN_CHOICES[int(rng.integers(len(RAIN_CHOICES)))]
                precipitation = round(float(rng.gamma(2.0, 1.0)), 1)
            else:
                category = DRY_CHOICES[int(rng.integers(len(DRY_CHOICES)))]
                precipitation = 0.0
            observations.append(WeatherObservation(day, hour, category, precipitation))
            hour_rain[hour] = category in RAIN_CHOICES

        dow_mult = 1.0 + (config.weekend_effect if day.weekday() >= 5 else 0.0)
        for svc in range(1, config.services_per_day + 1):
            rain_mult = 1.0 + (config.rain_effect if hour_rain[config.timetable[svc].hour] else 0.0)
            latent = max(0.1, 1.0 + config.latent_weight * float(rng.standard_normal()))
            for stop in range(1, config.n_stops + 1):
                mean = (
                    _stop_scale(stop)
                    * _service_profile(svc, config.services_per_day)
                    * dow_mult
                    * rain_mult
                    * latent
                )
                noise = config.noise_scale * float(rng.standard_normal())
                count = max(0, int(round(mean + noise)))
                records.append(RidershipRecord(day, svc, stop, count))
    return records, observations


def oracle_write_csvs(config, out_dir: Path) -> tuple[Path, Path]:
    """Write ``oracle_generate(config)`` as ``ridership.csv`` and ``weather.csv`` with ``csv.writer``."""
    records, observations = oracle_generate(config)
    ridership_path, weather_path = out_dir / "ridership.csv", out_dir / "weather.csv"
    with ridership_path.open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["date", "service_index", "stop_index", "ridership"])
        for r in records:
            writer.writerow([r.service_date.isoformat(), r.service_index, r.stop_index, r.ridership])
    with weather_path.open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(list(WEATHER_COLUMNS))
        for o in observations:
            writer.writerow([o.obs_date.isoformat(), o.obs_hour, o.category.value, repr(o.precipitation_mm)])
    return ridership_path, weather_path
