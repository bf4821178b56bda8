"""The columnar synthetic generator writes the same CSV bytes as the record-by-record oracle."""

import hashlib
from datetime import date, time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from buscast.data_ingest import build_route_dataset, join_weather_to_services, parse_ridership_csv, parse_weather_csv
from buscast.errors import BadArgs
from buscast.synth import SynthConfig, generate, generate_dataset, write_synthetic_csvs

from synth_oracle import oracle_write_csvs

CUSTOM_TIMETABLE = {1: time(6, 5), 2: time(12, 30), 3: time(18, 0), 4: time(23, 59)}

#: sha256 of (ridership.csv, weather.csv) for three configs, as the record-by-record generator wrote them.
PINNED = [
    (SynthConfig(n_days=120, seed=1),
     "1a508107a2a96fe71c1a271616b34b95cf0269da817872239494f28170e2e11d",
     "dc5560f3ade6fb22721ce948f9d79468a3934683efd93ca1d40a0afd46750da4"),
    (SynthConfig(n_days=7, n_stops=7, seed=2, rain_probability=1.0),
     "0875eb188298c6078a5247e7a9992ba9c2f2f4fc6732f77e026ccdaf934a97c2",
     "bcde37bfe5e0edc3d796dd803979ee0376d5975f8ece8b0784d27a9e55967d6b"),
    (SynthConfig(n_days=10, n_stops=3, services_per_day=4, seed=7, start_date=date(2022, 2, 26), rain_effect=0.5,
                 weekend_effect=0.0, latent_weight=0.4, noise_scale=2.5, timetable=CUSTOM_TIMETABLE),
     "cf1971f8e928b73ed905fbb1e1aa87050cb848e42b0d714fe8c8510af76640be",
     "1d3a0a7c5c89fd103785cb54036a211995419efa71824159b45dff2910993ca9"),
]


def _bytes(paths):
    return tuple(path.read_bytes() for path in paths)


@pytest.mark.parametrize("config, ridership_sha, weather_sha", PINNED, ids=["default-120", "rainy-7-stops", "custom"])
def test_pinned_digests(tmp_path, config, ridership_sha, weather_sha):
    oracle = tmp_path / "oracle"
    oracle.mkdir()
    pinned = (ridership_sha, weather_sha)
    assert tuple(hashlib.sha256(b).hexdigest() for b in _bytes(oracle_write_csvs(config, oracle))) == pinned
    assert tuple(hashlib.sha256(b).hexdigest() for b in _bytes(write_synthetic_csvs(config, tmp_path))) == pinned
    # the dataset generate_dataset builds is the one ingest builds from the CSVs
    ridership, weather = parse_ridership_csv(oracle / "ridership.csv"), parse_weather_csv(oracle / "weather.csv")
    ingested = build_route_dataset(ridership, join_weather_to_services(ridership, weather, config.timetable),
                                   config.n_stops, config.services_per_day)
    assert generate_dataset(config).to_payload() == ingested.to_payload()


@st.composite
def configs(draw):
    services = draw(st.integers(1, 26))
    effect = st.one_of(st.just(0.0), st.floats(-1.0, 1.0))
    timetable = draw(st.one_of(
        st.none(),
        st.lists(st.times(min_value=time(6), max_value=time(23, 59)), min_size=services, max_size=services + 2),
    ))
    return SynthConfig(
        n_days=draw(st.integers(1, 10)),
        n_stops=draw(st.integers(1, 7)),
        services_per_day=services,
        seed=draw(st.integers(0, 2**32)),
        start_date=draw(st.dates(min_value=date(2000, 1, 1), max_value=date(2030, 12, 31))),
        rain_probability=draw(st.sampled_from((0.0, 0.25, 0.5, 1.0))),
        rain_effect=draw(effect),
        weekend_effect=draw(effect),
        latent_weight=draw(st.one_of(st.just(0.0), st.floats(0.0, 1.0))),
        noise_scale=draw(st.one_of(st.just(0.0), st.floats(0.0, 5.0))),
        **({} if timetable is None else {"timetable": dict(enumerate(timetable, start=1))}),
    )


@settings(max_examples=80, deadline=None, derandomize=True)
@given(config=configs())
def test_columnar_writes_the_oracle_bytes(tmp_path_factory, config):
    root = tmp_path_factory.mktemp("synth")
    (root / "oracle").mkdir()
    assert _bytes(write_synthetic_csvs(config, root / "columnar")) == _bytes(oracle_write_csvs(config, root / "oracle"))


@pytest.mark.parametrize("config, message", [
    (SynthConfig(n_days=0), "need at least one day, got 0"),
    (SynthConfig(n_days=2, start_date=date.max), "2 days from 9999-12-31 run past the last representable date"),
    (SynthConfig(rain_effect=float("inf")), "rain_effect must be a finite number, got inf"),
    (SynthConfig(services_per_day=27), "timetable has 26 departures for 27 services per day"),
    (SynthConfig(n_days=1, noise_scale=1e300), "the effects give a count beyond 64-bit integers"),
], ids=["no-days", "past-date-max", "infinite-effect", "short-timetable", "count-overflow"])
def test_bad_config(config, message):
    with pytest.raises(BadArgs, match=message):
        generate(config)
