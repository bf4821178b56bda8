import dataclasses
import json
from datetime import date, time, timedelta

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from buscast import data_ingest
from buscast.data_ingest import (
    DEFAULT_TIMETABLE,
    RidershipColumns,
    RidershipRecord,
    RouteDataset,
    WeatherCategory,
    WeatherColumns,
    WeatherObservation,
    build_route_dataset,
    parse_ridership_csv,
    parse_weather_csv,
    write_ridership_csv,
)
from buscast.errors import (
    DuplicateKey,
    EmptyDataset,
    HourOutOfRange,
    MalformedRow,
    MissingColumn,
    MissingTimetableEntry,
    MissingWeather,
    UnknownCategory,
)
from buscast.synth import SynthConfig, generate

from ingest_oracle import ServiceWeather, observations_of, records_of, service_weather_columns, service_weather_of


def _write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


class TestParseRidership:
    def test_direct_field_mapping(self, tmp_path):
        path = _write(tmp_path, "r.csv", "date,service_index,stop_index,ridership\n2021-10-01,1,1,3\n")
        records = records_of(parse_ridership_csv(path))
        assert records == [RidershipRecord(date(2021, 10, 1), 1, 1, 3)]

    def test_negative_count_rejected(self, tmp_path):
        path = _write(tmp_path, "r.csv", "date,service_index,stop_index,ridership\n2021-10-01,1,1,-2\n")
        with pytest.raises(MalformedRow):
            parse_ridership_csv(path)

    def test_duplicate_key_rejected(self, tmp_path):
        path = _write(
            tmp_path,
            "r.csv",
            "date,service_index,stop_index,ridership\n"
            "2021-10-01,1,1,3\n2021-10-01,1,1,4\n",
        )
        with pytest.raises(DuplicateKey):
            parse_ridership_csv(path)

    def test_missing_column(self, tmp_path):
        path = _write(tmp_path, "r.csv", "date,service_index,stop_index\n2021-10-01,1,1\n")
        with pytest.raises(MissingColumn):
            parse_ridership_csv(path)

    def test_bad_date_mentions_line(self, tmp_path):
        path = _write(tmp_path, "r.csv", "date,service_index,stop_index,ridership\nnot-a-date,1,1,3\n")
        with pytest.raises(MalformedRow, match=":2"):
            parse_ridership_csv(path)

    def test_column_remapping(self, tmp_path):
        path = _write(tmp_path, "r.csv", "day,svc,stop,count\n2021-10-01,2,3,7\n")
        records = records_of(parse_ridership_csv(
            path, {"date": "day", "service_index": "svc", "stop_index": "stop", "ridership": "count"}
        ))
        assert records == [RidershipRecord(date(2021, 10, 1), 2, 3, 7)]

    def test_row_order_preserved(self, tmp_path):
        path = _write(
            tmp_path,
            "r.csv",
            "date,service_index,stop_index,ridership\n"
            "2021-10-02,1,1,5\n2021-10-01,1,1,3\n",
        )
        records = records_of(parse_ridership_csv(path))
        assert [r.service_date.day for r in records] == [2, 1]

    def test_short_row_is_malformed(self, tmp_path):
        path = _write(tmp_path, "r.csv", "date,service_index,stop_index,ridership\n2021-10-01,1,1,3\n2021-10-01,1\n")
        with pytest.raises(MalformedRow) as caught:
            parse_ridership_csv(path)
        assert str(caught.value) == f"{path}:3: expected 4 fields, got 2"

    def test_long_row_accepted(self, tmp_path):
        path = _write(tmp_path, "r.csv", "date,service_index,stop_index,ridership\n2021-10-01,1,1,3,extra\n")
        assert records_of(parse_ridership_csv(path)) == [RidershipRecord(date(2021, 10, 1), 1, 1, 3)]

    def test_not_utf8_names_the_path(self, tmp_path):
        path = tmp_path / "r.csv"
        path.write_bytes(b"date,service_index,stop_index,ridership\n\xff\xfe\n")
        with pytest.raises(MalformedRow, match="r.csv: not UTF-8 text"):
            parse_ridership_csv(path)

    def test_csv_reader_error_names_the_line(self, tmp_path):
        path = _write(tmp_path, "r.csv", "date,service_index,stop_index,ridership\n2021-10-01,1,1," + "9" * 200_000)
        with pytest.raises(MalformedRow, match=r"r.csv:2: field larger than field limit"):
            parse_ridership_csv(path)

    def test_line_numbers_count_blank_lines_and_quoted_newlines(self, tmp_path):
        path = _write(
            tmp_path, "r.csv",
            'date,service_index,stop_index,ridership\n2021-10-01,1,1,"3\n"\n\n\n2021-10-01,1,2,-4\n',
        )
        with pytest.raises(MalformedRow) as caught:
            parse_ridership_csv(path)
        assert str(caught.value) == f"{path}:6: value -4 below minimum 0"

    def test_integer_beyond_int64_is_left_to_the_build(self, tmp_path):
        big = 2**63
        path = _write(tmp_path, "r.csv", f"date,service_index,stop_index,ridership\n2021-10-01,1,1,{big}\n")
        records = parse_ridership_csv(path)
        assert records_of(records) == [RidershipRecord(date(2021, 10, 1), 1, 1, big)]
        weather = service_weather_columns([ServiceWeather(date(2021, 10, 1), 1, False, 0.0)])
        with pytest.raises(MalformedRow) as caught:
            build_route_dataset(records, weather, 5, 26, DEFAULT_TIMETABLE)
        assert str(caught.value) == f"ridership {big} is not a 64-bit integer"

    def test_repeated_key_beyond_int64(self, tmp_path):
        path = _write(
            tmp_path, "r.csv",
            f"date,service_index,stop_index,ridership\n2021-10-01,1,{2**64},3\n2021-10-01,1,{2**64},4\n",
        )
        with pytest.raises(DuplicateKey) as caught:
            parse_ridership_csv(path)
        assert str(caught.value) == (
            f"{path}:3: repeated (date, service, stop) (datetime.date(2021, 10, 1), 1, {2**64})"
        )


class TestParseWeather:
    def test_direct_mapping(self, tmp_path):
        path = _write(tmp_path, "w.csv", "date,hour,category,precipitation_mm\n2021-10-01,7,Sunny,0.0\n")
        obs = observations_of(parse_weather_csv(path))
        assert obs == [WeatherObservation(date(2021, 10, 1), 7, WeatherCategory.SUNNY, 0.0)]

    def test_hour_out_of_range(self, tmp_path):
        path = _write(tmp_path, "w.csv", "date,hour,category,precipitation_mm\n2021-10-01,3,Sunny,0.0\n")
        with pytest.raises(HourOutOfRange):
            parse_weather_csv(path)

    def test_unknown_category(self, tmp_path):
        path = _write(tmp_path, "w.csv", "date,hour,category,precipitation_mm\n2021-10-01,7,Hail,0.0\n")
        with pytest.raises(UnknownCategory):
            parse_weather_csv(path)

    def test_spaced_labels_and_aliases(self, tmp_path):
        path = _write(
            tmp_path,
            "w.csv",
            "date,hour,category,precipitation_mm\n"
            "2021-10-01,7,Rain showers,1.0\n2021-10-01,8,hare,0.0\n",
        )
        obs = observations_of(parse_weather_csv(path, aliases={"hare": "Sunny"}))
        assert obs[0].category is WeatherCategory.RAIN_SHOWERS
        assert obs[1].category is WeatherCategory.SUNNY

    def test_alias_to_unknown_target(self, tmp_path):
        path = _write(tmp_path, "w.csv", "date,hour,category,precipitation_mm\n")
        with pytest.raises(UnknownCategory):
            parse_weather_csv(path, aliases={"x": "Blizzard"})

    def test_duplicate_hour(self, tmp_path):
        path = _write(
            tmp_path,
            "w.csv",
            "date,hour,category,precipitation_mm\n"
            "2021-10-01,7,Sunny,0.0\n2021-10-01,7,Rain,1.0\n",
        )
        with pytest.raises(DuplicateKey):
            parse_weather_csv(path)

    def test_negative_precipitation(self, tmp_path):
        path = _write(tmp_path, "w.csv", "date,hour,category,precipitation_mm\n2021-10-01,7,Rain,-1.0\n")
        with pytest.raises(MalformedRow):
            parse_weather_csv(path)

    @pytest.mark.parametrize("raw", ["nan", "inf", "1e999"])
    def test_non_finite_precipitation(self, tmp_path, raw):
        path = _write(tmp_path, "w.csv", f"date,hour,category,precipitation_mm\n2021-10-01,7,Rain,{raw}\n")
        with pytest.raises(MalformedRow) as caught:
            parse_weather_csv(path)
        assert str(caught.value) == f"{path}:2: non-finite number {raw!r}"

    def test_short_row_is_malformed(self, tmp_path):
        path = _write(tmp_path, "w.csv", "date,hour,category,precipitation_mm\n2021-10-01,7,Sunny\n")
        with pytest.raises(MalformedRow) as caught:
            parse_weather_csv(path)
        assert str(caught.value) == f"{path}:2: expected 4 fields, got 3"


def binarize_weather(obs: WeatherObservation) -> tuple[bool, float]:
    """(rain flag, precipitation) of one observation, as the weather columns give them."""
    weather = WeatherColumns.from_observations([obs])
    return bool(weather.rain[0]), float(weather.precipitation[0])


class TestBinarize:
    def test_cloudy_is_dry(self):
        obs = WeatherObservation(date(2021, 10, 1), 7, WeatherCategory.CLOUDY, 0.0)
        assert binarize_weather(obs) == (False, 0.0)

    def test_freezing_rain_is_wet(self):
        obs = WeatherObservation(date(2021, 10, 1), 7, WeatherCategory.FREEZING_RAIN, 1.5)
        assert binarize_weather(obs) == (True, 1.5)

    def test_other_is_wet_even_without_precipitation(self):
        obs = WeatherObservation(date(2021, 10, 1), 7, WeatherCategory.OTHER, 0.0)
        assert binarize_weather(obs) == (True, 0.0)

    def test_total_function_four_wet_two_dry(self):
        flags = {
            cat: binarize_weather(WeatherObservation(date(2021, 10, 1), 7, cat, 0.0))[0]
            for cat in WeatherCategory
        }
        assert sum(flags.values()) == 4
        assert not flags[WeatherCategory.SUNNY] and not flags[WeatherCategory.CLOUDY]


def join_weather_to_services(records, observations, timetable) -> list[ServiceWeather]:
    """The library join on record and observation lists, its result as a list."""
    return service_weather_of(data_ingest.join_weather_to_services(
        RidershipColumns.from_records(records), WeatherColumns.from_observations(observations), timetable
    ))


def _tables(records, weather):
    """Record and service-weather lists as the column tables ``build_route_dataset`` takes."""
    return RidershipColumns.from_records(records), service_weather_columns(weather)


class TestJoin:
    def test_floor_of_departure_time(self):
        records = [RidershipRecord(date(2021, 10, 1), 1, 1, 3)]
        weather = [WeatherObservation(date(2021, 10, 1), 6, WeatherCategory.SUNNY, 0.0)]
        joined = join_weather_to_services(records, weather, {1: time(6, 40)})
        assert joined == [ServiceWeather(date(2021, 10, 1), 1, False, 0.0)]

    def test_late_service(self):
        records = [RidershipRecord(date(2021, 10, 1), 2, 1, 3)]
        weather = [WeatherObservation(date(2021, 10, 1), 22, WeatherCategory.RAIN, 2.0)]
        joined = join_weather_to_services(records, weather, {2: time(22, 30)})
        assert joined == [ServiceWeather(date(2021, 10, 1), 2, True, 2.0)]

    def test_missing_weather(self):
        records = [RidershipRecord(date(2021, 10, 2), 1, 1, 3)]
        weather = [WeatherObservation(date(2021, 10, 1), 6, WeatherCategory.SUNNY, 0.0)]
        with pytest.raises(MissingWeather):
            join_weather_to_services(records, weather, {1: time(6, 40)})

    def test_missing_timetable_entry(self):
        records = [RidershipRecord(date(2021, 10, 1), 9, 1, 3)]
        weather = [WeatherObservation(date(2021, 10, 1), 6, WeatherCategory.SUNNY, 0.0)]
        with pytest.raises(MissingTimetableEntry):
            join_weather_to_services(records, weather, {1: time(6, 40)})

    def test_duplicate_observation(self):
        records = [RidershipRecord(date(2021, 10, 1), 1, 1, 3)]
        weather = [WeatherObservation(date(2021, 10, 1), h, WeatherCategory.SUNNY, 0.0) for h in (6, 7, 6)]
        with pytest.raises(DuplicateKey, match=r"for \(datetime.date\(2021, 10, 1\), 6\)"):
            join_weather_to_services(records, weather, {1: time(6, 40)})

    def test_first_failing_record_in_input_order(self):
        records = [RidershipRecord(date(2021, 10, 1), 1, 1, 3), RidershipRecord(date(2021, 10, 3), 1, 1, 3),
                   RidershipRecord(date(2021, 10, 1), 9, 1, 3)]
        weather = [WeatherObservation(date(2021, 10, 1), 6, WeatherCategory.SUNNY, 0.0)]
        with pytest.raises(MissingWeather, match="no weather for 2021-10-03 hour 6"):
            join_weather_to_services(records, weather, {1: time(6, 40)})


def _complete_inputs(n_days=2, n_stops=5, services=26):
    config = SynthConfig(n_days=n_days, n_stops=n_stops, services_per_day=services, seed=1)
    records, observations = generate(config)
    weather = join_weather_to_services(records, observations, config.timetable)
    return records, weather, config


class TestBuildRouteDataset:
    def test_counts_complete_services(self):
        records, weather, config = _complete_inputs()
        ds = build_route_dataset(*_tables(records, weather), 5, 26, config.timetable)
        assert len(ds.complete_services) == 52
        assert ds.incomplete_services == ()

    def test_missing_stop_flags_incomplete(self):
        records, weather, config = _complete_inputs()
        key = (records[0].service_date, records[0].service_index)
        records = [
            r
            for r in records
            if not (r.service_date == key[0] and r.service_index == key[1] and r.stop_index == 3)
        ]
        ds = build_route_dataset(*_tables(records, weather), 5, 26, config.timetable)
        assert ds.incomplete_services == (key,)
        assert len(ds.complete_services) == 51

    def test_empty_rejected(self):
        with pytest.raises(EmptyDataset):
            build_route_dataset(*_tables([], []), 5, 26, DEFAULT_TIMETABLE)

    def test_out_of_range_indices_rejected(self):
        records, weather, config = _complete_inputs()
        bad = records + [RidershipRecord(records[0].service_date, 1, 6, 1)]
        with pytest.raises(MalformedRow):
            build_route_dataset(*_tables(bad, weather), 5, 26, config.timetable)

    def test_chronological_sort_total(self):
        records, weather, config = _complete_inputs()
        ds = build_route_dataset(*_tables(reversed(records), weather), 5, 26, config.timetable)
        keys = [tuple(row[:3]) for row in ds.to_payload()["records"]]
        assert keys == sorted(keys) and len(keys) == len(records)
        assert ds.to_payload() == build_route_dataset(*_tables(records, weather), 5, 26, config.timetable).to_payload()

    def test_numpy_integers_are_integers(self):
        records, weather, config = _complete_inputs()
        as_numpy = [
            dataclasses.replace(r, service_index=np.int32(r.service_index), ridership=np.uint16(r.ridership))
            for r in records
        ]
        ds = build_route_dataset(*_tables(as_numpy, weather), 5, 26, config.timetable)
        assert ds.to_payload() == build_route_dataset(*_tables(records, weather), 5, 26, config.timetable).to_payload()

    def test_every_service_needs_weather(self):
        records, weather, config = _complete_inputs()
        with pytest.raises(MissingWeather):
            build_route_dataset(*_tables(records, weather[:-1]), 5, 26, config.timetable)


class TestRoundTrips:
    def test_dataset_cache_round_trip(self, tmp_path, small_dataset):
        path = tmp_path / "dataset.json"
        small_dataset.save(path)
        assert RouteDataset.load(path).to_payload() == small_dataset.to_payload()

    def test_cache_rewrite_is_byte_identical(self, tmp_path):
        records, weather, config = _complete_inputs()
        dropped = (date(2021, 10, 2), 7, 3)
        records = [r for r in records if (r.service_date, r.service_index, r.stop_index) != dropped]
        cache, rewritten = tmp_path / "dataset.json", tmp_path / "again.json"
        build_route_dataset(*_tables(records, weather), 5, 26, config.timetable).save(cache)
        loaded = RouteDataset.load(cache)
        assert loaded.incomplete_services == (dropped[:2],)
        loaded.save(rewritten)
        assert rewritten.read_bytes() == cache.read_bytes()

    def test_date_slice_equals_a_dataset_of_its_records(self):
        records, weather, config = _complete_inputs(n_days=3)
        day = date(2021, 10, 2)
        sliced = build_route_dataset(*_tables(records, weather), 5, 26, config.timetable).subset_by_dates(day, day)
        rebuilt = build_route_dataset(
            *_tables([r for r in records if r.service_date == day], [sw for sw in weather if sw.service_date == day]),
            5, 26, config.timetable,
        )
        assert sliced.to_payload() == rebuilt.to_payload()
        assert sliced.date_range() == (day, day)

    def test_csv_round_trip(self, tmp_path):
        records, weather, config = _complete_inputs()
        r_path = tmp_path / "r.csv"
        write_ridership_csv(records, r_path)
        ds = build_route_dataset(*_tables(records, weather), 5, 26, config.timetable)
        parsed = build_route_dataset(parse_ridership_csv(r_path), service_weather_columns(weather), 5, 26,
                                     config.timetable)
        assert parsed.to_payload() == ds.to_payload()

    @given(
        rows=st.lists(
            st.tuples(
                st.dates(min_value=date(2021, 1, 1), max_value=date(2022, 12, 31)),
                st.integers(min_value=1, max_value=26),
                st.integers(min_value=1, max_value=5),
                st.integers(min_value=0, max_value=500),
            ),
            min_size=1,
            max_size=50,
            unique_by=lambda row: row[:3],
        )
    )
    @settings(max_examples=50, deadline=None)
    def test_ridership_csv_round_trip_property(self, rows, tmp_path_factory):
        records = [RidershipRecord(*row) for row in rows]
        path = tmp_path_factory.mktemp("rt") / "r.csv"
        write_ridership_csv(records, path)
        assert records_of(parse_ridership_csv(path)) == records


def test_synthetic_rain_counts_match_binarization(small_dataset):
    # every joined flag agrees with re-binarizing through the category sets
    config = SynthConfig(n_days=30, seed=11)
    records, observations = generate(config)
    wet = {(o.obs_date, o.obs_hour) for o in observations if o.category in data_ingest.RAIN_CATEGORIES}
    days, services = np.nonzero(small_dataset.weather_mask)
    assert len(days) == 30 * 26
    for d, s in zip(days.tolist(), services.tolist()):
        key = (small_dataset.first_date + timedelta(days=d), config.timetable[s + 1].hour)
        assert small_dataset.rain[d, s] == (key in wet)


def test_next_service_key_wraps_days():
    assert data_ingest.next_service_key((date(2021, 10, 1), 26), 26) == (date(2021, 10, 2), 1)
    assert data_ingest.next_service_key((date(2021, 10, 1), 3), 26) == (date(2021, 10, 1), 4)


def test_full_year_observation_count():
    # 18 hourly rows per day (6:00 through 23:00) over 365 days
    _, observations = generate(SynthConfig(n_days=365, seed=0))
    assert len(observations) == 6570


def _cache_payload(records, weather, timetable) -> dict:
    """A version-1 dataset cache holding exactly these records and weather rows."""
    return {
        "format": "buscast-dataset", "version": 1, "n_stops": 5, "services_per_day": 26,
        "timetable": {str(i): t.isoformat(timespec="minutes") for i, t in timetable.items()},
        "records": [[r.service_date.isoformat(), r.service_index, r.stop_index, r.ridership] for r in records],
        "weather": [[sw.service_date.isoformat(), sw.service_index, int(sw.rain_flag), sw.precipitation_mm]
                    for sw in weather],
    }


def _with_count(records, i, value):
    return records[:i] + [dataclasses.replace(records[i], ridership=value)] + records[i + 1:]


D1, D2 = date(2021, 10, 1), date(2021, 10, 2)

#: name -> (edit of the valid 2-day inputs, error class, message). Every class and
#: message is the record-by-record validation's, except the non-integer and
#: oversized counts, which it accepted (and a cache then truncated or overflowed),
#: and the negative or non-finite precipitation, which it accepted too.
BAD_INPUTS = {
    "empty": (lambda r, w: ([], []), EmptyDataset, "no ridership records"),
    "service-out-of-range": (
        lambda r, w: (r + [RidershipRecord(D2, 27, 1, 1)], w), MalformedRow, "service index 27 outside [1, 26]"),
    "stop-out-of-range": (
        lambda r, w: (r + [RidershipRecord(D1, 3, 6, 1)], w), MalformedRow, "stop index 6 outside [1, 5]"),
    "negative-count": (lambda r, w: (_with_count(r, 7, -2), w), MalformedRow, "negative ridership -2"),
    "duplicate-triple": (
        lambda r, w: (r + [dataclasses.replace(r[60], ridership=9)], w), DuplicateKey,
        "repeated (date, service, stop) (datetime.date(2021, 10, 1), 13, 1)"),
    "duplicate-service-weather": (
        lambda r, w: (r, w + [w[30], w[5]]), DuplicateKey,
        "duplicate service weather for (datetime.date(2021, 10, 2), 5)"),
    "missing-weather": (
        lambda r, w: (r, w[:20] + w[21:]), MissingWeather,
        "no service weather for (datetime.date(2021, 10, 1), 21)"),
    "non-integer-count": (
        lambda r, w: (_with_count(r, 9, 1.5), w), MalformedRow, "ridership 1.5 is not a 64-bit integer"),
    "int-beyond-int64": (
        lambda r, w: (_with_count(r, 9, 2**63), w), MalformedRow,
        "ridership 9223372036854775808 is not a 64-bit integer"),
    # precedence: the first bad record in (date, service, stop) order, its first failing check
    "first-bad-in-sorted-order": (
        lambda r, w: ([RidershipRecord(D2, 1, 6, 1)] + r + [RidershipRecord(D1, 27, 1, 1)], w),
        MalformedRow, "service index 27 outside [1, 26]"),
    "first-failing-check": (
        lambda r, w: (r + [RidershipRecord(D1, 27, 9, -1)], w), MalformedRow, "service index 27 outside [1, 26]"),
    # precedence: repeated weather before bad records, bad records before missing weather
    "weather-before-records": (
        lambda r, w: (r + [RidershipRecord(D1, 27, 1, 1)], w + [w[0]]), DuplicateKey,
        "duplicate service weather for (datetime.date(2021, 10, 1), 1)"),
    "negative-precipitation": (
        lambda r, w: (r, w[:4] + [dataclasses.replace(w[4], precipitation_mm=-5.0)] + w[5:]), MalformedRow,
        "precipitation -5.0 for (datetime.date(2021, 10, 1), 5) is negative or not finite"),
    "infinite-precipitation": (
        lambda r, w: (r, w[:-1] + [dataclasses.replace(w[-1], precipitation_mm=float("inf"))]), MalformedRow,
        "precipitation inf for (datetime.date(2021, 10, 2), 26) is negative or not finite"),
    # precedence: every other check before the precipitation's
    "missing-weather-before-precipitation": (
        lambda r, w: (r, [dataclasses.replace(w[0], precipitation_mm=float("nan"))] + w[1:20] + w[21:]),
        MissingWeather, "no service weather for (datetime.date(2021, 10, 1), 21)"),
    "records-before-missing-weather": (
        lambda r, w: (_with_count(r, len(r) - 1, -1), w[1:]), MalformedRow, "negative ridership -1"),
}


@pytest.mark.parametrize("source", ["build", "load"])
@pytest.mark.parametrize("case", list(BAD_INPUTS))
def test_bad_input_error_and_precedence(case, source, tmp_path):
    edit, error, message = BAD_INPUTS[case]
    records, weather, config = _complete_inputs()
    records, weather = edit(records, weather)
    with pytest.raises(error) as caught:
        if source == "build":
            build_route_dataset(*_tables(records, weather), 5, 26, config.timetable)
        else:
            cache = tmp_path / "dataset.json"
            cache.write_text(json.dumps(_cache_payload(records, weather, config.timetable)))
            RouteDataset.load(cache)
    assert str(caught.value) == message
