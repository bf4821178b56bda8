import copy
import csv
import dataclasses
import json
import re
from datetime import date, time, timedelta

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from buscast import data_ingest
from buscast.data_ingest import (
    RouteDataset,
    WeatherCategory,
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

from ingest_oracle import (
    RidershipRecord,
    ServiceWeather,
    WeatherObservation,
    complete_keys,
    csv_table,
    incomplete_keys,
    observations_of,
    records_of,
    ridership_columns,
    service_weather_columns,
    service_weather_of,
    cache_bytes,
    dataset_bytes,
    dataset_payload,
    read_cache,
    weather_columns,
    with_cache_cells,
)
from synth_oracle import generate_dataset


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
            build_route_dataset(records, weather, 5, 26)
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


#: Every character the csv module or a line split could treat apart, and a few plain ones.
CSV_CHARS = ',"\r\n\0 1a\x85\u2028'


@st.composite
def csv_texts(draw) -> str:
    """Mostly a header and rows of plain fields under drawn line ends, with blank, ragged and
    special-character lines; otherwise any short text over ``CSV_CHARS``."""
    if draw(st.integers(0, 4)) == 0:
        return draw(st.text(CSV_CHARS, max_size=24))
    plain = st.text(" 1a\x85\u2028", max_size=3)
    field = st.integers(0, 29).flatmap(lambda k: st.text(CSV_CHARS, min_size=1, max_size=3) if k == 0 else plain)
    width = draw(st.integers(1, 4))
    lines = [",".join(draw(st.lists(st.sampled_from(["a", "b", " a", "", "\x85"]), min_size=width, max_size=width)))]
    for _ in range(draw(st.integers(0, 5))):
        kind = draw(st.sampled_from(["row"] * 6 + ["blank", "ragged"]))
        n = {"row": width, "blank": 0}.get(kind) or draw(st.integers(1, width + 1))
        lines.append(",".join(draw(st.lists(field, min_size=n, max_size=n))))
    ends = draw(st.sampled_from(["\n", "\r\n", "mixed"]))
    text = "".join(line + (draw(st.sampled_from(["\n", "\r\n"])) if ends == "mixed" else ends) for line in lines)
    return text.rstrip("\r\n") if draw(st.booleans()) else text


@given(text=csv_texts(), limit=st.sampled_from([None, None, None, 2, 5]))
@example(text="", limit=None)
@example(text="a,a\r\n", limit=None)
@example(text="a,b\r\n1," + "9" * 131_073 + "\r\n", limit=None)
@settings(max_examples=400, deadline=None, derandomize=True)
def test_csv_table_matches_the_csv_reader(text, limit, tmp_path_factory):
    """``_CsvTable`` reads the table ``csv.reader`` reads, whichever way it splits the text, or raises
    the same error; ``raise_first`` names the line each row ends on. ``limit`` lowers the field size
    limit of the csv module for the example."""
    path = tmp_path_factory.mktemp("table") / "t.csv"
    path.write_text(text, encoding="utf-8", newline="")
    previous = csv.field_size_limit(limit) if limit else None
    try:
        try:
            expected = csv_table(path, text)
        except MalformedRow as exc:
            with pytest.raises(MalformedRow) as caught:
                data_ingest._CsvTable(path, "CSV")
            assert str(caught.value) == str(exc)
            return
        table = data_ingest._CsvTable(path, "CSV")
        header, position, n_rows, n_full, columns, lines = expected
        assert (table.header, table.position, table.n_rows, table.n_full) == (header, position, n_rows, n_full)
        assert [list(column) for column in table.columns] == columns
        for i in range(min(n_full + 1, n_rows)):  # each full row flagged, then the first short one
            with pytest.raises(MalformedRow, match=f"^{re.escape(str(path))}:{lines[i]}: "):
                table.raise_first((np.arange(n_full) == i, MalformedRow, lambda row: "flagged"))
    finally:
        if previous is not None:
            csv.field_size_limit(previous)


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
    weather = weather_columns([obs])
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
        ridership_columns(records), weather_columns(observations), timetable
    ))


def _tables(records, weather):
    """Record and service-weather lists as the column tables ``build_route_dataset`` takes."""
    return ridership_columns(records), service_weather_columns(weather)


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
    ridership, observations = generate(config)
    records = records_of(ridership)
    weather = join_weather_to_services(records, observations_of(observations), config.timetable)
    return records, weather, config


class TestBuildRouteDataset:
    def test_counts_complete_services(self):
        records, weather, config = _complete_inputs()
        ds = build_route_dataset(*_tables(records, weather), 5, 26)
        assert len(complete_keys(ds)) == 52
        assert incomplete_keys(ds) == ()

    def test_missing_stop_flags_incomplete(self):
        records, weather, config = _complete_inputs()
        key = (records[0].service_date, records[0].service_index)
        records = [
            r
            for r in records
            if not (r.service_date == key[0] and r.service_index == key[1] and r.stop_index == 3)
        ]
        ds = build_route_dataset(*_tables(records, weather), 5, 26)
        assert incomplete_keys(ds) == (key,)
        assert len(complete_keys(ds)) == 51

    def test_empty_rejected(self):
        with pytest.raises(EmptyDataset):
            build_route_dataset(*_tables([], []), 5, 26)

    def test_out_of_range_indices_rejected(self):
        records, weather, config = _complete_inputs()
        bad = records + [RidershipRecord(records[0].service_date, 1, 6, 1)]
        with pytest.raises(MalformedRow):
            build_route_dataset(*_tables(bad, weather), 5, 26)

    def test_chronological_sort_total(self):
        records, weather, config = _complete_inputs()
        ds = build_route_dataset(*_tables(reversed(records), weather), 5, 26)
        assert int(ds.mask.sum()) == len(records)
        assert dataset_bytes(ds) == dataset_bytes(build_route_dataset(*_tables(records, weather), 5, 26))

    def test_numpy_integers_are_integers(self):
        records, weather, config = _complete_inputs()
        as_numpy = [
            dataclasses.replace(r, service_index=np.int32(r.service_index), ridership=np.uint16(r.ridership))
            for r in records
        ]
        ds = build_route_dataset(*_tables(as_numpy, weather), 5, 26)
        assert dataset_bytes(ds) == dataset_bytes(build_route_dataset(*_tables(records, weather), 5, 26))

    def test_every_service_needs_weather(self):
        records, weather, config = _complete_inputs()
        with pytest.raises(MissingWeather):
            build_route_dataset(*_tables(records, weather[:-1]), 5, 26)


class TestRoundTrips:
    def test_dataset_cache_round_trip(self, tmp_path, small_dataset):
        path = tmp_path / "dataset.json"
        small_dataset.save(path)
        assert path.read_bytes() == dataset_bytes(small_dataset)
        assert dataset_bytes(RouteDataset.load(path)) == dataset_bytes(small_dataset)

    def test_cache_rewrite_is_byte_identical(self, tmp_path):
        records, weather, config = _complete_inputs()
        dropped = (date(2021, 10, 2), 7, 3)
        records = [r for r in records if (r.service_date, r.service_index, r.stop_index) != dropped]
        cache, rewritten = tmp_path / "dataset.json", tmp_path / "again.json"
        build_route_dataset(*_tables(records, weather), 5, 26).save(cache)
        loaded = RouteDataset.load(cache)
        assert incomplete_keys(loaded) == (dropped[:2],)
        loaded.save(rewritten)
        assert rewritten.read_bytes() == cache.read_bytes()

    def test_date_slice_equals_a_dataset_of_its_records(self):
        records, weather, config = _complete_inputs(n_days=3)
        day = date(2021, 10, 2)
        sliced = build_route_dataset(*_tables(records, weather), 5, 26).subset_by_dates(day, day)
        rebuilt = build_route_dataset(
            *_tables([r for r in records if r.service_date == day], [sw for sw in weather if sw.service_date == day]),
            5, 26,
        )
        assert dataset_bytes(sliced) == dataset_bytes(rebuilt)
        assert sliced.date_range() == (day, day)

    def test_csv_round_trip(self, tmp_path):
        records, weather, config = _complete_inputs()
        r_path = tmp_path / "r.csv"
        write_ridership_csv(ridership_columns(records), r_path)
        ds = build_route_dataset(*_tables(records, weather), 5, 26)
        parsed = build_route_dataset(parse_ridership_csv(r_path), service_weather_columns(weather), 5, 26)
        assert dataset_bytes(parsed) == dataset_bytes(ds)

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
        write_ridership_csv(ridership_columns(records), path)
        assert records_of(parse_ridership_csv(path)) == records


def test_synthetic_rain_counts_match_binarization(small_dataset):
    # every joined flag agrees with re-binarizing through the category sets
    config = SynthConfig(n_days=30, seed=11)
    _, weather = generate(config)
    wet = {(o.obs_date, o.obs_hour) for o in observations_of(weather) if o.category in data_ingest.RAIN_CATEGORIES}
    days, services = np.nonzero(small_dataset.weather_mask)
    assert len(days) == 30 * 26
    for d, s in zip(days.tolist(), services.tolist()):
        key = (small_dataset.first_date + timedelta(days=d), config.timetable[s + 1].hour)
        assert small_dataset.rain[d, s] == (key in wet)


def test_service_key_wraps_days():
    first = date(2021, 10, 1).toordinal() * 26
    assert data_ingest.service_key(first + 25, 26) == (date(2021, 10, 1), 26)
    assert data_ingest.service_key(first + 26, 26) == (date(2021, 10, 2), 1)
    assert data_ingest.service_key(first + 3, 26) == (date(2021, 10, 1), 4)
    ds = generate_dataset(SynthConfig(n_days=2, n_stops=2, seed=1))
    assert data_ingest.service_key(ds.first_slot + 27, 26) == (ds.first_date + timedelta(days=1), 2)


def test_full_year_observation_count():
    # 18 hourly rows per day (6:00 through 23:00) over 365 days
    _, observations = generate(SynthConfig(n_days=365, seed=0))
    assert len(observations) == 6570


def _grid_payload(records, weather) -> dict:
    """The payload of a dataset cache laying out exactly these records and weather rows, unvalidated."""
    dates = [r.service_date for r in records] + [sw.service_date for sw in weather]
    first = min(dates, default=D1)
    days = (max(dates) - first).days + 1 if dates else 0
    ridership, mask = np.zeros((days, 26, 5), dtype=np.int64), np.zeros((days, 26, 5), dtype=bool)
    rain, weather_mask = np.zeros((2, days, 26), dtype=bool)
    precipitation = np.zeros((days, 26))
    for r in records:
        cell = ((r.service_date - first).days, r.service_index - 1, r.stop_index - 1)
        ridership[cell], mask[cell] = r.ridership, True
    for sw in weather:
        cell = ((sw.service_date - first).days, sw.service_index - 1)
        rain[cell], precipitation[cell], weather_mask[cell] = sw.rain_flag, sw.precipitation_mm, True
    return dataset_payload(RouteDataset(5, 26, first, ridership, mask, rain, precipitation, weather_mask))


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
    # precedence: service weather outside the route before the grid's cell checks
    "weather-outside-the-route": (
        lambda r, w: (r, w[:20] + w[21:] + [ServiceWeather(D1, 27, False, -1.0)]), MalformedRow,
        "service weather for service 27 outside [1, 26]"),
}


#: The cases a typed (day, service, stop) grid cannot hold: a service or stop
#: outside it, two values for one cell, or a count that is not a 64-bit
#: integer. Only ``build_route_dataset`` sees them.
NOT_A_GRID = {
    "service-out-of-range", "stop-out-of-range", "duplicate-triple", "duplicate-service-weather",
    "first-bad-in-sorted-order", "first-failing-check", "weather-before-records", "non-integer-count",
    "int-beyond-int64", "weather-outside-the-route",
}


@pytest.mark.parametrize(
    "case, source",
    [(case, source) for case in BAD_INPUTS for source in ("build", "load")
     if source == "build" or case not in NOT_A_GRID],
    ids=lambda value: value,
)
def test_bad_input_error_and_precedence(case, source, tmp_path):
    """``build_route_dataset``, and ``RouteDataset.load`` of the same inputs laid out as a cache grid."""
    edit, error, message = BAD_INPUTS[case]
    records, weather, config = _complete_inputs()
    records, weather = edit(records, weather)
    with pytest.raises(error) as caught:
        if source == "build":
            build_route_dataset(*_tables(records, weather), 5, 26)
        else:
            cache = tmp_path / "dataset.json"
            cache.write_bytes(cache_bytes(_grid_payload(records, weather)))
            RouteDataset.load(cache)
    assert str(caught.value) == message


def _with(payload, **changes):
    return {**payload, **changes}


def _without(payload, key):
    return {k: v for k, v in payload.items() if k != key}


def _cut_in(payload, key, kept):
    """The cache file of the payload, cut ``kept`` bytes into grid ``key``."""
    start = sum(payload[name].nbytes for name in list(data_ingest.GRIDS)[: list(data_ingest.GRIDS).index(key)])
    raw = cache_bytes(payload)
    return raw[: len(raw) - sum(payload[name].nbytes for name in data_ingest.GRIDS) + start + kept]


def _no_counts(payload):
    return with_cache_cells(with_cache_cells(payload, "mask", ((), 0)), "ridership", ((), 0))


def _no_weather(payload, day, service):
    """The payload with no weather for service (day, service), as the cache stores an unobserved one."""
    cleared = with_cache_cells(payload, "weather_mask", ((day, service), 0))
    cleared = with_cache_cells(cleared, "rain", ((day, service), 0))
    return with_cache_cells(cleared, "precipitation", ((day, service), 0))


def _unobserved(payload, day, service):
    """The payload with service (day, service) neither observed nor given weather."""
    cleared = with_cache_cells(payload, "mask", ((day, service), 0))
    return _no_weather(with_cache_cells(cleared, "ridership", ((day, service), 0)), day, service)


CELL = "(datetime.date(2021, 10, 1), 5)"

#: name -> (edit of a valid 2-day, 26-service, 5-stop cache payload, error class,
#: message with <path> for the cache's path). An edit returns a payload, which
#: is written as a version-4 cache, or the file's bytes or text. The cases run
#: in the load's order; those named ``...-before-...`` or ``earlier-...-first``
#: break two checks and expect the one the load raises first. A cache fixes
#: each grid's dtype, so the cases that gave one cell a value of another type
#: (``count-true``, ``rain-float``, ``precipitation-text`` ...) give the whole
#: grid that type.
BAD_CACHES = {
    # 1. not a version-4 buscast cache
    "not-json": (lambda p: "{", MalformedRow,
                 "<path>: malformed dataset cache: Expecting property name enclosed in double quotes: "
                 "line 1 column 2 (char 1)"),
    "too-deeply-nested": (lambda p: "[" * 100_000, MalformedRow,
                          "<path>: malformed dataset cache: maximum recursion depth exceeded while decoding a JSON "
                          "array from a unicode string"),
    "corrupt-header": (lambda p: cache_bytes(p).replace(b'{"days"', b'["days"', 1), MalformedRow,
                       "<path>: malformed dataset cache: Expecting ',' delimiter: line 1 column 8 (char 7)"),
    "cut-before-the-header": (lambda p: b"BCKP\0\0", MalformedRow, "<path>: malformed dataset cache: no container header"),
    "not-an-object": (lambda p: "[]", MalformedRow, "<path>: not a buscast dataset cache"),
    "other-format": (lambda p: _with(p, format="csv"), MalformedRow, "<path>: not a buscast dataset cache"),
    "version-1": (lambda p: _with(p, version=1), MalformedRow,
                  "<path>: version-1 dataset cache; run 'buscast ingest' again to rewrite it"),
    "version-2": (lambda p: _with(p, version=2), MalformedRow,
                  "<path>: version-2 dataset cache; run 'buscast ingest' again to rewrite it"),
    "version-3": (lambda p: _with(p, version="3"), MalformedRow, "<path>: unsupported dataset cache version '3'"),
    "json-version-3": (lambda p: json.dumps({"format": "buscast-dataset", "version": 3, "ridership": ""}),
                       MalformedRow, "<path>: version-3 dataset cache; run 'buscast ingest' again to rewrite it"),
    # only the container holds version 4
    "version-4": (lambda p: json.dumps({"format": "buscast-dataset", "version": 4}), MalformedRow,
                  "<path>: unsupported dataset cache version 4"),
    "version-5": (lambda p: _with(p, version=5), MalformedRow, "<path>: unsupported dataset cache version 5"),
    "no-version": (lambda p: _without(p, "version"), MalformedRow,
                   "<path>: unsupported dataset cache version None"),
    "version-before-key": (lambda p: _without(_with(p, version=1), "ridership"), MalformedRow,
                           "<path>: version-1 dataset cache; run 'buscast ingest' again to rewrite it"),
    # 2. a container that nn_core.read_arrays refuses: its version, its params list (a dtype outside
    # int64, bool and float64 included), an array the file cuts short, then bytes after the last array
    "container-version-2": (lambda p: _with(p, format_version=2), MalformedRow,
                            "<path>: unsupported container version 2"),
    "container-version-text": (lambda p: _with(p, format_version="1"), MalformedRow,
                               "<path>: unsupported container version '1'"),
    "container-version-true": (lambda p: _with(p, format_version=True), MalformedRow,
                               "<path>: unsupported container version True"),
    "version-before-container": (lambda p: _with(p, version=1, format_version=2), MalformedRow,
                                 "<path>: version-1 dataset cache; run 'buscast ingest' again to rewrite it"),
    "grid-list-not-a-list": (lambda p: _with(p, params={}), MalformedRow, "<path>: malformed parameter list"),
    "grid-without-shape": (lambda p: _with(p, params=[["ridership"]]), MalformedRow,
                           "<path>: malformed parameter list"),
    "grid-listed-twice": (lambda p: _with(p, params=[["ridership", [2, 26, 5], "<i8"]] * 2), MalformedRow,
                          "<path>: malformed parameter list"),
    "count-text": (lambda p: _with(p, ridership=p["ridership"].astype(str)), MalformedRow,
                   "<path>: malformed parameter list"),
    "bad-base64": (lambda p: _with(p, mask=p["mask"].astype(np.uint8)), MalformedRow,
                   "<path>: malformed parameter list"),
    "precipitation-text": (lambda p: _with(p, precipitation=p["precipitation"].astype(str)), MalformedRow,
                           "<path>: malformed parameter list"),
    "ragged-ridership": (lambda p: _cut_in(p, "ridership", 2072), MalformedRow,
                         "<path>: truncated payload at ridership (2072 of 2080 bytes)"),
    "ragged-precipitation": (lambda p: _cut_in(p, "precipitation", 408), MalformedRow,
                             "<path>: truncated payload at precipitation (408 of 416 bytes)"),
    "cut-before-a-grid": (lambda p: _cut_in(p, "weather_mask", 0), MalformedRow,
                          "<path>: truncated payload at weather_mask (0 of 52 bytes)"),
    "wrong-payload-length": (lambda p: cache_bytes(p) + b"\0\0\0", MalformedRow,
                             "<path>: the arrays end at byte 3176, the file at byte 3179"),
    "container-before-key": (lambda p: _cut_in(_without(p, "first_date"), "rain", 51), MalformedRow,
                             "<path>: truncated payload at rain (51 of 52 bytes)"),
    # 3. a missing grid, or an array that is not a grid
    "no-rain": (lambda p: _without(p, "rain"), MalformedRow, "<path>: dataset cache lacks 'rain'"),
    "no-weather-mask": (lambda p: _without(p, "weather_mask"), MalformedRow,
                        "<path>: dataset cache lacks 'weather_mask'"),
    "key-before-header": (lambda p: _without(_with(p, n_stops=0), "precipitation"), MalformedRow,
                          "<path>: dataset cache lacks 'precipitation'"),
    "extra-array": (lambda p: _with(p, stops=np.zeros(5)), MalformedRow,
                    "<path>: dataset cache holds 'stops', which is not a grid"),
    "missing-before-extra": (lambda p: _with(_without(p, "rain"), stops=np.zeros(5)), MalformedRow,
                             "<path>: dataset cache lacks 'rain'"),
    # 4. a missing or bad header key, key by key in the order n_stops, services_per_day, days, first_date
    "no-first-date": (lambda p: _without(p, "first_date"), MalformedRow, "<path>: header key 'first_date' is missing"),
    "no-days-key": (lambda p: _without(p, "days"), MalformedRow, "<path>: header key 'days' is missing"),
    "grid-before-header-key": (lambda p: _without(_without(p, "first_date"), "rain"), MalformedRow,
                               "<path>: dataset cache lacks 'rain'"),
    "value-before-later-key": (lambda p: _without(_with(p, n_stops=0), "days"), MalformedRow,
                               "<path>: header key 'n_stops': must be an integer of at least 1, got 0"),
    "no-stops": (lambda p: _with(p, n_stops=0), MalformedRow,
                 "<path>: header key 'n_stops': must be an integer of at least 1, got 0"),
    "stops-true": (lambda p: _with(p, n_stops=True), MalformedRow,
                   "<path>: header key 'n_stops': must be an integer of at least 1, got True"),
    "services-text": (lambda p: _with(p, services_per_day="26"), MalformedRow,
                      "<path>: header key 'services_per_day': must be an integer of at least 1, got '26'"),
    "negative-days": (lambda p: _with(p, days=-1), MalformedRow,
                      "<path>: header key 'days': must be an integer of at least 0, got -1"),
    "bad-first-date": (lambda p: _with(p, first_date="2021-13-01"), MalformedRow,
                       "<path>: header key 'first_date': month must be in 1..12, got '2021-13-01'"),
    "numeric-first-date": (lambda p: _with(p, first_date=20211001), MalformedRow,
                           "<path>: header key 'first_date': fromisoformat: argument must be str, got 20211001"),
    "days-past-the-last-date": (lambda p: _with(p, first_date="9999-12-31"), MalformedRow,
                                "<path>: 2 days from 9999-12-31 run past the last representable date"),
    "header-before-shape": (lambda p: _with(p, n_stops=0, ridership=p["ridership"][:1]), MalformedRow,
                            "<path>: header key 'n_stops': must be an integer of at least 1, got 0"),
    # 5. a grid that is not days x services (x stops) cells of its dtype
    "ridership-not-a-list": (lambda p: _with(p, ridership=p["ridership"].ravel()), MalformedRow,
                             "<path>: 'ridership' is a 260 grid of int64, not a 2 x 26 x 5 grid of int64"),
    "count-list": (lambda p: _with(p, ridership=np.array([3])), MalformedRow,
                   "<path>: 'ridership' is a 1 grid of int64, not a 2 x 26 x 5 grid of int64"),
    "count-true": (lambda p: _with(p, ridership=np.ones((2, 26, 5), bool)), MalformedRow,
                   "<path>: 'ridership' is a 2 x 26 x 5 grid of bool, not a 2 x 26 x 5 grid of int64"),
    "count-float": (lambda p: _with(p, ridership=np.full((2, 26, 5), 1.5)), MalformedRow,
                    "<path>: 'ridership' is a 2 x 26 x 5 grid of float64, not a 2 x 26 x 5 grid of int64"),
    "count-nan": (lambda p: _with(p, ridership=np.full((2, 26, 5), np.nan)), MalformedRow,
                  "<path>: 'ridership' is a 2 x 26 x 5 grid of float64, not a 2 x 26 x 5 grid of int64"),
    "rain-true": (lambda p: _with(p, rain=np.ones((2, 26), np.int64)), MalformedRow,
                  "<path>: 'rain' is a 2 x 26 grid of int64, not a 2 x 26 grid of bool"),
    "rain-float": (lambda p: _with(p, rain=np.ones((2, 26))), MalformedRow,
                   "<path>: 'rain' is a 2 x 26 grid of float64, not a 2 x 26 grid of bool"),
    "too-deep-ridership": (lambda p: _with(p, ridership=np.concatenate([p["ridership"]] * 2)), MalformedRow,
                           "<path>: 'ridership' is a 4 x 26 x 5 grid of int64, not a 2 x 26 x 5 grid of int64"),
    "stops-disagree": (lambda p: _with(p, n_stops=4), MalformedRow,
                       "<path>: 'ridership' is a 2 x 26 x 5 grid of int64, not a 2 x 26 x 4 grid of int64"),
    "services-disagree": (lambda p: _with(p, services_per_day=27), MalformedRow,
                          "<path>: 'ridership' is a 2 x 26 x 5 grid of int64, not a 2 x 27 x 5 grid of int64"),
    "days-disagree": (lambda p: _with(p, days=3), MalformedRow,
                      "<path>: 'ridership' is a 2 x 26 x 5 grid of int64, not a 3 x 26 x 5 grid of int64"),
    "rain-days-disagree": (lambda p: _with(p, rain=p["rain"][:1]), MalformedRow,
                           "<path>: 'rain' is a 1 x 26 grid of bool, not a 2 x 26 grid of bool"),
    "shape-before-counts": (lambda p: with_cache_cells(_with(p, rain=p["rain"][:1]), "ridership", ((0, 0, 0), -1)),
                            MalformedRow, "<path>: 'rain' is a 1 x 26 grid of bool, not a 2 x 26 grid of bool"),
    # 6. the first bad count cell in (date, service, stop) order, its first failing check
    "bool-byte-2": (lambda p: with_cache_cells(p, "mask", ((0, 4, 2), 2)), MalformedRow,
                    "observed flag 2 for (datetime.date(2021, 10, 1), 5, 3) is not 0 or 1"),
    "count-not-observed": (lambda p: with_cache_cells(with_cache_cells(p, "mask", ((0, 4, 2), 0)), "ridership",
                                                      ((0, 4, 2), 4)), MalformedRow,
                           "ridership 4 for (datetime.date(2021, 10, 1), 5, 3) is not observed"),
    # 2**63 does not fit the grid's 64 bits; its bit pattern reads as -2**63
    "count-beyond-int64": (lambda p: with_cache_cells(p, "ridership", ((0, 4, 2), -2**63)), MalformedRow,
                           "negative ridership -9223372036854775808"),
    "negative-count": (lambda p: with_cache_cells(p, "ridership", ((0, 4, 2), -2)), MalformedRow,
                       "negative ridership -2"),
    "earlier-date-first": (
        lambda p: with_cache_cells(with_cache_cells(p, "mask", ((1, 0, 0), 2)), "ridership", ((0, 25, 4), -1)),
        MalformedRow, "negative ridership -1"),
    "earlier-stop-first": (
        lambda p: with_cache_cells(with_cache_cells(p, "mask", ((0, 3, 4), 0)), "ridership", ((0, 3, 4), 3),
                                   ((0, 3, 1), -1)),
        MalformedRow, "negative ridership -1"),
    # 7. no count at all
    "no-counts": (_no_counts, EmptyDataset, "no ridership records"),
    "no-days": (lambda p: _with(p, days=0, **{key: p[key][:0] for key in data_ingest.GRIDS}), EmptyDataset,
                "no ridership records"),
    "count-before-empty": (lambda p: with_cache_cells(_no_counts(p), "ridership", ((1, 2, 3), 5)), MalformedRow,
                           "ridership 5 for (datetime.date(2021, 10, 2), 3, 4) is not observed"),
    # 8. an observed service without weather
    "missing-weather": (lambda p: _no_weather(p, 0, 20), MissingWeather,
                        "no service weather for (datetime.date(2021, 10, 1), 21)"),
    "count-before-missing-weather": (
        lambda p: with_cache_cells(_no_weather(p, 0, 0), "ridership", ((1, 25, 4), -1)),
        MalformedRow, "negative ridership -1"),
    "missing-weather-before-values": (
        lambda p: with_cache_cells(_no_weather(p, 1, 3), "rain", ((0, 0), 7)),
        MissingWeather, "no service weather for (datetime.date(2021, 10, 2), 4)"),
    # 9. the first (date, service) with bad weather, its first failing check
    "weather-flag-2": (lambda p: with_cache_cells(p, "weather_mask", ((0, 4), 2)), MalformedRow,
                       f"weather flag 2 for {CELL} is not 0 or 1"),
    "rain-7": (lambda p: with_cache_cells(p, "rain", ((0, 4), 7)), MalformedRow,
               f"rain flag 7 for {CELL} is not 0 or 1"),
    "rain-alone": (lambda p: with_cache_cells(_unobserved(p, 0, 4), "rain", ((0, 4), 1)), MalformedRow,
                   f"rain flag for {CELL} is set without weather"),
    "precipitation-alone": (lambda p: with_cache_cells(_unobserved(p, 0, 4), "precipitation", ((0, 4), 2.5)),
                            MalformedRow, f"precipitation 2.5 for {CELL} is set without weather"),
    "precipitation-without-weather": (
        lambda p: with_cache_cells(_unobserved(p, 0, 4), "precipitation", ((0, 4), float("nan"))), MalformedRow,
        f"precipitation nan for {CELL} is set without weather"),
    "negative-zero-without-weather": (
        lambda p: with_cache_cells(_unobserved(p, 0, 4), "precipitation", ((0, 4), -0.0)), MalformedRow,
        f"precipitation -0.0 for {CELL} is set without weather"),
    "negative-precipitation": (lambda p: with_cache_cells(p, "precipitation", ((0, 4), -5)), MalformedRow,
                               f"precipitation -5.0 for {CELL} is negative or not finite"),
    "nan-precipitation": (lambda p: with_cache_cells(p, "precipitation", ((0, 4), float("nan"))), MalformedRow,
                          f"precipitation nan for {CELL} is negative or not finite"),
    "huge-precipitation": (lambda p: with_cache_cells(p, "precipitation", ((0, 4), float("inf"))), MalformedRow,
                           f"precipitation inf for {CELL} is negative or not finite"),
    "earlier-service-first": (
        lambda p: with_cache_cells(with_cache_cells(p, "rain", ((0, 4), 7)), "precipitation", ((0, 2), -1.0)),
        MalformedRow, "precipitation -1.0 for (datetime.date(2021, 10, 1), 3) is negative or not finite"),
    "rain-before-precipitation": (
        lambda p: with_cache_cells(with_cache_cells(p, "rain", ((0, 4), 7)), "precipitation", ((0, 4), -1.0)),
        MalformedRow, f"rain flag 7 for {CELL} is not 0 or 1"),
}


@pytest.fixture(scope="module")
def valid_cache_payload():
    records, weather, config = _complete_inputs()
    return dataset_payload(build_route_dataset(*_tables(records, weather), 5, 26))


@pytest.mark.parametrize("case", list(BAD_CACHES))
def test_bad_cache_error_and_precedence(case, valid_cache_payload, tmp_path):
    edit, error, message = BAD_CACHES[case]
    cache = tmp_path / "dataset.json"
    edited = edit(copy.deepcopy(valid_cache_payload))
    if isinstance(edited, str):
        cache.write_text(edited)
    else:
        cache.write_bytes(edited if isinstance(edited, bytes) else cache_bytes(edited))
    with pytest.raises(error) as caught:
        RouteDataset.load(cache)
    assert str(caught.value) == message.replace("<path>", str(cache))


GRID_ARRAYS = ("ridership", "mask", "rain", "precipitation", "weather_mask")


@st.composite
def route_grids(draw):
    """Records and joined weather of a small route, with gaps, incomplete services
    and weather-only services; every observed service has weather."""
    n_stops, services, days = draw(st.integers(1, 3)), draw(st.integers(1, 4)), draw(st.integers(1, 4))
    first = draw(st.dates(min_value=date(2000, 1, 1), max_value=date(2099, 12, 31)))
    counts = draw(st.lists(st.one_of(st.none(), st.integers(0, 2**63 - 1)),
                           min_size=days * services * n_stops, max_size=days * services * n_stops))
    weather = draw(st.lists(
        st.one_of(st.none(), st.tuples(st.booleans(), st.floats(0.0, 1e9, allow_nan=False, allow_infinity=False))),
        min_size=days * services, max_size=days * services,
    ))
    assume(any(c is not None for c in counts))
    records, rows = [], []
    for cell, count in enumerate(counts):
        if count is not None:
            day, rest = divmod(cell, services * n_stops)
            records.append(RidershipRecord(first + timedelta(days=day), rest // n_stops + 1, rest % n_stops + 1, count))
    observed = {(r.service_date, r.service_index) for r in records}
    for cell, value in enumerate(weather):
        key = (first + timedelta(days=cell // services), cell % services + 1)
        if value is None and key in observed:
            value = (False, 0.0)
        if value is not None:
            rows.append(ServiceWeather(*key, *value))
    return build_route_dataset(*_tables(records, rows), n_stops, services)


@given(ds=route_grids())
@settings(max_examples=60, deadline=None)
def test_cache_round_trip_property(ds, tmp_path_factory):
    path = tmp_path_factory.mktemp("cache") / "dataset.json"
    ds.save(path)
    loaded = RouteDataset.load(path)
    for name in GRID_ARRAYS:
        expected, actual = getattr(ds, name), getattr(loaded, name)
        assert actual.dtype == expected.dtype and np.array_equal(actual, expected), name
    assert (loaded.n_stops, loaded.services_per_day) == (ds.n_stops, ds.services_per_day)
    assert loaded.first_date == ds.first_date
    rewritten = path.with_name("again.json")
    loaded.save(rewritten)
    assert rewritten.read_bytes() == path.read_bytes()
