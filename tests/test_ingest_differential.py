"""The columnar ingest against the row-by-row oracle, on small generated CSV files.

Each example writes a ridership and a weather CSV for a two-stop, three-service
route, starting from a complete grid and applying a few edits: odd or padded
field values, quoted fields holding a newline, blank lines, dropped,
repeated, short and long rows, remapped, duplicated and missing columns, and
category aliases. Both sides then parse, join and build. They must agree on
every stage's result and on the saved cache, or raise the same error. The
only differences allowed are the columnar side's extra rejections: a row
with fewer fields than the header and a non-finite precipitation.
"""

import re
from datetime import date, time, timedelta

from hypothesis import given, settings
from hypothesis import strategies as st

from buscast import data_ingest
from buscast.data_ingest import build_route_dataset
from buscast.errors import BuscastError, MalformedRow

import ingest_oracle
from ingest_oracle import observations_of, records_of, ridership_columns, service_weather_columns, service_weather_of

TIMETABLE = {1: time(6, 40), 2: time(7, 10), 3: time(22, 30)}
N_STOPS, SERVICES = 2, 3
START = date(2021, 10, 1)
RENAMED = {"date": "day", "service_index": "svc", "stop_index": "stop", "ridership": "count"}

#: Raw field values per column that parse (some then fail the join or the build), and that do not.
INTEGERS = [" 2", "3 ", "+1", "0", "1_0", "2\n", "7", "9223372036854775808", "10" * 12]
FINE = {
    "date": [" 2021-10-02 ", "20211001", "2021-10-01\n", "2021-10-04"],
    "service_index": INTEGERS + ["4"],
    "stop_index": INTEGERS,
    "ridership": INTEGERS,
    "hour": [" 22 ", "007", "8", "23"],
    "category": ["cloudy", "rain_showers", "  RAIN  ", "FreezingRain", "hare"],
    "precipitation_mm": [" 1.5 ", "0", "-0.0", "2\n", "1e-3"],
}
BAD = {
    "date": ["2021-13-01", "2021-10-0x", ""],
    "service_index": ["-1", "1.5", "x", ""],
    "stop_index": ["-1", "1.5", "x", ""],
    "ridership": ["-1", "1.5", "x", ""],
    "hour": ["5", "24", "x", "", "7.0", "9223372036854775808"],
    "category": ["Hail", ""],
    "precipitation_mm": ["-1", "nan", "inf", "-inf", "1e999", "x", ""],
}
for values in (FINE, BAD):
    values.update({RENAMED[name]: values[name] for name in RENAMED})
NEW_REJECTIONS = re.compile(r": (expected \d+ fields, got \d+|non-finite number '.*')$", re.S)


def _field(raw: str) -> str:
    return '"' + raw.replace('"', '""') + '"' if any(c in raw for c in ',"\r\n') else raw


@st.composite
def csv_text(draw, columns: list[str], rows: list[dict]) -> str:
    """A CSV of ``rows`` under a drawn header, after a few drawn edits."""
    header = [(name, name) for name in draw(st.permutations(columns))]
    if draw(st.booleans()):
        header.insert(draw(st.integers(0, len(header))), ("note", None))
    if draw(st.integers(0, 3)) == 3:  # a duplicated header name: the last one is the column read
        header.insert(draw(st.integers(0, len(header))), (draw(st.sampled_from(columns)), None))
    if draw(st.integers(0, 19)) == 7:
        del header[draw(st.integers(0, len(header) - 1))]
    lines: list[list[str] | None] = [[row.get(c, "junk") if c else "n,\nb" for _, c in header] for row in rows]
    for _ in range(draw(st.integers(0, 3))):
        if not lines:
            break
        i = draw(st.integers(0, len(lines) - 1))
        edit = draw(st.sampled_from(["fine", "fine", "fine", "bad", "drop", "repeat", "blank", "short", "long"]))
        if lines[i] is None or edit == "blank":
            lines.insert(i, None)
        elif edit in ("fine", "bad"):
            j = draw(st.integers(0, len(header) - 1))
            if header[j][1] and j < len(lines[i]):
                lines[i][j] = draw(st.sampled_from((FINE if edit == "fine" else BAD)[header[j][1]]))
        elif edit == "drop":
            del lines[i]
        elif edit == "repeat":
            lines.insert(draw(st.integers(0, len(lines))), list(lines[i]))
        elif edit == "short":
            lines[i] = lines[i][: draw(st.integers(0, len(header) - 1))]
        else:
            lines[i] = lines[i] + ["extra"]
    end = draw(st.sampled_from(["\n", "\r\n"]))
    names = [name for name, _ in header]
    body = [",".join(map(_field, line)) if line is not None else "" for line in [names, *lines]]
    return end.join(body) + (end if draw(st.booleans()) else "")


@st.composite
def route_files(draw):
    days = [START + timedelta(days=d) for d in range(draw(st.integers(1, 3)))]
    counts = st.integers(0, 40).map(str)
    ridership = [
        {"date": d.isoformat(), "service_index": str(s), "stop_index": str(b), "ridership": draw(counts)}
        for d in days for s in TIMETABLE for b in range(1, N_STOPS + 1)
    ]
    hours = sorted({t.hour for t in TIMETABLE.values()} | set(draw(st.lists(st.integers(6, 23), max_size=2))))
    weather = [
        {"date": d.isoformat(), "hour": str(h), "category": draw(st.sampled_from(["Sunny", *FINE["category"][:-1]])),
         "precipitation_mm": draw(st.sampled_from(["0.0", "1.5", "0", "12.25"]))}
        for d in days for h in hours
    ]
    renamed = draw(st.booleans())
    columns = list(RENAMED.values()) if renamed else list(RENAMED)
    rows = [{RENAMED[k] if renamed else k: v for k, v in row.items()} for row in ridership]
    remap = RENAMED if renamed or draw(st.integers(0, 19)) == 7 else None
    aliases = draw(st.sampled_from([{"hare": "Sunny"}] * 4 + [None] * 3 + [{"x": "Blizzard"}]))
    return (
        draw(csv_text(columns, rows)), remap,
        draw(csv_text(list(data_ingest.WEATHER_COLUMNS), weather)), aliases,
    )


def _stages(parse_ridership, parse_weather, join, records_list, observations_list, joined_list, tables, files):
    """Each stage's result as lists, up to and including the first error as (class, message)."""
    r_path, remap, w_path, aliases, cache = files
    done = []
    try:
        records = parse_ridership(r_path, remap)
        done.append(records_list(records))
        observations = parse_weather(w_path, aliases)
        done.append(observations_list(observations))
        joined = join(records, observations, TIMETABLE)
        done.append(joined_list(joined))
        build_route_dataset(*tables(records, joined), N_STOPS, SERVICES).save(cache)
        done.append(cache.read_bytes())
    except BuscastError as exc:
        done.append((type(exc), str(exc)))
    except AttributeError as exc:  # the oracle on a row shorter than its header
        done.append((AttributeError, str(exc)))
    return done


def _line(outcome) -> int | None:
    match = isinstance(outcome, tuple) and re.match(r"[^:]*\.csv:(\d+): ", outcome[1])
    return int(match.group(1)) if match else None


@given(files=route_files())
@settings(max_examples=200, deadline=None)
def test_columnar_ingest_matches_the_row_oracle(files, tmp_path_factory):
    ridership_text, remap, weather_text, aliases = files
    tmp = tmp_path_factory.mktemp("diff")
    (tmp / "r.csv").write_text(ridership_text, encoding="utf-8", newline="")
    (tmp / "w.csv").write_text(weather_text, encoding="utf-8", newline="")
    paths = (tmp / "r.csv", remap, tmp / "w.csv", aliases)

    new = _stages(
        data_ingest.parse_ridership_csv, data_ingest.parse_weather_csv, data_ingest.join_weather_to_services,
        records_of, observations_of, service_weather_of, lambda records, joined: (records, joined),
        (*paths, tmp / "new.json"),
    )
    old = _stages(
        ingest_oracle.parse_ridership_csv, ingest_oracle.parse_weather_csv, ingest_oracle.join_weather_to_services,
        list, list, list, lambda records, joined: (ridership_columns(records),
                                                   service_weather_columns(joined)),
        (*paths, tmp / "old.json"),
    )
    if new == old:
        return
    # Only a new rejection may differ: raised at a stage the oracle passed, or at an
    # earlier line of the same file, with every stage before it equal.
    error = new[-1]
    assert error[0] is MalformedRow and NEW_REJECTIONS.search(error[1]), (new[-1], old[-1])
    assert new[:-1] == old[: len(new) - 1]
    if len(old) == len(new) and isinstance(old[-1], tuple) and old[-1][0] is not AttributeError:
        assert _line(error) <= _line(old[-1]), (error, old[-1])
