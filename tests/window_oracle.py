"""Reference feature encoding and windowing, kept as an exact-equality oracle.

This is the straightforward implementation the columnar dataset and the
shared-columns layout in ``buscast.features`` replaced: it works on the
parsed ``RidershipRecord`` and ``ServiceWeather`` lists, never on a
``RouteDataset``. It groups the records by (date, service), builds one
feature row per complete service block by block with scalar scaling and
one-hot vectors, and copies every look-back window out of the rows. The
optimized path must reproduce its rows, windows and targets bit for bit.
"""

from dataclasses import dataclass
from datetime import timedelta

import numpy as np

from buscast.errors import IndexOutOfRange
from buscast.features import N_RAIN_CLASSES, N_WEEKDAYS, AlignedWindows, ScalerParams, ScalerSet, scale


def next_service_key(key, services_per_day: int):
    """The (date, service) immediately after ``key`` in the daily timetable grid."""
    day, index = key
    if index < services_per_day:
        return day, index + 1
    return day + timedelta(days=1), 1


def slots_of(keys, services_per_day: int) -> np.ndarray:
    """The absolute slots ``date.toordinal() * S + service - 1`` of (date, service) keys, as int64."""
    return np.array([day.toordinal() * services_per_day + index - 1 for day, index in keys], dtype=np.int64)


@dataclass(frozen=True)
class RecordRoute:
    """One route as its record and service-weather lists."""

    records: list
    weather: list
    n_stops: int
    services_per_day: int

    def between(self, start, end) -> "RecordRoute":
        """The records and weather dated start..end inclusive."""
        return RecordRoute(
            [r for r in self.records if start <= r.service_date <= end],
            [sw for sw in self.weather if start <= sw.service_date <= end],
            self.n_stops,
            self.services_per_day,
        )

    def by_service(self) -> dict:
        """{(date, service): {stop: record}}."""
        index: dict = {}
        for r in self.records:
            index.setdefault((r.service_date, r.service_index), {})[r.stop_index] = r
        return index

    def complete_services(self) -> list:
        """Sorted keys of the services with a record at every stop."""
        return sorted(key for key, stops in self.by_service().items() if len(stops) == self.n_stops)

    def weather_of(self) -> dict:
        return {(sw.service_date, sw.service_index): sw for sw in self.weather}


def oracle_scalers(route: RecordRoute, use_rain: bool) -> ScalerSet:
    """Per-stop min and max of every record, and of every service's precipitation."""
    ridership = {}
    for stop in range(1, route.n_stops + 1):
        counts = [r.ridership for r in route.records if r.stop_index == stop]
        ridership[stop] = ScalerParams(float(min(counts)), float(max(counts)))
    precipitation = [sw.precipitation_mm for sw in route.weather]
    return ScalerSet(
        ridership=ridership,
        precipitation=ScalerParams(min(precipitation), max(precipitation)) if use_rain else ScalerParams(0.0, 0.0),
    )


def one_hot(index, cardinality: int) -> np.ndarray:
    """Unit vector e_index of length ``cardinality``; an array of N indices gives N rows."""
    index = np.asarray(index)
    if np.any((index < 0) | (index >= cardinality)):
        raise IndexOutOfRange(f"index outside [0, {cardinality})")
    return np.eye(cardinality)[index]


def encode_service(record, service_weather, spec, scalers) -> np.ndarray:
    """One feature row, blocks concatenated in the fixed documented order."""
    scaled = scale(float(record.ridership), scalers.ridership[record.stop_index])
    parts = [np.array([scaled], dtype=np.float64)]
    if spec.use_day_of_week:
        parts.append(one_hot(record.service_date.weekday(), N_WEEKDAYS))
    if spec.use_service_number:
        parts.append(one_hot(record.service_index - 1, spec.services_per_day))
    if spec.use_rain:
        parts.append(one_hot(int(service_weather.rain_flag), N_RAIN_CLASSES))
        scaled_precip = scale(service_weather.precipitation_mm, scalers.precipitation)
        parts.append(np.array([scaled_precip], dtype=np.float64))
    return np.concatenate(parts)


def oracle_stop_rows(route: RecordRoute, stop_index, spec, scalers) -> np.ndarray:
    """(T, D) rows of one stop, encoded one complete service at a time."""
    keys = route.complete_services()
    by_service, weather = route.by_service(), route.weather_of()
    rows = np.empty((len(keys), spec.dimension), dtype=np.float64)
    for i, key in enumerate(keys):
        rows[i] = encode_service(by_service[key][stop_index], weather[key], spec, scalers)
    return rows


def oracle_trailing_run(route: RecordRoute) -> list:
    """Keys of the last run of complete services that follow each other in the timetable."""
    keys = route.complete_services()
    run = [keys[-1]]
    for key in reversed(keys[:-1]):
        if next_service_key(key, route.services_per_day) != run[0]:
            break
        run.insert(0, key)
    return run


def oracle_stop_windows(route: RecordRoute, stop_index, spec, scalers, look_back):
    """(x (N, L, D), y (N, 1), index_map, starts) with every window copied out and stacked."""
    keys = route.complete_services()
    by_service = route.by_service()
    rows = oracle_stop_rows(route, stop_index, spec, scalers)
    xs, ys, index_map, starts = [], [], [], []
    run_start = 0
    for i in range(1, len(keys) + 1):
        if i < len(keys) and next_service_key(keys[i - 1], route.services_per_day) == keys[i]:
            continue
        for j in range(run_start, i - look_back):
            record = by_service[keys[j + look_back]][stop_index]
            xs.append(rows[j : j + look_back])
            ys.append(float(record.ridership))
            index_map.append(keys[j + look_back])
            starts.append(j)
        run_start = i
    return np.stack(xs).astype(np.float64), np.array(ys).reshape(-1, 1), tuple(index_map), np.array(starts)


def oracle_aligned(route: RecordRoute, spec, scalers, look_back):
    """(xs, y, index_map, starts): one (N, L, D) window tensor per stop, (N, n_stops) targets,
    and the first row of each window."""
    per_stop = [
        oracle_stop_windows(route, stop, spec, scalers, look_back)
        for stop in range(1, route.n_stops + 1)
    ]
    xs = tuple(x for x, _, _, _ in per_stop)
    return xs, np.column_stack([y[:, 0] for _, y, _, _ in per_stop]), per_stop[0][2], per_stop[0][3]


def oracle_batch(xs, idx) -> np.ndarray:
    """The mini-batch as the per-window layout built it: per-stop selection, then a stack."""
    return np.stack([x[idx] for x in xs])


def shared_covariates(xs) -> list:
    """Copies of per-stop (..., D) arrays whose columns 1.. are stop 1's, as every encoded route's are."""
    return [np.concatenate([x[..., :1], xs[0][..., 1:]], axis=-1) for x in xs]


def aligned_from_tensors(xs, y, look_back, slots) -> AlignedWindows:
    """Exact ridership-plus-covariates form of per-stop (N, L, D) window tensors.

    Window i of stop b becomes rows ``i*L : (i+1)*L``, so ``batch(idx)``
    returns ``oracle_batch(xs, idx)`` byte for byte. Columns 1.. must be the
    same at every stop (see :func:`shared_covariates`).
    """
    n, steps, dim = xs[0].shape
    assert steps == look_back
    rows = [x.reshape(n * steps, dim) for x in xs]
    covariates = np.ascontiguousarray(rows[0][:, 1:])
    assert all(r[:, 1:].tobytes() == covariates.tobytes() for r in rows), "columns 1.. differ between stops"
    return AlignedWindows(
        ridership=np.stack([r[:, 0] for r in rows]),
        covariates=covariates,
        starts=np.arange(n, dtype=np.intp) * steps,
        y=y,
        look_back=look_back,
        slots=slots,
    )


def as_windows(xs) -> AlignedWindows:
    """Per-branch (B, L, D) arrays as the windows a forward pass reads: laid end to end, zero targets.

    ``model.forward(as_windows(xs))`` runs the windows ``xs`` hold.
    """
    batch, steps, _ = xs[0].shape
    return aligned_from_tensors(xs, np.zeros((batch, len(xs))), steps, slots=np.zeros(0, dtype=np.int64))
