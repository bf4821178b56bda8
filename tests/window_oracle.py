"""Reference feature encoding and windowing, kept as an exact-equality oracle.

This is the straightforward implementation the rows-plus-starts layout in
``buscast.features`` replaced: one feature row per service, built block by
block with scalar scaling and one-hot vectors, and every look-back window
copied out of the rows and stacked. The optimized path must reproduce its
rows, windows and targets bit for bit.
"""

import numpy as np

from buscast.data_ingest import keys_adjacent
from buscast.features import N_RAIN_CLASSES, N_WEEKDAYS, AlignedWindows, scale


def one_hot(index: int, cardinality: int) -> np.ndarray:
    vec = np.zeros(cardinality, dtype=np.float64)
    vec[index] = 1.0
    return vec


def encode_service(record, service_weather, spec, scalers) -> np.ndarray:
    """One feature row, blocks concatenated in the fixed documented order."""
    parts: list[np.ndarray] = []
    if spec.use_ridership:
        scaled = scale(float(record.ridership), scalers.ridership[record.stop_index])
        parts.append(np.array([scaled], dtype=np.float64))
    if spec.use_day_of_week:
        parts.append(one_hot(record.service_date.weekday(), N_WEEKDAYS))
    if spec.use_service_number:
        parts.append(one_hot(record.service_index - 1, spec.services_per_day))
    if spec.use_rain:
        parts.append(one_hot(int(service_weather.rain_flag), N_RAIN_CLASSES))
        scaled_precip = scale(service_weather.precipitation_mm, scalers.precipitation)
        parts.append(np.array([scaled_precip], dtype=np.float64))
    return np.concatenate(parts)


def oracle_stop_rows(dataset, stop_index, spec, scalers) -> np.ndarray:
    """(T, D) rows of one stop, encoded one service at a time."""
    keys = dataset.complete_services
    rows = np.empty((len(keys), spec.dimension), dtype=np.float64)
    for i, key in enumerate(keys):
        record = dataset.rows_for_service(key)[stop_index]
        rows[i] = encode_service(record, dataset.weather[key], spec, scalers)
    return rows


def oracle_stop_windows(dataset, stop_index, spec, scalers, look_back):
    """(x (N, L, D), y (N, 1), index_map) with every window copied out and stacked."""
    keys = dataset.complete_services
    rows = oracle_stop_rows(dataset, stop_index, spec, scalers)
    xs, ys, index_map = [], [], []
    run_start = 0
    for i in range(1, len(keys) + 1):
        if i < len(keys) and keys_adjacent(keys[i - 1], keys[i], dataset.services_per_day):
            continue
        for j in range(run_start, i - look_back):
            record = dataset.rows_for_service(keys[j + look_back])[stop_index]
            xs.append(rows[j : j + look_back])
            ys.append(float(record.ridership))
            index_map.append(keys[j + look_back])
        run_start = i
    return np.stack(xs).astype(np.float64), np.array(ys).reshape(-1, 1), tuple(index_map)


def oracle_aligned(dataset, spec, scalers, look_back):
    """(xs, y, index_map): one (N, L, D) window tensor per stop and (N, n_stops) targets."""
    per_stop = [
        oracle_stop_windows(dataset, stop, spec, scalers, look_back)
        for stop in range(1, dataset.n_stops + 1)
    ]
    return tuple(x for x, _, _ in per_stop), np.column_stack([y[:, 0] for _, y, _ in per_stop]), per_stop[0][2]


def oracle_batch(xs, idx) -> np.ndarray:
    """The mini-batch as the per-window layout built it: per-stop selection, then a stack."""
    return np.stack([x[idx] for x in xs])


def aligned_from_tensors(xs, y, look_back, index_map) -> AlignedWindows:
    """Exact rows-plus-starts form of per-stop (N, L, D) window tensors.

    Window i of stop b becomes ``rows[b, i*L : (i+1)*L]``, so ``batch(idx)``
    returns ``oracle_batch(xs, idx)`` byte for byte.
    """
    n, steps, dim = xs[0].shape
    assert steps == look_back
    rows = np.stack([x.reshape(n * steps, dim) for x in xs])
    return AlignedWindows(
        rows=rows, starts=np.arange(n, dtype=np.intp) * steps, y=y, look_back=look_back, index_map=index_map
    )
