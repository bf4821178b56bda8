"""The columnar encoding and shared-columns windows against the record-list oracle, byte for byte."""

import dataclasses
from datetime import date, timedelta

import numpy as np
import pytest

from buscast.data_ingest import build_route_dataset, join_weather_to_services
from buscast.features import (
    chronological_split,
    encode_stop,
    fit_scalers,
    prepare_windows,
    scale_targets,
    stop_view,
    subset_by_targets,
)
from buscast.models import MethodId, build_model, method_spec
from buscast.nn_core import OptimizerKind
from buscast.synth import SynthConfig, generate
from buscast.tuning import HyperParams

from ingest_oracle import incomplete_keys, records_of, ridership_columns, service_weather_of
from window_oracle import (
    RecordRoute,
    as_windows,
    oracle_aligned,
    oracle_batch,
    oracle_scalers,
    oracle_stop_rows,
    slots_of,
)

NN_METHODS = [m for m in MethodId if m is not MethodId.STATISTICAL]
BOUNDS = (date(2021, 10, 8), date(2021, 10, 10))
DROPPED = (date(2021, 10, 3), 10)
LOOK_BACK = 26


def _route(rain_probability):
    """12 days, 3 stops; stop 2 is constant (ridership scaler span 0) and one
    training service misses a stop row (a gap). Without rain the precipitation
    scaler's span is 0 too. Returns the dataset and the lists it was built from."""
    config = SynthConfig(n_days=12, n_stops=3, seed=17, rain_probability=rain_probability)
    ridership, observations = generate(config)
    records = [
        dataclasses.replace(r, ridership=4) if r.stop_index == 2 else r
        for r in records_of(ridership)
        if not (r.service_date == DROPPED[0] and r.service_index == DROPPED[1] and r.stop_index == 1)
    ]
    ridership = ridership_columns(records)
    weather = join_weather_to_services(ridership, observations, config.timetable)
    dataset = build_route_dataset(ridership, weather, 3, 26)
    return dataset, RecordRoute(records, service_weather_of(weather), 3, 26)


@pytest.fixture(scope="module", params=[0.0, 0.5], ids=["dry", "rain"])
def route(request):
    ds, lists = _route(request.param)
    assert incomplete_keys(ds) == (DROPPED,)
    return ds, lists


def _split_lists(lists):
    """The oracle's own chronological split of the record lists."""
    lo, hi = min(r.service_date for r in lists.records), max(r.service_date for r in lists.records)
    one_day = timedelta(days=1)
    return (
        lists.between(lo, BOUNDS[0]),
        lists.between(BOUNDS[0] + one_day, BOUNDS[1]),
        lists.between(BOUNDS[1] + one_day, hi),
    )


def _splits(route, method):
    ds, lists = route
    spec = method_spec(method, 26).features
    prepared = prepare_windows(ds, BOUNDS, spec, LOOK_BACK)
    return spec, prepared, zip(_split_lists(lists), (prepared.train, prepared.val, prepared.test))


def _index_sets(n):
    perm = np.random.default_rng(n).permutation(n)
    return [perm, perm[:16], perm[5:6], slice(0, 7), slice(5, n), slice(0, 512), slice(n - 3, n)]


def _assert_same_bytes(got, expected):
    assert got.dtype == np.float64 and got.flags.c_contiguous
    assert got.shape == expected.shape
    assert got.tobytes() == expected.tobytes()


def _assert_same_slots(got, expected):
    assert got.dtype == np.int64 and got.tobytes() == expected.tobytes()


@pytest.mark.parametrize("method", NN_METHODS, ids=lambda m: m.value)
def test_rows_match_per_service_encoding(route, method):
    ds, lists = route
    spec = method_spec(method, 26).features
    train_ds, _, _ = chronological_split(ds, BOUNDS)
    scalers = fit_scalers(train_ds, spec)
    # The training split holds the incomplete service, whose counts the scalers include.
    assert scalers == oracle_scalers(_split_lists(lists)[0], spec.use_rain)
    assert scalers.ridership[2].min == scalers.ridership[2].max
    for stop in range(1, ds.n_stops + 1):
        matrix = encode_stop(ds, stop, spec, scalers)
        _assert_same_slots(matrix.slots, slots_of(lists.complete_services(), 26))
        _assert_same_bytes(matrix.rows, oracle_stop_rows(lists, stop, spec, scalers))


@pytest.mark.parametrize("method", NN_METHODS, ids=lambda m: m.value)
def test_split_columns_join_to_each_stops_rows(route, method):
    # A split holds each stop's column 0 and one copy of columns 1..; joined,
    # they are every stop's encoded rows of that split.
    ds, _ = route
    spec = method_spec(method, 26).features
    prepared = prepare_windows(ds, BOUNDS, spec, LOOK_BACK)
    for split_ds, aligned in zip(chronological_split(ds, BOUNDS), (prepared.train, prepared.val, prepared.test)):
        assert aligned.covariates.shape[1] == spec.dimension - 1 == aligned.dimension - 1
        for stop in range(1, ds.n_stops + 1):
            joined = np.column_stack([aligned.ridership[stop - 1], aligned.covariates])
            _assert_same_bytes(joined, encode_stop(split_ds, stop, spec, prepared.scalers).rows)


def _assembled_windows(aligned, idx):
    """Windows ``idx`` as the forward pass reads them: out of the rows the chunk spans."""
    rows, starts = aligned.window_rows(idx)
    assert rows.dtype == np.float64 and rows.flags.c_contiguous
    assert starts.min() == 0 and rows.shape[1] == starts.max() + aligned.look_back
    return np.take(rows, starts[:, None] + np.arange(aligned.look_back), axis=1)


@pytest.mark.parametrize("method", NN_METHODS, ids=lambda m: m.value)
def test_batches_match_stacked_windows(route, method):
    spec, prepared, splits = _splits(route, method)
    for split_lists, aligned in splits:
        xs, y, index_map, starts = oracle_aligned(split_lists, spec, prepared.scalers, LOOK_BACK)
        assert aligned.y.tobytes() == y.tobytes() and aligned.y.shape == y.shape
        assert aligned.starts.tobytes() == starts.astype(np.intp).tobytes()
        _assert_same_slots(aligned.slots, slots_of(index_map, 26))
        assert aligned.n_samples == xs[0].shape[0] and aligned.n_stops == route[0].n_stops
        for idx in _index_sets(aligned.n_samples):
            expected = oracle_batch(xs, idx)
            _assert_same_bytes(aligned.batch(idx), expected)
            _assert_same_bytes(_assembled_windows(aligned, idx), expected)
            # Training gathers into a reused buffer: every byte is overwritten.
            out = np.full(expected.shape, np.nan)
            assert aligned.batch(idx, out=out) is out
            _assert_same_bytes(out, expected)


@pytest.mark.parametrize("method", NN_METHODS, ids=lambda m: m.value)
def test_views_share_rows_and_match_oracle(route, method):
    spec, prepared, splits = _splits(route, method)
    train_lists, train = next(iter(splits))
    xs, y, index_map, _ = oracle_aligned(train_lists, spec, prepared.scalers, LOOK_BACK)

    keep = set(index_map[3::2])
    sub = subset_by_targets(train, slots_of(keep, 26))
    mask = np.array([key in keep for key in index_map])
    assert sub.ridership is train.ridership and sub.covariates is train.covariates
    _assert_same_slots(sub.slots, slots_of([k for k in index_map if k in keep], 26))
    assert sub.y.tobytes() == y[mask].tobytes()
    sub_xs = tuple(x[mask] for x in xs)
    for idx in _index_sets(sub.n_samples):
        _assert_same_bytes(sub.batch(idx), oracle_batch(sub_xs, idx))
        _assert_same_bytes(_assembled_windows(sub, idx), oracle_batch(sub_xs, idx))

    for b in range(route[0].n_stops):
        view = stop_view(train, slice(b, b + 1))
        assert np.shares_memory(view.ridership, train.ridership) and view.covariates is train.covariates
        assert view.y.tobytes() == y[:, b : b + 1].tobytes()
        for idx in _index_sets(view.n_samples):
            _assert_same_bytes(view.batch(idx), oracle_batch(xs[b : b + 1], idx))
            _assert_same_bytes(_assembled_windows(view, idx), oracle_batch(xs[b : b + 1], idx))

    scaled = scale_targets(train, prepared.scalers)
    assert scaled.ridership is train.ridership and scaled.covariates is train.covariates
    assert not np.shares_memory(scaled.y, train.y)


def test_forward_on_a_batch_equals_forward_on_stacked_windows(route):
    spec, prepared, splits = _splits(route, MethodId.D)
    train_lists, train = next(iter(splits))
    xs, _, _, _ = oracle_aligned(train_lists, spec, prepared.scalers, LOOK_BACK)
    model = build_model(method_spec(MethodId.D, 26), HyperParams(16, 26, 8, 2, 0.01, OptimizerKind.ADAM), 3, seed=2)
    idx = np.random.default_rng(0).permutation(train.n_samples)[:32]
    expected = model.forward(as_windows([x[idx] for x in xs]))
    assert model.forward(as_windows(train.batch(idx))).tobytes() == expected.tobytes()
    assert model.forward(train, idx).tobytes() == expected.tobytes()
