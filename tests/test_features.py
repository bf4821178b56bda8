import dataclasses
from datetime import date, timedelta

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from buscast.data_ingest import build_route_dataset
from buscast.errors import (
    BadArgs,
    BadBoundaries,
    EmptyInput,
    IndexOutOfRange,
    TooShort,
)
from buscast.features import (
    FeatureSpec,
    ScalerParams,
    build_windows,
    chronological_split,
    encode_stop,
    encode_windows,
    fit_scaler,
    fit_scalers,
    inverse_scale,
    prepare_windows,
    scale,
    scale_targets,
)
from buscast.models import MethodId, method_spec
from buscast.synth import SynthConfig, generate
from buscast.data_ingest import join_weather_to_services

from ingest_oracle import complete_keys, incomplete_keys, records_of, ridership_columns
from synth_oracle import generate_dataset
from window_oracle import one_hot, slots_of


class TestScaler:
    def test_fit(self):
        assert fit_scaler([0, 5, 10]) == ScalerParams(0.0, 10.0)

    def test_fit_constant(self):
        assert fit_scaler([4, 4, 4]) == ScalerParams(4.0, 4.0)

    def test_fit_empty(self):
        with pytest.raises(EmptyInput):
            fit_scaler([])

    def test_scale_midpoint(self):
        assert scale(5, ScalerParams(0, 10)) == 0.5

    def test_scale_minimum(self):
        assert scale(0, ScalerParams(0, 10)) == 0.0

    def test_scale_degenerate(self):
        assert scale(7, ScalerParams(4, 4)) == 0.0

    def test_out_of_range_not_clipped(self):
        assert scale(20, ScalerParams(0, 10)) == 2.0
        assert scale(-5, ScalerParams(0, 10)) == -0.5

    def test_inverse(self):
        assert inverse_scale(0.5, ScalerParams(0, 10)) == 5.0

    @given(st.lists(st.integers(min_value=0, max_value=10_000), min_size=1, max_size=60))
    @settings(max_examples=100, deadline=None)
    def test_fitted_values_land_in_unit_interval(self, values):
        params = fit_scaler(values)
        for v in values:
            assert 0.0 <= scale(v, params) <= 1.0


class TestOneHot:
    def test_middle(self):
        assert one_hot(2, 7).tolist() == [0, 0, 1, 0, 0, 0, 0]
        assert one_hot(np.array([2, 0]), 3).tolist() == [[0, 0, 1], [1, 0, 0]]

    def test_first(self):
        assert one_hot(0, 2).tolist() == [1, 0]

    def test_out_of_range(self):
        with pytest.raises(IndexOutOfRange):
            one_hot(7, 7)
        with pytest.raises(IndexOutOfRange):
            one_hot(np.array([0, 7]), 7)

    @given(st.integers(min_value=1, max_value=50).flatmap(
        lambda k: st.tuples(st.just(k), st.integers(min_value=0, max_value=k - 1))
    ))
    @settings(max_examples=100, deadline=None)
    def test_sums_to_one(self, pair):
        k, i = pair
        vec = one_hot(i, k)
        assert vec.sum() == 1.0 and vec[i] == 1.0


def _method_dim(method):
    return method_spec(method, 26).features.dimension


class TestDimensions:
    def test_method_dims(self):
        assert _method_dim(MethodId.A) == 1
        assert _method_dim(MethodId.B) == 34
        assert _method_dim(MethodId.C) == 4
        assert _method_dim(MethodId.D) == 37
        assert _method_dim(MethodId.PER_STOP) == 1

    @given(
        dow=st.booleans(),
        svc=st.booleans(),
        rain=st.booleans(),
        services=st.integers(min_value=1, max_value=60),
    )
    @settings(max_examples=100, deadline=None)
    def test_dimension_law(self, dow, svc, rain, services):
        spec = FeatureSpec(dow, svc, rain, services)
        assert spec.dimension == 1 + 7 * dow + services * svc + 3 * rain


@pytest.fixture(scope="module")
def encoded(small_dataset_module):
    ds = small_dataset_module
    spec = method_spec(MethodId.D, 26).features
    scalers = fit_scalers(ds, spec)
    return ds, spec, scalers


@pytest.fixture(scope="module")
def small_dataset_module():
    return generate_dataset(SynthConfig(n_days=30, seed=11))


def _encoded_row(ds, key, spec, scalers, stop=1):
    matrix = encode_stop(ds, stop, spec, scalers)
    return matrix.rows[matrix.slots.tolist().index(slots_of([key], ds.services_per_day)[0])]


class TestEncodeService:
    def test_full_row_length_and_block_sums(self, encoded):
        ds, spec, scalers = encoded
        row = _encoded_row(ds, complete_keys(ds)[0], spec, scalers)
        assert row.shape == (37,)
        # three one-hot blocks: day of week, service number, rain flag
        assert row[1:8].sum() == 1.0
        assert row[8:34].sum() == 1.0
        assert row[34:36].sum() == 1.0

    def test_ridership_only_row(self, encoded):
        ds, _, scalers = encoded
        spec_a = method_spec(MethodId.A, 26).features
        row = _encoded_row(ds, complete_keys(ds)[0], spec_a, scalers)
        assert row.shape == (1,)

    def test_day_of_week_index_is_monday_zero(self, encoded):
        ds, spec, scalers = encoded
        # 2021-10-01 is a Friday -> index 4
        row = _encoded_row(ds, (date(2021, 10, 1), 1), spec, scalers)
        assert row[1 + 4] == 1.0

    def test_scaled_channels_in_unit_interval_on_fit_split(self, encoded):
        ds, spec, scalers = encoded
        for stop in range(1, 6):
            matrix = encode_stop(ds, stop, spec, scalers)
            assert np.all(matrix.rows[:, 0] >= 0.0) and np.all(matrix.rows[:, 0] <= 1.0)
            assert np.all(matrix.rows[:, 36] >= 0.0) and np.all(matrix.rows[:, 36] <= 1.0)

    def test_service_past_the_spec_is_refused(self, encoded):
        # A spec of one service fewer than the route: service 26's index 25
        # would land in the rain block's first column, inside the row.
        ds, spec, scalers = encoded
        short = dataclasses.replace(spec, services_per_day=ds.services_per_day - 1)
        with pytest.raises(IndexOutOfRange, match=r"index 25 outside \[0, 25\)"):
            encode_windows(ds, short, scalers, 26)


def _contig_dataset(n_days, drop=None, seed=2):
    """Small 2-stop route; optionally drop one stop row to create a gap."""
    config = SynthConfig(n_days=n_days, n_stops=2, services_per_day=26, seed=seed)
    ridership, weather = generate(config)
    records = records_of(ridership)
    if drop is not None:
        records = [
            r
            for r in records
            if not (r.service_date == drop[0] and r.service_index == drop[1] and r.stop_index == 1)
        ]
    ridership = ridership_columns(records)
    service_weather = join_weather_to_services(ridership, weather, config.timetable)
    return build_route_dataset(ridership, service_weather, 2, 26)


class TestWindows:
    def test_count_without_gaps(self):
        ds = _contig_dataset(5)  # 130 services
        spec = method_spec(MethodId.A, 26).features
        scalers = fit_scalers(ds, spec)
        windows = build_windows(encode_stop(ds, 1, spec, scalers), 26)
        assert windows.x.shape == (130, 1)  # the stop's rows, shared by all windows
        assert windows.starts.shape == (104,)
        assert windows.y.shape == (104, 1)

    def test_too_short(self):
        ds = _contig_dataset(1)  # exactly 26 services
        spec = method_spec(MethodId.A, 26).features
        scalers = fit_scalers(ds, spec)
        with pytest.raises(TooShort):
            build_windows(encode_stop(ds, 1, spec, scalers), 26)

    def test_first_label_is_service_after_look_back(self):
        ds = _contig_dataset(3)
        spec = method_spec(MethodId.A, 26).features
        scalers = fit_scalers(ds, spec)
        matrix = encode_stop(ds, 1, spec, scalers)
        windows = build_windows(matrix, 26)
        # y[0] is the raw ridership of the 27th service
        key_27 = complete_keys(ds)[26]
        assert windows.slots[0] == slots_of([key_27], 26)[0]
        ridership, _ = generate(SynthConfig(n_days=3, n_stops=2, services_per_day=26, seed=2))
        (record,) = [r for r in records_of(ridership) if (r.service_date, r.service_index, r.stop_index) == (*key_27, 1)]
        assert windows.y[0, 0] == float(record.ridership)

    def test_window_consistency(self):
        ds = _contig_dataset(4)
        spec = method_spec(MethodId.A, 26).features
        scalers = fit_scalers(ds, spec)
        windows = build_windows(encode_stop(ds, 1, spec, scalers), 26)
        x = windows.x[windows.starts[:, None] + np.arange(26)]
        for i in range(x.shape[0] - 1):
            assert np.array_equal(x[i, 1:], x[i + 1, :-1])

    def test_gap_breaks_segments(self):
        drop_key = (date(2021, 10, 3), 10)
        ds = _contig_dataset(5, drop=drop_key)
        assert incomplete_keys(ds) == (drop_key,)
        spec = method_spec(MethodId.A, 26).features
        scalers = fit_scalers(ds, spec)
        matrix = encode_stop(ds, 1, spec, scalers)
        bounds = [0, *(np.flatnonzero(np.diff(matrix.slots) != 1) + 1).tolist(), len(matrix.slots)]
        segments = list(zip(bounds[:-1], bounds[1:]))
        assert segments == [(0, 61), (61, 129)]
        windows = build_windows(matrix, 26)
        # two segments of 61 and 68 services -> (61-26) + (68-26)
        assert windows.starts.shape[0] == (61 - 26) + (68 - 26)
        # no window straddles the excluded service
        assert slots_of([drop_key], 26)[0] not in windows.slots
        for start in windows.starts:
            assert any(a <= start and start + 26 < b for a, b in segments)

    def test_bad_look_back(self):
        ds = _contig_dataset(2)
        spec = method_spec(MethodId.A, 26).features
        scalers = fit_scalers(ds, spec)
        with pytest.raises(BadArgs):
            build_windows(encode_stop(ds, 1, spec, scalers), 0)


class TestSplit:
    def test_partition(self, small_dataset):
        b = (date(2021, 10, 20), date(2021, 10, 25))
        train, val, test = chronological_split(small_dataset, b)
        total = train.mask.sum() + val.mask.sum() + test.mask.sum()
        assert total == small_dataset.mask.sum() == 30 * 26 * 5
        assert max(train.dates()) <= b[0]
        assert min(val.dates()) > b[0]
        assert max(val.dates()) <= b[1]
        assert min(test.dates()) > b[1]
        # the splits are views of the dataset's arrays
        assert all(np.shares_memory(split.ridership, small_dataset.ridership) for split in (train, val, test))

    def test_boundaries_must_increase(self, small_dataset):
        with pytest.raises(BadBoundaries):
            chronological_split(small_dataset, (date(2021, 10, 25), date(2021, 10, 20)))

    def test_boundaries_outside_range(self, small_dataset):
        with pytest.raises(BadBoundaries):
            chronological_split(small_dataset, (date(2023, 1, 1), date(2023, 2, 1)))

    def test_no_leakage(self, small_dataset):
        b = (date(2021, 10, 20), date(2021, 10, 25))
        spec = method_spec(MethodId.D, 26).features
        prepared = prepare_windows(small_dataset, b, spec, 26)
        # scalers depend only on the train split
        train_ds, _, _ = chronological_split(small_dataset, b)
        assert prepared.scalers == fit_scalers(train_ds, spec)
        # every test window predicts a service strictly after the validation end
        assert prepared.test.slots.min() >= slots_of([(b[1] + timedelta(days=1), 1)], 26)[0]
        # aligned across stops
        assert prepared.train.n_stops == 5


class TestScaleTargets:
    def test_scaled_and_raw_targets(self, small_dataset):
        b = (date(2021, 10, 20), date(2021, 10, 25))
        spec = method_spec(MethodId.A, 26).features
        prepared = prepare_windows(small_dataset, b, spec, 26)
        scaled = scale_targets(prepared.train, prepared.scalers)
        assert np.all(scaled.y >= 0.0) and np.all(scaled.y <= 1.0)
        for col in range(5):
            params = prepared.scalers.ridership[col + 1]
            restored = inverse_scale(scaled.y[:, col], params)
            assert np.allclose(restored, prepared.train.y[:, col])


def _held_bytes(obj) -> int:
    """Bytes of the distinct buffers behind the arrays of a dataclass, nested dataclasses included."""
    held = {}

    def walk(value):
        if isinstance(value, np.ndarray):
            while isinstance(value.base, np.ndarray):
                value = value.base
            held[id(value)] = value.nbytes
        elif dataclasses.is_dataclass(value):
            for f in dataclasses.fields(value):
                walk(getattr(value, f.name))

    walk(obj)
    return sum(held.values())


def test_a_split_holds_the_shared_columns_once():
    # n stops' ridership plus one copy of the D-1 columns every stop shares,
    # not an (n, T, D) stack, beside the starts, targets and slots.
    ds = generate_dataset(SynthConfig(n_days=60, seed=5))
    lo, _ = ds.date_range()
    bounds = (lo + timedelta(days=39), lo + timedelta(days=49))
    spec = method_spec(MethodId.D, 26).features
    prepared = prepare_windows(ds, bounds, spec, 26)
    total = 0
    for split, aligned in zip(chronological_split(ds, bounds), (prepared.train, prepared.val, prepared.test)):
        rows = int(split.complete.sum())
        allowed = 8 * (ds.n_stops * rows + rows * (spec.dimension - 1))
        allowed += aligned.starts.nbytes + aligned.y.nbytes + aligned.slots.nbytes
        assert _held_bytes(aligned) <= allowed
        total += allowed
    assert _held_bytes(prepared) <= total
