import json
import math
from datetime import date

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from buscast.data_ingest import (
    RidershipColumns,
    RidershipRecord,
    build_route_dataset,
)
from buscast.errors import (
    EmptyInput,
    InsufficientData,
    LengthMismatch,
    MissingMethod,
    ZeroReferenceRmse,
)
from buscast.evaluation import (
    EvalReport,
    MethodResult,
    correlation_matrix,
    emit_report,
    evaluate_method,
    evaluate_methods,
    fit_methods,
    improvement_report,
    rmse,
)
from buscast.features import prepare_windows
from buscast.models import MethodId, TrainSchedule, fit_statistical, method_spec
from buscast.synth import SynthConfig, generate, generate_dataset
from buscast.tuning import HyperParams
from buscast.nn_core import OptimizerKind

from ingest_oracle import ServiceWeather, records_of, service_weather_columns


class TestRmse:
    def test_perfect(self):
        assert rmse([1.0, 2.0], [1.0, 2.0]) == 0.0

    def test_hand_arithmetic(self):
        assert rmse([2.0, 2.0], [0.0, 0.0]) == 2.0

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatch):
            rmse([1.0], [1.0, 2.0])

    def test_empty(self):
        with pytest.raises(EmptyInput):
            rmse([], [])

    @given(
        pairs=st.lists(
            st.tuples(
                st.floats(-100, 100, allow_nan=False), st.floats(-100, 100, allow_nan=False)
            ),
            min_size=1,
            max_size=40,
        ),
        seed=st.integers(min_value=0, max_value=2**16),
    )
    @settings(max_examples=100, deadline=None)
    def test_permutation_invariance(self, pairs, seed):
        p = np.array([a for a, _ in pairs])
        t = np.array([b for _, b in pairs])
        perm = np.random.default_rng(seed).permutation(len(pairs))
        assert rmse(p, t) == pytest.approx(rmse(p[perm], t[perm]), rel=1e-12, abs=1e-12)


def _two_stop_dataset(series_a, series_b):
    """Dataset with two stops carrying the given aligned ridership series."""
    day = date(2022, 1, 1)
    records, weather = [], []
    for i, (a, b) in enumerate(zip(series_a, series_b)):
        d = date.fromordinal(day.toordinal() + i // 26)
        svc = 1 + i % 26
        records.append(RidershipRecord(d, svc, 1, a))
        records.append(RidershipRecord(d, svc, 2, b))
        weather.append(ServiceWeather(d, svc, False, 0.0))
    return build_route_dataset(
        RidershipColumns.from_records(records), service_weather_columns(weather), 2, 26
    )


def _pearson_two_pass(xs, ys):
    """Brute-force oracle: explicit two-pass formula on compensated sums."""
    n = len(xs)
    mx = math.fsum(xs) / n
    my = math.fsum(ys) / n
    cov = math.fsum((x - mx) * (y - my) for x, y in zip(xs, ys))
    vx = math.fsum((x - mx) ** 2 for x in xs)
    vy = math.fsum((y - my) ** 2 for y in ys)
    return cov / math.sqrt(vx * vy)


class TestCorrelation:
    def test_identical_series(self):
        ds = _two_stop_dataset([1, 5, 3, 8, 2], [1, 5, 3, 8, 2])
        matrix = correlation_matrix(ds)
        assert matrix.values[0, 1] == pytest.approx(1.0)

    def test_matches_two_pass_oracle(self, small_dataset):
        matrix = correlation_matrix(small_dataset)
        series = [{} for _ in range(5)]
        for r in records_of(generate(SynthConfig(n_days=30, seed=11))[0]):  # the records of small_dataset
            series[r.stop_index - 1][(r.service_date, r.service_index)] = r.ridership
        for a in range(5):
            for b in range(a + 1, 5):
                common = sorted(set(series[a]) & set(series[b]))
                expected = _pearson_two_pass(
                    [series[a][k] for k in common], [series[b][k] for k in common]
                )
                assert abs(matrix.values[a, b] - expected) < 1e-12

    def test_symmetric_and_unit_diagonal(self, small_dataset):
        values = correlation_matrix(small_dataset).values
        assert np.array_equal(values, values.T)
        assert np.all(np.diag(values) == 1.0)
        finite = values[np.isfinite(values)]
        assert np.all(finite >= -1.0) and np.all(finite <= 1.0)

    def test_zero_variance_is_undefined_not_poison(self):
        ds = _two_stop_dataset([4, 4, 4, 4], [1, 2, 3, 4])
        values = correlation_matrix(ds).values
        assert math.isnan(values[0, 1]) and math.isnan(values[1, 0])
        assert values[0, 0] == 1.0 and values[1, 1] == 1.0

    def test_insufficient_data(self):
        ds = _two_stop_dataset([4], [1])
        with pytest.raises(InsufficientData):
            correlation_matrix(ds)

    def test_positive_latent_weight_gives_positive_correlations(self):
        ds = generate_dataset(SynthConfig(n_days=40, seed=13, latent_weight=0.3))
        values = correlation_matrix(ds).values
        off_diag = values[~np.eye(5, dtype=bool)]
        assert np.all(off_diag > 0.0)


#: RMSE table from the reference comparison used to pin improvement math.
REFERENCE_RMSE = {
    MethodId.A: (1.419, 2.399, 2.716, 4.056, 1.963),
    MethodId.B: (1.311, 2.217, 2.530, 3.694, 1.905),
    MethodId.C: (1.357, 2.377, 2.781, 4.164, 2.020),
    MethodId.D: (1.128, 2.122, 2.459, 3.636, 1.737),
    MethodId.PER_STOP: (1.549, 2.683, 2.928, 4.981, 2.320),
    MethodId.STATISTICAL: (1.389, 2.474, 3.047, 4.517, 2.032),
}


def _reference_report():
    return EvalReport(
        stops=(1, 2, 3, 4, 5),
        methods={m: MethodResult(per_stop=v) for m, v in REFERENCE_RMSE.items()},
    )


class TestImprovement:
    def test_reference_table_gains(self):
        report = _reference_report()
        imp = improvement_report(report, MethodId.PER_STOP)
        gains = imp.per_method[MethodId.D]
        assert [round(g, 1) for g in gains] == [27.2, 20.9, 16.0, 27.0, 25.1]
        assert [round(g) for g in gains] == [27, 21, 16, 27, 25]
        assert imp.mean_per_method[MethodId.D] == pytest.approx(23.2, abs=0.05)

    def test_self_improvement_is_zero(self):
        imp = improvement_report(_reference_report(), MethodId.D)
        assert all(g == 0.0 for g in imp.per_method[MethodId.D])

    def test_missing_reference(self):
        report = EvalReport(stops=(1,), methods={MethodId.A: MethodResult(per_stop=(1.0,))})
        with pytest.raises(MissingMethod):
            improvement_report(report, MethodId.D)

    def test_zero_reference(self):
        report = EvalReport(
            stops=(1,),
            methods={
                MethodId.A: MethodResult(per_stop=(1.0,)),
                MethodId.D: MethodResult(per_stop=(0.0,)),
            },
        )
        with pytest.raises(ZeroReferenceRmse):
            improvement_report(report, MethodId.D)

    def test_gains_recompute_from_rmse_table_alone(self):
        report = _reference_report()
        imp = improvement_report(report, MethodId.PER_STOP)
        for method, gains in imp.per_method.items():
            for got, mine, ref in zip(gains, report.methods[method].per_stop,
                                      report.methods[MethodId.PER_STOP].per_stop):
                assert got == pytest.approx(100.0 * (ref - mine) / ref, rel=1e-12)


class TestEmitReport:
    def test_csv_layout_and_json_round_trip(self, tmp_path):
        report = _reference_report()
        paths = emit_report(report, tmp_path, reference=MethodId.PER_STOP)
        lines = paths["csv"].read_text().splitlines()
        assert len(lines) == 1 + 6  # header + six methods
        assert lines[0].split(",")[:2] == ["method", "stop1_rmse"]
        assert len(lines[1].split(",")) == 1 + 5 + 1
        payload = json.loads(paths["json"].read_text())
        assert payload["stops"] == [1, 2, 3, 4, 5]
        assert list(payload["methods"]) == sorted(m.value for m in REFERENCE_RMSE)
        for method, per_stop in REFERENCE_RMSE.items():
            entry = payload["methods"][method.value]
            assert entry == {"per_stop": list(per_stop), "mean": float(np.mean(per_stop)), "per_seed": {}}
        assert paths["improvement"].exists()


class TestEvaluateMethodAndHarness:
    def test_memorizing_model_scores_near_zero_on_its_own_windows(self):
        from dataclasses import replace

        from buscast.features import scale_targets
        from buscast.models import LstmForecaster, Member, build_model, train

        ds = generate_dataset(SynthConfig(n_days=14, seed=3))
        boundaries = (date(2021, 10, 10), date(2021, 10, 12))
        spec = method_spec(MethodId.D, 26)
        hp = HyperParams(16, 26, 32, 1, 0.01, OptimizerKind.ADAM)
        prepared = prepare_windows(ds, boundaries, spec.features, 26)
        scaled = scale_targets(prepared.train, prepared.scalers)
        ten_scaled = replace(
            scaled, starts=scaled.starts[:10], y=scaled.y[:10], slots=scaled.slots[:10],
        )
        ten_raw = replace(
            prepared.train, starts=prepared.train.starts[:10], y=prepared.train.y[:10],
            slots=prepared.train.slots[:10],
        )
        model = build_model(spec, hp, 5, seed=0)
        train(model, ten_scaled, ten_scaled, hp, TrainSchedule(max_epochs=300, patience=300), seed=1)
        per_stop = evaluate_method(LstmForecaster((Member(model, hp, 0),), prepared.scalers), ten_raw)
        assert all(v < 0.1 for v in per_stop)

    def test_statistical_is_exact_on_constant_series(self, quiet_dataset):
        boundaries = (date(2021, 10, 10), date(2021, 10, 12))
        spec = method_spec(MethodId.A, 26)
        prepared = prepare_windows(quiet_dataset, boundaries, spec.features, 26)
        baseline = fit_statistical(quiet_dataset, (quiet_dataset.date_range()[0], boundaries[1]))
        per_stop = evaluate_method(baseline, prepared.test)
        assert per_stop == [0.0] * 5

    def test_harness_reports_all_methods(self):
        ds = generate_dataset(SynthConfig(n_days=16, n_stops=2, seed=21))
        hp = HyperParams(32, 13, 4, 1, 0.01, OptimizerKind.ADAM)
        boundaries = (date(2021, 10, 12), date(2021, 10, 14))
        fitted = fit_methods(
            ds,
            boundaries,
            {MethodId.A: hp, MethodId.PER_STOP: hp},
            seeds=[0, 1],
            schedule=TrainSchedule(max_epochs=4, patience=4),
        )
        report = evaluate_methods(ds, boundaries, {**fitted, MethodId.STATISTICAL: None})
        assert set(report.methods) == {MethodId.A, MethodId.PER_STOP, MethodId.STATISTICAL}
        for method, result in report.methods.items():
            assert len(result.per_stop) == 2
            assert all(v >= 0.0 for v in result.per_stop)
        # NN methods retain per-seed values; medians come from them
        a = report.methods[MethodId.A]
        assert set(a.per_seed) == {0, 1}
        stacked = np.array([a.per_seed[0], a.per_seed[1]])
        assert np.allclose(np.median(stacked, axis=0), a.per_stop)
