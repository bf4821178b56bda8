"""Acceptance gate: one test per release criterion, with a pass/fail line each.

Criteria 4b, 5b, and 9 need the real route dataset, which is not shipped with
the repository. Point the BUSCAST_REAL_DATA environment variable at a
directory containing ``ridership.csv`` and ``weather.csv`` in the documented
schema to enable them; otherwise they skip.
"""

import dataclasses
import math
import os
import time
from datetime import date
from pathlib import Path

import numpy as np
import pytest

from buscast.cli import main
from buscast.data_ingest import (
    RAIN_CATEGORIES,
    WeatherCategory,
    build_route_dataset,
    join_weather_to_services,
    parse_ridership_csv,
    parse_weather_csv,
    DEFAULT_TIMETABLE,
)
from buscast.evaluation import correlation_matrix, evaluate_method, evaluate_methods, fit_methods, rmse
from buscast.features import prepare_windows, scale_targets
from buscast.models import (
    LstmForecaster,
    Member,
    MethodId,
    TrainSchedule,
    build_model,
    fit_statistical,
    method_spec,
    train,
)
from buscast.nn_core import (
    OptimizerKind,
    dense_backward,
    dense_forward,
    branched_lstm_backward,
    branched_lstm_forward,
    init_dense_params,
    init_lstm_layers,
    mse_loss,
)
from buscast.synth import SynthConfig, generate
from buscast.tuning import HyperParams, make_schedule

from ingest_oracle import WeatherObservation, records_of, weather_columns
from synth_oracle import generate_dataset

REAL_DATA_DIR = os.environ.get("BUSCAST_REAL_DATA")

WINNER_HP_JOINT = HyperParams(16, 26, 64, 1, 0.001, OptimizerKind.ADAM)
WINNER_HP_PER_STOP = {
    1: HyperParams(256, 26, 16, 1, 0.01, OptimizerKind.RMSPROP),
    2: HyperParams(32, 26, 128, 3, 0.01, OptimizerKind.NADAM),
    3: HyperParams(128, 26, 32, 3, 0.01, OptimizerKind.NADAM),
    4: HyperParams(16, 26, 32, 3, 0.01, OptimizerKind.RMSPROP),
    5: HyperParams(128, 26, 16, 1, 0.01, OptimizerKind.NADAM),
}


def _report(criterion: str, started: float, detail: str = "") -> None:
    extra = f" {detail}" if detail else ""
    print(f"[PASS] {criterion} ({time.time() - started:.1f}s){extra}")


def _load_real_dataset():
    root = Path(REAL_DATA_DIR)
    records = parse_ridership_csv(root / "ridership.csv")
    observations = parse_weather_csv(root / "weather.csv")
    weather = join_weather_to_services(records, observations, DEFAULT_TIMETABLE)
    return build_route_dataset(records, weather, 5, 26), observations


needs_real_data = pytest.mark.skipif(
    not REAL_DATA_DIR, reason="real route dataset not available (set BUSCAST_REAL_DATA)"
)


def test_c01_feature_dimensions():
    started = time.time()
    dims = {m: method_spec(m, 26).features.dimension for m in
            (MethodId.A, MethodId.B, MethodId.C, MethodId.D)}
    assert dims == {MethodId.A: 1, MethodId.B: 34, MethodId.C: 4, MethodId.D: 37}
    _report("C1 feature dimensions 1/34/4/37", started)


def _numerical_gradient(f, arr, eps=1e-5):
    grad = np.zeros_like(arr)
    it = np.nditer(arr, flags=["multi_index"])
    for _ in it:
        idx = it.multi_index
        old = arr[idx]
        arr[idx] = old + eps
        up = f()
        arr[idx] = old - eps
        down = f()
        arr[idx] = old
        grad[idx] = (up - down) / (2.0 * eps)
    return grad


def _rel_err(analytic, numeric):
    # Guard the denominator at 1e-5: below that, central differences with
    # eps=1e-5 are dominated by roundoff and the comparison is absolute.
    scale = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), 1e-5)
    return float(np.max(np.abs(analytic - numeric) / scale))


def test_c02_gradient_correctness():
    started = time.time()
    worst = 0.0
    for seed in range(100):
        rng = np.random.default_rng(seed)
        dim = int(rng.integers(1, 5))
        hidden = int(rng.integers(1, 6))
        steps = int(rng.integers(1, 7))
        batch = int(rng.integers(1, 4))

        # One branch (n = 1) of the branched core.
        params = init_lstm_layers(1, dim, hidden, 1, rng)[0]
        x = rng.normal(size=(1, batch, steps, dim))
        target = rng.normal(size=(1, batch, steps, hidden))

        def lstm_loss():
            hs, _ = branched_lstm_forward(params.w, params.u, params.b, x)
            return mse_loss(hs, target)[0]

        hs, cache = branched_lstm_forward(params.w, params.u, params.b, x)
        _, grad_hs = mse_loss(hs, target)
        grads = branched_lstm_backward(params.w, params.u, cache, grad_hs)
        for analytic, arr in (
            (grads.dw, params.w), (grads.du, params.u), (grads.db, params.b), (grads.dx, x),
        ):
            worst = max(worst, _rel_err(analytic, _numerical_gradient(lstm_loss, arr)))

        dense = init_dense_params(dim, hidden, rng)
        dx_in = rng.normal(size=(batch, dim))
        dtarget = rng.normal(size=(batch, hidden))

        def dense_loss():
            return mse_loss(dense_forward(dense, dx_in), dtarget)[0]

        _, dpred = mse_loss(dense_forward(dense, dx_in), dtarget)
        dw, db, dx = dense_backward(dense, dx_in, dpred)
        for analytic, arr in ((dw, dense.w), (db, dense.b), (dx, dx_in)):
            worst = max(worst, _rel_err(analytic, _numerical_gradient(dense_loss, arr)))

    assert worst < 1e-4
    _report("C2 gradient correctness over 100 seeded instances", started,
            f"worst rel err {worst:.2e}")


def test_c03_statistical_baseline_oracle():
    started = time.time()
    for seed in range(50):
        rng = np.random.default_rng(1000 + seed)
        config = SynthConfig(
            n_days=int(rng.integers(3, 8)),
            n_stops=int(rng.integers(2, 6)),
            seed=seed,
        )
        ds = generate_dataset(config)
        baseline = fit_statistical(ds, ds.date_range())
        groups: dict = {}
        for record in records_of(generate(config)[0]):
            groups.setdefault((record.stop_index, record.service_index), []).append(record.ridership)
        services, stops = np.nonzero(~np.isnan(baseline.means))
        assert set(zip((stops + 1).tolist(), (services + 1).tolist())) == set(groups)
        for (stop, service), values in groups.items():
            oracle = math.fsum(values) / len(values)
            assert abs(baseline.means[service - 1, stop - 1] - oracle) <= 1e-9

    # zero-noise, zero-effect data: the per-(stop, service) series are constant
    quiet = generate_dataset(
        SynthConfig(n_days=14, seed=5, rain_effect=0.0, weekend_effect=0.0,
                    latent_weight=0.0, noise_scale=0.0)
    )
    boundaries = (date(2021, 10, 10), date(2021, 10, 12))
    prepared = prepare_windows(quiet, boundaries, method_spec(MethodId.A, 26).features, 26)
    baseline = fit_statistical(quiet, (quiet.date_range()[0], boundaries[1]))
    per_stop = evaluate_method(baseline, prepared.test)
    assert per_stop == [0.0] * 5
    _report("C3 statistical baseline equals brute-force group-by mean", started)


def test_c04a_correlation_oracle_synthetic():
    started = time.time()
    config = SynthConfig(n_days=25, seed=23, latent_weight=0.2)
    matrix = correlation_matrix(generate_dataset(config))
    series = [{} for _ in range(5)]
    for r in records_of(generate(config)[0]):
        series[r.stop_index - 1][(r.service_date, r.service_index)] = r.ridership
    for a in range(5):
        for b in range(a + 1, 5):
            keys = sorted(set(series[a]) & set(series[b]))
            xs = [series[a][k] for k in keys]
            ys = [series[b][k] for k in keys]
            mx, my = math.fsum(xs) / len(xs), math.fsum(ys) / len(ys)
            cov = math.fsum((x - mx) * (y - my) for x, y in zip(xs, ys))
            vx = math.fsum((x - mx) ** 2 for x in xs)
            vy = math.fsum((y - my) ** 2 for y in ys)
            oracle = cov / math.sqrt(vx * vy)
            assert abs(matrix.values[a, b] - oracle) < 1e-12
    _report("C4a correlation matches two-pass oracle to 1e-12", started)


@needs_real_data
def test_c04b_correlation_real_dataset():
    started = time.time()
    ds, _ = _load_real_dataset()
    matrix = correlation_matrix(ds)
    assert matrix.values[1, 2] == pytest.approx(0.9208, abs=1e-4)
    assert matrix.values[0, 3] == pytest.approx(0.3104, abs=1e-4)
    _report("C4b real-data correlations 0.9208 / 0.3104", started)


def test_c05_weather_binarization_totals():
    started = time.time()
    wet = {cat for cat in WeatherCategory
           if weather_columns([WeatherObservation(date(2021, 10, 1), 7, cat, 0.0)]).rain[0]}
    assert wet == set(RAIN_CATEGORIES)
    assert len(wet) == 4 and len(set(WeatherCategory) - wet) == 2
    if REAL_DATA_DIR:
        _, observations = _load_real_dataset()
        flags = observations.rain.tolist()
        assert sum(flags) == 618
        assert len(flags) - sum(flags) == 5580
        _report("C5 weather totals 618 rain / 5580 no rain", started)
    else:
        _report("C5 weather binarization four wet / two dry", started,
                "(real-data totals skipped: set BUSCAST_REAL_DATA)")


def test_c06_hyperband_schedule():
    started = time.time()
    schedule = make_schedule(27, 3)
    assert [(b.index, b.n_initial, b.rungs[0].epochs) for b in schedule.brackets] == [
        (3, 27, 1), (2, 9, 3), (1, 6, 9), (0, 4, 27),
    ]
    expected_rungs = {
        3: [(27, 1), (9, 3), (3, 9), (1, 27)],
        2: [(9, 3), (3, 9), (1, 27)],
        1: [(6, 9), (2, 27)],
        0: [(4, 27)],
    }
    for bracket in schedule.brackets:
        assert [(r.n_configs, r.epochs) for r in bracket.rungs] == expected_rungs[bracket.index]
        for rung, nxt in zip(bracket.rungs, bracket.rungs[1:]):
            assert rung.n_keep == nxt.n_configs
    _report("C6 Hyperband schedule for R=27, eta=3", started)


def test_c07_learning_capability():
    started = time.time()
    ds = generate_dataset(SynthConfig(n_days=14, seed=42))
    spec = method_spec(MethodId.D, 26)
    prepared = prepare_windows(ds, (date(2021, 10, 10), date(2021, 10, 12)), spec.features, 26)
    scaled = scale_targets(prepared.train, prepared.scalers)
    forty = dataclasses.replace(
        scaled, starts=scaled.starts[:40], y=scaled.y[:40], slots=scaled.slots[:40],
    )
    model = build_model(spec, WINNER_HP_JOINT, 5, seed=0)
    history = train(
        model, forty, forty, WINNER_HP_JOINT,
        TrainSchedule(max_epochs=200, patience=200), seed=1,
    )
    final_train_mse = history.epochs[-1][1]
    assert final_train_mse < 0.01
    _report("C7 joint model overfits 40 samples", started,
            f"train mse {final_train_mse:.5f} after {len(history.epochs)} epochs")


def test_c08_ablation_ordering():
    started = time.time()
    ds = generate_dataset(SynthConfig(n_days=120, seed=17))
    dates = ds.dates()
    boundaries = (dates[int(len(dates) * 0.8) - 1], dates[int(len(dates) * 0.9) - 1])
    hp = HyperParams(128, 26, 16, 1, 0.01, OptimizerKind.ADAM)
    fitted = fit_methods(
        ds,
        boundaries,
        {MethodId.D: hp, MethodId.A: hp, MethodId.PER_STOP: hp},
        seeds=[0, 1, 2, 3, 4],
        schedule=TrainSchedule(max_epochs=25, patience=6),
    )
    report = evaluate_methods(ds, boundaries, fitted)
    d = report.methods[MethodId.D].per_stop
    a = report.methods[MethodId.A].per_stop
    per_stop = report.methods[MethodId.PER_STOP].per_stop
    assert all(x < y for x, y in zip(d, a)), f"D {d} not below A {a} at every stop"
    assert all(x < y for x, y in zip(d, per_stop)), f"D {d} not below per-stop {per_stop}"
    _report("C8 ablation ordering D < A and D < per-stop at every stop", started,
            f"median RMSE D={[f'{v:.2f}' for v in d]}")


@needs_real_data
def test_c09_paper_scale_reproduction():
    started = time.time()
    ds, _ = _load_real_dataset()
    boundaries = (date(2022, 7, 31), date(2022, 8, 31))
    seeds = [0, 1, 2, 3, 4]
    schedule = TrainSchedule(max_epochs=200, patience=10)

    spec_d = method_spec(MethodId.D, 26)
    prepared_d = prepare_windows(ds, boundaries, spec_d.features, 26)
    train_d = scale_targets(prepared_d.train, prepared_d.scalers)
    val_d = scale_targets(prepared_d.val, prepared_d.scalers)

    spec_p = method_spec(MethodId.PER_STOP, 26)
    prepared_p = prepare_windows(ds, boundaries, spec_p.features, 26)
    train_p = scale_targets(prepared_p.train, prepared_p.scalers)
    val_p = scale_targets(prepared_p.val, prepared_p.scalers)

    from buscast.features import stop_view

    d_rmse, p_rmse = [], []
    for seed in seeds:
        model = build_model(spec_d, WINNER_HP_JOINT, 5, seed)
        train(model, train_d, val_d, WINNER_HP_JOINT, schedule, seed + 1)
        joint = LstmForecaster((Member(model, WINNER_HP_JOINT, seed),), prepared_d.scalers)
        d_rmse.append(evaluate_method(joint, prepared_d.test))

        stop_members = []
        for stop in range(1, 6):
            hp = WINNER_HP_PER_STOP[stop]
            m = build_model(spec_p, hp, 5, seed * 5 + stop)
            column = slice(stop - 1, stop)
            train(m, stop_view(train_p, column), stop_view(val_p, column),
                  hp, schedule, seed * 5 + stop + 1)
            stop_members.append(Member(m, hp, seed * 5 + stop))
        per_stop = LstmForecaster(tuple(stop_members), prepared_p.scalers)
        p_rmse.append(evaluate_method(per_stop, prepared_p.test))

    d_median = np.median(np.array(d_rmse), axis=0)
    p_median = np.median(np.array(p_rmse), axis=0)
    assert np.all(d_median < p_median)
    gains = 100.0 * (p_median - d_median) / p_median
    assert float(np.mean(gains)) >= 10.0
    _report("C9 paper-scale reproduction", started, f"mean improvement {np.mean(gains):.1f}%")


def test_c10_training_determinism(tmp_path):
    started = time.time()
    data = tmp_path / "data"
    assert main(["synth", "--days", "16", "--seed", "3", "--out", str(data)]) == 0
    blobs = []
    for run in range(2):
        out = tmp_path / f"run{run}"
        assert main(["ingest", "--ridership", str(data / "ridership.csv"),
                     "--weather", str(data / "weather.csv"), "--out", str(out)]) == 0
        assert main([
            "train", "--dataset", str(out / "dataset.json"), "--method", "d",
            "--out", str(out), "--seed", "5", "--lstm-nodes", "8",
            "--batch-size", "64", "--max-epochs", "5", "--patience", "5",
        ]) == 0
        blobs.append(
            (
                (out / "d.ckpt").read_bytes(),
                (out / "d_history.csv").read_bytes(),
            )
        )
    assert blobs[0][0] == blobs[1][0], "checkpoints differ between identical runs"
    assert blobs[0][1] == blobs[1][1], "loss histories differ between identical runs"
    _report("C10 bit-identical retraining", started)
