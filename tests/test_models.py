import dataclasses
import math
import tracemalloc
import weakref
from datetime import date

import numpy as np
import pytest

from buscast.data_ingest import RidershipColumns, build_route_dataset, join_weather_to_services
from buscast.errors import (
    DivergedTraining,
    EmptyWindow,
    InsufficientHistory,
    InvalidHyperParams,
    MisalignedBatches,
    MissingKey,
)
from buscast.features import AlignedWindows, ScalerParams, ScalerSet, prepare_windows, scale_targets
from buscast import models
from buscast.models import (
    Architecture,
    LstmForecaster,
    LstmRegressor,
    Member,
    MethodId,
    TrainSchedule,
    TrainState,
    build_model,
    fit_statistical,
    load_model,
    load_train_state,
    method_spec,
    predict_next_service,
    save_model,
    save_train_state,
    train,
)
from buscast.nn_core import (
    BufferPool,
    Optimizer,
    OptimizerKind,
    branched_lstm_forward,
    dense_forward,
    load_params,
)
from buscast.synth import SynthConfig, generate, generate_dataset
from buscast.tuning import HyperParams

from ingest_oracle import records_of
from window_oracle import aligned_from_tensors, as_windows, slots_of

HP_SMALL = HyperParams(8, 6, 4, 1, 0.01, OptimizerKind.ADAM)


def _random_windows(rng, n_stops, n, look_back, dim):
    xs = tuple(rng.normal(size=(n, look_back, dim)) for _ in range(n_stops))
    y = rng.normal(size=(n, n_stops))
    keys = tuple((date(2022, 1, 1 + i // 26), 1 + i % 26) for i in range(n))
    return aligned_from_tensors(xs, y, look_back, slots_of(keys, 26))


def _mean(baseline, stop, service, day=date(2021, 10, 11)):
    """The statistical baseline's prediction of (day, service) at ``stop``, through its ``predict``."""
    services, n_stops = baseline.means.shape
    windows = AlignedWindows(
        np.zeros((n_stops, 1, 1)), np.zeros(1, dtype=np.intp), np.zeros((1, n_stops)), 1,
        slots_of([(day, service)], services),
    )
    return float(baseline.predict(windows)[0, stop - 1])


class TestMethodSpecs:
    def test_architectures(self):
        assert method_spec(MethodId.A).architecture is Architecture.JOINT
        assert method_spec(MethodId.D).architecture is Architecture.JOINT
        assert method_spec(MethodId.PER_STOP).architecture is Architecture.PER_STOP
        assert method_spec(MethodId.STATISTICAL).architecture is Architecture.NONE
        assert method_spec(MethodId.STATISTICAL).features is None

    def test_feature_flags(self):
        b = method_spec(MethodId.B).features
        assert b.use_day_of_week and b.use_service_number and not b.use_rain
        c = method_spec(MethodId.C).features
        assert not c.use_day_of_week and not c.use_service_number and c.use_rain


class TestBuildModel:
    def test_joint_head_widths(self):
        hp = HyperParams(16, 26, 64, 1, 0.001, OptimizerKind.ADAM)
        model = build_model(method_spec(MethodId.D), hp, n_stops=5, seed=0)
        assert model.head.w.shape == (5, 320)
        assert model.n_branches == 5
        assert model.input_size == 37

    def test_per_stop_head_widths(self):
        hp = HyperParams(256, 26, 16, 1, 0.01, OptimizerKind.RMSPROP)
        model = build_model(method_spec(MethodId.PER_STOP), hp, n_stops=5, seed=0)
        assert model.head.w.shape == (1, 16)
        assert model.n_branches == 1
        assert model.input_size == 1

    def test_zero_layers_rejected(self):
        hp = HyperParams(16, 26, 64, 0, 0.001, OptimizerKind.ADAM)
        with pytest.raises(InvalidHyperParams):
            build_model(method_spec(MethodId.D), hp, n_stops=5, seed=0)

    def test_statistical_has_no_model(self):
        with pytest.raises(InvalidHyperParams):
            build_model(method_spec(MethodId.STATISTICAL), HP_SMALL, n_stops=5, seed=0)

    def test_deterministic_init(self):
        a = build_model(method_spec(MethodId.D), HP_SMALL, 5, seed=3)
        b = build_model(method_spec(MethodId.D), HP_SMALL, 5, seed=3)
        for name, arr in a.param_dict().items():
            assert np.array_equal(arr, b.param_dict()[name])

    def test_stacked_layer_sizes(self):
        hp = HyperParams(16, 26, 8, 3, 0.001, OptimizerKind.ADAM)
        model = build_model(method_spec(MethodId.D), hp, n_stops=2, seed=0)
        assert [layer.w.shape for layer in model.layers] == [(2, 32, 37), (2, 32, 8), (2, 32, 8)]
        assert [layer.u.shape for layer in model.layers] == [(2, 32, 8)] * 3
        assert [layer.b.shape for layer in model.layers] == [(2, 32)] * 3


class TestForward:
    def test_zero_model_outputs_bias(self):
        model = build_model(method_spec(MethodId.A), HP_SMALL, 3, seed=0)
        for name, arr in model.param_dict().items():
            arr[...] = 0.0
        model.head.b[...] = np.array([1.0, 2.0, 3.0])
        rng = np.random.default_rng(0)
        pred = model.forward(as_windows([rng.normal(size=(4, 6, 1)) for _ in range(3)]))
        assert np.allclose(pred, np.tile([1.0, 2.0, 3.0], (4, 1)))

    def test_permuting_batch_permutes_predictions(self):
        model = build_model(method_spec(MethodId.D), HP_SMALL, 4, seed=1)
        rng = np.random.default_rng(1)
        xs = [rng.normal(size=(6, 6, 37)) for _ in range(4)]
        pred = model.forward(as_windows(xs))
        perm = rng.permutation(6)
        pred_perm = model.forward(as_windows([x[perm] for x in xs]))
        assert np.array_equal(pred_perm, pred[perm])

    def test_matches_manual_composition_of_core_ops(self):
        # Oracle: run each branch alone (n = 1) through the core layer by layer,
        # take the final hidden states, concatenate, and apply the dense head by hand.
        hp = HyperParams(8, 5, 3, 2, 0.01, OptimizerKind.ADAM)
        model = build_model(method_spec(MethodId.D), hp, n_stops=3, seed=7)
        rng = np.random.default_rng(7)
        xs = [rng.normal(size=(1, 5, 37)) for _ in range(3)]

        states = []
        for b, x in enumerate(xs):
            seq = x[None]
            for layer in model.layers:
                seq, _ = branched_lstm_forward(layer.w[b : b + 1], layer.u[b : b + 1], layer.b[b : b + 1], seq)
            states.append(seq[0, :, -1])
        expected = dense_forward(model.head, np.concatenate(states, axis=1))
        assert np.allclose(model.forward(as_windows(xs)), expected, atol=1e-12)

    def test_branch_isolation(self):
        # Branch b's top-layer hidden states depend on stop b's input only.
        hp = HyperParams(8, 6, 4, 2, 0.01, OptimizerKind.ADAM)
        model = build_model(method_spec(MethodId.D), hp, 4, seed=2)

        def branch_states(xs):
            seq = np.stack(xs)
            for layer in model.layers:
                seq, _ = branched_lstm_forward(layer.w, layer.u, layer.b, seq)
            return seq

        rng = np.random.default_rng(2)
        xs = [rng.normal(size=(3, 6, 37)) for _ in range(4)]
        base = branch_states(xs)
        zeroed = [x.copy() for x in xs]
        zeroed[2][...] = 0.0
        changed = branch_states(zeroed)
        for b in range(4):
            if b == 2:
                assert not np.allclose(changed[b], base[b])
            else:
                assert np.array_equal(changed[b], base[b])

    def test_misaligned_batches(self):
        model = build_model(method_spec(MethodId.A), HP_SMALL, 2, seed=0)
        rng = np.random.default_rng(0)
        with pytest.raises(MisalignedBatches):
            model.forward(as_windows([rng.normal(size=(3, 6, 1))]))
        # Windows share their starts across stops; a training batch can still misalign.
        with pytest.raises(MisalignedBatches):
            model.forward_backward([rng.normal(size=(3, 6, 1)), rng.normal(size=(4, 6, 1))], np.zeros((3, 2)))

    def test_model_gradients_match_finite_differences(self):
        from tests_grad_util import model_gradcheck

        worst = model_gradcheck(seed=0, n_stops=2, hp=HyperParams(4, 4, 3, 2, 0.01, OptimizerKind.ADAM))
        assert worst < 1e-4

    def test_forward_keeps_no_bptt_cache(self):
        # A forward-only pass over stride-1 windows must hold neither the
        # (L, 4, n, B, H) gate cache nor the (n, B, L, 4H) windowed input
        # projection, which is as large: its peak stays below the bytes of
        # one of them. numpy reports its buffers to tracemalloc.
        n, batch, steps, hidden = 5, 256, 26, 16
        hp = HyperParams(batch, steps, hidden, 1, 0.01, OptimizerKind.ADAM)
        model = build_model(method_spec(MethodId.D), hp, n, seed=0)
        rows = np.random.default_rng(0).normal(size=(n, batch + steps - 1, model.input_size))
        windows = AlignedWindows(rows, np.arange(batch), np.zeros((batch, n)), steps, slots=np.arange(batch))
        model.forward(windows)
        tracemalloc.start()
        try:
            model.forward(windows)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        gate_cache_bytes = steps * 4 * n * batch * hidden * 8
        assert peak < gate_cache_bytes


class TestTrain:
    def _data(self, seed=0, n=24, n_stops=2, dim=1, look_back=6):
        rng = np.random.default_rng(seed)
        return _random_windows(rng, n_stops, n, look_back, dim)

    def test_same_seed_identical_history(self):
        data = self._data()
        val = self._data(seed=1, n=8)
        histories = []
        for _ in range(2):
            model = build_model(method_spec(MethodId.A), HP_SMALL, 2, seed=5)
            h = train(model, data, val, HP_SMALL, TrainSchedule(max_epochs=8, patience=8), seed=6)
            histories.append(h.epochs)
        assert histories[0] == histories[1]

    def test_stops_within_patience_of_best(self):
        data = self._data()
        val = self._data(seed=1, n=8)
        model = build_model(method_spec(MethodId.A), HP_SMALL, 2, seed=5)
        schedule = TrainSchedule(max_epochs=60, patience=4)
        history = train(model, data, val, HP_SMALL, schedule, seed=6)
        last_epoch = history.epochs[-1][0]
        assert last_epoch <= history.best_epoch + schedule.patience

    def test_restores_best_weights(self):
        data = self._data()
        val = self._data(seed=1, n=8)
        model = build_model(method_spec(MethodId.A), HP_SMALL, 2, seed=5)
        history = train(model, data, val, HP_SMALL, TrainSchedule(max_epochs=20, patience=6), seed=6)
        from buscast.models import _batched_loss

        assert _batched_loss(model, val) == pytest.approx(history.best_val_loss, rel=1e-12)

    def test_epoch_buffers_change_no_batch_and_outlive_no_epoch(self, monkeypatch):
        # 20 windows in batches of 8: every epoch ends with a partial batch of 4.
        data = self._data(n=20, n_stops=3, dim=37)
        val = self._data(seed=1, n=8, n_stops=3, dim=37)
        hp = HyperParams(8, 6, 4, 2, 0.01, OptimizerKind.ADAM)
        model = build_model(method_spec(MethodId.D), hp, 3, seed=5)
        pooled, batches, given = [], [], []

        take = BufferPool.take

        def tracked_take(pool, name, shape):
            arr = take(pool, name, shape)
            pooled.append(weakref.ref(arr.base))
            return arr

        forward_backward = LstmRegressor.forward_backward

        def checked_forward_backward(self, xs, target, buffers=None):
            assert buffers is not None
            loss, grads = forward_backward(self, xs, target, buffers)
            # The same batch alone, in fresh arrays throughout.
            fresh_loss, fresh_grads = forward_backward(self, np.array(xs), target)
            assert loss == fresh_loss and grads.keys() == fresh_grads.keys()
            for name, grad in fresh_grads.items():
                assert grads[name].tobytes() == grad.tobytes()
            batches.append(len(target))
            return loss, grads

        step = Optimizer.step

        def recorded_step(self, params, grads):
            given.append([(grad, grad.copy()) for grad in grads.values()])
            return step(self, params, grads)

        batched_loss = models._batched_loss

        def checked_batched_loss(*args):
            # The validation pass runs after the epoch's buffers are freed.
            assert pooled and all(ref() is None for ref in pooled)
            return batched_loss(*args)

        monkeypatch.setattr(BufferPool, "take", tracked_take)
        monkeypatch.setattr(LstmRegressor, "forward_backward", checked_forward_backward)
        monkeypatch.setattr(Optimizer, "step", recorded_step)
        monkeypatch.setattr(models, "_batched_loss", checked_batched_loss)
        history = train(model, data, val, hp, TrainSchedule(max_epochs=3, patience=3), seed=6)

        assert len(history.epochs) == 3 and batches == [8, 8, 4] * 3
        # Later batches did not overwrite the gradients an optimizer step read.
        assert len(given) == 9
        for grads in given:
            for grad, at_step in grads:
                assert grad.tobytes() == at_step.tobytes()
        assert all(ref() is None for ref in pooled)
        assert set(vars(model)) == {"layers", "head"}

    @pytest.mark.parametrize("n_layers", [1, 2])
    @pytest.mark.parametrize("kind", list(OptimizerKind))
    def test_resume_through_a_file_equals_one_run(self, tmp_path, kind, n_layers):
        # 20 windows in batches of 8; patience = the budget, so no run stops early.
        data, val = self._data(n=20), self._data(seed=1, n=8)
        hp = HyperParams(8, 6, 4, n_layers, 0.01, kind)
        k, m = 3, 4

        def run(epochs, restore_best, state=None, seed=6):
            model = build_model(method_spec(MethodId.A), hp, 2, seed=5)
            schedule = TrainSchedule(max_epochs=epochs, patience=epochs, restore_best=restore_best)
            return model, train(model, data, val, hp, schedule, seed, state)

        restored, history = run(k + m, restore_best=True)
        unrestored, _ = run(k + m, restore_best=False)

        state = TrainState()
        run(k, restore_best=True, state=state)
        assert (state.best is None) == (state.history.best_epoch == k)
        path = tmp_path / "train.state"
        save_train_state(path, state)
        names = [name for name, _ in load_params(path)[0]["params"]]
        assert any(name.startswith("best/") for name in names) == (state.best is not None)
        loaded = load_train_state(path, hp)
        assert loaded.rng.bit_generator.state == state.rng.bit_generator.state
        assert loaded.optimizer.step_count == state.optimizer.step_count == 3 * k
        for slot, arrays in state.optimizer.slots.items():
            assert arrays.keys() == loaded.optimizer.slots[slot].keys()
            for name, arr in arrays.items():
                assert loaded.optimizer.slots[slot][name].tobytes() == arr.tobytes()

        resumed, resumed_history = run(k + m, restore_best=True, state=loaded, seed=99)  # the seed goes unused
        assert resumed_history.epochs == history.epochs
        assert np.array(resumed_history.epochs).tobytes() == np.array(history.epochs).tobytes()
        assert resumed_history.best_epoch == history.best_epoch
        assert resumed_history.best_val_loss == history.best_val_loss
        for name, arr in restored.param_dict().items():
            assert resumed.param_dict()[name].tobytes() == arr.tobytes()
        for name, arr in unrestored.param_dict().items():
            assert loaded.params[name].tobytes() == arr.tobytes()

    def test_nan_input_diverges(self):
        data = self._data()
        data.rows[0, 0, 0] = math.nan  # stop 1, window 0, step 0
        val = self._data(seed=1, n=8)
        model = build_model(method_spec(MethodId.A), HP_SMALL, 2, seed=5)
        hp = HyperParams(64, 6, 4, 1, 0.01, OptimizerKind.ADAM)  # one batch covers all
        with pytest.raises(DivergedTraining):
            train(model, data, val, hp, TrainSchedule(max_epochs=3, patience=3), seed=6)

    def test_memorizes_small_dataset(self):
        # quick convergence smoke; the full-capacity check lives in acceptance
        rng = np.random.default_rng(9)
        data = _random_windows(rng, 2, 20, 6, 1)
        data = dataclasses.replace(data, y=(data.y - data.y.min()) / (data.y.max() - data.y.min()))
        hp = HyperParams(8, 6, 16, 1, 0.01, OptimizerKind.ADAM)
        model = build_model(method_spec(MethodId.A), hp, 2, seed=0)
        history = train(model, data, data, hp, TrainSchedule(max_epochs=150, patience=150), seed=1)
        assert history.best_val_loss < 0.01

    @pytest.mark.parametrize("kind", [OptimizerKind.SGD, OptimizerKind.ADAM])
    def test_no_nan_at_largest_grid_learning_rate(self, kind):
        # guard test: lr = 0.01 (grid maximum) with default clipping must stay
        # finite for 200 epochs on bounded inputs
        rng = np.random.default_rng(14)
        data = _random_windows(rng, 2, 32, 6, 1)
        data = dataclasses.replace(data, rows=np.clip(data.rows, -1, 1), y=np.clip(data.y, 0, 1))
        hp = HyperParams(16, 6, 4, 1, 0.01, kind)
        model = build_model(method_spec(MethodId.A), hp, 2, seed=3)
        history = train(model, data, data, hp, TrainSchedule(max_epochs=200, patience=200), seed=4)
        assert len(history.epochs) == 200
        assert all(math.isfinite(t) and math.isfinite(v) for _, t, v in history.epochs)
        for arr in model.param_dict().values():
            assert np.all(np.isfinite(arr))


class TestStatisticalBaseline:
    CONFIG = SynthConfig(n_days=10, n_stops=3, seed=4)

    def _dataset(self):
        return generate_dataset(self.CONFIG)

    def test_mean_of_two_observations(self):
        ds = self._dataset()
        window = ds.date_range()
        all_records = records_of(generate(self.CONFIG)[0])
        records = [r for r in all_records if r.stop_index == 1 and r.service_index == 1][:2]
        # recompute directly from the two raw counts
        baseline = fit_statistical(ds, window)
        expected = np.mean([r.ridership for r in all_records if r.stop_index == 1 and r.service_index == 1])
        assert _mean(baseline, 1, 1) == pytest.approx(expected)
        assert len(records) == 2

    def test_matches_brute_force_group_by(self):
        for seed in range(5):
            config = SynthConfig(n_days=7, n_stops=4, seed=seed)
            ds = generate_dataset(config)
            window = ds.date_range()
            baseline = fit_statistical(ds, window)
            sums: dict = {}
            for r in records_of(generate(config)[0]):
                sums.setdefault((r.stop_index, r.service_index), []).append(r.ridership)
            for key, values in sums.items():
                assert _mean(baseline, *key) == pytest.approx(sum(values) / len(values), abs=1e-9)

    def test_restricted_window(self):
        ds = self._dataset()
        lo, _hi = ds.date_range()
        baseline = fit_statistical(ds, (lo, lo))
        by_hand = {}
        for r in records_of(generate(self.CONFIG)[0]):
            if r.service_date == lo:
                by_hand.setdefault((r.stop_index, r.service_index), []).append(r.ridership)
        assert _mean(baseline, 2, 5) == sum(by_hand[(2, 5)]) / len(by_hand[(2, 5)])

    @classmethod
    def missing_cell_baseline(cls):
        """Fitted on the first day of a route whose (service 5, stop 2) record that day is dropped."""
        ridership, observations = generate(cls.CONFIG)
        records = records_of(ridership)
        first = records[0].service_date
        records = [r for r in records if (r.service_date, r.service_index, r.stop_index) != (first, 5, 2)]
        ridership = RidershipColumns.from_records(records)
        weather = join_weather_to_services(ridership, observations, cls.CONFIG.timetable)
        return fit_statistical(build_route_dataset(ridership, weather, 3, 26), (first, first))

    def test_missing_key(self):
        baseline = self.missing_cell_baseline()
        assert _mean(baseline, 2, 4) >= 0.0 and _mean(baseline, 2, 6) >= 0.0
        # every stop of a window is predicted, so the missing stop is named whichever is read
        for stop in (1, 2, 3):
            with pytest.raises(MissingKey, match=r"^no fitted mean for stop 2, service 5$"):
                _mean(baseline, stop, 5)

    def test_empty_window(self):
        ds = self._dataset()
        with pytest.raises(EmptyWindow):
            fit_statistical(ds, (date(1999, 1, 1), date(1999, 1, 2)))

    def test_lookups_are_constant(self):
        ds = self._dataset()
        baseline = fit_statistical(ds, ds.date_range())
        assert _mean(baseline, 1, 3) == _mean(baseline, 1, 3)
        # the mean of a service number, whatever the day
        assert _mean(baseline, 1, 3) == _mean(baseline, 1, 3, day=date(2024, 2, 29))


class TestPredictNextService:
    TARGET = int(slots_of([(date(2021, 10, 11), 3)], 26)[0])

    def _scalers(self, n_stops):
        return ScalerSet(
            ridership={b: ScalerParams(0.0, 10.0) for b in range(1, n_stops + 1)},
            precipitation=ScalerParams(0.0, 1.0),
        )

    def _constant(self, method, n_stops, head_bias, seed=0):
        model = build_model(method_spec(method), HP_SMALL, n_stops, seed=seed)
        for name, arr in model.param_dict().items():
            arr[...] = 0.0
        model.head.b[...] = np.array(head_bias)
        return Member(model, HP_SMALL, seed)

    def test_inverse_scaling(self):
        forecaster = LstmForecaster((self._constant(MethodId.A, 2, [0.5, 0.25]),), self._scalers(2))
        history = [np.zeros((6, 1)), np.zeros((6, 1))]
        assert predict_next_service(forecaster, history, 6, self.TARGET) == [5.0, 2.5]

    def test_negative_output_clamped(self):
        forecaster = LstmForecaster((self._constant(MethodId.A, 1, [-0.02]),), self._scalers(1))
        assert predict_next_service(forecaster, [np.zeros((6, 1))], 6, self.TARGET) == [0.0]

    def test_insufficient_history(self):
        forecaster = LstmForecaster((self._constant(MethodId.A, 1, [0.0]),), self._scalers(1))
        with pytest.raises(InsufficientHistory):
            predict_next_service(forecaster, [np.zeros((5, 1))], 6, self.TARGET)

    def test_statistical_artifact_uses_target_index(self):
        ds = generate_dataset(SynthConfig(n_days=10, n_stops=2, seed=4))
        baseline = fit_statistical(ds, ds.date_range())
        history = [np.zeros((6, 1))] * 2
        preds = predict_next_service(baseline, history, 6, self.TARGET)
        assert preds == [_mean(baseline, 1, 3), _mean(baseline, 2, 3)]
        gapped = TestStatisticalBaseline.missing_cell_baseline()
        with pytest.raises(MissingKey, match="stop 2, service 5"):
            predict_next_service(gapped, [np.zeros((6, 1))] * 3, 6, self.TARGET + 2)

    def test_per_stop_ensemble(self):
        members = tuple(self._constant(MethodId.PER_STOP, 2, [0.1 * (b + 1)], seed=b) for b in range(2))
        forecaster = LstmForecaster(members, self._scalers(2))
        preds = predict_next_service(forecaster, [np.zeros((6, 1))] * 2, 6, self.TARGET)
        assert preds == [pytest.approx(1.0), pytest.approx(2.0)]

    def test_branch_count_must_match_stops(self):
        forecaster = LstmForecaster((self._constant(MethodId.A, 2, [0.5, 0.25]),), self._scalers(3))
        with pytest.raises(MisalignedBatches):
            predict_next_service(forecaster, [np.zeros((6, 1))] * 3, 6, self.TARGET)


class TestCheckpoint:
    def test_round_trip_bit_exact(self, tmp_path):
        ds = generate_dataset(SynthConfig(n_days=12, n_stops=3, seed=8))
        spec = method_spec(MethodId.D, 26)
        hp = HyperParams(16, 26, 4, 2, 0.001, OptimizerKind.NADAM)
        boundaries = (date(2021, 10, 8), date(2021, 10, 10))
        prepared = prepare_windows(ds, boundaries, spec.features, 26)
        model = build_model(spec, hp, 3, seed=0)
        train(
            model,
            scale_targets(prepared.train, prepared.scalers),
            scale_targets(prepared.val, prepared.scalers),
            hp,
            TrainSchedule(max_epochs=2, patience=2),
            seed=1,
        )
        path = tmp_path / "d.ckpt"
        forecaster = LstmForecaster((Member(model, hp, 0),), prepared.scalers)
        save_model(path, forecaster, method=MethodId.D, look_back=26, n_stops=3, services_per_day=26)
        loaded = load_model(path)
        assert loaded.method is MethodId.D
        assert loaded.forecaster.members[0].hp == hp
        assert loaded.look_back == 26
        assert loaded.forecaster.scalers == prepared.scalers
        for name, arr in model.param_dict().items():
            assert loaded.forecaster.members[0].model.param_dict()[name].tobytes() == arr.tobytes()
        pred_a = model.forward(prepared.test, slice(0, 2))
        pred_b = loaded.forecaster.members[0].model.forward(prepared.test, slice(0, 2))
        assert np.array_equal(pred_a, pred_b)

    def test_per_stop_round_trip_keeps_each_stops_hyperparams(self, tmp_path):
        # One file holds every stop's model, each with its own hyperparameters and seed.
        spec = method_spec(MethodId.PER_STOP, 26)
        hps = [HyperParams(256, 26, 16, 1, 0.01, OptimizerKind.RMSPROP),
               HyperParams(32, 26, 8, 3, 0.01, OptimizerKind.NADAM)]
        members = tuple(Member(build_model(spec, hp, 2, seed=b + 7), hp, b + 7) for b, hp in enumerate(hps))
        scalers = ScalerSet({1: ScalerParams(0.0, 9.0), 2: ScalerParams(1.0, 4.0)}, ScalerParams(0.0, 0.0))
        path = tmp_path / "perstop.ckpt"
        save_model(path, LstmForecaster(members, scalers), method=MethodId.PER_STOP, look_back=26,
                   n_stops=2, services_per_day=26)
        loaded = load_model(path)
        assert loaded.method is MethodId.PER_STOP and loaded.forecaster.scalers == scalers
        for got, want in zip(loaded.forecaster.members, members, strict=True):
            assert (got.hp, got.seed) == (want.hp, want.seed)
            for name, arr in want.model.param_dict().items():
                assert got.model.param_dict()[name].tobytes() == arr.tobytes()
        windows = _random_windows(np.random.default_rng(3), 2, 5, 26, 1)
        assert np.array_equal(loaded.forecaster.predict(windows), LstmForecaster(members, scalers).predict(windows))

    def test_checkpoint_names_stay_per_branch(self, tmp_path):
        # Golden: whatever the in-memory layout, a checkpoint stores one array per
        # branch and layer, named and ordered branch by branch, then the head.
        scalers = lambda n: ScalerSet({b: ScalerParams(0.0, 1.0) for b in range(1, n + 1)}, ScalerParams(0.0, 1.0))
        hp = HyperParams(8, 6, 4, 2, 0.01, OptimizerKind.ADAM)
        joint = Member(build_model(method_spec(MethodId.D), hp, 3, seed=0), hp, 0)
        save_model(tmp_path / "d.ckpt", LstmForecaster((joint,), scalers(3)), method=MethodId.D,
                   look_back=6, n_stops=3, services_per_day=26)
        assert load_params(tmp_path / "d.ckpt")[0]["params"] == [
            ["branch0/layer0/w", [16, 37]], ["branch0/layer0/u", [16, 4]], ["branch0/layer0/b", [16]],
            ["branch0/layer1/w", [16, 4]], ["branch0/layer1/u", [16, 4]], ["branch0/layer1/b", [16]],
            ["branch1/layer0/w", [16, 37]], ["branch1/layer0/u", [16, 4]], ["branch1/layer0/b", [16]],
            ["branch1/layer1/w", [16, 4]], ["branch1/layer1/u", [16, 4]], ["branch1/layer1/b", [16]],
            ["branch2/layer0/w", [16, 37]], ["branch2/layer0/u", [16, 4]], ["branch2/layer0/b", [16]],
            ["branch2/layer1/w", [16, 4]], ["branch2/layer1/u", [16, 4]], ["branch2/layer1/b", [16]],
            ["head/w", [3, 12]], ["head/b", [3]],
        ]

        spec = method_spec(MethodId.PER_STOP)
        hps = [HyperParams(8, 6, 4, 1, 0.01, OptimizerKind.ADAM), HyperParams(8, 6, 3, 2, 0.01, OptimizerKind.ADAM)]
        members = tuple(Member(build_model(spec, h, 2, seed=b), h, b) for b, h in enumerate(hps))
        save_model(tmp_path / "perstop.ckpt", LstmForecaster(members, scalers(2)), method=MethodId.PER_STOP,
                   look_back=6, n_stops=2, services_per_day=26)
        assert load_params(tmp_path / "perstop.ckpt")[0]["params"] == [
            ["stop1/branch0/layer0/w", [16, 1]], ["stop1/branch0/layer0/u", [16, 4]],
            ["stop1/branch0/layer0/b", [16]], ["stop1/head/w", [1, 4]], ["stop1/head/b", [1]],
            ["stop2/branch0/layer0/w", [12, 1]], ["stop2/branch0/layer0/u", [12, 3]],
            ["stop2/branch0/layer0/b", [12]], ["stop2/branch0/layer1/w", [12, 3]],
            ["stop2/branch0/layer1/u", [12, 3]], ["stop2/branch0/layer1/b", [12]],
            ["stop2/head/w", [1, 3]], ["stop2/head/b", [1]],
        ]
