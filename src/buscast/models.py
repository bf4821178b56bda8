"""Model assembly, training, baselines, and checkpointing.

Two neural architectures share one implementation, the branched regressor:

* joint model: one LSTM stack per stop, all final hidden states concatenated
  into a single shared dense head that predicts every stop at once;
* per-stop baseline: the same regressor with a single branch and a width-1
  head, instantiated independently per stop, ridership as the only feature.

The statistical baseline predicts the historical mean ridership grouped by
(stop, service number) over a configured date window.

Every trained method is a :class:`Forecaster` with one
``predict(windows) -> (N, n_stops)`` in persons: an :class:`LstmForecaster`
(one joint regressor, or one regressor per stop) or the statistical table.

Training minimizes MSE on min-max scaled targets with shuffled mini-batches,
early stopping on validation loss, and restore-best-weights. Fixed seeds
make runs bit-reproducible. A run can stop and go on later from a
:class:`TrainState`, kept in memory or in a file in the checkpoint container.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from datetime import date
from enum import Enum
from pathlib import Path
from typing import Protocol, Sequence

import numpy as np

from .data_ingest import RouteDataset
from .errors import (
    CheckpointError,
    DivergedTraining,
    EmptyDataset,
    EmptyWindow,
    InsufficientHistory,
    InvalidHyperParams,
    MisalignedBatches,
    MissingKey,
    ShapeMismatch,
)
from .features import AlignedWindows, FeatureSpec, ScalerParams, ScalerSet, inverse_scale, stop_view
from .nn_core import (
    BufferPool,
    DenseParams,
    LstmLayerParams,
    Optimizer,
    branched_lstm_backward,
    branched_lstm_forward,
    branched_lstm_forward_windows,
    clip_global_norm,
    dense_backward,
    dense_forward,
    init_dense_params,
    init_lstm_layers,
    header_check,
    header_values,
    integer,
    load_params,
    make_optimizer,
    mse_loss,
    save_params,
)
from .tuning import HyperParams


class MethodId(Enum):
    A = "a"
    B = "b"
    C = "c"
    D = "d"
    PER_STOP = "perstop"
    STATISTICAL = "statistical"


class Architecture(Enum):
    JOINT = "joint"
    PER_STOP = "per_stop"
    NONE = "none"


@dataclass(frozen=True)
class MethodSpec:
    method: MethodId
    features: FeatureSpec | None
    architecture: Architecture


#: Each method's feature blocks (day of week, service number, rain), None for none, and its architecture.
_METHODS = {
    MethodId.A: ((False, False, False), Architecture.JOINT),
    MethodId.B: ((True, True, False), Architecture.JOINT),
    MethodId.C: ((False, False, True), Architecture.JOINT),
    MethodId.D: ((True, True, True), Architecture.JOINT),
    MethodId.PER_STOP: ((False, False, False), Architecture.PER_STOP),
    MethodId.STATISTICAL: (None, Architecture.NONE),
}

#: The methods that train a model, in table order.
TRAINABLE = tuple(method for method, (_, architecture) in _METHODS.items() if architecture is not Architecture.NONE)


def method_spec(method: MethodId, services_per_day: int = 26) -> MethodSpec:
    """Feature blocks and architecture for each of the six evaluated methods."""
    blocks, architecture = _METHODS[method]
    return MethodSpec(method, None if blocks is None else FeatureSpec(*blocks, services_per_day), architecture)


class LstmRegressor:
    """n branches of stacked LSTM layers feeding one shared dense head.

    Branch b consumes only stop b's windows; the head maps the concatenated
    final hidden states (n*H) to n outputs, one scaled prediction per stop.
    Each layer holds the parameters of all n branches as one stacked
    :class:`LstmLayerParams`, in memory and in checkpoints alike.
    """

    def __init__(self, layers: list[LstmLayerParams], head: DenseParams):
        if not layers:
            raise InvalidHyperParams("a model needs at least one LSTM layer")
        self.layers = layers
        self.head = head
        n, hidden = self.n_branches, self.hidden_size
        if head.w.shape != (n, n * hidden):
            raise ShapeMismatch(f"head shape {head.w.shape} != ({n}, {n * hidden})")

    @property
    def n_branches(self) -> int:
        return self.layers[0].w.shape[0]

    @property
    def n_layers(self) -> int:
        return len(self.layers)

    @property
    def hidden_size(self) -> int:
        return self.layers[0].u.shape[2]

    def param_dict(self) -> dict[str, np.ndarray]:
        """Canonically ordered live views of every parameter array."""
        out: dict[str, np.ndarray] = {}
        for l, layer in enumerate(self.layers):
            out[f"layer{l}/w"] = layer.w
            out[f"layer{l}/u"] = layer.u
            out[f"layer{l}/b"] = layer.b
        out["head/w"] = self.head.w
        out["head/b"] = self.head.b
        return out

    @property
    def grad_stacks(self) -> list[tuple[str, str, str]]:
        """Each layer's branch-stacked gradient names, top layer first, for :func:`clip_global_norm`.

        Summed in this order, the gradient norm equals the one of the same
        arrays held one per branch and layer, bit for bit.
        """
        return [(f"layer{l}/w", f"layer{l}/u", f"layer{l}/b") for l in reversed(range(self.n_layers))]

    def snapshot(self) -> dict[str, np.ndarray]:
        return {name: arr.copy() for name, arr in self.param_dict().items()}

    def restore(self, state: dict[str, np.ndarray]) -> None:
        """Copy a :meth:`snapshot` in; it must hold the names and shapes of :meth:`param_dict`, no more."""
        params = self.param_dict()
        held, shapes = ({name: arr.shape for name, arr in named.items()} for named in (state, params))
        if held != shapes:
            raise ShapeMismatch(f"parameter arrays {held} do not fit a model of {shapes}")
        for name, arr in params.items():
            arr[...] = state[name]

    def forward(self, windows: AlignedWindows, chunk: slice | np.ndarray = slice(None)) -> np.ndarray:
        """Scaled predictions for windows ``chunk`` of ``windows``, shape (B, n_branches); de-scaling is the caller's job.

        No backward pass follows, so no BPTT cache is kept. Layer 0 reads the
        encoded rows the chunk's windows span (:meth:`AlignedWindows.window_rows`,
        :func:`branched_lstm_forward_windows`); each layer above reads the
        hidden sequence of the one below.
        """
        if windows.ridership.shape[0] != self.n_branches:
            raise MisalignedBatches(f"got {windows.ridership.shape[0]} input streams for {self.n_branches} branches")
        first, *upper = self.layers
        seq = branched_lstm_forward_windows(first.w, first.u, first.b, *windows.window_rows(chunk), windows.look_back)
        for layer in upper:
            seq, _ = branched_lstm_forward(layer.w, layer.u, layer.b, seq, keep_cache=False)
        return dense_forward(self.head, self._concat_states(seq))

    def _concat_states(self, seq: np.ndarray) -> np.ndarray:
        # (n, B, H) final states -> (B, n*H) with branch b at columns b*H:(b+1)*H
        batch = seq.shape[1]
        return seq[:, :, -1].transpose(1, 0, 2).reshape(batch, self.n_branches * self.hidden_size)

    def forward_backward(
        self, x: np.ndarray, target: np.ndarray, buffers: BufferPool | None = None
    ) -> tuple[float, dict[str, np.ndarray]]:
        """Loss and gradients for one mini-batch: the gathered (n, B, L, D) windows and their scaled targets.

        With ``buffers`` every layer's activations, input projection and dz
        live in the pool's arrays; the gradients are fresh arrays either way.
        """
        if x.shape[0] != self.n_branches:
            raise MisalignedBatches(f"got {x.shape[0]} input streams for {self.n_branches} branches")
        seq = x
        caches = []
        for l, layer in enumerate(self.layers):
            keep = True if buffers is None else buffers.lstm_cache(l, seq, self.hidden_size)
            seq, cache = branched_lstm_forward(layer.w, layer.u, layer.b, seq, keep_cache=keep)
            caches.append(cache)
        batch = seq.shape[1]
        hidden = self.hidden_size
        concat = self._concat_states(seq)
        pred = dense_forward(self.head, concat)

        loss, dpred = mse_loss(pred, target)
        dw_head, db_head, dconcat = dense_backward(self.head, concat, dpred)

        grads: dict[str, np.ndarray] = {"head/w": dw_head, "head/b": db_head}
        # Gradient enters the top layer only at the final step.
        grad_seq = dconcat.reshape(batch, self.n_branches, hidden).transpose(1, 0, 2)
        for l in reversed(range(self.n_layers)):
            layer = self.layers[l]
            layer_grads = branched_lstm_backward(layer.w, layer.u, caches[l], grad_seq, need_dx=l > 0)
            grads[f"layer{l}/w"] = layer_grads.dw
            grads[f"layer{l}/u"] = layer_grads.du
            grads[f"layer{l}/b"] = layer_grads.db
            grad_seq = layer_grads.dx
        return loss, grads


def validate_hyperparams(hp: HyperParams) -> None:
    if hp.n_layers < 1:
        raise InvalidHyperParams(f"need at least one LSTM layer, got {hp.n_layers}")
    if hp.lstm_nodes < 1 or hp.batch_size < 1 or hp.sequence_length < 1:
        raise InvalidHyperParams(f"non-positive size in {hp}")
    if not 0 < hp.learning_rate < math.inf:
        raise InvalidHyperParams(f"learning rate must be a finite number > 0, got {hp.learning_rate}")


def build_model(spec: MethodSpec, hp: HyperParams, n_stops: int, seed: int) -> LstmRegressor:
    """Deterministically initialized model for a NN method.

    Joint methods get one branch per stop; the per-stop baseline gets a
    single branch (instantiate one model per stop with distinct seeds).
    """
    if spec.architecture is Architecture.NONE:
        raise InvalidHyperParams("the statistical method has no trainable model")
    validate_hyperparams(hp)
    n_branches = n_stops if spec.architecture is Architecture.JOINT else 1
    rng = np.random.default_rng(seed)
    layers = init_lstm_layers(n_branches, spec.features.dimension, hp.lstm_nodes, hp.n_layers, rng)
    head = init_dense_params(n_branches * hp.lstm_nodes, n_branches, rng)
    return LstmRegressor(layers, head)


def member_plan(spec: MethodSpec, n_stops: int, seed: int) -> list[tuple[str, slice, int]]:
    """(label, stops, initialization seed) of each regressor a NN method trains, in stop order.

    ``stops`` are the zero-based columns the regressor reads and predicts. A
    joint method trains one model over every stop, labelled with the method.
    The per-stop baseline trains one model per stop b, labelled
    ``<method>_stop<b>`` and seeded ``seed * n_stops + b - 1``. Every
    regressor shuffles with its seed + 1.
    """
    if spec.architecture is Architecture.JOINT:
        return [(spec.method.value, slice(0, n_stops), seed)]
    return [(f"{spec.method.value}_stop{b + 1}", slice(b, b + 1), seed * n_stops + b) for b in range(n_stops)]


def _batched_forward(model: LstmRegressor, data: AlignedWindows, batch: int = 512) -> np.ndarray:
    n = data.n_samples
    chunks = []
    for start in range(0, n, batch):
        stop = min(start + batch, n)
        chunks.append(model.forward(data, slice(start, stop)))
    return np.concatenate(chunks, axis=0)


def _batched_loss(model: LstmRegressor, data: AlignedWindows, batch_size: int = 512) -> float:
    total = 0.0
    n = data.n_samples
    for start in range(0, n, batch_size):
        stop = min(start + batch_size, n)
        pred = model.forward(data, slice(start, stop))
        diff = pred - data.y[start:stop]
        total += float(np.sum(diff * diff))
    return total / (n * data.y.shape[1])


@dataclass(frozen=True)
class TrainSchedule:
    max_epochs: int = 200
    patience: int = 10
    clip_norm: float | None = 5.0  # None disables gradient clipping


@dataclass
class TrainHistory:
    epochs: list[tuple[int, float, float]] = field(default_factory=list)  # (epoch, train, val)
    best_epoch: int = 0
    best_val_loss: float = math.inf

    def write_csv(self, path: str | Path) -> None:
        with Path(path).open("w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(["epoch", "train_loss", "val_loss"])
            for epoch, train_loss, val_loss in self.epochs:
                writer.writerow([epoch, repr(train_loss), repr(val_loss)])


@dataclass
class TrainState:
    """Where a training run stopped, for :func:`train` to go on from there.

    ``params`` are the parameters after the last epoch, before the best one
    is restored; ``best`` is the best epoch's snapshot, or None when that
    epoch is the last one. ``rng`` is the shuffle generator. A state with an
    empty ``history`` has not started.
    """

    history: TrainHistory = field(default_factory=TrainHistory)
    params: dict[str, np.ndarray] = field(default_factory=dict)
    best: dict[str, np.ndarray] | None = None
    optimizer: Optimizer | None = None
    rng: np.random.Generator | None = None


@np.errstate(over="ignore", invalid="ignore")  # a loss that overflows is reported once, as DivergedTraining
def train(
    model: LstmRegressor,
    train_data: AlignedWindows,
    val_data: AlignedWindows,
    hp: HyperParams,
    schedule: TrainSchedule,
    seed: int,
    state: TrainState | None = None,
) -> TrainHistory:
    """Mini-batch training on scaled targets; returns the per-epoch history.

    The model is left holding the parameters of the best validation epoch.
    The ``seed`` drives batch shuffling only; initialization is fixed by
    :func:`build_model`.

    With ``state`` the run goes on from it, parameters, optimizer, shuffle
    generator and history included (``seed`` is then unused), up to epoch
    ``schedule.max_epochs``, and ``state`` is left holding where this run
    stopped; the returned history is its history, from epoch 1. Going on
    from k epochs to k+m is bit-identical to one run of k+m epochs when
    neither run stopped early. A run that raises leaves ``state`` spent.
    """
    n = train_data.n_samples
    if n == 0 or val_data.n_samples == 0:
        raise EmptyDataset("training and validation windows must be non-empty")
    validate_hyperparams(hp)
    params = model.param_dict()
    if state is not None and state.history.epochs:
        model.restore(state.params)
        optimizer, rng, history = state.optimizer, state.rng, state.history
        best_state = state.params if state.best is None else state.best
        state.params, state.best = {}, None  # held by the model and best_state until the run refills them
    else:
        optimizer = make_optimizer(hp.optimizer, hp.learning_rate)
        rng = np.random.default_rng(seed)
        history = TrainHistory()
        best_state = model.snapshot()
    window_shape = (train_data.look_back, train_data.dimension)

    for epoch in range(len(history.epochs) + 1, schedule.max_epochs + 1):
        order = rng.permutation(n)
        epoch_loss = 0.0
        # The epoch's batches share one set of buffers, sized by the first
        # (largest) batch.
        buffers = BufferPool()
        for start in range(0, n, hp.batch_size):
            idx = order[start : start + hp.batch_size]
            x = train_data.batch(idx, out=buffers.take("batch", (train_data.n_stops, len(idx), *window_shape)))
            loss, grads = model.forward_backward(x, train_data.y[idx], buffers)
            if not math.isfinite(loss):
                raise DivergedTraining(f"non-finite training loss at epoch {epoch}")
            if schedule.clip_norm is not None:
                clip_global_norm(grads, schedule.clip_norm, model.grad_stacks)
            optimizer.step(params, grads)
            epoch_loss += loss * len(idx)
        epoch_loss /= n
        del buffers, x  # the validation pass runs without them

        val_loss = _batched_loss(model, val_data)
        if not math.isfinite(val_loss):
            raise DivergedTraining(f"non-finite validation loss at epoch {epoch}")
        history.epochs.append((epoch, epoch_loss, val_loss))
        if val_loss < history.best_val_loss:
            history.best_val_loss = val_loss
            history.best_epoch = epoch
            best_state = model.snapshot()
        elif epoch - history.best_epoch >= schedule.patience:
            break

    if state is not None and history.epochs:
        # A best epoch that is the last one needs no second copy.
        best_is_last = history.best_epoch == history.epochs[-1][0]
        state.params = best_state if best_is_last else model.snapshot()
        state.best = None if best_is_last else best_state
        state.optimizer, state.rng, state.history = optimizer, rng, history
    model.restore(best_state)
    return history


# ---------------------------------------------------------------------------
# statistical baseline


@dataclass(frozen=True)
class StatisticalBaseline:
    """Mean ridership per (service, stop) over a date window."""

    means: np.ndarray  # (S, n_stops) float64: row s-1, column b-1 is service s at stop b; NaN where none observed

    def predict(self, windows: AlignedWindows) -> np.ndarray:
        """The fitted mean of each window's target service at every stop; the features are unused."""
        services = len(self.means)
        preds = self.means[windows.slots % services]
        missing = np.argwhere(np.isnan(preds))
        if missing.size:
            i, col = missing[0]
            raise MissingKey(f"no fitted mean for stop {col + 1}, service {windows.slots[i] % services + 1}")
        return preds


def fit_statistical(dataset: RouteDataset, window: tuple[date, date]) -> StatisticalBaseline:
    """Arithmetic mean per (stop, service number) over all services in the window."""
    start, end = window
    try:
        observed = dataset.subset_by_dates(start, end)
    except EmptyDataset:
        raise EmptyWindow(f"no services between {start} and {end}") from None
    # Unobserved cells hold 0. An int64 sum over one division is the exact
    # mean, as fsum / len would give, for sums below 2**53.
    counts = observed.mask.sum(axis=0)
    means = observed.ridership.sum(axis=0) / np.maximum(counts, 1)
    means[counts == 0] = np.nan
    return StatisticalBaseline(means)


# ---------------------------------------------------------------------------
# prediction


class Forecaster(Protocol):
    """A trained method, whatever its kind: joint, per-stop or statistical."""

    def predict(self, windows: AlignedWindows) -> np.ndarray:
        """(N, n_stops) predictions in persons, clamped at zero; column b-1 is stop b."""


@dataclass(frozen=True)
class Member:
    """One trained regressor of a forecaster, with the hyperparameters and seed it was built from."""

    model: LstmRegressor
    hp: HyperParams
    seed: int


@dataclass(frozen=True)
class LstmForecaster:
    """A NN method: regressors over consecutive stops, plus the scalers of their targets.

    A joint method has one member whose branches read every stop; the
    per-stop baseline has one single-branch member per stop.
    """

    members: tuple[Member, ...]
    scalers: ScalerSet

    def predict(self, windows: AlignedWindows) -> np.ndarray:
        widths = [member.model.n_branches for member in self.members]
        if sum(widths) != windows.n_stops:
            raise MisalignedBatches(f"{windows.n_stops} stops for {sum(widths)} branches")
        cols, first = [], 0
        for member, width in zip(self.members, widths):
            cols.append(_batched_forward(member.model, stop_view(windows, slice(first, first + width))))
            first += width
        pred = np.concatenate(cols, axis=1)
        for col in range(pred.shape[1]):
            pred[:, col] = inverse_scale(pred[:, col], self.scalers.ridership[col + 1])
        return np.maximum(pred, 0.0)


def predict_next_service(
    forecaster: Forecaster,
    history: Sequence[np.ndarray],
    look_back: int,
    target: int,
) -> list[float]:
    """Predict the service of slot ``target`` at every stop from the L encoded services before it.

    ``history`` holds one (L, D) feature block per stop, whose columns 1..
    (weekday, service, weather) must be the same at every stop. The blocks
    become a single window, so every method predicts through its one
    ``predict``. Returned values are de-scaled persons, clamped at zero.
    """
    for block in history:
        if block.ndim != 2 or block.shape[0] != look_back:
            raise InsufficientHistory(
                f"need exactly {look_back} consecutive services per stop, got {block.shape}"
            )
    covariates = history[0][:, 1:]
    for stop, block in enumerate(history[1:], start=2):
        if block.shape != history[0].shape or block[:, 1:].tobytes() != covariates.tobytes():
            raise MisalignedBatches(f"the history of stop {stop} differs from stop 1's in columns 1..")
    window = AlignedWindows(
        ridership=np.stack([block[:, 0] for block in history]),
        covariates=covariates,
        starts=np.zeros(1, dtype=np.intp),
        y=np.full((1, len(history)), np.nan),  # the unknown target
        look_back=look_back,
        slots=np.array([target], dtype=np.int64),
    )
    return [float(v) for v in forecaster.predict(window)[0]]


# ---------------------------------------------------------------------------
# checkpoints


def _scalers_to_payload(scalers: ScalerSet) -> dict:
    return {
        "ridership": {str(stop): [p.min, p.max] for stop, p in sorted(scalers.ridership.items())},
        "precipitation": [scalers.precipitation.min, scalers.precipitation.max],
    }


#: A :func:`header_values` check for a finite number; a bool is not one.
_finite = header_check(lambda value: type(value) in (int, float) and math.isfinite(value), "must be a finite number")


def _bounds(value) -> ScalerParams:
    if type(value) is not list or len(value) != 2:
        raise ValueError("bounds must be [min, max] pairs")
    return ScalerParams(*map(_finite, value))


def _scalers(n_stops: int):
    """A :func:`header_values` check: ``ridership`` maps "1".."n_stops" to bounds, ``precipitation`` is bounds."""

    def check(payload) -> ScalerSet:
        ridership = payload["ridership"] if type(payload) is dict else None
        if not (type(ridership) is dict and len(ridership) == n_stops
                and set(ridership) == {str(stop) for stop in range(1, n_stops + 1)}):
            raise ValueError(f"'ridership' must map stops '1'..'{n_stops}' to bounds")
        return ScalerSet({int(stop): _bounds(v) for stop, v in ridership.items()}, _bounds(payload["precipitation"]))

    return check


def _trainable(value) -> MethodId:
    """A :func:`header_values` check for a method of :data:`TRAINABLE`."""
    if (method := MethodId(value)) not in TRAINABLE:
        raise ValueError(f"{value!r} trains no model")
    return method


@dataclass
class LoadedModel:
    forecaster: LstmForecaster
    method: MethodId
    spec: MethodSpec
    look_back: int
    n_stops: int


#: The layout version of a model checkpoint's header and arrays; a header without one is of the earlier
#: layout, which held each branch's arrays apart.
MODEL_VERSION = 2


def save_model(
    path: str | Path,
    forecaster: LstmForecaster,
    *,
    method: MethodId,
    look_back: int,
    n_stops: int,
    services_per_day: int,
) -> None:
    """One checkpoint file per method, the per-stop baseline included.

    ``members`` lists each regressor's hyperparameters and seed in
    :func:`member_plan` order, and each regressor's :meth:`LstmRegressor.param_dict`
    arrays are stored as held, under its label: ``d/layer0/w``, ``perstop_stop3/head/b``.
    """
    plan = member_plan(method_spec(method, services_per_day), n_stops, 0)
    header = {
        "kind": "buscast-model",
        "version": MODEL_VERSION,
        "method": method.value,
        "services_per_day": services_per_day,
        "look_back": look_back,
        "n_stops": n_stops,
        "scalers": _scalers_to_payload(forecaster.scalers),
        "members": [{"hyperparams": member.hp.to_dict(), "seed": member.seed} for member in forecaster.members],
    }
    params = [
        (f"{label}/{name}", arr)
        for (label, _, _), member in zip(plan, forecaster.members, strict=True)
        for name, arr in member.model.param_dict().items()
    ]
    save_params(path, header, params)


def _load_member(entry: dict, label: str, width: int, inputs: int, look_back: int, params: dict, fail) -> Member:
    """Member ``label`` of ``width`` branches reading ``inputs`` features, taken out of ``params``; its
    hyperparameters set the float64 shape each of its arrays must have."""
    payload, seed = header_values(entry, {
        "hyperparams": header_check(lambda value: type(value) is dict, "must be an object"), "seed": integer(0),
    }, fail).values()
    hp = HyperParams.from_dict(payload, lambda message: fail(f"hyperparams: {message}"))
    if hp.sequence_length != look_back:
        raise fail(f"hyperparams: sequence_length {hp.sequence_length} is not the look-back {look_back}")

    def array(name: str, shape: tuple[int, ...]) -> np.ndarray:
        arr = params.pop(f"{label}/{name}", None)
        if arr is None or arr.dtype != np.float64 or arr.shape != shape:
            held = "missing" if arr is None else f"{arr.dtype} of shape {arr.shape}"
            raise fail(f"parameter array {label + '/' + name!r} is {held}, not float64 of shape {shape}")
        return arr

    gates = (width, 4 * hp.lstm_nodes)
    layers = [
        LstmLayerParams(array(f"layer{l}/w", (*gates, hp.lstm_nodes if l else inputs)),
                        array(f"layer{l}/u", (*gates, hp.lstm_nodes)), array(f"layer{l}/b", gates))
        for l in range(hp.n_layers)
    ]
    head = DenseParams(w=array("head/w", (width, width * hp.lstm_nodes)), b=array("head/b", (width,)))
    return Member(model=LstmRegressor(layers, head), hp=hp, seed=seed)


def load_model(path: str | Path) -> LoadedModel:
    """The model a :func:`save_model` file holds; a malformed one is a CheckpointError."""
    header, params = load_params(path)
    if header.get("kind") != "buscast-model":
        raise CheckpointError(f"{path}: not a buscast model checkpoint (kind {header.get('kind')!r})")

    def fail(message: str) -> CheckpointError:
        return CheckpointError(f"{path}: {message}")

    if "version" not in header:
        raise fail("a checkpoint of the earlier per-branch layout; run 'buscast train' again to rewrite it")
    _, method, services_per_day, look_back, n_stops = header_values(header, {
        "version": integer(MODEL_VERSION, MODEL_VERSION), "method": _trainable, "services_per_day": integer(1),
        "look_back": integer(1), "n_stops": integer(1),
    }, fail).values()
    spec = method_spec(method, services_per_day)
    # The scalers hold an entry per stop, so they bound n_stops, and the plan, by the header's own size.
    scalers = header_values(header, {"scalers": _scalers(n_stops)}, fail)["scalers"]
    plan = member_plan(spec, n_stops, 0)
    entries = header_values(header, {"members": header_check(
        lambda entries: type(entries) is list and len(entries) == len(plan)
        and all(type(entry) is dict for entry in entries), f"must be a list of {len(plan)} objects, one per regressor",
    )}, fail)["members"]
    members = tuple(
        _load_member(entry, label, stops.stop - stops.start, spec.features.dimension, look_back, params,
                     lambda message, label=label: fail(f"member {label!r}: {message}"))
        for (label, stops, _), entry in zip(plan, entries)
    )
    if params:
        raise fail(f"parameter array {next(iter(params))!r} belongs to no member")
    return LoadedModel(LstmForecaster(members, scalers), method, spec, look_back, n_stops)


def save_train_state(path: str | Path, state: TrainState) -> None:
    """One :class:`TrainState` in the checkpoint container, for :func:`load_train_state`.

    The header holds the optimizer's kind and step count, the shuffle
    generator's state and the best epoch; the arrays are the history as
    (epoch, train, val) rows and the ``params/``, ``best/`` and optimizer
    slot (``m/``, ``v/``) arrays under their parameter names.
    """
    history, optimizer = state.history, state.optimizer
    header = {
        "kind": "buscast-train-state",
        "optimizer": optimizer.kind.value,
        "step_count": optimizer.step_count,
        "rng": state.rng.bit_generator.state,
        "best_epoch": history.best_epoch,
        "best_val_loss": history.best_val_loss,
    }
    groups = {"params": state.params, "best": state.best or {}, **optimizer.slots}
    arrays = [("history", np.array(history.epochs, dtype=np.float64))]
    arrays += [(f"{group}/{name}", arr) for group, named in groups.items() for name, arr in named.items()]
    save_params(path, header, arrays)


def _generator(state: dict) -> np.random.Generator:
    rng = np.random.Generator(np.random.PCG64())
    rng.bit_generator.state = state
    return rng


def load_train_state(path: str | Path, hp: HyperParams) -> TrainState:
    """The :class:`TrainState` a :func:`save_train_state` file holds, its optimizer built from ``hp``; a file that
    does not fit a run of ``hp`` (see the README's "training states") is a CheckpointError."""
    header, arrays = load_params(path)

    def fail(message: str) -> CheckpointError:
        return CheckpointError(f"{path}: {message}")

    optimizer = make_optimizer(hp.optimizer, hp.learning_rate)
    _, _, optimizer.step_count, best_epoch, best_val_loss, rng = header_values(header, {
        "kind": header_check(lambda kind: kind == "buscast-train-state", "must be 'buscast-train-state'"),
        "optimizer": header_check(lambda kind: kind == hp.optimizer.value, f"must be {hp.optimizer.value!r}"),
        "step_count": integer(0, 2**63 - 1), "best_epoch": integer(1), "best_val_loss": _finite, "rng": _generator,
    }, fail).values()
    history = arrays.get("history")
    if not (history is not None and history.shape[1:] == (3,) and best_epoch <= len(history)
            and np.array_equal(history[:, 0], np.arange(1, len(history) + 1))):
        raise fail(f"array 'history' must hold (epoch, train, val) rows for epochs 1..k, k >= best epoch {best_epoch}")
    groups: dict[str, dict[str, np.ndarray]] = {"params": {}, "best": {}, **optimizer.slots}
    for key, arr in arrays.items():
        group, _, name = key.partition("/")
        if group in groups:
            groups[group][name] = arr
    layout = {name: (arr.shape, arr.dtype) for name, arr in groups["params"].items()}
    if any(dtype != np.float64 for _, dtype in layout.values()) or any(
        {name: (arr.shape, arr.dtype) for name, arr in named.items()} != layout
        for group, named in groups.items() if named or group != "best"
    ):
        raise fail("the params/, best/ and optimizer slot arrays must each be the same float64 arrays")
    epochs = [(int(epoch), train_loss, val_loss) for epoch, train_loss, val_loss in history.tolist()]
    return TrainState(TrainHistory(epochs, best_epoch, best_val_loss), groups["params"], groups["best"] or None,
                      optimizer, rng)
