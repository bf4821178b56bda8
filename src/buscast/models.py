"""Model assembly, training, baselines, and checkpointing.

Two neural architectures share one implementation, the branched regressor:

* joint model: one LSTM stack per stop, all final hidden states concatenated
  into a single shared dense head that predicts every stop at once;
* per-stop baseline: the same regressor with a single branch and a width-1
  head, instantiated independently per stop, ridership as the only feature.

The statistical baseline predicts the historical mean ridership grouped by
(stop, service number) over a configured date window.

Training minimizes MSE on min-max scaled targets with shuffled mini-batches,
early stopping on validation loss, and restore-best-weights. Fixed seeds
make runs bit-reproducible.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from datetime import date
from enum import Enum
from pathlib import Path
from typing import Sequence

import numpy as np

from .data_ingest import RouteDataset
from .errors import (
    DivergedTraining,
    EmptyDataset,
    EmptyWindow,
    InsufficientHistory,
    InvalidHyperParams,
    MisalignedBatches,
    MissingKey,
    ShapeMismatch,
)
from .features import AlignedWindows, FeatureSpec, ScalerParams, ScalerSet, inverse_scale
from .nn_core import (
    DenseParams,
    LstmLayerParams,
    branched_lstm_backward,
    branched_lstm_forward,
    clip_global_norm,
    dense_backward,
    dense_forward,
    init_dense_params,
    init_lstm_params,
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


def method_spec(method: MethodId, services_per_day: int = 26) -> MethodSpec:
    """Feature blocks and architecture for each of the six evaluated methods."""
    s = services_per_day
    table = {
        MethodId.A: MethodSpec(MethodId.A, FeatureSpec(False, False, False, s), Architecture.JOINT),
        MethodId.B: MethodSpec(MethodId.B, FeatureSpec(True, True, False, s), Architecture.JOINT),
        MethodId.C: MethodSpec(MethodId.C, FeatureSpec(False, False, True, s), Architecture.JOINT),
        MethodId.D: MethodSpec(MethodId.D, FeatureSpec(True, True, True, s), Architecture.JOINT),
        MethodId.PER_STOP: MethodSpec(
            MethodId.PER_STOP, FeatureSpec(False, False, False, s), Architecture.PER_STOP
        ),
        MethodId.STATISTICAL: MethodSpec(MethodId.STATISTICAL, None, Architecture.NONE),
    }
    return table[method]


class LstmRegressor:
    """n branches of stacked LSTM layers feeding one shared dense head.

    Branch b consumes only stop b's windows; the head maps the concatenated
    final hidden states (n*H) to n outputs, one scaled prediction per stop.
    """

    def __init__(self, branches: list[list[LstmLayerParams]], head: DenseParams):
        if not branches or not branches[0]:
            raise InvalidHyperParams("a model needs at least one branch with one layer")
        depth = len(branches[0])
        for stack in branches:
            if len(stack) != depth or any(
                layer.w.shape != ref.w.shape or layer.u.shape != ref.u.shape
                for layer, ref in zip(stack, branches[0])
            ):
                raise ShapeMismatch("all branches must share the same layer shapes")
        hidden = branches[0][-1].hidden_size
        if head.w.shape != (len(branches), len(branches) * hidden):
            raise ShapeMismatch(
                f"head shape {head.w.shape} != ({len(branches)}, {len(branches) * hidden})"
            )
        self.branches = branches
        self.head = head

    @property
    def n_branches(self) -> int:
        return len(self.branches)

    @property
    def n_layers(self) -> int:
        return len(self.branches[0])

    @property
    def hidden_size(self) -> int:
        return self.branches[0][0].hidden_size

    @property
    def input_size(self) -> int:
        return self.branches[0][0].input_size

    def param_dict(self) -> dict[str, np.ndarray]:
        """Canonically ordered live views of every parameter array."""
        out: dict[str, np.ndarray] = {}
        for b, stack in enumerate(self.branches):
            for l, layer in enumerate(stack):
                out[f"branch{b}/layer{l}/w"] = layer.w
                out[f"branch{b}/layer{l}/u"] = layer.u
                out[f"branch{b}/layer{l}/b"] = layer.b
        out["head/w"] = self.head.w
        out["head/b"] = self.head.b
        return out

    def snapshot(self) -> dict[str, np.ndarray]:
        return {name: arr.copy() for name, arr in self.param_dict().items()}

    def restore(self, state: dict[str, np.ndarray]) -> None:
        for name, arr in self.param_dict().items():
            arr[...] = state[name]

    def _check_inputs(self, xs: Sequence[np.ndarray]) -> None:
        if len(xs) != self.n_branches:
            raise MisalignedBatches(f"got {len(xs)} input streams for {self.n_branches} branches")
        batch, steps = xs[0].shape[0], xs[0].shape[1]
        for x in xs:
            if x.ndim != 3 or x.shape[2] != self.input_size:
                raise ShapeMismatch(f"branch input shape {x.shape} != (B, L, {self.input_size})")
            if x.shape[0] != batch:
                raise MisalignedBatches("branch batches have different sizes")
            if x.shape[1] != steps:
                raise ShapeMismatch("branch look-back lengths differ")

    def _stacked_layer(self, layer_idx: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Parameters of one depth level stacked across branches: (n,4H,D) etc."""
        w = np.stack([stack[layer_idx].w for stack in self.branches])
        u = np.stack([stack[layer_idx].u for stack in self.branches])
        b = np.stack([stack[layer_idx].b for stack in self.branches])
        return w, u, b

    def _run_branches(
        self, xs: Sequence[np.ndarray], keep_caches: bool
    ) -> tuple[np.ndarray, list]:
        """All branches in lock-step; returns stacked top hidden sequences."""
        self._check_inputs(xs)
        seq = np.stack(xs)  # (n, B, L, D)
        caches = []
        for l in range(self.n_layers):
            w, u, b = self._stacked_layer(l)
            seq, cache = branched_lstm_forward(w, u, b, seq)
            if keep_caches:
                caches.append((w, u, cache))
        return seq, caches

    def branch_states(self, xs: Sequence[np.ndarray]) -> list[np.ndarray]:
        """Final hidden state (B, H) of each branch's top layer."""
        seq, _ = self._run_branches(xs, keep_caches=False)
        return [seq[b, :, -1] for b in range(self.n_branches)]

    def forward(self, xs: Sequence[np.ndarray]) -> np.ndarray:
        """Scaled predictions, shape (B, n_branches); de-scaling is the caller's job."""
        seq, _ = self._run_branches(xs, keep_caches=False)
        concat = self._concat_states(seq)
        return dense_forward(self.head, concat)

    def _concat_states(self, seq: np.ndarray) -> np.ndarray:
        # (n, B, H) final states -> (B, n*H) with branch b at columns b*H:(b+1)*H
        batch = seq.shape[1]
        return seq[:, :, -1].transpose(1, 0, 2).reshape(batch, self.n_branches * self.hidden_size)

    def forward_backward(
        self, xs: Sequence[np.ndarray], target: np.ndarray
    ) -> tuple[float, dict[str, np.ndarray]]:
        """Loss and gradients for one mini-batch of scaled targets."""
        seq, caches = self._run_branches(xs, keep_caches=True)
        batch = seq.shape[1]
        hidden = self.hidden_size
        concat = self._concat_states(seq)
        pred = dense_forward(self.head, concat)

        loss, dpred = mse_loss(pred, target)
        dw_head, db_head, dconcat = dense_backward(self.head, concat, dpred)

        grads: dict[str, np.ndarray] = {"head/w": dw_head, "head/b": db_head}
        # Gradient enters the top layer only at the final step.
        d_state = dconcat.reshape(batch, self.n_branches, hidden).transpose(1, 0, 2)
        grad_seq = np.zeros((self.n_branches, batch, seq.shape[2], hidden))
        grad_seq[:, :, -1] = d_state
        for l in reversed(range(self.n_layers)):
            w, u, cache = caches[l]
            layer_grads = branched_lstm_backward(w, u, cache, grad_seq, need_dx=l > 0)
            for b in range(self.n_branches):
                grads[f"branch{b}/layer{l}/w"] = layer_grads.dw[b]
                grads[f"branch{b}/layer{l}/u"] = layer_grads.du[b]
                grads[f"branch{b}/layer{l}/b"] = layer_grads.db[b]
            grad_seq = layer_grads.dx
        return loss, grads


def validate_hyperparams(hp: HyperParams) -> None:
    if hp.n_layers < 1:
        raise InvalidHyperParams(f"need at least one LSTM layer, got {hp.n_layers}")
    if hp.lstm_nodes < 1 or hp.batch_size < 1 or hp.sequence_length < 1:
        raise InvalidHyperParams(f"non-positive size in {hp}")
    if hp.learning_rate <= 0:
        raise InvalidHyperParams(f"learning rate must be > 0, got {hp.learning_rate}")


def build_model(spec: MethodSpec, hp: HyperParams, n_stops: int, seed: int) -> LstmRegressor:
    """Deterministically initialized model for a NN method.

    Joint methods get one branch per stop; the per-stop baseline gets a
    single branch (instantiate one model per stop with distinct seeds).
    """
    if spec.architecture is Architecture.NONE:
        raise InvalidHyperParams("the statistical method has no trainable model")
    validate_hyperparams(hp)
    n_branches = n_stops if spec.architecture is Architecture.JOINT else 1
    feature_dim = spec.features.dimension
    rng = np.random.default_rng(seed)
    branches = []
    for _ in range(n_branches):
        stack = []
        in_size = feature_dim
        for _ in range(hp.n_layers):
            stack.append(init_lstm_params(in_size, hp.lstm_nodes, rng))
            in_size = hp.lstm_nodes
        branches.append(stack)
    head = init_dense_params(n_branches * hp.lstm_nodes, n_branches, rng)
    return LstmRegressor(branches, head)


def forward_joint(model: LstmRegressor, xs: Sequence[np.ndarray]) -> np.ndarray:
    """Batch predictions of the joint model; column j predicts stop j+1."""
    return model.forward(xs)


def _batched_loss(model: LstmRegressor, data: AlignedWindows, batch_size: int = 512) -> float:
    total = 0.0
    n = data.n_samples
    for start in range(0, n, batch_size):
        stop = min(start + batch_size, n)
        xs = [x[start:stop] for x in data.xs]
        pred = model.forward(xs)
        diff = pred - data.y[start:stop]
        total += float(np.sum(diff * diff))
    return total / (n * data.y.shape[1])


@dataclass(frozen=True)
class TrainSchedule:
    max_epochs: int = 200
    patience: int = 10
    restore_best: bool = True
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


def train(
    model: LstmRegressor,
    train_data: AlignedWindows,
    val_data: AlignedWindows,
    hp: HyperParams,
    schedule: TrainSchedule,
    seed: int,
) -> TrainHistory:
    """Mini-batch training on scaled targets; returns the per-epoch history.

    The model is left holding the parameters of the best validation epoch
    (when ``schedule.restore_best``). The ``seed`` drives batch shuffling
    only; initialization is fixed by :func:`build_model`.
    """
    n = train_data.n_samples
    if n == 0 or val_data.n_samples == 0:
        raise EmptyDataset("training and validation windows must be non-empty")
    validate_hyperparams(hp)
    optimizer = make_optimizer(hp.optimizer, hp.learning_rate)
    params = model.param_dict()
    rng = np.random.default_rng(seed)
    history = TrainHistory()
    best_state = model.snapshot()

    for epoch in range(1, schedule.max_epochs + 1):
        order = rng.permutation(n)
        epoch_loss = 0.0
        for start in range(0, n, hp.batch_size):
            idx = order[start : start + hp.batch_size]
            xs = [x[idx] for x in train_data.xs]
            loss, grads = model.forward_backward(xs, train_data.y[idx])
            if not math.isfinite(loss):
                raise DivergedTraining(f"non-finite training loss at epoch {epoch}")
            if schedule.clip_norm is not None:
                clip_global_norm(grads, schedule.clip_norm)
            optimizer.step(params, grads)
            epoch_loss += loss * len(idx)
        epoch_loss /= n

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

    if schedule.restore_best:
        model.restore(best_state)
    return history


# ---------------------------------------------------------------------------
# statistical baseline


@dataclass(frozen=True)
class StatisticalBaseline:
    """Mean ridership per (stop_index, service_index) over a date window."""

    table: dict[tuple[int, int], float]

    def to_csv(self, path: str | Path) -> None:
        with Path(path).open("w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(["stop_index", "service_index", "mean"])
            for (stop, svc), mean in sorted(self.table.items()):
                writer.writerow([stop, svc, repr(mean)])

    @classmethod
    def from_csv(cls, path: str | Path) -> "StatisticalBaseline":
        table: dict[tuple[int, int], float] = {}
        with Path(path).open(newline="", encoding="utf-8") as fh:
            for row in csv.DictReader(fh):
                table[(int(row["stop_index"]), int(row["service_index"]))] = float(row["mean"])
        return cls(table)


def fit_statistical(dataset: RouteDataset, window: tuple[date, date]) -> StatisticalBaseline:
    """Arithmetic mean per (stop, service number) over all services in the window."""
    start, end = window
    groups: dict[tuple[int, int], list[int]] = {}
    for record in dataset.records:
        if start <= record.service_date <= end:
            groups.setdefault((record.stop_index, record.service_index), []).append(record.ridership)
    if not groups:
        raise EmptyWindow(f"no services between {start} and {end}")
    # fsum keeps the group means exact for integer counts
    return StatisticalBaseline({key: math.fsum(vals) / len(vals) for key, vals in groups.items()})


def predict_statistical(baseline: StatisticalBaseline, stop_index: int, service_index: int) -> float:
    try:
        return baseline.table[(stop_index, service_index)]
    except KeyError as exc:
        raise MissingKey(f"no fitted mean for stop {stop_index}, service {service_index}") from exc


# ---------------------------------------------------------------------------
# prediction

Artifact = LstmRegressor | Sequence[LstmRegressor] | StatisticalBaseline


def descale_predictions(pred_scaled: np.ndarray, scalers: ScalerSet, stops: Sequence[int]) -> np.ndarray:
    """Invert min-max scaling per output column and clamp at zero persons."""
    out = np.empty_like(pred_scaled)
    for col, stop in enumerate(stops):
        out[:, col] = inverse_scale(pred_scaled[:, col], scalers.ridership[stop])
    return np.maximum(out, 0.0)


def predict_next_service(
    artifact: Artifact,
    history: Sequence[np.ndarray],
    scalers: ScalerSet,
    look_back: int,
    target_service_index: int | None = None,
) -> list[float]:
    """Predict the next service's per-stop ridership from L encoded services.

    ``history`` holds one (L, D) feature block per stop. A joint model
    consumes all blocks at once; a list of single-branch models consumes one
    block each; a StatisticalBaseline ignores the features and needs the
    ``target_service_index`` being predicted. Returned values are de-scaled
    persons, clamped at zero.
    """
    for block in history:
        if block.ndim != 2 or block.shape[0] != look_back:
            raise InsufficientHistory(
                f"need exactly {look_back} consecutive services per stop, got {block.shape}"
            )
    n_stops = len(history)
    stops = list(range(1, n_stops + 1))
    if isinstance(artifact, StatisticalBaseline):
        if target_service_index is None:
            raise MissingKey("the statistical baseline needs the target service index")
        return [predict_statistical(artifact, stop, target_service_index) for stop in stops]
    if isinstance(artifact, LstmRegressor):
        if artifact.n_branches != n_stops:
            raise MisalignedBatches(f"{n_stops} history blocks for {artifact.n_branches} branches")
        pred = artifact.forward([block[None, :, :] for block in history])
    else:
        models = list(artifact)
        if len(models) != n_stops:
            raise MisalignedBatches(f"{n_stops} history blocks for {len(models)} models")
        cols = [m.forward([history[i][None, :, :]])[:, 0] for i, m in enumerate(models)]
        pred = np.column_stack(cols)
    return [float(v) for v in descale_predictions(pred, scalers, stops)[0]]


# ---------------------------------------------------------------------------
# checkpoints


def _scalers_to_payload(scalers: ScalerSet) -> dict:
    return {
        "ridership": {str(stop): [p.min, p.max] for stop, p in sorted(scalers.ridership.items())},
        "precipitation": [scalers.precipitation.min, scalers.precipitation.max],
    }


def _scalers_from_payload(payload: dict) -> ScalerSet:
    return ScalerSet(
        ridership={int(k): ScalerParams(v[0], v[1]) for k, v in payload["ridership"].items()},
        precipitation=ScalerParams(*payload["precipitation"]),
    )


@dataclass
class LoadedModel:
    model: LstmRegressor
    method: MethodId
    spec: MethodSpec
    hp: HyperParams
    scalers: ScalerSet
    look_back: int
    seed: int
    n_stops: int
    stop_index: int | None  # set for per-stop baseline checkpoints


def save_model(
    path: str | Path,
    model: LstmRegressor,
    *,
    method: MethodId,
    hp: HyperParams,
    scalers: ScalerSet,
    look_back: int,
    seed: int,
    n_stops: int,
    services_per_day: int,
    stop_index: int | None = None,
) -> None:
    spec = method_spec(method, services_per_day)
    header = {
        "kind": "buscast-model",
        "method": method.value,
        "hyperparams": hp.to_dict(),
        "feature_spec": {
            "use_ridership": spec.features.use_ridership,
            "use_day_of_week": spec.features.use_day_of_week,
            "use_service_number": spec.features.use_service_number,
            "use_rain": spec.features.use_rain,
            "services_per_day": spec.features.services_per_day,
            "dimension": spec.features.dimension,
        },
        "scalers": _scalers_to_payload(scalers),
        "look_back": look_back,
        "seed": seed,
        "n_stops": n_stops,
        "services_per_day": services_per_day,
        "stop_index": stop_index,
        "n_branches": model.n_branches,
        "n_layers": model.n_layers,
        "hidden_size": model.hidden_size,
        "input_size": model.input_size,
    }
    save_params(path, header, list(model.param_dict().items()))


def load_model(path: str | Path) -> LoadedModel:
    header, params = load_params(path)
    method = MethodId(header["method"])
    spec = method_spec(method, header["services_per_day"])
    branches = []
    for b in range(header["n_branches"]):
        stack = []
        for l in range(header["n_layers"]):
            stack.append(
                LstmLayerParams(
                    w=params[f"branch{b}/layer{l}/w"],
                    u=params[f"branch{b}/layer{l}/u"],
                    b=params[f"branch{b}/layer{l}/b"],
                )
            )
        branches.append(stack)
    model = LstmRegressor(branches, DenseParams(w=params["head/w"], b=params["head/b"]))
    return LoadedModel(
        model=model,
        method=method,
        spec=spec,
        hp=HyperParams.from_dict(header["hyperparams"]),
        scalers=_scalers_from_payload(header["scalers"]),
        look_back=header["look_back"],
        seed=header["seed"],
        n_stops=header["n_stops"],
        stop_index=header["stop_index"],
    )
