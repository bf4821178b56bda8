"""Accuracy comparison of all six methods, correlations, and report files.

RMSE is computed in persons on de-scaled, zero-clamped predictions against
raw targets. All methods in one report are scored on exactly the same set of
test target services (the intersection of each method's windowable targets),
so their RMSEs are directly comparable. Stochastic NN methods can be scored
as the median over several seeds; per-seed values are retained.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, field
from datetime import date
from pathlib import Path
from typing import Callable, Mapping, Sequence

import numpy as np

from .data_ingest import RouteDataset
from .errors import (
    EmptyInput,
    InsufficientData,
    LengthMismatch,
    MissingMethod,
    ZeroReferenceRmse,
)
from .features import (
    AlignedWindows,
    ScalerSet,
    prepare_windows,
    scale_targets,
    single_stop_view,
    subset_by_targets,
)
from .models import (
    Architecture,
    LstmRegressor,
    MethodId,
    MethodSpec,
    StatisticalBaseline,
    TrainSchedule,
    build_model,
    descale_predictions,
    fit_statistical,
    method_spec,
    predict_statistical,
    train,
)
from .tuning import HyperParams


def rmse(predictions: Sequence[float] | np.ndarray, targets: Sequence[float] | np.ndarray) -> float:
    predictions = np.asarray(predictions, dtype=np.float64)
    targets = np.asarray(targets, dtype=np.float64)
    if predictions.shape != targets.shape:
        raise LengthMismatch(f"{predictions.shape} vs {targets.shape}")
    if predictions.size == 0:
        raise EmptyInput("RMSE of empty sequences is undefined")
    diff = predictions - targets
    return float(np.sqrt(np.mean(diff * diff)))


@dataclass(frozen=True)
class CorrelationMatrix:
    """Pearson coefficients between per-service ridership series of stop pairs.

    Entries are NaN where a series has zero variance (undefined coefficient);
    the diagonal is 1 by definition and the matrix is exactly symmetric.
    """

    values: np.ndarray  # (n, n)

    @property
    def n_stops(self) -> int:
        return self.values.shape[0]

    def to_csv(self, path: str | Path) -> None:
        with Path(path).open("w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            labels = [f"stop{i}" for i in range(1, self.n_stops + 1)]
            writer.writerow([""] + labels)
            for i, label in enumerate(labels):
                writer.writerow([label] + [repr(float(v)) for v in self.values[i]])


def correlation_matrix(dataset: RouteDataset) -> CorrelationMatrix:
    """Pairwise Pearson correlation over ridership aligned by (date, service).

    Services observed at only one stop of a pair are dropped pairwise.
    """
    series = [dataset.ridership_series(stop) for stop in range(1, dataset.n_stops + 1)]
    if len(dataset.complete_services) < 2:
        raise InsufficientData("need at least two complete services")
    n = dataset.n_stops
    values = np.eye(n)
    for a in range(n):
        for b in range(a + 1, n):
            common = sorted(set(series[a]) & set(series[b]))
            if len(common) < 2:
                values[a, b] = values[b, a] = math.nan
                continue
            xa = np.array([series[a][k] for k in common], dtype=np.float64)
            xb = np.array([series[b][k] for k in common], dtype=np.float64)
            da = xa - xa.mean()
            db = xb - xb.mean()
            denom = math.sqrt(float(da @ da) * float(db @ db))
            coeff = math.nan if denom == 0.0 else float(da @ db) / denom
            values[a, b] = values[b, a] = coeff
    return CorrelationMatrix(values=values)


# ---------------------------------------------------------------------------
# per-method scoring


def evaluate_method(
    spec: MethodSpec,
    artifact,
    test: AlignedWindows,
    scalers: ScalerSet | None,
) -> list[float]:
    """Per-stop RMSE in persons on the given test windows.

    ``artifact`` is a joint model, a list of per-stop models, or a fitted
    StatisticalBaseline (which ignores ``scalers``). Targets in ``test`` are
    raw ridership.
    """
    n_stops = test.n_stops
    if spec.architecture is Architecture.NONE:
        baseline: StatisticalBaseline = artifact
        preds = np.empty_like(test.y)
        for i, (_, service_index) in enumerate(test.index_map):
            for col in range(n_stops):
                preds[i, col] = predict_statistical(baseline, col + 1, service_index)
    elif spec.architecture is Architecture.JOINT:
        preds = descale_predictions(
            _batched_forward(artifact, test), scalers, list(range(1, n_stops + 1))
        )
    else:
        models: Sequence[LstmRegressor] = artifact
        cols = [
            _batched_forward(models[b], single_stop_view(test, b))[:, 0] for b in range(n_stops)
        ]
        preds = descale_predictions(np.column_stack(cols), scalers, list(range(1, n_stops + 1)))
    return [rmse(preds[:, col], test.y[:, col]) for col in range(n_stops)]


def _batched_forward(model: LstmRegressor, data: AlignedWindows, batch: int = 512) -> np.ndarray:
    n = data.n_samples
    chunks = []
    for start in range(0, n, batch):
        stop = min(start + batch, n)
        chunks.append(model.forward(data.batch(slice(start, stop))))
    return np.concatenate(chunks, axis=0)


# ---------------------------------------------------------------------------
# the comparison report


@dataclass(frozen=True)
class MethodResult:
    per_stop: tuple[float, ...]
    per_seed: dict[int, tuple[float, ...]] = field(default_factory=dict)

    @property
    def mean(self) -> float:
        return float(np.mean(self.per_stop))


@dataclass(frozen=True)
class EvalReport:
    stops: tuple[int, ...]
    methods: dict[MethodId, MethodResult]

    def to_json(self) -> str:
        payload = {
            "stops": list(self.stops),
            "methods": {
                m.value: {
                    "per_stop": list(r.per_stop),
                    "mean": r.mean,
                    "per_seed": {str(s): list(v) for s, v in sorted(r.per_seed.items())},
                }
                for m, r in self.methods.items()
            },
        }
        return json.dumps(payload, indent=2, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "EvalReport":
        payload = json.loads(text)
        return cls(
            stops=tuple(payload["stops"]),
            methods={
                MethodId(m): MethodResult(
                    per_stop=tuple(info["per_stop"]),
                    per_seed={int(s): tuple(v) for s, v in info["per_seed"].items()},
                )
                for m, info in payload["methods"].items()
            },
        )

    def to_csv(self, path: str | Path) -> None:
        with Path(path).open("w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(["method"] + [f"stop{i}_rmse" for i in self.stops] + ["mean_rmse"])
            for method, result in self.methods.items():
                writer.writerow([method.value] + [repr(v) for v in result.per_stop] + [repr(result.mean)])


@dataclass(frozen=True)
class ImprovementReport:
    reference: MethodId
    per_method: dict[MethodId, tuple[float, ...]]  # percent per stop
    mean_per_method: dict[MethodId, float]


def improvement_report(report: EvalReport, reference: MethodId) -> ImprovementReport:
    """Percent RMSE improvement of every method over the reference, per stop."""
    if reference not in report.methods:
        raise MissingMethod(f"reference method {reference.value!r} not in report")
    ref = report.methods[reference].per_stop
    if any(v == 0.0 for v in ref):
        raise ZeroReferenceRmse(f"reference {reference.value!r} has a zero RMSE stop")
    per_method: dict[MethodId, tuple[float, ...]] = {}
    means: dict[MethodId, float] = {}
    for method, result in report.methods.items():
        gains = tuple(
            100.0 * (r - m) / r for m, r in zip(result.per_stop, ref)
        )
        per_method[method] = gains
        means[method] = float(np.mean(gains))
    return ImprovementReport(reference=reference, per_method=per_method, mean_per_method=means)


def emit_report(
    report: EvalReport, out_dir: str | Path, reference: MethodId | None = None
) -> dict[str, Path]:
    """Write the comparison CSV, a full-precision JSON, and the improvement matrix."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    paths = {
        "csv": out_dir / "rmse_report.csv",
        "json": out_dir / "rmse_report.json",
    }
    report.to_csv(paths["csv"])
    paths["json"].write_text(report.to_json(), encoding="utf-8")
    if reference is not None and reference in report.methods:
        imp = improvement_report(report, reference)
        paths["improvement"] = out_dir / "improvement_report.csv"
        with paths["improvement"].open("w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(
                ["method"] + [f"stop{i}_gain_pct" for i in report.stops] + ["mean_gain_pct"]
            )
            for method, gains in imp.per_method.items():
                writer.writerow(
                    [method.value] + [repr(v) for v in gains] + [repr(imp.mean_per_method[method])]
                )
    return paths


# ---------------------------------------------------------------------------
# multi-seed training harness


def evaluate_methods(
    dataset: RouteDataset,
    boundaries: tuple[date, date],
    method_hps: Mapping[MethodId, HyperParams | None],
    seeds: Sequence[int],
    schedule: TrainSchedule | None = None,
    stat_window: tuple[date, date] | None = None,
    progress: Callable[[str], None] | None = None,
    look_back: int = 26,
) -> EvalReport:
    """Train and score the requested methods on a common test target set.

    NN methods are trained once per seed and reported as the per-stop median
    over seeds. The statistical baseline is fitted on ``stat_window``
    (default: dataset start through the validation boundary). With no NN
    method requested, the scored targets are those windowable at ``look_back``.
    """
    schedule = schedule or TrainSchedule()
    n_stops = dataset.n_stops
    say = progress or (lambda _msg: None)

    prepared = {}
    for method in method_hps:
        spec = method_spec(method, dataset.services_per_day)
        if spec.architecture is Architecture.NONE:
            continue
        hp = method_hps[method]
        prepared[method] = prepare_windows(dataset, boundaries, spec.features, hp.sequence_length)
    if not prepared:
        # Statistical alone still needs windows to define the scored targets.
        any_spec = method_spec(MethodId.A, dataset.services_per_day)
        prepared[MethodId.A] = prepare_windows(dataset, boundaries, any_spec.features, look_back)

    # Score every method on the same predicted services.
    common: set = set(next(iter(prepared.values())).test.index_map)
    for data in prepared.values():
        common &= set(data.test.index_map)

    results: dict[MethodId, MethodResult] = {}
    for method, hp in method_hps.items():
        spec = method_spec(method, dataset.services_per_day)
        if spec.architecture is Architecture.NONE:
            window = stat_window or (dataset.date_range()[0], boundaries[1])
            baseline = fit_statistical(dataset, window)
            test = subset_by_targets(next(iter(prepared.values())).test, common)
            per_stop = evaluate_method(spec, baseline, test, None)
            results[method] = MethodResult(per_stop=tuple(per_stop))
            say(f"{method.value}: rmse={['%.3f' % v for v in per_stop]}")
            continue

        data = prepared[method]
        test = subset_by_targets(data.test, common)
        train_scaled = scale_targets(data.train, data.scalers)
        val_scaled = scale_targets(data.val, data.scalers)
        per_seed: dict[int, tuple[float, ...]] = {}
        for seed in seeds:
            if spec.architecture is Architecture.JOINT:
                model = build_model(spec, hp, n_stops, seed)
                train(model, train_scaled, val_scaled, hp, schedule, seed + 1)
                artifact = model
            else:
                stop_models = []
                for b in range(n_stops):
                    sub_train = single_stop_view(train_scaled, b)
                    sub_val = single_stop_view(val_scaled, b)
                    m = build_model(spec, hp, n_stops, seed * n_stops + b)
                    train(m, sub_train, sub_val, hp, schedule, seed * n_stops + b + 1)
                    stop_models.append(m)
                artifact = stop_models
            per_seed[seed] = tuple(evaluate_method(spec, artifact, test, data.scalers))
            say(f"{method.value} seed {seed}: rmse={['%.3f' % v for v in per_seed[seed]]}")
        stacked = np.array([per_seed[s] for s in seeds])
        results[method] = MethodResult(
            per_stop=tuple(float(v) for v in np.median(stacked, axis=0)),
            per_seed=per_seed,
        )

    return EvalReport(stops=tuple(range(1, n_stops + 1)), methods=results)

