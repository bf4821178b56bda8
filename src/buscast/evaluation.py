"""Accuracy comparison of all six methods, correlations, and report files.

RMSE is computed in persons on de-scaled, zero-clamped predictions against
raw targets. All methods in one report are scored on exactly the same set of
test target service slots (the intersection of each method's windowable
targets), so their RMSEs are directly comparable. Stochastic NN methods can
be scored as the median over several seeds; per-seed values are retained.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, field
from datetime import date
from functools import reduce
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
    write_output,
)
from .features import (
    AlignedWindows,
    PreparedData,
    prepare_windows,
    scale_targets,
    stop_view,
    subset_by_targets,
)
from .models import (
    Forecaster,
    LstmForecaster,
    Member,
    MethodId,
    MethodSpec,
    TrainHistory,
    TrainSchedule,
    build_model,
    fit_statistical,
    member_plan,
    method_spec,
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
        with write_output(path) as fh:
            writer = csv.writer(fh)
            labels = [f"stop{i}" for i in range(1, self.n_stops + 1)]
            writer.writerow([""] + labels)
            for i, label in enumerate(labels):
                writer.writerow([label] + [repr(float(v)) for v in self.values[i]])


def correlation_matrix(dataset: RouteDataset) -> CorrelationMatrix:
    """Pairwise Pearson correlation over ridership aligned by (date, service).

    Services observed at only one stop of a pair are dropped pairwise; the
    rest are taken in (date, service) order.
    """
    if np.count_nonzero(dataset.complete) < 2:
        raise InsufficientData("need at least two complete services")
    n = dataset.n_stops
    counts = dataset.ridership.reshape(-1, n)
    observed = dataset.mask.reshape(-1, n)
    values = np.eye(n)
    for a in range(n):
        for b in range(a + 1, n):
            common = observed[:, a] & observed[:, b]
            if np.count_nonzero(common) < 2:
                values[a, b] = values[b, a] = math.nan
                continue
            xa = counts[common, a].astype(np.float64)
            xb = counts[common, b].astype(np.float64)
            da = xa - xa.mean()
            db = xb - xb.mean()
            denom = math.sqrt(float(da @ da) * float(db @ db))
            coeff = math.nan if denom == 0.0 else float(da @ db) / denom
            values[a, b] = values[b, a] = coeff
    return CorrelationMatrix(values=values)


# ---------------------------------------------------------------------------
# per-method scoring


def evaluate_method(forecaster: Forecaster, test: AlignedWindows) -> list[float]:
    """Per-stop RMSE in persons of ``forecaster`` on ``test``, whose targets are raw ridership."""
    preds = forecaster.predict(test)
    return [rmse(preds[:, col], test.y[:, col]) for col in range(test.n_stops)]


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

    def payload(self) -> dict:
        """The report as JSON-ready values, every RMSE at full precision."""
        return {
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

    def to_json(self) -> str:
        return json.dumps(self.payload(), indent=2, sort_keys=True)

    def to_csv(self, path: str | Path) -> None:
        with write_output(path) as fh:
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
    report: EvalReport, out_dir: str | Path, improvement: ImprovementReport | None = None
) -> dict[str, Path]:
    """Write the comparison CSV, a full-precision JSON, and the improvement matrix, if given."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    paths = {
        "csv": out_dir / "rmse_report.csv",
        "json": out_dir / "rmse_report.json",
    }
    report.to_csv(paths["csv"])
    text = report.to_json()
    with write_output(paths["json"]) as fh:
        fh.write(text)
    if improvement is not None:
        paths["improvement"] = out_dir / "improvement_report.csv"
        with write_output(paths["improvement"]) as fh:
            writer = csv.writer(fh)
            writer.writerow(
                ["method"] + [f"stop{i}_gain_pct" for i in report.stops] + ["mean_gain_pct"]
            )
            for method, gains in improvement.per_method.items():
                writer.writerow(
                    [method.value] + [repr(v) for v in gains] + [repr(improvement.mean_per_method[method])]
                )
    return paths


# ---------------------------------------------------------------------------
# fitting and the evaluation harness


def fit_forecaster(
    spec: MethodSpec, hp: HyperParams, prepared: PreparedData, seed: int, schedule: TrainSchedule
) -> tuple[LstmForecaster, dict[str, TrainHistory]]:
    """Build and train every regressor of a NN method; histories are keyed by regressor label.

    Each regressor's label, stops and seed come from :func:`member_plan`.
    """
    train_scaled = scale_targets(prepared.train, prepared.scalers)
    val_scaled = scale_targets(prepared.val, prepared.scalers)
    n_stops = train_scaled.n_stops
    members, histories = [], {}
    for label, stops, model_seed in member_plan(spec, n_stops, seed):
        model = build_model(spec, hp, n_stops, model_seed)
        histories[label] = train(
            model, stop_view(train_scaled, stops), stop_view(val_scaled, stops), hp, schedule, model_seed + 1
        )
        members.append(Member(model, hp, model_seed))
    return LstmForecaster(tuple(members), prepared.scalers), histories


@dataclass(frozen=True)
class FittedMethod:
    """A method's forecasters and the raw-target test windows they read."""

    test: AlignedWindows
    forecasters: tuple[Forecaster, ...]
    seeds: tuple[int, ...] = ()  # the training seed of each forecaster; empty for a single loaded or fitted one


def fit_methods(
    dataset: RouteDataset,
    boundaries: tuple[date, date],
    method_hps: Mapping[MethodId, HyperParams],
    seeds: Sequence[int],
    schedule: TrainSchedule | None = None,
) -> dict[MethodId, FittedMethod]:
    """Train every NN method once per seed, each on its own windows."""
    schedule = schedule or TrainSchedule()
    fitted = {}
    for method, hp in method_hps.items():
        spec = method_spec(method, dataset.services_per_day)
        prepared = prepare_windows(dataset, boundaries, spec.features, hp.sequence_length)
        forecasters = tuple(fit_forecaster(spec, hp, prepared, seed, schedule)[0] for seed in seeds)
        fitted[method] = FittedMethod(prepared.test, forecasters, tuple(seeds))
    return fitted


def evaluate_methods(
    dataset: RouteDataset,
    boundaries: tuple[date, date],
    fitted: Mapping[MethodId, FittedMethod | None],
    stat_window: tuple[date | None, date | None] = (None, None),
    look_back: int = 26,
    progress: Callable[[str], None] | None = None,
) -> EvalReport:
    """Score every method, in the order of ``fitted``, on a common test target set.

    The target set is the intersection of every method's windowable test
    targets. A method with several seeds is reported as the per-stop median
    over them. The statistical baseline maps to None and is fitted here on
    ``stat_window``; its start defaults to the dataset's first date and its
    end to the validation boundary, each on its own. With no NN method, the
    scored targets are those windowable at ``look_back``.
    """
    say = progress or (lambda _msg: None)
    tests = [run.test for run in fitted.values() if run is not None]
    if not tests:
        # Statistical alone still needs windows to define the scored targets.
        spec = method_spec(MethodId.A, dataset.services_per_day)
        tests.append(prepare_windows(dataset, boundaries, spec.features, look_back).test)
    common = reduce(np.intersect1d, [test.slots for test in tests])

    results: dict[MethodId, MethodResult] = {}
    for method, run in fitted.items():
        if run is None:
            window = (stat_window[0] or dataset.date_range()[0], stat_window[1] or boundaries[1])
            run = FittedMethod(tests[0], (fit_statistical(dataset, window),))
        test = subset_by_targets(run.test, common)
        scores = [tuple(evaluate_method(forecaster, test)) for forecaster in run.forecasters]
        for seed, per_stop in zip(run.seeds or (None,), scores):
            tag = method.value if seed is None else f"{method.value} seed {seed}"
            say(f"{tag}: rmse={['%.3f' % v for v in per_stop]}")
        results[method] = MethodResult(
            per_stop=tuple(float(v) for v in np.median(np.array(scores), axis=0)),
            per_seed=dict(zip(run.seeds, scores)),
        )
    return EvalReport(stops=tuple(range(1, dataset.n_stops + 1)), methods=results)
