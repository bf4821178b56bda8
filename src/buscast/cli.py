"""Command-line entry point.

Subcommands: synth | ingest | correlate | train | tune | evaluate | predict.
Options can come from a plain-text ``key = value`` config file (--config)
and are overridden by command-line flags. Every run prints its effective
configuration, and every command is deterministic given config + seed.
"""

from __future__ import annotations

import argparse
import json
import math
import shutil
import sys
import tempfile
from dataclasses import dataclass, field, fields
from datetime import date, timedelta
from pathlib import Path

import numpy as np

from . import data_ingest, features, synth
from .data_ingest import DEFAULT_TIMETABLE, RouteDataset, service_key, timetable_from_strings
from .errors import (
    BadBoundaries,
    BuscastError,
    CheckpointError,
    InsufficientHistory,
    MissingModel,
    TooShort,
    read_input,
)
from .evaluation import (
    FittedMethod,
    correlation_matrix,
    emit_report,
    evaluate_method,  # not called here; perfbench traces it under this name too
    evaluate_methods,
    fit_forecaster,
    fit_methods,
    improvement_report,
)
from .features import encode_stop, encode_windows, prepare_windows, scale_targets, stop_view
from .models import (
    Architecture,
    LoadedModel,
    MethodId,
    TrainSchedule,
    TrainState,
    build_model,
    load_model,
    load_train_state,
    method_spec,
    predict_next_service,
    save_model,
    save_train_state,
    train,
)
from .nn_core import OptimizerKind
from .tuning import CandidateGrid, HyperParams, make_schedule, run_hyperband, write_tuning_report

TRAINABLE_METHODS = (MethodId.A, MethodId.B, MethodId.C, MethodId.D, MethodId.PER_STOP)


def parse_config_file(path: str | Path) -> dict[str, str]:
    """Plain-text ``key = value`` lines; ``#`` starts a comment."""
    values: dict[str, str] = {}
    for lineno, raw in enumerate(read_input(path, "config file").splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise BuscastError(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
        key, value = line.split("=", 1)
        values[key.strip()] = value.strip()
    return values


def _parse_pairs(raw: str) -> dict[str, str]:
    out: dict[str, str] = {}
    for chunk in raw.split(","):
        chunk = chunk.strip()
        if not chunk:
            continue
        if ":" not in chunk:
            raise BuscastError(f"expected 'key:value' pairs, got {chunk!r}")
        key, value = chunk.split(":", 1)
        out[key.strip()] = value.strip()
    return out


def _convert(label: str, convert, raw: str):
    """``convert(raw)``, with a bad value reported against the flag or config key it came from."""
    try:
        return convert(raw)
    except (ValueError, BuscastError) as exc:
        raise BuscastError(f"invalid value {raw!r} for {label}: {exc}") from None


def _at_least(least: int):
    def parse(raw: str) -> int:
        value = int(raw)
        if value < least:
            raise ValueError(f"must be at least {least}")
        return value

    return parse


def _rate(raw: str) -> float:
    value = float(raw)
    if not 0.0 < value < math.inf:
        raise ValueError("must be a finite number above 0")
    return value


def _finite(raw: str) -> float:
    value = float(raw)
    if not math.isfinite(value):
        raise ValueError("must be a finite number")
    return value


def _clip(raw: str) -> float | None:
    return None if raw.lower() == "none" else _rate(raw)


def _member(kind):
    def parse(raw: str):
        try:
            return kind(raw.strip().lower())
        except ValueError:
            raise ValueError("expected one of " + ", ".join(k.value for k in kind)) from None

    return parse


def _list_of(parse):
    return lambda raw: tuple(parse(value) for value in raw.split(","))


_ALL = ("synth", "ingest", "correlate", "train", "tune", "evaluate", "predict")
_FIT = ("train", "tune", "evaluate")
_GRID = CandidateGrid()
_SYNTH = synth.SynthConfig()


def _knob(default, parse, flag: str | None = None, commands: tuple[str, ...] = (), help: str | None = None):
    """A :class:`RunConfig` field: its default (a function makes a fresh one per config), the parser
    that turns a raw string into a checked value, and its flag, if any, with the commands that take it."""
    meta = {"parse": parse, "flag": flag, "commands": commands, "help": help}
    if callable(default):
        return field(default_factory=default, metadata=meta)
    return field(default=default, metadata=meta)


@dataclass
class RunConfig:
    """Effective settings for one CLI run. A field's name is its config key; for each field a flag
    wins, then the config key, then the default, and a flag or key value goes through its parser."""

    route_name: str = _knob("route", str)
    ridership_csv: Path | None = _knob(None, Path, "--ridership", ("ingest",), "ridership CSV path")
    weather_csv: Path | None = _knob(None, Path, "--weather", ("ingest",), "weather CSV path")
    out_dir: Path = _knob(Path("out"), Path, "--out", _ALL, "output directory (default ./out)")
    dataset: Path | None = _knob(None, Path, "--dataset", _ALL, "cached dataset file from 'ingest'")
    n_stops: int = _knob(5, _at_least(1), "--n-stops", ("synth", "ingest"))
    services_per_day: int = _knob(26, _at_least(1), "--services", ("synth", "ingest"))
    n_days: int = _knob(_SYNTH.n_days, _at_least(1), "--days", ("synth",), "days to synthesize (default 60)")
    start_date: date = _knob(_SYNTH.start_date, date.fromisoformat, "--start-date", ("synth",), "first date (ISO)")
    rain_probability: float = _knob(_SYNTH.rain_probability, _finite, "--rain-prob", ("synth",))
    rain_effect: float = _knob(_SYNTH.rain_effect, _finite, "--rain-effect", ("synth",))
    weekend_effect: float = _knob(_SYNTH.weekend_effect, _finite, "--weekend-effect", ("synth",))
    latent_weight: float = _knob(_SYNTH.latent_weight, _finite, "--latent-weight", ("synth",))
    noise_scale: float = _knob(_SYNTH.noise_scale, _finite, "--noise", ("synth",))
    timetable: dict = _knob(lambda: dict(DEFAULT_TIMETABLE), lambda raw: timetable_from_strings(raw.split(",")))
    category_aliases: dict = _knob(dict, _parse_pairs)
    ridership_columns: dict = _knob(dict, _parse_pairs)
    train_end: date | None = _knob(None, date.fromisoformat, "--train-end", _FIT, "last training date (ISO)")
    val_end: date | None = _knob(None, date.fromisoformat, "--val-end", _FIT, "last validation date (ISO)")
    method: MethodId | None = _knob(
        None, _member(MethodId), "--method", ("train", "tune"), "a | b | c | d | perstop"
    )
    batch_size: int = _knob(16, _at_least(1), "--batch-size", _FIT)
    sequence_length: int = _knob(26, _at_least(1), "--sequence-length", _FIT)
    lstm_nodes: int = _knob(64, _at_least(1), "--lstm-nodes", _FIT)
    n_layers: int = _knob(1, _at_least(1), "--n-layers", _FIT)
    learning_rate: float = _knob(0.001, _rate, "--learning-rate", _FIT)
    optimizer: OptimizerKind = _knob(
        OptimizerKind.ADAM, _member(OptimizerKind), "--optimizer", _FIT, "sgd | rmsprop | adam | nadam"
    )
    max_epochs: int = _knob(200, _at_least(1), "--max-epochs", _FIT)
    patience: int = _knob(10, _at_least(1), "--patience", _FIT)
    clip_norm: float | None = _knob(5.0, _clip, "--clip-norm", _FIT, "float, or 'none' to disable")
    seed: int = _knob(0, _at_least(0), "--seed", _ALL, "master seed (default 0)")
    eval_seeds: int = _knob(5, _at_least(1), "--seeds", ("evaluate",), "seed count for --retrain (default 5)")
    tune_max_resource: int = _knob(27, _at_least(1), "--max-resource", ("tune",))
    tune_eta: int = _knob(3, _at_least(2), "--eta", ("tune",))
    tune_batch_sizes: tuple = _knob(_GRID.batch_sizes, _list_of(_at_least(1)))
    tune_sequence_lengths: tuple = _knob(_GRID.sequence_lengths, _list_of(_at_least(1)))
    tune_lstm_nodes: tuple = _knob(_GRID.lstm_nodes, _list_of(_at_least(1)))
    tune_n_layers: tuple = _knob(_GRID.n_layers, _list_of(_at_least(1)))
    tune_learning_rates: tuple = _knob(_GRID.learning_rates, _list_of(_rate))
    tune_optimizers: tuple = _knob(_GRID.optimizers, _list_of(_member(OptimizerKind)))
    stat_start: date | None = _knob(None, date.fromisoformat, "--stat-start", ("evaluate",))
    stat_end: date | None = _knob(None, date.fromisoformat, "--stat-end", ("evaluate",))

    @property
    def hp(self) -> HyperParams:
        """The hyperparameters; each field of :class:`HyperParams` is the field of the same name."""
        return HyperParams(**{f.name: getattr(self, f.name) for f in fields(HyperParams)})

    @property
    def grid(self) -> CandidateGrid:
        """The tuning grid; each ``tune_<name>`` field is the grid's ``<name>``."""
        return CandidateGrid(**{f.name: getattr(self, "tune_" + f.name) for f in fields(CandidateGrid)})

    def schedule(self) -> TrainSchedule:
        return TrainSchedule(max_epochs=self.max_epochs, patience=self.patience, clip_norm=self.clip_norm)

    def describe(self) -> dict:
        return {
            "route_name": self.route_name,
            "out_dir": str(self.out_dir),
            "dataset": str(self.dataset) if self.dataset else None,
            "method": self.method.value if self.method else None,
            "hyperparams": self.hp.to_dict(),
            "max_epochs": self.max_epochs,
            "patience": self.patience,
            "clip_norm": self.clip_norm,
            "train_end": self.train_end.isoformat() if self.train_end else None,
            "val_end": self.val_end.isoformat() if self.val_end else None,
            "seed": self.seed,
            "eval_seeds": self.eval_seeds,
        }


def _merge(args: argparse.Namespace) -> RunConfig:
    file_values = parse_config_file(args.config) if args.config else {}
    knobs = fields(RunConfig)
    names = {f.name for f in knobs}
    for key in file_values:
        if key not in names:
            raise BuscastError(f"{args.config}: unknown config key {key!r}")
    values = {}
    for f in knobs:
        flag_value = getattr(args, f.name, None)
        if flag_value is not None:
            values[f.name] = _convert(f.metadata["flag"], f.metadata["parse"], flag_value)
        elif f.name in file_values:
            values[f.name] = _convert(f"config key {f.name!r}", f.metadata["parse"], file_values[f.name])
    return RunConfig(**values)


def _load_dataset(cfg: RunConfig) -> RouteDataset:
    if cfg.dataset is None:
        raise BuscastError("no cached dataset given; run 'buscast ingest' first and pass --dataset")
    return RouteDataset.load(cfg.dataset)


def _boundaries(cfg: RunConfig, dataset: RouteDataset) -> tuple[date, date]:
    """Configured split boundaries, or an 80/10/10 split over distinct dates."""
    if cfg.train_end and cfg.val_end:
        return cfg.train_end, cfg.val_end
    dates = dataset.dates()
    if len(dates) < 3:
        raise BadBoundaries("dataset spans fewer than three dates; pass --train-end/--val-end")
    b1 = dates[max(0, int(len(dates) * 0.8) - 1)]
    b2 = dates[max(0, int(len(dates) * 0.9) - 1)]
    if not b1 < b2 < dates[-1]:
        raise BadBoundaries("default 80/10/10 split failed; pass --train-end/--val-end")
    return b1, b2


def _echo_config(cfg: RunConfig, fmt: str) -> None:
    if fmt == "text":
        print(f"config: {json.dumps(cfg.describe(), sort_keys=True)}")


def _load_checked(path: Path, dataset: RouteDataset) -> LoadedModel:
    """Load a checkpoint and check its stop count, services per day and feature dimension against the dataset."""
    lm = load_model(path)
    expected_dim = method_spec(lm.method, dataset.services_per_day).features.dimension
    for what, trained, given in (
        ("n_stops", lm.n_stops, dataset.n_stops),
        ("services_per_day", lm.spec.features.services_per_day, dataset.services_per_day),
        *(("feature dimension", m.model.input_size, expected_dim) for m in lm.forecaster.members),
    ):
        if trained != given:
            raise CheckpointError(f"{path}: checkpoint has {what} {trained}, dataset has {given}")
    return lm


# ---------------------------------------------------------------------------
# commands


def cmd_synth(args: argparse.Namespace, cfg: RunConfig) -> int:
    config = synth.SynthConfig(**{f.name: getattr(cfg, f.name) for f in fields(synth.SynthConfig)})
    ridership_path, weather_path = synth.write_synthetic_csvs(config, cfg.out_dir)
    summary = {
        "ridership_csv": str(ridership_path),
        "weather_csv": str(weather_path),
        "days": cfg.n_days,
        "n_stops": cfg.n_stops,
        "services_per_day": cfg.services_per_day,
        "seed": cfg.seed,
    }
    if args.format == "json":
        print(json.dumps(summary, sort_keys=True))
    else:
        _echo_config(cfg, args.format)
        print(f"wrote {ridership_path} and {weather_path}")
    return 0


def cmd_ingest(args: argparse.Namespace, cfg: RunConfig) -> int:
    if cfg.ridership_csv is None or cfg.weather_csv is None:
        raise BuscastError("ingest needs --ridership and --weather CSV paths")
    records = data_ingest.parse_ridership_csv(cfg.ridership_csv, cfg.ridership_columns)
    observations = data_ingest.parse_weather_csv(cfg.weather_csv, cfg.category_aliases)
    service_weather = data_ingest.join_weather_to_services(records, observations, cfg.timetable)
    dataset = data_ingest.build_route_dataset(records, service_weather, cfg.n_stops, cfg.services_per_day)
    cfg.out_dir.mkdir(parents=True, exist_ok=True)
    cache_path = cfg.out_dir / "dataset.json"
    dataset.save(cache_path)

    rain_hours = int(observations.rain.sum())
    observed, complete = dataset.mask.any(-1), dataset.complete
    lo, hi = dataset.date_range()
    summary = {
        "records": len(records),
        "services": int(observed.sum()),
        "complete_services": int(complete.sum()),
        "incomplete_services": int((observed & ~complete).sum()),
        "date_range": [lo.isoformat(), hi.isoformat()],
        "hourly_observations": len(observations),
        "rain_observations": rain_hours,
        "no_rain_observations": len(observations) - rain_hours,
        "dataset": str(cache_path),
    }
    if args.format == "json":
        print(json.dumps(summary, sort_keys=True))
    else:
        _echo_config(cfg, args.format)
        print(f"records: {summary['records']}")
        print(f"services: {summary['services']} ({summary['incomplete_services']} incomplete)")
        print(f"date range: {lo.isoformat()} .. {hi.isoformat()}")
        print(
            f"hourly weather: {summary['rain_observations']} rain / "
            f"{summary['no_rain_observations']} no rain"
        )
        print(f"cached dataset: {cache_path}")
    return 0


def cmd_correlate(args: argparse.Namespace, cfg: RunConfig) -> int:
    dataset = _load_dataset(cfg)
    if args.start or args.end:
        lo, hi = dataset.date_range()
        start = _convert("--start", date.fromisoformat, args.start) if args.start else lo
        end = _convert("--end", date.fromisoformat, args.end) if args.end else hi
        dataset = dataset.subset_by_dates(start, end)
    matrix = correlation_matrix(dataset)
    cfg.out_dir.mkdir(parents=True, exist_ok=True)
    out_path = cfg.out_dir / "correlation.csv"
    matrix.to_csv(out_path)
    if args.format == "json":
        # an undefined coefficient (a stop whose counts do not vary) is null, as JSON has no NaN
        cells = [[None if math.isnan(v) else v for v in row] for row in matrix.values.tolist()]
        print(json.dumps({"matrix": cells, "path": str(out_path)}, allow_nan=False))
    else:
        _echo_config(cfg, args.format)
        for row in matrix.values:
            print("  ".join(f"{v:7.4f}" for v in row))
        print(f"wrote {out_path}")
    return 0


def _train_one_method(cfg: RunConfig, dataset: RouteDataset, method: MethodId) -> dict:
    spec = method_spec(method, dataset.services_per_day)
    boundaries = _boundaries(cfg, dataset)
    prepared = prepare_windows(dataset, boundaries, spec.features, cfg.hp.sequence_length)
    forecaster, histories = fit_forecaster(spec, cfg.hp, prepared, cfg.seed, cfg.schedule())
    cfg.out_dir.mkdir(parents=True, exist_ok=True)
    ckpt = cfg.out_dir / f"{method.value}.ckpt"
    save_model(
        ckpt, forecaster, method=method, look_back=cfg.hp.sequence_length,
        n_stops=dataset.n_stops, services_per_day=dataset.services_per_day,
    )
    written = [str(ckpt)]
    best = 0.0
    for label, history in histories.items():
        history_path = cfg.out_dir / f"{label}_history.csv"
        history.write_csv(history_path)
        written.append(str(history_path))
        best += history.best_val_loss / len(histories)
    return {"written": written, "best_val_loss": best, "boundaries": [b.isoformat() for b in boundaries]}


def cmd_train(args: argparse.Namespace, cfg: RunConfig) -> int:
    if cfg.method is None or cfg.method not in TRAINABLE_METHODS:
        raise BuscastError(
            "train needs --method one of a, b, c, d, perstop (statistical fits at evaluate time)"
        )
    dataset = _load_dataset(cfg)
    result = _train_one_method(cfg, dataset, cfg.method)
    if args.format == "json":
        print(json.dumps(result, sort_keys=True))
    else:
        _echo_config(cfg, args.format)
        for path in result["written"]:
            print(f"wrote {path}")
        print(f"best validation loss: {result['best_val_loss']:.6f}")
    return 0


class SpilledStates:
    """The training states of Hyperband trials that may yet be promoted, one file each.

    A trial's state is held in memory until :func:`run_hyperband` keeps it
    (written to a file) or the next trial starts. The files go to a
    temporary directory under ``out_dir``, made at the first kept state; a
    file is deleted when its trial is dropped or resumed, and the directory
    when the search ends, on success or error (:meth:`close`).
    """

    def __init__(self, out_dir: Path):
        self._out_dir = out_dir
        self._dir: Path | None = None
        self._files: dict[tuple[HyperParams, int], Path] = {}
        self._written = 0
        self._held: tuple[tuple[HyperParams, int], TrainState] | None = None

    def resume(self, hp: HyperParams, seed: int) -> TrainState:
        """The state (hp, seed)'s last rung left, its file deleted, or a fresh one; forgets any held state."""
        self._held = None
        path = self._files.pop((hp, seed), None)
        if path is None:
            return TrainState()
        try:
            return load_train_state(path, hp)
        finally:
            path.unlink()

    def hold(self, hp: HyperParams, seed: int, state: TrainState) -> None:
        self._held = ((hp, seed), state)

    def keep(self, hp: HyperParams, seed: int) -> None:
        if self._held is None or self._held[0] != (hp, seed):
            return  # the trial left no state: its config was infeasible or diverged
        if self._dir is None:
            self._out_dir.mkdir(parents=True, exist_ok=True)
            self._dir = Path(tempfile.mkdtemp(prefix="tune-states-", dir=self._out_dir))
        path = self._dir / f"{self._written}.state"
        self._written += 1
        save_train_state(path, self._held[1])
        self._files[(hp, seed)] = path
        self._held = None

    def drop(self, hp: HyperParams, seed: int) -> None:
        path = self._files.pop((hp, seed), None)
        if path is not None:
            path.unlink()

    def close(self) -> None:
        self._held = None
        if self._dir is not None:
            shutil.rmtree(self._dir, ignore_errors=True)


def cmd_tune(args: argparse.Namespace, cfg: RunConfig) -> int:
    if cfg.method is None or cfg.method not in TRAINABLE_METHODS:
        raise BuscastError("tune needs --method one of a, b, c, d, perstop")
    dataset = _load_dataset(cfg)
    spec = method_spec(cfg.method, dataset.services_per_day)
    boundaries = _boundaries(cfg, dataset)
    schedule = make_schedule(cfg.tune_max_resource, cfg.tune_eta)
    grid = cfg.grid
    stop_col = (args.stop - 1) if spec.architecture is Architecture.PER_STOP else None
    if stop_col is not None and not 1 <= args.stop <= dataset.n_stops:
        n = dataset.n_stops
        raise BuscastError(f"--stop must be in 1..{n} (the dataset has {n} stops), got {args.stop}")

    window_cache: dict[int, object] = {}
    states = SpilledStates(cfg.out_dir)

    def trial(hp: HyperParams, epochs: int, seed: int) -> float:
        state = states.resume(hp, seed)
        if hp.sequence_length not in window_cache:
            try:
                window_cache[hp.sequence_length] = prepare_windows(
                    dataset, boundaries, spec.features, hp.sequence_length
                )
            except TooShort:
                window_cache[hp.sequence_length] = None
        prepared = window_cache[hp.sequence_length]
        if prepared is None:
            # look-back longer than a split: infeasible config, not an error
            return float("inf")
        train_scaled = scale_targets(prepared.train, prepared.scalers)
        val_scaled = scale_targets(prepared.val, prepared.scalers)
        if stop_col is not None:
            train_scaled = stop_view(train_scaled, slice(stop_col, stop_col + 1))
            val_scaled = stop_view(val_scaled, slice(stop_col, stop_col + 1))
        model = build_model(spec, hp, dataset.n_stops, seed)
        # Patience equal to the budget never fires, so going on from the state
        # of the previous rung's budget equals training this one from scratch.
        trial_schedule = TrainSchedule(
            max_epochs=epochs, patience=max(epochs, 1), clip_norm=cfg.clip_norm
        )
        history = train(model, train_scaled, val_scaled, hp, trial_schedule, seed + 1, state)
        states.hold(hp, seed, state)
        return history.best_val_loss

    rng = np.random.default_rng(cfg.seed)
    try:
        result = run_hyperband(trial, schedule, rng, grid, states=states)
    finally:
        states.close()
    cfg.out_dir.mkdir(parents=True, exist_ok=True)
    suffix = cfg.method.value if stop_col is None else f"{cfg.method.value}_stop{args.stop}"
    report_path = cfg.out_dir / f"tuning_{suffix}.csv"
    best_path = cfg.out_dir / f"best_{suffix}.json"
    write_tuning_report(result, report_path)
    best_path.write_text(
        json.dumps({"hyperparams": result.best.to_dict(), "val_loss": result.best_loss,
                    "seed": result.best_seed}, indent=2, sort_keys=True),
        encoding="utf-8",
    )
    summary = {
        "trials": len(result.trials),
        "best": result.best.to_dict(),
        "best_val_loss": result.best_loss,
        "report": str(report_path),
        "best_file": str(best_path),
    }
    if args.format == "json":
        print(json.dumps(summary, sort_keys=True))
    else:
        _echo_config(cfg, args.format)
        print(f"ran {summary['trials']} trials; best val loss {result.best_loss:.6f}")
        print(f"best config: {result.best.to_dict()}")
        print(f"wrote {report_path} and {best_path}")
    return 0


def _load_fitted(
    cfg: RunConfig, dataset: RouteDataset, boundaries: tuple[date, date], methods: list[MethodId]
) -> dict[MethodId, FittedMethod]:
    """Each method's checkpoint, and its test split windowed with the checkpoint's scalers."""
    _, _, test_ds = features.chronological_split(dataset, boundaries)
    fitted = {}
    for method in methods:
        path = cfg.out_dir / f"{method.value}.ckpt"
        if not path.exists():
            raise MissingModel(f"method {method.value!r}: no checkpoint at {path}")
        lm = _load_checked(path, dataset)
        test = encode_windows(test_ds, lm.spec.features, lm.forecaster.scalers, lm.look_back)
        fitted[method] = FittedMethod(test, (lm.forecaster,))
    return fitted


def cmd_evaluate(args: argparse.Namespace, cfg: RunConfig) -> int:
    dataset = _load_dataset(cfg)
    try:
        methods = [MethodId(m.strip().lower()) for m in args.methods.split(",") if m.strip()]
    except ValueError as exc:
        raise BuscastError(f"unknown method in --methods: {exc}") from None
    if not methods:
        raise BuscastError("evaluate needs --methods, e.g. --methods a,d,perstop,statistical")

    boundaries = _boundaries(cfg, dataset)
    trained = [m for m in methods if m in TRAINABLE_METHODS]
    if args.retrain:
        seeds = [cfg.seed + i for i in range(cfg.eval_seeds)]
        fitted = fit_methods(dataset, boundaries, {m: cfg.hp for m in trained}, seeds, cfg.schedule())
    else:
        fitted = _load_fitted(cfg, dataset, boundaries, trained)
    report = evaluate_methods(
        dataset, boundaries, {m: fitted.get(m) for m in methods}, (cfg.stat_start, cfg.stat_end),
        cfg.hp.sequence_length, progress=(print if args.format == "text" else None),
    )

    reference = MethodId.PER_STOP if MethodId.PER_STOP in report.methods else None
    paths = emit_report(report, cfg.out_dir, reference)
    if args.format == "json":
        print(report.to_json())
    elif args.format == "csv":
        sys.stdout.write(Path(paths["csv"]).read_text(encoding="utf-8"))
    else:
        _echo_config(cfg, args.format)
        header = ["method"] + [f"stop{i}" for i in report.stops] + ["mean"]
        print("  ".join(f"{h:>12}" for h in header))
        for method, result in report.methods.items():
            row = [method.value] + [f"{v:.3f}" for v in result.per_stop] + [f"{result.mean:.3f}"]
            print("  ".join(f"{c:>12}" for c in row))
        if reference is not None:
            imp = improvement_report(report, reference)
            for method, gains in imp.per_method.items():
                if method is reference:
                    continue
                print(
                    f"improvement of {method.value} vs {reference.value}: "
                    + ", ".join(f"{g:.1f}%" for g in gains)
                    + f" (mean {imp.mean_per_method[method]:.1f}%)"
                )
    # path echo stays on stdout for scripting unless it would corrupt the output
    sink = sys.stdout if args.format == "text" else sys.stderr
    for path in paths.values():
        print(f"wrote {path}", file=sink)
    return 0


def cmd_predict(args: argparse.Namespace, cfg: RunConfig) -> int:
    dataset = _load_dataset(cfg)
    model_path = Path(args.model)
    if not model_path.is_file():
        raise MissingModel(f"no checkpoint file at {model_path}")
    lm = _load_checked(model_path, dataset)

    # The trailing run of complete services over the flat (day, service) slots.
    look_back = lm.look_back
    complete = dataset.complete.ravel()
    end = int(np.flatnonzero(complete)[-1]) + 1 if complete.any() else 0
    gaps = np.flatnonzero(~complete[:end])
    run = end - (int(gaps[-1]) + 1 if gaps.size else 0)
    if run < look_back:
        raise InsufficientHistory(f"need {look_back} consecutive complete services, trailing run has {run}")
    # Encode only the days holding the last L services of the run.
    services = dataset.services_per_day
    tail = dataset.subset_by_dates(
        *(dataset.first_date + timedelta(days=slot // services) for slot in (end - look_back, end - 1))
    )
    history = [
        encode_stop(tail, stop, lm.spec.features, lm.forecaster.scalers).rows[-look_back:]
        for stop in range(1, dataset.n_stops + 1)
    ]
    target = dataset.first_slot + end
    predictions = predict_next_service(lm.forecaster, history, look_back, target)
    predicted_date, predicted_service = service_key(target, services)
    payload = {
        "predicted_date": predicted_date.isoformat(),
        "predicted_service_index": predicted_service,
        "predictions": {str(stop): predictions[stop - 1] for stop in range(1, dataset.n_stops + 1)},
    }
    print(json.dumps(payload, sort_keys=True))
    return 0


# ---------------------------------------------------------------------------
# argument parsing


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="buscast", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    commands = {}
    for name, fn, summary in (
        ("synth", cmd_synth, "generate synthetic ridership and weather CSVs"),
        ("ingest", cmd_ingest, "parse CSVs, join weather, cache the dataset"),
        ("correlate", cmd_correlate, "per-stop ridership correlation matrix"),
        ("train", cmd_train, "train a method on the cached dataset"),
        ("tune", cmd_tune, "tune a method on the cached dataset"),
        ("evaluate", cmd_evaluate, "score methods on the held-out test split"),
        ("predict", cmd_predict, "predict the next service's per-stop ridership"),
    ):
        p = commands[name] = sub.add_parser(name, help=summary)
        p.add_argument("--config", help="plain-text key = value config file")
        p.add_argument("--format", choices=("text", "json", "csv"), default="text")
        for f in fields(RunConfig):
            if name in f.metadata["commands"]:
                p.add_argument(f.metadata["flag"], dest=f.name, help=f.metadata["help"])
        p.set_defaults(fn=fn)

    commands["correlate"].add_argument("--start", help="restrict to dates >= this (ISO)")
    commands["correlate"].add_argument("--end", help="restrict to dates <= this (ISO)")
    commands["tune"].add_argument("--stop", type=int, default=1, help="stop index to tune for the per-stop method")
    p = commands["evaluate"]
    p.add_argument("--methods", default="a,b,c,d,perstop,statistical")
    p.add_argument("--retrain", action="store_true",
                   help="train in-process over --seeds seeds instead of loading checkpoints")
    commands["predict"].add_argument("--model", required=True, help="checkpoint file written by 'train'")
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args, _merge(args))
    except (BuscastError, OSError) as exc:
        print(f"error [{args.command}]: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
