"""Command-line entry point.

Subcommands: synth | ingest | correlate | train | tune | evaluate | predict.
Options can come from a plain-text ``key = value`` config file (--config)
and are overridden by command-line flags. Every run prints its effective
configuration, and every command is deterministic given config + seed.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass, field
from datetime import date
from pathlib import Path

import numpy as np

from . import data_ingest, features, synth
from .data_ingest import DEFAULT_TIMETABLE, RouteDataset, timetable_from_strings
from .errors import BadBoundaries, BuscastError, InsufficientHistory, MissingModel, TooShort
from .evaluation import (
    EvalReport,
    MethodResult,
    correlation_matrix,
    emit_report,
    evaluate_method,
    evaluate_methods,
    improvement_report,
)
from .features import (
    encode_stop,
    encode_windows,
    prepare_windows,
    scale_targets,
    single_stop_view,
    subset_by_targets,
)
from .models import (
    Architecture,
    LoadedModel,
    MethodId,
    TrainSchedule,
    build_model,
    fit_statistical,
    load_model,
    method_spec,
    predict_next_service,
    save_model,
    train,
)
from .nn_core import SUPPORTED_OPTIMIZERS, OptimizerKind
from .tuning import CandidateGrid, HyperParams, make_schedule, run_hyperband, write_tuning_report

TRAINABLE_METHODS = (MethodId.A, MethodId.B, MethodId.C, MethodId.D, MethodId.PER_STOP)


def parse_config_file(path: str | Path) -> dict[str, str]:
    """Plain-text ``key = value`` lines; ``#`` starts a comment."""
    values: dict[str, str] = {}
    for lineno, raw in enumerate(Path(path).read_text(encoding="utf-8").splitlines(), start=1):
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


def _parse_optimizer(raw: str) -> OptimizerKind:
    name = raw.strip().lower()
    for kind in SUPPORTED_OPTIMIZERS:
        if kind.value == name:
            return kind
    supported = ", ".join(k.value for k in SUPPORTED_OPTIMIZERS)
    raise BuscastError(f"unsupported optimizer {raw!r}; expected one of {supported}")


@dataclass
class RunConfig:
    """Effective settings for one CLI run (config file merged with flags)."""

    route_name: str = "route"
    ridership_csv: Path | None = None
    weather_csv: Path | None = None
    out_dir: Path = Path("out")
    dataset_path: Path | None = None
    n_stops: int = 5
    services_per_day: int = 26
    timetable: dict = field(default_factory=lambda: dict(DEFAULT_TIMETABLE))
    category_aliases: dict = field(default_factory=dict)
    ridership_columns: dict = field(default_factory=dict)
    train_end: date | None = None
    val_end: date | None = None
    method: MethodId | None = None
    hp: HyperParams = HyperParams(16, 26, 64, 1, 0.001, OptimizerKind.ADAM)
    max_epochs: int = 200
    patience: int = 10
    clip_norm: float | None = 5.0
    seed: int = 0
    eval_seeds: int = 5
    tune_max_resource: int = 27
    tune_eta: int = 3
    grid: CandidateGrid = CandidateGrid()
    stat_start: date | None = None
    stat_end: date | None = None

    def schedule(self) -> TrainSchedule:
        return TrainSchedule(max_epochs=self.max_epochs, patience=self.patience, clip_norm=self.clip_norm)

    def describe(self) -> dict:
        return {
            "route_name": self.route_name,
            "out_dir": str(self.out_dir),
            "dataset": str(self.dataset_path) if self.dataset_path else None,
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
    cfg = RunConfig()
    file_values = parse_config_file(args.config) if getattr(args, "config", None) else {}

    def pick(flag_name: str, key: str, convert, default):
        flag = getattr(args, flag_name, None)
        if flag is not None:
            return convert(str(flag))
        if key in file_values:
            return convert(file_values[key])
        return default

    as_int = int
    as_float = float
    as_date = date.fromisoformat
    as_path = Path

    cfg.route_name = pick("route_name", "route_name", str, "route")
    cfg.ridership_csv = pick("ridership", "ridership_csv", as_path, None)
    cfg.weather_csv = pick("weather", "weather_csv", as_path, None)
    cfg.out_dir = pick("out", "out_dir", as_path, Path("out"))
    cfg.dataset_path = pick("dataset", "dataset", as_path, None)
    cfg.n_stops = pick("n_stops", "n_stops", as_int, 5)
    cfg.services_per_day = pick("services", "services_per_day", as_int, 26)
    if "timetable" in file_values:
        cfg.timetable = timetable_from_strings(file_values["timetable"].split(","))
    if "category_aliases" in file_values:
        cfg.category_aliases = _parse_pairs(file_values["category_aliases"])
    if "ridership_columns" in file_values:
        cfg.ridership_columns = _parse_pairs(file_values["ridership_columns"])
    cfg.train_end = pick("train_end", "train_end", as_date, None)
    cfg.val_end = pick("val_end", "val_end", as_date, None)
    method_raw = pick("method", "method", str, None)
    try:
        cfg.method = MethodId(method_raw.lower()) if method_raw else None
    except ValueError:
        raise BuscastError(
            f"unknown method {method_raw!r}; expected a, b, c, d, perstop, or statistical"
        ) from None
    optimizer = _parse_optimizer(pick("optimizer", "optimizer", str, "adam"))
    cfg.hp = HyperParams(
        batch_size=pick("batch_size", "batch_size", as_int, 16),
        sequence_length=pick("sequence_length", "sequence_length", as_int, 26),
        lstm_nodes=pick("lstm_nodes", "lstm_nodes", as_int, 64),
        n_layers=pick("n_layers", "n_layers", as_int, 1),
        learning_rate=pick("learning_rate", "learning_rate", as_float, 0.001),
        optimizer=optimizer,
    )
    cfg.max_epochs = pick("max_epochs", "max_epochs", as_int, 200)
    cfg.patience = pick("patience", "patience", as_int, 10)
    clip_raw = pick("clip_norm", "clip_norm", str, "5.0")
    cfg.clip_norm = None if str(clip_raw).lower() == "none" else float(clip_raw)
    cfg.seed = pick("seed", "seed", as_int, 0)
    cfg.eval_seeds = pick("seeds", "eval_seeds", as_int, 5)
    cfg.tune_max_resource = pick("max_resource", "tune_max_resource", as_int, 27)
    cfg.tune_eta = pick("eta", "tune_eta", as_int, 3)
    cfg.stat_start = pick("stat_start", "stat_start", as_date, None)
    cfg.stat_end = pick("stat_end", "stat_end", as_date, None)

    def int_list(key, default):
        if key in file_values:
            return tuple(int(v) for v in file_values[key].split(","))
        return default

    grid = CandidateGrid()
    cfg.grid = CandidateGrid(
        batch_sizes=int_list("tune_batch_sizes", grid.batch_sizes),
        sequence_lengths=int_list("tune_sequence_lengths", grid.sequence_lengths),
        lstm_nodes=int_list("tune_lstm_nodes", grid.lstm_nodes),
        n_layers=int_list("tune_n_layers", grid.n_layers),
        learning_rates=(
            tuple(float(v) for v in file_values["tune_learning_rates"].split(","))
            if "tune_learning_rates" in file_values
            else grid.learning_rates
        ),
        optimizers=(
            tuple(_parse_optimizer(v) for v in file_values["tune_optimizers"].split(","))
            if "tune_optimizers" in file_values
            else grid.optimizers
        ),
    )
    return cfg


def _load_dataset(cfg: RunConfig) -> RouteDataset:
    if cfg.dataset_path is None:
        raise BuscastError("no cached dataset given; run 'buscast ingest' first and pass --dataset")
    return RouteDataset.load(cfg.dataset_path)


def _boundaries(cfg: RunConfig, dataset: RouteDataset) -> tuple[date, date]:
    """Configured split boundaries, or an 80/10/10 split over distinct dates."""
    if cfg.train_end and cfg.val_end:
        return cfg.train_end, cfg.val_end
    dates = sorted({r.service_date for r in dataset.records})
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


def _checkpoint_paths(cfg: RunConfig, method: MethodId, n_stops: int) -> list[Path]:
    if method is MethodId.PER_STOP:
        return [cfg.out_dir / f"perstop_stop{b}.ckpt" for b in range(1, n_stops + 1)]
    return [cfg.out_dir / f"{method.value}.ckpt"]


# ---------------------------------------------------------------------------
# commands


def cmd_synth(args: argparse.Namespace) -> int:
    cfg = _merge(args)
    config = synth.SynthConfig(
        n_days=args.days,
        n_stops=cfg.n_stops,
        services_per_day=cfg.services_per_day,
        seed=cfg.seed,
        start_date=date.fromisoformat(args.start_date),
        rain_probability=args.rain_prob,
        rain_effect=args.rain_effect,
        weekend_effect=args.weekend_effect,
        latent_weight=args.latent_weight,
        noise_scale=args.noise,
        timetable=cfg.timetable,
    )
    ridership_path, weather_path = synth.write_synthetic_csvs(config, cfg.out_dir)
    summary = {
        "ridership_csv": str(ridership_path),
        "weather_csv": str(weather_path),
        "days": args.days,
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


def cmd_ingest(args: argparse.Namespace) -> int:
    cfg = _merge(args)
    if cfg.ridership_csv is None or cfg.weather_csv is None:
        raise BuscastError("ingest needs --ridership and --weather CSV paths")
    records = data_ingest.parse_ridership_csv(cfg.ridership_csv, cfg.ridership_columns)
    observations = data_ingest.parse_weather_csv(cfg.weather_csv, cfg.category_aliases)
    service_weather = data_ingest.join_weather_to_services(records, observations, cfg.timetable)
    dataset = data_ingest.build_route_dataset(
        records, service_weather, cfg.n_stops, cfg.services_per_day, cfg.timetable
    )
    cfg.out_dir.mkdir(parents=True, exist_ok=True)
    cache_path = cfg.out_dir / "dataset.json"
    dataset.save(cache_path)

    rain_hours = sum(1 for o in observations if data_ingest.binarize_weather(o)[0])
    lo, hi = dataset.date_range()
    summary = {
        "records": len(records),
        "services": len(dataset.complete_services) + len(dataset.incomplete_services),
        "complete_services": len(dataset.complete_services),
        "incomplete_services": len(dataset.incomplete_services),
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


def cmd_correlate(args: argparse.Namespace) -> int:
    cfg = _merge(args)
    dataset = _load_dataset(cfg)
    if args.start or args.end:
        lo, hi = dataset.date_range()
        start = date.fromisoformat(args.start) if args.start else lo
        end = date.fromisoformat(args.end) if args.end else hi
        dataset = dataset.subset_by_dates(start, end)
    matrix = correlation_matrix(dataset)
    cfg.out_dir.mkdir(parents=True, exist_ok=True)
    out_path = cfg.out_dir / "correlation.csv"
    matrix.to_csv(out_path)
    if args.format == "json":
        print(json.dumps({"matrix": matrix.values.tolist(), "path": str(out_path)}))
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
    train_scaled = scale_targets(prepared.train, prepared.scalers)
    val_scaled = scale_targets(prepared.val, prepared.scalers)
    cfg.out_dir.mkdir(parents=True, exist_ok=True)
    written: list[str] = []

    common = dict(
        hp=cfg.hp,
        scalers=prepared.scalers,
        look_back=cfg.hp.sequence_length,
        n_stops=dataset.n_stops,
        services_per_day=dataset.services_per_day,
    )
    if spec.architecture is Architecture.JOINT:
        model = build_model(spec, cfg.hp, dataset.n_stops, cfg.seed)
        history = train(model, train_scaled, val_scaled, cfg.hp, cfg.schedule(), cfg.seed + 1)
        ckpt = cfg.out_dir / f"{method.value}.ckpt"
        save_model(ckpt, model, method=method, seed=cfg.seed, **common)
        history_path = cfg.out_dir / f"{method.value}_history.csv"
        history.write_csv(history_path)
        written += [str(ckpt), str(history_path)]
        best = history.best_val_loss
    else:
        best = 0.0
        for b in range(dataset.n_stops):
            sub_train = single_stop_view(train_scaled, b)
            sub_val = single_stop_view(val_scaled, b)
            seed = cfg.seed * dataset.n_stops + b
            model = build_model(spec, cfg.hp, dataset.n_stops, seed)
            history = train(model, sub_train, sub_val, cfg.hp, cfg.schedule(), seed + 1)
            ckpt = cfg.out_dir / f"perstop_stop{b + 1}.ckpt"
            save_model(ckpt, model, method=method, seed=seed, stop_index=b + 1, **common)
            history_path = cfg.out_dir / f"perstop_stop{b + 1}_history.csv"
            history.write_csv(history_path)
            written += [str(ckpt), str(history_path)]
            best += history.best_val_loss / dataset.n_stops
    return {"written": written, "best_val_loss": best, "boundaries": [b.isoformat() for b in boundaries]}



def cmd_train(args: argparse.Namespace) -> int:
    cfg = _merge(args)
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


def cmd_tune(args: argparse.Namespace) -> int:
    cfg = _merge(args)
    if cfg.method is None or cfg.method not in TRAINABLE_METHODS:
        raise BuscastError("tune needs --method one of a, b, c, d, perstop")
    dataset = _load_dataset(cfg)
    spec = method_spec(cfg.method, dataset.services_per_day)
    boundaries = _boundaries(cfg, dataset)
    schedule = make_schedule(cfg.tune_max_resource, cfg.tune_eta)
    grid = cfg.grid
    stop_col = (args.stop - 1) if spec.architecture is Architecture.PER_STOP else None

    window_cache: dict[int, object] = {}

    def trial(hp: HyperParams, epochs: int, seed: int) -> float:
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
            train_scaled = single_stop_view(train_scaled, stop_col)
            val_scaled = single_stop_view(val_scaled, stop_col)
        model = build_model(spec, hp, dataset.n_stops, seed)
        trial_schedule = TrainSchedule(
            max_epochs=epochs, patience=max(epochs, 1), clip_norm=cfg.clip_norm
        )
        history = train(model, train_scaled, val_scaled, hp, trial_schedule, seed + 1)
        return history.best_val_loss

    rng = np.random.default_rng(cfg.seed)
    result = run_hyperband(trial, schedule, rng, grid)
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


def _evaluate_from_checkpoints(cfg: RunConfig, dataset: RouteDataset, methods: list[MethodId]) -> EvalReport:
    boundaries = _boundaries(cfg, dataset)
    _, _, test_ds = features.chronological_split(dataset, boundaries)

    artifacts: dict[MethodId, tuple] = {}
    windows: dict[MethodId, object] = {}
    for method in methods:
        spec = method_spec(method, dataset.services_per_day)
        if spec.architecture is Architecture.NONE:
            continue
        paths = _checkpoint_paths(cfg, method, dataset.n_stops)
        missing = [p for p in paths if not p.exists()]
        if missing:
            raise MissingModel(f"method {method.value!r}: no checkpoint at {missing[0]}")
        loaded: list[LoadedModel] = [load_model(p) for p in paths]
        lm = loaded[0]
        artifact = lm.model if spec.architecture is Architecture.JOINT else [l.model for l in loaded]
        artifacts[method] = (spec, artifact, lm.scalers)
        windows[method] = encode_windows(test_ds, lm.spec.features, lm.scalers, lm.look_back)

    if windows:
        common = set(next(iter(windows.values())).index_map)
        for w in windows.values():
            common &= set(w.index_map)
    else:
        spec = method_spec(MethodId.A, dataset.services_per_day)
        prepared = prepare_windows(dataset, boundaries, spec.features, cfg.hp.sequence_length)
        windows[MethodId.A] = prepared.test
        common = set(prepared.test.index_map)

    results = {}
    for method in methods:
        spec = method_spec(method, dataset.services_per_day)
        if spec.architecture is Architecture.NONE:
            window = (
                cfg.stat_start or dataset.date_range()[0],
                cfg.stat_end or boundaries[1],
            )
            baseline = fit_statistical(dataset, window)
            test = subset_by_targets(next(iter(windows.values())), common)
            per_stop = evaluate_method(spec, baseline, test, None)
        else:
            spec_, artifact, scalers = artifacts[method]
            test = subset_by_targets(windows[method], common)
            per_stop = evaluate_method(spec_, artifact, test, scalers)
        results[method] = MethodResult(per_stop=tuple(per_stop))
    return EvalReport(stops=tuple(range(1, dataset.n_stops + 1)), methods=results)


def cmd_evaluate(args: argparse.Namespace) -> int:
    cfg = _merge(args)
    dataset = _load_dataset(cfg)
    try:
        methods = [MethodId(m.strip().lower()) for m in args.methods.split(",") if m.strip()]
    except ValueError as exc:
        raise BuscastError(f"unknown method in --methods: {exc}") from None
    if not methods:
        raise BuscastError("evaluate needs --methods, e.g. --methods a,d,perstop,statistical")

    if args.retrain:
        boundaries = _boundaries(cfg, dataset)
        seeds = [cfg.seed + i for i in range(cfg.eval_seeds)]
        hps = {m: (None if m is MethodId.STATISTICAL else cfg.hp) for m in methods}
        stat_window = None
        if cfg.stat_start and cfg.stat_end:
            stat_window = (cfg.stat_start, cfg.stat_end)
        report = evaluate_methods(
            dataset, boundaries, hps, seeds, cfg.schedule(), stat_window,
            progress=(print if args.format == "text" else None),
        )
    else:
        report = _evaluate_from_checkpoints(cfg, dataset, methods)

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


def cmd_predict(args: argparse.Namespace) -> int:
    cfg = _merge(args)
    dataset = _load_dataset(cfg)
    model_path = Path(args.model)
    if model_path.is_dir():
        paths = sorted(model_path.glob("perstop_stop*.ckpt"))
        if not paths:
            raise MissingModel(f"no per-stop checkpoints in {model_path}")
        loaded = [load_model(p) for p in paths]
        loaded.sort(key=lambda lm: lm.stop_index or 0)
        artifact = [lm.model for lm in loaded]
        lm = loaded[0]
    else:
        if not model_path.exists():
            raise MissingModel(f"no checkpoint at {model_path}")
        lm = load_model(model_path)
        artifact = lm.model

    look_back = lm.look_back
    spec = lm.spec
    history = []
    last_key = None
    for stop in range(1, dataset.n_stops + 1):
        matrix = encode_stop(dataset, stop, spec.features, lm.scalers)
        seg_start, seg_end = matrix.segments[-1]
        if seg_end - seg_start < look_back:
            raise InsufficientHistory(
                f"need {look_back} consecutive complete services, trailing run has {seg_end - seg_start}"
            )
        history.append(matrix.rows[seg_end - look_back : seg_end])
        last_key = matrix.keys[seg_end - 1]

    predictions = predict_next_service(artifact, history, lm.scalers, look_back)
    target = data_ingest.next_service_key(last_key, dataset.services_per_day)
    payload = {
        "predicted_date": target[0].isoformat(),
        "predicted_service_index": target[1],
        "predictions": {str(stop): predictions[stop - 1] for stop in range(1, dataset.n_stops + 1)},
    }
    print(json.dumps(payload, sort_keys=True))
    return 0


# ---------------------------------------------------------------------------
# argument parsing


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="plain-text key = value config file")
    parser.add_argument("--seed", type=int, help="master seed (default 0)")
    parser.add_argument("--out", help="output directory (default ./out)")
    parser.add_argument("--format", choices=("text", "json", "csv"), default="text")
    parser.add_argument("--dataset", help="cached dataset file from 'ingest'")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="buscast", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate synthetic ridership and weather CSVs")
    _add_common(p)
    p.add_argument("--days", type=int, default=60)
    p.add_argument("--n-stops", dest="n_stops", type=int)
    p.add_argument("--services", type=int)
    p.add_argument("--start-date", default="2021-10-01")
    p.add_argument("--rain-prob", type=float, default=0.25)
    p.add_argument("--rain-effect", type=float, default=-0.30)
    p.add_argument("--weekend-effect", type=float, default=-0.40)
    p.add_argument("--latent-weight", type=float, default=0.15)
    p.add_argument("--noise", type=float, default=1.0)
    p.set_defaults(fn=cmd_synth)

    p = sub.add_parser("ingest", help="parse CSVs, join weather, cache the dataset")
    _add_common(p)
    p.add_argument("--ridership", help="ridership CSV path")
    p.add_argument("--weather", help="weather CSV path")
    p.add_argument("--n-stops", dest="n_stops", type=int)
    p.add_argument("--services", type=int)
    p.set_defaults(fn=cmd_ingest)

    p = sub.add_parser("correlate", help="per-stop ridership correlation matrix")
    _add_common(p)
    p.add_argument("--start", help="restrict to dates >= this (ISO)")
    p.add_argument("--end", help="restrict to dates <= this (ISO)")
    p.set_defaults(fn=cmd_correlate)

    for name, fn in (("train", cmd_train), ("tune", cmd_tune)):
        p = sub.add_parser(name, help=f"{name} a method on the cached dataset")
        _add_common(p)
        p.add_argument("--method", help="a | b | c | d | perstop")
        p.add_argument("--train-end", dest="train_end", help="last training date (ISO)")
        p.add_argument("--val-end", dest="val_end", help="last validation date (ISO)")
        p.add_argument("--batch-size", dest="batch_size", type=int)
        p.add_argument("--sequence-length", dest="sequence_length", type=int)
        p.add_argument("--lstm-nodes", dest="lstm_nodes", type=int)
        p.add_argument("--n-layers", dest="n_layers", type=int)
        p.add_argument("--learning-rate", dest="learning_rate", type=float)
        p.add_argument("--optimizer", help="sgd | rmsprop | adam | nadam")
        p.add_argument("--max-epochs", dest="max_epochs", type=int)
        p.add_argument("--patience", type=int)
        p.add_argument("--clip-norm", dest="clip_norm", help="float, or 'none' to disable")
        if name == "tune":
            p.add_argument("--max-resource", dest="max_resource", type=int)
            p.add_argument("--eta", type=int)
            p.add_argument("--stop", type=int, default=1,
                           help="stop index to tune for the per-stop method")
        p.set_defaults(fn=fn)

    p = sub.add_parser("evaluate", help="score methods on the held-out test split")
    _add_common(p)
    p.add_argument("--methods", default="a,b,c,d,perstop,statistical")
    p.add_argument("--train-end", dest="train_end")
    p.add_argument("--val-end", dest="val_end")
    p.add_argument("--retrain", action="store_true",
                   help="train in-process over --seeds seeds instead of loading checkpoints")
    p.add_argument("--seeds", type=int, help="seed count for --retrain (default 5)")
    p.add_argument("--batch-size", dest="batch_size", type=int)
    p.add_argument("--sequence-length", dest="sequence_length", type=int)
    p.add_argument("--lstm-nodes", dest="lstm_nodes", type=int)
    p.add_argument("--n-layers", dest="n_layers", type=int)
    p.add_argument("--learning-rate", dest="learning_rate", type=float)
    p.add_argument("--optimizer")
    p.add_argument("--max-epochs", dest="max_epochs", type=int)
    p.add_argument("--patience", type=int)
    p.add_argument("--stat-start", dest="stat_start")
    p.add_argument("--stat-end", dest="stat_end")
    p.set_defaults(fn=cmd_evaluate)

    p = sub.add_parser("predict", help="predict the next service's per-stop ridership")
    _add_common(p)
    p.add_argument("--model", required=True, help="checkpoint file, or directory of per-stop checkpoints")
    p.set_defaults(fn=cmd_predict)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (BuscastError, OSError) as exc:
        print(f"error [{args.command}]: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
