"""The three workloads, run in-process through ``buscast.cli.main``.

Each workload synthesizes its route from the workload seed during set-up,
then repeats a pass (one closed-loop unit of work) until the run's time is
spent. The program itself always gets ``--seed 0``, so the seed only changes
the data and never the shapes, epoch counts or sampled tuning configs.

* ablation: ``evaluate --retrain`` of d, a, perstop and statistical on a
  120-day route (B=128, L=26, H=16, Adam lr 0.01, patience = max-epochs).
* tune: ``tune --method d`` with Hyperband R=9, eta=3 on four small routes
  in turn, grid restricted to L=26, B in {16,128}, H in {16,64}, layers in
  {1,2}. Which configs get promoted depends on the data, so one route would
  make the pass time swing with the seed.
* datapath: on a 365-day route, ``ingest``, ``prepare_windows`` for d at
  L=182, ``evaluate --methods d,statistical`` from a checkpoint trained in
  set-up, then a closed loop of ``predict`` calls.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import inspect
import io
import json
import math
import statistics
from datetime import date, timedelta
from pathlib import Path
from time import perf_counter

import numpy as np

from buscast import cli, data_ingest, evaluation, features, models

import spans

START = date(2021, 10, 1)
SETUP_REPEATS = 3
# Hyperband at R=9, eta=3 schedules 20 trials and 72 trial-epochs whatever the data.
TUNE_TRIALS, TUNE_EPOCHS = 20, 72

SIZES = {
    "full": {
        "ablation": {"days": 120, "epochs": 1},
        "tune": {"days": 6, "train_days": 2, "val_days": 2, "batch_sizes": "16,128", "lstm_nodes": "16,64",
                 "routes": 4},
        "datapath": {"days": 365, "look_back": 182, "predicts": 3, "ckpt_epochs": 1},
    },
    # The self-test size: the same commands and checks on smaller inputs and a
    # narrower tune grid, seconds instead of minutes.
    "tiny": {
        "ablation": {"days": 20, "epochs": 1},
        "tune": {"days": 6, "train_days": 2, "val_days": 2, "batch_sizes": "128", "lstm_nodes": "16",
                 "routes": 2},
        "datapath": {"days": 30, "look_back": 26, "predicts": 2, "ckpt_epochs": 1},
    },
}


class SetupFailed(RuntimeError):
    pass


class Op:
    """One attempted operation; it fails on a non-zero exit or on a failed check."""

    def __init__(self, label: str):
        self.label = label
        self.ok = True
        self.out = ""
        self.seconds = 0.0


class Runner:
    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.tracer: spans.Tracer | None = None

    def _fail(self, op: Op, why: str) -> None:
        if op.ok:
            op.ok = False
            self.failed += 1
        self.failures.append(f"{op.label}: {why}")

    def check(self, op: Op, cond: bool, why: str) -> bool:
        if not cond:
            self._fail(op, why)
        return bool(cond)

    def cli(self, *argv: str) -> Op:
        """Run one buscast command in this process, capturing its output."""
        op = Op(argv[0])
        self.attempted += 1
        out, err = io.StringIO(), io.StringIO()
        idx = self.tracer.open("cli." + argv[0]) if self.tracer else None
        start = perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.main(list(argv))
        except SystemExit as exc:
            code = exc.code
        except Exception as exc:  # a traceback is a failed command, not a failed benchmark
            code = f"{type(exc).__name__}: {exc}"
        finally:
            op.seconds = perf_counter() - start
            if idx is not None:
                self.tracer.close(idx)
        op.out = out.getvalue()
        if code != 0:
            self._fail(op, f"exit {code}: {err.getvalue().strip()[-400:]}")
        return op

    def call(self, label: str, fn, *args) -> tuple[Op, object]:
        """Run one library call as an operation; an exception fails it."""
        op = Op(label)
        self.attempted += 1
        start = perf_counter()
        result = None
        try:
            result = fn(*args)
        except Exception as exc:  # counted and reported, the run goes on
            self._fail(op, f"{type(exc).__name__}: {exc}")
        op.seconds = perf_counter() - start
        return op, result

    def json_out(self, op: Op) -> dict:
        if not op.ok:
            return {}
        try:
            return json.loads(op.out)
        except ValueError:
            self._fail(op, "stdout is not one JSON document")
            return {}


class TrainProbe:
    """Wraps ``train`` at its call sites: counts trained stop-windows, digests results.

    Installed on every pass, traced or not; it adds one hash per trained model.
    """

    def __init__(self) -> None:
        self.windows = 0
        self.epochs: list[int] = []
        self.errors: list[str] = []
        self.finite = True
        self.histories = hashlib.sha256()
        self.params = hashlib.sha256()

    def make(self, fn):
        sig = inspect.signature(fn)

        def wrapper(*args, **kwargs):
            history = fn(*args, **kwargs)
            try:
                bound = sig.bind(*args, **kwargs).arguments
                model = bound["model"]
                self.windows += len(history.epochs) * bound["train_data"].n_samples * model.n_branches
                for name, arr in model.param_dict().items():
                    self.params.update(name.encode())
                    self.params.update(np.ascontiguousarray(arr).tobytes())
                self.epochs.append(len(history.epochs))
                for row in history.epochs:
                    self.finite &= all(math.isfinite(v) for v in row[1:])
                    self.histories.update(repr(row).encode())
            except (AttributeError, KeyError, TypeError) as exc:
                # A changed train() signature loses the count; the pass check reports it.
                self.errors.append(f"{type(exc).__name__}: {exc}")
            return history

        return wrapper

    def install(self, patcher: spans.Patcher) -> None:
        for owner in (evaluation, cli):
            patcher.wrap(owner, "train", self.make)


def arrays_in(obj, depth: int = 0):
    """numpy arrays reachable through dataclass fields, tuples, lists and dict values."""
    if isinstance(obj, np.ndarray):
        yield obj
    elif depth < 4 and dataclasses.is_dataclass(obj):
        for f in dataclasses.fields(obj):
            yield from arrays_in(getattr(obj, f.name), depth + 1)
    elif depth < 4 and isinstance(obj, (tuple, list)):
        for item in obj:
            yield from arrays_in(item, depth + 1)
    elif depth < 4 and isinstance(obj, dict):
        for item in obj.values():
            yield from arrays_in(item, depth + 1)


def file_digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest() if path.exists() else "missing"


def all_finite(values) -> bool:
    return all(isinstance(v, (int, float)) and math.isfinite(v) for v in values)


def day(offset_days: int) -> str:
    """ISO date of the route's day number ``offset_days`` (1-based)."""
    return (START + timedelta(days=offset_days - 1)).isoformat()


class Workload:
    name = ""

    def __init__(self, runner: Runner, work: Path, seed: int, size: dict):
        self.runner = runner
        self.work = work
        self.seed = seed
        self.size = size
        # Passes cycle through the routes; route r is synthesized from seed*K + r.
        self.routes = [work / f"route{r}" for r in range(size.get("routes", 1))]

    def synth_ingest(self, out: Path, seed: int) -> None:
        """Generate one route's CSVs and ingest them into ``out/dataset.json``."""
        r = self.runner
        ops = [
            r.cli("synth", "--days", str(self.size["days"]), "--seed", str(seed),
                  "--start-date", START.isoformat(), "--out", str(out), "--format", "json"),
            r.cli("ingest", "--ridership", str(out / "ridership.csv"), "--weather",
                  str(out / "weather.csv"), "--out", str(out), "--format", "json"),
        ]
        if not all(op.ok for op in ops):
            raise SetupFailed("; ".join(r.failures[-2:]))

    def setup(self) -> float:
        """Set-up seconds: the median of several rounds that synthesize and ingest every route."""
        rounds = []
        for _ in range(SETUP_REPEATS):
            start = perf_counter()
            for r, route in enumerate(self.routes):
                self.synth_ingest(route, self.seed * len(self.routes) + r)
            rounds.append(perf_counter() - start)
        return statistics.median(rounds)

    def run_pass(self, route: Path) -> dict:
        raise NotImplementedError

    @staticmethod
    def summarize(passes: list[dict]) -> dict:
        raise NotImplementedError


class Ablation(Workload):
    """The paper's comparison table: the path that dominates Tier-1 time."""

    name = "ablation"

    def run_pass(self, route: Path) -> dict:
        r = self.runner
        epochs = str(self.size["epochs"])
        probe = TrainProbe()
        patcher = spans.Patcher()
        probe.install(patcher)
        out = self.work / "eval"
        try:
            op = r.cli(
                "evaluate", "--dataset", str(route / "dataset.json"), "--methods", "d,a,perstop,statistical",
                "--retrain", "--seeds", "1", "--batch-size", "128", "--sequence-length", "26",
                "--lstm-nodes", "16", "--n-layers", "1", "--learning-rate", "0.01",
                "--optimizer", "adam", "--max-epochs", epochs, "--patience", epochs,
                "--seed", "0", "--out", str(out), "--format", "json",
            )
        finally:
            patcher.restore()
        report = r.json_out(op)
        methods = report.get("methods", {})
        r.check(op, set(methods) == {"d", "a", "perstop", "statistical"}, f"methods {sorted(methods)}")
        r.check(op, all(all_finite(m["per_stop"] + [m["mean"]]) for m in methods.values()),
                "non-finite RMSE")
        r.check(op, probe.finite, "non-finite loss")
        r.check(op, not probe.errors and probe.windows > 0, f"train not observed: {probe.errors}")
        # patience = max-epochs, so every model trains exactly max-epochs epochs.
        r.check(op, set(probe.epochs) == {self.size["epochs"]}, f"epochs per model {probe.epochs}")
        return {
            "wall_s": op.seconds,
            "train_windows": probe.windows,
            "rmse_d": methods.get("d", {}).get("mean", math.nan),
            "digests": {
                "rmse_report": file_digest(out / "rmse_report.json"),
                "loss_histories": probe.histories.hexdigest(),
                "trained_params": probe.params.hexdigest(),
            },
        }

    @staticmethod
    def summarize(passes: list[dict]) -> dict:
        return {
            "train_windows_per_s": statistics.median(p["train_windows"] / p["wall_s"] for p in passes),
            "rmse_d": statistics.median(p["rmse_d"] for p in passes),
        }


class Tune(Workload):
    """Many short from-scratch trials: rung scheduling, two-layer backward, all optimizers."""

    name = "tune"

    def setup(self) -> float:
        s = self.size
        self.config = self.work / "tune.cfg"
        self.config.write_text(
            f"tune_batch_sizes = {s['batch_sizes']}\n"
            "tune_sequence_lengths = 26\n"
            f"tune_lstm_nodes = {s['lstm_nodes']}\n"
            "tune_n_layers = 1,2\n"
            "tune_max_resource = 9\n"
            "tune_eta = 3\n",
            encoding="utf-8",
        )
        return super().setup()

    def run_pass(self, route: Path) -> dict:
        r = self.runner
        s = self.size
        probe = TrainProbe()
        patcher = spans.Patcher()
        probe.install(patcher)
        out = self.work / "tune"
        try:
            op = r.cli(
                "tune", "--config", str(self.config), "--dataset", str(route / "dataset.json"),
                "--method", "d", "--train-end", day(s["train_days"]),
                "--val-end", day(s["train_days"] + s["val_days"]),
                "--seed", "0", "--out", str(out), "--format", "json",
            )
        finally:
            patcher.restore()
        summary = r.json_out(op)
        best = summary.get("best_val_loss", math.nan)
        r.check(op, all_finite([best]), f"best validation loss {best}")
        r.check(op, summary.get("trials") == TUNE_TRIALS, f"trials {summary.get('trials')}")
        rows = []
        if (out / "tuning_d.csv").exists():
            rows = (out / "tuning_d.csv").read_text(encoding="utf-8").splitlines()[1:]
        r.check(op, len(rows) == TUNE_TRIALS, f"tuning CSV has {len(rows)} trial rows")
        r.check(op, sum(row.endswith(",1") for row in rows) == 1, "tuning CSV needs one winner")
        r.check(op, probe.finite, "non-finite loss")
        r.check(op, not probe.errors and probe.windows > 0, f"train not observed: {probe.errors}")
        return {
            "wall_s": op.seconds,
            "train_windows": probe.windows,
            "best_val_loss": best,
            "digests": {
                "tuning_csv": file_digest(out / "tuning_d.csv"),
                "best_config": file_digest(out / "best_d.json"),
                "loss_histories": probe.histories.hexdigest(),
                "trained_params": probe.params.hexdigest(),
            },
        }

    @staticmethod
    def summarize(passes: list[dict]) -> dict:
        return {
            "train_windows_per_s": statistics.median(p["train_windows"] / p["wall_s"] for p in passes),
            "tune_best_val_loss": statistics.median(p["best_val_loss"] for p in passes),
        }


class Datapath(Workload):
    """Ingest, window build, checkpoint evaluation and prediction; the LSTM is nearly idle."""

    name = "datapath"

    def __init__(self, *args):
        super().__init__(*args)
        days = self.size["days"]
        # The default 80/10/10 split over the route's days, passed explicitly.
        self.train_end, self.val_end = day(int(days * 0.8)), day(int(days * 0.9))
        self.ckpt_dir = self.work / "ckpt"
        self.pass_dir = self.work / "pass"

    def setup(self) -> float:
        base = super().setup()
        epochs = str(self.size["ckpt_epochs"])
        op = self.runner.cli(
            "train", "--dataset", str(self.routes[0] / "dataset.json"), "--method", "d", "--batch-size", "128",
            "--sequence-length", "26", "--lstm-nodes", "16", "--n-layers", "1",
            "--max-epochs", epochs, "--patience", epochs, "--train-end", self.train_end,
            "--val-end", self.val_end, "--seed", "0", "--out", str(self.ckpt_dir), "--format", "json",
        )
        if not op.ok:
            raise SetupFailed(self.runner.failures[-1])
        self.setup_digests = {
            "checkpoint": file_digest(self.ckpt_dir / "d.ckpt"),
            "loss_history": file_digest(self.ckpt_dir / "d_history.csv"),
        }
        return base + op.seconds

    def build_windows(self, cache: Path) -> tuple[Op, dict]:
        """prepare_windows for method d at the long look-back; only the call itself is timed."""
        r = self.runner
        load, dataset = r.call("load", data_ingest.RouteDataset.load, cache)
        if dataset is None:
            return load, {"window_mb": 0.0, "digest": "missing"}
        bounds = (date.fromisoformat(self.train_end), date.fromisoformat(self.val_end))
        spec = models.method_spec(models.MethodId.D, dataset.services_per_day)
        # Looked up at call time so a traced pass sees the wrapped binding.
        op, prepared = r.call("prepare_windows", lambda: features.prepare_windows(
            dataset, bounds, spec.features, self.size["look_back"]))
        info = {"window_mb": 0.0, "digest": "missing"}
        if prepared is None:
            return op, info
        # Walk whatever arrays the result holds, so a new window layout still
        # gets its size measured; each buffer is counted once.
        digest, seen = hashlib.sha256(), set()
        for arr in arrays_in(prepared):
            base = arr if arr.base is None else arr.base
            if id(base) not in seen:
                seen.add(id(base))
                info["window_mb"] += getattr(base, "nbytes", arr.nbytes) / 1e6
            sample = np.ascontiguousarray(arr[::97]) if arr.ndim else arr
            r.check(op, arr.size > 0, f"empty array of shape {arr.shape}")
            r.check(op, not np.issubdtype(arr.dtype, np.floating) or bool(np.isfinite(sample).all()),
                    "non-finite window")
            digest.update(str(arr.shape).encode() + sample.tobytes())
        info["digest"] = digest.hexdigest()
        return op, info

    def run_pass(self, route: Path) -> dict:
        r = self.runner
        cache = self.pass_dir / "dataset.json"
        start = perf_counter()
        ingest = r.cli("ingest", "--ridership", str(route / "ridership.csv"), "--weather",
                       str(route / "weather.csv"), "--out", str(self.pass_dir), "--format", "json")
        windows, window_info = self.build_windows(cache)
        evaluate = r.cli("evaluate", "--dataset", str(cache), "--methods", "d,statistical",
                         "--train-end", self.train_end, "--val-end", self.val_end,
                         "--out", str(self.ckpt_dir), "--format", "json")
        methods = r.json_out(evaluate).get("methods", {})
        r.check(evaluate, set(methods) == {"d", "statistical"}, f"methods {sorted(methods)}")
        r.check(evaluate, all(all_finite(m["per_stop"] + [m["mean"]]) for m in methods.values()),
                "non-finite RMSE")
        latencies, predictions = [], hashlib.sha256()
        for _ in range(self.size["predicts"]):
            op = r.cli("predict", "--dataset", str(cache), "--model", str(self.ckpt_dir / "d.ckpt"),
                       "--format", "json")
            latencies.append(op.seconds)
            values = list(r.json_out(op).get("predictions", {}).values())
            r.check(op, len(values) == 5 and all_finite(values) and min(values) >= 0.0,
                    f"predictions {values}")
            predictions.update(op.out.encode())
        return {
            "wall_s": perf_counter() - start,
            "ingest_s": ingest.seconds,
            "windows_s": windows.seconds,
            "evaluate_s": evaluate.seconds,
            "predict_s": latencies,
            "window_mb": window_info["window_mb"],
            "digests": {
                **self.setup_digests,
                "dataset_cache": file_digest(cache),
                "window_arrays": window_info["digest"],
                "rmse_report": file_digest(self.ckpt_dir / "rmse_report.json"),
                "predictions": predictions.hexdigest(),
            },
        }

    @staticmethod
    def summarize(passes: list[dict]) -> dict:
        latencies = sorted(t for p in passes for t in p["predict_s"])
        n = len(latencies)
        # The highest sample with ten samples above it, and its percentile;
        # with ten samples or fewer that is the maximum.
        k = n - 11 if n > 10 else n - 1
        return {
            "ingest_s": statistics.median(p["ingest_s"] for p in passes),
            "windows_s": statistics.median(p["windows_s"] for p in passes),
            "evaluate_s": statistics.median(p["evaluate_s"] for p in passes),
            "predict_p50_ms": 1000 * statistics.median(latencies),
            "predict_tail_ms": 1000 * latencies[k],
            "predict_tail_pct": 100 * (k + 1) / n,
            "predict_samples": n,
        }


WORKLOADS = {w.name: w for w in (Ablation, Tune, Datapath)}
