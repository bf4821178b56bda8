"""In-memory spans and counters recorded around the calls into each layer.

Nothing inside ``src/`` knows about tracing. :class:`Patcher` replaces the
bindings through which callers reach each layer (``models`` imports the LSTM
core by name, ``cli`` imports ``prepare_windows``, ``run_hyperband`` and so
on) with wrappers that open a span, and restores them afterwards. A span is
``[name, start, end, parent, op]``: ``parent`` is the index of the enclosing
span (-1 for a root) and ``op`` the id of the command it belongs to.
"""

from __future__ import annotations

import functools
import statistics
import time
from collections import Counter

NAME, START, END, PARENT, OP = range(5)


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.trial_seconds: list[float] = []
        self.hook_errors: list[str] = []
        self._stack: list[int] = []
        self._op = -1

    def open(self, name: str) -> int:
        if not self._stack:
            self._op += 1
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent, self._op])
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def close(self, idx: int) -> float:
        span = self.spans[idx]
        span[END] = time.perf_counter()
        self._stack.pop()
        return span[END] - span[START]

    def durations(self) -> dict[str, float]:
        total: Counter = Counter()
        for s in self.spans:
            total[s[NAME]] += s[END] - s[START]
        return total

    def self_times(self) -> dict[str, float]:
        """Duration of each span minus the part of it its direct children cover."""
        covered = [0.0] * len(self.spans)
        for s in self.spans:
            if s[PARENT] >= 0:
                covered[s[PARENT]] += s[END] - s[START]
        out: Counter = Counter()
        for s, child in zip(self.spans, covered):
            out[s[NAME]] += (s[END] - s[START]) - child
        return out


class Patcher:
    """Replaces attributes and puts the originals back in reverse order."""

    def __init__(self) -> None:
        self._saved: list[tuple[object, str, object]] = []
        self.missing: list[str] = []

    def wrap(self, owner, attr: str, make) -> None:
        """Set ``owner.attr = make(original)``; a missing attribute is noted, not fatal."""
        raw = owner.__dict__.get(attr) if isinstance(owner, type) else getattr(owner, attr, None)
        if raw is None:
            self.missing.append(f"{getattr(owner, '__name__', owner)}.{attr}")
            return
        self._saved.append((owner, attr, raw))
        if isinstance(raw, classmethod):
            setattr(owner, attr, classmethod(make(raw.__func__)))
        else:
            setattr(owner, attr, make(raw))

    def restore(self) -> None:
        while self._saved:
            owner, attr, raw = self._saved.pop()
            setattr(owner, attr, raw)


def timed(tracer: Tracer, name: str, after=None):
    """Wrapper factory: one span per call, then ``after(args, kwargs, result)``."""

    def make(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = tracer.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(idx)
            if after is not None:
                try:
                    after(args, kwargs, result)
                except (AttributeError, IndexError, KeyError, TypeError, ValueError) as exc:
                    # A changed signature loses a count; it must not fail the call.
                    tracer.hook_errors.append(f"{name}: {type(exc).__name__}: {exc}")
            return result

        return wrapper

    return make


def _lstm_flop(n: int, batch: int, steps: int, dim: int, hidden: int, backward: bool) -> int:
    """Matmul FLOPs of one branched LSTM layer pass; elementwise work is not counted.

    Forward: input and recurrent GEMMs, 2*n*B*L*4H*(D+H). Backward: the
    recurrent dh GEMM plus the dW, dU and dx GEMMs, 2*n*B*L*4H*(2D+2H).
    """
    per = 2 * n * batch * steps * 4 * hidden
    return per * (2 * dim + 2 * hidden) if backward else per * (dim + hidden)


def instrument(tracer: Tracer, patcher: Patcher) -> None:
    """Wrap every layer boundary at the names its callers use."""
    from buscast import cli, data_ingest, evaluation, features, models, nn_core

    c = tracer.counts

    def lstm_fwd(args, kwargs, result):
        w, u, _, x = args[:4]
        n, batch, steps, dim = x.shape
        c["lstm_steps"] += n * batch * steps
        c["lstm_flop"] += _lstm_flop(n, batch, steps, dim, u.shape[2], backward=False)

    def lstm_bwd(args, kwargs, result):
        _, u, cache = args[:3]
        n, batch, steps, dim = cache.x.shape
        c["lstm_flop"] += _lstm_flop(n, batch, steps, dim, u.shape[2], backward=True)

    def clip(args, kwargs, result):
        c["clip_fired"] += int(result > args[1] and result > 0.0)

    def opt_step(args, kwargs, result):
        c["opt_arrays"] += len(args[1])

    def trained(args, kwargs, result):
        c["epochs"] += len(result.epochs)

    def encoded(args, kwargs, result):
        c["encode_rows"] += result.rows.shape[0]

    def windowed(args, kwargs, result):
        c["windows"] += result.x.shape[0]
        c["window_bytes"] += result.x.nbytes + result.y.nbytes

    def parsed(args, kwargs, result):
        c["records"] += len(result)

    w = patcher.wrap
    w(models, "branched_lstm_forward", timed(tracer, "nn_core.lstm_fwd", lstm_fwd))
    w(models, "branched_lstm_backward", timed(tracer, "nn_core.lstm_bwd", lstm_bwd))
    w(models, "dense_forward", timed(tracer, "nn_core.dense"))
    w(models, "dense_backward", timed(tracer, "nn_core.dense"))
    w(models, "mse_loss", timed(tracer, "nn_core.mse"))
    w(models, "clip_global_norm", timed(tracer, "nn_core.clip", clip))
    w(nn_core.Optimizer, "step", timed(tracer, "nn_core.opt_step", opt_step))

    for owner in (evaluation, cli):
        w(owner, "train", timed(tracer, "models.train", trained))
    w(models.LstmRegressor, "forward", timed(tracer, "models.forward"))
    w(models.LstmRegressor, "forward_backward", timed(tracer, "models.fwd_bwd"))
    w(cli, "save_model", timed(tracer, "models.save"))
    w(cli, "load_model", timed(tracer, "models.load"))
    w(cli, "predict_next_service", timed(tracer, "models.predict"))

    for owner in (features, cli):
        w(owner, "encode_stop", timed(tracer, "features.encode", encoded))
    w(features, "build_windows", timed(tracer, "features.window", windowed))
    for owner in (features, cli, evaluation):
        w(owner, "prepare_windows", timed(tracer, "features.prepare"))

    w(data_ingest, "parse_ridership_csv", timed(tracer, "data_ingest.parse", parsed))
    w(data_ingest, "parse_weather_csv", timed(tracer, "data_ingest.parse"))
    w(data_ingest, "join_weather_to_services", timed(tracer, "data_ingest.join"))
    w(data_ingest, "build_route_dataset", timed(tracer, "data_ingest.build"))
    w(data_ingest.RouteDataset, "save", timed(tracer, "data_ingest.save"))
    w(data_ingest.RouteDataset, "load", timed(tracer, "data_ingest.load"))

    w(cli, "evaluate_methods", timed(tracer, "evaluation.evaluate_methods"))
    for owner in (evaluation, cli):
        w(owner, "evaluate_method", timed(tracer, "evaluation.evaluate_method"))

    def hyperband(fn):
        span = timed(tracer, "tuning.hyperband")(fn)

        @functools.wraps(fn)
        def wrapper(trial_fn, *args, **kwargs):
            done: dict[tuple, int] = {}

            def trial(hp, epochs, seed):
                # Epochs the same config already trained at a lower rung; a trial that
                # retrains from scratch repeats them, one that resumes does not.
                prior = min(done.get((hp, seed), 0), epochs)
                done[(hp, seed)] = max(done.get((hp, seed), 0), epochs)
                trained_before = c["epochs"]
                c["trials"] += 1
                c["trial_epochs"] += epochs
                idx = tracer.open("tuning.trial")
                try:
                    return trial_fn(hp, epochs, seed)
                finally:
                    tracer.trial_seconds.append(tracer.close(idx))
                    c["retrained_epochs"] += (c["epochs"] - trained_before) - (epochs - prior)

            return span(trial, *args, **kwargs)

        return wrapper

    w(cli, "run_hyperband", hyperband)


#: Per-layer metric name -> unit, in report order.
LAYER_UNITS = {
    "nn_core.lstm_fwd_s": "s",
    "nn_core.lstm_fwd_calls": "count",
    "nn_core.lstm_bwd_s": "s",
    "nn_core.lstm_bwd_calls": "count",
    "nn_core.lstm_steps": "count",
    "nn_core.lstm_gflop": "GFLOP",
    "nn_core.lstm_gflop_per_s": "GFLOP/s",
    "nn_core.dense_s": "s",
    "nn_core.mse_s": "s",
    "nn_core.opt_step_s": "s",
    "nn_core.opt_steps": "count",
    "nn_core.opt_arrays_per_step": "count",
    "nn_core.clip_s": "s",
    "nn_core.clip_calls": "count",
    "nn_core.clip_fired_share": "ratio",
    "models.train_s": "s",
    "models.train_self_s": "s",
    "models.epochs": "count",
    "models.fwd_bwd_s": "s",
    "models.fwd_bwd_self_s": "s",
    "models.fwd_bwd_calls": "count",
    "models.forward_s": "s",
    "models.forward_calls": "count",
    "models.save_s": "s",
    "models.load_s": "s",
    "models.predict_s": "s",
    "features.encode_s": "s",
    "features.encode_rows": "count",
    "features.window_s": "s",
    "features.windows": "count",
    "features.window_mb": "MB",
    "features.prepare_s": "s",
    "features.prepare_calls": "count",
    "data_ingest.parse_s": "s",
    "data_ingest.records": "count",
    "data_ingest.join_s": "s",
    "data_ingest.build_s": "s",
    "data_ingest.save_s": "s",
    "data_ingest.load_s": "s",
    "data_ingest.load_calls": "count",
    "tuning.hyperband_s": "s",
    "tuning.trials": "count",
    "tuning.trial_epochs": "count",
    "tuning.retrained_epoch_share": "ratio",
    "tuning.trial_p50_s": "s",
    "evaluation.evaluate_methods_s": "s",
    "evaluation.evaluate_method_s": "s",
    "evaluation.evaluate_method_calls": "count",
    "cli.self_s": "s",
}

#: Everything a traced run reports: the layers plus the tracing overhead.
TRACE_UNITS = {**LAYER_UNITS, "trace.overhead_s": "s"}

#: Counts that depend only on shapes and schedules; every pass must repeat them.
EXACT = (
    "nn_core.lstm_steps",
    "nn_core.lstm_gflop",
    "nn_core.opt_steps",
    "features.window_mb",
    "tuning.trials",
    "tuning.trial_epochs",
    "tuning.retrained_epoch_share",
)


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer totals of one traced pass."""
    dur = tracer.durations()
    own = tracer.self_times()
    calls = Counter(s[NAME] for s in tracer.spans)
    c = tracer.counts
    lstm_s = dur["nn_core.lstm_fwd"] + dur["nn_core.lstm_bwd"]
    gflop = c["lstm_flop"] / 1e9
    opt_steps = calls["nn_core.opt_step"]
    clip_calls = calls["nn_core.clip"]
    trial_epochs = c["trial_epochs"]
    return {
        "nn_core.lstm_fwd_s": dur["nn_core.lstm_fwd"],
        "nn_core.lstm_fwd_calls": calls["nn_core.lstm_fwd"],
        "nn_core.lstm_bwd_s": dur["nn_core.lstm_bwd"],
        "nn_core.lstm_bwd_calls": calls["nn_core.lstm_bwd"],
        "nn_core.lstm_steps": c["lstm_steps"],
        "nn_core.lstm_gflop": gflop,
        "nn_core.lstm_gflop_per_s": gflop / lstm_s if lstm_s else 0.0,
        "nn_core.dense_s": dur["nn_core.dense"],
        "nn_core.mse_s": dur["nn_core.mse"],
        "nn_core.opt_step_s": dur["nn_core.opt_step"],
        "nn_core.opt_steps": opt_steps,
        "nn_core.opt_arrays_per_step": c["opt_arrays"] / opt_steps if opt_steps else 0.0,
        "nn_core.clip_s": dur["nn_core.clip"],
        "nn_core.clip_calls": clip_calls,
        "nn_core.clip_fired_share": c["clip_fired"] / clip_calls if clip_calls else 0.0,
        "models.train_s": dur["models.train"],
        "models.train_self_s": own["models.train"],
        "models.epochs": c["epochs"],
        "models.fwd_bwd_s": dur["models.fwd_bwd"],
        "models.fwd_bwd_self_s": own["models.fwd_bwd"],
        "models.fwd_bwd_calls": calls["models.fwd_bwd"],
        "models.forward_s": dur["models.forward"],
        "models.forward_calls": calls["models.forward"],
        "models.save_s": dur["models.save"],
        "models.load_s": dur["models.load"],
        "models.predict_s": dur["models.predict"],
        "features.encode_s": dur["features.encode"],
        "features.encode_rows": c["encode_rows"],
        "features.window_s": dur["features.window"],
        "features.windows": c["windows"],
        "features.window_mb": c["window_bytes"] / 1e6,
        "features.prepare_s": dur["features.prepare"],
        "features.prepare_calls": calls["features.prepare"],
        "data_ingest.parse_s": dur["data_ingest.parse"],
        "data_ingest.records": c["records"],
        "data_ingest.join_s": dur["data_ingest.join"],
        "data_ingest.build_s": dur["data_ingest.build"],
        "data_ingest.save_s": dur["data_ingest.save"],
        "data_ingest.load_s": dur["data_ingest.load"],
        "data_ingest.load_calls": calls["data_ingest.load"],
        "tuning.hyperband_s": dur["tuning.hyperband"],
        "tuning.trials": c["trials"],
        "tuning.trial_epochs": trial_epochs,
        "tuning.retrained_epoch_share": c["retrained_epochs"] / trial_epochs if trial_epochs else 0.0,
        "tuning.trial_p50_s": statistics.median(tracer.trial_seconds) if tracer.trial_seconds else 0.0,
        "evaluation.evaluate_methods_s": dur["evaluation.evaluate_methods"],
        "evaluation.evaluate_method_s": dur["evaluation.evaluate_method"],
        "evaluation.evaluate_method_calls": calls["evaluation.evaluate_method"],
        "cli.self_s": sum(t for name, t in own.items() if name.startswith("cli.")),
    }
