"""The program still offers every binding perfbench's tracing hooks wrap.

perfbench (``perfbench/spans.py``) reaches each layer through the names its
callers use and calls the Hyperband trial function by position. These tests
read perfbench and change none of its files.
"""

import importlib.util
from pathlib import Path

import numpy as np

from buscast import cli
from buscast.nn_core import OptimizerKind
from buscast.tuning import CandidateGrid, make_schedule, run_hyperband

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_hook_finds_its_binding():
    spans = _spans()
    patcher = spans.Patcher()
    try:
        spans.instrument(spans.Tracer(), patcher)
        assert patcher.missing == []
    finally:
        patcher.restore()


class _KeptStates:
    def __init__(self):
        self.kept = []

    def keep(self, hp, seed):
        self.kept.append((hp, seed))

    def drop(self, hp, seed):
        self.kept.remove((hp, seed))


def test_run_hyperband_calls_the_trial_with_three_positional_arguments():
    calls = []

    def trial_fn(*args, **kwargs):
        calls.append((args, kwargs))
        return float(len(calls) % 7)

    grid = CandidateGrid(batch_sizes=(16, 32), lstm_nodes=(4, 8), optimizers=(OptimizerKind.ADAM,))
    schedule = make_schedule(9, 3)
    run_hyperband(trial_fn, schedule, np.random.default_rng(0), grid)
    # As the tune command calls it, through the binding perfbench wraps.
    spans = _spans()
    patcher = spans.Patcher()
    try:
        spans.instrument(spans.Tracer(), patcher)
        cli.run_hyperband(trial_fn, schedule, np.random.default_rng(0), grid, states=_KeptStates())
    finally:
        patcher.restore()
    assert len(calls) == 2 * 20
    assert all(len(args) == 3 and not kwargs for args, kwargs in calls)
