"""Derandomized sweeps over the files read back: checkpoints, the dataset cache and training states.

Every header path of a ``d`` and a ``perstop`` checkpoint and of a training
state, and every header key of a dataset cache, is set in turn to each of a
fixed list of garbage values; a few hundred grid bytes of the cache are set
to other values too. Reading the result must end in a result or in one
``error [predict]:`` line, never in a traceback; no garbage value is a valid
cache header value, so those mutations must end in the error line. The
checkpoints go through ``load_model`` in bulk, and through
``main(["predict", ...])`` for each one it accepts and a fixed sample of
those it rejects. A training state is loaded, then resumed for one epoch.
Each load runs with the address space capped at ``MEMORY_LIMIT`` above its
size, so a check that allocates in proportion to a header value (10**9 is
one of the garbage values) ends in a MemoryError named by the mutation
instead of exhausting the machine's memory.
"""

import json
import math
import struct
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest

from buscast.cli import main
from buscast.data_ingest import GRIDS, RouteDataset
from buscast.errors import BuscastError
from buscast.features import AlignedWindows
from buscast.models import (
    MethodId,
    TrainSchedule,
    TrainState,
    build_model,
    load_model,
    load_train_state,
    method_spec,
    save_train_state,
    train,
)
from buscast.nn_core import OptimizerKind
from buscast.tuning import HyperParams

try:
    import resource
except ImportError:  # not a Unix: the loads run uncapped
    resource = None

GARBAGE = ("26", 0, -1, 10**9, None, 1.5, [], {}, True, "x", float("nan"))

#: Every n-th checkpoint mutation that ``load_model`` rejects also runs through ``predict``.
REJECTED_SAMPLE = 40

#: How far one load may grow the address space.
MEMORY_LIMIT = 64 * 2**20


@pytest.fixture(scope="module")
def route(tmp_path_factory):
    """A 12-day route's cache, and a ``d`` and a ``perstop`` checkpoint trained on it at L=4, H=4."""
    root = tmp_path_factory.mktemp("fuzz")
    data, out = root / "data", root / "out"
    assert main(["synth", "--days", "12", "--seed", "3", "--out", str(data)]) == 0
    assert main(["ingest", "--ridership", str(data / "ridership.csv"), "--weather", str(data / "weather.csv"),
                 "--out", str(out)]) == 0
    for method in ("d", "perstop"):
        assert main(["train", "--dataset", str(out / "dataset.json"), "--method", method, "--out", str(out),
                     "--sequence-length", "4", "--lstm-nodes", "4", "--batch-size", "16", "--max-epochs", "1",
                     "--patience", "1"]) == 0
    return out


def _split(raw: bytes) -> tuple[dict, bytes]:
    """A container file's header and the bytes after it."""
    (length,) = struct.unpack_from("<Q", raw, 4)
    return json.loads(raw[12 : 12 + length]), raw[12 + length :]


def _container(header, body: bytes) -> bytes:
    blob = json.dumps(header, sort_keys=True).encode()
    return b"BCKP" + struct.pack("<Q", len(blob)) + blob + body


def _paths(node, prefix=()):
    """The path of every value below ``node``, through objects and lists."""
    children = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, child in children:
        yield prefix + (key,)
        yield from _paths(child, prefix + (key,))


def _mutations(raw: bytes):
    """(description, path, value, file bytes) for each header path set to each garbage value."""
    header, body = _split(raw)
    for path in list(_paths(header)):
        parent = header
        for key in path[:-1]:
            parent = parent[key]
        original = parent[path[-1]]
        for value in GARBAGE:
            parent[path[-1]] = value
            yield f"{'/'.join(map(str, path))} = {value!r}", path, value, _container(header, body)
        parent[path[-1]] = original


@contextmanager
def _capped():
    """Run a load with the address space capped at ``MEMORY_LIMIT`` above its size, where Linux tells that size;
    an allocation beyond the cap raises MemoryError."""
    statm = Path("/proc/self/statm")
    if resource is None or not statm.exists():
        yield
        return
    soft, hard = resource.getrlimit(resource.RLIMIT_AS)
    cap = int(statm.read_text().split()[0]) * resource.getpagesize() + MEMORY_LIMIT
    resource.setrlimit(resource.RLIMIT_AS, (cap if hard == resource.RLIM_INFINITY else min(cap, hard), hard))
    try:
        yield
    finally:
        resource.setrlimit(resource.RLIMIT_AS, (soft, hard))


def _predict(capsys, dataset: Path, model: Path, refused: bool = False) -> str | None:
    """Run ``predict``; None when it exits 1 with one error line, or 0 with none unless ``refused``, else what
    went wrong."""
    try:
        code = main(["predict", "--dataset", str(dataset), "--model", str(model)])
    except Exception as exc:  # noqa: BLE001 - the sweep reports any traceback
        capsys.readouterr()
        return f"traceback {exc!r}"
    err = capsys.readouterr().err.strip().splitlines()
    if code == 0 and not err and not refused:
        return None
    if code == 1 and len(err) == 1 and err[0].startswith("error [predict]: "):
        return None
    return f"exit {code}, stderr {err}"


def test_checkpoint_header_sweep(route, tmp_path, capsys):
    dataset, path = route / "dataset.json", tmp_path / "edited.ckpt"
    failures, runs, rejected = [], 0, 0
    for method in ("d", "perstop"):
        for what, _, _, raw in _mutations((route / f"{method}.ckpt").read_bytes()):
            path.write_bytes(raw)
            runs += 1
            try:
                with _capped():
                    load_model(path)
            except BuscastError:
                rejected += 1
                if rejected % REJECTED_SAMPLE:
                    continue
            except Exception as exc:  # noqa: BLE001
                failures.append(f"{method}: {what}: load_model raised {exc!r}")
                continue
            failure = _predict(capsys, dataset, path)
            if failure:
                failures.append(f"{method}: {what}: {failure}")
    assert runs > 2000 and rejected > runs // 2
    assert not failures, f"{len(failures)} of {runs} mutations:\n" + "\n".join(failures[:20])


def test_dataset_cache_sweep(route, tmp_path, capsys):
    model, path = route / "d.ckpt", tmp_path / "dataset.json"
    raw = (route / "dataset.json").read_bytes()
    assert _predict(capsys, route / "dataset.json", model) is None
    header, body = _split(raw)
    # No garbage value is a valid header value, so each header mutation is refused.
    cases = [
        (f"{key} = {value!r}", _container({**header, key: value}, body), True) for key in header for value in GARBAGE
    ]
    # Grid bytes set to other values: every grid, the bool ones to 0, 1 or any byte.
    rng = np.random.default_rng(19)
    size = len(body)
    assert size == sum(math.prod(shape) * np.dtype(GRIDS[name]).itemsize for name, shape, *_ in header["params"])
    for offset, value in zip(rng.integers(0, size, 300).tolist(), rng.integers(0, 256, 300).tolist()):
        flipped = bytearray(body)
        flipped[offset] = value if value != body[offset] else value ^ 1
        cases.append((f"byte {offset} = {flipped[offset]}", _container(header, bytes(flipped)), False))
    failures = []
    for what, data, refused in cases:
        path.write_bytes(data)
        try:
            with _capped():
                RouteDataset.load(path)
        except BuscastError:
            pass
        except Exception as exc:  # noqa: BLE001
            failures.append(f"{what}: RouteDataset.load raised {exc!r}")
            continue
        failure = _predict(capsys, path, model, refused)
        if failure:
            failures.append(f"{what}: {failure}")
    assert not failures, f"{len(failures)} of {len(cases)} mutations:\n" + "\n".join(failures[:20])
    assert isinstance(RouteDataset.load(route / "dataset.json"), RouteDataset)


@pytest.fixture(scope="module")
def train_state(tmp_path_factory):
    """A saved two-epoch Adam training state of a two-stop model, with the hyperparameters and windows it was
    trained on."""
    rng = np.random.default_rng(7)

    def windows(n: int) -> AlignedWindows:
        starts = np.arange(n)
        return AlignedWindows(rng.normal(size=(2, n + 3)), np.zeros((n + 3, 0)), starts, rng.normal(size=(n, 2)), 4,
                              starts + 4)

    hp = HyperParams(8, 4, 4, 1, 0.01, OptimizerKind.ADAM)
    data, state = (windows(24), windows(8)), TrainState()
    train(build_model(method_spec(MethodId.A), hp, 2, seed=5), *data, hp, TrainSchedule(2, 2), 6, state)
    assert state.best is not None  # epoch 1 is the best, so the file holds best/ arrays too
    path = tmp_path_factory.mktemp("state") / "train.state"
    save_train_state(path, state)
    return path, hp, data


def _refused_at_load(path: tuple, value) -> bool:
    """Whether a training state whose header ``path`` holds garbage ``value`` must be refused by the load."""
    key = path[0] if len(path) == 1 else None
    number = type(value) in (int, float) and math.isfinite(value)
    return (key in ("kind", "optimizer", "best_epoch")
            or key == "step_count" and not (type(value) is int and value >= 0)
            or key == "best_val_loss" and not number)


def test_train_state_header_sweep(train_state, tmp_path):
    state_path, hp, data = train_state
    path = tmp_path / "edited.state"
    failures, runs, accepted = [], 0, 0
    for what, header_path, value, raw in _mutations(state_path.read_bytes()):
        path.write_bytes(raw)
        runs += 1
        step = "load_train_state"
        try:
            with _capped():
                state = load_train_state(path, hp)
            accepted += 1
            if _refused_at_load(header_path, value):
                failures.append(f"{what}: accepted at load")
            step = "the resumed epoch"
            model = build_model(method_spec(MethodId.A), hp, 2, seed=5)
            train(model, *data, hp, TrainSchedule(3, 3), 6, state)
        except BuscastError:
            pass
        except Exception as exc:  # noqa: BLE001 - the sweep reports any traceback
            failures.append(f"{what}: {step} raised {exc!r}")
    assert runs > 500 and 0 < accepted < runs // 2
    assert not failures, f"{len(failures)} of {runs} mutations:\n" + "\n".join(failures[:20])
