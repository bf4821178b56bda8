"""The output manifest: a fixed command matrix and the sha256 of everything it writes.

The matrix runs in process on a 20-day seed-3 route: ``synth``, ``ingest``
and ``correlate``; ``train`` of ``d``, ``a`` and ``perstop`` at H=4, L=4 and
2 epochs; ``tune`` of ``d`` on a 2 x 2 grid; ``evaluate`` from the
checkpoints and with ``--retrain --seeds 2``; and ``predict`` of ``d`` and
``perstop``. Each command's stdout, with the run's directory written as
``<tmp>``, and every file left under that directory are hashed.

``tests/output_manifest.json`` holds the digests and the numpy and OpenBLAS
build they were taken on, since other GEMM kernels give other bits.
``tests/test_output_manifest.py`` compares a fresh run with it. A change
that alters an output by design rewrites it, from the repository root::

    PYTHONPATH=src python tests/output_manifest.py
"""

import contextlib
import ctypes
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path

import numpy as np

from buscast.cli import main

MANIFEST = Path(__file__).with_name("output_manifest.json")

#: The hyperparameter flags of every fit in the matrix.
HP = ["--sequence-length", "4", "--lstm-nodes", "4", "--max-epochs", "2"]

#: The tuning grid: two batch sizes by two widths, one of everything else.
GRID = (
    "tune_batch_sizes = 16,32\ntune_lstm_nodes = 4,8\ntune_sequence_lengths = 4\ntune_n_layers = 1\n"
    "tune_learning_rates = 0.01\ntune_optimizers = adam\n"
)


def matrix(root: Path) -> list[tuple[str, list[str]]]:
    """(label, argv) of each command, in run order, writing under ``root``."""
    data, out, dataset = root / "data", root / "out", str(root / "out" / "dataset.json")
    methods = ["--methods", "d,a,perstop,statistical"]
    return [
        ("synth", ["synth", "--days", "20", "--seed", "3", "--out", str(data)]),
        ("ingest", ["ingest", "--ridership", str(data / "ridership.csv"), "--weather", str(data / "weather.csv"),
                    "--out", str(out)]),
        ("correlate", ["correlate", "--dataset", dataset, "--out", str(out)]),
        *((f"train {method}", ["train", "--dataset", dataset, "--method", method, "--out", str(out), *HP])
          for method in ("d", "a", "perstop")),
        ("tune d", ["tune", "--dataset", dataset, "--method", "d", "--config", str(root / "grid.cfg"),
                    "--max-resource", "3", "--eta", "3", "--max-epochs", "3", "--out", str(root / "tune")]),
        ("evaluate", ["evaluate", "--dataset", dataset, *methods, "--out", str(out)]),
        ("evaluate --retrain", ["evaluate", "--dataset", dataset, *methods, "--retrain", "--seeds", "2", *HP,
                                "--out", str(root / "retrain")]),
        *((f"predict {method}", ["predict", "--dataset", dataset, "--model", str(out / f"{method}.ckpt")])
          for method in ("d", "perstop")),
    ]


def run_matrix(root: Path) -> dict[str, str]:
    """Run the matrix under ``root``; the sha256 of each command's stdout and of each file it left."""
    (root / "grid.cfg").write_text(GRID, encoding="utf-8")
    digests = {}
    for label, argv in matrix(root):
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout):
            code = main(argv)
        if code != 0:
            raise RuntimeError(f"{label} exited {code}")
        text = stdout.getvalue().replace(str(root), "<tmp>")
        digests[f"stdout: {label}"] = hashlib.sha256(text.encode("utf-8")).hexdigest()
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        digests[f"file: {path.relative_to(root).as_posix()}"] = hashlib.sha256(path.read_bytes()).hexdigest()
    return digests


def build() -> dict[str, str]:
    """The numpy version and the configuration of the OpenBLAS it runs on, which names the kernels picked for
    this CPU when the library can be asked, else the build's."""
    config = np.show_config(mode="dicts")["Build Dependencies"]["blas"].get("openblas configuration", "unknown")
    for lib in sorted((Path(np.__file__).parent.parent / "numpy.libs").glob("libscipy_openblas*")):
        get_config = getattr(ctypes.CDLL(str(lib)), "scipy_openblas_get_config64_", None)
        if get_config is not None:
            get_config.restype = ctypes.c_char_p
            config = get_config().decode()
    return {"numpy": np.__version__, "openblas": " ".join(config.split())}


def describe(build: dict[str, str]) -> str:
    return f"numpy {build['numpy']} with {build['openblas']}"


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        digests = run_matrix(Path(tmp))
    MANIFEST.write_text(json.dumps({"build": build(), "digests": digests}, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(digests)} digests to {MANIFEST}", file=sys.stderr)
