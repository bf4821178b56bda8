#!/usr/bin/env python3
"""buscast benchmark: end-to-end metrics per workload, per-layer metrics when traced.

    python3 perfbench/run.py --workload {ablation,tune,datapath} --seed N --seconds S --trace {0,1}

Run from the root of a source checkout; the program is imported from
``src/``. One process runs one workload closed-loop: set-up, then passes
until ``--seconds`` are spent (at least one). With ``--trace 0`` the last
stdout line holds the end-to-end metrics of BENCHMARK.json; with
``--trace 1`` passes alternate untraced and traced, and it holds the
per-layer metrics of the traced passes plus the tracing overhead. Lines
before it print every metric with its unit; the full record (environment,
digests, per-pass figures) goes to ``.perfbench_runs/`` and the spans of the
traced passes next to it. Scratch files live in ``.perfbench_work/`` and are
removed at exit.
"""

import os

# One BLAS/OpenMP thread, fixed before numpy is first imported.
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _name in BLAS_ENV:
    os.environ[_name] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

import spans  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

#: End-to-end metrics gated by BENCHMARK.json; every workload reports them.
GATED = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB"}

#: Further end-to-end metrics, printed and recorded for the workloads they apply to.
REPORTED = {
    "train_windows_per_s": "1/s",
    "rmse_d": "persons",
    "tune_best_val_loss": "scaled_mse",
    "ingest_s": "s",
    "windows_s": "s",
    "evaluate_s": "s",
    "predict_p50_ms": "ms",
    "predict_tail_ms": "ms",
    "predict_tail_pct": "%",
    "predict_samples": "count",
    "ops_failed_share": "ratio",
    "first_pass_s": "s",
    "reference_s": "s",
    "passes": "count",
}


def parse_args(argv=None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=("ablation", "tune", "datapath"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=("full", "tiny"), default="full",
                   help="input size; 'tiny' is for the self-test")
    return p.parse_args(argv)


def git_commit() -> str | None:
    """HEAD of the checkout, read from .git without running git; None outside a repository."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text(encoding="utf-8").strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text(encoding="utf-8").strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def environment() -> dict:
    import ctypes
    import hashlib

    import numpy as np

    blas_version, blas_threads = None, None
    with open("/proc/self/maps", encoding="utf-8") as fh:
        libs = sorted({ln.split()[-1] for ln in fh if "openblas" in ln.lower() and ".so" in ln})
    for lib_path in libs[:1]:
        lib = ctypes.CDLL(lib_path)
        for prefix, suffix in (("scipy_openblas", "64_"), ("openblas", "64_"), ("openblas", "")):
            get_config = getattr(lib, f"{prefix}_get_config{suffix}", None)
            get_threads = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
            if get_config is not None and get_threads is not None:
                get_config.restype = ctypes.c_char_p
                get_threads.restype = ctypes.c_int
                blas_version = get_config().decode().split("  ")[0]
                blas_threads = get_threads()
                break
    src = hashlib.sha256()
    for path in sorted((SRC / "buscast").glob("*.py")):
        src.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "openblas": blas_version,
        "blas_threads": blas_threads,
        "thread_env": {name: os.environ.get(name) for name in BLAS_ENV},
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "git_commit": git_commit(),
        "src_sha256": src.hexdigest(),
    }


def reference_s() -> float:
    """Median time of a fixed LSTM-like numpy loop that no program change touches.

    Taken after every pass and reported, not applied: it shows how fast the
    shared machine ran during the run, which on a 2-CPU host drifted by up to
    a quarter over minutes.
    """
    import numpy as np

    rng = np.random.default_rng(0)
    xw, ut = rng.standard_normal((5, 128, 64)), 0.1 * rng.standard_normal((5, 16, 64))
    times = []
    for _ in range(3):
        start = perf_counter()
        h = c = np.zeros((5, 128, 16))
        for _ in range(200):
            z = np.matmul(h, ut) + xw
            a = 0.5 * (np.tanh(0.5 * z) + 1.0)
            c = a[..., 16:32] * c + a[..., :16] * np.tanh(z[..., 32:48])
            h = a[..., 48:] * np.tanh(c)
        times.append(perf_counter() - start)
    return statistics.median(times)


def run(args) -> tuple[dict, dict]:
    """Set up, loop passes, check; returns (result line, full record)."""
    import workloads

    runs_dir = ROOT / ".perfbench_runs"
    runs_dir.mkdir(exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    work = ROOT / ".perfbench_work" / f"{tag}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    runner = workloads.Runner()
    try:
        workload = workloads.WORKLOADS[args.workload](
            runner, work, args.seed, workloads.SIZES[args.size][args.workload])
        setup_s = workload.setup()

        passes, layers, all_spans = [], [], []
        start = perf_counter()
        while True:
            i = len(passes)
            # A traced run visits each route twice, untraced then traced.
            traced = bool(args.trace) and i % 2 == 1
            route = (i // 2 if args.trace else i) % len(workload.routes)
            patcher = spans.Patcher()
            if traced:
                runner.tracer = spans.Tracer()
                spans.instrument(runner.tracer, patcher)
            try:
                record = workload.run_pass(workload.routes[route])
            finally:
                patcher.restore()
            record.update(traced=traced, route=route, reference_s=reference_s())
            if traced:
                layers.append((route, spans.layer_metrics(runner.tracer)))
                all_spans.append(runner.tracer.spans)
                record["unwrapped"] = patcher.missing
                record["hook_errors"] = runner.tracer.hook_errors
                runner.tracer = None
            passes.append(record)
            if perf_counter() - start >= args.seconds and (layers or not args.trace):
                break
    finally:
        shutil.rmtree(work, ignore_errors=True)

    plain = [p for p in passes if not p["traced"]]
    checks = []
    # Same route, same outputs: traced or not, first visit or later.
    first_visit = {}
    for i, p in enumerate(passes, start=1):
        ref = first_visit.setdefault(p["route"], (i, p["digests"]))
        if p["digests"] != ref[1]:
            checks.append(f"pass {i} outputs differ from pass {ref[0]} on route {p['route']}: "
                          + ", ".join(k for k in ref[1] if p["digests"].get(k) != ref[1][k]))
    for name in spans.EXACT:
        by_route = {}
        for route, m in layers:
            by_route.setdefault(route, set()).add(m[name])
        for route, values in by_route.items():
            if len(values) > 1:
                checks.append(f"{name} differs between traced passes on route {route}: {sorted(values)}")
    if args.workload == "tune":
        want = (workloads.TUNE_TRIALS, workloads.TUNE_EPOCHS)
        for route, m in layers:
            got = (m["tuning.trials"], m["tuning.trial_epochs"])
            if got != want:
                checks.append(f"tuning (trials, trial-epochs) {got} != {want} on route {route}")

    e2e = {
        "setup_s": setup_s,
        "wall_s": statistics.median(p["wall_s"] for p in plain),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        **workload.summarize(plain),
        "ops_failed_share": runner.failed / runner.attempted,
        "first_pass_s": passes[0]["wall_s"],
        "reference_s": statistics.median(p["reference_s"] for p in passes),
        "passes": len(plain),
    }
    per_layer = {}
    if layers:
        # Times are medians over traced passes; counts come from the first one, so
        # two runs with the same seed report the same counts whatever their pass count.
        per_layer = {
            name: layers[0][1][name] if unit in ("count", "GFLOP", "MB", "ratio")
            else statistics.median(m[name] for _, m in layers)
            for name, unit in spans.LAYER_UNITS.items()
        }
        traced_wall = statistics.median(p["wall_s"] for p in passes if p["traced"])
        per_layer["trace.overhead_s"] = traced_wall - e2e["wall_s"]
        with open(runs_dir / f"{tag}-spans.jsonl", "w", encoding="utf-8") as fh:
            for i, pass_spans in enumerate(all_spans):
                for s in pass_spans:
                    fh.write(json.dumps([i, *s]) + "\n")

    correct = runner.failed == 0 and not checks
    if args.trace:
        metrics = {k: {"value": v, "unit": spans.TRACE_UNITS[k]} for k, v in per_layer.items()}
    else:
        metrics = {k: {"value": e2e[k], "unit": u} for k, u in GATED.items()}
    result = {"correct": correct, "attempted": runner.attempted, "failed": runner.failed,
              "metrics": metrics}
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "size": args.size, "environment": environment(),
        "end_to_end": e2e, "per_layer": per_layer, "failures": runner.failures[:50],
        "checks": checks, "passes": passes, "result": result,
    }
    with open(runs_dir / f"{tag}.json", "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
    return result, record


def print_report(record: dict) -> None:
    units = {**GATED, **REPORTED}
    env = record["environment"]
    print(f"# {record['workload']} seed={record['seed']} trace={record['trace']} "
          f"python={env['python']} numpy={env['numpy']} openblas={env['openblas']} "
          f"blas_threads={env['blas_threads']} nproc={env['nproc']} "
          f"commit={env['git_commit']} src={env['src_sha256'][:12]}")
    for name, value in record["end_to_end"].items():
        print(f"{name:>28} {value:16.6f} {units[name]}")
    for name, value in record["per_layer"].items():
        print(f"{name:>36} {value:16.6f} {spans.TRACE_UNITS[name]}")
    for name, digest in record["passes"][0]["digests"].items():
        print(f"{'sha256 ' + name:>28} {digest}")
    for line in record["checks"] + record["failures"]:
        print(f"FAILED {line}")


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "buscast" / "__init__.py").is_file():
        print(f"error: no buscast sources at {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads

    try:
        result, record = run(args)
    except workloads.SetupFailed as exc:
        print(f"error: set-up failed: {exc}", file=sys.stderr)
        return 1
    print_report(record)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
