#!/usr/bin/env python3
"""Self-test of the benchmark: every workload at the tiny size, about a minute.

    python3 perfbench/selftest.py

For each workload it runs one untraced and two traced runs with the same
seed and asserts that the result line holds exactly its four keys, that every
end-to-end and per-layer metric is printed with its unit, that nothing
failed, and that digests and exact counts repeat between the runs. It also
checks BENCHMARK.json against the metric tables, and that the benchmark
refuses to run (non-zero exit, no result) without the program's sources.
"""

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import spans  # noqa: E402

#: End-to-end metrics each workload must print, beyond the gated ones.
WORKLOAD_METRICS = {
    "ablation": ("train_windows_per_s", "rmse_d"),
    "tune": ("train_windows_per_s", "tune_best_val_loss"),
    "datapath": ("ingest_s", "windows_s", "evaluate_s", "predict_p50_ms", "predict_tail_ms",
                 "predict_tail_pct", "predict_samples"),
}


def bench(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    cmd = [sys.executable, str(cwd / "perfbench" / "run.py"), "--workload", workload,
           "--seed", "3", "--seconds", "0", "--trace", str(trace), "--size", "tiny"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=300)


def result_of(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr[-2000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, result.keys()
    assert result["correct"] is True and result["failed"] == 0, proc.stdout[-3000:]
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    return result


def printed(stdout: str, name: str, unit: str) -> bool:
    pattern = rf"^\s*{re.escape(name)}\s+-?[0-9.]+(e-?\d+)?\s+{re.escape(unit)}$"
    return re.search(pattern, stdout, re.MULTILINE) is not None


def record_of(workload: str, trace: int) -> dict:
    path = ROOT / ".perfbench_runs" / f"{workload}-seed3-trace{trace}.json"
    return json.loads(path.read_text(encoding="utf-8"))


def check_benchmark_json() -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.GATED
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == spans.TRACE_UNITS
    assert [w["name"] for w in spec["workloads"]] == ["ablation", "tune", "datapath"]


def check_workload(workload: str) -> None:
    plain = bench(workload, 0)
    result = result_of(plain)
    assert {k: v["unit"] for k, v in result["metrics"].items()} == run.GATED
    assert all(v["value"] > 0 for v in result["metrics"].values()), result["metrics"]
    for name in (*run.GATED, *WORKLOAD_METRICS[workload], "ops_failed_share"):
        unit = {**run.GATED, **run.REPORTED}[name]
        assert printed(plain.stdout, name, unit), f"{workload}: {name} [{unit}] not printed"
    untraced = record_of(workload, 0)
    assert untraced["end_to_end"]["ops_failed_share"] == 0.0

    traced = []
    for _ in range(2):
        proc = bench(workload, 1)
        result = result_of(proc)
        assert {k: v["unit"] for k, v in result["metrics"].items()} == spans.TRACE_UNITS
        for name, unit in spans.TRACE_UNITS.items():
            assert printed(proc.stdout, name, unit), f"{workload}: {name} [{unit}] not printed"
        traced.append(record_of(workload, 1))
    for name in spans.EXACT:
        values = [t["per_layer"][name] for t in traced]
        assert values[0] == values[1], f"{workload}: {name} did not repeat: {values}"
    digests = [untraced["passes"][0]["digests"]] + [t["passes"][0]["digests"] for t in traced]
    assert digests[0] == digests[1] == digests[2], f"{workload}: outputs differ between runs"
    layers = traced[0]["per_layer"]
    if workload == "tune":
        assert (layers["tuning.trials"], layers["tuning.trial_epochs"]) == (20, 72)
        assert layers["tuning.retrained_epoch_share"] == 0.125
    if workload in ("ablation", "tune"):
        assert layers["nn_core.lstm_steps"] > 0 and layers["models.epochs"] > 0
    else:
        assert layers["features.window_mb"] > 0 and layers["models.predict_s"] > 0
    assert not any(p.get("unwrapped") or p.get("hook_errors") for p in traced[0]["passes"])
    print(f"ok {workload}")


def check_refuses_without_sources() -> None:
    bare = ROOT / ".perfbench_work" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
        proc = bench("ablation", 0, cwd=bare)
        assert proc.returncode != 0 and not proc.stdout.strip(), (proc.returncode, proc.stdout)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    print("ok refuses without sources")


def main() -> int:
    check_benchmark_json()
    for workload in WORKLOAD_METRICS:
        check_workload(workload)
    check_refuses_without_sources()
    return 0


if __name__ == "__main__":
    sys.exit(main())
