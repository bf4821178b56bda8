"""perfbench's tiny runs pass their own checks against the program as it stands.

Each workload runs once at ``--size tiny --seconds 0`` on copies of
``perfbench/`` and ``src/``, so a change that breaks the benchmark's
in-process checks (its ``train`` probe, its walk of the window arrays, its
digests of finite results) fails here, not first in a benchmark run. The
runs read perfbench and change none of its files.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("workload", ["ablation", "tune", "datapath"])
def test_tiny_run_is_correct(tmp_path, workload):
    for name in ("perfbench", "src"):
        shutil.copytree(ROOT / name, tmp_path / name, ignore=shutil.ignore_patterns("__pycache__"))
    run = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--size", "tiny", "--seconds", "0",
         "--seed", "3"],
        cwd=tmp_path, capture_output=True, text=True, timeout=600,
    )
    assert run.returncode == 0, run.stderr
    result = json.loads(run.stdout.splitlines()[-1])
    assert result["correct"] is True and result["failed"] == 0, run.stdout
