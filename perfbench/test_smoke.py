"""Smoke test of the benchmark itself, at a tiny size.

    python3 -m pytest -q perfbench/test_smoke.py

Each workload runs its cheapest few instances, traced and untraced, and must
verify every output against the captured digests with the same verdicts.
The benchmark must also refuse to run, without printing a result, in a
directory that holds only BENCHMARK.json and the benchmark's own files.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from workloads import WORKLOADS  # noqa: E402

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
LIMIT = "4"


def last_json(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


def worker(workload: str, traced: bool) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", "5", "--limit", LIMIT] + (["--trace"] if traced else [])
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=170, check=True)
    return last_json(proc.stdout)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_and_untraced_verify_the_same_outputs(workload):
    plain, traced = worker(workload, False), worker(workload, True)
    assert plain["failed"] == traced["failed"] == 0, plain["failures"] + traced["failures"]
    assert plain["checked"] == traced["checked"]
    assert len(plain["checked"]) == int(LIMIT) and all(plain["checked"].values())
    assert traced["missing"] == []


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_run_prints_every_metric(workload, trace):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "2",
           "--seconds", "1", "--trace", trace, "--limit", LIMIT]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=170, check=True)
    result = last_json(proc.stdout)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    wanted = BENCH["per_layer" if trace == "1" else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in wanted}
    for m in wanted:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns(".work", "__pycache__"))
    cmd = [sys.executable, *BENCH["command"][1:], "--workload", "corpus", "--seed", "1",
           "--seconds", "1", "--trace", "0"]
    proc = subprocess.run(cmd, cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
