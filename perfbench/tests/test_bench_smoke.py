"""Tiny end-to-end runs of the benchmark command, invoked the way BENCHMARK.json specifies."""

import json
import os
import shutil
import subprocess
import sys

import pytest

import run
from conftest import BENCH, ROOT

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    SPEC = json.load(_fh)


def _bench(cwd, workload, trace):
    # The golden seed, so that one round of each workload is also checked
    # against the stored golden files.
    seed = str(run.GOLDEN_SEED)
    cmd = SPEC["command"] + ["--workload", workload, "--seed", seed, "--seconds", "0.01", "--trace", str(trace)]
    cmd[0] = sys.executable if cmd[0] == "python3" else cmd[0]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


def _units(metrics):
    return {name: m["unit"] for name, m in metrics.items()}


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_one_round_of_each_workload_passes(workload):
    proc = _bench(ROOT, workload, 0)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] is True
    assert "failure golden" not in proc.stdout
    assert _units(result["metrics"]) == {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert all(m["value"] > 0 for m in result["metrics"].values())
    for m in SPEC["end_to_end"]:
        assert "%s/%s = " % (workload, m["name"]) in proc.stdout


def test_traced_run_prints_every_per_layer_metric():
    proc = _bench(ROOT, "monoids", 1)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True
    assert _units(result["metrics"]) == {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert result["metrics"]["trace.missing"]["value"] == 0


def test_fails_without_the_package_source(scratch_dir):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), scratch_dir)
    for path in SPEC["paths"]:
        shutil.copytree(os.path.join(ROOT, path), os.path.join(scratch_dir, path),
                        ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench(scratch_dir, SPEC["workloads"][0]["name"], 0)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
    assert os.path.basename(BENCH) in SPEC["paths"]
