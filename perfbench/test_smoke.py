"""Smoke test of the benchmark at tiny sizes.

Every workload, untraced and traced, must pass its checks and emit exactly
the metrics ``BENCHMARK.json`` names, each with its unit. Run it with

    python3 -m pytest perfbench/test_smoke.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "3", "--seconds", "0", "--trace", str(trace), "--tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_every_metric_is_emitted_with_its_unit(workload, trace):
    done = bench(ROOT, workload, trace)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0, done.stdout
    assert result["attempted"] >= 1

    wanted = SPEC["per_layer" if trace else "end_to_end"]
    units = {name: entry["unit"] for name, entry in result["metrics"].items()}
    assert units == {m["name"]: m["unit"] for m in wanted}
    values = {name: entry["value"] for name, entry in result["metrics"].items()}
    if trace:
        layers = sum(v for name, v in values.items() if name.startswith("layer."))
        assert layers == pytest.approx(values["trace.wall_s"], rel=1e-9)
    else:
        assert all(v > 0 for v in values.values())


def test_fails_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path,
                        ignore=shutil.ignore_patterns("_work", "__pycache__"))
    done = bench(tmp_path, SPEC["workloads"][0]["name"], 0)
    assert done.returncode != 0
    assert done.stdout == ""


def test_pace_removes_and_scales_its_own_samples():
    from hostspeed import REFERENCE_S, Pace

    with Pace("numpy-calls", interval=0.01) as pace:
        sum(range(3_000_000))
    assert len(pace.samples) >= 3  # before, after and at least one tick
    assert 0 < pace.inside_s < pace.wall
    assert pace.work_s == pace.wall - pace.inside_s
    speed = sum(1 / s for s in pace.samples) / len(pace.samples)
    assert pace.scaled_s == pytest.approx(
        pace.work_s * REFERENCE_S["numpy-calls"] * speed)
