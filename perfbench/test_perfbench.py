"""Self-tests of the benchmark: metric names and units, the failure gate.

Run with ``python3 -m pytest perfbench -q`` from the repository root.
Each test runs the benchmark as its own process, briefly.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest
from tracer import self_times

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def _run(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    cmd = [sys.executable, *SPEC["command"][1:], "--seed", "3", "--seconds", "0", *args]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace", ["0", "1"])
def test_every_metric_printed_with_its_unit(workload: str, trace: str) -> None:
    out = _run("--workload", workload, "--trace", trace)
    assert out.returncode == 0, out.stderr
    lines = out.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0, out.stderr
    assert result["attempted"] >= 1
    expected = SPEC["end_to_end" if trace == "0" else "per_layer"]
    assert result["metrics"] == {
        m["name"]: {"value": result["metrics"][m["name"]]["value"], "unit": m["unit"]}
        for m in expected
    }
    record = json.loads(lines[-2])["record"]
    assert record["provenance"]["seed"] == 3
    assert set(record["properties"]) == {"repeated_share", "dispatch_mix", "shardable_share"}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_wrong_reference_counts_as_failure(workload: str) -> None:
    out = _run("--workload", workload, "--corrupt-reference")
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert result["correct"] is False
    assert 0 < result["failed"] <= result["attempted"]
    assert result["metrics"]["pass_frac"]["value"] < 1.0
    assert "FAIL" in out.stderr


def test_exits_nonzero_without_the_library(tmp_path: Path) -> None:
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    out = _run("--workload", WORKLOADS[0], cwd=tmp_path)
    assert out.returncode != 0
    assert out.stdout.strip() == ""


def test_self_time_subtracts_direct_children_only() -> None:
    spans = [(0, 10, "a"), (2, 5, "b"), (3, 4, "c"), (6, 8, "b"), (12, 13, "a")]
    assert self_times(spans) == {"a": 10 - 3 - 2 + 1, "b": 3 - 1 + 2, "c": 1}
