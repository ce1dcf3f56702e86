"""Smoke test of the benchmark harness on tiny meshes.

Runs every workload in smoke mode (tetrahedron, genus2 and a 3x3 torus
in place of the full meshes), with and without tracing.  Run it from the
root of a checkout:

    python3 -m pytest perfbench/test_smoke.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--seed", "1", "--seconds", "1", *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=170,
    )


def result_of(done):
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_every_metric_is_emitted_with_its_unit(workload, trace):
    result = result_of(bench("--workload", workload, "--trace", str(trace), "--smoke"))
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    units = {name: metric["unit"] for name, metric in result["metrics"].items()}
    assert units == {metric["name"]: metric["unit"] for metric in wanted}
    for metric in result["metrics"].values():
        assert isinstance(metric["value"], (int, float))
    if trace:
        assert abs(result["metrics"]["trace.coverage"]["value"] - 1.0) <= 0.01


def test_a_flipped_byte_in_a_trace_counts_as_a_failure():
    done = bench("--workload", "flow_smooth", "--trace", "1", "--smoke", "--corrupt-output")
    result = result_of(done)
    assert not result["correct"]
    assert result["failed"] >= 1
    assert result["metrics"]["fail_rate"]["value"] == result["failed"] / result["attempted"]
    assert "trace.csv differs from its first copy" in done.stderr


def test_without_the_program_it_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out"))
    done = bench("--workload", "solve_euclid", "--trace", "0", cwd=tmp_path)
    assert done.returncode != 0
    assert done.stdout == ""
