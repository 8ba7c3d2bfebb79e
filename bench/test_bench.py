"""Tests of the benchmark harness itself, at smoke sizes.

Run from the root of a checkout:  python3 -m pytest bench
"""

import json
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "bench"), str(ROOT / "src")]

import run  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _smoke(workload: str, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", "5",
         "--seconds", "0.5", "--trace", str(trace), "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )  # fmt: skip
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_benchmark_json_lists_the_harness_metrics_and_workloads():
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == run.PER_LAYER_UNITS


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_smoke_prints_every_metric_with_its_unit(workload, trace):
    result = _smoke(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 2
    spec = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in spec
    }


def test_traced_counts_repeat_exactly_between_runs():
    first, second = _smoke("trajectory", 1), _smoke("trajectory", 1)
    counts = [
        {k: m["value"] for k, m in r["metrics"].items() if k.endswith((".calls", "_out"))}
        for r in (first, second)
    ]
    assert counts[0] == counts[1]
    assert counts[0]["pictures.evolve.calls"] == run.SMOKE.trajectory_steps


def _runner(out_dir: Path) -> run.Runner:
    return run.Runner(ROOT / "src", out_dir, deadline=time.monotonic() + 120)


def _bump_first_digit(row: str) -> str:
    return re.sub(r"\d", lambda m: str((int(m[0]) + 1) % 10), row, count=1)


CORRUPTIONS = {
    "sweep": _bump_first_digit,  # theta of the last row
    "trajectory": _bump_first_digit,  # time label of the last row
    "equiv": lambda row: row.replace("PASS", "FAIL"),
}


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_corrupted_row_counts_as_failure(workload, tmp_path, monkeypatch):
    def corrupted(path):
        lines = path.read_text().splitlines(keepends=True)
        lines[-1] = CORRUPTIONS[workload](lines[-1])
        return "".join(lines).encode()

    monkeypatch.setattr(run, "read_output", corrupted)
    work = run.make_workload(workload, 5, run.SMOKE)
    result = run.timed_run(work, 0.1, run.SMOKE, _runner(tmp_path))
    runs = result.attempted - run.SMOKE.setup_repeats - 1
    assert runs >= 2 and result.failed == runs


def test_output_differing_from_the_first_run_counts_as_failure(tmp_path, monkeypatch):
    reads = []

    def second_differs(path):
        out = path.read_bytes()
        reads.append(out)
        # A last-digit change stays within the oracle's tolerance; only the
        # byte-identity check can catch it.
        return out[:-3] + bytes([out[-3] ^ 1]) + out[-2:] if len(reads) == 2 else out

    monkeypatch.setattr(run, "read_output", second_differs)
    work = run.make_workload("trajectory", 5, run.SMOKE)
    result = run.timed_run(work, 0.1, run.SMOKE, _runner(tmp_path))
    assert len(reads) >= 2 and result.failed == 1
