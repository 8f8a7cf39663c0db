"""Smoke test of the benchmark: every workload on tiny inputs, traced and
untraced, must report every declared metric and no failed invocation;
a wrong exit code or a missing or truncated output must count as a
failed invocation, not crash the benchmark.

Run with `python -m pytest bench` from the repository root.
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))
SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text(encoding="utf-8"))


def _run(root: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "bench/run.py", *args], cwd=root, capture_output=True, text=True,
        timeout=175,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_smoke_run_reports_every_metric(workload, trace):
    proc = _run(BENCH.parent, "--workload", workload, "--seed", "7", "--seconds", "1",
                "--trace", str(trace), "--smoke")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] >= 1
    assert result["failed"] == 0 and result["correct"] is True, proc.stderr
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {
        name: m["unit"] for name, m in result["metrics"].items()
    }
    for name, m in result["metrics"].items():
        assert isinstance(m["value"], (int, float)) and math.isfinite(m["value"]), name
        assert m["value"] > 0 or trace, name


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns(".work", "__pycache__"))
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    proc = _run(tmp_path, "--workload", SPEC["workloads"][0]["name"], "--seed", "1",
                "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert proc.stdout == ""



@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_missing_or_truncated_output_counts_as_failed(workload, tmp_path):
    import run
    import workloads

    def failed(inv, code: int, text: str | None = None) -> int:
        out = tmp_path / inv.args["out"]
        run.clear(out)
        if text is not None:
            out.write_text(text, encoding="utf-8")
        runner = run.Runner(tmp_path, deadline=0.0)
        runner.record(inv, code, "")
        return runner.failed

    for inv in workloads.WORKLOADS[workload](tmp_path, 7, True):
        assert [failed(inv, code) for code in (0, 1, 2)] == [1, 1, 1], inv.id
        if inv.args["out"].endswith((".json", ".csv")):
            assert failed(inv, 0, "{") == 1, inv.id
