"""The example scripts run end to end against the package, with warnings as errors."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize(
    "script, args",
    [
        ("make_demo_case.py", ["--n", "300", "--lines", "100", "--out", "{tmp}/demo.csv"]),
        ("decorrelation_demo.py", ["--n", "2000"]),
        ("fit_recovery.py", ["--n", "2000"]),
        ("fit_survey.py", ["--seeds", "3", "--sizes", "3,5,10"]),
    ],
)
def test_script_exits_0(tmp_path, script, args):
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(ROOT / "src"), os.environ.get("PYTHONPATH", "")])}
    argv = [a.format(tmp=tmp_path) for a in args]
    proc = subprocess.run(
        [sys.executable, "-W", "error", str(ROOT / "scripts" / script), *argv],
        capture_output=True, text=True, env=env, cwd=tmp_path, timeout=300,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stderr == ""
