"""Every demo script runs to the end without a traceback."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=[path.name for path in DEMOS])
def test_demo_runs(demo, tmp_path):
    # Run from an empty directory: run_experiment_suite.py writes its CSVs
    # under ./demo_results.
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    done = subprocess.run(
        [sys.executable, str(demo)], cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120
    )
    assert done.returncode == 0, done.stderr
    assert "Traceback" not in done.stderr
