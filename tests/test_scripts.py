"""Smoke runs of the experiment scripts on tiny budgets: each must exit 0."""

import subprocess
import sys
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"
SMOKE_ARGS = {
    "run_oracle_check.py": ["--seeds", "1", "--tc", "300"],
    "run_planted_experiment.py": [
        "--families", "2", "--configs", "4", "--instances", "16", "--k", "2",
        "--tc", "300", "--tv", "100", "--r", "1", "--permutations", "100",
    ],
}


@pytest.mark.parametrize("script", sorted(SMOKE_ARGS))
def test_script_runs(script):
    done = subprocess.run(
        [sys.executable, str(SCRIPTS / script), *SMOKE_ARGS[script]],
        capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr
