"""The scripts in demos/ run to completion against the current package."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from batchfrag.report import LONG_CSV_HEADER

ROOT = Path(__file__).resolve().parent.parent

# Script -> (CSV it writes into its working directory, that file's header).
DEMOS = {
    "fragmentation_curve.py": ("fragments_curve.csv",
                               "batch_size,expected_fragments"),
    "recall_model_tour.py": None,
    "single_trial_walkthrough.py": None,
    "validation_sweep.py": ("validation_sweep.csv", LONG_CSV_HEADER),
}


@pytest.mark.parametrize("script", sorted(DEMOS))
def test_demo_runs(script, tmp_path):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, str(ROOT / "demos" / script)],
                          cwd=tmp_path, env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    if DEMOS[script] is not None:
        name, header = DEMOS[script]
        lines = (tmp_path / name).read_text(encoding="utf-8").splitlines()
        assert lines[0] == header
