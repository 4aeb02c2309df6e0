"""The scripts in demos/ and README's library quick start run to completion
against the current package."""

import os
import re
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


def test_readme_quick_start_values():
    """README's python block runs, and each commented line shows what it
    computes: the model values exactly, the estimate to the digits shown."""
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    block = re.search(r"```python\n(.*?)```", readme, re.DOTALL).group(1)
    namespace = {}
    exec(block, namespace)
    shown = {}  # each comment -> the value of the code before it
    for line in block.splitlines():
        code, _, comment = line.partition("#")
        if comment:
            shown[comment.strip()] = eval(code, namespace)
    assert repr(shown["Fraction(13, 4)"]) == "Fraction(13, 4)"
    assert repr(shown["20.516331951607658"]) == "20.516331951607658"
    mean, std_error = shown["simulated counterpart: 20.473 +/- 0.126"]
    assert (round(mean, 3), round(std_error, 3)) == (20.473, 0.126)
