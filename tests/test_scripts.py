"""Smoke tests: each script in scripts/ runs to exit 0 and prints a known line."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("script, args, line", [
    ("structure_scan.py", ["3", "2"],
     "n=3 d=2: M ~ M(2) | S ~ M(1) | dim=5 oracle=5"),
    ("spectra_scan.py", ["4", "2"],
     "alpha = 1,1: lambda(2,1) = 3 x2, lambda(1,1,1) = 0 x1; rank 2/3"
     "  [vanishing: 1,1,1]"),
], ids=["structure_scan", "spectra_scan"])
def test_script_runs(script, args, line):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    result = subprocess.run([sys.executable, str(ROOT / "scripts" / script), *args],
                            env=env, capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
    assert line in result.stdout.splitlines()
