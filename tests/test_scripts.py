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
    ("structure_scan.py", ["3", "2"], "n=2 d=1: M ~ M(1) | S ~ 0 | dim=1 oracle=1"),
    ("spectra_scan.py", ["4", "2"],
     "alpha = 1,1: lambda(2,1) = 3 x2, lambda(1,1,1) = 0 x1; rank 2/3"
     "  [vanishing: 1,1,1]"),
], ids=["structure_scan", "structure_scan_n2", "spectra_scan"])
def test_script_runs(script, args, line):
    assert line in _run(script, args)


def test_structure_scan_leaves_the_cap_to_the_oracle():
    # under a cap of 8 the oracle refuses d^n = 16, and the line says nothing of it
    lines = _run("structure_scan.py", ["4", "2"], PTALGEBRA_CAP="8")
    assert "n=3 d=2: M ~ M(2) | S ~ M(1) | dim=5 oracle=5" in lines
    assert "n=4 d=2: M ~ M(3) + M(2) | S ~ M(1) | dim=14" in lines


def _run(script, args, **env) -> list[str]:
    """The stdout lines of a script run to exit 0, with ``env`` added."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), **env)
    result = subprocess.run([sys.executable, str(ROOT / "scripts" / script), *args],
                            env=env, capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
    return result.stdout.splitlines()
