"""Smoke tests: every example script runs end-to-end and prints its report."""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

EXAMPLES_DIR = Path(__file__).resolve().parent.parent / "examples"


def run_example(name: str, *args: str) -> str:
    result = subprocess.run(
        [sys.executable, str(EXAMPLES_DIR / name), *args],
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert result.returncode == 0, result.stderr
    return result.stdout


def test_quickstart_example():
    out = run_example("quickstart.py")
    assert "Kogan-Parter shortcut" in out
    assert "structurally valid          : True" in out


def test_mst_and_mincut_example():
    out = run_example("mst_and_mincut.py")
    assert "kogan-parter" in out
    assert "ratio 1.000" in out


def test_distributed_construction_example():
    out = run_example("distributed_construction.py")
    assert "known diameter" in out
    assert "spanning verification      : True" in out
    # Every random choice, the sampled quality report's included, is seeded.
    assert run_example("distributed_construction.py") == out


def test_reproduce_experiments_single():
    out = run_example("reproduce_experiments.py", "--fast", "--experiment", "E12")
    assert "E12" in out
    assert "probability" in out
