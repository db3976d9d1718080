"""Demos 01-04 run to completion against the package's public names.

Each runs in a fresh interpreter with PYTHONPATH=src, so a demo that
imports a deleted or renamed name fails here. Demo 05 runs a full
protocol experiment (several seconds) and is left out to keep the suite
short.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("0[1-4]_*.py"))


def test_the_four_quick_demos_are_found():
    assert [d.name[:2] for d in DEMOS] == ["01", "02", "03", "04"]


@pytest.mark.parametrize("demo", DEMOS, ids=lambda d: d.stem)
def test_demo_runs(demo):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run(
        [sys.executable, str(demo)], cwd=ROOT, env=env, capture_output=True, text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip()
