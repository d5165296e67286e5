"""Every script in ``demos/`` runs to completion against the library in this tree."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import noisymis

DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=[demo.name for demo in DEMOS])
def test_demo_runs(demo):
    env = {**os.environ, "PYTHONPATH": str(Path(noisymis.__file__).resolve().parents[1])}
    proc = subprocess.run([sys.executable, str(demo)], capture_output=True, text=True, env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr
