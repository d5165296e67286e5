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
    # the same warning rule as the Tier-1 run: a warning in a demo fails it
    cmd = [sys.executable, "-X", "dev", "-W", "error", str(demo)]
    proc = subprocess.run(cmd, capture_output=True, text=True, env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr
