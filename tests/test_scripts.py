"""The scripts under scripts/ run from a checkout with PYTHONPATH=src."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_inequality_atlas_script_runs():
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "run_inequality_atlas.py"), "--kmax", "6", "--nmax", "20", "--pmax", "13"],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert "violations      : 0" in proc.stdout
