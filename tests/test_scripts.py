"""The scripts under scripts/ run from a checkout with PYTHONPATH=src."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


# the script's whole standard output on the small box, less its elapsed line
SMALL_BOX_ATLAS = """\
triples scanned : 128
violations      : 0
smallest margin : master - 1 = 0
quadrants       :
    alpha2!=0,alpha3!=0      4
    alpha2!=0,alpha3=0       13
    alpha2=0,alpha3!=0       19
    alpha2=0,alpha3=0        92
certificates    :
    alpha2                   13
    alpha3                   19
    full                     4
    index                    79
    index+2eps3/3            7
    index+eps2/2             6
"""


def test_inequality_atlas_script_runs():
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "run_inequality_atlas.py"), "--kmax", "6", "--nmax", "20", "--pmax", "13"],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert "violations      : 0" in proc.stdout
    *lines, elapsed = proc.stdout.splitlines(keepends=True)
    assert elapsed.startswith("elapsed         : ")
    assert "".join(lines) == SMALL_BOX_ATLAS
