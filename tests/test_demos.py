import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


# coverage_study.py is left out: it runs a full study (tens of seconds)
@pytest.mark.parametrize(
    "demo", ["bandwidth_profile.py", "mode_region_2d.py", "univariate_sets.py"]
)
def test_demo_runs(demo):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [sys.executable, str(ROOT / "demos" / demo)],
        capture_output=True, text=True, timeout=120, env=env, cwd=ROOT,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout
