import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def _run_python(args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    return subprocess.run(
        [sys.executable, *args],
        capture_output=True, text=True, timeout=120, env=env, cwd=ROOT,
    )


# coverage_study.py is left out: it runs a full study (tens of seconds)
@pytest.mark.parametrize(
    "demo", ["bandwidth_profile.py", "mode_region_2d.py", "univariate_sets.py"]
)
def test_demo_runs(demo):
    proc = _run_python([str(ROOT / "demos" / demo)])
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout


def test_readme_quickstart_runs():
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    section = text[text.index("## Library quickstart"):]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    proc = _run_python(["-c", code])
    assert proc.returncode == 0, proc.stderr
