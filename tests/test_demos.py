"""Every demo script and README code block runs to completion with
warnings turned into errors."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))
README_BLOCKS = re.findall(r"^```python\n(.*?)^```", (ROOT / "README.md").read_text(),
                           flags=re.M | re.S)


def run_python(args, cwd, **env_vars):
    # the demos write their artifacts to the working directory, and demo 06
    # starts `python -m phnet.cli`, so phnet must import from any directory
    env = dict(os.environ, **env_vars)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-W", "error"] + args, cwd=cwd,
                          env=env, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr[-2000:]


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.stem)
def test_demo_runs(demo, tmp_path):
    # nothing goes to the system temporary directory, which no test cleans
    work, tmp = tmp_path / "work", tmp_path / "tmp"
    work.mkdir()
    tmp.mkdir()
    run_python([str(demo)], work, TMPDIR=str(tmp))
    assert list(tmp.iterdir()) == []


def test_readme_python_blocks_run(tmp_path):
    assert README_BLOCKS      # the quick start is one
    for block in README_BLOCKS:
        run_python(["-c", block], tmp_path)
