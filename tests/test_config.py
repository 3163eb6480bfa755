"""The repository's pytest configuration keeps a failing property test
readable."""

import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

FAILING_PROPERTY = """\
from hypothesis import given, strategies as st


@given(st.integers())
def test_fails(x):
    assert x < 0
"""


def test_failing_property_prints_its_falsifying_example(tmp_path):
    # hypothesis's failure report imports modules that emit a
    # DeprecationWarning, which filterwarnings = error must not turn into
    # a pytest INTERNALERROR
    (tmp_path / "test_property.py").write_text(FAILING_PROPERTY)
    shutil.copy(ROOT / "tests" / "conftest.py", tmp_path)
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(ROOT / "pyproject.toml"),
         "--rootdir", str(tmp_path), "-p", "no:cacheprovider", "-q",
         "test_property.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=300)
    out = proc.stdout + proc.stderr
    assert proc.returncode == 1, out[-2000:]
    assert "Falsifying example" in out, out[-2000:]
    assert "INTERNALERROR" not in out, out[-2000:]
