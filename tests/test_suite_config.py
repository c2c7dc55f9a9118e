"""The suite's pytest configuration reports a failing property test normally."""

import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"

FAILING = """\
from hypothesis import given, strategies as st


@given(st.integers())
def test_fails(n):
    assert n < 0
"""


def test_failing_hypothesis_test_prints_falsifying_example(tmp_path):
    # under filterwarnings = "error", a warning raised while hypothesis builds
    # its failure report would turn the report into an INTERNALERROR
    (tmp_path / "test_fail.py").write_text(FAILING)
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(PYPROJECT),
         "--rootdir", str(tmp_path), "-p", "no:cacheprovider", "test_fail.py"],
        capture_output=True, text=True, cwd=tmp_path)
    out = proc.stdout + proc.stderr
    assert proc.returncode == 1, out
    assert "Falsifying example" in out
    assert "INTERNALERROR" not in out
