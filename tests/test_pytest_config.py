"""The pytest configuration itself: a failing property test reports its
falsifying example under the repo's warning filters."""

import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).parent.parent / "pyproject.toml"

FAILING = """
from hypothesis import given, strategies as st


@given(st.integers())
def test_fails(n):
    assert n < 5
"""


def test_failing_hypothesis_test_prints_its_example(tmp_path):
    (tmp_path / "test_fails.py").write_text(FAILING)
    done = subprocess.run([sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
                           "-c", str(PYPROJECT), "test_fails.py"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=300)
    out = done.stdout + done.stderr
    assert done.returncode == 1, out
    assert "Falsifying example" in out and "INTERNALERROR" not in out, out
