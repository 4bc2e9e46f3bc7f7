"""The repository's pytest configuration reports a failing property and runs on."""

import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"

FAILING_PROPERTY_THEN_PASSING_TEST = '''
from hypothesis import given, strategies as st


@given(st.integers())
def test_fails(n):
    assert n < 0


def test_passes():
    assert True
'''


def test_a_failing_property_lets_the_next_test_run(tmp_path):
    """Under `filterwarnings = ["error"]` a warning that hypothesis raises while it
    reports a failure must not abort the session (INTERNALERROR, exit 3)."""
    (tmp_path / "test_two.py").write_text(FAILING_PROPERTY_THEN_PASSING_TEST, encoding="utf-8")
    done = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(PYPROJECT), "--rootdir", str(tmp_path),
         "-p", "no:cacheprovider", "-q", "test_two.py"],
        cwd=tmp_path,
        capture_output=True,
        timeout=300,
    )
    out = done.stdout.decode("utf-8", "replace")
    assert done.returncode == 1, out
    assert "1 failed, 1 passed" in out
