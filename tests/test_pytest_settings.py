"""The suite's own pytest settings: warnings are errors, yet a failing
property test does not stop the run.

When a Hypothesis test fails, its pytest plugin imports libcst to offer a
patch, and libcst raises mypy_extensions' TypedDict ``DeprecationWarning``.
``pyproject.toml`` ignores exactly that message, so pytest reports the
failure and goes on to the next test; every other warning stays an error.
"""

import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"

SCRATCH = '''
import warnings

from hypothesis import given, settings, strategies as st


@settings(database=None, max_examples=5)
@given(st.integers())
def test_fails(x):
    assert x != x


def test_passes():
    pass


def test_other_deprecation_fails():
    warnings.warn("some other API is deprecated", DeprecationWarning)
'''


def test_failing_property_test_does_not_stop_the_run(tmp_path):
    (tmp_path / "test_scratch.py").write_text(SCRATCH)
    result = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "-c", str(PYPROJECT), "--rootdir", str(tmp_path), "test_scratch.py"],
        capture_output=True, text=True, cwd=tmp_path, timeout=60,
    )
    assert result.returncode == 1, result.stdout + result.stderr
    assert "INTERNALERROR" not in result.stdout + result.stderr
    assert "FAILED test_scratch.py::test_fails" in result.stdout
    assert "FAILED test_scratch.py::test_other_deprecation_fails" in result.stdout
    assert "2 failed, 1 passed" in result.stdout
