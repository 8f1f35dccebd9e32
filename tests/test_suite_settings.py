"""The suite's own pytest settings report a failing property test."""

import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"

FAILING_PROPERTY = """\
from hypothesis import given, strategies as st


@given(st.integers())
def test_always_fails(n):
    assert False
"""


def test_a_failing_property_prints_its_falsifying_example(tmp_path):
    """Under the suite's settings, where a warning is an error, a failing
    ``@given`` test fails as a test (exit 1) and shows its example, not as
    an internal error of the run (exit 3) that shows none."""
    (tmp_path / "test_property.py").write_text(FAILING_PROPERTY)
    done = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(PYPROJECT),
         "--rootdir", str(tmp_path), "-p", "no:cacheprovider", "-q",
         "test_property.py"],
        cwd=tmp_path, capture_output=True, text=True, check=False,
    )
    assert done.returncode == 1, done.stdout + done.stderr
    assert "Falsifying example" in done.stdout
