"""The repo's pytest configuration under the strict command line CI uses."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

FAILING_PROPERTY = '''
from hypothesis import given, strategies as st


@given(st.integers(0, 10))
def test_property_fails(n):
    assert n < 0, "deliberate failure"
'''


def test_failing_property_reports_its_assertion_under_dev_mode_and_w_error(tmp_path):
    """A failing hypothesis property under `python -X dev -W error -m pytest`
    ends in its own failure report, not in an INTERNALERROR raised by a
    warning from the report hook."""
    (tmp_path / "test_property.py").write_text(FAILING_PROPERTY)
    run = subprocess.run(
        [sys.executable, "-X", "dev", "-W", "error", "-m", "pytest",
         "-c", str(ROOT / "pyproject.toml"), "--rootdir", str(tmp_path),
         "-q", "-p", "no:cacheprovider", "test_property.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    out = run.stdout + run.stderr
    assert run.returncode == 1, out
    assert "AssertionError: deliberate failure" in out
    assert "FAILED test_property.py::test_property_fails" in out
    assert "INTERNALERROR" not in out
