"""The repo's pytest settings: a failing property test is reported as a
failure, and the rest of the run goes on."""

import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"

PROPERTY_TESTS = '''
from hypothesis import given, strategies as st


@given(st.integers(0, 10))
def test_fails(n):
    assert n < 0


def test_passes():
    pass
'''


def test_failing_property_test_does_not_abort_the_run(tmp_path):
    # when a property fails, hypothesis's report hook trips a dependency's
    # DeprecationWarning; unless the settings ignore it, filterwarnings =
    # error turns it into an INTERNALERROR that stops the whole session
    (tmp_path / "test_property.py").write_text(PROPERTY_TESTS)
    out = subprocess.run([sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
                          "-c", str(PYPROJECT), "--rootdir", str(tmp_path),
                          "test_property.py"],
                         cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert "INTERNALERROR" not in out.stdout + out.stderr
    assert "1 failed, 1 passed" in out.stdout
