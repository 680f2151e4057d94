"""A failing hypothesis test must fail alone, not stop the tier-1 run.

On a failure hypothesis imports libcst where it is installed, and libcst
warns on import; under pyproject.toml's filterwarnings that once ended the
run with INTERNALERROR before the tests after it ran.  Without libcst the
run below takes the plain path and passes all the same.
"""

import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"

TWO_TESTS = '''
from hypothesis import given, strategies as st


@given(st.integers())
def test_fails(x):
    assert False


def test_passes():
    pass
'''


def test_a_failing_given_test_leaves_the_next_test_running(tmp_path):
    (tmp_path / "test_two.py").write_text(TWO_TESTS)
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "-c", str(PYPROJECT), "--rootdir", str(tmp_path), "test_two.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    out = run.stdout + run.stderr
    assert "INTERNALERROR" not in out
    assert "1 failed, 1 passed" in out
