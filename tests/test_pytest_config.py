"""The suite's warning filters must not turn a failing test into an abort.

Runtime and deprecation warnings are errors in the suite (see
``filterwarnings`` in ``pyproject.toml``). When a property test fails,
hypothesis imports libcst to describe the failing example, and libcst
subclasses mypy_extensions' deprecated ``TypedDict``; raised as an error,
that warning ended the session with ``INTERNALERROR`` and hid every
later result.
"""

import pathlib
import subprocess
import sys

PYPROJECT = pathlib.Path(__file__).resolve().parents[1] / "pyproject.toml"

FAILING_PROPERTY = '''
from hypothesis import given, settings, strategies as st


@settings(derandomize=True, database=None)
@given(st.integers(0, 10))
def test_a_failing_property(x):
    assert x < 5


def test_a_passing_test_after_it():
    pass
'''


def test_a_failing_property_test_leaves_the_session_running(tmp_path):
    path = tmp_path / "test_property.py"
    path.write_text(FAILING_PROPERTY)
    done = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(PYPROJECT), "--rootdir", str(tmp_path),
         "-p", "no:cacheprovider", "-rA", path.name],
        cwd=tmp_path, capture_output=True, text=True, timeout=300,
    )
    out = done.stdout + done.stderr
    assert "INTERNALERROR" not in out
    assert "PASSED test_property.py::test_a_passing_test_after_it" in out
    assert "FAILED test_property.py::test_a_failing_property" in out
    assert done.returncode == 1  # tests failed, not an internal error (3)
