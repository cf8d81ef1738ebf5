"""A failing hypothesis example reports as an ordinary failure under `-X dev -W error`.

The test runs a two-test file through pytest in a fresh interpreter, with this
directory's conftest loaded as a plugin, the way the suite itself loads it. Without
libcst installed, hypothesis writes no patch and the test passes trivially.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

pytest.importorskip("hypothesis")

TWO_TESTS = '''
from hypothesis import given, settings, strategies as st


@settings(derandomize=True, database=None)
@given(st.integers())
def test_fails(n):
    assert n < 5


def test_passes():
    pass
'''


def test_failing_example_does_not_end_the_session(tmp_path):
    (tmp_path / "test_two.py").write_text(TWO_TESTS)
    path = [str(Path(__file__).parent), os.environ.get("PYTHONPATH")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))}
    done = subprocess.run(
        [sys.executable, "-X", "dev", "-W", "error", "-m", "pytest", "-q", "-p", "conftest",
         "-p", "no:cacheprovider", "test_two.py"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120)
    assert "INTERNALERROR" not in done.stdout + done.stderr
    assert "1 failed, 1 passed" in done.stdout, done.stdout + done.stderr
