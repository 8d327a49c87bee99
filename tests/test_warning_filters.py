"""The suite's warning filters leave a failing Hypothesis test its report."""

import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"

FAILING = """
from hypothesis import given, settings
from hypothesis import strategies as st


@settings(database=None)
@given(st.integers(0, 10))
def test_fails(n):
    assert n < 5
"""


def test_failing_hypothesis_test_shows_its_example(tmp_path):
    # On a failure Hypothesis imports libcst, which warns that
    # mypy_extensions.TypedDict is deprecated.  Under the suite's own
    # filters that warning must not end the run in INTERNALERROR.  The run
    # writes only into tmp_path: its rootdir, with no cache and no database.
    (tmp_path / "test_failing.py").write_text(FAILING)
    args = ["-q", "-c", str(PYPROJECT), "--rootdir", str(tmp_path), "-p", "no:cacheprovider"]
    run = subprocess.run(
        [sys.executable, "-m", "pytest", *args, "test_failing.py"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=120,
    )
    output = run.stdout + run.stderr
    assert run.returncode == 1, output
    assert "Falsifying example" in output
    assert "INTERNALERROR" not in output
