"""The suite's pytest configuration: its warning filters leave a failing
Hypothesis test its report, and a misspelt marker fails the run."""

import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"

MISSPELT = """
import pytest


@pytest.mark.slwo
def test_marked():
    pass
"""

FAILING = """
from hypothesis import given, settings
from hypothesis import strategies as st


@settings(database=None)
@given(st.integers(0, 10))
def test_fails(n):
    assert n < 5
"""


def _run_pytest(tmp_path, name, source):
    """Run pytest on one test file under the suite's configuration; return the run and its output.

    The run writes only into tmp_path: its rootdir, with no cache and no database.
    """
    (tmp_path / name).write_text(source)
    args = ["-q", "-c", str(PYPROJECT), "--rootdir", str(tmp_path), "-p", "no:cacheprovider"]
    run = subprocess.run(
        [sys.executable, "-m", "pytest", *args, name],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=120,
    )
    return run, run.stdout + run.stderr


def test_failing_hypothesis_test_shows_its_example(tmp_path):
    # On a failure Hypothesis imports libcst, which warns that
    # mypy_extensions.TypedDict is deprecated.  Under the suite's own
    # filters that warning must not end the run in INTERNALERROR.
    run, output = _run_pytest(tmp_path, "test_failing.py", FAILING)
    assert run.returncode == 1, output
    assert "Falsifying example" in output
    assert "INTERNALERROR" not in output


def test_misspelt_marker_fails_collection(tmp_path):
    # A test marked @pytest.mark.slwo instead of slow would otherwise run in
    # the default selection, with only a warning.
    run, output = _run_pytest(tmp_path, "test_misspelt.py", MISSPELT)
    assert run.returncode == 2, output
    assert "'slwo' not found in `markers` configuration option" in output
