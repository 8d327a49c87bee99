"""The benchmark's own gate and hooks run against the library.

``perfbench/run.py`` checks each command's report with ``check_report`` and
traces pptball through ``spans.Tracer``, whose hooks name private functions
(``witness._seesaw_once``, the validators' ``__post_init__``); ``kernels``
reads the grid constants.  A library change that drops a report field or a
hooked name fails here, not only in the benchmark's own runs.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

from pptball import get_upb
from pptball.cli import main

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture
def run_module(monkeypatch):
    """perfbench/run.py as a module; the environment and sys.modules are restored after."""
    spec = importlib.util.spec_from_file_location("perfbench_run", PERFBENCH / "run.py")
    module = importlib.util.module_from_spec(spec)
    # run.py pins these at import; setting them first lets monkeypatch restore them.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        monkeypatch.setenv(var, "1")
    # Its dataclasses look their module up in sys.modules while they are defined.
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize(
    "command, flags",
    [("lambda", ()), ("profile", ()), ("verify", ("--trials", "20")),
     ("membership", ("--trials", "20"))],
)
def test_check_report_accepts_every_command(run_module, tmp_path, command, flags):
    path = tmp_path / "report.json"
    assert main([command, "--upb", "shifts", "--seed", "3", *flags, "--output", str(path)]) == 0
    problems, _ = run_module.check_report(command, "shifts", 3, path.read_bytes())
    assert problems == []


def test_tracer_hooks_and_kernel_constants_resolve(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    spans = importlib.import_module("spans")
    kernels = importlib.import_module("kernels")
    with spans.Tracer().installed():
        pass
    pairs, flops, nbytes = kernels.grid_pair_work(get_upb("tiles"))
    assert 0 < pairs < flops and nbytes > 0
