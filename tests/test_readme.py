import os
import re
import subprocess
import sys
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"

# The quickstart runs in a fresh interpreter with scipy and numpy.random made
# unimportable, as the demos and the README's CLI block run in CI: pptball
# depends on numpy alone, so every shipped script must need nothing more.
RUNNER = (
    "import sys; sys.modules['scipy'] = None; sys.modules['numpy.random'] = None; "
    "exec(compile(sys.stdin.read(), 'README.md quickstart', 'exec'), {})"
)


def test_readme_quickstart_runs():
    import pptball

    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), flags=re.DOTALL)
    assert blocks, "README.md has no python block"
    src = str(Path(pptball.__file__).resolve().parent.parent)
    run = subprocess.run(
        [sys.executable, "-c", RUNNER],
        input=blocks[0],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True,
        text=True,
    )
    assert run.returncode == 0, run.stderr
