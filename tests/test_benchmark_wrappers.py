"""The layer names the repository benchmark wraps still exist.

``perfbench/tracing.py`` times each layer by replacing ``repro`` functions
and methods by name, so a renamed one fails every traced benchmark run with
``AttributeError``.  Installing its wrappers in a fresh interpreter against
this checkout's ``src/`` catches such a rename in the test suite.
"""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_tracing_installs_against_src():
    script = (
        "import sys\n"
        f"sys.path[:0] = [{os.path.join(ROOT, 'src')!r}, {os.path.join(ROOT, 'perfbench')!r}]\n"
        "import tracing\n"
        "tracing.install(tracing.Recorder())\n"
    )
    done = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, timeout=120
    )
    assert done.returncode == 0, done.stderr
