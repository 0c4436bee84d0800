"""Every example script prints what it printed before.

An example's stdout is deterministic, so each one runs in a subprocess and
its output is compared with the file recorded for it under
``tests/example_output/``.  A change meant to alter an example's output
records the new file with
``PYTHONPATH=src python examples/NAME.py > tests/example_output/NAME.txt``.
"""

import os
import subprocess
import sys

import pytest

import repro

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
EXAMPLES = sorted(
    name[:-3] for name in os.listdir(os.path.join(ROOT, "examples")) if name.endswith(".py")
)


@pytest.mark.parametrize("name", EXAMPLES)
def test_example_prints_its_recorded_output(name):
    done = subprocess.run(
        [sys.executable, os.path.join(ROOT, "examples", f"{name}.py")],
        capture_output=True, encoding="utf-8", timeout=120,
        env={
            **os.environ,
            "PYTHONPATH": os.path.dirname(os.path.dirname(repro.__file__)),
            "PYTHONIOENCODING": "utf-8",
        },
    )
    assert done.returncode == 0, done.stderr
    recorded = os.path.join(ROOT, "tests", "example_output", f"{name}.txt")
    with open(recorded, encoding="utf-8") as expected:
        assert done.stdout == expected.read()
