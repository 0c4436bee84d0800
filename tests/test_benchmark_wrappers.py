"""The layer names the repository benchmark wraps still exist, once each.

``perfbench/tracing.py`` times each layer by replacing ``repro`` functions
and methods by name, so a renamed one fails every traced benchmark run with
``AttributeError``.  Installing its wrappers in a fresh interpreter against
this checkout's ``src/`` catches such a rename in the test suite.  A name
that is an alias of another wrapped name (a class bound under two names)
would have its function wrapped twice, timing every call into two spans;
the second test catches that.
"""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

PRELUDE = (
    "import sys\n"
    f"sys.path[:0] = [{os.path.join(ROOT, 'src')!r}, {os.path.join(ROOT, 'perfbench')!r}]\n"
    "import tracing\n"
)

#: Records every function attribute of every ``repro`` module and of every
#: class those modules define, installs the wrappers, and prints each
#: attribute whose new value does not wrap the function ``src/`` defined
#: there: a wrapper of a wrapper.
NO_DOUBLE_WRAPPER = PRELUDE + """\
import importlib
import inspect
import pkgutil

import repro

for info in pkgutil.walk_packages(repro.__path__, "repro."):
    if not info.name.endswith("__main__"):
        importlib.import_module(info.name)
owners = {}
for name, module in list(sys.modules.items()):
    if name == "repro" or name.startswith("repro."):
        owners[id(module)] = (module, name)
        for value in vars(module).values():
            if inspect.isclass(value) and value.__module__.startswith("repro"):
                owners[id(value)] = (value, f"{value.__module__}.{value.__qualname__}")
defined = [
    (owner, label, attr, value)
    for owner, label in owners.values()
    for attr, value in list(vars(owner).items())
    if inspect.isfunction(value)
]
tracing.install(tracing.Recorder())
for owner, label, attr, value in defined:
    now = vars(owner)[attr]
    if now is not value and getattr(now, "__wrapped__", None) is not value:
        print(f"{label}.{attr}")
"""


def run(script):
    return subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, timeout=120
    )


def test_tracing_installs_against_src():
    done = run(PRELUDE + "tracing.install(tracing.Recorder())\n")
    assert done.returncode == 0, done.stderr


def test_no_wrapper_wraps_another_wrapper():
    done = run(NO_DOUBLE_WRAPPER)
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == [], "wrapped twice: " + done.stdout
