"""The repository benchmark: one command, four workloads, every metric.

    python3 perfbench/run.py --workload fleet --seed 1 --seconds 15 --trace 0

Runs one workload (``fleet``, ``soak``, ``campaign``, ``campaign-fanout``)
from the inputs its ``--seed`` generates, checks every served verdict
against the interpreting reference engine, and prints every metric by
name and unit, the run's metadata as a ``{"meta": ...}`` JSON line, and
last one JSON line ``{"correct", "attempted", "failed", "metrics"}``.
``--trace 0`` reports the end-to-end metrics of rounds repeated for
``--seconds``; ``--trace 1`` reports the per-layer metrics of one traced
round.  The exit status is non-zero when a verdict differs from the
reference or an operation failed.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import datetime
import json
import os
import platform
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ("fleet", "soak", "campaign", "campaign-fanout")


def _git(*args: str):
    """``git`` output for the checkout itself, or None outside a repository."""
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return None
    try:
        done = subprocess.run(
            ["git", "-C", ROOT, *args], capture_output=True, text=True, timeout=30
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def metadata(args: argparse.Namespace, source: str) -> dict:
    status = _git("status", "--porcelain", "--untracked-files=no")
    try:
        nproc = len(os.sched_getaffinity(0))
    except AttributeError:
        nproc = os.cpu_count()
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "scale": args.scale,
        "started_utc": datetime.datetime.now(datetime.timezone.utc).isoformat(),
        "nproc": nproc,
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "git_sha": _git("rev-parse", "HEAD"),
        "git_dirty": None if status is None else bool(status),
        "source_sha256": source,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="perfbench/run.py", description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=15.0,
                        help="length of the measured window (rounds repeat until it ends)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: per-layer metrics from one traced round")
    parser.add_argument("--scale", type=float, default=1.0,
                        help="input size factor (the smoke test runs tiny inputs)")
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        print(f"perfbench: no repro sources under {os.path.join(ROOT, 'src')}; "
              "run from a checkout of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(ROOT, "src"))
    # Plans must compile in-process: no persistent store outside the checkout.
    os.environ.pop("REPRO_PLAN_CACHE", None)

    import inputs
    import workloads

    meta = metadata(args, inputs.source_digest())
    if args.trace:
        outcome = workloads.run_traced(args.workload, args.seed, args.scale)
    else:
        outcome = workloads.run_timed(args.workload, args.seed, args.seconds, args.scale)

    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace}")
    width = max(len(name) for name in outcome.metrics) + 2
    for name, (value, unit) in outcome.metrics.items():
        print(f"  {name:<{width}}{value:>16.6g} {unit}")
    if not args.trace:
        rate = outcome.failed / max(1, outcome.attempted)
        print(f"  {'error_rate':<{width}}{rate:>16.6g} fraction "
              f"({outcome.failed} failed / {outcome.attempted} attempted)")
        print(f"  {'verdict_mismatches':<{width}}{outcome.mismatches:>16d} count")
    for note in outcome.notes:
        print(f"  note: {note}")
    meta["pinned_cpu"] = outcome.pinned_cpu
    print(json.dumps({"meta": meta}))
    correct = outcome.mismatches == 0
    print(json.dumps({
        "correct": correct,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in outcome.metrics.items()
        },
    }))
    return 0 if correct and outcome.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
