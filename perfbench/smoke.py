"""Smoke test of the benchmark itself, on tiny inputs.

    python3 perfbench/smoke.py

Runs every workload once untraced and twice traced with the same seed, on
inputs a fiftieth of full size, and fails (exit status 1) unless each run
exits cleanly with correct verdicts and no failed operation, reports
exactly the metrics ``BENCHMARK.json`` names, keeps the traced accounting
(per-layer self times plus ``trace.other_s`` equal ``trace.wall_s``), and
repeats every deterministic work counter exactly.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SEED = 3
SCALE = "0.02"

import tracing  # noqa: E402  (this directory is on sys.path as the script's own)


def run(workload: str, trace: int) -> dict:
    done = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(SEED), "--seconds", "0", "--trace", str(trace), "--scale", SCALE],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    sys.stdout.write(done.stdout)
    if done.returncode != 0:
        sys.stderr.write(done.stderr)
        raise SystemExit(f"{workload} --trace {trace}: exit status {done.returncode}")
    result = json.loads(done.stdout.strip().splitlines()[-1])
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        raise SystemExit(f"{workload}: unexpected result keys {sorted(result)}")
    if not result["correct"] or result["failed"] or result["attempted"] < 1:
        raise SystemExit(f"{workload} --trace {trace}: {result}")
    return {name: entry["value"] for name, entry in result["metrics"].items()}


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    end_to_end = sorted(m["name"] for m in spec["end_to_end"])
    per_layer = sorted(m["name"] for m in spec["per_layer"])
    for workload in (w["name"] for w in spec["workloads"]):
        if sorted(run(workload, 0)) != end_to_end:
            raise SystemExit(f"{workload}: end-to-end metrics differ from BENCHMARK.json")
        first, second = run(workload, 1), run(workload, 1)
        if sorted(first) != per_layer:
            raise SystemExit(f"{workload}: per-layer metrics differ from BENCHMARK.json")
        layered = sum(first[name] for name in tracing.LAYER_TIMES)
        if abs(layered + first["trace.other_s"] - first["trace.wall_s"]) > 1e-6:
            raise SystemExit(f"{workload}: self times + other != traced wall")
        changed = [n for n in tracing.DETERMINISTIC if first[n] != second[n]]
        if changed:
            raise SystemExit(f"{workload}: deterministic counters changed: {changed}")
    print("perfbench smoke: every workload ran, verdicts matched, counters repeated")
    return 0


if __name__ == "__main__":
    sys.exit(main())
