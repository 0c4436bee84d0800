"""Trajectory gate: the bitset kernel answers columnar checks in one dispatch.

The columnar refactor's whole point is that state formulas over a long
trace answer as whole-column bitset operations instead of per-position
dispatch.  This benchmark checks a family of state/temporal formulas
through the same compiled plan twice — once with the
:class:`~repro.compile.vector.TailKernel` (the default binding: the trace
is stutter-terminated, so it is checked as a finished prefix) and once
with ``vectorize=False`` (the per-position memo path) — on a 10k-state and
a 100k-state trace, and asserts verdict parity per formula.  A lasso with
a longer cycle binds no kernel, so the gate's traces end by repeating
their last state, the paper's finite-computation convention.

It gates on a count the code controls, not on a clock: with the kernel,
each formula is answered in exactly one plan dispatch call
(``PlanStats.dispatch_calls``) at both sizes.  The per-position path takes
from dozens of calls up to one per state on the same formulas, so a plan
whose kernel stops binding fails the gate on any machine.

The timed speedup on the large trace is still measured and recorded in
``BENCH_columnar.json`` at the repo root, stamped with the machine that
produced it (``nproc``, Python version, platform), but it is not asserted:
on a shared 2-core runner the same code measures anywhere from under 2x to
over 3x.  The file is the first series of the ROADMAP's
benchmark-trajectory convention, one committed entry per PR that moves the
number.
"""

import json
import os
import platform
import time

from repro.compile import compile_formula
from repro.semantics.state import State
from repro.semantics.trace import Trace
from repro.syntax.parser import parse_formula

#: Concrete state counts of the checked traces.  The timed ratio is
#: recorded on the last (largest) one.
TRACE_STATES = (10_002, 100_002)

#: Pure state/temporal formulas the kernel vectorizes end to end.  The mix
#: covers boolean columns, comparisons both satisfied and refuted,
#: ``[]``/``<>`` directly over state formulas, and connective combinations.
FORMULAS = [
    "[] (p -> (q \\/ x != 3))",
    "<> (x == 7 /\\ p)",
    "[] (x >= 0)",
    "<> (x == 11)",
    "[] ((p /\\ q) -> x < 9)",
    "[] (~p \\/ ~q \\/ x == 0 \\/ x == 2 \\/ x == 4 \\/ x == 6 \\/ x == 8)",
]

#: Plan dispatch calls the kernel needs per formula: the root answers
#: whole, from column bitsets.
KERNEL_DISPATCH_CALLS = 1

SERIES_PATH = os.path.join(os.path.dirname(__file__), "..", "BENCH_columnar.json")
SERIES_LABEL = "columnar-v2"


def build_trace(states):
    """A deterministic stutter-terminated trace of ``states`` states over
    two booleans and one int."""
    rows = [
        State({"p": i % 2 == 0, "q": i % 3 == 0, "x": (i * 7 + i // 13) % 10})
        for i in range(states)
    ]
    return Trace(rows)


def record_point(row):
    """Append/refresh this gate's entry in the committed trajectory series."""
    series = []
    if os.path.exists(SERIES_PATH):
        with open(SERIES_PATH) as handle:
            series = json.load(handle)
    entry = {"label": SERIES_LABEL, **row}
    for index, existing in enumerate(series):
        if existing.get("label") == SERIES_LABEL:
            series[index] = entry
            break
    else:
        series.append(entry)
    with open(SERIES_PATH, "w") as handle:
        json.dump(series, handle, indent=2, sort_keys=True)
        handle.write("\n")


def check_both_ways(plan, trace):
    """Bind ``plan`` with and without the kernel; time and count each side.

    Binding is inside the timed window: the kernel pass over the columns
    is part of the vectorized path's real cost.
    """
    started = time.perf_counter()
    kernel = plan.evaluator(trace)
    kernel_verdict = kernel.satisfies()
    kernel_s = time.perf_counter() - started

    started = time.perf_counter()
    per_position = plan.evaluator(trace, vectorize=False)
    per_position_verdict = per_position.satisfies()
    per_position_s = time.perf_counter() - started
    return {
        "verdict": kernel_verdict,
        "per_position_verdict": per_position_verdict,
        "kernel_dispatch_calls": kernel.stats.dispatch_calls,
        "per_position_dispatch_calls": per_position.stats.dispatch_calls,
        "vectorized_s": kernel_s,
        "per_position_s": per_position_s,
    }


def test_kernel_answers_each_formula_in_one_dispatch(benchmark):
    """Kernel: 1 dispatch call per formula at 10k and 100k states; parity."""
    plans = [compile_formula(parse_formula(text)) for text in FORMULAS]

    def sweep():
        rows = []
        for states in TRACE_STATES:
            trace = build_trace(states)
            assert trace.length == states
            for text, plan in zip(FORMULAS, plans):
                rows.append({"states": states, "formula": text,
                             **check_both_ways(plan, trace)})
        return rows

    rows = benchmark.pedantic(sweep, rounds=1, iterations=1)
    for row in rows:
        where = (row["states"], row["formula"])
        assert row["verdict"] is row["per_position_verdict"], where
        assert row["kernel_dispatch_calls"] == KERNEL_DISPATCH_CALLS, row
        # The count separates the two paths: without the kernel the same
        # question takes many calls, so the gate cannot pass vacuously.
        assert row["per_position_dispatch_calls"] > KERNEL_DISPATCH_CALLS, row

    largest = [row for row in rows if row["states"] == TRACE_STATES[-1]]
    vectorized_s = sum(row["vectorized_s"] for row in largest)
    per_position_s = sum(row["per_position_s"] for row in largest)
    point = {
        "states": TRACE_STATES[-1],
        "formulas": len(FORMULAS),
        "kernel_dispatch_calls": sorted(
            {row["kernel_dispatch_calls"] for row in rows}
        ),
        "per_position_dispatch_calls": sorted(
            {row["per_position_dispatch_calls"] for row in largest}
        ),
        "vectorized_ms": round(vectorized_s * 1000.0, 3),
        "per_position_ms": round(per_position_s * 1000.0, 3),
        "speedup": round(per_position_s / vectorized_s, 2),
        # A timed ratio means nothing without the machine that produced it.
        "machine": {
            "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "platform": platform.platform(),
        },
    }
    benchmark.extra_info["row"] = point
    print()
    print(point)
    record_point(point)
