"""Experiment E11: compile-once/run-many vs. interpret-per-call, and
monitor step latency vs. prefix length.

Three claims of the `repro.compile` subsystem are measured:

* a formula compiled once and bound to a plan state answers repeated
  checks >= 2x faster than re-interpreting the raw AST with a fresh
  evaluator per call (the pre-compile behaviour of one-shot sessions);
* the rewritten Monitor absorbs each appended state in flat per-step work,
  where the old fresh-``Trace``-plus-``Evaluator``-per-state loop grew
  linearly with the prefix (quadratic online checking overall);
* a comparison atom's kernel profile tests each distinct value once, not
  each state (a count, not a clock).
"""

import time

import pytest

from repro.checking.monitor import Monitor
from repro.compile import compile_formula
from repro.semantics.evaluator import Evaluator
from repro.semantics.state import State
from repro.semantics.trace import Trace
from repro.specs import request_ack_spec
from repro.syntax.parser import parse_formula
from repro.systems import mutex_trace, request_ack_trace

# High enough that the measured windows are a few milliseconds even for the
# cheapest formula: a single scheduler preemption inside a sub-millisecond
# window could otherwise flip the >=2x CI gate on a busy shared runner.
REPEATS = 300

FORMULAS = {
    "response": "[] (cs1 -> <> ~cs1)",
    "interval": "[] ([cs1] (x1 /\\ ~cs2))",
    "quantified": "forall a . [] (x1 -> <> cs1)",
}


def _interpret_per_call(formula, trace, repeats):
    Evaluator(trace).satisfies(formula)  # warmup outside the window
    started = time.perf_counter()
    verdicts = [Evaluator(trace).satisfies(formula) for _ in range(repeats)]
    return time.perf_counter() - started, verdicts


def _compile_once_run_many(formula, trace, repeats):
    started = time.perf_counter()
    state = compile_formula(formula).evaluator(trace)
    verdicts = [state.satisfies() for _ in range(repeats)]
    return time.perf_counter() - started, verdicts


def test_compile_once_run_many_speedup(benchmark):
    """Repeated checks of a cached formula must be >= 2x the interpreter."""
    trace = mutex_trace(2, entries=4, seed=3)
    rows = []

    def sweep():
        results = []
        for name, text in FORMULAS.items():
            formula = parse_formula(text)
            interp_s, interp_verdicts = _interpret_per_call(formula, trace, REPEATS)
            compiled_s, compiled_verdicts = _compile_once_run_many(
                formula, trace, REPEATS
            )
            assert compiled_verdicts == interp_verdicts
            results.append({
                "formula": name,
                "repeats": REPEATS,
                "interpret_ms": interp_s * 1000.0,
                "compiled_ms": compiled_s * 1000.0,
                "speedup": interp_s / compiled_s,
            })
        return results

    rows[:] = benchmark.pedantic(sweep, rounds=1, iterations=1)
    benchmark.extra_info["rows"] = rows
    print()
    for row in rows:
        print({k: (round(v, 3) if isinstance(v, float) else v)
               for k, v in row.items()})
    # The acceptance bar: >= 2x on repeated checks of a cached formula.
    assert all(row["speedup"] >= 2.0 for row in rows), rows


def _old_style_observe(formulas, states):
    """The pre-compile Monitor: fresh Trace + Evaluator per appended state."""
    prefix = []
    per_step = []
    for state in states:
        prefix.append(state)
        started = time.perf_counter()
        trace = Trace(list(prefix))
        evaluator = Evaluator(trace)
        for formula in formulas.values():
            evaluator.satisfies(formula)
        per_step.append(time.perf_counter() - started)
    return per_step


def _plan_state_observe(formulas, states):
    monitor = Monitor(formulas)
    per_step = []
    costs = []
    for state in states:
        started = time.perf_counter()
        monitor.observe(state)
        per_step.append(time.perf_counter() - started)
        costs.append(monitor.last_step_cost)
    return per_step, costs


def test_monitor_step_latency_vs_prefix_length(benchmark):
    """Per-step cost flat in the prefix length (the old loop grew with it)."""
    formulas = {
        "resp": parse_formula("[] (p -> <> q)"),
        "evt": parse_formula("[] ([p] q)"),
    }
    states = [State({"p": i % 3 == 0, "q": i % 3 == 1}) for i in range(200)]

    def sweep():
        old = _old_style_observe(formulas, states)
        new, costs = _plan_state_observe(formulas, states)
        checkpoints = [50, 100, 199]
        rows = [{
            "prefix": n,
            "old_step_us": old[n] * 1e6,
            "new_step_us": new[n] * 1e6,
            "new_step_dispatch": costs[n],
        } for n in checkpoints]
        return rows, old, new, costs

    rows, old, new, costs = benchmark.pedantic(sweep, rounds=1, iterations=1)
    benchmark.extra_info["rows"] = rows
    print()
    for row in rows:
        print({k: (round(v, 1) if isinstance(v, float) else v)
               for k, v in row.items()})
    print({"old_total_ms": sum(old) * 1000.0, "new_total_ms": sum(new) * 1000.0})
    # Work counters are noise-free: per-step dispatch must not grow.
    early = sum(costs[20:60]) / 40.0
    late = sum(costs[160:200]) / 40.0
    assert late <= early * 1.5, (early, late)
    # And the whole 200-state stream must be far cheaper than the old loop.
    assert sum(new) < sum(old), (sum(new), sum(old))


def test_comparison_atoms_test_each_distinct_value_once(benchmark, monkeypatch):
    """Comparison atoms (``x == c``) are tested once per distinct value.

    On the kernel path each comparison atom's profile runs its test once
    per distinct value of ``x`` — the column's dictionary codes — not once
    per state, and repeated checks re-test nothing: 7 constants over a
    120-state trace holding 7 values take at most 7 tests per atom, where
    testing per state would take 120.  Verdicts match the interpreter.
    The timings beside the count are recorded, not gated.
    """
    from repro.compile import compile_formula, vector

    trace = Trace([State({"x": i % 7, "p": True}) for i in range(120)])
    formulas = [parse_formula(f"[] ([x == {c}] (p \\/ x != {c}))")
                for c in range(7)]
    tests = []
    for op in ("==", "!="):
        compare = vector._CMP_FUNCS[op]

        def counted(left, right, compare=compare):
            tests.append(None)
            return compare(left, right)

        monkeypatch.setitem(vector._CMP_FUNCS, op, counted)

    def sweep():
        interp_s = 0.0
        interp_verdicts = []
        for formula in formulas:
            Evaluator(trace).satisfies(formula)  # warmup outside the window
            started = time.perf_counter()
            for _ in range(30):
                interp_verdicts.append(Evaluator(trace).satisfies(formula))
            interp_s += time.perf_counter() - started
        del tests[:]
        compiled_s = 0.0
        compiled_verdicts = []
        profiles = 0
        for formula in formulas:
            started = time.perf_counter()
            state = compile_formula(formula).evaluator(trace)
            for _ in range(30):
                compiled_verdicts.append(state.satisfies())
            compiled_s += time.perf_counter() - started
            profiles += sum(
                1 for node in state._nodes
                if str(node.predicate).startswith("x ")
                and node.id in state._kernel._entries
            )
        assert compiled_verdicts == interp_verdicts
        return {
            "constants": len(formulas),
            "comparison_profiles": profiles,
            "tests": len(tests),
            "interpret_ms": interp_s * 1000.0,
            "compiled_ms": compiled_s * 1000.0,
        }

    row = benchmark.pedantic(sweep, rounds=1, iterations=1)
    benchmark.extra_info["row"] = row
    print()
    print({k: (round(v, 3) if isinstance(v, float) else v) for k, v in row.items()})
    # Every constant's event atom ``x == c`` is profiled, and its body's
    # ``x != c`` may be; each profile tests the 7 distinct values once.
    assert len(formulas) <= row["comparison_profiles"] <= 2 * len(formulas), row
    assert row["tests"] <= 7 * row["comparison_profiles"], row


def test_specification_monitoring_end_to_end(benchmark):
    """A real spec on a real simulator stream through the new monitor."""
    spec = request_ack_spec()
    trace = request_ack_trace(cycles=6, seed=2)

    def run():
        monitor = Monitor({
            clause.name: clause.interpreted_formula() for clause in spec.clauses
        })
        monitor.observe_trace(trace)
        return monitor

    monitor = benchmark(run)
    assert monitor.failing() == []
    benchmark.extra_info["states"] = trace.length
    benchmark.extra_info["total_dispatch"] = monitor.plan_state.stats.dispatch_calls
