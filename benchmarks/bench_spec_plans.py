"""Experiment E12: multi-root spec plans vs. per-clause compiled checking.

The conformance experiments of Chapters 5-8 always check a *whole*
specification against families of traces.  This benchmark gates the
multi-root refactor's payoff in CI: checking the mutex + queue
specifications clause-set-at-a-time through one shared
:class:`~repro.compile.specplan.SpecPlanState` (shared subformula memo,
shared kernel change indexes, whole-term construction memo) must be >= 1.5x faster
than the same campaign driven clause-by-clause through the per-clause
``compiled`` engine — with identical verdicts.
"""

import time

from repro.api import Session
from repro.specs import mutex_spec, reliable_queue_spec, unreliable_queue_spec
from repro.systems import mutex_trace, reliable_queue_trace, unreliable_queue_trace

# Multi-clause specifications only: a single-clause spec has nothing to
# share across clauses by definition (reliable-queue rides along in the
# work-counter benchmark's materialization but not in the speed gate).
# Several processes/values and a few seeds each keep the measured windows
# at tens of milliseconds on a noisy shared runner.
GATE_WORKLOAD = [
    ("mutex-3", mutex_spec(3), [lambda s=s: mutex_trace(3, entries=6, seed=s) for s in range(3)]),
    ("mutex-4", mutex_spec(4), [lambda s=s: mutex_trace(4, entries=6, seed=s) for s in range(3)]),
    ("mutex-5", mutex_spec(5), [lambda s=s: mutex_trace(5, entries=5, seed=s) for s in range(3)]),
    ("unreliable-queue", unreliable_queue_spec(),
     [lambda s=s: unreliable_queue_trace(6, seed=s) for s in range(3)]),
]
WORKLOAD = GATE_WORKLOAD + [
    ("reliable-queue", reliable_queue_spec(),
     [lambda s=s: reliable_queue_trace(6, seed=s) for s in range(3)]),
]


def _materialize(workload=WORKLOAD):
    return [(name, spec, [factory() for factory in factories])
            for name, spec, factories in workload]


def _per_clause_campaign(work):
    """The baseline: every (trace, clause) pair as one compiled request."""
    session = Session()
    verdicts = []
    for _, spec, traces in work:
        for trace in traces:
            verdicts.append(tuple(
                session.check(clause.interpreted_formula(), trace=trace,
                              mode="compiled", capture_errors=True).verdict
                for clause in spec.clauses
            ))
    return verdicts


def _multi_root_campaign(work):
    """The new default: one SpecPlanState per (spec, trace)."""
    session = Session()
    verdicts = []
    for _, spec, traces in work:
        for trace in traces:
            result = session.check_spec(spec, trace)
            verdicts.append(tuple(
                None if verdict.error else verdict.holds
                for verdict in result.verdicts
            ))
    return verdicts


def test_multi_root_conformance_speedup(benchmark):
    """Multi-root >= 1.5x vs per-clause compiled on mutex + queue specs."""
    work = _materialize(GATE_WORKLOAD)

    def sweep():
        baseline = multi = None
        for _ in range(3):  # best-of-3 guards against scheduler noise
            started = time.perf_counter()
            per_clause = _per_clause_campaign(work)
            elapsed = time.perf_counter() - started
            baseline = elapsed if baseline is None else min(baseline, elapsed)

            started = time.perf_counter()
            multi_root = _multi_root_campaign(work)
            elapsed = time.perf_counter() - started
            multi = elapsed if multi is None else min(multi, elapsed)

            assert multi_root == per_clause  # exact verdict parity
        return {
            "clauses": sum(len(spec.clauses) for _, spec, _ in work),
            "traces": sum(len(traces) for _, _, traces in work),
            "per_clause_ms": baseline * 1000.0,
            "multi_root_ms": multi * 1000.0,
            "speedup": baseline / multi,
        }

    row = benchmark.pedantic(sweep, rounds=1, iterations=1)
    benchmark.extra_info["row"] = row
    print()
    print({k: (round(v, 2) if isinstance(v, float) else v) for k, v in row.items()})
    assert row["speedup"] >= 1.5, row


def test_shared_subformula_work_counters(benchmark):
    """The structural half of the claim, noise-free: on the kernel path
    (stutter-terminated traces, checked as finished prefixes) a multi-root
    state builds strictly fewer kernel change indexes than the per-clause
    states, and neither builds a per-position endpoint index."""
    from repro.compile import compile_formula, compile_specification

    def sweep():
        rows = []
        for name, spec, traces in _materialize():
            if len(spec.clauses) < 2:
                continue
            trace = traces[0]
            state = compile_specification(spec).evaluator(trace)
            for clause_name in state.plan.clause_names:
                state.satisfies(clause_name)
            inner = state._state
            separate_indexes = 0
            per_position_indexes = len(inner._indexes)
            for clause in spec.clauses:
                single = compile_formula(clause.interpreted_formula()).evaluator(trace)
                single.satisfies()
                separate_indexes += single._kernel.change_index_count
                per_position_indexes += len(single._indexes)
            rows.append({
                "spec": name,
                "shared_nodes": state.plan.shared_node_count(),
                "multi_indexes": inner._kernel.change_index_count,
                "per_clause_indexes": separate_indexes,
                "per_position_indexes": per_position_indexes,
            })
        return rows

    rows = benchmark.pedantic(sweep, rounds=1, iterations=1)
    benchmark.extra_info["rows"] = rows
    print()
    for row in rows:
        print(row)
    assert all(row["per_position_indexes"] == 0 for row in rows)
    assert all(row["multi_indexes"] <= row["per_clause_indexes"] for row in rows)
    assert any(row["multi_indexes"] < row["per_clause_indexes"] for row in rows)
    assert all(row["shared_nodes"] > 0 for row in rows)
