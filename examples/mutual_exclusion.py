"""Chapter 8: distributed mutual exclusion — specification, theorem, proof.

Run with ``python examples/mutual_exclusion.py``.

Simulates the shared-flag discipline of Figure 8-1, checks the specification
and the mutual-exclusion theorem on correct and faulty runs through one
façade session (the theorem's conjuncts ride a single ``check_many`` batch
per trace, each conjunct compiled once for all the traces it is checked
on), and re-checks the paper's Figure 8-2 proof steps semantically
(experiment E5).
"""

from repro.api import CheckRequest, Session
from repro.checking import format_table
from repro.specs import mutex_spec, mutual_exclusion_proof, mutual_exclusion_theorem
from repro.systems import mutex_faulty_trace, mutex_trace


def main() -> None:
    session = Session()

    def theorem_holds(processes: int, trace) -> bool:
        results = session.check_many([
            CheckRequest(theorem, trace=trace)
            for theorem in mutual_exclusion_theorem(processes)
        ])
        return all(result.holds for result in results)

    print("== Specification and theorem on simulated runs ==")
    rows = []
    for processes in (2, 3, 4):
        trace = mutex_trace(processes, entries=4, seed=processes)
        rows.append({
            "processes": processes,
            "trace length": trace.length,
            "Figure 8-1 spec": session.check_specification(mutex_spec(processes), trace).holds,
            "mutual exclusion theorem": theorem_holds(processes, trace),
        })
    faulty = mutex_faulty_trace(2)
    rows.append({
        "processes": "2 (faulty)",
        "trace length": faulty.length,
        "Figure 8-1 spec": session.check_specification(mutex_spec(2), faulty).holds,
        "mutual exclusion theorem": theorem_holds(2, faulty),
    })
    print(format_table(rows, ["processes", "trace length", "Figure 8-1 spec",
                              "mutual exclusion theorem"]))
    print()

    print("== The Figure 8-2 proof, checked semantically ==")
    script = mutual_exclusion_proof()
    traces = [mutex_trace(2, entries=3, seed=seed) for seed in range(5)]
    traces.append(mutex_faulty_trace(2))   # violates the axioms: skipped by every lemma
    checks = script.check_on_traces(traces)
    print(script.summary(checks))


if __name__ == "__main__":
    main()
