"""Conformance campaigns: check specifications against families of traces.

The reproduction's Chapter 5–8 experiments all have the same shape: generate
traces from a correct system and from deliberately faulty variants, check the
paper's specification on each, and report the pass/fail matrix (the correct
system must satisfy every clause; each faulty variant must violate at least
one).  This module provides that harness plus a compact textual report.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from ..core.specification import Specification, SpecificationResult
from ..semantics.trace import Trace

__all__ = ["ConformanceCase", "ConformanceOutcome", "ConformanceReport", "run_conformance"]


TraceFactory = Callable[[int], Trace]


@dataclass(frozen=True)
class ConformanceCase:
    """One system variant: a trace factory and whether it should conform."""

    name: str
    factory: TraceFactory
    expected_to_conform: bool
    seeds: Tuple[int, ...] = (0, 1, 2)


@dataclass
class ConformanceOutcome:
    """Results of one case across its seeds."""

    case: ConformanceCase
    results: List[SpecificationResult] = field(default_factory=list)

    @property
    def conforms(self) -> bool:
        return all(result.holds for result in self.results)

    @property
    def as_expected(self) -> bool:
        return self.conforms == self.case.expected_to_conform

    def violated_clauses(self) -> List[str]:
        names: List[str] = []
        for result in self.results:
            for verdict in result.failures:
                if verdict.clause.name not in names:
                    names.append(verdict.clause.name)
        return names


@dataclass
class ConformanceReport:
    """The full pass/fail matrix for one specification."""

    specification: Specification
    outcomes: List[ConformanceOutcome]

    @property
    def all_as_expected(self) -> bool:
        return all(outcome.as_expected for outcome in self.outcomes)

    def outcome(self, case_name: str) -> ConformanceOutcome:
        for outcome in self.outcomes:
            if outcome.case.name == case_name:
                return outcome
        raise KeyError(case_name)

    def rows(self) -> List[Dict[str, object]]:
        """Tabular summary — one row per case (used by the benchmarks)."""
        table = []
        for outcome in self.outcomes:
            table.append(
                {
                    "case": outcome.case.name,
                    "expected": "conform" if outcome.case.expected_to_conform else "violate",
                    "observed": "conform" if outcome.conforms else "violate",
                    "as_expected": outcome.as_expected,
                    "violated_clauses": ", ".join(outcome.violated_clauses()) or "-",
                }
            )
        return table

    def summary(self) -> str:
        lines = [f"Specification: {self.specification.name}"]
        for row in self.rows():
            status = "OK " if row["as_expected"] else "BAD"
            lines.append(
                f"  [{status}] {row['case']:<28} expected={row['expected']:<8} "
                f"observed={row['observed']:<8} violated: {row['violated_clauses']}"
            )
        return "\n".join(lines)


def run_conformance(
    specification: Specification,
    cases: Sequence[ConformanceCase],
    domain: Optional[Mapping[str, Iterable[object]]] = None,
    session: Optional[object] = None,
) -> ConformanceReport:
    """Check ``specification`` against every case and seed.

    This is a thin wrapper over the façade: the specification compiles
    **once** into a multi-root :class:`~repro.compile.specplan.SpecPlan`
    (cached on the session by spec digest) and every ``(case, seed)`` trace
    is answered by :meth:`Session.check_spec` through one shared
    :class:`~repro.compile.runtime.PlanState` — clauses sharing
    subformulas share memo entries and event indexes per trace, and errors
    stay captured per clause.  Pass an existing
    :class:`~repro.api.session.Session` to share its plan caches with
    other checks.
    """
    # Imported here: repro.api's engines are built on this package's
    # siblings, so the import must not run at module-initialization time.
    from ..api.session import Session

    if session is None:
        session = Session()
    outcomes: List[ConformanceOutcome] = []
    for case in cases:
        outcome = ConformanceOutcome(case)
        for seed in case.seeds:
            outcome.results.append(
                session.check_spec(specification, case.factory(seed), domain=domain)
            )
        outcomes.append(outcome)
    return ConformanceReport(specification, outcomes)
