"""The cross-engine differential oracle.

Every :class:`~repro.gen.cases.Case` is routed through *every applicable
engine* of a façade :class:`~repro.api.session.Session` — applicability is
decided from the engines' machine-readable
:class:`~repro.api.engines.EngineCapabilities`, never from hard-coded names
— and the verdicts are compared under rules that respect each engine's
soundness guarantees:

* **exact engines must agree** — trace vs monitor on a computation, and
  either of them vs the tableau's claims replayed as explicit models;
* **bounded refutations are sound** — a counterexample from the bounded
  engine contradicts a tableau "valid", a model found by the bounded or LLL
  engine contradicts a tableau "unsatisfiable";
* **bounded affirmations are one-sided** — a bounded "valid" or LLL
  "no interpretation" is only a disagreement when an exact engine produced
  an explicit witness *within the same bound* (which the enumeration must
  then have found);
* **models replay** — a tableau countermodel (or model) is re-evaluated
  with the Chapter 3 trace engine, and for computations in the LTL fragment
  the trace verdict is cross-checked against the explicit-model LTL
  semantics (:func:`repro.ltl.semantics.ltl_satisfies`) through the
  :func:`~repro.ltl.translation.interval_to_ltl` translation;
* **recorded verdicts reproduce** — a case carrying an ``expect`` mapping
  (the corpus regression format) must reproduce every recorded verdict
  exactly;
* **spec plans agree clause-for-clause** — a ``"spec"`` case checks every
  clause of a multi-clause specification four ways: per clause through
  the ``trace`` engine, per clause through the ``compiled`` engine
  (vectorized bitset kernel), per clause through the ``stepwise`` engine
  (the same plan with the kernel disabled), and all clauses at once
  through one multi-root :class:`~repro.compile.specplan.SpecPlan` (the
  shared-subformula path conformance campaigns run on); the four
  per-clause verdict vectors must be identical.

How independent the trace engines are: on a finite (stutter-terminated)
trace, ``compiled`` runs the ``monitor`` engine's incremental plan-state
code with the bitset kernel, fed the whole trace as one window, so their
agreement checks the window split, not a second implementation.  The
independent checks are ``trace`` (the Chapter 3 interpreter) and
``stepwise`` (the compiled plan with the kernel off, evaluated per
position).  A lasso whose cycle is longer than one state runs per
position with the kernel off under ``compiled`` too.

Disagreements are shrunk with :mod:`repro.gen.shrink` to a minimal
replayable case.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

from ..api.request import QUERY_SATISFIABILITY, QUERY_VALIDITY, CheckRequest
from ..api.result import CheckResult
from ..api.session import Session
from ..core.bounded_checker import proposition_names
from ..errors import DecisionProcedureError
from ..ltl.semantics import ltl_satisfies
from ..ltl.translation import interval_to_ltl, is_in_ltl_fragment
from ..semantics.trace import Trace, make_trace
from ..syntax.formulas import Formula
from .cases import Case

__all__ = [
    "FormulaProfile",
    "EngineVerdict",
    "Disagreement",
    "OracleReport",
    "DifferentialOracle",
]


@dataclass(frozen=True)
class FormulaProfile:
    """The fragment facts engine applicability is decided on."""

    propositional: bool
    ltl_fragment: bool

    @staticmethod
    def of(formula: Formula) -> "FormulaProfile":
        try:
            proposition_names(formula)
            propositional = True
        except DecisionProcedureError:
            propositional = False
        return FormulaProfile(
            propositional=propositional,
            ltl_fragment=is_in_ltl_fragment(formula),
        )


@dataclass
class EngineVerdict:
    engine: str
    verdict: Optional[bool]
    error: Optional[str] = None

    def __str__(self) -> str:
        if self.error:
            return f"{self.engine}=ERROR({self.error})"
        return f"{self.engine}={self.verdict}"


@dataclass
class Disagreement:
    """A verdict conflict, with the minimized case that still exhibits it."""

    case: Case
    verdicts: List[EngineVerdict]
    reason: str
    shrunk: Optional[Case] = None

    def replay_case(self) -> Case:
        """The smallest case known to exhibit the disagreement."""
        return self.shrunk if self.shrunk is not None else self.case

    def __str__(self) -> str:
        verdicts = ", ".join(str(v) for v in self.verdicts)
        return f"[{self.case.id or self.case.kind}] {self.reason} ({verdicts})"


@dataclass
class OracleReport:
    cases: int = 0
    engine_runs: int = 0
    disagreements: List[Disagreement] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.disagreements

    def summary(self) -> str:
        status = "OK" if self.ok else f"{len(self.disagreements)} DISAGREEMENT(S)"
        return f"{status}: {self.cases} cases, {self.engine_runs} engine runs"


class DifferentialOracle:
    """Routes cases through every applicable engine and compares verdicts.

    Parameters
    ----------
    session:
        The façade session to check through; a fresh default session when
        omitted.  Custom sessions (e.g. with a deliberately broken engine
        registered) are how the harness tests itself.
    monitor_max_states:
        Incremental engines re-evaluate every prefix, so their cost is
        quadratic in the trace length; traces longer than this are not
        routed to them.
    shrink:
        Minimize each disagreeing case before reporting it.
    work_budget:
        Per-request work budget handed to engines that honor
        ``CheckRequest.budget`` (the LLL bounded semantics is
        super-exponential in expression nesting).  An engine that exhausts
        its budget *abstains* — its run is excluded from the comparison
        instead of hanging the campaign or counting as a disagreement.
    """

    def __init__(
        self,
        session: Optional[Session] = None,
        monitor_max_states: int = 25,
        shrink: bool = True,
        work_budget: Optional[int] = 200_000,
    ) -> None:
        self.session = session if session is not None else Session()
        self.monitor_max_states = monitor_max_states
        self.shrink = shrink
        self.work_budget = work_budget

    # -- applicability -----------------------------------------------------------

    def applicable_engines(
        self, case: Case, formula: Formula, trace: Optional[Trace]
    ) -> List[str]:
        """Engine names able to answer this case, from capability metadata."""
        profile = FormulaProfile.of(formula)
        names: List[str] = []
        for engine in self.session.registry.engines():
            caps = engine.capabilities
            if case.kind == "trace":
                if not caps.needs_trace or trace is None:
                    continue
                if caps.stutter_only and not trace.is_stutter_extended:
                    continue
                if caps.incremental and trace.length > self.monitor_max_states:
                    continue
            else:
                if caps.needs_trace:
                    continue
                if case.kind not in caps.queries:
                    continue
                if caps.propositional_only and not profile.propositional:
                    continue
                if caps.ltl_fragment_only and not profile.ltl_fragment:
                    continue
            names.append(engine.name)
        return names

    def requests_for(
        self, case: Case, formula: Formula, trace: Optional[Trace]
    ) -> List[CheckRequest]:
        """One request per applicable engine (labels carry the engine name)."""
        requests = []
        for engine in self.applicable_engines(case, formula, trace):
            options: Dict[str, Any] = {
                "mode": engine,
                "capture_errors": True,
                "label": engine,
            }
            if case.kind == "trace":
                options["trace"] = trace
                options["domain"] = case.domain
            else:
                options["query"] = (
                    QUERY_VALIDITY if case.kind == "validity" else QUERY_SATISFIABILITY
                )
                options["max_length"] = case.max_length
                options["include_lassos"] = case.include_lassos
                options["budget"] = self.work_budget
                if case.variables is not None:
                    options["variables"] = tuple(case.variables)
                # Explicit witnesses make the tableau's exact claims
                # replayable on the Chapter 3 evaluator.
                options["extract_model"] = True
            requests.append(CheckRequest(formula=formula, **options))
        return requests

    # -- checking ---------------------------------------------------------------

    def run(
        self,
        cases: Sequence[Case],
        processes: Optional[int] = None,
        chunk_size: Optional[int] = None,
    ) -> OracleReport:
        """Check every case; serial by default, chunked fan-out with workers."""
        report = OracleReport(cases=len(cases))
        prepared: List[Tuple[Case, Formula, Optional[Trace], List[CheckRequest]]] = []
        flat: List[CheckRequest] = []
        for case in cases:
            if case.kind == "spec":
                # Spec cases run in-process: the multi-root plan path is a
                # session-level evaluation, not a single shippable request.
                try:
                    per_engine = self._spec_results(case)
                except Exception as exc:
                    report.disagreements.append(Disagreement(
                        case=case,
                        verdicts=[],
                        reason=f"malformed case: {type(exc).__name__}: {exc}",
                    ))
                    continue
                report.engine_runs += len(per_engine)
                reason = self._judge_spec(case, per_engine)
                if reason is not None:
                    report.disagreements.append(
                        self._disagreement(case, per_engine, reason)
                    )
                continue
            try:
                formula = case.parsed_formula()
                trace = case.built_trace()
                requests = self.requests_for(case, formula, trace)
            except Exception as exc:
                # A malformed case (unparseable formula, unknown system
                # reference, bad rows) is reported against its id and the
                # rest of the batch still runs — a regression corpus must
                # never abort wholesale on one bad line.
                report.disagreements.append(Disagreement(
                    case=case,
                    verdicts=[],
                    reason=f"malformed case: {type(exc).__name__}: {exc}",
                ))
                continue
            prepared.append((case, formula, trace, requests))
            flat.extend(requests)
        results = self.session.check_many(flat, processes=processes, chunk_size=chunk_size)
        report.engine_runs += len(results)
        cursor = 0
        for case, formula, trace, requests in prepared:
            per_engine = {
                request.label: result
                for request, result in zip(requests, results[cursor : cursor + len(requests)])
            }
            cursor += len(requests)
            reason = self.judge(case, formula, trace, per_engine)
            if reason is not None:
                report.disagreements.append(
                    self._disagreement(case, per_engine, reason)
                )
        return report

    def check_case(self, case: Case) -> Tuple[Optional[str], Dict[str, CheckResult]]:
        """Judge one case in-process; returns (disagreement reason, verdicts)."""
        if case.kind == "spec":
            per_engine = self._spec_results(case)
            return self._judge_spec(case, per_engine), per_engine
        formula = case.parsed_formula()
        trace = case.built_trace()
        requests = self.requests_for(case, formula, trace)
        results = self.session.check_many(requests)
        per_engine = {r.label: result for r, result in zip(requests, results)}
        return self.judge(case, formula, trace, per_engine), per_engine

    # -- spec cases ---------------------------------------------------------------

    def _spec_results(self, case: Case) -> Dict[str, CheckResult]:
        """Per-clause results under keys ``trace[i]`` / ``compiled[i]`` /
        ``stepwise[i]`` / ``specplan[i]`` — the four paths a specification
        clause can take (``stepwise`` being the compiled plan with the
        vectorized bitset kernel disabled)."""
        from ..core.specification import Specification

        clauses = case.clauses or []
        trace = case.built_trace()
        if trace is None:
            raise ValueError("spec cases need a trace")
        per_engine: Dict[str, CheckResult] = {}
        for engine in ("trace", "compiled", "stepwise"):
            for index, text in enumerate(clauses):
                label = f"{engine}[{index}]"
                per_engine[label] = self.session.check(
                    text, mode=engine, trace=trace, domain=case.domain,
                    capture_errors=True, label=label,
                )
        specification = Specification(case.id or "fuzz-spec")
        for index, formula in enumerate(case.parsed_clauses()):
            specification.add_axiom(f"c{index}", formula)
        result = self.session.check_spec(
            specification, trace, domain=case.domain, compiled=True
        )
        for index, verdict in enumerate(result.verdicts):
            label = f"specplan[{index}]"
            per_engine[label] = CheckResult(
                verdict=None if verdict.error else verdict.holds,
                engine="specplan",
                request=CheckRequest(
                    formula=clauses[index], trace=case.trace, label=label
                ),
                error=verdict.error,
            )
        return per_engine

    def _judge_spec(
        self, case: Case, per_engine: Dict[str, CheckResult]
    ) -> Optional[str]:
        """The disagreement reason for a multi-clause spec case."""
        errors = {name: r.error for name, r in per_engine.items() if r.error}
        if errors:
            return f"engine error(s): {errors}"
        if case.expect:
            for engine, expected in case.expect.items():
                result = per_engine.get(engine)
                if result is not None and result.verdict is not expected:
                    return (
                        f"{engine} verdict {result.verdict} differs from the "
                        f"recorded {expected}"
                    )
        for index in range(len(case.clauses or [])):
            verdicts = {
                path: per_engine[f"{path}[{index}]"].verdict
                for path in ("trace", "compiled", "stepwise", "specplan")
            }
            if len(set(verdicts.values())) > 1:
                return f"clause {index} verdicts disagree: {verdicts}"
        return None

    def record_expectations(self, case: Case) -> Case:
        """The case with every engine's current verdict recorded as ``expect``.

        Raises :class:`ValueError` if the engines already disagree — a
        corpus must never be seeded on top of a live bug.
        """
        reason, per_engine = self.check_case(case)
        if reason is not None:
            raise ValueError(f"cannot record a disagreeing case {case.id!r}: {reason}")
        return case.replacing(
            expect={
                name: result.verdict
                for name, result in per_engine.items()
                if not result.error  # abstained engines pin nothing
            }
        )

    # -- judgement ---------------------------------------------------------------

    def judge(
        self,
        case: Case,
        formula: Formula,
        trace: Optional[Trace],
        per_engine: Dict[str, CheckResult],
    ) -> Optional[str]:
        """The disagreement reason, or ``None`` when all verdicts cohere."""
        # An exhausted work budget is an abstention, not a verdict: the
        # engine is removed from the comparison (never compared, never a
        # disagreement).
        per_engine = {
            name: result
            for name, result in per_engine.items()
            if not (result.error or "").startswith("PsiBudgetError")
        }
        errors = {name: r.error for name, r in per_engine.items() if r.error}
        if errors:
            return f"engine error(s): {errors}"
        if case.expect:
            for engine, expected in case.expect.items():
                result = per_engine.get(engine)
                if result is not None and result.verdict is not expected:
                    return (
                        f"{engine} verdict {result.verdict} differs from the "
                        f"recorded {expected}"
                    )
        capabilities = self.session.capabilities()
        exact = {
            name: r.verdict
            for name, r in per_engine.items()
            if capabilities[name].exact
        }
        if len(set(exact.values())) > 1:
            return f"exact engines disagree: {exact}"
        if case.kind == "trace":
            return self._judge_trace(formula, trace, per_engine)
        return self._judge_decision(case, formula, per_engine)

    def _judge_trace(
        self, formula: Formula, trace: Trace, per_engine: Dict[str, CheckResult]
    ) -> Optional[str]:
        # Cross-check the Chapter 3 evaluator against the explicit-model LTL
        # semantics through the fragment translation (works on lassos too,
        # where the monitor cannot follow).
        verdicts = {name: r.verdict for name, r in per_engine.items()}
        if verdicts and is_in_ltl_fragment(formula):
            translated = ltl_satisfies(trace, interval_to_ltl(formula))
            mismatched = {n: v for n, v in verdicts.items() if v is not translated}
            if mismatched:
                return (
                    f"LTL explicit-model semantics says {translated}, "
                    f"engines say {mismatched}"
                )
        return None

    def _judge_decision(
        self, case: Case, formula: Formula, per_engine: Dict[str, CheckResult]
    ) -> Optional[str]:
        tableau = per_engine.get("tableau")
        bounded = per_engine.get("bounded")
        lll = per_engine.get("lll")
        def within_bound(model: Any) -> bool:
            # A model the bounded enumeration must itself have visited: short
            # enough, and of an enumerated shape (without lassos only the
            # stutter extension is enumerated).
            return (
                isinstance(model, Trace)
                and model.length <= case.max_length
                and (case.include_lassos or model.is_stutter_extended)
            )
        if case.kind == "validity":
            if tableau is not None and bounded is not None:
                if tableau.verdict and not bounded.verdict:
                    return "bounded counterexample refutes a tableau-valid formula"
                if not tableau.verdict and bounded.verdict and within_bound(tableau.counterexample):
                    return (
                        "tableau countermodel lies within the bound but the "
                        "bounded enumeration found no counterexample"
                    )
            if tableau is not None and not tableau.verdict:
                reason = self._replay(formula, tableau.counterexample, expect=False)
                if reason:
                    return f"tableau validity countermodel: {reason}"
            if bounded is not None and not bounded.verdict:
                reason = self._replay(formula, bounded.counterexample, expect=False)
                if reason:
                    return f"bounded counterexample: {reason}"
            return None
        # satisfiability
        if tableau is not None:
            for name, other in (("bounded", bounded), ("lll", lll)):
                if other is not None and other.verdict and not tableau.verdict:
                    return f"{name} found a model but the tableau says unsatisfiable"
            if (
                tableau.verdict
                and bounded is not None
                and not bounded.verdict
                and within_bound(tableau.witness)
            ):
                return (
                    "tableau model lies within the bound but the bounded "
                    "enumeration found no model"
                )
            if tableau.verdict:
                reason = self._replay(formula, tableau.witness, expect=True)
                if reason:
                    return f"tableau satisfiability model: {reason}"
        if bounded is not None and bounded.verdict:
            reason = self._replay(formula, bounded.witness, expect=True)
            if reason:
                return f"bounded model: {reason}"
        return None

    def _replay(self, formula: Formula, model: Any, expect: bool) -> Optional[str]:
        """Re-evaluate an explicit model with the trace engine."""
        if not isinstance(model, Trace):
            return None
        try:
            names = proposition_names(formula)
        except DecisionProcedureError:
            return None
        rows = [
            {name: bool(state.get(name, False)) for name in names}
            for state in model.states()
        ]
        replayable = make_trace(rows, loop_start=model.loop_start)
        result = self.session.check(
            formula, mode="trace", trace=replayable, capture_errors=True
        )
        if result.error:
            return f"evaluator errored on the model: {result.error}"
        if result.verdict is not expect:
            return (
                f"evaluator says {result.verdict} on the explicit model, "
                f"expected {expect}"
            )
        return None

    # -- reporting ---------------------------------------------------------------

    def _disagreement(
        self, case: Case, per_engine: Dict[str, CheckResult], reason: str
    ) -> Disagreement:
        verdicts = [
            EngineVerdict(name, result.verdict, result.error)
            for name, result in sorted(per_engine.items())
        ]
        shrunk = None
        # Spec cases are judged as a whole (the shrinker's formula/trace
        # moves are per-formula), so they are reported unshrunk.
        if self.shrink and case.kind != "spec":
            from .shrink import shrink_case

            # A candidate must preserve the failure *class*: a shrink step
            # that merely breaks evaluation (dropping a variable the formula
            # reads) would otherwise hijack a genuine verdict disagreement.
            original_is_error = reason.startswith("engine error")

            def still_fails(candidate: Case) -> bool:
                try:
                    failed_reason, _ = self.check_case(candidate)
                except Exception:
                    return False
                if failed_reason is None:
                    return False
                return failed_reason.startswith("engine error") == original_is_error

            shrunk = shrink_case(case, still_fails)
            if shrunk == case:
                shrunk = None
        return Disagreement(case=case, verdicts=verdicts, reason=reason, shrunk=shrunk)
