"""The pluggable checking engines behind the façade.

Seven engines wrap the underlying subsystems, one per decision style:

========  =====================================================  ==========
name      wraps                                                  question
========  =====================================================  ==========
trace     :mod:`repro.semantics.evaluator`                       s ⊨ α on one trace
compiled  :mod:`repro.compile`                                   s ⊨ α via a cached evaluation plan (finite trace: the monitors' incremental state)
stepwise  :mod:`repro.compile`                                   the same plan with the bitset kernel disabled, per position
bounded   :mod:`repro.core.bounded_checker`                      small-scope validity
tableau   :mod:`repro.ltl.decision` + :mod:`repro.ltl.translation`  exact LTL-fragment validity
lll       :mod:`repro.lll`                                       Appendix C bounded satisfiability
monitor   :mod:`repro.checking.monitor`                          incremental prefix verdicts
========  =====================================================  ==========

Each engine consumes a :class:`~repro.api.request.CheckRequest` and produces
a :class:`~repro.api.result.CheckResult`; the
:class:`~repro.api.session.Session` owns timing, error capture, and
auto-dispatch.  New engines plug in through :class:`EngineRegistry`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Tuple

from ..core.bounded_checker import find_counterexample, is_bounded_valid
from ..errors import ReproError
from ..lll.semantics import satisfying_interpretations
from ..lll.syntax import LLLExpression
from ..lll.translation import ltl_to_lll
from ..ltl.decision import TableauDecider
from ..ltl.syntax import LTLFormula, to_nnf
from ..ltl.translation import interval_to_ltl
from ..semantics.construction import BOTTOM
from ..semantics.reduction import has_star
from ..syntax.formulas import Formula, IntervalFormula, Not, Occurs
from .coerce import CheckRequestError
from .request import QUERY_SATISFIABILITY, QUERY_VALIDITY, CheckRequest
from .result import CheckResult

__all__ = [
    "Engine",
    "EngineCapabilities",
    "EngineRegistry",
    "TraceEngine",
    "CompiledEngine",
    "StepwiseEngine",
    "BoundedEngine",
    "TableauEngine",
    "LLLEngine",
    "MonitorEngine",
    "default_registry",
]


class EngineError(ReproError):
    """An engine received a request it cannot answer."""


@dataclass(frozen=True)
class EngineCapabilities:
    """Machine-readable description of what an engine can answer.

    Tools that route one question through several engines — the differential
    fuzzing oracle in :mod:`repro.gen` foremost — select "applicable" engines
    from this record instead of hard-coding engine names.

    Attributes
    ----------
    needs_trace:
        The engine evaluates over one computation and requires
        ``request.trace`` (trace, monitor).
    queries:
        The ``request.query`` values the engine answers.  Trace-backed
        engines ignore the field and accept both.
    propositional_only:
        The engine enumerates boolean state spaces and rejects formulas with
        non-propositional atoms — comparisons, operation predicates,
        quantifiers (bounded).
    ltl_fragment_only:
        Interval-logic input must lie in the LTL fragment of
        :func:`repro.ltl.translation.interval_to_ltl` (tableau, lll).
    exact:
        The verdict decides the question outright.  Engines with
        ``exact=False`` answer relative to a bound (``max_length``): their
        *refutations* (counterexamples, found models) are sound but a
        bounded "valid"/"unsatisfiable" does not settle the unbounded
        question.
    incremental:
        The engine produces a verdict for every prefix of the trace, not
        just the whole computation (monitor).  Per-prefix verdicts cost
        extra work even with incremental plan states absorbing each
        appended state, so batch tools may still cap trace length for such
        engines.
    stutter_only:
        The engine only implements the paper's finite-computation
        convention and cannot see a lasso's repeating cycle (monitor).
    """

    needs_trace: bool = False
    queries: Tuple[str, ...] = (QUERY_VALIDITY, QUERY_SATISFIABILITY)
    propositional_only: bool = False
    ltl_fragment_only: bool = False
    exact: bool = True
    incremental: bool = False
    stutter_only: bool = False


class Engine:
    """Base class of checking engines.

    Subclasses set :attr:`name` and implement :meth:`run`; they should raise
    (not swallow) on unanswerable requests — the session turns exceptions
    into error verdicts when the request asks for that.
    """

    name: str = "?"
    capabilities: EngineCapabilities = EngineCapabilities()

    def run(self, request: CheckRequest, session) -> CheckResult:
        raise NotImplementedError

    def _interval_formula(self, request: CheckRequest) -> Formula:
        formula = request.resolved_formula()
        if not isinstance(formula, Formula):
            raise EngineError(
                f"the {self.name!r} engine checks interval-logic formulas, "
                f"got {type(formula).__name__}"
            )
        return formula


class TraceEngine(Engine):
    """Chapter 3 satisfaction on one computation (wraps the evaluator)."""

    name = "trace"
    capabilities = EngineCapabilities(needs_trace=True, exact=True)

    def run(self, request: CheckRequest, session) -> CheckResult:
        formula = self._interval_formula(request)
        trace = session.resolve_trace(request.trace)
        evaluator = session.evaluator(trace, request.domain)
        verdict = evaluator.satisfies(formula, request.env)
        witness = None
        if (
            request.extract_model
            and isinstance(formula, (IntervalFormula, Occurs))
            and not has_star(formula.term)
        ):
            # Re-running the construction is extra work, so the witness
            # interval is opt-in (campaign hot paths never read it).
            found = evaluator.construct_interval(formula.term, env=request.env)
            if found is not None and found is not BOTTOM:
                witness = found
        return CheckResult(
            verdict=verdict,
            engine=self.name,
            request=request,
            witness=witness,
            statistics={
                "trace_length": trace.length,
                "memo_entries": evaluator.memo_size,
            },
        )


class CompiledEngine(Engine):
    """Chapter 3 satisfaction through the :mod:`repro.compile` pipeline.

    Semantically identical to the ``trace`` engine (the differential fuzzer
    enforces this), but the formula is normalized, hash-consed and lowered
    to an executable plan exactly once: the session's
    :class:`~repro.compile.cache.PlanCache` shares the plan across
    ``check_many`` batches and across traces.  Each request binds its own
    :class:`~repro.compile.runtime.PlanState` (memo tables and
    interval-endpoint indexes for this one check) and closes it once the
    verdict, witness and statistics are read.  Plan nodes dispatch through
    closures bound at state-binding time, and event searches bisect
    instead of scanning.  A stutter-terminated trace is checked as a
    finished prefix: the incremental plan state the monitors run, with
    the bitset kernel reading the trace's columns.  A lasso with a longer
    cycle runs the per-position path.  This is the **default** path for trace-backed
    requests (``Session(prefer_compiled=True)`` is the default); opt out
    per request with ``compile=False`` or per session with
    ``Session(prefer_compiled=False)``.
    """

    name = "compiled"
    capabilities = EngineCapabilities(needs_trace=True, exact=True)
    #: Bind plan states in the vectorized (bitset-kernel) mode.  The
    #: ``stepwise`` subclass flips this off, giving the differential
    #: oracle a per-position compiled run, independent of the monitors'
    #: code, to judge against.
    vectorize = True

    def run(self, request: CheckRequest, session) -> CheckResult:
        formula = self._interval_formula(request)
        trace = session.resolve_trace(request.trace)
        state, from_cache = session.plan_state(
            trace, formula, request.domain, vectorize=self.vectorize
        )
        plan = state.plan
        try:
            verdict = state.satisfies(env=request.env)
            witness = None
            if request.extract_model:
                # Witness construction is opt-in, exactly like the trace engine.
                found = state.construct_root_interval(request.env)
                if found is not None and found is not BOTTOM:
                    witness = found
            statistics = {
                "trace_length": trace.length,
                "plan_nodes": plan.node_count,
                "plan_terms": plan.term_count,
                "plan_digest": plan.digest[:12],
                "plan_from_cache": from_cache,
                "memo_entries": state.memo_size,
                "dispatch_calls": state.stats.dispatch_calls,
                "event_indexes": state.index_count,
                "vector_nodes": state.vector_node_count,
            }
        finally:
            state.close()
        statistics.update(session.plan_cache.statistics())
        return CheckResult(
            verdict=verdict,
            engine=self.name,
            request=request,
            witness=witness,
            statistics=statistics,
            details=plan,
        )


class StepwiseEngine(CompiledEngine):
    """The compiled runtime with the vectorized binding mode disabled.

    Same plan cache, same closure-lowered dispatch, but every node runs
    the per-position memo path — no bitset kernel, no whole-column
    profiles.  Exists so the differential fuzzing oracle can judge the
    vectorized runtime against an independent compiled execution (and so
    callers can pin the per-position behaviour when benchmarking it).
    """

    name = "stepwise"
    capabilities = EngineCapabilities(needs_trace=True, exact=True)
    vectorize = False


class BoundedEngine(Engine):
    """Exhaustive small-scope validity (wraps the bounded checker)."""

    name = "bounded"
    capabilities = EngineCapabilities(propositional_only=True, exact=False)

    def run(self, request: CheckRequest, session) -> CheckResult:
        formula = self._interval_formula(request)
        if request.query == QUERY_VALIDITY:
            result = is_bounded_valid(
                formula,
                variables=request.variables,
                max_length=request.max_length,
                include_lassos=request.include_lassos,
            )
            return CheckResult(
                verdict=result.valid,
                engine=self.name,
                request=request,
                counterexample=result.counterexample,
                statistics={
                    "traces_checked": result.traces_checked,
                    "max_length": result.max_length,
                    "variables": list(result.variables),
                },
                details=result,
            )
        # Satisfiability within the bound: a model of the formula is a
        # counterexample to the validity of its negation.
        model, checked = find_counterexample(
            Not(formula),
            variables=request.variables,
            max_length=request.max_length,
            include_lassos=request.include_lassos,
        )
        return CheckResult(
            verdict=model is not None,
            engine=self.name,
            request=request,
            witness=model,
            statistics={"traces_checked": checked, "max_length": request.max_length},
        )


class TableauEngine(Engine):
    """Exact decision of the LTL fragment (wraps Appendix B / Algorithm A)."""

    name = "tableau"
    capabilities = EngineCapabilities(ltl_fragment_only=True, exact=True)

    def _ltl_formula(self, request: CheckRequest) -> LTLFormula:
        formula = request.resolved_formula()
        if isinstance(formula, LTLFormula):
            return formula
        if isinstance(formula, Formula):
            return interval_to_ltl(formula)
        raise EngineError(
            f"the tableau engine needs an LTL or interval-logic formula, "
            f"got {type(formula).__name__}"
        )

    def run(self, request: CheckRequest, session) -> CheckResult:
        ltl = self._ltl_formula(request)
        decider = TableauDecider(request.theory)
        if request.query == QUERY_VALIDITY:
            result = decider.validity(ltl, extract_model=request.extract_model)
            witness, counterexample = None, result.model
        else:
            result = decider.satisfiability(ltl, extract_model=request.extract_model)
            witness, counterexample = result.model, None
        statistics = dict(result.statistics.as_row())
        statistics["surviving_nodes"] = result.statistics.surviving_nodes
        statistics["surviving_edges"] = result.statistics.surviving_edges
        return CheckResult(
            verdict=result.satisfiable,  # "valid" for validity queries
            engine=self.name,
            request=request,
            witness=witness,
            counterexample=counterexample,
            statistics=statistics,
            details=result,
        )


class LLLEngine(Engine):
    """Appendix C low-level language, bounded partial-interpretation semantics.

    Satisfiability only: ``Ψ`` denotes truncated partial interpretations, so
    an interpretation of the *negation* within the bound does not refute
    validity (an eventuality may simply lie past the truncation).  Validity
    questions belong to the ``tableau`` or ``bounded`` engines.
    """

    name = "lll"
    capabilities = EngineCapabilities(
        queries=(QUERY_SATISFIABILITY,), ltl_fragment_only=True, exact=False
    )

    @staticmethod
    def _canonical(interpretations) -> Tuple:
        """A deterministic representative of a set of interpretations."""
        return min(
            interpretations,
            key=lambda i: (len(i), [tuple(sorted(c)) for c in i]),
        )

    def _expression(self, request: CheckRequest) -> LLLExpression:
        formula = request.resolved_formula()
        if isinstance(formula, LLLExpression):
            return formula
        if isinstance(formula, Formula):
            formula = interval_to_ltl(formula)
        if isinstance(formula, LTLFormula):
            return ltl_to_lll(to_nnf(formula))
        raise EngineError(
            f"the lll engine needs an LLL, LTL or interval-logic formula, "
            f"got {type(formula).__name__}"
        )

    def run(self, request: CheckRequest, session) -> CheckResult:
        if request.query != QUERY_SATISFIABILITY:
            raise EngineError(
                "the lll engine answers query='satisfiability' only: the "
                "bounded Appendix C semantics truncates interpretations, so "
                "refuting the negation within a bound does not decide "
                "validity — use the tableau or bounded engine for that"
            )
        bound = request.max_length
        expression = self._expression(request)
        models = satisfying_interpretations(
            expression, bound, max_interpretations=request.budget
        )
        return CheckResult(
            verdict=bool(models),
            engine=self.name,
            request=request,
            witness=self._canonical(models) if models else None,
            statistics={"bound": bound, "interpretations": len(models)},
        )


class MonitorEngine(Engine):
    """Incremental prefix evaluation (wraps the trace monitor).

    Each request drives its own :class:`~repro.checking.monitor.Monitor`
    over the full trace.  Monitors run on incremental plan states
    (:mod:`repro.compile`), so the S per-prefix verdicts cost amortized
    O(changed work) per state rather than a full re-evaluation each; when
    only the final verdict matters the ``trace``/``compiled`` engines are
    still cheaper, and
    :class:`~repro.checking.monitor.SpecificationMonitor` remains the tool
    for observing many clauses in one pass over a *live* state stream.
    """

    name = "monitor"
    capabilities = EngineCapabilities(
        needs_trace=True, exact=True, incremental=True, stutter_only=True
    )

    def run(self, request: CheckRequest, session) -> CheckResult:
        formula = self._interval_formula(request)
        trace = session.resolve_trace(request.trace)
        name = request.label or "formula"
        # Through the session: its default domain applies and the plan
        # comes from its cache, as for every other plan-backed engine.
        monitor = session.monitor({name: formula}, request.domain)
        # The verdict on every prefix, one observation per state: each a
        # one-state slice of one window over the trace's own rows.
        rows = trace.window()
        history = []
        try:
            for index in range(len(rows)):
                verdict = monitor.observe_batch(rows[index:index + 1])[name]
                history.append(verdict.holds)
        finally:
            monitor.close()
        first_failure = next(
            (step for step, value in enumerate(history, start=1) if not value),
            None,
        )
        return CheckResult(
            verdict=verdict.holds,
            engine=self.name,
            request=request,
            counterexample=first_failure,
            statistics={
                "prefix_length": monitor.prefix_length,
                "stable_for": verdict.stable_for,
                "first_failure_step": first_failure,
                "history": history,
            },
            details=verdict,
        )


class EngineRegistry:
    """Name → engine mapping; sessions dispatch through one of these."""

    def __init__(self, engines: Iterable[Engine] = ()) -> None:
        self._engines = {}
        for engine in engines:
            self.register(engine)

    def register(self, engine: Engine, replace: bool = False) -> None:
        if not replace and engine.name in self._engines:
            raise CheckRequestError(f"engine {engine.name!r} is already registered")
        self._engines[engine.name] = engine

    def get(self, name: str) -> Engine:
        try:
            return self._engines[name]
        except KeyError:
            raise CheckRequestError(
                f"unknown engine {name!r}; available: {', '.join(self.names())}"
            ) from None

    def names(self) -> Tuple[str, ...]:
        return tuple(sorted(self._engines))

    def engines(self) -> Tuple[Engine, ...]:
        """The registered engines, in name order."""
        return tuple(self._engines[name] for name in self.names())

    def __contains__(self, name: str) -> bool:
        return name in self._engines


def default_registry() -> EngineRegistry:
    """A fresh registry holding the seven standard engines."""
    return EngineRegistry(
        [
            TraceEngine(),
            CompiledEngine(),
            StepwiseEngine(),
            BoundedEngine(),
            TableauEngine(),
            LLLEngine(),
            MonitorEngine(),
        ]
    )
