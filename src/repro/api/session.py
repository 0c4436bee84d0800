"""The façade session: one front door for every checking question.

A :class:`Session` holds the shared context of a checking campaign — named
traces, default quantification domains, the compiled-plan cache, and the
engine registry — and answers
:class:`~repro.api.request.CheckRequest` objects through
:meth:`Session.check` and :meth:`Session.check_many`.

Auto-dispatch picks the engine from the formula fragment and the request
shape::

    LLL expression                      -> lll
    request carries a trace             -> compiled (the default path; the
                                           interpreting trace engine on
                                           compile=False requests or
                                           Session(prefer_compiled=False))
    LTL formula / LTL fragment          -> tableau
    anything else (quantifiers, ops...) -> bounded

Every :class:`~repro.api.result.CheckResult` records *why* its engine was
selected in ``engine_reason`` — including the automatic fallback from the
compiled path to the interpreting evaluator should a formula fail to lower.

``check_many`` batches requests over the session's plan cache and can fan a
large campaign out over worker processes in chunks;
:meth:`Session.check_spec` checks a whole specification through one
multi-root :class:`~repro.compile.specplan.SpecPlan` so clauses share
subformula work.
"""

from __future__ import annotations

import time
import warnings
from collections import OrderedDict
from typing import Any, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple, Union

from ..compile.dag import CompileError
from ..lll.syntax import LLLExpression
from ..obs import MetricsRegistry, Tracer
from ..ltl.syntax import LTLFormula
from ..ltl.translation import is_in_ltl_fragment
from ..semantics.evaluator import Evaluator
from ..semantics.trace import Trace
from ..syntax.formulas import Formula
from .coerce import CheckRequestError, coerce_trace
from .engines import Engine, EngineRegistry, default_registry
from .request import CheckRequest
from .result import CheckResult

__all__ = ["Session", "check", "check_many"]


RequestLike = Union[CheckRequest, Any]


_UNCACHEABLE = object()


def _domain_key(domain: Optional[Mapping[str, Iterable[Any]]]) -> Any:
    if not domain:
        return None
    try:
        return tuple(sorted((name, tuple(values)) for name, values in domain.items()))
    except TypeError:
        return _UNCACHEABLE  # unhashable domain: cannot be shared


class Session:
    """Shared context for a checking campaign.

    The session keeps only what does not depend on a trace: compiled plans
    in a bounded LRU, and bounded identity shortcuts to the plans of the
    specifications and monitored formula sets it has resolved.  Every check
    binds its evaluator or plan state to its trace afresh and closes it when
    the check ends, so the session holds no per-trace object between checks.

    Parameters
    ----------
    domain:
        Default ``Forall`` quantification domains applied when a request
        carries none.
    engines:
        A custom :class:`~repro.api.engines.EngineRegistry`; defaults to the
        six standard engines.
    processes:
        Default worker-process count for :meth:`check_many` (``None`` =
        in-process).
    prefer_compiled:
        Auto-dispatch trace-carrying requests to the ``compiled`` engine
        (plan-cached evaluation, :mod:`repro.compile`).  **On by default**:
        the compiled path is exact-verdict pinned against the interpreting
        evaluator across the differential corpora, and a formula that fails
        to lower falls back to the ``trace`` engine automatically (audited
        on ``CheckResult.engine_reason``).  Pass ``prefer_compiled=False``
        to keep the interpreting ``trace`` engine the default; requests
        override per-call with ``compile=True`` / ``compile=False``.
    forall_unroll_cap:
        Bound on quantifier unrolling in the compiled runtime (``None`` =
        the runtime default, ``0`` disables specialization), applied to
        every plan state the session binds.
    metrics:
        A :class:`~repro.obs.MetricsRegistry` to record into (defaults to
        a fresh one per session; pass ``repro.obs.NULL_METRICS`` for the
        uninstrumented baseline).  Every check records engine dispatch,
        latency, errors, fallbacks and plan-cache hit/miss into labelled
        series; :meth:`metrics_snapshot` adds the cache gauges and returns
        the JSON-safe snapshot.
    tracer:
        A :class:`~repro.obs.Tracer`; every :meth:`check` / :meth:`check_spec`
        call opens a span (engine, reason, verdict) into its bounded
        buffer.
    """

    def __init__(
        self,
        domain: Optional[Mapping[str, Iterable[Any]]] = None,
        engines: Optional[EngineRegistry] = None,
        processes: Optional[int] = None,
        prefer_compiled: bool = True,
        forall_unroll_cap: Optional[int] = None,
        metrics: Optional[MetricsRegistry] = None,
        tracer: Optional[Tracer] = None,
    ) -> None:
        self._default_domain = dict(domain) if domain else None
        self._registry = engines if engines is not None else default_registry()
        # Custom registries cannot be reconstructed inside worker processes,
        # so parallel fan-out is reserved for the default engine set.
        self._registry_is_default = engines is None
        self._processes = processes
        self._prefer_compiled = prefer_compiled
        self._forall_unroll_cap = forall_unroll_cap
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.tracer = tracer if tracer is not None else Tracer()
        # Hot-path instruments, declared once (children are cached too).
        self._m_checks = self.metrics.counter(
            "repro_checks_total", "Checks answered, by engine.", ("engine",)
        )
        self._m_check_seconds = self.metrics.histogram(
            "repro_check_seconds", "Per-check wall time, by engine.", ("engine",)
        )
        self._m_check_errors = self.metrics.counter(
            "repro_check_errors_total", "Checks that raised/captured an error, by engine.",
            ("engine",),
        )
        self._m_fallbacks = self.metrics.counter(
            "repro_compile_fallbacks_total",
            "Compiled-path requests that fell back to the trace engine.",
        )
        self._m_plan_requests = self.metrics.counter(
            "repro_plan_requests_total",
            "Compiled plans requested by checks and monitor opens, by outcome "
            "(hit = served without compiling).",
            ("outcome",),
        )
        self._m_spec_checks = self.metrics.counter(
            "repro_spec_checks_total",
            "check_spec calls, by evaluation path (specplan or per-clause).",
            ("path",),
        )
        self._m_parallel_chunks = self.metrics.counter(
            "repro_parallel_chunks_total",
            "Worker chunks completed by check_many fan-outs.",
        )
        self._m_parallel_fallbacks = self.metrics.counter(
            "repro_parallel_fallbacks_total",
            "check_many fan-outs that fell back to in-process execution, "
            "by exception class.",
            ("reason",),
        )
        self._traces: Dict[str, Trace] = {}
        self._plan_cache: Optional[Any] = None
        # Spec plans re-resolved by specification identity, skipping the
        # per-call clause interpretation + digest on repeated check_spec
        # calls (conformance campaigns check one spec on many traces).
        # Values are (plan, specification), plan None for a spec that
        # failed to lower: holding the spec in the entry keeps its id()
        # valid for exactly as long as the key can match.  Bounded LRU so
        # sessions streaming fresh Specification objects (the spec-mode
        # fuzzer) stay bounded, and entries drop when the plan cache
        # evicts their plan.
        self._spec_plans: "OrderedDict[Tuple[int, int, Any], Tuple[Any, Any]]" = (
            OrderedDict()
        )
        # Monitor fast path: formulas resolved by *identity* skip the
        # per-open clause parse + spec digest (a serve registry opening
        # thousands of streams passes the same formula objects each time).
        # Entries pin the formula objects so the id() keys cannot recycle.
        self._monitor_plans: "OrderedDict[Any, Tuple[Any, Any, Any]]" = (
            OrderedDict()
        )

    # -- traces and evaluators -----------------------------------------------------

    def add_trace(self, name: str, trace: Any) -> "Session":
        """Register a trace under ``name`` (rows are coerced); chainable."""
        self._traces[name] = coerce_trace(trace)
        return self

    def trace(self, name: str) -> Trace:
        try:
            return self._traces[name]
        except KeyError:
            raise CheckRequestError(
                f"no trace named {name!r} on this session "
                f"(registered: {', '.join(sorted(self._traces)) or 'none'})"
            ) from None

    def trace_names(self) -> Tuple[str, ...]:
        return tuple(sorted(self._traces))

    def resolve_trace(self, value: Any) -> Trace:
        """A ``Trace`` from a request's ``trace`` field (name, rows, object)."""
        if value is None:
            raise CheckRequestError(
                "this engine evaluates over a computation; pass trace=... "
                "(a Trace, a registered trace name, or state rows)"
            )
        if isinstance(value, str):
            return self.trace(value)
        return coerce_trace(value)

    def evaluator(
        self,
        trace: Trace,
        domain: Optional[Mapping[str, Iterable[Any]]] = None,
    ) -> Evaluator:
        """A fresh evaluator (and memo table) for ``trace`` and ``domain``.

        Bound per call: its memo table lives as long as the caller holds
        the evaluator, and the session keeps nothing of it.
        """
        if domain is None:
            domain = self._default_domain
        return Evaluator(trace, domain)

    def clear_caches(self) -> "Session":
        """Release every compiled plan and identity entry.

        The plan-cache hit/miss/eviction statistics reset to zero — the
        counters always describe the current cache generation.  Named
        traces registered with :meth:`add_trace` are kept.  Memory does not
        need it: every cache the session holds is bounded, and no check
        leaves a per-trace object behind.
        """
        self._spec_plans.clear()
        self._monitor_plans.clear()
        if self._plan_cache is not None:
            self._plan_cache.clear()
        return self

    # -- compiled plans ----------------------------------------------------------

    @property
    def plan_cache(self):
        """The session's :class:`~repro.compile.cache.PlanCache` (lazy)."""
        if self._plan_cache is None:
            from ..compile import PlanCache

            self._plan_cache = PlanCache(on_evict=self._drop_plan_states_for)
        return self._plan_cache

    def cache_statistics(self) -> Dict[str, Any]:
        """One snapshot of every cache this session holds.

        Plan-cache hit/miss/eviction counters plus the spec and monitor
        identity entry counts — the numbers :mod:`repro.serve` surfaces per
        worker in service snapshots.  The plan-cache numbers flow into
        :meth:`metrics_snapshot` as ``repro_plan_cache_*`` series.  No plan
        state or evaluator is counted: the session keeps none between
        checks.  ``plan_state_pool_hits`` is always 0: monitors bind a
        fresh plan state each, and the key stays for readers written
        against the former plan-state pool.
        """
        stats: Dict[str, Any] = dict(self.plan_cache.statistics())
        stats["spec_plan_entries"] = len(self._spec_plans)
        stats["monitor_plan_entries"] = len(self._monitor_plans)
        stats["plan_state_pool_hits"] = 0
        return stats

    def metrics_snapshot(self) -> Dict[str, Any]:
        """The session's :class:`~repro.obs.MetricsRegistry` snapshot with
        the cache gauges synced in (the ``repro.obs`` successor to
        :meth:`cache_statistics`: same counters, one composable format).
        """
        cache = self.cache_statistics()
        gauges = {
            "repro_plan_cache_size": ("plan_cache_size", "Plans resident in the LRU."),
            "repro_plan_cache_hits": ("plan_cache_hits", "LRU hits this generation."),
            "repro_plan_cache_misses": ("plan_cache_misses", "LRU misses this generation."),
            "repro_plan_cache_evictions": ("plan_cache_evictions", "LRU evictions."),
            "repro_plan_alpha_interned": (
                "plan_alpha_interned",
                "Cache lookups collapsed onto an alpha-equivalent plan."),
        }
        for name, (key, help_text) in gauges.items():
            if key in cache:
                self.metrics.gauge(name, help_text).child().set(cache[key])
        self.metrics.gauge(
            "repro_plan_compile_seconds", "Cumulative plan compile time."
        ).child().set(cache.get("plan_compile_time_s", 0.0))
        return self.metrics.snapshot()

    def monitor(
        self,
        formulas: Mapping[str, Any],
        domain: Optional[Mapping[str, Iterable[Any]]] = None,
        **options: Any,
    ):
        """An incremental :class:`~repro.checking.monitor.Monitor` whose
        multi-root plan comes from this session's (warm) plan cache.

        Opening thousands of monitored streams over the same specification
        compiles it once per session.  ``options`` pass through to
        the monitor (``on_change``, ``capture_errors``,
        ``forall_unroll_cap``).
        The monitor records whether its plan was served from cache on
        ``plan_from_cache``, and the open counts in
        ``repro_plan_requests_total``: ``hit`` when the identity map or the
        plan LRU serves the plan, ``miss`` when it compiles.

        Formulas passed by *identity* (the serve registry resolves each
        spec family once and reuses the objects) skip the per-open parse
        and digest.  Every monitor binds a fresh plan state of its own
        when it first observes a state: monitors share the compiled plan,
        never memo tables or a prefix.
        """
        from ..checking.monitor import Monitor

        from ..syntax.parser import parse_formula

        if domain is None:
            domain = self._default_domain
        cap = options.get("forall_unroll_cap", self._forall_unroll_cap)
        domain_key = _domain_key(domain)
        plan = None
        items: Any = None
        from_cache = False
        identity_key = None
        if domain_key is not _UNCACHEABLE:
            identity_key = (
                tuple((name, id(f)) for name, f in formulas.items()),
                domain_key,
                cap,
            )
            entry = self._monitor_plans.get(identity_key)
            if entry is not None:
                self._monitor_plans.move_to_end(identity_key)
                plan, items = entry[0], entry[1]
                from_cache = True
        if plan is None:
            items = [
                (name, parse_formula(f) if isinstance(f, str) else f)
                for name, f in formulas.items()
            ]
            plan, from_cache = self.plan_cache.get_spec(items, domain)
            if identity_key is not None:
                self._monitor_plans[identity_key] = (
                    plan, items, tuple(formulas.values()),
                )
                while len(self._monitor_plans) > self._SPEC_PLAN_IDENTITY_CAPACITY:
                    self._monitor_plans.popitem(last=False)
        self._m_plan_requests.child("hit" if from_cache else "miss").inc()
        options.setdefault("forall_unroll_cap", self._forall_unroll_cap)
        monitor = Monitor(dict(items), domain, plan=plan, **options)
        monitor.plan_from_cache = from_cache
        return monitor

    def release_monitor(self, monitor) -> bool:
        """A no-op kept for callers of the former plan-state pool.

        Always returns ``False``: nothing is parked or reset, and the
        monitor stays usable.  A bound monitor's plan state holds reference
        cycles (its lowered closures and kernel point back at it), so
        dropping the last reference to a monitor leaves its plan state to
        the cycle collector; :meth:`Monitor.close
        <repro.checking.monitor.Monitor.close>` breaks those cycles, after
        which reference counting frees both.
        """
        return False

    #: Identity-cache capacity: far above any hand-written campaign's spec
    #: count, small enough that spec-streaming sessions stay bounded.
    _SPEC_PLAN_IDENTITY_CAPACITY = 64

    def _drop_plan_states_for(self, digest: str) -> None:
        """Drop the identity entries of an evicted plan (LRU eviction hook),
        so an eviction from the bounded plan cache cannot be served (and
        kept alive) through the identity shortcuts."""
        for key in [
            k
            for k, (plan, _) in self._spec_plans.items()
            if plan is not None and plan.digest == digest
        ]:
            del self._spec_plans[key]
        for key in [
            k
            for k, (plan, _, _) in self._monitor_plans.items()
            if plan.digest == digest
        ]:
            del self._monitor_plans[key]

    def plan_state(
        self,
        trace: Trace,
        formula: Any,
        domain: Optional[Mapping[str, Iterable[Any]]] = None,
        vectorize: bool = True,
    ):
        """A fresh compiled plan state for ``(formula, trace, domain)``.

        The plan — the one-clause :class:`~repro.compile.specplan.SpecPlan`
        of ``formula`` — is cached by spec digest + domain shape: one
        compilation serves every trace and every ``check_many`` batch.  The
        :class:`~repro.compile.runtime.PlanState` binding it to ``trace``
        is made per call; close it (:meth:`PlanState.close
        <repro.compile.runtime.PlanState.close>`) when the check ends, and
        reference counting frees it with its last holder.

        Returns ``(plan_state, plan_from_cache)``.
        """
        if domain is None:
            domain = self._default_domain
        plan, from_cache = self.plan_cache.get(formula, domain)
        state = plan.evaluator(
            trace, domain, vectorize=vectorize,
            forall_unroll_cap=self._forall_unroll_cap,
        )
        return state, from_cache

    def _spec_key(self, specification, domain) -> Any:
        """The identity-LRU key of ``specification`` under ``domain``
        (``None`` for an unhashable domain, which is never cached).

        Clause lists only grow (and clauses are immutable), so (identity,
        clause count) safely re-resolves the plan without re-interpreting
        and re-digesting every clause per trace.
        """
        domain_key = _domain_key(domain)
        if domain_key is _UNCACHEABLE:
            return None
        return (id(specification), len(specification.clauses), domain_key)

    def _remember_spec(self, key: Any, plan: Any, specification) -> None:
        if key is None:
            return
        self._spec_plans[key] = (plan, specification)
        while len(self._spec_plans) > self._SPEC_PLAN_IDENTITY_CAPACITY:
            self._spec_plans.popitem(last=False)

    def spec_plan_state(
        self,
        trace: Trace,
        specification,
        domain: Optional[Mapping[str, Iterable[Any]]] = None,
        vectorize: bool = True,
    ):
        """A fresh multi-root plan state for ``(specification, trace, domain)``.

        The whole specification compiles into one
        :class:`~repro.compile.specplan.SpecPlan` (cached by spec digest +
        domain shape in the same LRU as single-formula plans, and found
        again by specification identity); the
        :class:`~repro.compile.runtime.PlanState` binding it to
        ``trace`` shares its memo tables and endpoint indexes across every
        clause of one check.  It is made per call; close it when the check
        ends.

        Returns ``(spec_plan_state, plan_from_cache)``.
        """
        if domain is None:
            domain = self._default_domain
        key = self._spec_key(specification, domain)
        entry = self._spec_plans.get(key)
        if entry is not None and entry[0] is not None:
            self._spec_plans.move_to_end(key)
            plan, from_cache = entry[0], True
        else:
            items = [
                (clause.name, clause.interpreted_formula())
                for clause in specification.clauses
            ]
            plan, from_cache = self.plan_cache.get_spec(items, domain)
            self._remember_spec(key, plan, specification)
        state = plan.evaluator(
            trace, domain, vectorize=vectorize,
            forall_unroll_cap=self._forall_unroll_cap,
        )
        return state, from_cache

    # -- engines ----------------------------------------------------------------------

    @property
    def engines(self) -> Tuple[str, ...]:
        return self._registry.names()

    @property
    def registry(self) -> EngineRegistry:
        """The engine registry (engine objects carry their capabilities)."""
        return self._registry

    def capabilities(self) -> Dict[str, Any]:
        """Engine name → :class:`~repro.api.engines.EngineCapabilities`."""
        return {engine.name: engine.capabilities for engine in self._registry.engines()}

    def register_engine(self, engine: Engine, replace: bool = False) -> "Session":
        self._registry.register(engine, replace=replace)
        return self

    def _select_engine(self, request: CheckRequest) -> Tuple[Engine, str]:
        """The engine answering ``request`` plus the audit reason."""
        if request.mode is not None:
            return (
                self._registry.get(request.mode),
                f"explicit mode={request.mode!r}",
            )
        formula = request.resolved_formula()
        if isinstance(formula, LLLExpression):
            return self._registry.get("lll"), "LLL expression → lll"
        if request.trace is not None:
            if request.compile is True:
                if "compiled" in self._registry:
                    return (
                        self._registry.get("compiled"),
                        "trace-backed; request compile=True → compiled",
                    )
            elif request.compile is False:
                return (
                    self._registry.get("trace"),
                    "trace-backed; request compile=False → trace",
                )
            elif self._prefer_compiled and "compiled" in self._registry:
                return (
                    self._registry.get("compiled"),
                    "trace-backed; session prefer_compiled → compiled",
                )
            return (
                self._registry.get("trace"),
                "trace-backed → trace"
                if "compiled" in self._registry
                else "trace-backed; no 'compiled' engine registered → trace",
            )
        if isinstance(formula, LTLFormula):
            return self._registry.get("tableau"), "no trace; LTL formula → tableau"
        if isinstance(formula, Formula) and is_in_ltl_fragment(formula):
            return (
                self._registry.get("tableau"),
                "no trace; LTL-fragment interval formula → tableau",
            )
        return (
            self._registry.get("bounded"),
            "no trace; beyond the LTL fragment → bounded",
        )

    # -- checking ---------------------------------------------------------------------

    def check(self, formula: RequestLike, **options: Any) -> CheckResult:
        """Answer one request; ``options`` are :class:`CheckRequest` fields."""
        request = self._as_request(formula, options)
        return self._run(request)

    def check_many(
        self,
        requests: Sequence[RequestLike],
        processes: Optional[int] = None,
        chunk_size: Optional[int] = None,
    ) -> List[CheckResult]:
        """Answer a batch of requests, in order.

        In-process execution shares this session's compiled plans across
        the whole batch; each request binds (and frees) its own plan state
        or evaluator.  With ``processes`` > 1 the batch is split
        into chunks and fanned out over worker processes (each worker runs
        its own session); requests that cannot be shipped to workers fall
        back to in-process execution.
        """
        if chunk_size is not None and chunk_size < 1:
            raise CheckRequestError(f"chunk_size must be at least 1, got {chunk_size}")
        prepared = [self._as_request(r, {}) for r in requests]
        if processes is None:
            processes = self._processes
        if (
            processes
            and processes > 1
            and len(prepared) > 1
            and self._registry_is_default
        ):
            from .parallel import run_chunked

            shipped = [self._prepare_for_worker(r) for r in prepared]
            metrics_sink: List[Dict[str, Any]] = []
            try:
                with self.tracer.span(
                    "check_many", requests=len(shipped), processes=processes
                ) as span:
                    results = run_chunked(
                        shipped, processes, chunk_size, metrics_sink=metrics_sink
                    )
                    span.set(chunks=len(metrics_sink))
                # Worker registries merge deterministically: counter/
                # histogram addition is order-independent, so the parent's
                # totals cannot depend on chunk completion order.
                for snapshot in metrics_sink:
                    self.metrics.merge_snapshot(snapshot)
                self._m_parallel_chunks.child().inc(len(metrics_sink))
                return results
            except Exception as exc:
                # Workers could not be used (unpicklable payloads, missing
                # fork support, or an engine error that must surface with a
                # real traceback): re-run everything in-process — loudly,
                # because a big campaign silently losing its parallelism
                # (and doing the work twice) is worth knowing about.
                self._m_parallel_fallbacks.child(type(exc).__name__).inc()
                warnings.warn(
                    f"check_many fell back from {processes} worker processes "
                    f"to in-process execution: {type(exc).__name__}: {exc}",
                    RuntimeWarning,
                    stacklevel=2,
                )
        return [self._run(request) for request in prepared]

    def _prepare_for_worker(self, request: CheckRequest) -> CheckRequest:
        """Make a request self-contained so a fresh worker session can run it.

        Worker sessions have none of this session's state: trace names are
        resolved to the traces themselves and the session's default domain
        is written onto requests that carry none.
        """
        changes: Dict[str, Any] = {}
        if isinstance(request.trace, (str, list, tuple)):
            changes["trace"] = self.resolve_trace(request.trace)
        if request.domain is None and self._default_domain is not None:
            changes["domain"] = self._default_domain
        if request.compile is None and self._prefer_compiled:
            # Worker sessions are plain Session(); write the preference onto
            # the request so fan-out dispatches like the in-process path.
            changes["compile"] = True
        if changes:
            return request.with_options(**changes)
        return request

    def check_spec(
        self,
        specification,
        trace: Any,
        domain: Optional[Mapping[str, Iterable[Any]]] = None,
        env: Optional[Mapping[str, Any]] = None,
        compiled: Optional[bool] = None,
        processes: Optional[int] = None,
    ):
        """Check every clause of a specification on ``trace`` — as one unit.

        The default path compiles the whole specification into a multi-root
        :class:`~repro.compile.specplan.SpecPlan` and answers every clause
        through one shared :class:`~repro.compile.runtime.PlanState`:
        subformulas shared across clauses (the same ``[]``/``<>``
        skeletons, event atoms, operation predicates) are decided once per
        position instead of once per clause.  Errors are captured per
        clause, matching ``Specification.check``.

        ``compiled=False`` opts out to the per-clause engine path (one
        :class:`CheckRequest` per clause through :meth:`check_many`), which
        is also used automatically with worker ``processes`` and as the
        fallback when a clause fails to lower.

        Returns the familiar
        :class:`~repro.core.specification.SpecificationResult`.
        """
        from ..core.specification import ClauseVerdict, SpecificationResult

        resolved = self.resolve_trace(trace)
        use_spec_plan = self._prefer_compiled if compiled is None else compiled
        key = self._spec_key(
            specification, domain if domain is not None else self._default_domain
        )
        entry = self._spec_plans.get(key)
        if (
            use_spec_plan
            and not (processes and processes > 1)
            and (entry is None or entry[0] is not None)
        ):
            try:
                state, from_cache = self.spec_plan_state(
                    resolved, specification, domain
                )
            except CompileError:
                # Negative-cache the identity: a spec that cannot lower
                # would otherwise pay a full failed compilation per trace.
                self._remember_spec(key, None, specification)
            else:
                try:
                    with self.tracer.span(
                        "check_spec",
                        spec=getattr(specification, "name", None),
                        clauses=len(specification.clauses),
                        path="specplan",
                    ):
                        outcomes = state.check_all(env)
                finally:
                    state.close()
                self._m_spec_checks.child("specplan").inc()
                self._m_plan_requests.child("hit" if from_cache else "miss").inc()
                verdicts = [
                    ClauseVerdict(clause, outcome.verdict is True, outcome.error)
                    for clause, outcome in zip(specification.clauses, outcomes)
                ]
                return SpecificationResult(specification, verdicts)
        requests = [
            # mode=None: auto-dispatch applies the session's compile
            # preference per clause (and its CompileError fallback).
            CheckRequest(
                formula=clause.interpreted_formula(),
                trace=resolved,
                env=env,
                domain=domain,
                compile=compiled,
                capture_errors=True,
                label=clause.name,
            )
            for clause in specification.clauses
        ]
        self._m_spec_checks.child("per-clause").inc()
        results = self.check_many(requests, processes=processes)
        verdicts = [
            ClauseVerdict(clause, result.verdict is True, result.error)
            for clause, result in zip(specification.clauses, results)
        ]
        return SpecificationResult(specification, verdicts)

    def check_specification(
        self,
        specification,
        trace: Any,
        domain: Optional[Mapping[str, Iterable[Any]]] = None,
        processes: Optional[int] = None,
    ):
        """Alias of :meth:`check_spec` (the original façade entry point)."""
        return self.check_spec(
            specification, trace, domain=domain, processes=processes
        )

    # -- internals ---------------------------------------------------------------------

    @staticmethod
    def _as_request(value: RequestLike, options: Mapping[str, Any]) -> CheckRequest:
        if isinstance(value, CheckRequest):
            if options:
                return value.with_options(**options)
            return value
        return CheckRequest(formula=value, **options)

    def _run(self, request: CheckRequest) -> CheckResult:
        started = time.perf_counter()
        engine_name = request.mode or "?"
        reason: Optional[str] = None
        with self.tracer.span("check") as span:
            try:
                engine, reason = self._select_engine(request)
                engine_name = engine.name
                try:
                    result = engine.run(request, self)
                except CompileError as exc:
                    if engine.name != "compiled" or request.mode == "compiled" \
                            or "trace" not in self._registry:
                        raise
                    # Automatic fallback: a formula the compile pipeline cannot
                    # lower is still checkable by the interpreting evaluator.
                    fallback = self._registry.get("trace")
                    engine_name = fallback.name
                    reason = f"{reason}; fell back to trace on CompileError: {exc}"
                    self._m_fallbacks.child().inc()
                    result = fallback.run(request, self)
            except Exception as exc:
                if not request.capture_errors:
                    self._m_check_errors.child(engine_name).inc()
                    raise
                result = CheckResult(
                    verdict=None,
                    engine=engine_name,
                    request=request,
                    error=f"{type(exc).__name__}: {exc}",
                )
            result.engine_reason = reason
            result.wall_time_s = time.perf_counter() - started
            self._m_checks.child(engine_name).inc()
            self._m_check_seconds.child(engine_name).observe(result.wall_time_s)
            if result.error is not None:
                self._m_check_errors.child(engine_name).inc()
            from_cache = result.statistics.get("plan_from_cache")
            if from_cache is not None:
                self._m_plan_requests.child("hit" if from_cache else "miss").inc()
            span.set(
                engine=engine_name,
                reason=reason,
                verdict=result.verdict,
                label=request.label,
            )
        return result


def check(formula: RequestLike, **options: Any) -> CheckResult:
    """One-shot convenience: run a single request on a throwaway session."""
    return Session().check(formula, **options)


def check_many(
    requests: Sequence[RequestLike],
    processes: Optional[int] = None,
    chunk_size: Optional[int] = None,
) -> List[CheckResult]:
    """One-shot convenience: run a batch on a throwaway session."""
    return Session().check_many(requests, processes=processes, chunk_size=chunk_size)
