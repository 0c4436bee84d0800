"""``repro.compile`` — formula compilation and executable evaluation plans.

Every engine used to interpret raw interval-logic ASTs on every call; this
package is the compile-once/run-many layer between the Chapter 2/3 syntax
and the engines.  The pipeline, mapped to the paper:

========================  ==================================================
stage                     paper anchor
========================  ==================================================
:mod:`.normalize`         Appendix A star reduction applied once up front;
                          NNF over the Chapter 3 connectives (``¬[]α ≡
                          <>¬α`` and duals); constant folding over the
                          Chapter 4 boolean identities; canonical ordering
                          of the commutative connectives
:mod:`.dag`               hash-consed subformula DAG: each distinct
                          subformula of the Chapter 2/3 grammar is lowered
                          (and later memoized) exactly once, with
                          precomputed free-variable signatures per node —
                          the rigid/state variable split of Appendix B
:mod:`.plan`              :class:`CompiledPlan` — the trace-independent
                          artifact, digest-addressed for caching
:mod:`.specplan`          :class:`SpecPlan` — a whole specification's
                          clauses interned into *one* multi-root DAG
                          (shared memo tables, shared event indexes,
                          per-clause root verdicts), the unit the
                          Chapter 5–8 conformance experiments actually
                          check
:mod:`.lower`             closure lowering of plan-node dispatch: each DAG
                          node binds once to a Python closure over its
                          slots/memo/indexes, replacing the per-call
                          opcode chain
:mod:`.vector`            the bitset kernel — the vectorized binding mode
                          over growing prefixes and stutter-terminated
                          traces: state formulas (and ``[]/<>`` directly
                          over them) evaluate as packed-int bitset
                          operations, and each profile searched as an
                          event keeps a window-extended change index that
                          searches bisect
:mod:`.runtime`           :class:`PlanState` — the Chapter 3 satisfaction
                          relation over slot-addressed environments, with
                          an interval-endpoint index over state-change
                          events so the construction function ``F``
                          (Chapter 3) bisects changesets instead of
                          scanning, and incremental plan states absorbing
                          one appended state in amortized O(changed work)
                          for the finite-computation convention: monitors,
                          and one-shot checks of a finite trace read as a
                          finished prefix
:mod:`.cache`             :class:`PlanCache` — the session-level
                          digest-keyed bounded LRU (single- and multi-root
                          plans, hit/miss/eviction stats) behind the
                          ``compiled`` engine of :mod:`repro.api.engines`
========================  ==================================================

Typical use::

    from repro.compile import compile_formula

    plan = compile_formula(parse_formula("[] (p -> <> q)"))
    state = plan.evaluator(trace)          # bind once per trace
    state.satisfies()                      # run many: memo + index warm

    monitor = plan.monitor()               # incremental variant
    monitor.trace.append(next_state)
    monitor.note_append()
    monitor.satisfies()                    # O(changed work), not O(prefix)

The ``compiled`` engine (``Session.check(..., mode="compiled")`` or
``Session(prefer_compiled=True)``) wraps exactly this, adding the session
plan cache and the unified :class:`~repro.api.result.CheckResult`.
"""

from .cache import DEFAULT_MAX_PLANS, PlanCache
from .dag import CompileError, DagBuilder, PlanNode, PlanTerm
from .lower import bind_dispatch
from .normalize import normalize, structural_key
from .plan import CompiledPlan, compile_formula, formula_digest
from .runtime import (
    UNSET,
    ComparisonIndex,
    EventIndex,
    GrowingPrefix,
    PlanState,
    PlanStats,
    ValueColumn,
)
from .specplan import (
    ClauseOutcome,
    SpecPlan,
    SpecPlanState,
    compile_specification,
    spec_digest,
)
from .vector import bit_positions

__all__ = [
    "normalize",
    "structural_key",
    "CompileError",
    "DagBuilder",
    "PlanNode",
    "PlanTerm",
    "CompiledPlan",
    "compile_formula",
    "formula_digest",
    "SpecPlan",
    "SpecPlanState",
    "ClauseOutcome",
    "compile_specification",
    "spec_digest",
    "bind_dispatch",
    "PlanCache",
    "DEFAULT_MAX_PLANS",
    "PlanState",
    "PlanStats",
    "GrowingPrefix",
    "EventIndex",
    "ValueColumn",
    "ComparisonIndex",
    "UNSET",
    "bit_positions",
]
