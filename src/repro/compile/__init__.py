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
:mod:`.specplan`          :class:`SpecPlan` — the trace-independent
                          artifact, digest-addressed for caching: a
                          specification's clauses interned into *one*
                          multi-root DAG (shared memo tables, shared
                          kernel profiles and event indexes, per-clause
                          root verdicts), the unit the Chapter 5–8
                          conformance experiments check; a single formula
                          is the one-clause plan
:mod:`.lower`             closure lowering of plan-node dispatch: each DAG
                          node binds once to a Python closure over its
                          slots/memo/indexes, replacing the per-call
                          opcode chain
:mod:`.vector`            the bitset kernel — the vectorized binding mode
                          over growing prefixes and stutter-terminated
                          traces: every state formula (and ``[]/<>``
                          directly over one) evaluates as packed-int
                          bitset operations over a truth profile, column
                          atoms per distinct value and other atoms per
                          appended position, and each profile searched as
                          an event keeps a window-extended change index
                          that searches bisect
:mod:`.runtime`           :class:`PlanState` — one plan bound to one
                          computation, answering each of its clauses by
                          the Chapter 3 satisfaction relation over
                          slot-addressed environments, with
                          one interval-endpoint index per mode over
                          state-change events (the kernel's change index
                          incrementally, an :class:`EventIndex` over a
                          fixed lasso statically) so the construction
                          function ``F`` (Chapter 3) bisects changesets
                          instead of scanning, and incremental plan
                          states absorbing one appended state in amortized
                          O(changed work) for the finite-computation
                          convention: monitors, and one-shot checks of a
                          finite trace read as a finished prefix
:mod:`.cache`             :class:`PlanCache` — the session-level
                          digest-keyed bounded LRU (hit/miss/eviction
                          stats) behind the ``compiled`` engine of
                          :mod:`repro.api.engines` and ``check_spec``
========================  ==================================================

Typical use::

    from repro.compile import compile_formula, compile_specification

    plan = compile_formula(parse_formula("[] (p -> <> q)"))
    state = plan.evaluator(trace)          # bind once per trace
    state.satisfies()                      # run many: memo + index warm

    monitor = plan.monitor()               # incremental variant
    monitor.trace.append(next_state)
    monitor.note_append()
    monitor.satisfies()                    # O(changed work), not O(prefix)

    state = compile_specification(spec).evaluator(trace)
    state.satisfies("A1")                  # one clause, by name
    state.check_all()                      # every clause, errors captured

The ``compiled`` engine (``Session.check(..., mode="compiled")`` or
``Session(prefer_compiled=True)``) wraps exactly this, adding the session
plan cache and the unified :class:`~repro.api.result.CheckResult`.
"""

from .cache import DEFAULT_MAX_PLANS, PlanCache
from .dag import CompileError, DagBuilder, PlanNode, PlanTerm
from .lower import bind_dispatch
from .normalize import normalize, structural_key
from .runtime import (
    UNSET,
    ClauseOutcome,
    EventIndex,
    GrowingPrefix,
    PlanState,
    PlanStats,
)
from .specplan import (
    FORMULA_CLAUSE,
    SpecPlan,
    compile_formula,
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
    "FORMULA_CLAUSE",
    "SpecPlan",
    "compile_formula",
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
    "UNSET",
    "bit_positions",
]
