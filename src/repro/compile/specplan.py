"""Multi-root specification plans: one shared DAG for many clauses.

The paper's experiments never check one formula at a time — they check a
whole *specification* (many interval-logic clauses that share ``[]``/``<>``
skeletons, event atoms and operation predicates) against families of
traces.  A :class:`SpecPlan` compiles every clause of such a specification
into **one** hash-consed node/term table: a subformula appearing in five
clauses is lowered once, memoized once per position, and its event index is
built once for all five.  Each clause keeps its own *root* node id, so
per-clause verdicts (and per-clause error capture, which conformance
campaigns rely on) are preserved.

Binding a spec plan to a computation yields a :class:`SpecPlanState` — a
thin façade over one shared :class:`~repro.compile.runtime.PlanState` whose
memo tables, slot vector and endpoint indexes serve every clause.  The
incremental variant (:meth:`SpecPlan.monitor`) gives
:class:`~repro.checking.monitor.SpecificationMonitor` one plan state per
specification instead of one per clause.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Any, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from ..semantics.trace import INFINITY
from ..syntax.formulas import Formula
from .alpha import alpha_canonical
from .dag import DagBuilder, PlanNode, PlanTerm
from .normalize import normalize
from .plan import _logical_names

__all__ = [
    "SpecPlan",
    "SpecPlanState",
    "ClauseOutcome",
    "compile_specification",
    "legacy_spec_digest",
    "spec_digest",
]


def spec_digest(
    items: Sequence[Tuple[str, Formula]], domain_shape: Tuple[str, ...] = ()
) -> str:
    """An alpha-invariant digest of a (clause name, formula) sequence.

    The formula ``repr`` is fully structural (exactly as in
    :func:`~repro.compile.plan.formula_digest`) and each clause is hashed
    in its *alpha-canonical* form — the fresh-name counter restarts per
    clause, so clauses equal up to bound-variable names contribute the
    same bytes.  Clause names take part so two specifications with the
    same formulas under different clause names — whose per-clause results
    are addressed differently — get distinct plans.  Domain-shape names
    are frozen during canonicalization (they select domains by name).
    """
    frozen = frozenset(domain_shape)
    payload = "\x00".join(
        f"{name}\x1f{alpha_canonical(formula, frozen)[0]!r}"
        for name, formula in items
    )
    payload += "\x00\x00" + "\x00".join(domain_shape)
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def legacy_spec_digest(
    items: Sequence[Tuple[str, Formula]], domain_shape: Tuple[str, ...] = ()
) -> str:
    """The verbatim-repr digest of a clause sequence (plus domain shape).

    Keys spec plans built by direct construction (``domain_shape=None``),
    which compile their clauses verbatim; see
    :func:`~repro.compile.plan.legacy_formula_digest`.
    """
    payload = "\x00".join(f"{name}\x1f{formula!r}" for name, formula in items)
    payload += "\x00\x00" + "\x00".join(domain_shape)
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


class SpecPlan:
    """The compile-once artifact of a whole specification.

    Parameters
    ----------
    items:
        ``(clause_name, formula)`` pairs, in declaration order.  Names must
        be unique — they address the per-clause roots and verdicts.
    digest:
        Precomputed content digest (the cache computes it once for the
        lookup key); derived from ``items`` when omitted.
    """

    def __init__(
        self,
        items: Sequence[Tuple[str, Formula]],
        digest: Optional[str] = None,
        domain_shape: Optional[Tuple[str, ...]] = None,
    ) -> None:
        items = [(name, formula) for name, formula in items]
        if len({name for name, _ in items}) != len(items):
            raise ValueError("spec plan clause names must be unique")
        self.sources: Tuple[Tuple[str, Formula], ...] = tuple(items)
        if domain_shape is None:
            # Direct construction compiles the clauses verbatim (and keys
            # by verbatim digest), exactly as before alpha-interning.
            canonical = items
            self.alpha_renames: Dict[str, Dict[str, Tuple[str, ...]]] = {}
        else:
            frozen = frozenset(domain_shape)
            canonical = []
            self.alpha_renames = {}
            for name, formula in items:
                rewritten, renames = alpha_canonical(formula, frozen)
                canonical.append((name, rewritten))
                if renames:
                    self.alpha_renames[name] = renames
        self.canonical_sources: Tuple[Tuple[str, Formula], ...] = tuple(
            canonical
        )
        if digest is not None:
            self.digest = digest
        elif domain_shape is None:
            self.digest = legacy_spec_digest(items)
        else:
            self.digest = spec_digest(items, domain_shape)
        normalized = [
            (name, normalize(formula)) for name, formula in canonical
        ]
        names: set = set()
        for _, formula in normalized:
            names.update(_logical_names(formula))
        self.slot_names: Tuple[str, ...] = tuple(sorted(names))
        self.slot_of: Dict[str, int] = {n: i for i, n in enumerate(self.slot_names)}
        builder = DagBuilder(self.slot_of)
        self.roots: Dict[str, int] = {
            name: builder.add_formula(formula) for name, formula in normalized
        }
        self.nodes: List[PlanNode] = builder.nodes
        self.terms: List[PlanTerm] = builder.terms

    # -- introspection -------------------------------------------------------

    @property
    def clause_names(self) -> Tuple[str, ...]:
        return tuple(name for name, _ in self.sources)

    @property
    def node_count(self) -> int:
        return len(self.nodes)

    @property
    def term_count(self) -> int:
        return len(self.terms)

    @property
    def root(self) -> int:
        """The first clause's root (PlanState compatibility hook)."""
        return next(iter(self.roots.values()))

    def shared_node_count(self) -> int:
        """Nodes a clause-by-clause compilation would duplicate.

        The difference between the sum of per-clause DAG sizes and the
        shared table size — the sharing the multi-root plan buys.
        """
        separate = 0
        for _, formula in getattr(self, "canonical_sources", self.sources):
            builder = DagBuilder(dict(self.slot_of))
            builder.add_formula(normalize(formula))
            separate += len(builder.nodes)
        return separate - len(self.nodes)

    def __repr__(self) -> str:
        return (
            f"SpecPlan(clauses={len(self.sources)}, nodes={self.node_count}, "
            f"terms={self.term_count}, slots={len(self.slot_names)}, "
            f"digest={self.digest[:12]})"
        )

    # -- binding -------------------------------------------------------------

    def evaluator(
        self,
        trace,
        domain: Optional[Mapping[str, Iterable[Any]]] = None,
        vectorize: bool = True,
        forall_unroll_cap: Optional[int] = None,
    ):
        """A :class:`SpecPlanState` bound to a fixed (possibly lasso) trace,
        in the mode :meth:`CompiledPlan.evaluator
        <repro.compile.plan.CompiledPlan.evaluator>` picks."""
        from .runtime import reads_as_prefix

        return SpecPlanState(
            self,
            trace,
            domain=domain,
            incremental=reads_as_prefix(trace, vectorize),
            forall_unroll_cap=forall_unroll_cap,
        )

    def monitor(
        self,
        domain: Optional[Mapping[str, Iterable[Any]]] = None,
        forall_unroll_cap: Optional[int] = None,
    ):
        """An incremental :class:`SpecPlanState` over a growing state prefix."""
        from .runtime import GrowingPrefix

        return self.evaluator(GrowingPrefix(), domain, forall_unroll_cap=forall_unroll_cap)


@dataclass(frozen=True)
class ClauseOutcome:
    """One clause's verdict from a spec-plan evaluation."""

    name: str
    verdict: Optional[bool]
    error: Optional[str] = None

    @property
    def holds(self) -> bool:
        return self.verdict is True


class SpecPlanState:
    """One spec plan bound to one computation.

    All clauses evaluate through a single shared
    :class:`~repro.compile.runtime.PlanState`: one slot vector, one memo
    table keyed on hash-consed node ids (so a subformula shared by several
    clauses is decided once per position), one set of interval-endpoint
    indexes.
    """

    def __init__(
        self,
        plan: SpecPlan,
        trace,
        domain: Optional[Mapping[str, Iterable[Any]]] = None,
        incremental: bool = False,
        forall_unroll_cap: Optional[int] = None,
    ) -> None:
        from .runtime import PlanState

        self._plan = plan
        self._state = PlanState(
            plan,
            trace,
            domain=domain,
            incremental=incremental,
            forall_unroll_cap=forall_unroll_cap,
        )

    # -- shared-state introspection ------------------------------------------

    @property
    def plan(self) -> SpecPlan:
        return self._plan

    @property
    def trace(self):
        return self._state.trace

    @property
    def stats(self):
        return self._state.stats

    @property
    def memo_size(self) -> int:
        return self._state.memo_size

    @property
    def index_count(self) -> int:
        return self._state.index_count

    # -- evaluation -----------------------------------------------------------

    def satisfies(self, name: str, env: Optional[Mapping[str, Any]] = None) -> bool:
        """``s |= clause`` over the whole computation ``<1, ∞>``."""
        return self.holds(name, 1, INFINITY, env)

    def holds(
        self, name: str, lo, hi, env: Optional[Mapping[str, Any]] = None
    ) -> bool:
        """``<lo, hi> |= clause`` for the clause named ``name``."""
        try:
            root = self._plan.roots[name]
        except KeyError:
            raise KeyError(
                f"no clause named {name!r} in this spec plan "
                f"(clauses: {', '.join(self._plan.clause_names)})"
            ) from None
        return self._state.holds_node(root, lo, hi, env)

    def verdicts(self, env: Optional[Mapping[str, Any]] = None) -> Dict[str, bool]:
        """Every clause's whole-computation verdict (errors propagate)."""
        return {name: self.satisfies(name, env) for name in self._plan.clause_names}

    def check_all(
        self, env: Optional[Mapping[str, Any]] = None
    ) -> List[ClauseOutcome]:
        """Every clause's verdict with per-clause error capture, in order.

        This is the conformance-campaign contract: an erroring clause yields
        ``verdict=None`` plus the error string and the remaining clauses
        still evaluate, exactly like ``Specification.check``'s per-clause
        try/except.
        """
        outcomes: List[ClauseOutcome] = []
        for name in self._plan.clause_names:
            try:
                outcomes.append(ClauseOutcome(name, self.satisfies(name, env)))
            except Exception as exc:
                outcomes.append(
                    ClauseOutcome(name, None, f"{type(exc).__name__}: {exc}")
                )
        return outcomes

    def close(self) -> None:
        """Break the shared plan state's reference cycles
        (:meth:`~repro.compile.runtime.PlanState.close`); it answers nothing
        afterwards."""
        self._state.close()

    # -- incremental protocol --------------------------------------------------

    def note_append(self) -> None:
        self._state.note_append()


def compile_specification(specification) -> SpecPlan:
    """Compile a :class:`~repro.core.specification.Specification` whole.

    Clause formulas are taken *interpreted* (Init clauses become
    ``start ⊃ alpha``), matching what every checking path evaluates.
    """
    return SpecPlan(
        [(clause.name, clause.interpreted_formula())
         for clause in specification.clauses]
    )
