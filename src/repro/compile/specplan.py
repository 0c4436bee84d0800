"""Compiled evaluation plans: one shared DAG for a set of named clauses.

The paper's experiments check whole *specifications* — many
interval-logic clauses that share ``[]``/``<>`` skeletons, event atoms and
operation predicates — against families of traces; a single formula is
the one-clause case.  A :class:`SpecPlan` is the trace-independent artifact
of the pipeline: every clause compiled into **one** hash-consed node/term
table, the logical-variable slot layout, and a content digest used as the
plan-cache key.  A subformula appearing in five clauses is lowered once,
memoized once per position, and its event index is built once for all
five.  Each clause keeps its own *root* node id, so per-clause verdicts
(and per-clause error capture, which conformance campaigns rely on) are
preserved.

:func:`compile_formula` compiles one formula as a one-clause plan under
:data:`FORMULA_CLAUSE`; :func:`compile_specification` compiles a
:class:`~repro.core.specification.Specification` whole.  Binding a plan to
a computation yields a :class:`~repro.compile.runtime.PlanState` whose
memo tables, slot vector and endpoint indexes serve every clause; the
incremental variant (:meth:`SpecPlan.monitor`) gives
:class:`~repro.checking.monitor.Monitor` one plan state per set of watched
formulas.
"""

from __future__ import annotations

import hashlib
from typing import Any, Dict, Iterable, List, Mapping, Optional, Sequence, Set, Tuple

from ..syntax.formulas import Forall, Formula, NextBinding, walk_formula
from .alpha import alpha_canonical
from .dag import DagBuilder, PlanNode, PlanTerm
from .normalize import normalize
from .runtime import GrowingPrefix, PlanState, reads_as_prefix

__all__ = [
    "FORMULA_CLAUSE",
    "SpecPlan",
    "compile_formula",
    "compile_specification",
    "legacy_spec_digest",
    "spec_digest",
]


#: The clause name a single formula compiles under: ``compile_formula(f)``
#: and ``PlanCache.get(f)`` build the one-clause plan ``[(FORMULA_CLAUSE,
#: f)]``, so a one-clause specification of that name shares its cache entry.
FORMULA_CLAUSE = "formula"

#: :class:`~repro.compile.runtime.PlanState` under its former name, kept
#: only because the repository benchmark's tracer wraps ``satisfies`` and
#: ``check_all`` through it.
SpecPlanState = PlanState


def spec_digest(
    items: Sequence[Tuple[str, Formula]], domain_shape: Tuple[str, ...] = ()
) -> str:
    """An alpha-invariant digest of a (clause name, formula) sequence.

    The formula ``repr`` is fully structural, so equal formulas share a
    digest and distinct formulas practically never collide.  Each clause
    is hashed in its *alpha-canonical* form — the fresh-name counter
    restarts per clause, so clauses equal up to bound-variable names
    contribute the same bytes.  Clause names take part so two
    specifications with the same formulas under different clause names —
    whose per-clause results are addressed differently — get distinct
    plans.  The domain shape (the *names* carrying explicit quantification
    domains, not their values) keys plans the way the session cache hands
    them out, and its names are frozen during canonicalization, since they
    select their domains by name.
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

    Keys plans built by direct construction (``domain_shape=None``), which
    compile their clauses verbatim: alpha-equivalent plans built that way
    may bind *different* explicit domains, so they must not share a key.
    """
    payload = "\x00".join(f"{name}\x1f{formula!r}" for name, formula in items)
    payload += "\x00\x00" + "\x00".join(domain_shape)
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def _logical_names(formula: Formula) -> Set[str]:
    names: Set[str] = set(formula.free_variables())
    for node in walk_formula(formula):
        if isinstance(node, (Forall, NextBinding)):
            names.update(node.variables)
    return names


class SpecPlan:
    """The compile-once artifact of a set of named clauses.

    Parameters
    ----------
    items:
        ``(clause_name, formula)`` pairs, in declaration order.  Names must
        be unique — they address the per-clause roots and verdicts.
    digest:
        Precomputed content digest (the cache computes it once for the
        lookup key); derived from ``items`` when omitted.
    domain_shape:
        The names carrying explicit quantification domains.  Given, every
        clause compiles in its alpha-canonical form with those binder names
        frozen (what the plan cache does); ``None`` compiles the clauses
        verbatim and keys them by :func:`legacy_spec_digest`.
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
            canonical = items
        else:
            frozen = frozenset(domain_shape)
            canonical = [
                (name, alpha_canonical(formula, frozen)[0])
                for name, formula in items
            ]
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
        names: Set[str] = set()
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

    def shared_node_count(self) -> int:
        """Nodes a clause-by-clause compilation would duplicate.

        The difference between the sum of per-clause DAG sizes and the
        shared table size — the sharing the multi-root plan buys.
        """
        separate = 0
        for _, formula in self.canonical_sources:
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
    ) -> PlanState:
        """A :class:`~repro.compile.runtime.PlanState` bound to a fixed
        (possibly lasso) trace.

        A stutter-terminated trace is checked as a finished prefix: the
        incremental plan state with the bitset kernel, reading the trace's
        own columns (:func:`~repro.compile.runtime.reads_as_prefix`).  A
        lasso with a longer cycle, or ``vectorize=False`` (the ``stepwise``
        engine's mode), runs the static per-position memo path; verdicts
        are identical either way.  ``forall_unroll_cap`` bounds quantifier
        unrolling (``None`` = runtime default, ``0`` disables it).
        """
        return PlanState(
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
    ) -> PlanState:
        """An incremental :class:`~repro.compile.runtime.PlanState` over a
        growing state prefix."""
        return self.evaluator(GrowingPrefix(), domain, forall_unroll_cap=forall_unroll_cap)


def compile_formula(formula: Formula) -> SpecPlan:
    """Compile one interval-logic formula: the one-clause plan named
    :data:`FORMULA_CLAUSE`."""
    return SpecPlan([(FORMULA_CLAUSE, formula)])


def compile_specification(specification) -> SpecPlan:
    """Compile a :class:`~repro.core.specification.Specification` whole.

    Clause formulas are taken *interpreted* (Init clauses become
    ``start ⊃ alpha``), matching what every checking path evaluates.
    """
    return SpecPlan(
        [(clause.name, clause.interpreted_formula())
         for clause in specification.clauses]
    )
