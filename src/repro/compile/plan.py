"""Compiled evaluation plans.

A :class:`CompiledPlan` is the trace-independent artifact of the pipeline:
the normalized formula, the hash-consed node/term tables, the logical-
variable slot layout, and a content digest used as the plan-cache key.
Binding a plan to a computation yields a
:class:`~repro.compile.runtime.PlanState` (one per trace, reusable across
any number of checks); :meth:`CompiledPlan.monitor` yields the incremental
variant that absorbs appended states for online monitoring.
"""

from __future__ import annotations

import hashlib
from typing import Any, Dict, Iterable, List, Mapping, Optional, Set, Tuple

from ..syntax.formulas import Forall, Formula, NextBinding, walk_formula
from .alpha import alpha_canonical
from .dag import DagBuilder, PlanNode, PlanTerm
from .normalize import normalize

__all__ = [
    "CompiledPlan",
    "compile_formula",
    "formula_digest",
    "legacy_formula_digest",
]


def formula_digest(formula: Formula, domain_shape: Tuple[str, ...] = ()) -> str:
    """An alpha-invariant content digest of a formula (plus domain shape).

    The dataclass ``repr`` is fully structural, so equal formulas share a
    digest and distinct formulas practically never collide; hashing the
    *alpha-canonical* form extends that to formulas equal up to bound-
    variable names.  The domain shape (the *names* carrying explicit
    quantification domains, not their values) keys plans the way the
    session cache hands them out — and freezes those binder names during
    canonicalization, since they select their domains by name.
    """
    canonical, _ = alpha_canonical(formula, frozenset(domain_shape))
    payload = repr(canonical) + "\x00" + "\x00".join(domain_shape)
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def legacy_formula_digest(
    formula: Formula, domain_shape: Tuple[str, ...] = ()
) -> str:
    """The verbatim-repr digest of a formula (plus domain shape).

    Keys plans built by direct construction (``domain_shape=None``), which
    compile the formula verbatim: alpha-equivalent plans built that way
    may bind *different* explicit domains, so they must not share a key.
    """
    payload = repr(formula) + "\x00" + "\x00".join(domain_shape)
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def _logical_names(formula: Formula) -> Tuple[str, ...]:
    names: Set[str] = set(formula.free_variables())
    for node in walk_formula(formula):
        if isinstance(node, (Forall, NextBinding)):
            names.update(node.variables)
    return tuple(sorted(names))


class CompiledPlan:
    """The compile-once artifact: normalized DAG plus slot layout."""

    def __init__(
        self,
        formula: Formula,
        digest: Optional[str] = None,
        domain_shape: Optional[Tuple[str, ...]] = None,
    ) -> None:
        self.source = formula
        if domain_shape is None:
            # Direct construction: compile the formula verbatim, exactly
            # as before alpha-interning existed.
            canonical, renames = formula, {}
        else:
            canonical, renames = alpha_canonical(
                formula, frozenset(domain_shape)
            )
        self.canonical = canonical
        self.alpha_renames: Dict[str, Tuple[str, ...]] = renames
        self.normalized = normalize(canonical)
        if digest is not None:
            self.digest = digest
        elif domain_shape is None:
            # Verbatim compilation keeps the verbatim (repr-exact) digest:
            # alpha-equivalent plans built directly may bind *different*
            # explicit domains, so they must not share state-cache keys.
            self.digest = legacy_formula_digest(formula)
        else:
            self.digest = formula_digest(formula, domain_shape)
        names = _logical_names(self.normalized)
        self.slot_names: Tuple[str, ...] = names
        self.slot_of: Dict[str, int] = {name: i for i, name in enumerate(names)}
        builder = DagBuilder(self.slot_of)
        self.root: int = builder.add_formula(self.normalized)
        self.nodes: List[PlanNode] = builder.nodes
        self.terms: List[PlanTerm] = builder.terms

    # -- introspection -------------------------------------------------------

    @property
    def node_count(self) -> int:
        return len(self.nodes)

    @property
    def term_count(self) -> int:
        return len(self.terms)

    def __repr__(self) -> str:
        return (
            f"CompiledPlan(nodes={self.node_count}, terms={self.term_count}, "
            f"slots={len(self.slot_names)}, digest={self.digest[:12]})"
        )

    # -- binding -------------------------------------------------------------

    def evaluator(
        self,
        trace,
        domain: Optional[Mapping[str, Iterable[Any]]] = None,
        vectorize: bool = True,
        forall_unroll_cap: Optional[int] = None,
    ):
        """A :class:`PlanState` bound to a fixed (possibly lasso) trace.

        A stutter-terminated trace is checked as a finished prefix: the
        incremental plan state with the bitset kernel, reading the trace's
        own columns (:func:`~repro.compile.runtime.reads_as_prefix`).  A
        lasso with a longer cycle, or ``vectorize=False`` (the ``stepwise``
        engine's mode), runs the static per-position memo path; verdicts
        are identical either way.  ``forall_unroll_cap`` bounds quantifier
        unrolling (``None`` = runtime default, ``0`` disables it).
        """
        from .runtime import PlanState, reads_as_prefix

        return PlanState(
            self,
            trace,
            domain=domain,
            incremental=reads_as_prefix(trace, vectorize),
            vectorize=vectorize,
            forall_unroll_cap=forall_unroll_cap,
        )

    def monitor(
        self,
        domain: Optional[Mapping[str, Iterable[Any]]] = None,
        forall_unroll_cap: Optional[int] = None,
    ):
        """An incremental :class:`PlanState` over a growing state prefix."""
        from .runtime import GrowingPrefix, PlanState

        return PlanState(
            self,
            GrowingPrefix(),
            domain=domain,
            incremental=True,
            forall_unroll_cap=forall_unroll_cap,
        )


def compile_formula(formula: Formula) -> CompiledPlan:
    """Compile one interval-logic formula into an evaluation plan."""
    return CompiledPlan(formula)
