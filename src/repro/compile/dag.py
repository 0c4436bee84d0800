"""Hash-consed subformula DAGs and the lowered plan node tables.

Lowering turns a normalized formula tree into two flat tables — one of
:class:`PlanNode` records (formulas) and one of :class:`PlanTerm` records
(interval terms) — interned by structure, so a subformula that occurs many
times in the tree is represented, and later memoized, exactly once.  Node
ids are small integers; the runtime's memo tables key on them instead of
hashing whole formula objects.

Each node carries its precomputed **free-variable signature**: the slot
indices (into the plan's logical-variable slot vector) of the rigid
variables the subformula actually reads.  The runtime restricts memo keys
to those slots — the compiled counterpart of the evaluator's free-variable
memo keys — and binds quantified variables by writing slots instead of
copying environment dictionaries.

``PlanNode.is_state`` marks *state formulas*: boolean combinations of
atomic predicates, whose truth on a context ``<i, j>`` depends only on the
state at position ``i``.  The runtime memoizes state nodes per canonical
position (sharing verdicts across every context that starts there) and
builds interval-endpoint indexes for state-formula events so event searches
bisect instead of scanning.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..errors import ReproError
from ..syntax.formulas import (
    Always,
    And,
    Atom,
    Eventually,
    FalseFormula,
    Forall,
    Formula,
    Iff,
    Implies,
    IntervalFormula,
    NextBinding,
    Not,
    Occurs,
    Or,
    TrueFormula,
)
from ..syntax.intervals import Backward, Begin, End, EventTerm, Forward, IntervalTerm, Star
from ..syntax.terms import OpAt, Predicate

__all__ = [
    "CompileError",
    "PlanNode",
    "PlanTerm",
    "DagBuilder",
    # formula opcodes
    "N_ATOM", "N_TRUE", "N_FALSE", "N_NOT", "N_AND", "N_OR", "N_IMPLIES",
    "N_IFF", "N_ALWAYS", "N_EVENTUALLY", "N_INTERVAL", "N_OCCURS",
    "N_FORALL", "N_BINDNEXT",
    # term opcodes
    "T_EVENT", "T_BEGIN", "T_END", "T_FORWARD", "T_BACKWARD",
]


class CompileError(ReproError):
    """A formula cannot be lowered to an evaluation plan."""


# Formula opcodes (small ints; names kept readable for debugging).
N_ATOM, N_TRUE, N_FALSE, N_NOT, N_AND, N_OR, N_IMPLIES, N_IFF = range(8)
N_ALWAYS, N_EVENTUALLY, N_INTERVAL, N_OCCURS, N_FORALL, N_BINDNEXT = range(8, 14)

# Interval-term opcodes.
T_EVENT, T_BEGIN, T_END, T_FORWARD, T_BACKWARD = range(5)


@dataclass(frozen=True)
class PlanNode:
    """One lowered formula node of the subformula DAG."""

    id: int
    op: int
    formula: Formula
    #: Child node ids (unary: (a,), binary: (a, b)).
    a: Optional[int] = None
    b: Optional[int] = None
    #: Term id for interval / occurs nodes.
    term: Optional[int] = None
    #: The predicate of an atom node.
    predicate: Optional[Predicate] = None
    #: Quantified / bound variable names and their slots (forall, bind-next).
    var_names: Tuple[str, ...] = ()
    var_slots: Tuple[int, ...] = ()
    #: Operation name (bind-next) and its compiled ``atO`` event node.
    operation: Optional[str] = None
    event: Optional[int] = None
    #: Free-variable signature: names and slot indices, sorted by name.
    free_names: Tuple[str, ...] = ()
    free_slots: Tuple[int, ...] = ()
    #: Truth depends only on the first state of the context.
    is_state: bool = False


@dataclass(frozen=True)
class PlanTerm:
    """One lowered interval-term node."""

    id: int
    op: int
    #: Child term ids; either may be ``None`` for the arrow operators.
    a: Optional[int] = None
    b: Optional[int] = None
    #: Event-formula node id for event terms.
    event: Optional[int] = None
    #: Free-variable slot signature (union over the term's event formulas) —
    #: the runtime's construction memo restricts its keys to these slots.
    free_slots: Tuple[int, ...] = ()


class DagBuilder:
    """Interns formulas and interval terms into shared node tables."""

    def __init__(self, slot_of: Dict[str, int]) -> None:
        self._slot_of = slot_of
        self.nodes: List[PlanNode] = []
        self.terms: List[PlanTerm] = []
        self._node_ids: Dict[Tuple, int] = {}
        self._term_ids: Dict[Tuple, int] = {}

    # -- interning ----------------------------------------------------------

    def _emit(self, key: Tuple, **fields) -> int:
        existing = self._node_ids.get(key)
        if existing is not None:
            return existing
        node = PlanNode(id=len(self.nodes), **fields)
        self.nodes.append(node)
        self._node_ids[key] = node.id
        return node.id

    def _emit_term(self, key: Tuple, **fields) -> int:
        existing = self._term_ids.get(key)
        if existing is not None:
            return existing
        term = PlanTerm(id=len(self.terms), **fields)
        self.terms.append(term)
        self._term_ids[key] = term.id
        return term.id

    def _signature(self, formula: Formula) -> Tuple[Tuple[str, ...], Tuple[int, ...]]:
        names = tuple(sorted(formula.free_variables()))
        return names, tuple(self._slot_of[name] for name in names)

    # -- formulas ------------------------------------------------------------

    def add_formula(self, formula: Formula) -> int:
        """Intern ``formula``; returns its node id."""
        if isinstance(formula, Atom):
            names, slots = self._signature(formula)
            return self._emit(
                ("atom", formula.predicate),
                op=N_ATOM, formula=formula, predicate=formula.predicate,
                free_names=names, free_slots=slots, is_state=True,
            )
        if isinstance(formula, TrueFormula):
            return self._emit(("true",), op=N_TRUE, formula=formula, is_state=True)
        if isinstance(formula, FalseFormula):
            return self._emit(("false",), op=N_FALSE, formula=formula, is_state=True)
        if isinstance(formula, Not):
            a = self.add_formula(formula.operand)
            return self._emit(
                ("not", a), op=N_NOT, formula=formula, a=a,
                free_names=self.nodes[a].free_names,
                free_slots=self.nodes[a].free_slots,
                is_state=self.nodes[a].is_state,
            )
        if isinstance(formula, (And, Or, Implies, Iff)):
            op = {And: N_AND, Or: N_OR, Implies: N_IMPLIES, Iff: N_IFF}[type(formula)]
            a = self.add_formula(formula.left)
            b = self.add_formula(formula.right)
            names, slots = self._signature(formula)
            return self._emit(
                (op, a, b), op=op, formula=formula, a=a, b=b,
                free_names=names, free_slots=slots,
                is_state=self.nodes[a].is_state and self.nodes[b].is_state,
            )
        if isinstance(formula, (Always, Eventually)):
            op = N_ALWAYS if isinstance(formula, Always) else N_EVENTUALLY
            a = self.add_formula(formula.operand)
            return self._emit(
                (op, a), op=op, formula=formula, a=a,
                free_names=self.nodes[a].free_names,
                free_slots=self.nodes[a].free_slots,
            )
        if isinstance(formula, IntervalFormula):
            term = self.add_term(formula.term)
            body = self.add_formula(formula.body)
            names, slots = self._signature(formula)
            return self._emit(
                ("interval", term, body), op=N_INTERVAL, formula=formula,
                a=body, term=term, free_names=names, free_slots=slots,
            )
        if isinstance(formula, Occurs):
            term = self.add_term(formula.term)
            names, slots = self._signature(formula)
            return self._emit(
                ("occurs", term), op=N_OCCURS, formula=formula, term=term,
                free_names=names, free_slots=slots,
            )
        if isinstance(formula, Forall):
            body = self.add_formula(formula.body)
            names, slots = self._signature(formula)
            return self._emit(
                ("forall", formula.variables, body),
                op=N_FORALL, formula=formula, a=body,
                var_names=formula.variables,
                var_slots=tuple(self._slot_of[v] for v in formula.variables),
                free_names=names, free_slots=slots,
            )
        if isinstance(formula, NextBinding):
            body = self.add_formula(formula.body)
            event = self.add_formula(Atom(OpAt(formula.operation)))
            names, slots = self._signature(formula)
            return self._emit(
                ("bindnext", formula.operation, formula.variables, body),
                op=N_BINDNEXT, formula=formula, a=body,
                operation=formula.operation, event=event,
                var_names=formula.variables,
                var_slots=tuple(self._slot_of[v] for v in formula.variables),
                free_names=names, free_slots=slots,
            )
        raise CompileError(f"cannot lower formula node: {formula!r}")

    # -- interval terms ------------------------------------------------------

    def _term_slots(self, *children: Optional[int]) -> Tuple[int, ...]:
        slots = set()
        for child in children:
            if child is not None:
                slots.update(self.terms[child].free_slots)
        return tuple(sorted(slots))

    def add_term(self, term: IntervalTerm) -> int:
        if isinstance(term, Star):
            raise CompileError(
                "star modifiers must be eliminated before lowering "
                "(normalize() applies the Appendix A reduction)"
            )
        if isinstance(term, EventTerm):
            event = self.add_formula(term.formula)
            return self._emit_term(
                ("event", event), op=T_EVENT, event=event,
                free_slots=self.nodes[event].free_slots,
            )
        if isinstance(term, Begin):
            a = self.add_term(term.term)
            return self._emit_term(
                ("begin", a), op=T_BEGIN, a=a, free_slots=self._term_slots(a)
            )
        if isinstance(term, End):
            a = self.add_term(term.term)
            return self._emit_term(
                ("end", a), op=T_END, a=a, free_slots=self._term_slots(a)
            )
        if isinstance(term, (Forward, Backward)):
            op = T_FORWARD if isinstance(term, Forward) else T_BACKWARD
            a = self.add_term(term.left) if term.left is not None else None
            b = self.add_term(term.right) if term.right is not None else None
            return self._emit_term(
                (op, a, b), op=op, a=a, b=b, free_slots=self._term_slots(a, b)
            )
        raise CompileError(f"cannot lower interval term: {term!r}")
