"""The tableau deletion iteration ``Iter(G)`` and Algorithm A (Appendix B §3–4).

``Iter(G)`` repeatedly deletes from the tableau graph:

* edges whose conjunction of literals is contradictory (for Algorithm A, the
  contradiction test is delegated to the specialized theory's satisfiability
  oracle, so e.g. ``x > 2 /\\ x < 1`` is pruned);
* edges labeled with an eventuality that cannot be satisfied (no path from
  the edge's terminal node to a node fulfilling it);
* nodes with no outgoing edges, and edges whose terminal node was deleted.

``A`` is valid iff every initial node of ``Graph(~A)`` is deleted in
``Iter(Graph(~A))``; with a theory ``T``, ``A`` is valid in ``TL(T)`` under
the same criterion with the theory-filtered edge deletion (Algorithm A).

The module also extracts explicit lasso models from surviving graphs, which
the test-suite uses to cross-check the procedure against the explicit-model
semantics of :mod:`repro.ltl.semantics`.
"""

from __future__ import annotations

import time
from collections import deque
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Sequence, Set, Tuple

from ..semantics.state import State
from ..semantics.trace import Trace
from .syntax import LNot, LProp, LTLFormula, StrongUntil, TheoryAtom
from .tableau import Edge, Node, TableauGraph, build_graph

__all__ = ["DecisionStatistics", "DecisionResult", "TableauDecider",
           "is_satisfiable", "is_valid"]


@dataclass
class DecisionStatistics:
    """Node/edge counts and timing, mirroring the Appendix B §6 table columns."""

    nodes: int = 0
    edges: int = 0
    construction_seconds: float = 0.0
    iteration_seconds: float = 0.0
    surviving_nodes: int = 0
    surviving_edges: int = 0

    def as_row(self) -> Dict[str, float]:
        return {
            "graph_construction_s": self.construction_seconds,
            "iteration_s": self.iteration_seconds,
            "nodes": self.nodes,
            "edges": self.edges,
        }


@dataclass
class DecisionResult:
    """Outcome of a satisfiability / validity query."""

    formula: LTLFormula
    satisfiable: bool
    statistics: DecisionStatistics
    graph: TableauGraph
    alive_nodes: FrozenSet[int]
    alive_edges: Tuple[Edge, ...]
    model: Optional[Trace] = None

    def __bool__(self) -> bool:
        return self.satisfiable


class TableauDecider:
    """Satisfiability and validity of propositional LTL, optionally modulo a theory.

    Without a theory this is the plain tableau method; with one it is
    Algorithm A — the theory's conjunction-of-literals satisfiability oracle
    filters edges before and during the iteration.
    """

    def __init__(self, theory: Optional[object] = None) -> None:
        self._theory = theory

    # -- public entry points ------------------------------------------------------

    def satisfiability(self, formula: LTLFormula, extract_model: bool = False) -> DecisionResult:
        """Is ``formula`` satisfiable (in ``TL`` or ``TL(T)``)?"""
        stats = DecisionStatistics()
        start = time.perf_counter()
        graph = build_graph(formula, negate=False)
        stats.construction_seconds = time.perf_counter() - start
        stats.nodes = graph.node_count
        stats.edges = graph.edge_count

        start = time.perf_counter()
        alive_nodes, alive_edges = self._iterate(graph)
        stats.iteration_seconds = time.perf_counter() - start
        stats.surviving_nodes = len(alive_nodes)
        stats.surviving_edges = len(alive_edges)

        satisfiable = any(n in alive_nodes for n in graph.initial_nodes)
        model = None
        if satisfiable and extract_model:
            model = self._extract_model(graph, alive_nodes, alive_edges)
        return DecisionResult(
            formula=formula,
            satisfiable=satisfiable,
            statistics=stats,
            graph=graph,
            alive_nodes=frozenset(alive_nodes),
            alive_edges=tuple(alive_edges),
            model=model,
        )

    def validity(self, formula: LTLFormula, extract_model: bool = False) -> DecisionResult:
        """Is ``formula`` valid?  (Satisfiability of the negation, inverted.)"""
        result = self.satisfiability(LNot(formula), extract_model=extract_model)
        return DecisionResult(
            formula=formula,
            satisfiable=not result.satisfiable,  # here: "valid"
            statistics=result.statistics,
            graph=result.graph,
            alive_nodes=result.alive_nodes,
            alive_edges=result.alive_edges,
            model=result.model,  # a counterexample to validity, when present
        )

    # -- the deletion iteration ------------------------------------------------------

    def _edge_consistent(self, edge: Edge) -> bool:
        """Propositional consistency was ensured at cover time; ask the theory."""
        if self._theory is None:
            return True
        theory_literals = []
        for literal in edge.literals:
            negated = isinstance(literal, LNot)
            atom = literal.operand if negated else literal
            if isinstance(atom, TheoryAtom):
                theory_literals.append((atom, negated))
        if not theory_literals:
            return True
        return bool(self._theory.is_satisfiable(theory_literals))

    def _iterate(self, graph: TableauGraph) -> Tuple[Set[int], List[Edge]]:
        alive_nodes: Set[int] = set(graph.nodes)
        alive_edges: List[Edge] = [e for e in graph.edges if self._edge_consistent(e)]
        changed = True
        while changed:
            changed = False
            # Drop edges touching dead nodes.
            filtered = [
                e for e in alive_edges
                if e.source in alive_nodes and e.target in alive_nodes
            ]
            if len(filtered) != len(alive_edges):
                changed = True
            alive_edges = filtered
            # Drop edges with unsatisfiable eventualities.  For each pending
            # eventuality the set of alive nodes that can reach a fulfilling
            # node is computed once (backward reachability), so the pass is
            # linear in the number of edges per eventuality.
            eventualities = {ev for edge in alive_edges for ev in edge.eventualities}
            can_satisfy: Dict[LTLFormula, Set[int]] = {
                ev: self._nodes_reaching_goal(graph, ev, alive_nodes, alive_edges)
                for ev in eventualities
            }
            kept: List[Edge] = []
            for edge in alive_edges:
                if all(edge.target in can_satisfy[ev] for ev in edge.eventualities):
                    kept.append(edge)
                else:
                    changed = True
            alive_edges = kept
            # Drop nodes with no outgoing edges.
            with_successor = {e.source for e in alive_edges}
            survivors = {n for n in alive_nodes if n in with_successor}
            if len(survivors) != len(alive_nodes):
                changed = True
            alive_nodes = survivors
        return alive_nodes, alive_edges

    @staticmethod
    def _nodes_reaching_goal(
        graph: TableauGraph,
        eventuality: LTLFormula,
        alive_nodes: Set[int],
        alive_edges: Sequence[Edge],
    ) -> Set[int]:
        """Alive nodes from which a node fulfilling ``eventuality`` is reachable."""
        goal = eventuality.right if isinstance(eventuality, StrongUntil) else eventuality
        fulfilled = {
            n for n in alive_nodes if goal in graph.nodes[n].formulas
        }
        predecessors: Dict[int, List[int]] = {}
        for edge in alive_edges:
            predecessors.setdefault(edge.target, []).append(edge.source)
        reached = set(fulfilled)
        frontier = deque(fulfilled)
        while frontier:
            current = frontier.popleft()
            for previous in predecessors.get(current, []):
                if previous not in reached:
                    reached.add(previous)
                    frontier.append(previous)
        return reached

    # -- model extraction ---------------------------------------------------------------

    @staticmethod
    def _node_state(node: Node) -> State:
        values: Dict[str, bool] = {}
        for literal in node.literals:
            negated = isinstance(literal, LNot)
            atom = literal.operand if negated else literal
            if isinstance(atom, (LProp, TheoryAtom)):
                values[atom.name] = not negated
        return State(values)

    def _extract_model(
        self,
        graph: TableauGraph,
        alive_nodes: Set[int],
        alive_edges: Sequence[Edge],
    ) -> Optional[Trace]:
        """Build an ultimately periodic model from the surviving graph.

        The extraction walks the surviving graph fulfilling pending
        eventualities by shortest alive paths, then closes a loop; the
        candidate is validated against the explicit-model semantics and
        discarded if the heuristic failed, so a returned trace is always a
        genuine model.
        """
        from .semantics import ltl_satisfies  # local import to avoid a cycle

        adjacency: Dict[int, List[Edge]] = {}
        for edge in alive_edges:
            adjacency.setdefault(edge.source, []).append(edge)

        initial = [n for n in graph.initial_nodes if n in alive_nodes]
        if not initial:
            return None

        def shortest_path(start: int, predicate) -> Optional[List[int]]:
            queue = deque([[start]])
            seen = {start}
            while queue:
                path = queue.popleft()
                if predicate(path[-1]):
                    return path
                for edge in adjacency.get(path[-1], []):
                    if edge.target not in seen:
                        seen.add(edge.target)
                        queue.append(path + [edge.target])
            return None

        for start in initial:
            path = [start]
            # Fulfil eventualities greedily for a bounded number of rounds.
            for _ in range(4 * max(1, len(graph.nodes))):
                current = graph.nodes[path[-1]]
                pending = [
                    ev for ev in current.eventualities
                    if isinstance(ev, StrongUntil)
                ]
                target_goal = None
                for ev in pending:
                    goal = ev.right
                    if goal not in current.formulas:
                        target_goal = goal
                        break
                if target_goal is None:
                    break
                extension = shortest_path(
                    path[-1], lambda n: target_goal in graph.nodes[n].formulas
                )
                if extension is None or len(extension) == 1:
                    break
                path.extend(extension[1:])
            # Close a cycle: walk until a node repeats.
            seen_at: Dict[int, int] = {}
            walk = list(path)
            for position, node_index in enumerate(walk):
                seen_at.setdefault(node_index, position)
            guard = 0
            while walk[-1] not in seen_at or seen_at[walk[-1]] == len(walk) - 1:
                successors = adjacency.get(walk[-1], [])
                if not successors:
                    break
                nxt = successors[0].target
                if nxt in seen_at:
                    walk.append(nxt)
                    break
                seen_at[nxt] = len(walk)
                walk.append(nxt)
                guard += 1
                if guard > 4 * max(1, len(graph.nodes)):
                    break
            if len(walk) < 2 or walk[-1] not in seen_at:
                continue
            loop_start = seen_at[walk[-1]] + 1  # 1-based
            states = [self._node_state(graph.nodes[n]) for n in walk[:-1]]
            if not states:
                continue
            loop_start = min(max(1, loop_start), len(states))
            candidate = Trace(states, loop_start=loop_start, mark_start=False)
            if ltl_satisfies(candidate, graph.formula):
                return candidate
        return None


def is_satisfiable(formula: LTLFormula, theory: Optional[object] = None) -> bool:
    """Convenience wrapper around :class:`TableauDecider`."""
    return TableauDecider(theory).satisfiability(formula).satisfiable


def is_valid(formula: LTLFormula, theory: Optional[object] = None) -> bool:
    """Convenience wrapper: validity of ``formula`` (Algorithm A when a theory is given)."""
    return TableauDecider(theory).validity(formula).satisfiable
