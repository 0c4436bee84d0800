"""Closure lowering of plan-node dispatch.

The first compiled runtime dispatched every ``_holds`` miss through one big
``if op == ...`` chain (:meth:`PlanState._dispatch`), re-reading the node's
fields on every call.  This pass lowers each :class:`~repro.compile.dag.PlanNode`
**once per plan state** to a plain Python closure: the node's children,
predicate, term ids and free-slot signature are bound into the closure's
cells at lowering time, along with the state's slot vector, trace accessors
and memo wrapper.  ``PlanState._holds`` then jumps straight to
``self._ops[nid](lo, hi)`` — no opcode test, no field lookups, no
re-resolution of ``self._trace.state_at`` per atom.

Lowering happens at state-binding time (not plan-compile time) because the
closures are bound to one computation's mutable runtime — the slot vector,
the memo tables, the endpoint indexes.  The plan itself stays a pure,
trace-independent artifact; lowering a plan state is O(nodes) and is paid
once per (plan, trace) binding.

Memoization stays **outside** the closures: every child evaluation goes
back through ``PlanState._holds`` so hash-consed sharing, the state-formula
position memo, and the incremental tail tracking intercede at every node
exactly as before.

With the bitset kernel bound, ``[I]α`` / ``*I`` over state-formula events
lower further, to a *fused construction*: the interval term compiles to a
tree of closures that computes the construction function F from the
kernel's change indexes and passes the interval as plain positions
``(lo, hi)`` — ``lo is None`` for ⊥ — with the horizon up to which the
same interval repeats (:func:`_compile_term_bits`).  Such a construction
allocates no :class:`~repro.semantics.construction.Interval`; only the
generic path (``PlanState._construct``) builds them.  This is closure
compilation (Feeley & Lapalme, "Using closures for code generation",
1987) carried down to the interval arithmetic.
"""

from __future__ import annotations

from typing import Callable, List, Tuple

from ..semantics.trace import INFINITY

from ..semantics.construction import BOTTOM, Direction
from .vector import search_changes
from .dag import (
    CompileError,
    N_ALWAYS,
    N_AND,
    N_ATOM,
    N_BINDNEXT,
    N_EVENTUALLY,
    N_FALSE,
    N_FORALL,
    N_IFF,
    N_IMPLIES,
    N_INTERVAL,
    N_NOT,
    N_OCCURS,
    N_OR,
    N_TRUE,
    T_BACKWARD,
    T_BEGIN,
    T_END,
    T_EVENT,
    T_FORWARD,
)

__all__ = ["bind_dispatch"]


_EMPTY_ENV: dict = {}


def _lower_atom(state, node):
    predicate_holds = node.predicate.holds
    state_at = state._trace.state_at
    if not node.free_slots:
        def run(lo, hi):
            return predicate_holds(state_at(lo), _EMPTY_ENV)
        return run
    env_view = state._env_view

    def run(lo, hi):
        return predicate_holds(state_at(lo), env_view(node))
    return run


def _lower_true(state, node):
    return lambda lo, hi: True


def _lower_false(state, node):
    return lambda lo, hi: False


def _lower_not(state, node):
    holds = state._holds
    a = node.a

    def run(lo, hi):
        return not holds(a, lo, hi)
    return run


def _lower_junction(deciding: bool):
    def lower(state, node):
        junction = state._junction
        a, b = node.a, node.b

        def run(lo, hi):
            return junction(a, b, lo, hi, deciding)
        return run
    return lower


def _lower_implies(state, node):
    holds = state._holds
    a, b = node.a, node.b

    def run(lo, hi):
        return (not holds(a, lo, hi)) or holds(b, lo, hi)
    return run


def _lower_iff(state, node):
    holds = state._holds
    a, b = node.a, node.b

    def run(lo, hi):
        return holds(a, lo, hi) == holds(b, lo, hi)
    return run


def _lower_suffixes(want: bool):
    def lower(state, node):
        suffixes = state._holds_suffixes

        def run(lo, hi):
            return suffixes(node, lo, hi, want)
        return run
    return lower


def _lower_interval(state, node):
    construct = state._construct_interval
    holds = state._holds
    term, body = node.term, node.a

    def run(lo, hi):
        found = construct(term, lo, hi)
        if found is BOTTOM:
            return True
        return holds(body, found.lo, found.hi)
    return run


def _lower_occurs(state, node):
    construct = state._construct_interval
    term = node.term

    def run(lo, hi):
        return construct(term, lo, hi) is not BOTTOM
    return run


def _lower_forall(state, node):
    holds_forall = state._holds_forall

    def run(lo, hi):
        return holds_forall(node, lo, hi)
    return run


def _lower_bindnext(state, node):
    holds_bindnext = state._holds_bindnext

    def run(lo, hi):
        return holds_bindnext(node, lo, hi)
    return run


_FACTORIES = {
    N_ATOM: _lower_atom,
    N_TRUE: _lower_true,
    N_FALSE: _lower_false,
    N_NOT: _lower_not,
    N_AND: _lower_junction(deciding=False),
    N_OR: _lower_junction(deciding=True),
    N_IMPLIES: _lower_implies,
    N_IFF: _lower_iff,
    N_ALWAYS: _lower_suffixes(want=False),
    N_EVENTUALLY: _lower_suffixes(want=True),
    N_INTERVAL: _lower_interval,
    N_OCCURS: _lower_occurs,
    N_FORALL: _lower_forall,
    N_BINDNEXT: _lower_bindnext,
}


def _mask_range(lo: int, hi: int) -> int:
    if lo > hi:
        return 0
    return (1 << hi) - (1 << (lo - 1))


class _ExactConstruct(Exception):
    """A fused term closure met a dead/unusable profile: the caller must
    rerun the whole construction on the generic (memoized, exact-error)
    path instead."""


def _compile_term_bits(state, kernel, tid, direction):
    """Compile interval term ``tid`` to a closure ``(i, j) -> (lo, hi, horizon)``.

    The closure computes ``F(term, <i, j>)`` straight from the tail
    kernel's change indexes — the whole ``_construct_interval`` →
    ``_construct`` → ``_find_event`` recursion collapsed to bisections at
    lowering time, with the direction of every event search resolved
    statically (it only depends on the term's shape).  It passes the
    interval as its two positions and builds no
    :class:`~repro.semantics.construction.Interval`: ``lo is None`` is ⊥
    (``hi`` is then ``None`` too).  Returns ``None`` when some event leaf
    is not a state formula; raises :class:`_ExactConstruct` at *call* time
    when a profile has died (a missing variable, a raising position), so
    the caller falls back to the generic exact path whose lazy
    per-position errors the fused path cannot reproduce.

    ``horizon`` is the last start ``i' >= i`` up to which ``F(term, <i',
    j>)`` gives the same result with the same tail marking.  F depends on
    the start only through the searches made from it, so the horizon is
    the least of their horizons (one before the change a search found,
    unbounded when it found none); a search from a position an earlier
    search found adds nothing.  Shapes that put the start in the interval
    (``=> J``, ``<= J``, the bare context) answer the start itself.

    Every event leaf makes one search,
    :func:`~repro.compile.vector.search_changes`, the same bisection (and
    tail-marking) ``PlanState._find_event`` runs for a growing prefix.
    """
    term = state._terms[tid]
    op = term.op
    if op == T_EVENT:
        node = state._nodes[term.event]
        if not node.is_state:
            return None
        changes = kernel.changes
        trace = state._trace
        mark_tail = state._mark_tail
        forward = direction == Direction.FORWARD
        stats = state.stats

        def run(i, j):
            index = changes(node)
            if index is None:
                raise _ExactConstruct
            stats.event_searches += 1
            k = search_changes(index, trace.length, i, j, forward, mark_tail)
            if k is None:
                return None, None, INFINITY
            return k - 1, k, k - 1
        return run
    if op == T_BEGIN:
        inner = _compile_term_bits(state, kernel, term.a, direction)
        if inner is None:
            return None

        def run(i, j):
            lo, _, horizon = inner(i, j)
            return lo, lo, horizon
        return run
    if op == T_END:
        inner = _compile_term_bits(state, kernel, term.a, direction)
        if inner is None:
            return None

        def run(i, j):
            lo, hi, horizon = inner(i, j)
            if lo is None or hi == INFINITY:
                return None, None, horizon
            return hi, hi, horizon
        return run
    if op in (T_FORWARD, T_BACKWARD):
        left, right = term.a, term.b
        if left is None and right is None:
            return lambda i, j: (i, j, i)
        if op == T_FORWARD:
            # ``I =>``: the *next* I (caller's direction); ``=> J``: the
            # first J, always forward.
            lrun = (
                _compile_term_bits(state, kernel, left, direction)
                if left is not None
                else None
            )
            rrun = (
                _compile_term_bits(state, kernel, right, Direction.FORWARD)
                if right is not None
                else None
            )
        else:
            # ``I <=``: the most recent I, always backward; ``<= J``: the
            # first J in the caller's direction.
            lrun = (
                _compile_term_bits(state, kernel, left, Direction.BACKWARD)
                if left is not None
                else None
            )
            rrun = (
                _compile_term_bits(state, kernel, right, direction)
                if right is not None
                else None
            )
        if (left is not None and lrun is None) or (
            right is not None and rrun is None
        ):
            return None
        if rrun is None:
            def run(i, j):
                _, hi, horizon = lrun(i, j)
                if hi is None or hi == INFINITY:
                    return None, None, horizon
                return hi, j, horizon
            return run
        if lrun is None:
            def run(i, j):
                _, hi, horizon = rrun(i, j)
                if hi is None or hi == INFINITY:
                    return None, None, horizon
                return i, hi, i
            return run
        if op == T_FORWARD:
            def run(i, j):
                _, lo, horizon = lrun(i, j)
                if lo is None or lo == INFINITY:
                    return None, None, horizon
                # J is searched from where I ended, which stays put up to
                # I's horizon: its own horizon does not bound this one.
                hi = rrun(lo, j)[1]
                if hi is None or hi == INFINITY:
                    return None, None, horizon
                return lo, hi, horizon
            return run

        def run(i, j):
            _, hi, horizon = rrun(i, j)
            if hi is None or hi == INFINITY:
                return None, None, horizon
            _, lo, left_horizon = lrun(i, hi)
            if left_horizon < horizon:
                horizon = left_horizon
            if lo is None or lo == INFINITY:
                return None, None, horizon
            return lo, hi, horizon
        return run
    return None


def _vectorized_incremental(state, kernel, node, fallback):
    """The tail-kernel binding of ``node``, or ``None`` to keep ``fallback``.

    Three shapes bind to the kernel, over profiles that cover the
    *concrete* states observed so far: a state formula itself (one
    cached-profile bit test per call), ``[] / <>`` directly over a state
    formula (one mask test over the context per call), and ``[I]α`` /
    ``*I`` over a term whose events are all state formulas: the fused term
    closure (:func:`_compile_term_bits`) finds the interval's two positions
    from change indexes, building no ``Interval``, and the node's closure
    leaves that construction's horizon in ``state._horizon`` for the
    ``[] / <>`` frontier (``PlanState._holds_suffixes_incremental``), which
    calls this closure directly and then skips every start up to it.  A dead profile falls back to the node's generic
    closure, with the start itself as horizon.  ``_holds`` skips both
    context normalization and the tail push for vector node ids, so these
    closures own both obligations: a context reaching past the last
    concrete state marks the caller's frame tail-dependent (its verdict
    reads the stuttered final state and may flip on append) **before**
    normalizing, and every fallback call receives the normalized context —
    the resumable ``[] / <>`` frontier keys on ``lo`` and would otherwise
    see an empty representative range for tail-only contexts.

    Verdicts decided by concrete states alone — a witness position under
    ``<>``, a counterexample under ``[]``, any bounded context ending at or
    before the last concrete state — stay unmarked, so they land in
    callers' *stable* memos and survive appends: that is what makes a
    batched append one window pass instead of N re-evaluations.
    """
    trace = state._trace
    normalize = state._normalize_ctx
    mark_tail = state._mark_tail
    if node.is_state:
        holds_at = kernel.holds_at

        def run(lo, hi):
            if lo > trace.length:
                mark_tail()
                lo, hi = normalize(lo, hi)
            verdict = holds_at(node, lo)
            if verdict is None:
                return fallback(lo, hi)
            return verdict
        return run
    if node.op in (N_ALWAYS, N_EVENTUALLY):
        child = state._nodes[node.a]
        if not child.is_state:
            return None
        profile = kernel.profile
        want = node.op == N_EVENTUALLY

        def run(lo, hi):
            n = trace.length
            if lo > n:
                mark_tail()
                lo, hi = normalize(lo, hi)
            bits = profile(child)
            if bits is None:
                return fallback(lo, hi)
            if hi == INFINITY:
                cov = _mask_range(lo, n)
                open_end = True
            else:
                cov = _mask_range(lo, hi if hi < n else n)
                open_end = hi > n
            if want:
                if bits & cov:
                    return True
                if open_end:
                    mark_tail()
                return False
            if (bits & cov) != cov:
                return False
            if open_end:
                mark_tail()
            return True
        return run
    if node.op in (N_INTERVAL, N_OCCURS):
        construct_fast = _compile_term_bits(
            state, kernel, node.term, Direction.FORWARD
        )
        if construct_fast is None:
            return None
        holds = state._holds
        body = node.a if node.op == N_INTERVAL else None

        def run(lo, hi):
            if lo > trace.length:
                mark_tail()
                lo, hi = normalize(lo, hi)
            try:
                found_lo, found_hi, horizon = construct_fast(lo, hi)
            except _ExactConstruct:
                verdict = fallback(lo, hi)
                state._horizon = lo
                return verdict
            # Every start up to the horizon builds this same interval, so
            # the verdict (the body's through its memo) holds for all of them.
            if body is None:
                verdict = found_lo is not None
            else:
                verdict = found_lo is None or holds(body, found_lo, found_hi)
            state._horizon = horizon
            return verdict
        return run
    return None


def bind_dispatch(state) -> Tuple[Tuple[Callable[[int, object], bool], ...], frozenset]:
    """Lower every node of ``state``'s plan to a bound closure.

    Returns the node-id-indexed dispatch table ``PlanState._holds`` jumps
    through, plus the frozenset of node ids bound to the vectorized
    (bitset-kernel) mode — those ids take the memo-free fast path in
    ``_holds``.  An unknown opcode fails here, at binding time, instead of
    at the first evaluation that reaches the node.
    """
    kernel = state._kernel
    ops: List[Callable] = []
    vector_ids: List[int] = []
    for node in state._plan.nodes:
        factory = _FACTORIES.get(node.op)
        if factory is None:
            raise CompileError(f"cannot lower plan node: {node!r}")
        closure = factory(state, node)
        if kernel is not None:
            vectorized = _vectorized_incremental(state, kernel, node, closure)
            if vectorized is not None:
                closure = vectorized
                vector_ids.append(node.id)
        ops.append(closure)
    return tuple(ops), frozenset(vector_ids)
