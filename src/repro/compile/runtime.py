"""Executable plan states: the compiled evaluator runtime.

A :class:`PlanState` binds one :class:`~repro.compile.specplan.SpecPlan` to
one computation and answers ``<lo, hi> |= α`` for each of its clauses
exactly like the Chapter 3 evaluator (:mod:`repro.semantics.evaluator`),
with three representation changes:

* **slot-addressed environments** — quantifiers and ``bind-next`` write
  logical-variable values into a flat slot vector instead of copying
  environment dictionaries; memo keys restrict to each node's precomputed
  free-slot signature;
* **node-id memo tables** — verdicts key on small integers from the
  hash-consed DAG, so structurally repeated subformulas share entries
  (within a clause and across the clauses of the plan), and
  *state formulas* (truth determined by the first state of the context)
  share one entry per canonical position across every context;
* **interval-endpoint indexes** — for events defined by state formulas,
  the False→True change positions are computed once per environment
  signature and event searches bisect them instead of re-scanning the
  trace.  Each mode has one such index: the bitset kernel's change index
  in incremental mode, an :class:`EventIndex` built once over the fixed
  lasso in static mode.  A search over a non-state event, or one the
  index cannot answer exactly (a dead kernel profile, an unhashable
  binding, an event that raises at some position), is the memoized scan.

Incremental monitoring
----------------------

``PlanState(..., incremental=True)`` evaluates over a prefix read under the
paper's finite-computation convention: a stutter-terminated
:class:`~repro.semantics.trace.Trace` (period 1, the last state
repeating).  A :class:`GrowingPrefix` is such a trace that gains a window
of states per :meth:`GrowingPrefix.extend`; a trace built from states is
a prefix that has stopped growing.  Either way the trace's one position
protocol answers, over the dictionary-encoded columns the bitset kernel
(:class:`~repro.compile.vector.TailKernel`) reads, and no ``State`` row
is cached unless a per-position fallback asks for one.  During
evaluation the runtime tracks, per memo entry, whether the verdict
depended on the *tail* of the computation (a stuttered position beyond
the last concrete state, the exhaustion of an infinite suffix
enumeration, a backward event search, or the growing default
quantification domain).  Tail-independent verdicts are frozen
forever in a stable memo; tail-dependent ones go to a volatile memo
cleared by :meth:`PlanState.note_append`.  Resumable frontier aggregators
for ``[] / <>`` on infinite contexts, and the kernel's window-extended
profiles and change indexes, then make re-evaluation after one appended
state cost amortized O(changed work) instead of O(prefix).

A one-shot check binds this mode, kernel on, on a stutter-terminated trace
(:func:`reads_as_prefix`).  A lasso whose cycle is longer than one state,
or a check with the kernel off (the ``stepwise`` engine), binds the static
per-position mode, which has no kernel.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple, Union

from ..errors import EvaluationError, TraceError
from ..semantics.columns import ColumnStore
from ..semantics.construction import BOTTOM, Direction, Interval
from ..semantics.state import State
from ..semantics.trace import INFINITY, Trace
from .vector import TailKernel, search_changes
from .dag import (
    N_INTERVAL,
    N_OCCURS,
    T_BEGIN,
    T_END,
    T_EVENT,
    T_FORWARD,
)

__all__ = [
    "UNSET",
    "ClauseOutcome",
    "GrowingPrefix",
    "EventIndex",
    "PlanStats",
    "PlanState",
    "reads_as_prefix",
]


Position = Union[int, float]

#: Sentinel marking an unbound logical-variable slot.
UNSET = object()

_MISS = object()


def reads_as_prefix(trace, vectorize: bool) -> bool:
    """Whether a check of ``trace`` binds the incremental plan state.

    True for a stutter-terminated trace (period 1: the paper's finite
    computation, whose last state repeats forever) with the bitset kernel
    on.  Such a trace is a growing prefix that has stopped growing, so the
    monitors' incremental mode answers it, reading the trace's own columns
    as one window.  A lasso with a longer cycle, or ``vectorize=False``,
    binds the static per-position mode.
    """
    return vectorize and trace.period == 1


class GrowingPrefix(Trace):
    """A stutter-extended state prefix that grows: a
    :class:`~repro.semantics.trace.Trace` held as columns only.

    It starts empty and stays the paper's finite computation
    (``loop_start == length``, period 1) as it grows, so the trace's own
    position protocol answers it.  Each appended window — a
    :class:`~repro.semantics.columns.Window`, as the serve layer builds
    from wire rows without a ``State``, or a sequence of ``State`` s — is
    encoded once, column by column, into the prefix's
    :class:`~repro.semantics.columns.ColumnStore` (``__start__`` marked
    there), and then dropped.  Row views rebuilt from the columns are
    cached until the next append: a stream whose atoms are read row by row
    keeps only the rows read since its last append.  A prefix pickles as a
    trace does, and an unpickled one goes on growing.
    """

    __slots__ = ()

    def __init__(self) -> None:
        # ``Trace.__init__`` requires a state; a prefix starts with none.
        self._source = None
        self._store = ColumnStore()
        self._rows = {}
        self._mark_start = False  # the store marks ``__start__``
        self._loop_start = self._length = 0

    def append(self, state: State) -> None:
        self.extend((state,))

    def extend(self, states: Sequence[State]) -> None:
        """Append a window of states, encoded in one pass per column.

        A :class:`~repro.semantics.columns.Window` is taken as it is; a
        sequence of ``State`` s is converted in one pass, and an element
        that is not a ``State`` raises :class:`TraceError` before any of
        the window is encoded.
        """
        store = self._store
        store.absorb(states)
        self._loop_start = self._length = store.length
        self._rows.clear()


class EventIndex:
    """Change positions of one state-formula event over a fixed lasso.

    The static mode's event index, built once per ``(event, bindings)``
    from the event's truth in every concrete state (``truth(pos)`` for
    ``pos`` in ``1..length``; a raising position propagates, and the
    caller scans instead).  ``stem`` holds the virtual positions ``k`` in
    ``[2, length]`` where the formula changes False→True between adjacent
    concrete states, and ``cycle`` the change positions in the first
    virtual copy of the lasso's repeating cycle (every later change beyond
    the concrete states is ``cycle[i] + t·period``).  Queries bisect
    instead of scanning.
    """

    __slots__ = ("stem", "cycle", "length")

    def __init__(self, trace, truth: Callable[[int], bool]) -> None:
        self.length = trace.length
        self.stem, self.cycle = trace.change_positions(
            [truth(pos) for pos in range(1, self.length + 1)]
        )

    def first_change(self, start: int, bound: int, period: int) -> Optional[int]:
        """The least change position in ``[start, bound]``, or ``None``."""
        n = self.length
        best: Optional[int] = None
        if start <= n:
            idx = bisect_left(self.stem, start)
            if idx < len(self.stem):
                best = self.stem[idx]
        if best is None and self.cycle:
            anchor = max(start, n + 1)
            for base in self.cycle:
                candidate = base
                if candidate < anchor:
                    steps = (anchor - base + period - 1) // period
                    candidate = base + steps * period
                if best is None or candidate < best:
                    best = candidate
        if best is not None and best <= bound:
            return best
        return None

    def last_change(self, start: int, bound: int, period: int) -> Optional[int]:
        """The greatest change position in ``[start, bound]``, or ``None``."""
        n = self.length
        best: Optional[int] = None
        if self.cycle and bound >= n + 1:
            anchor = max(start, n + 1)
            for base in self.cycle:
                if base > bound:
                    continue
                candidate = base + ((bound - base) // period) * period
                if candidate >= anchor and (best is None or candidate > best):
                    best = candidate
        if best is not None:
            return best
        hi = min(bound, n)
        idx = bisect_right(self.stem, hi)
        if idx > 0 and self.stem[idx - 1] >= start:
            return self.stem[idx - 1]
        return None


class PlanStats:
    """Work counters of one plan state (the monitor regression hooks).

    ``event_searches`` counts *actual* event searches — memo hits (stable
    or volatile) don't increment it, so a monitor whose appends only redo
    tail-dependent work shows a flat per-step search count.
    """

    __slots__ = ("dispatch_calls", "event_searches")

    def __init__(self) -> None:
        self.dispatch_calls = 0
        self.event_searches = 0


@dataclass(frozen=True)
class ClauseOutcome:
    """One clause's verdict from a plan-state evaluation."""

    name: str
    verdict: Optional[bool]
    error: Optional[str] = None

    @property
    def holds(self) -> bool:
        return self.verdict is True


class PlanState:
    """One compiled plan bound to one computation.

    Every clause of the plan evaluates through this one state: one slot
    vector, one memo table keyed on hash-consed node ids (so a subformula
    shared by several clauses is decided once per position), one set of
    interval-endpoint indexes.

    Parameters
    ----------
    plan:
        The compiled :class:`~repro.compile.specplan.SpecPlan`.
    trace:
        The computation: a :class:`repro.semantics.trace.Trace` — any
        lasso in static mode; in incremental mode a stutter-terminated
        one, growing (a :class:`GrowingPrefix`) or finished.
    domain:
        Explicit ``Forall`` quantification domains; variables not mentioned
        quantify over the trace's observed value universe, exactly as in
        the evaluator.
    incremental:
        Evaluate under the finite-computation convention with
        tail-dependence tracking and frontier aggregators: the mode of a
        monitored prefix and of a one-shot check on a stutter-terminated
        trace (:func:`reads_as_prefix`).  This mode binds the bitset
        kernel (:class:`~repro.compile.vector.TailKernel`): state
        formulas, ``[] / <>`` directly over them and ``[I]α`` / ``*I``
        over state-formula events evaluate from truth profiles, and every
        state-formula event search bisects its profile's change index; a
        dead profile falls back per node to the per-position path, with
        identical verdicts and errors.  Off, the static per-position mode
        answers any lasso, with no kernel: each state-formula event is
        indexed once over the fixed lasso (:class:`EventIndex`).
    """

    def __init__(
        self,
        plan,
        trace,
        domain: Optional[Mapping[str, Iterable[Any]]] = None,
        incremental: bool = False,
    ) -> None:
        self._plan = plan
        self._nodes = plan.nodes
        self._terms = plan.terms
        self._trace = trace
        self._incremental = incremental
        self._domain = {k: tuple(v) for k, v in (domain or {}).items()}
        self._default_domain: Optional[Tuple[Any, ...]] = None
        self._slots: List[Any] = [UNSET] * len(plan.slot_names)
        self._stable: Dict[Any, bool] = {}
        self._volatile: Dict[Any, bool] = {}
        self._agg: Dict[Any, int] = {}
        #: The static mode's event indexes per ``(event, bindings)``;
        #: ``None`` marks an event whose profiling raised (it scans).
        self._indexes: Dict[Any, Optional[EventIndex]] = {}
        #: Event-search memo: clauses of a multi-root plan that share an
        #: interval term — the mutex A1 family all searching the same
        #: ``x(i) <= cs(i)`` events — resolve each (event, context,
        #: direction) search once.
        self._event_memo: Dict[Any, Any] = {}
        #: Whole-term construction memo, keyed on the term's free-slot
        #: signature: ``[I]α`` and ``[I]β`` nodes sharing ``I`` construct
        #: each context once between them.  On a growing prefix this holds
        #: only tail-*independent* results (frozen forever); tail-dependent
        #: ones go to the volatile twin below, cleared per append.
        self._construct_memo: Dict[Any, Any] = {}
        self._volatile_events: Dict[Any, Any] = {}
        self._volatile_constructs: Dict[Any, Any] = {}
        self._tail: List[bool] = [False]
        #: The horizon the last fused ``[I]α`` / ``*I`` closure reported:
        #: the last start from which its verdict and tail marking repeat
        #: (see :func:`repro.compile.lower._compile_term_bits`).
        self._horizon: Position = 0
        self.stats = PlanStats()
        # The bitset kernel evaluates state formulas columnwise, its
        # profiles extended over each window the prefix gains.
        self._kernel: Optional[TailKernel] = (
            TailKernel(self, trace) if incremental else None
        )
        # Closure-lowered dispatch: one bound closure per plan node, built
        # once per state (see repro.compile.lower).
        from .lower import bind_dispatch

        self._ops, self._vector_nids = bind_dispatch(self)

    # -- public API ----------------------------------------------------------

    @property
    def plan(self):
        return self._plan

    @property
    def trace(self):
        return self._trace

    @property
    def memo_size(self) -> int:
        return len(self._stable) + len(self._volatile)

    @property
    def index_count(self) -> int:
        """Event indexes built: the kernel's change indexes plus the static
        mode's :class:`EventIndex` es."""
        count = sum(1 for index in self._indexes.values() if index is not None)
        if self._kernel is not None:
            count += self._kernel.change_index_count
        return count

    @property
    def vector_node_count(self) -> int:
        """Plan nodes bound to the vectorized (bitset) evaluation mode."""
        return len(self._vector_nids)

    def _root(self, name: Optional[str]) -> int:
        """The root node of the clause ``name``; ``None`` is the first."""
        roots = self._plan.roots
        if name is None:
            return next(iter(roots.values()))
        try:
            return roots[name]
        except KeyError:
            raise KeyError(
                f"no clause named {name!r} in this plan "
                f"(clauses: {', '.join(self._plan.clause_names)})"
            ) from None

    def satisfies(
        self, name: Optional[str] = None, env: Optional[Mapping[str, Any]] = None
    ) -> bool:
        """``s |= clause`` over the whole computation ``<1, ∞>`` under
        ``env`` (names outside the plan ignored); no ``name`` answers the
        first clause, the one clause of a compiled formula."""
        return self.holds_node(self._root(name), 1, INFINITY, env)

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

    def holds_node(
        self,
        nid: int,
        lo: Position,
        hi: Position,
        env: Optional[Mapping[str, Any]] = None,
    ) -> bool:
        """``<lo, hi> |= node`` for any DAG node: each clause evaluates
        through its own root id over the shared memo tables."""
        if self._trace.length == 0:
            raise TraceError(
                "the plan state has no observed states yet; append at least "
                "one state before evaluating"
            )
        saved = list(self._slots)
        slot_of = self._plan.slot_of
        for name, value in (env or {}).items():
            slot = slot_of.get(name)
            if slot is not None:
                self._slots[slot] = value
        try:
            return self._holds(nid, int(lo), hi)
        finally:
            self._slots[:] = saved

    def construct_root_interval(self, env: Optional[Mapping[str, Any]] = None):
        """The witness interval of a top-level ``[I]α`` / ``*I`` root of the
        first clause, if any."""
        node = self._nodes[self._root(None)]
        if node.op not in (N_INTERVAL, N_OCCURS):
            return None
        saved = list(self._slots)
        slot_of = self._plan.slot_of
        for name, value in (env or {}).items():
            slot = slot_of.get(name)
            if slot is not None:
                self._slots[slot] = value
        try:
            return self._construct(node.term, Interval(1, INFINITY), Direction.FORWARD)
        finally:
            self._slots[:] = saved

    def close(self) -> None:
        """Break the reference cycles that tie this state to itself.

        The lowered dispatch closures hold bound methods of the state, and
        the kernel holds the state; once both are dropped, reference
        counting frees the state with its last holder instead of leaving it
        to the cycle collector.  The state answers nothing afterwards.
        """
        self._ops = ()
        self._kernel = None

    def note_append(self) -> None:
        """Absorb appended states: drop only tail-dependent verdicts.

        One call absorbs an arbitrarily large appended window — the
        stable memo holds tail-*independent* entries only, so the
        volatile/aggregator state cleared here is exactly what any number
        of new states could change, and the tail kernel's profiles (which
        only ever extend) are untouched.  Batched appends therefore pay
        one memo sweep per batch, not per state.
        """
        self._volatile.clear()
        self._volatile_events.clear()
        self._volatile_constructs.clear()

    # -- the satisfaction relation ------------------------------------------

    def _normalize_ctx(self, lo: int, hi: Position) -> Tuple[int, Position]:
        trace = self._trace
        period = trace.period
        loop_start = trace.loop_start
        while lo - period >= loop_start:
            lo -= period
            if hi != INFINITY:
                hi -= period
        return lo, hi

    def _mark_tail(self) -> None:
        if self._incremental:
            self._tail[-1] = True

    def _env_view(self, node) -> Dict[str, Any]:
        env: Dict[str, Any] = {}
        slots = self._slots
        for name, slot in zip(node.free_names, node.free_slots):
            value = slots[slot]
            if value is not UNSET:
                env[name] = value
        return env

    def _holds(self, nid: int, lo: int, hi: Position) -> bool:
        self.stats.dispatch_calls += 1
        if nid in self._vector_nids:
            # Kernel-bound nodes answer from cached bitset profiles and
            # change indexes, with no memo table (the profile *is* the
            # memo).  Their closures normalize the context and own their
            # tail-marking, so the caller's stable/volatile split stays
            # sound.
            return self._ops[nid](lo, hi)
        incremental = self._incremental
        if incremental and lo > self._trace.length:
            self._tail[-1] = True
        lo, hi = self._normalize_ctx(lo, hi)
        node = self._nodes[nid]
        key: Optional[Tuple[Any, ...]] = None
        try:
            if node.free_slots:
                slots = self._slots
                envkey = tuple(slots[s] for s in node.free_slots)
            else:
                envkey = ()
            if node.is_state:
                key = (nid, self._trace.canonical(lo), envkey)
            else:
                key = (nid, lo, hi, envkey)
            hit = self._stable.get(key, _MISS)
            if hit is not _MISS:
                return hit
            if incremental:
                hit = self._volatile.get(key, _MISS)
                if hit is not _MISS:
                    self._tail[-1] = True
                    return hit
        except TypeError:
            key = None
        if not incremental:
            value = self._ops[nid](lo, hi)
            if key is not None:
                self._stable[key] = value
            return value
        self._tail.append(False)
        try:
            value = self._ops[nid](lo, hi)
        finally:
            tail = self._tail.pop()
            if tail:
                self._tail[-1] = True
        if key is not None:
            (self._volatile if tail else self._stable)[key] = value
        return value

    def _junction(self, a: int, b: int, lo: int, hi: Position, deciding: bool) -> bool:
        """``∧`` / ``∨`` with order-insensitive error behaviour.

        Normalization sorts commutative operands canonically, which can
        move an erroring operand ahead of the one the evaluator's original
        left-to-right short-circuit would have decided on.  An operand
        exception is therefore *deferred*: it surfaces only when no other
        operand decides the verdict (``deciding`` = the absorbing value:
        True for ``∨``, False for ``∧``).  Whenever the interpreting
        evaluator produces a verdict, this produces the same verdict; only
        evaluator-error cases can become more defined.
        """
        error: Optional[Exception] = None
        try:
            for child in (a, b):
                try:
                    if self._holds(child, lo, hi) is deciding:
                        return deciding
                except Exception as exc:  # deferred: may be absorbed by the other side
                    if error is None:
                        error = exc
            if error is not None:
                raise error
            return not deciding
        finally:
            # The held error's traceback holds this frame: drop the
            # reference, or the frame, the error and everything the frame
            # reaches would wait for the cycle collector.
            error = None

    # -- [] / <> -------------------------------------------------------------

    def _holds_suffixes(self, node, lo: int, hi: Position, want: bool) -> bool:
        if self._incremental and hi == INFINITY:
            return self._holds_suffixes_incremental(node, lo, want)
        child = node.a
        if want:
            for k in self._trace.suffix_representatives(lo, hi):
                if self._holds(child, k, hi):
                    return True
            if hi == INFINITY:
                self._mark_tail()
            return False
        for k in self._trace.suffix_representatives(lo, hi):
            if not self._holds(child, k, hi):
                return False
        if hi == INFINITY:
            self._mark_tail()
        return True

    def _holds_suffixes_incremental(self, node, lo: int, want: bool) -> bool:
        """Resumable frontier for ``[] / <>`` on the growing infinite context.

        Representatives whose child verdict was tail-*independent* (and not
        the deciding one) never need re-examination: the frontier records
        the last such position, so each appended state re-checks only the
        pending tail-dependent suffix.  A deciding verdict (a False child
        under ``[]``, a True child under ``<>``) short-circuits exactly like
        the evaluator's ``all()`` / ``any()``.

        A child bound to a fused interval closure (``[I]α`` / ``*I`` over
        kernel events) reports a *horizon*: every start up to it builds the
        same interval with the same tail marking, so it has the same verdict
        and tail-dependence, and the loop jumps past it.  Pending starts
        waiting on the same change point thus share one evaluation; any
        other child advances one start at a time.  Such a child's closure
        is called directly, counted as the dispatch ``_holds`` would have
        made (its node id takes ``_holds``' memo-free path anyway); any
        other child goes through ``_holds``.  Each child verdict runs in a
        tail frame of its own, which tells whether it was tail-dependent.
        """
        child = node.a
        n = self._trace.length
        agg_key: Optional[Tuple[Any, ...]] = None
        frontier = lo - 1
        try:
            envkey = tuple(self._slots[s] for s in node.free_slots)
            agg_key = (node.id, lo, envkey)
            frontier = self._agg.get(agg_key, lo - 1)
        except TypeError:
            agg_key = None
        fused = None
        if child in self._vector_nids and self._nodes[child].op in (N_INTERVAL, N_OCCURS):
            fused = self._ops[child]
        stats = self.stats
        tails = self._tail
        first_tail: Optional[int] = None
        k = max(frontier + 1, lo)
        while k <= n:
            tails.append(False)
            try:
                if fused is None:
                    value = self._holds(child, k, INFINITY)
                else:
                    stats.dispatch_calls += 1
                    value = fused(k, INFINITY)
            finally:
                tail = tails.pop()
                if tail:
                    tails[-1] = True
            if value is want:
                return want
            if tail and first_tail is None:
                first_tail = k
            k = k + 1 if fused is None else self._horizon + 1
        if agg_key is not None:
            self._agg[agg_key] = n if first_tail is None else first_tail - 1
        self._mark_tail()  # an undecided verdict depends on future states
        return not want

    # -- quantification and binding -----------------------------------------

    def _default_universe(self) -> Tuple[Any, ...]:
        if self._incremental:
            # The observed value universe can still grow with the prefix.
            self._mark_tail()
            return self._trace.value_universe()
        if self._default_domain is None:
            self._default_domain = self._trace.value_universe()
        return self._default_domain

    def _domain_for(self, name: str) -> Tuple[Any, ...]:
        if name in self._domain:
            return self._domain[name]
        return self._default_universe()

    def _holds_forall(self, node, lo: int, hi: Position, index: int = 0) -> bool:
        """``Forall`` over the bound variables from ``index`` on.

        A method, not a recursive closure: a closure that calls itself is
        a reference cycle, left to the cycle collector on every call and
        holding this state until it runs.
        """
        if index == len(node.var_slots):
            return self._holds(node.a, lo, hi)
        slot = node.var_slots[index]
        slots = self._slots
        saved = slots[slot]
        try:
            for value in self._domain_for(node.var_names[index]):
                slots[slot] = value
                if not self._holds_forall(node, lo, hi, index + 1):
                    return False
            return True
        finally:
            slots[slot] = saved

    def _holds_bindnext(self, node, lo: int, hi: Position) -> bool:
        found = self._find_event(node.event, Interval(lo, hi), Direction.FORWARD)
        if found is BOTTOM:
            return True
        if self._incremental and found.hi > self._trace.length:
            self._tail[-1] = True
        call_state = self._trace.state_at(found.hi)
        record = call_state.operation(node.operation)
        args = record.args
        if len(args) < len(node.var_names):
            raise EvaluationError(
                f"bind-next over operation {node.operation!r} binds "
                f"{len(node.var_names)} variable(s) "
                f"({', '.join(node.var_names)}) but the call at position "
                f"{found.hi} supplies only {len(args)} argument(s)"
            )
        slots = self._slots
        saved = [slots[s] for s in node.var_slots]
        try:
            for slot, value in zip(node.var_slots, args):
                slots[slot] = value
            return self._holds(node.a, lo, hi)
        finally:
            for slot, value in zip(node.var_slots, saved):
                slots[slot] = value

    # -- the construction function F ----------------------------------------

    def _construct_interval(self, tid: int, lo: int, hi: Position):
        """``F(term, <lo, hi>)`` with whole-term memoization.

        This is the entry the ``[I]α`` / ``*I`` closures call: the result
        is a pure function of the term, its free-slot bindings and the
        context, so interval-formula nodes that share a term — different
        clause bodies over the same skeleton — construct each context once.

        On a growing prefix the memo is *tail-aware*: a construction whose
        event searches never looked past the last concrete state is frozen
        in the stable memo forever; one that did goes to a volatile memo
        cleared per append, so each appended state redoes only the pending
        tail-dependent constructions.
        """
        term = self._terms[tid]
        free = term.free_slots
        if free:
            slots = self._slots
            key = (tid, lo, hi) + tuple(slots[s] for s in free)
        else:
            key = (tid, lo, hi)
        incremental = self._incremental
        try:
            hit = self._construct_memo.get(key, _MISS)
        except TypeError:
            key, hit = None, _MISS
        if hit is not _MISS:
            return hit
        if incremental and key is not None:
            hit = self._volatile_constructs.get(key, _MISS)
            if hit is not _MISS:
                self._tail[-1] = True
                return hit
        if not incremental:
            found = self._construct(tid, Interval(lo, hi), Direction.FORWARD)
            if key is not None:
                self._construct_memo[key] = found
            return found
        self._tail.append(False)
        try:
            found = self._construct(tid, Interval(lo, hi), Direction.FORWARD)
        finally:
            tail = self._tail.pop()
            if tail:
                self._tail[-1] = True
        if key is not None:
            (self._volatile_constructs if tail else self._construct_memo)[key] = found
        return found

    def _construct(self, tid: int, context: Optional[Interval], direction: str):
        if context is BOTTOM:
            return BOTTOM
        term = self._terms[tid]
        op = term.op
        if op == T_EVENT:
            return self._find_event(term.event, context, direction)
        if op == T_BEGIN:
            inner = self._construct(term.a, context, direction)
            if inner is BOTTOM:
                return BOTTOM
            return Interval(inner.first, inner.first)
        if op == T_END:
            inner = self._construct(term.a, context, direction)
            if inner is BOTTOM or inner.is_infinite:
                return BOTTOM
            return Interval(int(inner.last), int(inner.last))
        if op == T_FORWARD:
            return self._construct_forward(term, context, direction)
        return self._construct_backward(term, context, direction)

    def _forward_from_left(self, left_tid: int, context: Interval, direction: str):
        # ``I =>``: from the end of the next I to the end of the context.
        inner = self._construct(left_tid, context, direction)
        if inner is BOTTOM or inner.is_infinite:
            return BOTTOM
        return Interval(int(inner.last), context.hi)

    def _forward_to_right(self, right_tid: int, context: Interval):
        # ``=> J``: from the start of the context to the end of the first J.
        inner = self._construct(right_tid, context, Direction.FORWARD)
        if inner is BOTTOM or inner.is_infinite:
            return BOTTOM
        return Interval(context.lo, int(inner.last))

    def _construct_forward(self, term, context: Interval, direction: str):
        left, right = term.a, term.b
        if left is None and right is None:
            return context
        if left is not None and right is None:
            return self._forward_from_left(left, context, direction)
        if left is None:
            return self._forward_to_right(right, context)
        prefix = self._forward_from_left(left, context, direction)
        if prefix is BOTTOM:
            return BOTTOM
        return self._forward_to_right(right, prefix)

    def _backward_from_left(self, left_tid: int, context: Interval):
        # ``I <=``: from the end of the most recent I to the end of the context.
        inner = self._construct(left_tid, context, Direction.BACKWARD)
        if inner is BOTTOM or inner.is_infinite:
            return BOTTOM
        return Interval(int(inner.last), context.hi)

    def _backward_to_right(self, right_tid: int, context: Interval, direction: str):
        # ``<= J``: like ``=> J`` except the inner direction follows d.
        inner = self._construct(right_tid, context, direction)
        if inner is BOTTOM or inner.is_infinite:
            return BOTTOM
        return Interval(context.lo, int(inner.last))

    def _construct_backward(self, term, context: Interval, direction: str):
        left, right = term.a, term.b
        if left is None and right is None:
            return context
        if left is not None and right is None:
            return self._backward_from_left(left, context)
        if left is None:
            return self._backward_to_right(right, context, direction)
        suffix = self._backward_to_right(right, context, direction)
        if suffix is BOTTOM:
            return BOTTOM
        return self._backward_from_left(left, suffix)

    # -- event search --------------------------------------------------------

    def _index_for(self, event_nid: int, node) -> Optional[EventIndex]:
        """The static mode's index of a state-formula event under the
        current bindings, built on first use; ``None`` means scan.

        Positions are evaluated through :meth:`_holds`, so the index sees
        the lowered closures' verdicts and ``_junction``'s deferred-error
        rule.  An unhashable binding, or an event that raises at some
        position, is scanned: only the lazy scan raises exactly where the
        evaluator would.
        """
        try:
            key = (event_nid,) + tuple(self._slots[s] for s in node.free_slots)
            index = self._indexes.get(key, _MISS)
        except TypeError:
            return None
        if index is _MISS:
            try:
                index = EventIndex(
                    self._trace, lambda pos: self._holds(event_nid, pos, pos)
                )
            except Exception:  # the scan surfaces the error where it must
                index = None
            self._indexes[key] = index
        return index

    def _find_event(
        self, event_nid: int, context: Optional[Interval], direction: str
    ):
        """The changeset search of Chapter 3 (first/last False→True event).

        With the kernel bound, a state-formula event bisects its change
        index directly (:func:`~repro.compile.vector.search_changes`); this
        is the one caller that wraps the change position it answers in an
        :class:`Interval`, for the generic :meth:`_construct` (the fused
        constructions pass positions).  Otherwise the search result is a
        pure function of the event node, its free-slot bindings, the
        context and the direction, so it memoizes — sharing searches across
        the clauses of a multi-root plan and across repeated constructions
        of a shared interval term.

        In incremental mode the memo splits by tail-dependence: a search
        decided entirely within the concrete states (a forward event found
        at a concrete change, a finite window that closed) freezes in the
        stable memo, while a search that looked past the last state — an
        event not found *yet*, any backward search over the infinite
        context — parks in a volatile memo cleared per append.  Re-checking
        a monitored property after one appended state then redoes only the
        searches the new state could change.
        """
        if context is BOTTOM:
            return BOTTOM
        i, j = context.lo, context.hi
        node = self._nodes[event_nid]
        kernel = self._kernel
        if kernel is not None and node.is_state:
            index = kernel.changes(node)
            if index is not None:
                # Bisecting the change index is cheaper than this memo's
                # key build, so answer directly (tail-marking happens
                # inside, straight onto the caller's frame).  A dead
                # profile or an unhashable binding falls through to the
                # memoized scan.
                self.stats.event_searches += 1
                k = search_changes(
                    index, self._trace.length, i, j,
                    direction == Direction.FORWARD, self._mark_tail,
                )
                return BOTTOM if k is None else Interval(k - 1, k)
        key: Optional[Tuple[Any, ...]] = None
        try:
            envkey = tuple(self._slots[s] for s in node.free_slots)
            key = (event_nid, i, j, direction, envkey)
        except TypeError:
            key = None
        incremental = self._incremental
        if key is not None:
            hit = self._event_memo.get(key, _MISS)
            if hit is not _MISS:
                return hit
            if incremental:
                hit = self._volatile_events.get(key, _MISS)
                if hit is not _MISS:
                    self._tail[-1] = True
                    return hit
        if not incremental:
            found = self._find_event_uncached(event_nid, node, i, j, direction)
            if key is not None:
                self._event_memo[key] = found
            return found
        self._tail.append(False)
        try:
            found = self._find_event_uncached(event_nid, node, i, j, direction)
        finally:
            tail = self._tail.pop()
            if tail:
                self._tail[-1] = True
        if key is not None:
            (self._volatile_events if tail else self._event_memo)[key] = found
        return found

    def _find_event_uncached(
        self, event_nid: int, node, i: int, j: Position, direction: str
    ):
        self.stats.event_searches += 1
        trace = self._trace
        bound = trace.scan_bound(i, j)
        if node.is_state and not self._incremental:
            # The incremental mode answers state-formula events from the
            # kernel in :meth:`_find_event`; reaching here there means a
            # dead profile or an unhashable binding, which scan.
            index = self._index_for(event_nid, node)
            if index is not None:
                return self._find_event_indexed(index, i, j, bound, direction)
        return self._find_event_scan(event_nid, i, j, bound, direction)

    def _find_event_indexed(
        self, index: EventIndex, i: int, j: Position, bound: int, direction: str
    ):
        trace = self._trace
        period = trace.period
        if direction == Direction.FORWARD:
            k = index.first_change(i + 1, bound, period)
        elif j == INFINITY:
            threshold = trace.loop_start + 1
            if bound >= threshold and index.first_change(
                max(i + 1, threshold), bound, period
            ) is not None:
                # An event whose change pair lies in the repeating cycle
                # recurs infinitely often: the changeset max is ⊥.
                return BOTTOM
            k = index.last_change(i + 1, min(bound, threshold - 1), period)
        else:
            k = index.last_change(i + 1, bound, period)
        if k is None:
            return BOTTOM
        return Interval(k - 1, k)

    def _find_event_scan(
        self, event_nid: int, i: int, j: Position, bound: int, direction: str
    ):
        trace = self._trace
        found: List[int] = []
        for k in range(i + 1, bound + 1):
            if self._holds(event_nid, k - 1, j):
                continue
            if self._holds(event_nid, k, j):
                if direction == Direction.FORWARD:
                    return Interval(k - 1, k)
                found.append(k)
        if direction == Direction.FORWARD:
            if self._incremental and bound > trace.length:
                self._tail[-1] = True
            return BOTTOM
        if j == INFINITY:
            self._mark_tail()
            if not found:
                return BOTTOM
            for k in found:
                if trace.repeats_forever(k - 1):
                    return BOTTOM
        elif not found:
            if self._incremental and bound > trace.length:
                self._tail[-1] = True
            return BOTTOM
        k = max(found)
        return Interval(k - 1, k)
