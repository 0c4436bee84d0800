"""Executable plan states: the compiled evaluator runtime.

A :class:`PlanState` binds one :class:`~repro.compile.plan.CompiledPlan` to
one computation and answers ``<lo, hi> |= α`` exactly like the Chapter 3
evaluator (:mod:`repro.semantics.evaluator`), with three representation
changes:

* **slot-addressed environments** — quantifiers and ``bind-next`` write
  logical-variable values into a flat slot vector instead of copying
  environment dictionaries; memo keys restrict to each node's precomputed
  free-slot signature;
* **node-id memo tables** — verdicts key on small integers from the
  hash-consed DAG, so structurally repeated subformulas share entries, and
  *state formulas* (truth determined by the first state of the context)
  share one entry per canonical position across every context;
* **interval-endpoint indexes** — for events defined by state formulas,
  the per-state truth profile and its False→True change positions are
  computed once (per environment signature) and event searches bisect the
  change list instead of re-scanning the trace.

Incremental monitoring
----------------------

``PlanState(..., incremental=True)`` evaluates over a
:class:`GrowingPrefix` — the paper's finite-computation convention on a
prefix that gains a window of states per :meth:`GrowingPrefix.extend`.  The
prefix is column-only: each window is encoded once, columnwise, into the
dictionary-encoded columns the bitset kernel reads, and no ``State`` rows
are kept (row views are rebuilt from the columns on demand).  During
evaluation the runtime tracks, per memo entry, whether the verdict
depended on the *tail* of the computation (a stuttered position beyond the
last concrete state, the exhaustion of an infinite suffix enumeration, a
backward event search, or the growing default quantification domain).
Tail-independent verdicts are frozen forever in a stable memo; tail-
dependent ones go to a volatile memo cleared by :meth:`PlanState.note_append`.
Resumable frontier aggregators for ``[] / <>`` on infinite contexts, and
the incrementally extended endpoint indexes, then make re-evaluation after
one appended state cost amortized O(changed work) instead of O(prefix).
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from typing import Any, Callable, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple, Union

from ..errors import EvaluationError, TraceError
from ..semantics.columns import IncrementalColumnStore
from ..semantics.construction import BOTTOM, Direction, Interval
from ..semantics.state import State
from ..semantics.trace import INFINITY, Trace
from ..syntax.terms import Cmp, Const, LogicalVar, OpAfter, OpAt, OpIn, Var
from .vector import BitsetKernel, TailKernel, changes_from_bits, search_changes
from .dag import (
    N_AND,
    N_ATOM,
    N_FALSE,
    N_IFF,
    N_IMPLIES,
    N_INTERVAL,
    N_NOT,
    N_OCCURS,
    N_OR,
    N_TRUE,
    T_BEGIN,
    T_END,
    T_EVENT,
    T_FORWARD,
)

__all__ = [
    "UNSET",
    "DEFAULT_FORALL_UNROLL_CAP",
    "GrowingPrefix",
    "EventIndex",
    "ValueColumn",
    "ComparisonIndex",
    "PlanStats",
    "PlanState",
]


Position = Union[int, float]

#: Sentinel marking an unbound logical-variable slot.
UNSET = object()

#: Default cap on explicit-domain ``Forall`` unrolling at lowering time:
#: a quantifier whose variables all carry explicit domains with at most
#: this many bindings in total (the cartesian product) lowers to a flat
#: specialized loop over precomputed binding tuples.
DEFAULT_FORALL_UNROLL_CAP = 8

_MISS = object()


class GrowingPrefix:
    """A stutter-extended state prefix held as columns only.

    Implements the position protocol of :class:`repro.semantics.trace.Trace`
    specialized to the paper's finite-computation convention
    (``loop_start == length``, period 1).  Each appended window — a
    :class:`~repro.semantics.columns.Window`, as the serve layer builds
    from wire rows without a ``State``, or a sequence of ``State`` s — is
    encoded once, column by column, into an
    :class:`~repro.semantics.columns.IncrementalColumnStore` (``__start__``
    marked there), and then dropped.  :meth:`state_at` and :meth:`states`
    answer with row views rebuilt from the columns and cached per position,
    as ``Trace`` does.
    """

    __slots__ = ("columns", "_rows")

    def __init__(self) -> None:
        #: The prefix's dictionary-encoded columns: the substrate the
        #: tail-window :class:`~repro.compile.vector.TailKernel` extends its
        #: truth profiles over.
        self.columns = IncrementalColumnStore()
        self._rows: Dict[int, State] = {}

    def append(self, state: State) -> None:
        self.extend((state,))

    def extend(self, states: Sequence[State]) -> None:
        """Append a window of states, encoded in one pass per column.

        A :class:`~repro.semantics.columns.Window` is taken as it is; a
        sequence of ``State`` s is converted in one pass, and an element
        that is not a ``State`` raises :class:`TraceError` before any of
        the window is encoded.
        """
        self.columns.absorb(states)

    # -- Trace position protocol --------------------------------------------

    @property
    def length(self) -> int:
        return self.columns.length

    @property
    def loop_start(self) -> int:
        return self.columns.length

    @property
    def period(self) -> int:
        return 1

    def states(self) -> Tuple[State, ...]:
        return tuple(self.state_at(pos) for pos in range(1, self.length + 1))

    def canonical(self, position: Position) -> int:
        if position == INFINITY:
            raise TraceError("cannot canonicalize the infinite position")
        pos = int(position)
        if pos < 1:
            raise TraceError(f"positions are 1-based, got {pos}")
        n = self.columns.length
        return pos if pos <= n else n

    def state_at(self, position: Position) -> State:
        index = self.canonical(position) - 1
        row = self._rows.get(index)
        if row is None:
            store = self.columns
            row = self._rows[index] = State(
                store.state_values(index), store.state_operations(index)
            )
        return row

    def suffix_representatives(self, start: Position, end: Position) -> List[int]:
        if start == INFINITY:
            raise TraceError("context cannot start at infinity")
        lo = int(start)
        if end != INFINITY:
            return list(range(lo, int(end) + 1))
        n = self.columns.length
        if lo >= n:
            return [lo]
        return list(range(lo, n + 1))

    def scan_bound(self, start: Position, end: Position) -> int:
        if end != INFINITY:
            return int(end)
        return max(int(start), self.columns.length) + 1

    def repeats_forever(self, position: Position) -> bool:
        if position == INFINITY:
            return True
        return int(position) >= self.columns.length

    def value_universe(self) -> Tuple[Any, ...]:
        return self.columns.value_universe()


class EventIndex:
    """Per-state truth profile and change positions of one state-formula event.

    ``profile[c]`` is the event formula's truth in concrete state ``c + 1``;
    ``stem`` holds the virtual positions ``k`` in ``[2, length]`` where the
    formula changes False→True between adjacent concrete states, and
    ``cycle`` the change positions in the first virtual copy of a lasso's
    repeating cycle (every later change beyond the concrete states is
    ``cycle[i] + t·period``).  Queries bisect instead of scanning.
    """

    __slots__ = ("_eval", "profile", "stem", "cycle", "built_to", "unusable")

    def __init__(self, state_eval: Callable[[State], bool]) -> None:
        self._eval = state_eval
        self.profile: List[bool] = []
        self.stem: List[int] = []
        self.cycle: List[int] = []
        self.built_to = 0
        self.unusable = False

    def _truth_range(self, trace, start: int, stop: int) -> List[bool]:
        """The event's truth in concrete states ``start..stop`` (1-based)."""
        return [bool(self._eval(trace.state_at(pos))) for pos in range(start, stop + 1)]

    def ensure(self, trace, growing: bool) -> bool:
        """Extend the profile to the trace's current length.

        Returns ``False`` (permanently) when profiling raised — the event
        formula errors on some state the lazy scan might never have
        visited, so the caller must fall back to the generic scan to keep
        error behaviour identical to the evaluator's.
        """
        if self.unusable:
            return False
        n = trace.length
        if self.built_to >= n:
            return True
        try:
            self.profile.extend(self._truth_range(trace, self.built_to + 1, n))
        except Exception:
            self.unusable = True
            return False
        if growing:
            # A stutter tail repeats the last state: no change positions
            # beyond the concrete states, and the stem extends in place.
            for pos in range(max(2, self.built_to + 1), n + 1):
                if self.profile[pos - 1] and not self.profile[pos - 2]:
                    self.stem.append(pos)
        else:
            self.stem, self.cycle = trace.change_positions(self.profile)
        self.built_to = n
        return True

    def first_change(self, start: int, bound: int, period: int) -> Optional[int]:
        """The least change position in ``[start, bound]``, or ``None``."""
        n = self.built_to
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
        n = self.built_to
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


class ValueColumn:
    """Per-position values of one state variable, shared by comparison atoms.

    Every ``x == c`` / ``x != c`` event over the same variable ``x`` derives
    its truth profile from one column of ``x``'s values, so a specification
    comparing ``x`` against many constants reads each state exactly once
    instead of once per constant.  The column extends incrementally with the
    trace, like the indexes built on top of it.
    """

    __slots__ = ("name", "values", "built_to")

    def __init__(self, name: str) -> None:
        self.name = name
        self.values: List[Any] = []
        self.built_to = 0

    def ensure(self, trace) -> None:
        """Extend the column to the trace's length (exceptions propagate:
        the owning index turns them into its permanent scan fallback).

        ``built_to`` advances one position at a time so a raising state
        leaves the column consistent for the other indexes sharing it.
        """
        n = trace.length
        name = self.name
        while self.built_to < n:
            value = trace.state_at(self.built_to + 1)[name]
            self.values.append(value)
            self.built_to += 1


class ComparisonIndex(EventIndex):
    """An endpoint index for ``x == c`` / ``x != c`` comparison atoms.

    Same bisectable stem/cycle change lists as :class:`EventIndex`, but the
    truth profile is derived from a shared :class:`ValueColumn` instead of
    re-evaluating the comparison predicate (state lookup, expression
    evaluation, operator dispatch) per state per constant.
    """

    __slots__ = ("_column", "_cmp_op", "_constant")

    def __init__(self, column: ValueColumn, cmp_op: str, constant: Any) -> None:
        super().__init__(state_eval=None)
        self._column = column
        self._cmp_op = cmp_op
        self._constant = constant

    def _truth_range(self, trace, start: int, stop: int) -> List[bool]:
        self._column.ensure(trace)
        values = self._column.values
        constant = self._constant
        if self._cmp_op == "==":
            return [bool(values[pos - 1] == constant) for pos in range(start, stop + 1)]
        return [bool(values[pos - 1] != constant) for pos in range(start, stop + 1)]


class PlanStats:
    """Work counters of one plan state (the monitor regression hooks).

    ``event_searches`` counts *actual* event searches — memo hits (stable
    or volatile) don't increment it, so a monitor whose appends only redo
    tail-dependent work shows a flat per-step search count.
    """

    __slots__ = ("dispatch_calls", "steps", "event_searches")

    def __init__(self) -> None:
        self.dispatch_calls = 0
        self.steps = 0
        self.event_searches = 0

    def as_dict(self) -> Dict[str, int]:
        return {
            "dispatch_calls": self.dispatch_calls,
            "steps": self.steps,
            "event_searches": self.event_searches,
        }


class PlanState:
    """One compiled plan bound to one computation.

    Parameters
    ----------
    plan:
        The compiled plan.
    trace:
        A :class:`repro.semantics.trace.Trace` (static mode) or a
        :class:`GrowingPrefix` (incremental mode).
    domain:
        Explicit ``Forall`` quantification domains; variables not mentioned
        quantify over the trace's observed value universe, exactly as in
        the evaluator.
    incremental:
        Enable tail-dependence tracking and frontier aggregators for
        monitoring a growing prefix.
    vectorize:
        Enable the vectorized binding mode: pure state formulas (and
        ``[] / <>`` directly over them) evaluate as columnwise bitset
        operations through the bitset kernel — a window-extended
        :class:`~repro.compile.vector.TailKernel` on an incremental
        :class:`GrowingPrefix`, its static subclass
        :class:`~repro.compile.vector.BitsetKernel` on a
        :class:`~repro.semantics.trace.Trace` — and state-formula events
        are searched through the profiles' change indexes.  Verdicts
        and error behaviour are identical either way — the kernel falls
        back per node whenever it cannot reproduce the per-position
        semantics bit-for-bit.
    forall_unroll_cap:
        ``Forall`` nodes whose variables all carry *explicit* domains with
        at most this many bindings in total unroll at lowering time into a
        flat specialized loop over the precomputed binding tuples (see
        :mod:`repro.compile.lower`); larger or default-universe domains
        keep the generic per-call quantifier path.  ``0`` disables
        unrolling.  Verdicts, short-circuit order and error behaviour are
        identical either way.
    """

    def __init__(
        self,
        plan,
        trace,
        domain: Optional[Mapping[str, Iterable[Any]]] = None,
        incremental: bool = False,
        vectorize: bool = True,
        forall_unroll_cap: Optional[int] = None,
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
        self._indexes: Dict[Any, EventIndex] = {}
        self._shared_indexes: Dict[Any, EventIndex] = {}
        self._columns: Dict[str, ValueColumn] = {}
        #: Event-search memo (static traces only): clauses of a multi-root
        #: plan that share an interval term — the mutex A1 family all
        #: searching the same ``x(i) <= cs(i)`` events — resolve each
        #: (event, context, direction) search once.
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
        if forall_unroll_cap is None:
            forall_unroll_cap = DEFAULT_FORALL_UNROLL_CAP
        self._forall_unroll_cap = max(0, int(forall_unroll_cap))
        self.stats = PlanStats()
        # The bitset kernels evaluate state formulas columnwise: whole-trace
        # profiles on a static Trace, window-extended profiles on a growing
        # prefix (the batched tail-window vectorization).
        self._kernel: Optional[Any] = None
        if vectorize:
            if not incremental and isinstance(trace, Trace):
                self._kernel = BitsetKernel(self, trace)
            elif incremental and isinstance(trace, GrowingPrefix):
                self._kernel = TailKernel(self, trace)
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
        """Distinct endpoint indexes built (aliased atoms share one)."""
        return len(self._shared_indexes)

    @property
    def vector_node_count(self) -> int:
        """Plan nodes bound to the vectorized (bitset) evaluation mode."""
        return len(self._vector_nids)

    def satisfies(self, env: Optional[Mapping[str, Any]] = None) -> bool:
        """``s |= α`` over the whole computation ``<1, ∞>``."""
        return self.holds(1, INFINITY, env)

    def holds(
        self, lo: Position, hi: Position, env: Optional[Mapping[str, Any]] = None
    ) -> bool:
        """``<lo, hi> |= α`` under ``env`` (names outside the plan ignored)."""
        return self.holds_node(self._plan.root, lo, hi, env)

    def holds_node(
        self,
        nid: int,
        lo: Position,
        hi: Position,
        env: Optional[Mapping[str, Any]] = None,
    ) -> bool:
        """``<lo, hi> |= node`` for any DAG node — multi-root plans evaluate
        each clause through its own root id over the shared memo tables."""
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
        """The witness interval of a top-level ``[I]α`` / ``*I`` root, if any."""
        node = self._nodes[self._plan.root]
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

    def note_append(self, count: int = 1) -> None:
        """Absorb ``count`` appended states: drop only tail-dependent verdicts.

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
        self._default_domain = None
        self.stats.steps += count

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
            # Vectorized nodes answer from cached bitset profiles: no
            # context normalization (canonical positions and coverage are
            # invariant under whole-period shifts; incremental closures
            # normalize themselves) and no memo table (the profile *is*
            # the memo).  Incremental closures own their tail-marking, so
            # the caller's stable/volatile split stays sound.
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

    def _holds_tracked(self, nid: int, lo: int, hi: Position) -> Tuple[bool, bool]:
        """Evaluate a child and report whether its verdict is tail-dependent."""
        self._tail.append(False)
        try:
            value = self._holds(nid, lo, hi)
        finally:
            tail = self._tail.pop()
            if tail:
                self._tail[-1] = True
        return value, tail

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
        other child advances one start at a time.
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
        spans = child in self._vector_nids and self._nodes[child].op in (
            N_INTERVAL, N_OCCURS,
        )
        first_tail: Optional[int] = None
        k = max(frontier + 1, lo)
        while k <= n:
            value, tail = self._holds_tracked(child, k, INFINITY)
            if value is want:
                return want
            if tail and first_tail is None:
                first_tail = k
            k = self._horizon + 1 if spans else k + 1
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

    def _holds_forall(self, node, lo: int, hi: Position) -> bool:
        names = node.var_names
        var_slots = node.var_slots
        slots = self._slots
        count = len(names)

        def recurse(index: int) -> bool:
            if index == count:
                return self._holds(node.a, lo, hi)
            slot = var_slots[index]
            saved = slots[slot]
            try:
                for value in self._domain_for(names[index]):
                    slots[slot] = value
                    if not recurse(index + 1):
                        return False
                return True
            finally:
                slots[slot] = saved

        return recurse(0)

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

    def _state_truth(self, nid: int, state: State, env: Mapping[str, Any]) -> bool:
        node = self._nodes[nid]
        op = node.op
        if op == N_ATOM:
            return node.predicate.holds(state, env)
        if op == N_TRUE:
            return True
        if op == N_FALSE:
            return False
        if op == N_NOT:
            return not self._state_truth(node.a, state, env)
        if op == N_AND:
            return self._state_junction(node, state, env, deciding=False)
        if op == N_OR:
            return self._state_junction(node, state, env, deciding=True)
        if op == N_IMPLIES:
            return (not self._state_truth(node.a, state, env)) or self._state_truth(
                node.b, state, env
            )
        if op == N_IFF:
            return self._state_truth(node.a, state, env) == self._state_truth(
                node.b, state, env
            )
        raise EvaluationError(f"not a state formula node: {node!r}")

    def _state_junction(
        self, node, state: State, env: Mapping[str, Any], deciding: bool
    ) -> bool:
        # Same deferred-error rule as _junction, on the state-level evaluator.
        error: Optional[Exception] = None
        for child in (node.a, node.b):
            try:
                if self._state_truth(child, state, env) is deciding:
                    return deciding
            except Exception as exc:
                if error is None:
                    error = exc
        if error is not None:
            raise error
        return not deciding

    def _comparison_parts(self, node) -> Optional[Tuple[str, str, Any]]:
        """``(variable, op, constant)`` for an indexable comparison atom.

        Recognizes ``x == c`` / ``x != c`` (either orientation) where one
        side is a state variable and the other a literal constant or a
        *bound* logical variable; anything else falls back to the generic
        event index.
        """
        if node.op != N_ATOM:
            return None
        predicate = node.predicate
        if not isinstance(predicate, Cmp) or predicate.op not in ("==", "!="):
            return None
        left, right = predicate.left, predicate.right
        if isinstance(left, Var):
            variable, other = left, right
        elif isinstance(right, Var):
            variable, other = right, left
        else:
            return None
        if isinstance(other, Const):
            return variable.name, predicate.op, other.value
        if isinstance(other, LogicalVar):
            slot = self._plan.slot_of.get(other.name)
            if slot is not None:
                value = self._slots[slot]
                if value is not UNSET:
                    return variable.name, predicate.op, value
        return None

    def _index_key(self, node, envkey: Tuple[Any, ...]) -> Tuple[Any, ...]:
        """The event-index cache key — *semantic* where cheaply possible.

        Distinct atom nodes that ground to the same predicate under the
        current bindings share one index: ``at Enq(?a)`` with ``a = v`` and
        ``at Enq(?b)`` with ``b = v`` profile identically, as do ``x == ?a``
        and ``x == ?b`` — the pattern of every quantified specification
        clause family.  Non-atom events fall back to structural identity
        (hash-consing already unifies those).
        """
        if node.op == N_ATOM:
            parts = self._comparison_parts(node)
            if parts is not None:
                return ("cmp",) + parts
            predicate = node.predicate
            if (
                isinstance(predicate, (OpAt, OpIn, OpAfter))
                and predicate.args
                and not any(arg.state_vars() for arg in predicate.args)
            ):
                env = self._env_view(node)
                try:
                    values = tuple(arg.evaluate({}, env) for arg in predicate.args)
                except Exception:
                    return (node.id, envkey)
                return ("op", predicate.PHASES, predicate.operation, values)
        return (node.id, envkey)

    def _kernel_index(self, event_nid: int, node) -> Optional[EventIndex]:
        """An endpoint index whose change positions come from the bitset
        kernel instead of a per-state truth scan: the stem is the profile's
        change index (:meth:`~repro.compile.vector.TailKernel.changes`), the
        lasso cycle one bit test per cycle position
        (:func:`~repro.compile.vector.changes_from_bits`).  ``None`` when
        the kernel is absent (``vectorize=False``) or declines the event
        formula.  Static traces only — on a growing prefix,
        kernel-supported events bisect the change index directly
        (:func:`~repro.compile.vector.search_changes`), with no index object
        at all."""
        kernel = self._kernel
        if kernel is None or self._incremental or not kernel.supports(event_nid):
            return None
        bits = kernel.profile(node)
        if bits is None:
            return None
        index = EventIndex(state_eval=None)
        index.stem = kernel.changes(node)
        index.cycle = changes_from_bits(bits, self._trace)
        # Fully built for the static trace: ensure() is a no-op from here.
        index.built_to = self._trace.length
        return index

    def _index_for(self, event_nid: int, node) -> Optional[EventIndex]:
        # Fast path: structural (node, bindings) key, hit on every search
        # after the first.  On a miss the semantic key decides whether an
        # equivalent index already exists before building a new one.
        try:
            envkey = tuple(self._slots[s] for s in node.free_slots)
            fast_key = (event_nid, envkey)
            index = self._indexes.get(fast_key)
        except TypeError:
            return None
        if index is None:
            try:
                shared_key = self._index_key(node, envkey)
                index = self._shared_indexes.get(shared_key)
            except TypeError:
                return None
            if index is None:
                index = self._kernel_index(event_nid, node)
            if index is None:
                parts = self._comparison_parts(node)
                if parts is not None:
                    variable, cmp_op, constant = parts
                    column = self._columns.get(variable)
                    if column is None:
                        column = ValueColumn(variable)
                        self._columns[variable] = column
                    index = ComparisonIndex(column, cmp_op, constant)
                else:
                    env = self._env_view(node)
                    index = EventIndex(
                        lambda state: self._state_truth(event_nid, state, env)
                    )
            self._shared_indexes[shared_key] = index
            self._indexes[fast_key] = index
        if not index.ensure(self._trace, self._incremental):
            return None
        return index

    def _find_event(
        self, event_nid: int, context: Optional[Interval], direction: str
    ):
        """The changeset search of Chapter 3 (first/last False→True event).

        On a static trace the search result is a pure function of the event
        node, its free-slot bindings, the context and the direction, so it
        memoizes — sharing searches across the clauses of a multi-root plan
        and across repeated constructions of a shared interval term.

        On a growing prefix the memo splits by tail-dependence: a search
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
        if self._incremental and node.is_state:
            kernel = self._kernel
            if kernel is not None and kernel.supports(event_nid):
                index = kernel.changes(node)
                if index is not None:
                    # Growing prefix, vectorizable event: bisecting the
                    # change index is cheaper than this memo's key build,
                    # so answer directly (tail-marking happens inside,
                    # straight onto the caller's frame).  A dead profile
                    # falls through to the memoized exact search.
                    self.stats.event_searches += 1
                    return search_changes(
                        index, self._trace.length, i, j,
                        direction == Direction.FORWARD, self._mark_tail,
                    )[0]
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
        if node.is_state:
            # Growing-prefix vectorizable events answered directly in
            # :meth:`_find_event` (the change-index bisection); reaching
            # here means a static trace, an unsupported shape, or a dead
            # profile — the index/scan paths decide.
            index = self._index_for(event_nid, node)
            if index is not None:
                return self._find_event_indexed(index, i, j, bound, direction)
        return self._find_event_scan(event_nid, i, j, bound, direction)

    def _find_event_indexed(
        self, index: EventIndex, i: int, j: Position, bound: int, direction: str
    ):
        trace = self._trace
        n = trace.length
        period = trace.period
        if direction == Direction.FORWARD:
            k = index.first_change(i + 1, bound, period)
            if k is None:
                if bound > n:
                    self._mark_tail()  # no event yet; one may still appear
                return BOTTOM
            if k > n:
                self._mark_tail()
            return Interval(k - 1, k)
        if j == INFINITY:
            # The maximum of the changeset can move (or become ⊥) as the
            # computation grows, so backward results over infinite contexts
            # are never frozen.
            self._mark_tail()
            threshold = trace.loop_start + 1
            if bound >= threshold and index.first_change(
                max(i + 1, threshold), bound, period
            ) is not None:
                # An event whose change pair lies in the repeating cycle
                # recurs infinitely often: the changeset max is ⊥.
                return BOTTOM
            k = index.last_change(i + 1, min(bound, threshold - 1), period)
        else:
            if bound > n:
                self._mark_tail()
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
