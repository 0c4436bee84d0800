"""The bitset kernel: columnwise evaluation of state formulas.

A *state formula* (``PlanNode.is_state``) depends only on the first state
of its context, so its full semantic content is one truth bit per concrete
position — a **profile**.  :class:`TailKernel` keeps one packed-int profile
per ``(node, bindings)`` over the concrete positions seen so far, and
extends a profile over the positions added since it was last read.  It is
bound to an incremental plan state, whose trace is a prefix read under the
paper's finite-computation convention (the last state repeats forever): a
monitor's growing prefix, extended once per (batched) append, or a
stutter-terminated trace checked one-shot, which is a prefix that has
stopped growing and is extended exactly once.  Profiles read the trace's
dictionary-encoded columns (:mod:`repro.semantics.columns`):

* boolean variables, comparison atoms (all six operators, against a
  constant or a bound logical variable), operation predicates with
  state-independent arguments, and the ``start`` predicate each read one
  column and answer per *distinct value*, not per state — the OR of the
  passing codes' position bitsets (``Column.code_bits``);
* ``¬ / ∧ / ∨ / ⊃ / ≡`` combine child profiles with single big-int ops;
* a profile that serves as an event keeps a **change index**: its
  False→True change positions, ascending, in a compact ``array``
  (:meth:`TailKernel.changes`).  It is allocated on the profile's first
  event search and then extended over each appended window only, so an
  event search is a bisection (:func:`search_changes`), not a shift of a
  whole-prefix int.

A lasso whose cycle is longer than one state has no kernel: it runs the
static per-position mode (:mod:`repro.compile.runtime`).

Exactness is non-negotiable: the kernel never guesses.  Any situation whose
error or semantics it cannot reproduce bit-for-bit — a variable missing in
some state (the per-position path raises there *lazily*), an unbound
logical variable, an unhashable binding, a comparison between incomparable
values, a column past the per-code bitset cap — makes
:meth:`TailKernel.profile` return ``None`` and the caller falls back to the
per-position memo path, which preserves the evaluator's (deferred-)error
behaviour exactly.  Such a profile is dead for good; on a growing prefix
its earlier answers stay valid, because they were bit-for-bit the
per-position verdicts of the shorter prefix.
"""

from __future__ import annotations

import operator
from array import array
from bisect import bisect_right
from typing import Any, Callable, Dict, List, Optional, Tuple

from ..semantics.construction import BOTTOM, Interval
from ..semantics.trace import INFINITY
from ..syntax.terms import (
    Cmp,
    Const,
    FalsePredicate,
    LogicalVar,
    OpAfter,
    OpAt,
    OpIn,
    Prop,
    StartPredicate,
    TruePredicate,
    Var,
)
from .dag import (
    N_AND,
    N_ATOM,
    N_FALSE,
    N_IFF,
    N_IMPLIES,
    N_NOT,
    N_OR,
    N_TRUE,
    STATE_NODE_OPS,
)

__all__ = [
    "TailKernel",
    "bit_positions",
    "search_changes",
]


_CMP_FUNCS: Dict[str, Callable[[Any, Any], Any]] = {
    "==": operator.eq,
    "!=": operator.ne,
    "<": operator.lt,
    "<=": operator.le,
    ">": operator.gt,
    ">=": operator.ge,
}

#: bit offsets of the set bits of each byte value, for sparse extraction.
_BYTE_BITS: Tuple[Tuple[int, ...], ...] = tuple(
    tuple(b for b in range(8) if byte & (1 << b)) for byte in range(256)
)


class _Fallback(Exception):
    """Internal: this node cannot be vectorized faithfully — use the
    per-position path."""


def bit_positions(bits: int) -> List[int]:
    """0-based indices of the set bits, ascending (sparse-friendly)."""
    out: List[int] = []
    if bits <= 0:
        return out
    data = bits.to_bytes((bits.bit_length() + 7) >> 3, "little")
    for i, byte in enumerate(data):
        if byte:
            base = i << 3
            for offset in _BYTE_BITS[byte]:
                out.append(base + offset)
    return out


def search_changes(changes, n: int, i: int, j, forward: bool, mark_tail):
    """The changeset search of Chapter 3 over a growing prefix.

    ``changes`` is an event formula's change index over the concrete
    positions ``1..n`` (:meth:`TailKernel.changes`).  Returns ``(found,
    horizon)``.  ``found`` is ``Interval(k - 1, k)`` for the first
    (``forward``) or last change ``k`` in ``(i, bound]``, else ``BOTTOM``;
    ``bound`` is ``j``, or one past ``max(i, n)`` for an infinite context.
    The stutter tail repeats the last state, so no change exists past
    ``n`` (in particular the backward search's recurs-forever ⊥ cannot
    arise).  ``mark_tail()`` runs when the answer may still change as the
    prefix grows: a forward search that found nothing with its bound past
    ``n``, and every backward search over an infinite context or past
    ``n``.

    ``horizon`` is the last context start from which the same search (same
    ``j``) gives the same answer and the same tail marking: ``k - 1`` when
    it found ``k`` (any earlier start still has ``k`` as its first or last
    change), unbounded when it found nothing (a later start sees a subset
    of the same empty range).
    """
    if j == INFINITY:
        bound = (i if i > n else n) + 1
    else:
        bound = j
    if forward:
        after = bisect_right(changes, i)
        if after < len(changes):
            k = changes[after]
            if k <= bound:
                return Interval(k - 1, k), k - 1
        if bound > n:
            mark_tail()  # no event yet; one may still appear
        return BOTTOM, INFINITY
    if j == INFINITY or bound > n:
        # The changeset max can move (or appear) as the prefix grows.
        mark_tail()
    last = bisect_right(changes, bound) - 1
    if last >= 0:
        k = changes[last]
        if k > i:
            return Interval(k - 1, k), k - 1
    return BOTTOM, INFINITY


def _atom_supported(predicate) -> bool:
    # Exact types only: a Prop/Cmp *subclass* may override ``holds``
    # with semantics the column read would silently disagree with.
    kind = type(predicate)
    if kind in (Prop, TruePredicate, FalsePredicate, StartPredicate):
        return True
    if kind is Cmp:
        left, right = predicate.left, predicate.right
        if type(left) is Var and type(right) in (Const, LogicalVar):
            return True
        if type(right) is Var and type(left) in (Const, LogicalVar):
            return True
        return False
    if kind in (OpAt, OpIn, OpAfter):
        return not any(arg.state_vars() for arg in predicate.args)
    return False


def _record_test(phases, arg_values) -> Callable[[Any], bool]:
    """Operation-record match with the elementwise ``!=`` convention of
    :func:`repro.syntax.terms._args_match`."""

    def test(record) -> bool:
        if record.phase not in phases:
            return False
        actual = record.args
        if len(arg_values) != len(actual):
            return False
        return not any(
            expected != value for expected, value in zip(arg_values, actual)
        )

    return test


class _Profile:
    """One (node, bindings) profile of a :class:`TailKernel`.

    ``bits`` covers concrete positions ``1..built_to``; ``passes`` caches
    the atom test's verdict per dictionary code (the test runs once per
    *distinct value*, across every extension).  ``dead`` is the permanent
    exact-fallback flag.  ``changes`` is the change index over positions
    ``1..changes_to``, ``None`` until the profile's first event search.
    """

    __slots__ = ("bits", "built_to", "dead", "passes", "changes", "changes_to")

    def __init__(self) -> None:
        self.bits = 0
        self.built_to = 0
        self.dead = False
        self.passes: Dict[int, bool] = {}
        self.changes: Optional[array] = None
        self.changes_to = 0


class _CallTrack:
    """Codes of one operation column grouped by ``record.args``.

    Built once per (operation, phase set) as the column's value dictionary
    grows; ``dead`` marks an unhashable argument tuple, after which every
    query falls back to the per-code test sweep.
    """

    __slots__ = ("by_args", "built", "dead")

    def __init__(self) -> None:
        self.by_args: Dict[Any, List[int]] = {}
        self.built = 0
        self.dead = False


class TailKernel:
    """Bitset evaluation of one plan state's state-formula nodes.

    Bound to the plan state's trace — a
    :class:`~repro.compile.runtime.GrowingPrefix`, or a stutter-terminated
    :class:`~repro.semantics.trace.Trace` read as a finished prefix — it
    keeps one packed truth profile
    per ``(node, bindings)`` over the *concrete states observed so far* and
    extends each touched profile in one pass over the positions
    ``[built_to, length)`` — atoms through the trace's dictionary-encoded
    columns (the test runs once per distinct value, cached across
    extensions), connectives by recombining child bits.  A multi-state
    append is thus absorbed as one vectorized window pass instead of N
    per-position re-evaluations.  A profile searched as an event also
    keeps its change index (:meth:`changes`), extended the same way.

    A column that becomes unusable mid-stream (a variable missing from
    some appended state, a comparison raising on a fresh value, the column
    crossing the bitset cap) kills the profile *permanently* and the
    per-position path takes over.  Profiles never look past the concrete
    states; on a growing prefix the tail positions (and the tail-marking
    that keeps the stable/volatile memo split sound) are the caller's
    responsibility (:mod:`repro.compile.lower`).
    """

    __slots__ = ("_state", "_trace", "_entries", "_supported", "_calls")

    def __init__(self, plan_state, trace) -> None:
        self._state = plan_state
        self._trace = trace
        self._entries: Dict[Any, _Profile] = {}
        self._calls: Dict[Any, _CallTrack] = {}
        # The support verdicts depend only on the plan's node shapes, so
        # every kernel bound to the same plan (each stream of a serve
        # fleet, each trace of a campaign) shares one table and the shape
        # walk runs once per plan.
        plan = plan_state._plan
        supported = getattr(plan, "_vector_supported", None)
        if supported is None:
            supported = {}
            try:
                plan._vector_supported = supported
            except Exception:  # pragma: no cover - exotic plan objects
                pass
        self._supported: Dict[int, bool] = supported

    @property
    def change_index_count(self) -> int:
        """Change indexes built so far: one per profile searched as an event."""
        return sum(1 for entry in self._entries.values() if entry.changes is not None)

    # -- static shape check ---------------------------------------------------

    def supports(self, nid: int) -> bool:
        """Whether the node's *shape* is vectorizable (bindings checked later)."""
        cached = self._supported.get(nid)
        if cached is not None:
            return cached
        node = self._state._nodes[nid]
        op = node.op
        if op not in STATE_NODE_OPS:
            ok = False
        elif op in (N_TRUE, N_FALSE):
            ok = True
        elif op == N_NOT:
            ok = self.supports(node.a)
        elif op == N_ATOM:
            ok = _atom_supported(node.predicate)
        else:  # and / or / implies / iff
            ok = self.supports(node.a) and self.supports(node.b)
        self._supported[nid] = ok
        return ok

    # -- profiles -------------------------------------------------------------

    def _key(self, node) -> Any:
        """Profile key: the bare node id for slot-free nodes (every
        propositional atom and connective over them), else the id plus the
        free-slot bindings.  May be unhashable."""
        free = node.free_slots
        if not free:
            return node.id
        slots = self._state._slots
        return (node.id,) + tuple(slots[s] for s in free)

    def profile(self, node) -> Optional[int]:
        """Truth bits over concrete positions ``1..length`` under the current
        slot bindings, extended to the trace's length; ``None`` when the
        per-position path must decide instead."""
        key = self._key(node)
        try:
            entry = self._entries.get(key)
        except TypeError:
            # An unhashable binding cannot key a profile; the per-position
            # path (which needs no cache) decides.
            return None
        if entry is None:
            entry = self._entries[key] = _Profile()
        if entry.dead:
            return None
        n = self._trace.length
        if entry.built_to < n:
            try:
                self._extend(node, entry, n)
            except Exception:
                entry.dead = True
                return None
        return entry.bits

    def changes(self, node) -> Optional[array]:
        """The node's change index, extended to the trace's length, or
        ``None`` when the per-position path must decide instead.

        The index lists, ascending, the positions ``k`` in ``[2, length]``
        where the node is false at ``k - 1`` and true at ``k`` — the node's
        changeset as an event.  It is allocated on the profile's first
        event search and afterwards extended over the positions appended
        since, one shift of that window each time.  The profile is read
        through :meth:`profile` only when it needs extending.
        """
        key = self._key(node)
        try:
            entry = self._entries.get(key)
        except TypeError:
            return None  # unhashable binding: the per-position path decides
        if entry is None or entry.built_to < self._trace.length or entry.dead:
            if self.profile(node) is None:
                return None
            entry = self._entries[key]
        index = entry.changes
        if index is None:
            index = entry.changes = array("l")
        built, n = entry.changes_to, entry.built_to
        if built < n:
            # Bit t of `window` is position built + t; a first build reads
            # position 0 as true, so that position 1 is never a change.
            bits = entry.bits
            window = bits >> (built - 1) if built else bits << 1 | 1
            rises = (window & ~(window << 1)) >> 1
            if rises:
                index.extend([built + 1 + t for t in bit_positions(rises)])
            entry.changes_to = n
        return index

    def holds_at(self, node, pos: int) -> Optional[bool]:
        """The node's truth at virtual position ``pos`` (None → fall back).

        Positions past the last concrete state read the stuttered final
        state, exactly like ``GrowingPrefix.canonical``; the *caller* is
        responsible for tail-marking those reads.
        """
        bits = self.profile(node)
        if bits is None:
            return None
        c = self._trace.canonical(pos) - 1
        return bool((bits >> c) & 1)

    # -- extension ------------------------------------------------------------

    def _child(self, nid: int) -> int:
        bits = self.profile(self._state._nodes[nid])
        if bits is None:
            raise _Fallback(nid)
        return bits

    def _extend(self, node, entry: _Profile, n: int) -> None:
        op = node.op
        if op == N_ATOM:
            entry.bits = self._atom_bits(node, entry, n)
        elif op == N_TRUE:
            entry.bits = (1 << n) - 1
        elif op == N_FALSE:
            entry.bits = 0
        elif op == N_NOT:
            entry.bits = ~self._child(node.a) & ((1 << n) - 1)
        else:
            a = self._child(node.a)
            b = self._child(node.b)
            mask = (1 << n) - 1
            if op == N_AND:
                entry.bits = a & b
            elif op == N_OR:
                entry.bits = a | b
            elif op == N_IMPLIES:
                entry.bits = (~a | b) & mask
            elif op == N_IFF:
                entry.bits = ~(a ^ b) & mask
            else:
                raise _Fallback(node.id)
        entry.built_to = n

    def _resolve(self, expr) -> Any:
        """A ``Const`` / *bound* ``LogicalVar`` value (else fall back: the
        per-position path raises its unbound-variable error lazily)."""
        if isinstance(expr, Const):
            return expr.value
        from .runtime import UNSET  # late: vector loads during runtime's import

        slot = self._state._plan.slot_of.get(expr.name)
        if slot is not None:
            value = self._state._slots[slot]
            if value is not UNSET:
                return value
        raise _Fallback(expr)

    def _atom_bits(self, node, entry: _Profile, n: int) -> int:
        """Bits for positions ``1..n`` (bit 0 = position 1)."""
        predicate = node.predicate
        if isinstance(predicate, TruePredicate):
            return (1 << n) - 1
        if isinstance(predicate, FalsePredicate):
            return 0
        store = self._trace.columns
        if isinstance(predicate, StartPredicate):
            # Missing ``__start__`` is False, not an error — no presence
            # requirement; positions outside the column contribute 0.
            column = store.column("__start__")
            return self._value_bits(column, entry, n, bool)
        if isinstance(predicate, Prop):
            column = store.column(predicate.name)
            if column is None or column.missing:
                # The per-position path raises UnknownStateVariableError at
                # the position it touches; only it can do that lazily.
                raise _Fallback(predicate.name)
            return self._value_bits(column, entry, n, bool)
        if isinstance(predicate, Cmp):
            left, right = predicate.left, predicate.right
            if isinstance(left, Var) and isinstance(right, (Const, LogicalVar)):
                name, constant, flipped = left.name, self._resolve(right), False
            elif isinstance(right, Var) and isinstance(left, (Const, LogicalVar)):
                name, constant, flipped = right.name, self._resolve(left), True
            else:
                raise _Fallback(predicate)
            column = store.column(name)
            if column is None or column.missing:
                raise _Fallback(name)
            compare = _CMP_FUNCS[predicate.op]
            if flipped:
                test = lambda value: bool(compare(constant, value))
            else:
                test = lambda value: bool(compare(value, constant))
            # A TypeError inside `compare` kills the profile: the
            # per-position path raises at the position it touches.
            return self._value_bits(column, entry, n, test)
        if isinstance(predicate, (OpAt, OpIn, OpAfter)):
            env = self._state._env_view(node)
            # Arguments are state-independent (checked by supports); an
            # evaluation error falls back to surface per position.
            arg_values = tuple(arg.evaluate({}, env) for arg in predicate.args)
            column = store.op_column(predicate.operation)
            # No column = the operation is idle in every state so far (on a
            # growing prefix it may first be recorded later; the column then
            # arrives ABSENT-padded).  ABSENT = idle = False, so absent
            # positions simply stay unset.
            phases = predicate.PHASES
            if predicate.args:
                bits = self._args_bits(predicate.operation, phases, arg_values, column, n)
                if bits is not None:
                    return bits
                # Unhashable somewhere: the per-code test sweep.
                test = _record_test(phases, arg_values)
            else:
                test = lambda record: record.phase in phases
            return self._value_bits(column, entry, n, test)
        raise _Fallback(predicate)

    def _args_bits(self, operation, phases, arg_values, column, n):
        """Positions whose record matches ``(phases, arg_values)`` via an
        args-indexed call track, or ``None`` to fall back to the test sweep.

        The track groups the column's codes by ``record.args`` once per
        (operation, phase set) — each quantifier binding's profile is then
        one dict lookup plus an OR over the (usually single) matching
        code's bitset, instead of testing every distinct record per
        binding.  Requires hashable argument tuples on both sides (the
        dict's ``==`` equality coincides with the elementwise ``!=``
        convention for values with coherent equality); anything unhashable
        returns ``None`` and the caller runs the exact per-code sweep.
        """
        if column is None:
            return 0
        key = (operation, phases)
        ct = self._calls.get(key)
        if ct is None:
            ct = self._calls[key] = _CallTrack()
        values = column.values
        by_args = ct.by_args
        built = ct.built
        if built < len(values):
            try:
                while built < len(values):
                    record = values[built]
                    if record.phase in phases:
                        # Tuple equality covers the arity check too: a
                        # query tuple of different length never matches.
                        by_args.setdefault(record.args, []).append(built)
                    built += 1
            except TypeError:
                ct.dead = True
            ct.built = built
        if ct.dead:
            return None
        try:
            codes = by_args.get(arg_values)
        except TypeError:
            return None
        if not codes:
            return 0
        bitsets = _code_bits(column, n)
        out = 0
        for code in codes:
            out |= bitsets[code]
        return out

    def _value_bits(self, column, entry: _Profile, n: int, test) -> int:
        """OR of the column's per-code bitsets whose value passes ``test``.

        Each profile keeps its own per-code verdict cache, so an extension
        costs O(distinct codes), not O(window).  ``ABSENT`` positions are
        False (callers with a presence requirement, Prop/Cmp, bail on the
        column's ``missing`` flag before reaching here).
        """
        if column is None:
            return 0
        values = column.values
        passes = entry.passes
        out = 0
        for code, cbits in enumerate(_code_bits(column, n)):
            if not cbits:
                continue
            truth = passes.get(code)
            if truth is None:
                truth = passes[code] = bool(test(values[code]))
            if truth:
                out |= cbits
        return out


def _code_bits(column, n: int) -> List[int]:
    """The column's per-code bitsets over ``1..n``; past the cap, fall back."""
    bitsets = column.code_bits(n)
    if bitsets is None:
        raise _Fallback("cardinality cap")
    return bitsets


class BitsetKernel(TailKernel):
    """A name kept for the benchmark's tracing wrappers; never instantiated.

    A stutter-terminated trace binds :class:`TailKernel` as a finished
    prefix and a longer lasso runs the per-position path, so nothing
    constructs this class.  ``perfbench/tracing.py`` wraps
    ``BitsetKernel.profile`` by name; ROADMAP item 2(e) deletes this class
    together with that wrapper.  It is a subclass, not an alias, so the
    wrapper does not wrap ``TailKernel.profile`` a second time.
    """

    __slots__ = ()
