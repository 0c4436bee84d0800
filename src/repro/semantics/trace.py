"""Computation traces: finite or infinite state sequences.

Chapter 3 defines satisfaction over a finite or infinite computation state
sequence ``s``, with the convention "for a finite computation, we extend the
last state to form an infinite sequence".  We represent every trace as a
*lasso*: a finite list of states ``s_1 ... s_n`` together with a loop-back
index ``loop_start``; positions at or beyond ``n`` repeat the cyclic segment
``s_{loop_start} ... s_n`` forever.  The paper's finite-computation
convention is the special case ``loop_start = n`` (the last state repeats),
which is the default.  Genuinely infinite periodic behaviours use an earlier
``loop_start``.

Positions are 1-based virtual indices as in the paper (``s<1,∞>`` is the
whole computation); the trace maps any virtual position to a concrete state
and provides the position arithmetic the evaluator needs (canonical
positions, suffix representatives, scan bounds).
"""

from __future__ import annotations

import math
from typing import Any, Dict, Iterable, Iterator, List, Mapping, Optional, Sequence, Tuple, Union

from ..errors import TraceError
from .columns import ColumnStore
from .state import State

__all__ = ["INFINITY", "Trace", "make_trace", "boolean_trace"]


INFINITY = math.inf


class Trace:
    """A lasso-shaped computation trace.

    Parameters
    ----------
    states:
        The concrete states ``s_1 ... s_n`` (at least one required).
    loop_start:
        1-based index of the first state of the repeating cycle.  Defaults to
        ``n`` — i.e. the paper's "extend the last state" convention for
        finite computations.
    mark_start:
        When true (the default), the first state is augmented with the
        boolean state variable ``__start__`` so that the distinguished
        ``start`` predicate of the Init-clause interpretation holds exactly
        there.

    The native representation is **column-major**: a
    :class:`~repro.semantics.columns.ColumnStore` with one dictionary-
    encoded column per state variable (and per operation name), built in a
    single pass, with the ``__start__`` marking done columnwise.  The
    row-major ``State`` API — :meth:`states`, :meth:`state_at`, iteration —
    is a lazy view: source states are handed back untouched where possible
    and materialized (with ``__start__`` injected) only on first access, so
    constructing a trace copies no state.  A compiled check of a
    stutter-terminated trace reads it as a finished prefix — the
    monitors' incremental plan state over these columns — and builds no
    row at all unless a per-position fallback asks for one.  Pickling
    ships the columns, not the per-state dicts — the compact worker
    handoff ``check_many`` fan-out relies on.
    """

    __slots__ = ("_source", "_store", "_materialized", "_mark_start", "_loop_start", "_length")

    def __init__(
        self,
        states: Sequence[State],
        loop_start: Optional[int] = None,
        mark_start: bool = True,
    ) -> None:
        state_list = list(states)
        if not state_list:
            raise TraceError("a trace requires at least one state")
        for index, state in enumerate(state_list):
            if not isinstance(state, State):
                raise TraceError(
                    f"trace element {index} is not a State: {type(state).__name__}"
                )
        n = len(state_list)
        if loop_start is None:
            loop_start = n
        if not 1 <= loop_start <= n:
            raise TraceError(
                f"loop_start must be between 1 and {n}, got {loop_start}"
            )
        self._source: Optional[List[State]] = state_list
        self._store: Optional[ColumnStore] = None
        self._materialized: List[Optional[State]] = [None] * n
        self._mark_start = mark_start
        self._loop_start = loop_start
        self._length = n

    # -- the column-major representation --------------------------------------

    @property
    def columns(self) -> ColumnStore:
        """The trace's :class:`~repro.semantics.columns.ColumnStore` (lazy,
        built once)."""
        if self._store is None:
            self._store = ColumnStore(self._source or [], self._mark_start)
        return self._store

    def _materialize(self, index: int) -> State:
        """The row view of concrete state ``index`` (0-based), cached."""
        source = self._source
        if source is not None:
            state = source[index]
            if self._mark_start:
                if index == 0:
                    if state.raw_values.get("__start__") is not True:
                        values = dict(state.raw_values)
                        values["__start__"] = True
                        state = State(values, state.raw_operations)
                elif "__start__" not in state.raw_values:
                    values = dict(state.raw_values)
                    values["__start__"] = False
                    state = State(values, state.raw_operations)
        else:
            store = self.columns
            state = State(store.state_values(index), store.state_operations(index))
        self._materialized[index] = state
        return state

    # -- pickling --------------------------------------------------------------

    def __getstate__(self) -> dict:
        # Columns are the wire format: one codes array + interned value list
        # per variable instead of n per-state dicts.  The receiving side
        # rebuilds State rows lazily from the columns.
        return {
            "store": self.columns,
            "loop_start": self._loop_start,
            "length": self._length,
        }

    def __setstate__(self, payload: dict) -> None:
        self._source = None
        self._store = payload["store"]
        self._length = payload["length"]
        self._materialized = [None] * self._length
        self._mark_start = False  # marking already lives in the columns
        self._loop_start = payload["loop_start"]

    # -- basic structure ------------------------------------------------------

    @property
    def length(self) -> int:
        """Number of concrete states (the lasso's stem plus one cycle)."""
        return self._length

    @property
    def loop_start(self) -> int:
        """1-based index of the first state of the repeating cycle."""
        return self._loop_start

    @property
    def period(self) -> int:
        """Length of the repeating cycle."""
        return self._length - self._loop_start + 1

    @property
    def is_stutter_extended(self) -> bool:
        """True for the paper's finite-computation convention (period 1 on
        the last state): the shape compiled checks read as a finished
        prefix (:func:`repro.compile.runtime.reads_as_prefix`)."""
        return self._loop_start == self._length

    def states(self) -> Tuple[State, ...]:
        """The concrete states ``s_1 ... s_n`` (materializing the lazy view)."""
        materialized = self._materialized
        return tuple(
            state if state is not None else self._materialize(index)
            for index, state in enumerate(materialized)
        )

    def __len__(self) -> int:
        return self._length

    def __iter__(self) -> Iterator[State]:
        return iter(self.states())

    def __repr__(self) -> str:
        kind = "stutter" if self.is_stutter_extended else f"loop@{self._loop_start}"
        return f"Trace(length={self._length}, {kind})"

    # -- position arithmetic ---------------------------------------------------

    def canonical(self, position: Union[int, float]) -> int:
        """Map a virtual 1-based position to the concrete index that realizes it."""
        if position == INFINITY:
            raise TraceError("cannot canonicalize the infinite position")
        pos = int(position)
        if pos < 1:
            raise TraceError(f"positions are 1-based, got {pos}")
        if pos <= self._length:
            return pos
        offset = (pos - self._loop_start) % self.period
        return self._loop_start + offset

    def state_at(self, position: Union[int, float]) -> State:
        """The state at a virtual 1-based position (wrapping into the cycle)."""
        index = self.canonical(position) - 1
        state = self._materialized[index]
        if state is None:
            state = self._materialize(index)
        return state

    def positions(self) -> Iterable[int]:
        """The concrete 1-based positions ``1 .. n``."""
        return range(1, self._length + 1)

    def suffix_representatives(
        self, start: Union[int, float], end: Union[int, float]
    ) -> List[int]:
        """Positions sufficient to decide ``[]``/``<>`` over the context ``<start, end>``.

        For a finite context these are simply ``start .. end``.  For an
        infinite context the suffix structure is eventually periodic: suffixes
        anchored at positions that share a canonical cycle position are
        isomorphic, so one full cycle of representatives suffices.
        """
        if start == INFINITY:
            raise TraceError("context cannot start at infinity")
        lo = int(start)
        if end != INFINITY:
            return list(range(lo, int(end) + 1))
        if lo >= self._loop_start:
            return list(range(lo, lo + self.period))
        return list(range(lo, self._length + 1))

    def scan_bound(self, start: Union[int, float], end: Union[int, float]) -> int:
        """Largest virtual position worth scanning in the context ``<start, end>``.

        Event detection looks at pairs of adjacent positions; in an infinite
        context everything from ``loop_start`` on repeats with the cycle
        period, so scanning one extra cycle beyond both the concrete states
        and the context start covers every distinct adjacent pair (including
        the wrap-around pair).
        """
        if end != INFINITY:
            return int(end)
        return max(int(start), self._length) + self.period

    def repeats_forever(self, position: Union[int, float]) -> bool:
        """True if the virtual ``position`` lies in the repeating cycle region.

        An event whose change-pair lies entirely in this region recurs
        infinitely often in an infinite context.
        """
        if position == INFINITY:
            return True
        return int(position) > self._length or int(position) >= self._loop_start

    # -- endpoint-index hooks ----------------------------------------------------

    def change_positions(self, truth: Sequence[Any]) -> Tuple[List[int], List[int]]:
        """Change positions (False→True) of a per-state truth profile.

        ``truth[c]`` gives a predicate's value in concrete state ``c + 1``.
        Returns ``(stem, cycle)``: ``stem`` holds the virtual positions
        ``k`` in ``[2, length]`` whose adjacent pair ``<k-1, k>`` is a
        change; ``cycle`` the change positions in
        ``[length+1, length+period]`` — the first virtual copy of the
        repeating cycle — so that every change position beyond the concrete
        states is ``cycle[i] + t * period`` for some ``t >= 0``.  This is
        the hook behind the compiled engine's interval-endpoint index
        (:class:`repro.compile.runtime.EventIndex`), which bisects these
        lists instead of re-scanning the trace per event search.
        """
        if len(truth) != self._length:
            raise TraceError(
                f"profile has {len(truth)} entries but the trace has "
                f"{self._length} states"
            )
        values = [bool(v) for v in truth]
        stem = [
            k for k in range(2, self._length + 1)
            if values[k - 1] and not values[k - 2]
        ]
        cycle = [
            k
            for k in range(self._length + 1, self._length + self.period + 1)
            if values[self.canonical(k) - 1] and not values[self.canonical(k - 1) - 1]
        ]
        return stem, cycle

    # -- value universe ---------------------------------------------------------

    def value_universe(self) -> Tuple[Any, ...]:
        """Distinct non-boolean values observed anywhere in the trace.

        Used as the default quantification domain for ``Forall`` formulas when
        checking specification conformance of a trace (the values a queue was
        asked to carry, the sequence numbers a protocol used, ...).  The
        deduplication runs through the column store's set-backed pass
        (first-observation order preserved) instead of the quadratic
        ``value not in seen`` list scan this method started as.
        """
        return self.columns.value_universe()


def make_trace(
    assignments: Sequence[Mapping[str, Any]],
    loop_start: Optional[int] = None,
    operations: Optional[Sequence[Mapping[str, Any]]] = None,
) -> Trace:
    """Build a trace from plain dictionaries of state-variable values.

    ``operations``, when given, is a parallel sequence of mappings from
    operation name to ``(phase, args, results)`` tuples or dicts.
    """
    states: List[State] = []
    for index, values in enumerate(assignments):
        op_records = None
        if operations is not None:
            raw = operations[index]
            op_records = {}
            for name, spec in raw.items():
                if isinstance(spec, dict):
                    op_records[name] = spec
                else:
                    phase, args, results = (tuple(spec) + ("", (), ()))[:3]
                    op_records[name] = {
                        "phase": phase,
                        "args": tuple(args),
                        "results": tuple(results),
                    }
        states.append(State(dict(values), op_records))
    return Trace(states, loop_start=loop_start)


def boolean_trace(
    variables: Sequence[str],
    rows: Sequence[Sequence[int]],
    loop_start: Optional[int] = None,
) -> Trace:
    """Build a trace of boolean states from a truth table.

    ``rows[k][i]`` gives the value of ``variables[i]`` in state ``k+1``.  This
    is the most convenient constructor for unit tests mirroring the paper's
    timing diagrams.
    """
    if not rows:
        raise TraceError("boolean_trace requires at least one row")
    states = []
    for row in rows:
        if len(row) != len(variables):
            raise TraceError(
                f"row {row!r} does not match variables {list(variables)!r}"
            )
        states.append(State({name: bool(v) for name, v in zip(variables, row)}))
    return Trace(states, loop_start=loop_start)
