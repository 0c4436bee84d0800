"""Per-code column bitsets and the one bitset kernel, proven by parity.

One window encoder fills the columns of static traces and growing prefixes,
one builder (``Column.code_bits``) derives their bitsets, and one kernel
(``TailKernel``) evaluates state formulas over them — on a growing prefix,
and on a stutter-terminated trace checked as a finished prefix.  Three
properties pin them down:

* **window splits** — any split of a state sequence into append frames
  leaves a growing store with the same columns, codes and per-value bitsets
  as a static store built from the same states (missing values, unhashable
  values, booleans beside equal numbers and operations included), leaves a
  column-only prefix with the same rows and value universe as the static
  trace, and leaves a monitor fed those frames with the same verdicts,
  after every frame, as a one-shot check of the prefix so far;
* **the bitset cap** — a column past ``_MAX_BITSET_CODES`` /
  ``_MAX_BITSET_BYTES`` keeps no bitsets, whether it got there mid-stream
  or was built past it; the profiles over it go on per position, alive
  and bit-for-bit the per-position verdicts, and verdicts match the
  ``stepwise`` and ``trace`` engines;
* **fused constructions** — the kernel's position-passing interval
  closures give, for every term shape, at every context of a static or
  window-grown trace, the interval ``PlanState._construct`` builds (and
  the static per-position mode), with its tail marking, and every start
  up to the horizon they report builds that interval too.

A fourth property pins the encoder itself: **per-value interning** codes
every window, static or split, exactly as a cell-by-cell interner does —
codes, representatives (type and identity), the missing flag and the value
universe — over booleans beside equal numbers, NaNs, unhashable values and
values whose hash or ``==`` raises; and so do the windows coded by byte
translation (booleans, ints in 0–255 beside ``False`` / ``True`` and equal
floats, 255 beside 256, gaps, a column crossing 256 codes mid-stream),
whose widened codes read alike in either byte order, and operation
columns (args equal across ``1`` / ``1.0`` / ``True``, NaN and unhashable
args, idle cells).  Dispatch pins beside it: byte-coded windows reach no
other interner, hashable operation windows run no Python-level record
code and never the cell-by-cell interner, and a column of ints past 255
leaves the byte path after its first try.  A fifth pins the bitset builder:
**bit-plane splits** give the per-code bitsets a cell-by-cell builder
gives, at 1 to 1,024 codes (so over one and two byte planes), over
``ABSENT`` cells, at any extension points and in either byte order.

Beside them, seven cost checks on deterministic counters: a column build
interns each distinct value once, each appended frame is encoded once and
no rows are kept, serving wire rows builds no ``State`` at all, one-shot
checks encode a trace once and build no ``State`` either, a stream
repeating one segment, like a stream of atoms profiled per position, keeps
its dispatch calls per state flat as its history grows, and a stream whose
atoms are read row by row keeps only the rows read since its last append.
"""

import copy
import gc
import operator
import os
import pickle
import random
import sys
import tracemalloc
from array import array
from collections import Counter
from dataclasses import dataclass
from functools import partial

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.api import Session
from repro.checking.monitor import Monitor
from repro.compile import GrowingPrefix, PlanState, compile_formula
from repro.compile.lower import _compile_term_bits
from repro.core.specification import Specification
from repro.errors import TraceError
from repro.gen.loadgen import LOAD_FAMILIES, generate_stream_scripts
from repro.semantics import columns
from repro.semantics.columns import ABSENT, Column, ColumnStore, Window
from repro.semantics.construction import BOTTOM, Direction, Interval
from repro.semantics.state import OperationRecord, State
from repro.semantics.trace import INFINITY, Trace, make_trace
from repro.serve.protocol import rows_to_states
from repro.serve.streams import SPEC_FACTORIES, StreamRegistry
from repro.syntax.builder import (
    always, atom, backward, begin, end, eventually, event, forward, interval, land, lnot,
    lor, occurs, prop,
)
from repro.syntax.parser import parse_formula
from repro.syntax.terms import Prop

#: ``l`` holds unhashable values (lists); ``m`` mixes booleans with the
#: numbers equal to them.
VARIABLES = ("p", "x", "s", "l", "m")
OPERATIONS = ("Send", "Recv")

#: Every shape the fused term closures build an interval for, over
#: kernel events: comparisons, a boolean variable and an operation
#: predicate.
TERM_SHAPES = {
    "event": "(x >= 2)",
    "from": "(x >= 2) =>",
    "to": "=> p",
    "from-to": "(x == 1) => (at Send(0))",
    "back-from": "(s == 6) <=",
    "back-to": "<= (x == 0)",
    "back": "(x >= 1) <= p",
    "begin": "begin((x >= 2) => ~p)",
    "end": "end(p <= (s != 5))",
    "nested": "((x == 1) => (s == 6)) <= ~p",
    "context": "=>",
}

#: Clauses over every kernel path: propositional atoms, comparisons,
#: operation predicates with and without arguments, ``[] / <>`` over state
#: formulas, and interval terms built from state-formula events — among
#: them ``[] / <>`` over ``[I]α`` and ``*I`` for every shape in
#: ``TERM_SHAPES``, whose frontier skips the starts a construction's
#: horizon covers.
CLAUSES = {
    "always-cmp": "[] (x < 3 \\/ p)",
    "eventually": "<> (x == 2 /\\ ~p)",
    "response": "[] (at Send(1) -> <> after Send(1))",
    "idle": "[] (in Recv \\/ ~(s == 6))",
    "interval": "[(x == 1) => (x == 3)] <> p",
    "occurs": "*((at Send(0)) => (after Recv))",
    "backward": "[] [(x >= 1) <= (x == 0)] <> (s != 5)",
}
for _shape, _term in TERM_SHAPES.items():
    CLAUSES.update({
        f"always-{_shape}": f"[] [{_term}] <> p",
        f"eventually-{_shape}": f"<> [{_term}] [] (x < 3)",
        f"always-occurs-{_shape}": f"[] *({_term})",
        f"eventually-occurs-{_shape}": f"<> *({_term})",
    })

#: Atoms that read no single column — two state variables, an arithmetic
#: term, an operation argument that reads state — which the kernel
#: profiles one row per appended position: as ``[] / <>`` bodies and as
#: interval events.
ROW_ATOMS = {
    "two-vars": "x < m",
    "arithmetic": "x + 4 == s",
    "op-reads-state": "at Send(x)",
}
for _shape, _atom in ROW_ATOMS.items():
    CLAUSES.update({
        f"always-{_shape}": f"[] ({_atom} \\/ p)",
        f"eventually-{_shape}": f"<> ({_atom} /\\ ~p)",
        f"interval-{_shape}": f"[] [({_atom}) => p] <> ({_atom})",
        f"occurs-{_shape}": f"<> *(p => ({_atom}))",
    })


@dataclass(frozen=True)
class InvertedProp(Prop):
    """``p`` read inverted: a ``Prop`` subclass whose ``holds`` a column
    read of ``p`` would silently get wrong."""

    def holds(self, state, env):
        return not super().holds(state, env)


#: The subclass as a ``[] / <>`` body and as an interval event.
_inverted = atom(InvertedProp("p"))
SUBCLASS_CLAUSES = {
    "always-subclass": always(lor(_inverted, parse_formula("x < 2"))),
    "eventually-subclass": eventually(interval(
        forward(event(_inverted), event(parse_formula("x == 1"))),
        parse_formula("<> p"),
    )),
}

_records = st.builds(
    OperationRecord,
    phase=st.sampled_from(["at", "in", "after"]),
    args=st.tuples(st.integers(0, 2)),
)


@st.composite
def state_lists(draw, max_size):
    """States over ``VARIABLES`` (a few values dropped) and ``OPERATIONS``
    (each idle or in some phase)."""
    rows = draw(st.lists(
        st.fixed_dictionaries({
            "p": st.booleans(),
            "x": st.integers(0, 3),
            "s": st.sampled_from([5, 6, 7]),
            "l": st.lists(st.integers(0, 1), max_size=2),
            "m": st.sampled_from([True, 1, 1.0, False, 0, 2]),
        }),
        min_size=1, max_size=max_size,
    ))
    missing = st.tuples(st.integers(0, len(rows) - 1), st.sampled_from(VARIABLES))
    for index, name in draw(st.lists(missing, max_size=2)):
        rows[index].pop(name, None)
    operations = st.fixed_dictionaries(
        {}, optional={name: _records for name in OPERATIONS}
    )
    return [State(row, draw(operations)) for row in rows]


def frames_of(states, cuts):
    """Split ``states`` at the (deduplicated, in-range) cut points."""
    bounds = sorted({c for c in cuts if 0 < c < len(states)}) + [len(states)]
    start = 0
    for stop in bounds:
        yield states[start:stop]
        start = stop


def typed(value):
    """``value`` tagged so that ``True`` and ``1`` compare different while
    ``1`` and ``1.0`` stay equal — the columns' interning rule."""
    return (type(value) is bool, value)


def typed_row(mapping):
    return sorted((name, typed(value)) for name, value in mapping.items())


def scanned_universe(states):
    """The value universe by a plain scan of every state (the reference)."""
    universe = []
    for state in states:
        for value in state.observed_values():
            if not any(typed(value) == typed(seen) for seen in universe):
                universe.append(value)
    return universe


def assert_same_column(growing, static, rows, n):
    """Equal codes, values and bitsets, decoding to exactly ``rows``."""
    assert list(growing.codes) == list(static.codes)
    assert [typed(v) for v in growing.values] == [typed(v) for v in static.values]
    assert growing.missing == static.missing == any(r is columns._MISSING for r in rows)
    assert [
        typed(growing.values[code]) if code >= 0 else None for code in growing.codes
    ] == [None if r is columns._MISSING else typed(r) for r in rows]
    bits = growing.code_bits(n)
    assert bits == static.code_bits(n)
    for code, code_bits in enumerate(bits):
        assert code_bits == sum(1 << i for i, c in enumerate(growing.codes) if c == code)


class TestWindowSplits:
    @settings(max_examples=100, deadline=None)
    @given(state_lists(24), st.lists(st.integers(1, 23), max_size=6))
    def test_growing_code_bits_match_the_static_column(self, states, cuts):
        growing = ColumnStore()
        prefix = GrowingPrefix()
        for frame in frames_of(states, cuts):
            growing.absorb(frame)
            prefix.extend(frame)
            # Extend window by window, as the kernel does per append.
            for name in VARIABLES:
                column = growing.column(name)
                if column is not None:
                    column.code_bits(growing.length)
            for name in OPERATIONS:
                column = growing.op_column(name)
                if column is not None:
                    column.code_bits(growing.length)
        n = len(states)
        static = ColumnStore(states, mark_start=True)
        for name in VARIABLES + ("__start__",):
            if static.column(name) is None:
                assert growing.column(name) is None
                continue
            rows = [s.raw_values.get(name, columns._MISSING) for s in states]
            if name == "__start__":
                rows = [True] + [s.raw_values.get(name, False) for s in states[1:]]
            assert_same_column(growing.column(name), static.column(name), rows, n)
        for name in OPERATIONS:
            if static.op_column(name) is None:
                assert growing.op_column(name) is None
                continue
            rows = [s.raw_operations.get(name, columns._MISSING) for s in states]
            assert_same_column(growing.op_column(name), static.op_column(name), rows, n)
        # The column-only prefix: the static trace's rows, ``__start__``
        # included, and its value universe in the same order.
        trace = Trace(states)
        assert prefix.length == growing.length == n
        assert [typed_row(s.raw_values) for s in prefix.states()] == [
            typed_row(s.raw_values) for s in trace.states()
        ]
        assert [s.raw_operations for s in prefix.states()] == [
            s.raw_operations for s in trace.states()
        ]
        universe = [typed(v) for v in scanned_universe(states)]
        assert [typed(v) for v in prefix.value_universe()] == universe
        assert [typed(v) for v in growing.value_universe()] == universe
        assert [typed(v) for v in trace.value_universe()] == universe

    @settings(max_examples=80, deadline=None)
    @given(state_lists(16), st.lists(st.integers(1, 15), max_size=5))
    def test_monitor_frames_match_one_shot_check(self, states, cuts):
        # Verdicts are compared after every frame: starts left pending
        # across frames are where a wrong horizon would show.
        formulas = {name: parse_formula(text) for name, text in CLAUSES.items()}
        formulas.update(SUBCLASS_CLAUSES)
        monitor = Monitor(formulas, capture_errors=True)
        spec = Specification("window splits")
        for name, formula in formulas.items():
            spec.add_axiom(name, formula)
        session = Session()
        seen = 0
        for frame in frames_of(states, cuts):
            monitor.observe_batch(frame)
            seen += len(frame)
            observed = {
                name: (None if v.error else v.holds)
                for name, v in monitor.verdicts.items()
            }
            prefix = states[:seen]
            trace = make_trace([dict(s.raw_values) for s in prefix], operations=[
                {name: {"phase": r.phase, "args": r.args, "results": r.results}
                 for name, r in s.raw_operations.items()}
                for s in prefix
            ])
            reference = one_shot(session, spec, trace, compiled=False)
            # The reference evaluator decides every clause unless a value
            # is missing; it then raises where its operand order first
            # meets the missing variable, which the compiled runtime's
            # normalized order may short-circuit past (``x < 3 \/ p`` with
            # ``p`` true).  Where it decides, the monitor decides the same
            # way, and the monitor matches the compiled one-shot check
            # exactly, errors included.
            complete = all(len(s.raw_values) == len(VARIABLES) for s in prefix)
            for name, verdict in reference.items():
                assert verdict is not None or not complete, (name, seen)
                assert verdict is None or observed[name] is verdict, (name, seen)
            assert observed == one_shot(session, spec, trace, compiled=True), seen


#: Event formulas the fused constructions search: state formulas only.
_FUSED_EVENTS = (
    prop("p"), prop("q"), lnot(prop("p")), land(prop("p"), lnot(prop("q"))),
)


def _term_shapes(inner):
    """Every term shape over ``inner``: ``begin``, ``end`` and the six
    arrows with an argument omitted or not."""
    pairs = st.tuples(inner, inner)
    return st.one_of(
        inner.map(begin),
        inner.map(end),
        inner.map(lambda left: forward(left, None)),
        inner.map(lambda right: forward(None, right)),
        pairs.map(lambda both: forward(*both)),
        inner.map(lambda left: backward(left, None)),
        inner.map(lambda right: backward(None, right)),
        pairs.map(lambda both: backward(*both)),
    )


#: Interval terms of every shape, from events and the bare context ``=>``.
interval_terms = st.recursive(
    st.sampled_from((*_FUSED_EVENTS, None)).map(
        lambda formula: forward() if formula is None else event(formula)
    ),
    _term_shapes,
    max_leaves=4,
)


def _tail_framed(state, call):
    """``call()``'s result and whether it marked the plan state's tail."""
    state._tail.append(False)
    try:
        result = call()
    finally:
        tail = state._tail.pop()
    return result, tail


def _positions(found):
    return (None, None) if found is BOTTOM else (found.lo, found.hi)


def assert_fused_constructions_equal_f(state, static):
    """Every term of ``state``'s plan, compiled to a fused closure in both
    directions, gives at every context ``<i, j>`` (``j`` past the last
    state and infinite included) the positions of the ``Interval`` that
    ``PlanState._construct`` builds, ⊥ included, with the same tail
    marking, and so does the static per-position mode (``static``, over
    the same states read as a finished computation); every start up to the
    reported horizon constructs that interval with that marking.

    Returns the positions and tail marking per ``(term, direction, i, j)``.
    """
    n = state.trace.length
    results = {}
    for tid in range(len(state.plan.terms)):
        for direction in (Direction.FORWARD, Direction.BACKWARD):
            fused = _compile_term_bits(state, state._kernel, tid, direction)
            assert fused is not None, (tid, direction)

            def f(i, j):
                return _tail_framed(
                    state, lambda: state._construct(tid, Interval(i, j), direction)
                )

            for i in range(1, n + 1):
                for j in (*range(i, n + 2), INFINITY):
                    (lo, hi, horizon), tail = _tail_framed(state, lambda: fused(i, j))
                    found, found_tail = f(i, j)
                    where = (tid, direction, i, j)
                    assert (lo, hi) == _positions(found), where
                    assert tail == found_tail, where
                    assert _positions(
                        static._construct(tid, Interval(i, j), direction)
                    ) == (lo, hi), where
                    assert horizon >= i, where
                    for later in range(i + 1, int(min(horizon, n, j)) + 1):
                        assert f(later, j) == (found, found_tail), (where, later)
                    results[where] = ((lo, hi), tail)
    return results


class TestFusedConstruction:
    """The kernel's fused constructions compute the construction function F."""

    @settings(max_examples=100, deadline=None)
    @given(
        st.lists(st.fixed_dictionaries({"p": st.booleans(), "q": st.booleans()}),
                 min_size=1, max_size=9),
        interval_terms,
        st.lists(st.integers(1, 6), max_size=3),
    )
    def test_fused_construction_equals_f(self, rows, term, cuts):
        # Static, then grown window by window: there, a construction left
        # unmarked keeps its interval however the prefix grows.
        plan = compile_formula(occurs(term))
        states = [State(row) for row in rows]
        trace = Trace(states)
        assert_fused_constructions_equal_f(
            PlanState(plan, trace, incremental=True), PlanState(plan, trace),
        )
        prefix = GrowingPrefix()
        windows = list(frames_of(states, cuts))
        prefix.extend(windows[0])
        state = PlanState(plan, prefix, incremental=True)
        settled = {}
        for window in windows[1:] + [None]:
            results = assert_fused_constructions_equal_f(
                state, PlanState(plan, Trace(states[:prefix.length])),
            )
            for where, positions in settled.items():
                assert results[where][0] == positions, where
            settled.update(
                (where, positions) for where, (positions, tail) in results.items() if not tail
            )
            if window is not None:
                prefix.extend(window)
                state.note_append()


class _Incomparable(list):
    """A list whose ``==`` raises."""

    def __eq__(self, other):
        raise ValueError("incomparable")

    __hash__ = None


def test_a_value_whose_comparison_raises_gets_a_fresh_code():
    # ``q`` is read by no clause.  Its values compare by raising, which
    # counts as "different": each gets its own code, every column keeps
    # the prefix's length, and the error surfaces only from the value
    # universe that needed the comparison.
    states = [State({"x": i, "p": True, "q": _Incomparable([i])}) for i in range(3)]
    monitor = Monitor({
        "always": parse_formula("[] (x < 3 \\/ p)"),
        "eventually": parse_formula("<> p"),
    })
    monitor.observe_batch(states)
    assert {name: v.holds for name, v in monitor.verdicts.items()} == {
        "always": True, "eventually": True,
    }
    prefix = monitor.plan_state.trace
    store = prefix.columns
    assert store.length == prefix.length == 3
    assert [len(store.column(name)) for name in ("x", "p", "q", "__start__")] == [3] * 4
    assert list(store.column("q").codes) == [0, 1, 2]
    with pytest.raises(ValueError, match="incomparable"):
        prefix.value_universe()
    trace = Trace(states)
    assert trace.columns.length == 3
    with pytest.raises(ValueError, match="incomparable"):
        trace.value_universe()


def test_extend_rejects_a_window_before_encoding_any_of_it():
    prefix = GrowingPrefix()
    prefix.append(State({"p": True}))
    with pytest.raises(TraceError, match="trace element 3 is not a State: dict"):
        prefix.extend([State({"p": False}), State({"p": True}), {"p": False}])
    assert prefix.length == 1
    assert len(prefix.columns.column("p")) == 1


# -- per-value interning ---------------------------------------------------------


class _RaisingHash:
    """A value whose ``hash`` raises."""

    def __hash__(self):
        raise ValueError("unhashable by choice")


class _RaisingEq:
    """Values that all hash alike and whose ``==`` raises against anything
    but themselves."""

    def __hash__(self):
        return 7

    def __eq__(self, other):
        if other is self:
            return True
        raise ValueError("incomparable")


class CellByCellColumn:
    """The reference interner: one lookup pass through the column's table,
    then every cell it missed interned on its own, in cell order."""

    NEW = object()

    def __init__(self):
        self.codes, self.values, self.missing = [], [], False
        self.hashed = {columns._MISSING: columns.ABSENT}
        self.bools = {columns._MISSING: columns.ABSENT}
        self.unhashable = []

    def encode(self, values, new_at):
        kinds = set(map(type, values))
        if columns._Missing in kinds:
            self.missing = True
            kinds.discard(columns._Missing)
        codes = None
        if bool not in kinds or len(kinds) == 1:
            get = (self.bools if bool in kinds else self.hashed).get
            try:
                codes = [get(value, self.NEW) for value in values]
            except Exception:
                pass
        if codes is None:
            codes = [self.NEW] * len(values)
        for j, code in enumerate(codes):
            if code is self.NEW:
                codes[j], new = self.intern(values[j])
                if new:
                    new_at.add(j)
        self.codes += codes

    def intern(self, value):
        table = self.bools if type(value) is bool else self.hashed
        try:
            code = table.get(value)
        except Exception:
            table = None
            for known in self.unhashable:
                try:
                    if self.values[known] is value or self.values[known] == value:
                        return known, False
                except Exception:
                    continue
            code = None
        if code is not None:
            return code, False
        code = len(self.values)
        self.values.append(value)
        if table is None:
            self.unhashable.append(code)
        else:
            table[value] = code
        return code, True


def _twice(make):
    """Two equal objects that are not the same object."""
    return [make(), make()]


_NAN = float("nan")

#: Cell values, each a fixed object so that a representative's identity
#: can be checked: booleans beside the numbers equal to them, an int and
#: an equal float, two distinct NaNs and one repeated, equal strings,
#: tuples and big ints that are different objects, unhashable lists
#: (one whose ``==`` raises), values whose hash or ``==`` raises, and
#: ``_MISSING`` gaps.
INTERN_POOL = [
    True, 1, 1.0, False, 0, 0.0, 2, 2.0,
    _NAN, _NAN, float("nan"), float("nan"),
    *_twice(lambda: "".join(["a", "b"])), "c",
    *_twice(lambda: tuple([1, "a"])), (2,),
    *_twice(lambda: 10 ** 20),
    [0], [0], [1], _Incomparable([0]),
    _RaisingHash(), _RaisingEq(), _RaisingEq(),
    columns._MISSING, columns._MISSING,
]

#: The same pool without values that mix booleans with numbers or cannot
#: be interned by a lookup, so that windows of it take the per-value path.
PLAIN_POOL = [
    1, 1.0, 2, 2.0, _NAN, float("nan"), *_twice(lambda: "".join(["a", "b"])),
    *_twice(lambda: tuple([1, "a"])), *_twice(lambda: 10 ** 20), columns._MISSING,
]

#: Operation cells that hash and compare, each a fixed record: equal
#: records that are different objects, records whose args are equal across
#: ``1`` / ``1.0`` / ``True`` (and results across ``0`` / ``False``),
#: phases and results that tell records apart, args holding one NaN object
#: and a distinct NaN, and idle cells.
HASHABLE_RECORD_POOL = [
    *_twice(lambda: OperationRecord("at", (1,))),
    OperationRecord("at", (1.0,)), OperationRecord("at", (True,)),
    OperationRecord("in", (1,)), OperationRecord("at", (2, "a")), OperationRecord("at"),
    OperationRecord("after", (1,), (0,)), OperationRecord("after", (1,), (False,)),
    OperationRecord("after", (1,), (2,)),
    *_twice(lambda: OperationRecord("at", (_NAN,))), OperationRecord("at", (float("nan"),)),
    columns._MISSING,
]

#: The same records beside ones whose args cannot be hashed (lists, one
#: whose ``==`` raises) or whose hash or ``==`` raises.
RECORD_POOL = HASHABLE_RECORD_POOL + [
    *_twice(lambda: OperationRecord("at", ([0],))), OperationRecord("at", ([1],)),
    OperationRecord("in", (_Incomparable([0]),)),
    OperationRecord("at", (_RaisingHash(),)),
    *_twice(lambda: OperationRecord("at", (_RaisingEq(),))),
]


def _outcome(read):
    """``read()``'s values, typed, or the type and message it raised."""
    try:
        return [typed(v) for v in read()], None
    except Exception as exc:
        return None, (type(exc), str(exc))


@st.composite
def intern_windows(draw, pools=(INTERN_POOL, PLAIN_POOL)):
    """Cells of two columns from one of ``pools``, and cut points splitting
    them into windows."""
    pool = draw(st.sampled_from(pools))
    # Indexes, not the values: drawing a value would hash it.
    index = st.integers(0, len(pool) - 1)
    a = draw(st.lists(index, min_size=1, max_size=40))
    b = draw(st.lists(index, min_size=len(a), max_size=len(a)))
    cuts = draw(st.lists(st.integers(1, 39), max_size=6))
    return [pool[i] for i in a], [pool[i] for i in b], cuts


def assert_encodes_like_cell_by_cell(cells, cuts, operations=False):
    """Static and split builds of the columns ``cells`` (name → cell list,
    ``_MISSING`` where a state does not bind the name) give the codes,
    representatives (by identity), missing flags and value universe of a
    cell-by-cell interner fed the same windows.  The static store is one
    window; the growing one takes the windows ``cuts`` split off.  With
    ``operations`` the cells are operation records, in the windows'
    operation maps and the stores' operation columns."""
    names = list(cells)
    rows = [
        {name: value for name, value in zip(names, row) if value is not columns._MISSING}
        for row in zip(*cells.values())
    ]
    for static in (True, False):
        frames = [rows] if static else list(frames_of(rows, cuts))
        store = None if static else ColumnStore()
        reference = {name: CellByCellColumn() for name in cells}
        universe = columns._Universe()
        offset = 0
        for frame in frames:
            empty = [{}] * len(frame)
            window = Window(empty, frame) if operations else Window(frame, empty)
            if static:
                store = ColumnStore(window, mark_start=False)
            else:
                store.absorb(window)
            new_at = set()
            for name, column in reference.items():
                column.encode(cells[name][offset:offset + len(frame)], new_at)
            universe.observe(window, sorted(new_at))
            offset += len(frame)
        for name, expected in reference.items():
            column = (store.op_column if operations else store.column)(name)
            if not any(name in row for row in rows):
                assert column is None
                continue
            assert list(column.codes) == expected.codes, (static, name)
            assert column.missing == expected.missing
            assert len(column.values) == len(expected.values)
            for got, want in zip(column.values, expected.values):
                assert got is want, (name, got, want)
        assert _outcome(store.value_universe) == _outcome(universe.values)


_SMALL_INTS = st.sampled_from([0, 1, 2, 3, 4, 7, 200, 254, 255])

#: Window kinds around the byte-translation path: booleans; ints in 0–255
#: (``0`` and ``1`` among them, to meet ``False`` and ``True`` in another
#: window); 255 beside 256, which no byte holds; floats equal to those
#: ints; booleans mixed with ints; and ``_MISSING`` gaps.
BYTE_CELLS = {
    "bool": st.booleans(),
    "int": _SMALL_INTS,
    "edge": st.sampled_from([0, 255, 256]),
    "float": st.sampled_from([0.0, 1.0, 2.0, 255.0]),
    "mixed": st.one_of(st.booleans(), _SMALL_INTS),
    "gap": st.one_of(st.booleans(), _SMALL_INTS, st.just(columns._MISSING)),
}


@st.composite
def byte_windows(draw):
    """One column's cells as windows of one kind each, and the window
    bounds.  A ``wide`` window holds 240–256 distinct ints past 255, so
    that the new values of a later window cross 256 codes mid-stream."""
    cells, cuts = [], []
    for kind in draw(st.lists(st.sampled_from([*BYTE_CELLS, "wide"]), min_size=1, max_size=6)):
        if kind == "wide":
            cells += range(1000, 1000 + draw(st.integers(240, 256)))
        else:
            cells += draw(st.lists(BYTE_CELLS[kind], min_size=1, max_size=24))
        cuts.append(len(cells))
    return cells, cuts


class TestPerValueInterning:
    @settings(max_examples=200, deadline=None)
    @given(intern_windows())
    def test_encoder_matches_the_cell_by_cell_interner(self, drawn):
        a, b, cuts = drawn
        assert_encodes_like_cell_by_cell({"a": a, "b": b}, cuts)

    @settings(max_examples=200, deadline=None)
    @given(intern_windows((RECORD_POOL, HASHABLE_RECORD_POOL)))
    def test_operation_columns_match_the_cell_by_cell_interner(self, drawn):
        # Records hash and compare as the tuples they are; the reference
        # interns them cell by cell, the encoder a window at a time.
        a, b, cuts = drawn
        assert_encodes_like_cell_by_cell({"Send": a, "Recv": b}, cuts, operations=True)

    @settings(max_examples=200, deadline=None)
    @given(byte_windows())
    # Booleans after 0 and 1; ints after equal floats; one window mixing
    # booleans with ints; new small ints past 250 codes; small ints after a
    # known value that hashes like 7 and whose ``==`` raises.
    @example(([0, 1, True, False], [2, 4]))
    @example(([1.0, 2.0, 1, 2, 3], [2, 5]))
    @example(([True, 1, 0, False], [4]))
    @example(([*range(1000, 1250), *range(10)], [250, 260]))
    @example(([_RaisingEq(), 7, 8], [1]))
    # Small ints after a window holding an int past 255.
    @example(([300, 0, 1, 2, 300, 2, 5], [1, 4]))
    def test_byte_coded_windows_match_the_cell_by_cell_interner(self, drawn):
        # A window of booleans, or of ints in 0–255, is coded by byte
        # translation; its codes, representatives and universe stay those
        # of the cell-by-cell interner, static or split at its bounds.
        cells, cuts = drawn
        assert_encodes_like_cell_by_cell({"v": cells}, cuts)

    def test_boolean_and_small_int_windows_are_byte_coded(self, monkeypatch):
        # The exactness tests pass whichever path codes a window, so this
        # one pins the dispatch: booleans and ints in 0–255 that bring new
        # values, static or appended, reach neither of the other interners
        # while the column holds fewer than 256 codes.
        def unreachable(*args):
            raise AssertionError("not byte-coded")

        monkeypatch.setattr(columns._ColumnBase, "_intern_distinct", unreachable)
        monkeypatch.setattr(columns._ColumnBase, "_intern", unreachable)
        rows = [{"p": i % 3 == 0, "n": i % 40 * 6} for i in range(64)]
        expected = {}
        for name in ("p", "n"):
            first = {}
            expected[name] = [first.setdefault(row[name], len(first)) for row in rows]
        static = ColumnStore(Window(rows, [{}] * 64), mark_start=True)
        growing = ColumnStore()
        for start in range(0, 64, 16):
            growing.absorb(Window(rows[start:start + 16], [{}] * 16))
        for store in (static, growing):
            for name, codes in expected.items():
                assert list(store.column(name).codes) == codes, name
            assert list(store.column("__start__").codes) == [0] + [1] * 63

    def test_a_column_of_wide_ints_leaves_the_byte_path(self, monkeypatch):
        # A column that met an int outside 0–255 in a window that brought a
        # new value does not try byte translation again: later windows of
        # new values go straight to the distinct-value interner.
        tried = Counter()
        encode_bytes = columns._ColumnBase._encode_bytes

        def counted(column, *args):
            tried[column.name] += 1
            return encode_bytes(column, *args)

        monkeypatch.setattr(columns._ColumnBase, "_encode_bytes", counted)
        store = ColumnStore()
        for start in range(0, 64, 16):
            store.absorb(Window(
                [{"id": 1000 + i, "n": i % 40} for i in range(start, start + 16)], [{}] * 16
            ))
        store.absorb(Window([{"id": i, "n": 200 + i} for i in range(16)], [{}] * 16))
        assert tried == {"id": 1, "n": 4}
        assert list(store.column("id").codes) == list(range(80))

    def test_hashable_operation_windows_hash_their_records_in_c(self, monkeypatch):
        # The exactness tests pass whichever path codes a window, so this
        # one pins the dispatch: a record hashes and compares as the tuple
        # it is, in C, and windows of records whose args hash, with idle
        # cells, static or appended, new or known, run none of the
        # record's Python-level methods and never the cell-by-cell
        # interner.
        assert OperationRecord.__hash__ is tuple.__hash__
        assert OperationRecord.__eq__ is tuple.__eq__
        records = [OperationRecord(("at", "in", "after")[i % 3], (i % 5,), ()) for i in range(64)]
        operations = [{"Enq": record} if i % 4 else {} for i, record in enumerate(records)]
        firsts = {}
        for operation in operations:
            for record in operation.values():
                firsts.setdefault(record, record)
        codes = {record: code for code, record in enumerate(firsts)}
        expected = [codes[o["Enq"]] if o else ABSENT for o in operations]

        def unreachable(*args):
            raise AssertionError("a Python-level step per cell")

        monkeypatch.setattr(columns._ColumnBase, "_intern", unreachable)
        methods = {
            function.__code__ for function in vars(OperationRecord).values()
            if hasattr(function, "__code__")
        }
        called = Counter()

        def profile(frame, event, arg):
            if event == "call" and frame.f_code in methods:
                called[frame.f_code.co_name] += 1

        sys.setprofile(profile)
        try:
            static = ColumnStore(Window([{}] * 64, operations), mark_start=True)
            growing = ColumnStore()
            for start in range(0, 64, 16):
                growing.absorb(Window([{}] * 16, operations[start:start + 16]))
        finally:
            sys.setprofile(None)
        assert not called
        for store in (static, growing):
            column = store.op_column("Enq")
            assert list(column.codes) == expected
            assert len(column.values) == len(firsts) == 15
            assert all(map(operator.is_, column.values, firsts.values()))

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.integers(0, 255), max_size=80), st.sampled_from("hiq"))
    def test_widened_codes_read_either_byte_order(self, coded, typecode):
        # Each byte lands in its code's low byte at the offset the byte
        # order and item size give, so a window widened for the other
        # order, byte-swapped, reads as the native one — in 2-, 4- and
        # 8-byte items.
        other = "big" if sys.byteorder == "little" else "little"
        for byteorder in (sys.byteorder, other):
            codes = array(typecode)
            codes.frombytes(columns._widen(bytes(coded), codes.itemsize, byteorder))
            if byteorder != sys.byteorder:
                codes.byteswap()
            assert list(codes) == coded, (byteorder, codes.itemsize)


def per_cell_code_bits(codes, count, n, bits=None, built=0):
    """The reference bitset builder: one interpreted step per cell of
    ``codes[built:n]``, a ``bytearray`` per code, then one shift-or per
    code into ``bits`` (extended to ``count`` entries)."""
    bits = list(bits or [])
    bits.extend([0] * (count - len(bits)))
    width = (n - built + 7) >> 3
    buffers = [None] * count
    for j, code in enumerate(codes[built:n]):
        if code >= 0:
            buffer = buffers[code]
            if buffer is None:
                buffer = buffers[code] = bytearray(width)
            buffer[j >> 3] |= 1 << (j & 7)
    for code, buffer in enumerate(buffers):
        if buffer is not None:
            bits[code] |= int.from_bytes(buffer, "little") << built
    return bits


#: Code counts worth hitting: one code, one and two low-byte bits, both
#: sides of the second byte plane (past 256 codes) and of the 1,024-code
#: bitset cap.
CODE_COUNTS = (1, 2, 3, 12, 200, 255, 256, 257, 300, 1000, 1024, 1025)


@st.composite
def code_windows(draw, count):
    """One window of codes below ``count``: random, all ``ABSENT``, or one
    code (the column's last, so past 255 where the column is) repeated."""
    size = draw(st.integers(0, 80))
    kind = draw(st.sampled_from(("random", "random", "absent", "one")))
    if kind == "absent":
        return [ABSENT] * size
    if kind == "one":
        return [count - 1] * size
    cell = st.one_of(
        st.just(ABSENT), st.integers(0, count - 1), st.integers(max(0, count - 8), count - 1)
    )
    return draw(st.lists(cell, min_size=size, max_size=size))


class TestBitPlaneSplit:
    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_code_bits_match_the_per_cell_builder(self, data):
        # A column grows window by window, its code count rising with it
        # (across 256 codes and the bitset cap, mid-stream), and its
        # bitsets are read at random extension points — one read may span
        # several windows, or stop inside one.
        column = Column("x")
        count = built = 0
        reference = []
        for _ in range(data.draw(st.integers(1, 6))):
            drawn = data.draw(st.one_of(st.sampled_from(CODE_COUNTS), st.integers(1, 1100)))
            count = max(count, drawn)
            column.values.extend(range(len(column.values), count))
            column.codes.extend(array("i", data.draw(code_windows(count))))
            if not data.draw(st.booleans()):
                continue
            stop = data.draw(st.integers(built, len(column)))
            bits = column.code_bits(stop)
            if reference is None or (stop > built and count > columns._MAX_BITSET_CODES):
                # Past the cap the bitsets are gone for good.
                assert bits is None
                reference = None
                continue
            if stop > built:
                reference = per_cell_code_bits(column.codes, count, stop, reference, built)
                assert reference == per_cell_code_bits(column.codes, count, stop)
                built = stop
            assert bits == reference, (count, built)

    @settings(max_examples=200, deadline=None)
    @given(st.data(), st.sampled_from("hiq"), st.integers(0, 70))
    def test_planes_read_either_byte_order(self, data, typecode, built):
        # The planes' byte offsets follow the byte order and item size
        # given, so a byte-swapped window read as the other order — in
        # 2-, 4- and 8-byte items — splits exactly as the native one.
        count = data.draw(st.sampled_from(CODE_COUNTS[:-1]))
        codes = data.draw(code_windows(count).filter(bool))
        depth = (count - 1).bit_length()
        native = array(typecode, codes)
        swapped = array(typecode, codes)
        swapped.byteswap()
        other = "big" if sys.byteorder == "little" else "little"
        expected = [bits << built for bits in per_cell_code_bits(codes, count, len(codes))]
        for window, byteorder in ((native, sys.byteorder), (swapped, other)):
            bits = [0] * count
            columns._or_code_positions(
                bits, built, window.tobytes(), window.itemsize, byteorder, depth
            )
            assert bits == expected, (byteorder, window.itemsize)


def one_shot(session, spec, trace, compiled):
    result = session.check_spec(spec, trace, compiled=compiled)
    return {v.clause.name: (None if v.error else v.holds) for v in result.verdicts}


# -- ingest cost ---------------------------------------------------------------

#: States per stream, states per frame, generated segments per stream, and
#: the traced-allocation ceiling per ingested state.  Columns cost a code
#: per variable per state (27-94 B/state in all, on these streams); a
#: prefix that keeps each appended ``State`` pays several times the ceiling.
INGEST_STATES = 16384
INGEST_FRAME = 64
INGEST_SEGMENTS = 8
INGEST_BYTES_PER_STATE = 160


def ingest_frames(family):
    """One long healthy stream's wire rows, in frames: the family's
    generated segments, repeated."""
    scripts = generate_stream_scripts(
        len(LOAD_FAMILIES) * INGEST_SEGMENTS, seed=3, fault_rate=0.0
    )
    index = [f[0] for f in LOAD_FAMILIES].index(family)
    period = [row for script in scripts[index::len(LOAD_FAMILIES)] for row in script.rows()]
    rows = (period * (INGEST_STATES // len(period) + 1))[:INGEST_STATES]
    return [rows[i:i + INGEST_FRAME] for i in range(0, INGEST_STATES, INGEST_FRAME)]


@pytest.mark.parametrize("family", [family[0] for family in LOAD_FAMILIES])
def test_ingest_encodes_each_frame_once_and_keeps_no_rows(monkeypatch, family):
    frames = ingest_frames(family)
    specification = SPEC_FACTORIES()[family]()
    monitor = Session().monitor(
        {c.name: c.interpreted_formula() for c in specification.clauses}
    )
    absorbed = []
    absorb = ColumnStore.absorb

    def counted(store, window):
        absorbed.append(len(window))
        absorb(store, window)

    monkeypatch.setattr(ColumnStore, "absorb", counted)
    gc.collect()
    tracemalloc.start()
    try:
        # Each frame's states are decoded inside the measured window, as
        # the service decodes wire rows, so states the prefix kept count.
        monitor.observe_batch(rows_to_states(frames[0]))
        first = tracemalloc.get_traced_memory()[0]
        for frame in frames[1:]:
            monitor.observe_batch(rows_to_states(frame))
        grown = tracemalloc.get_traced_memory()[0] - first
    finally:
        tracemalloc.stop()
    assert absorbed == [INGEST_FRAME] * len(frames)
    assert monitor.prefix_length == INGEST_STATES
    assert grown / (INGEST_STATES - INGEST_FRAME) <= INGEST_BYTES_PER_STATE


@pytest.mark.parametrize("family", [family[0] for family in LOAD_FAMILIES])
def test_serving_builds_no_state(monkeypatch, family):
    # Served rows reach the column encoder as one window per frame, holding
    # the decoded dicts themselves: no ``State`` is built, and the rows the
    # encoder reads are left as they were (``__start__`` is never added).
    frames = ingest_frames(family)
    sent = copy.deepcopy(frames)
    built = []
    init = State.__init__

    def counted(state, *args, **kwargs):
        built.append(None)
        init(state, *args, **kwargs)

    monkeypatch.setattr(State, "__init__", counted)
    registry = StreamRegistry()
    registry.handle({"op": "open", "stream": family, "spec": family})
    for frame in frames:
        responses = registry.handle({"op": "append", "stream": family, "states": frame})
        assert responses[-1]["ok"] == "appended", responses[-1]
    assert len(built) == 0
    assert registry.stream(family).monitor.prefix_length == INGEST_STATES
    assert frames == sent
    assert not any("__start__" in row["values"] for frame in frames for row in frame)


@pytest.mark.parametrize("family", [family[0] for family in LOAD_FAMILIES])
def test_one_shot_checks_encode_the_trace_once_and_build_no_state(monkeypatch, family):
    # A stutter-terminated trace is checked as a finished prefix: the first
    # check encodes its columns, every later check reads the same columns,
    # and no ``State`` row is built — a path that fed ``trace.states()``
    # to a prefix would build one per position.
    scripts = generate_stream_scripts(len(LOAD_FAMILIES) * 2, seed=3, fault_rate=0.0)
    index = [f[0] for f in LOAD_FAMILIES].index(family)
    rows = [row for script in scripts[index::len(LOAD_FAMILIES)] for row in script.rows()]
    trace = Trace(rows_to_states(rows))
    specification = SPEC_FACTORIES()[family]()
    reversed_spec = Specification(f"{specification.name}, clauses reversed")
    for clause in reversed(specification.clauses):
        add = reversed_spec.add_init if clause.kind == "init" else reversed_spec.add_axiom
        add(clause.name, clause.formula)
    built, encoded = [], []
    init, build = State.__init__, ColumnStore._build

    def counted_init(state, *args, **kwargs):
        built.append(None)
        init(state, *args, **kwargs)

    def counted_build(store, states):
        encoded.append(len(states))
        build(store, states)

    monkeypatch.setattr(State, "__init__", counted_init)
    monkeypatch.setattr(ColumnStore, "_build", counted_build)
    session = Session()
    first = one_shot(session, specification, trace, compiled=True)
    second = one_shot(session, reversed_spec, trace, compiled=True)
    assert (len(built), encoded) == (0, [len(rows)])
    assert first == second


def test_monitor_engine_reads_the_trace_rows_and_builds_no_state(monkeypatch):
    # The ``monitor`` engine observes a trace one state at a time (its
    # verdict history has one entry per prefix), each state a one-state
    # window over the trace's own rows: one absorb per state and no
    # ``State`` built, where feeding ``trace.states()`` builds one per
    # position.
    rows = [row for frame in ingest_frames("mutex") for row in frame][:1000]
    trace = Trace(rows_to_states(rows))
    specification = SPEC_FACTORIES()["mutex"]()
    formula = next(c for c in specification.clauses if c.name == "A1/12").interpreted_formula()
    expected = Session().check(formula, mode="compiled", trace=trace).verdict
    built, absorbed = [], []
    init, absorb = State.__init__, ColumnStore.absorb

    def counted_init(state, *args, **kwargs):
        built.append(None)
        init(state, *args, **kwargs)

    def counted_absorb(store, window):
        absorbed.append(len(window))
        absorb(store, window)

    monkeypatch.setattr(State, "__init__", counted_init)
    monkeypatch.setattr(ColumnStore, "absorb", counted_absorb)
    result = Session().check(formula, mode="monitor", trace=trace)
    assert (len(built), absorbed) == (0, [1] * len(rows))
    assert result.verdict is expected
    assert len(result.statistics["history"]) == len(rows)
    # A trace shipped as columns (as fan-out workers receive it) has no
    # source rows: its window is rebuilt from the columns.
    shipped = pickle.loads(pickle.dumps(trace))
    again = Session().check(formula, mode="monitor", trace=shipped)
    assert (len(built), absorbed) == (0, [1] * 2 * len(rows))
    assert again.statistics["history"] == result.statistics["history"]


#: States of each one-shot trace and synthetic column in the intern count
#: gate, the cardinalities of the synthetic columns (``None``: every value
#: distinct), and the window size of the growing builds.
INTERN_STATES = 4096
INTERN_CODES = (2, 200, 1024, None)
INTERN_FRAME = 16


def counted_interns(monkeypatch):
    """Patch the per-value intern step (``_intern``, the cell-by-cell path)
    to count its calls per column."""
    interned = Counter()
    intern = columns._ColumnBase._intern

    def counted(column, value):
        interned[column] += 1
        return intern(column, value)

    monkeypatch.setattr(columns._ColumnBase, "_intern", counted)
    return interned


def store_columns(store):
    return list(store._columns.values()) + list(store._op_columns.values())


def assert_each_value_interned_once(interned, store):
    assert any(column.values for column in store_columns(store))
    for column in store_columns(store):
        assert interned[column] <= len(column.values), (column.name, interned[column])


def synthetic_rows(codes):
    """``INTERN_STATES`` rows over one column of ``codes`` distinct values
    (each taken equally often, in a seeded shuffle) or of all-distinct ones."""
    if codes is None:
        values = list(range(INTERN_STATES))
    else:
        values = [i % codes for i in range(INTERN_STATES)]
        random.Random(codes).shuffle(values)
    return [{"x": value, "s": f"v{value % 12}"} for value in values]


def one_shot_build(family):
    """A one-shot ``check_spec`` of the family's spec on its generated
    trace: the store it builds is the trace's, one window."""
    rows = [row for frame in ingest_frames(family) for row in frame][:INTERN_STATES]
    trace = Trace(rows_to_states(rows))
    assert Session().check_spec(SPEC_FACTORIES()[family](), trace).verdicts
    return trace.columns


def synthetic_build(codes, frame):
    """A synthetic column built static (``frame`` None) or in windows."""
    rows = synthetic_rows(codes)
    window = Window(rows, [{}] * len(rows))
    if frame is None:
        return ColumnStore(window, mark_start=False)
    store = ColumnStore()
    for start in range(0, len(rows), frame):
        store.absorb(window[start:start + frame])
    assert list(store.column("x").values) == list(dict.fromkeys(row["x"] for row in rows))
    return store


INTERN_BUILDS = {
    **{f"check-spec-{family[0]}": partial(one_shot_build, family[0]) for family in LOAD_FAMILIES},
    **{
        f"{kind}-{codes or 'all'}-codes": partial(synthetic_build, codes, frame)
        for kind, frame in (("static", None), ("windows", INTERN_FRAME))
        for codes in INTERN_CODES
    },
}


@pytest.mark.parametrize("build", list(INTERN_BUILDS.values()), ids=list(INTERN_BUILDS))
def test_column_build_interns_each_distinct_value_once(monkeypatch, build):
    # A column meets each value new to it once per window; a per-cell
    # interner calls the step once per cell of every window that brings a
    # new value, which on a static trace is every cell.
    interned = counted_interns(monkeypatch)
    assert_each_value_interned_once(interned, build())


# -- history cost ----------------------------------------------------------------

#: States of the repeated-segment stream (``HISTORY_COST_STATES`` raises it:
#: CI runs 100k, the nightly run 1M), states per frame, the prefix lengths
#: whose verdicts are checked against a one-shot check, and the largest
#: allowed growth of dispatch calls per state from the first tenth of
#: frames to the last.
HISTORY_STATES = int(os.environ.get("HISTORY_COST_STATES", "20000"))
HISTORY_FRAME = 64
HISTORY_CHECKPOINTS = (2500, 5000, 10000, 20000)
HISTORY_GROWTH = 1.25


def repeated_segment_rows():
    """One healthy ``mutex`` segment (loadgen seed 3, 30 states), repeated.

    Process 1 never enters its critical section in it, so every start of
    ``A1/12 = [] [x1 <= cs1] <> ~x2`` waits on a ``cs1`` change that never
    comes: a frontier that evaluates each pending start on its own does
    work linear in the prefix on every frame.
    """
    script = generate_stream_scripts(
        4, seed=3, fault_rate=0.0, families=[LOAD_FAMILIES[0]]
    )[0]
    segment = script.rows()
    return (segment * (HISTORY_STATES // len(segment) + 1))[:HISTORY_STATES]


@pytest.fixture(scope="module")
def repeated_segment_one_shot():
    """Per checkpoint length: the verdicts of a one-shot ``check_spec`` of
    the full ``mutex`` specification on that prefix."""
    rows = repeated_segment_rows()
    specification = SPEC_FACTORIES()["mutex"]()
    verdicts = {}
    for length in HISTORY_CHECKPOINTS:
        if length <= len(rows):
            trace = Trace(rows_to_states(rows[:length]))
            verdicts[length] = one_shot(Session(), specification, trace, compiled=True)
    return verdicts


@pytest.mark.parametrize("clause", ["A1/12", None], ids=["A1-12", "mutex"])
def test_repeated_segment_dispatch_stays_flat(clause, repeated_segment_one_shot):
    rows = repeated_segment_rows()
    specification = SPEC_FACTORIES()["mutex"]()
    monitor = Session().monitor({
        c.name: c.interpreted_formula()
        for c in specification.clauses
        if clause is None or c.name == clause
    })
    stats = monitor.plan_state.stats
    checkpoints = sorted(repeated_segment_one_shot)
    # Frames end at every checkpoint, so verdicts are read there.
    bounds = sorted(set(range(HISTORY_FRAME, len(rows), HISTORY_FRAME))
                    | set(checkpoints) | {len(rows)})
    batches = []
    start = 0
    for stop in bounds:
        before = stats.dispatch_calls
        monitor.observe_batch(rows_to_states(rows[start:stop]))
        batches.append((stop - start, stats.dispatch_calls - before))
        start = stop
        if stop in checkpoints:
            reference = repeated_segment_one_shot[stop]
            observed = {name: v.holds for name, v in monitor.verdicts.items()}
            assert observed == {name: reference[name] for name in observed}, stop

    def per_state(part):
        return sum(d for _, d in part) / sum(n for n, _ in part)

    tenth = max(1, len(batches) // 10)
    first, last = per_state(batches[:tenth]), per_state(batches[-tenth:])
    assert last <= HISTORY_GROWTH * first, (first, last)


#: Formulas whose atoms no column answers — an arithmetic comparison, and
#: ``x == 5`` once ``x``'s column is past the bitset cap (``x`` takes a new
#: value in every state) — so the kernel profiles them one row per
#: appended position.  Both events occur once, at position 6, so every
#: later start waits on a change that never comes: ``[] / <>`` over an
#: interval formula whose event the kernel does not profile evaluates each
#: pending start on its own, work per frame linear in the prefix.
PER_POSITION_FORMULAS = {
    "arithmetic": "[] ([x + 1 < y] p)",
    "past-the-cap": "[] ([x == 5] p)",
}


def per_position_rows():
    """Wire rows: ``x`` distinct in every state, ``x + 1 < y`` exactly
    where ``x == 5``."""
    return [
        {"values": {"x": i, "y": i + 1 + (i == 5), "p": True}}
        for i in range(HISTORY_STATES)
    ]


@pytest.mark.parametrize("text", list(PER_POSITION_FORMULAS.values()),
                         ids=list(PER_POSITION_FORMULAS))
def test_per_position_profiles_keep_dispatch_flat(monkeypatch, text):
    rows = per_position_rows()
    formula = parse_formula(text)
    session = Session()
    checkpoints = [length for length in HISTORY_CHECKPOINTS if length <= len(rows)]
    reference = {
        length: session.check(formula, trace=Trace(rows_to_states(rows[:length]))).verdict
        for length in checkpoints
    }
    scans = []
    scan = PlanState._find_event_scan

    def counted(state, *args):
        scans.append(args)
        return scan(state, *args)

    monkeypatch.setattr(PlanState, "_find_event_scan", counted)
    monitor = Session().monitor({"clause": formula})
    stats = monitor.plan_state.stats
    bounds = sorted(set(range(HISTORY_FRAME, len(rows), HISTORY_FRAME))
                    | set(checkpoints) | {len(rows)})
    batches = []
    start = 0
    for stop in bounds:
        before = stats.dispatch_calls
        monitor.observe_batch(rows_to_states(rows[start:stop]))
        batches.append((stop - start, stats.dispatch_calls - before))
        start = stop
        if stop in reference:
            assert monitor.verdicts["clause"].holds is reference[stop], stop

    def per_state(part):
        return sum(d for _, d in part) / sum(n for n, _ in part)

    tenth = max(1, len(batches) // 10)
    first, last = per_state(batches[:tenth]), per_state(batches[-tenth:])
    assert last <= HISTORY_GROWTH * first, (first, last)
    assert not scans
    assert monitor.plan_state.trace._rows == {}


def dead_profile_rows():
    """Wire rows with ``x`` missing wherever ``p`` holds (every even state),
    so the kernel's profile of ``p \\/ x == 2`` dies on the first state and
    the event is evaluated on rows rebuilt from the columns.  ``q`` fails
    once, just before ``p`` returns near the end, so a late verdict flips."""
    failing = (HISTORY_STATES - 100) | 1
    return [
        {"values": {"p": True, "q": True} if i % 2 == 0
         else {"p": False, "x": 0, "q": i != failing}}
        for i in range(HISTORY_STATES)
    ]


def test_rows_read_after_a_dead_profile_live_until_the_next_append():
    rows = dead_profile_rows()
    formula = parse_formula("[] ([(p \\/ x == 2)] q)")
    session = Session()
    checkpoints = [length for length in HISTORY_CHECKPOINTS if length <= len(rows)]
    checkpoints.append(len(rows))
    reference = {
        length: session.check(formula, trace=Trace(rows_to_states(rows[:length]))).verdict
        for length in checkpoints
    }
    assert reference[len(rows)] is False
    monitor = Session().monitor({"clause": formula})
    stats = monitor.plan_state.stats
    prefix = monitor.plan_state.trace
    bounds = sorted(set(range(HISTORY_FRAME, len(rows), HISTORY_FRAME))
                    | set(checkpoints))
    batches = []
    kept = 0
    start = 0
    for stop in bounds:
        before = stats.dispatch_calls
        monitor.observe_batch(rows_to_states(rows[start:stop]))
        batches.append((stop - start, stats.dispatch_calls - before))
        kept = max(kept, len(prefix._rows))
        start = stop
        if stop in reference:
            assert monitor.verdicts["clause"].holds is reference[stop], stop
    assert 0 < kept <= HISTORY_FRAME

    def per_state(part):
        return sum(d for _, d in part) / sum(n for n, _ in part)

    tenth = max(1, len(batches) // 10)
    first, last = per_state(batches[:tenth]), per_state(batches[-tenth:])
    assert last <= HISTORY_GROWTH * first, (first, last)


# -- the bitset cap --------------------------------------------------------------

CAP_CLAUSES = {
    "bounded": "[] (x < 9)",
    "seen": "<> (x == 6)",
    "guard": "[] (x >= 2 -> <> p)",
    "interval": "[(x == 3) => (x == 1)] <> p",
}

#: ``x`` holds 4 distinct values for 16 states, then 9; ``p`` holds 2.
CAP_ROWS = [{"x": i % 4, "p": i % 3 != 0} for i in range(16)] + [
    {"x": i % 9, "p": i % 3 != 0} for i in range(16, 40)
]

#: (cap, value) pairs each letting ``x`` keep its bitsets over the first
#: 8-state frame and crossing the cap by state 24 (9 codes > 4, and
#: 9 codes · 3 bytes > 12), while ``p`` never crosses (2 codes · 5 bytes).
CAPS = [("_MAX_BITSET_CODES", 4), ("_MAX_BITSET_BYTES", 12)]


def atom_node(plan_state, text):
    return next(
        node for node in plan_state._nodes
        if node.predicate is not None and str(node.predicate) == text
    )


def engine_verdicts(session, formula, rows):
    trace = make_trace(rows)
    return (
        session.check(formula, mode="stepwise", trace=trace).verdict,
        session.check(formula, mode="trace", trace=trace).verdict,
    )


def row_bits(node, rows):
    """The atom's per-position verdicts over ``rows``, as profile bits."""
    return sum(
        1 << i for i, row in enumerate(rows) if node.predicate.holds(State(row), {})
    )


def assert_profiled_per_position(kernel, node, rows):
    """Past the cap the profile is alive, built to the trace's length and
    bit-for-bit the per-position verdicts."""
    bits = kernel.profile(node)
    entry = kernel._entries[node.id]
    assert not entry.dead and entry.built_to == len(rows)
    assert bits == row_bits(node, rows)


#: The ``x`` atoms of ``CAP_CLAUSES``.
CAP_ATOMS = ("x < 9", "x == 6", "x >= 2", "x == 3", "x == 1")


@pytest.mark.parametrize("cap, value", CAPS)
def test_stream_crossing_the_cap_keeps_profiling_per_position(monkeypatch, cap, value):
    monkeypatch.setattr(columns, cap, value)
    session = Session()
    formulas = {name: parse_formula(text) for name, text in CAP_CLAUSES.items()}
    monitor = Monitor(formulas)
    state = monitor.plan_state
    kernel = state._kernel
    node = atom_node(state, "x < 9")
    for stop in range(8, len(CAP_ROWS) + 1, 8):
        monitor.observe_batch([State(row) for row in CAP_ROWS[stop - 8:stop]])
        for name, formula in formulas.items():
            stepwise, reference = engine_verdicts(session, formula, CAP_ROWS[:stop])
            assert monitor.verdicts[name].holds is stepwise is reference, (name, stop)
        if stop == 8:
            assert state.trace.columns.column("x").code_bits(stop) is not None
            assert kernel.profile(node).bit_length() <= stop
    store = state.trace.columns
    assert store.column("x").code_bits(store.length) is None
    assert store.column("p").code_bits(store.length) is not None
    # The profiles over x went on where the column crossed: one row per
    # appended position, instead of dying into the per-position path.
    for text in CAP_ATOMS:
        assert_profiled_per_position(kernel, atom_node(state, text), CAP_ROWS)


@pytest.mark.parametrize("cap, value", CAPS)
def test_static_trace_past_the_cap_is_profiled_per_position(monkeypatch, cap, value):
    monkeypatch.setattr(columns, cap, value)
    session = Session()
    trace = make_trace(CAP_ROWS)
    for text in CAP_CLAUSES.values():
        formula = parse_formula(text)
        vectorized = session.check(formula, mode="compiled", trace=trace).verdict
        assert (vectorized,) * 2 == engine_verdicts(session, formula, CAP_ROWS), text
    assert trace.columns.column("x").code_bits(trace.length) is None
    for text in CAP_ATOMS:
        state = compile_formula(parse_formula(f"<> ({text})")).evaluator(trace)
        assert_profiled_per_position(state._kernel, atom_node(state, text), CAP_ROWS)
