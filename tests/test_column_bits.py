"""Per-code column bitsets and the one bitset kernel, proven by parity.

One builder (``Column.code_bits``) serves static traces and growing
prefixes, and one kernel (``TailKernel``, with ``BitsetKernel`` as its
static subclass) evaluates state formulas over it.  Two properties pin the
pair down:

* **window splits** — any split of a state sequence into append frames
  leaves a growing column with the same per-value bitsets as a static
  column built from the same states, and leaves a monitor fed those frames
  with the same verdicts as a one-shot check of the whole prefix;
* **the bitset cap** — a column past ``_MAX_BITSET_CODES`` /
  ``_MAX_BITSET_BYTES`` keeps no bitsets, whether it got there mid-stream
  or was built past it; the profiles over it fall back to the per-position
  path instead of growing, and verdicts match the ``stepwise`` and
  ``trace`` engines.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.api import Session
from repro.checking.monitor import Monitor
from repro.compile import compile_formula
from repro.core.specification import Specification
from repro.semantics import columns
from repro.semantics.columns import ColumnStore, IncrementalColumnStore
from repro.semantics.state import OperationRecord, State
from repro.semantics.trace import make_trace
from repro.syntax.parser import parse_formula

VARIABLES = ("p", "x", "s")
OPERATIONS = ("Send", "Recv")

#: Clauses over every kernel path: propositional atoms, comparisons,
#: operation predicates with and without arguments, ``[] / <>`` over state
#: formulas, and interval terms built from state-formula events.
CLAUSES = {
    "always-cmp": "[] (x < 3 \\/ p)",
    "eventually": "<> (x == 2 /\\ ~p)",
    "response": "[] (at Send(1) -> <> after Send(1))",
    "idle": "[] (in Recv \\/ ~(s == 6))",
    "interval": "[(x == 1) => (x == 3)] <> p",
    "occurs": "*((at Send(0)) => (after Recv))",
    "backward": "[] [(x >= 1) <= (x == 0)] <> (s != 5)",
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


def bits_by_value(column, n):
    if column is None:
        return {}
    return dict(zip(column.values, column.code_bits(n)))


def reference_bits(rows, n):
    """Per-value bitsets from a plain scan of ``(name, value)`` rows."""
    out = {}
    for i, value in enumerate(rows[:n]):
        if value is not None:
            out[value] = out.get(value, 0) | (1 << i)
    return out


class TestWindowSplits:
    @settings(max_examples=100, deadline=None)
    @given(state_lists(24), st.lists(st.integers(1, 23), max_size=6))
    def test_growing_code_bits_match_the_static_column(self, states, cuts):
        growing = IncrementalColumnStore()
        for frame in frames_of(states, cuts):
            for state in frame:
                growing.absorb(state)
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
        static = ColumnStore(states, mark_start=False)
        for name in VARIABLES:
            expected = reference_bits(
                [s.raw_values.get(name) for s in states], n
            )
            assert bits_by_value(growing.column(name), n) == expected
            assert bits_by_value(static.column(name), n) == expected
        for name in OPERATIONS:
            expected = reference_bits(
                [s.raw_operations.get(name) for s in states], n
            )
            assert bits_by_value(growing.op_column(name), n) == expected
            assert bits_by_value(static.op_column(name), n) == expected

    @settings(max_examples=80, deadline=None)
    @given(state_lists(16), st.lists(st.integers(1, 15), max_size=5))
    def test_monitor_frames_match_one_shot_check(self, states, cuts):
        formulas = {name: parse_formula(text) for name, text in CLAUSES.items()}
        monitor = Monitor(formulas, capture_errors=True)
        for frame in frames_of(states, cuts):
            monitor.observe_batch(frame)
        observed = {
            name: (None if v.error else v.holds)
            for name, v in monitor.verdicts.items()
        }
        spec = Specification("window splits")
        for name, formula in formulas.items():
            spec.add_axiom(name, formula)
        trace = make_trace([dict(s.raw_values) for s in states], operations=[
            {name: {"phase": r.phase, "args": r.args, "results": r.results}
             for name, r in s.raw_operations.items()}
            for s in states
        ])
        session = Session()
        reference = one_shot(session, spec, trace, compiled=False)
        # The reference evaluator decides every clause unless a value is
        # missing; it then raises where its operand order first meets the
        # missing variable, which the compiled runtime's normalized order
        # may short-circuit past (``x < 3 \/ p`` with ``p`` true).  Where
        # it decides, the monitor decides the same way, and the monitor
        # matches the compiled one-shot check exactly, errors included.
        complete = all(len(s.raw_values) == len(VARIABLES) for s in states)
        for name, verdict in reference.items():
            assert verdict is not None or not complete, name
            assert verdict is None or observed[name] is verdict, name
        assert observed == one_shot(session, spec, trace, compiled=True)


def one_shot(session, spec, trace, compiled):
    result = session.check_spec(spec, trace, compiled=compiled)
    return {v.clause.name: (None if v.error else v.holds) for v in result.verdicts}


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


@pytest.mark.parametrize("cap, value", CAPS)
def test_stream_crossing_the_cap_falls_back(monkeypatch, cap, value):
    monkeypatch.setattr(columns, cap, value)
    session = Session()
    formulas = {name: parse_formula(text) for name, text in CAP_CLAUSES.items()}
    monitor = Monitor(formulas)
    state = monitor.plan_state._state
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
    # The profile died where the column crossed: it answers None (the
    # per-position path) instead of growing with the prefix.
    assert kernel.profile(node) is None
    entry = kernel._entries[node.id]
    assert entry.dead and entry.built_to < store.length


@pytest.mark.parametrize("cap, value", CAPS)
def test_static_trace_past_the_cap_falls_back(monkeypatch, cap, value):
    monkeypatch.setattr(columns, cap, value)
    session = Session()
    trace = make_trace(CAP_ROWS)
    for text in CAP_CLAUSES.values():
        formula = parse_formula(text)
        vectorized = session.check(formula, mode="compiled", trace=trace).verdict
        assert (vectorized,) * 2 == engine_verdicts(session, formula, CAP_ROWS), text
    assert trace.columns.column("x").code_bits(trace.length) is None
    state = compile_formula(parse_formula("[] (x < 9)")).evaluator(trace)
    assert state._kernel.profile(atom_node(state, "x < 9")) is None
