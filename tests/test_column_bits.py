"""Per-code column bitsets and the one bitset kernel, proven by parity.

One window encoder fills the columns of static traces and growing prefixes,
one builder (``Column.code_bits``) derives their bitsets, and one kernel
(``TailKernel``) evaluates state formulas over them — on a growing prefix,
and on a stutter-terminated trace checked as a finished prefix.  Two
properties pin the pair down:

* **window splits** — any split of a state sequence into append frames
  leaves a growing store with the same columns, codes and per-value bitsets
  as a static store built from the same states (missing values, unhashable
  values, booleans beside equal numbers and operations included), leaves a
  column-only prefix with the same rows and value universe as the static
  trace, and leaves a monitor fed those frames with the same verdicts,
  after every frame, as a one-shot check of the prefix so far;
* **the bitset cap** — a column past ``_MAX_BITSET_CODES`` /
  ``_MAX_BITSET_BYTES`` keeps no bitsets, whether it got there mid-stream
  or was built past it; the profiles over it fall back to the per-position
  path instead of growing, and verdicts match the ``stepwise`` and
  ``trace`` engines.

Beside them, four cost checks on deterministic counters: each appended
frame is encoded once and no rows are kept, serving wire rows builds no
``State`` at all, one-shot checks encode a trace once and build no
``State`` either, and a stream repeating one segment keeps its dispatch
calls per state flat as its history grows.
"""

import copy
import gc
import os
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

from repro.api import Session
from repro.checking.monitor import Monitor
from repro.compile import GrowingPrefix, compile_formula
from repro.core.specification import Specification
from repro.errors import TraceError
from repro.gen.loadgen import LOAD_FAMILIES, generate_stream_scripts
from repro.semantics import columns
from repro.semantics.columns import ColumnStore, IncrementalColumnStore
from repro.semantics.state import OperationRecord, State
from repro.semantics.trace import Trace, make_trace
from repro.serve.protocol import rows_to_states
from repro.serve.streams import SPEC_FACTORIES, StreamRegistry
from repro.syntax.parser import parse_formula

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
        growing = IncrementalColumnStore()
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
    absorb = IncrementalColumnStore.absorb

    def counted(store, window):
        absorbed.append(len(window))
        absorb(store, window)

    monkeypatch.setattr(IncrementalColumnStore, "absorb", counted)
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
