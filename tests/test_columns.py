"""Column-major trace storage and the vectorized bitset kernel.

Four invariants pin the tentpole of the columnar refactor:

* the lazy row view (``states`` / ``state_at`` / iteration) reconstructed
  from dictionary-encoded columns is **exactly** the row-major trace it
  replaced, including ``__start__`` marking and canonical lasso wrapping;
* the window encoder opens columns in first-occurrence order of their
  names, whether it finds the names by row shape or by scanning every row
  (same-length rows binding different names, ``__start__`` in the rows),
  and codes operation records to the same rows, first records and value
  universe, for any window split; a ``__start__`` column that no row binds
  is written from its definition with the codes, values and new-value
  positions the list encoding of its cells gives;
* pickling ships columns and rebuilds identical rows on the other side
  (the ``check_many`` worker handoff), a record pickles and reads as its
  three fields, and a monitor's growing prefix pickled mid-stream goes on
  absorbing — in another process too — to the columns and verdicts of the
  unbroken stream;
* the vectorized kernel's whole-column verdicts agree with the
  per-position compiled runtime and the Chapter 3 reference evaluator on
  generated scenarios.
"""

import copy
import operator
import os
import pickle
import random
import subprocess
import sys
from itertools import chain

import pytest
from hypothesis import given, settings, strategies as st

import repro
from repro.checking.monitor import Monitor
from repro.compile import GrowingPrefix, compile_formula
from repro.compile.vector import bit_positions
from repro.gen.generators import ScenarioProfile, gen_formula, gen_trace
from repro.gen.loadgen import generate_stream_scripts
from repro.semantics import columns
from repro.semantics.columns import ABSENT, Column, ColumnStore, Window
from repro.semantics.evaluator import Evaluator
from repro.semantics.state import OperationRecord, State
from repro.semantics.trace import Trace, boolean_trace, make_trace
from repro.serve.protocol import trace_to_rows
from repro.serve.streams import StreamRegistry
from repro.syntax.parser import parse_formula


ROWS = [
    {"x": 1, "p": True},
    {"x": 2, "p": False},
    {"x": 2, "p": True},
    {"x": 3, "p": False},
]


def eager_states(rows, loop_start=None, mark_start=True):
    """The rows the pre-columnar eager Trace constructor produced."""
    states = []
    for index, row in enumerate(rows):
        values = dict(row)
        if mark_start:
            if index == 0:
                values["__start__"] = True
            else:
                values.setdefault("__start__", False)
        states.append(State(values))
    return states


class TestColumnRoundTrip:
    def test_make_trace_rows_match_the_eager_construction(self):
        trace = make_trace(ROWS)
        assert list(trace.states()) == eager_states(ROWS)

    def test_boolean_trace_rows_match(self):
        trace = boolean_trace(["p", "q"], [[1, 0], [0, 1], [1, 1]])
        rows = [{"p": True, "q": False}, {"p": False, "q": True},
                {"p": True, "q": True}]
        assert list(trace.states()) == eager_states(rows)

    def test_lasso_state_at_wraps_canonically(self):
        trace = make_trace(ROWS, loop_start=2)
        for pos in range(1, 20):
            assert trace.state_at(pos) == trace.states()[trace.canonical(pos) - 1]

    def test_column_values_match_rows_with_ragged_variables(self):
        # Variables appearing late / disappearing: columns pad with ABSENT
        # and the row view drops the absent bindings.
        states = [State({"x": 1}), State({"x": 2, "y": 5}), State({"y": 5})]
        trace = Trace(states, mark_start=False)
        store = trace.columns
        assert store.column("y").codes[0] == ABSENT
        assert store.column("x").codes[2] == ABSENT
        for index, state in enumerate(trace.states()):
            assert store.state_values(index) == state.raw_values

    def test_start_marking_is_columnwise_and_overrides_the_source(self):
        # An explicit False at position 1 is overridden, exactly like the
        # eager marking did; later positions default to False.
        trace = Trace([State({"p": True, "__start__": False}), State({"p": False})])
        assert trace.state_at(1)["__start__"] is True
        assert trace.state_at(2)["__start__"] is False
        column = trace.columns.column("__start__")
        assert [column.value_at(i) for i in range(2)] == [(True, True), (True, False)]

    def test_mark_start_false_adds_no_column(self):
        trace = Trace([State({"p": True})], mark_start=False)
        assert trace.columns.column("__start__") is None
        assert "__start__" not in trace.state_at(1).raw_values

    def test_operation_columns_reconstruct_records(self):
        operations = [{}, {"Enq": ("at", [2], [])}, {"Enq": ("after", [2], [7])}]
        trace = make_trace(ROWS[:3], operations=operations)
        for index, state in enumerate(trace.states()):
            assert trace.columns.state_operations(index) == state.raw_operations
        column = trace.columns.op_column("Enq")
        assert column.codes[0] == ABSENT
        present, record = column.value_at(1)
        assert present and record.phase == "at" and record.args == (2,)

    def test_operations_may_be_given_as_records(self):
        # A record iterates its field names, as a mapping does, so it is
        # read by key like a dict, not unpacked like a tuple.
        record = OperationRecord("after", (2,), (7,))
        trace = make_trace(ROWS[:2], operations=[{}, {"Enq": record}])
        assert trace.state_at(2).raw_operations == {"Enq": record}
        assert trace.columns.op_column("Enq").values == [record]

    def test_value_universe_is_deduplicated_in_observation_order(self):
        trace = make_trace([{"x": 3, "p": True}, {"x": 1, "y": 3}, {"x": 3}])
        assert trace.value_universe() == (3, 1)

    def test_dict_key_semantics_shares_codes_for_equal_values(self):
        # 1 and 1.0 intern to one code — consistent with == everywhere the
        # codes are compared.  True gets its own: a row rebuilt from the
        # column must not turn 1 into a boolean, which the default
        # quantification domain leaves out.
        trace = make_trace([{"x": 1}, {"x": 1.0}, {"x": True}])
        column = trace.columns.column("x")
        assert column.values == [1, True]
        assert column.codes[0] == column.codes[1] != column.codes[2]
        assert type(column.values[column.codes[2]]) is bool


#: Variable names of the name-discovery property (``__start__`` among them,
#: as a source trace may carry it) and its operation names and records:
#: args equal across ``1`` / ``1.0`` / ``True``, and list args that cannot
#: be hashed.
NAMES = ("a", "b", "c", "__start__")
OPERATIONS = ("Send", "Recv")
_records = st.builds(
    OperationRecord,
    phase=st.sampled_from(["at", "in", "after"]),
    args=st.tuples(st.one_of(
        st.sampled_from([0, 1, 1.0, True, 2]), st.lists(st.integers(0, 1), max_size=1),
    )),
)


@st.composite
def shaped_rows(draw):
    """Rows binding subsets of ``NAMES`` in any key order — most of them
    as many names as the first row holds, not always the same ones — with
    operation maps, and cut points splitting them into windows."""
    count = draw(st.integers(1, 12))
    width = draw(st.integers(0, len(NAMES)))
    value = st.sampled_from([True, False, 0, 1, 1.0, 2])
    rows, operations = [], []
    for _ in range(count):
        size = draw(st.one_of(st.just(width), st.just(width), st.integers(0, len(NAMES))))
        names = draw(st.permutations(NAMES))[:size]
        rows.append({name: draw(value) for name in names})
        operations.append(draw(st.fixed_dictionaries({}, optional=dict.fromkeys(OPERATIONS, _records))))
    cuts = draw(st.lists(st.integers(1, count), max_size=4))
    return rows, operations, cuts


def windows_of(rows, cuts):
    bounds = sorted({c for c in cuts if 0 < c < len(rows)}) + [len(rows)]
    return [rows[start:stop] for start, stop in zip([0] + bounds, bounds)]


def expected_columns(windows, mark_start):
    """Column names in the order a first-occurrence scan of each window
    opens them (``__start__`` after a window's own names when it binds it
    nowhere), and each column's cells, ``columns._MISSING`` where a row
    does not bind the name."""
    cells, seen = {}, 0
    for window in windows:
        names = list(dict.fromkeys(chain.from_iterable(window)))
        if mark_start and "__start__" not in names:
            names.append("__start__")
        for name in names:
            cells.setdefault(name, [columns._MISSING] * seen)
        for name, column in cells.items():
            for at, row in enumerate(window, seen):
                if mark_start and name == "__start__":
                    column.append(at == 0 or row.get(name, False))
                else:
                    column.append(row.get(name, columns._MISSING))
        seen += len(window)
    return cells


def typed(value):
    """``value`` tagged so that booleans differ from the numbers equal to
    them, as the columns intern them."""
    return (type(value) is bool, value)


def assert_columns(store, kind, expected):
    """The store's columns of ``kind`` are ``expected``'s, in its order,
    each decoding to its cells (booleans apart from equal numbers), with
    the first-occurrence object of each value kept."""
    found = store._columns if kind == "values" else store._op_columns
    assert list(found) == list(expected)
    for name, cells in expected.items():
        column = found[name]
        assert column.missing == any(cell is columns._MISSING for cell in cells)
        decoded = [column.values[code] if code >= 0 else columns._MISSING for code in column.codes]
        assert list(map(typed, decoded)) == list(map(typed, cells))
        firsts = []
        for cell in cells:
            if cell is not columns._MISSING and typed(cell) not in map(typed, firsts):
                firsts.append(cell)
        assert len(column.values) == len(firsts)
        assert all(map(operator.is_, column.values, firsts)), name


class TestNameDiscovery:
    def test_same_length_rows_with_different_names(self):
        # Every row holds two names, but not the same two: the names the
        # first row lacks open their columns after its own, in
        # first-occurrence order, padded where a row lacks them.
        rows = [{"b": 1, "a": 2}, {"a": 3, "c": 4}, {"d": 5, "b": 6}]
        for mark_start in (False, True):
            store = ColumnStore(Window(rows, [{}] * 3), mark_start=mark_start)
            assert list(store._columns) == ["b", "a", "c", "d"] + ["__start__"] * mark_start
            assert [store.state_values(i) for i in range(3)] == [
                {"b": 1, "a": 2, **({"__start__": True} if mark_start else {})},
                {"a": 3, "c": 4, **({"__start__": False} if mark_start else {})},
                {"b": 6, "d": 5, **({"__start__": False} if mark_start else {})},
            ]

    def test_rows_carrying_start(self):
        # A row's ``__start__`` keeps the column where the rows first name
        # it; position 1 is True whatever the row says, later rows keep
        # their value or read False.
        for rows, order in (
            ([{"__start__": False, "p": 1}, {"p": 2, "q": 3}], ["__start__", "p", "q"]),
            ([{"p": 1, "q": 2}, {"q": 3, "__start__": True}], ["p", "q", "__start__"]),
            ([{"__start__": False, "p": 1}, {"p": 2, "__start__": True}], ["__start__", "p"]),
        ):
            store = ColumnStore(Window(rows, [{}] * 2), mark_start=True)
            assert list(store._columns) == order
            column = store.column("__start__")
            assert [column.value_at(i) for i in range(2)] == [
                (True, True), (True, rows[1].get("__start__", False)),
            ]
            assert [column.missing for column in store._columns.values()] == [
                any(name not in row for row in rows) and name != "__start__" for name in order
            ]

    def test_rows_of_one_shape_are_not_scanned_for_names(self, monkeypatch):
        # Columns come out alike whichever way the names are found, so this
        # pins the dispatch: variable rows that all bind the first row's
        # names are not scanned for names, same-length rows binding other
        # names are scanned once, and operation maps always are, even of
        # one shape.
        scanned = []

        class Chain:
            @staticmethod
            def from_iterable(rows):
                scanned.append(rows)
                return chain.from_iterable(rows)

        monkeypatch.setattr(columns, "chain", Chain)
        operations = [{"Enq": OperationRecord("at", (i,))} for i in range(8)]
        for rows, scans in (
            ([{"p": i % 2 == 0, "x": i} for i in range(8)], 0),
            ([{"p": True, "x": 0}, {"x": 1, "q": False}] * 4, 1),
        ):
            scanned.clear()
            ColumnStore(Window(rows, operations), mark_start=True)
            assert [found is rows for found in scanned] == [True] * scans + [False]
            assert scanned[-1] is operations

    @settings(max_examples=200, deadline=None)
    @given(shaped_rows())
    def test_columns_follow_first_occurrence_order_for_any_rows(self, drawn):
        # Static (with and without marking) and split builds: columns open
        # in first-occurrence order, ``__start__`` included, pad where a
        # row lacks the name, and decode to the rows and records given.
        rows, operations, cuts = drawn
        builds = [
            ([rows], [operations], mark_start, ColumnStore(Window(rows, operations), mark_start))
            for mark_start in (False, True)
        ]
        growing = ColumnStore()
        frames = windows_of(rows, cuts)
        op_frames = windows_of(operations, cuts)
        for frame, op_frame in zip(frames, op_frames):
            growing.absorb(Window(frame, op_frame))
        builds.append((frames, op_frames, True, growing))
        # The value universe, extended only from the states that brought a
        # new value, lists values as a scan of every state does.
        scanned = columns._Universe()
        scanned.observe(Window(rows, operations), range(len(rows)))
        for frames, op_frames, mark_start, store in builds:
            assert_columns(store, "values", expected_columns(frames, mark_start))
            assert_columns(store, "operations", expected_columns(op_frames, False))
            assert list(map(typed, store.value_universe())) == list(map(typed, scanned.values()))


class TestColumnarPickle:
    def test_pickle_round_trips_rows_and_shape(self):
        trace = make_trace(ROWS, loop_start=2,
                           operations=[{}, {"Enq": ("at", [1], [])}, {}, {}])
        clone = pickle.loads(pickle.dumps(trace))
        assert clone.states() == trace.states()
        assert clone.loop_start == trace.loop_start
        assert clone.length == trace.length
        assert clone.value_universe() == trace.value_universe()
        for pos in range(1, 12):
            assert clone.state_at(pos) == trace.state_at(pos)

    def test_operation_records_pickle_and_read_by_their_fields(self):
        # A record is the tuple of its fields, and equals it, but reads as
        # a three-key mapping; copies and every pickle protocol rebuild it
        # from its fields.
        record = OperationRecord("after", [1], (2,))
        assert record == ("after", (1,), (2,))
        assert hash(record) == hash(("after", (1,), (2,)))
        assert dict(record) == {"phase": "after", "args": (1,), "results": (2,)}
        assert list(record) == ["phase", "args", "results"]
        assert "args" in record and 0 not in record and len(record) == 3
        assert record["results"] == (2,) and record.get(0) is None
        with pytest.raises(KeyError):
            record[0]
        clones = [copy.copy(record), copy.deepcopy(record)] + [
            pickle.loads(pickle.dumps(record, protocol))
            for protocol in range(pickle.HIGHEST_PROTOCOL + 1)
        ]
        for clone in clones:
            assert type(clone) is OperationRecord and clone == record
            assert (clone.phase, clone.args, clone.results) == ("after", (1,), (2,))

    def test_pickle_ships_columns_not_states(self):
        trace = make_trace(ROWS)
        payload = trace.__getstate__()
        assert set(payload) == {"store", "loop_start", "length"}
        assert isinstance(payload["store"], ColumnStore)

    def test_generated_traces_round_trip(self):
        for seed in range(20):
            rng = random.Random(seed)
            trace = gen_trace(rng, max_states=6)
            clone = pickle.loads(pickle.dumps(trace))
            assert clone.states() == trace.states()
            assert clone.loop_start == trace.loop_start

    def test_a_pickled_prefix_goes_on_absorbing(self):
        # The operation ``O`` is bound in one row of the later window and
        # idle in the next: the round-tripped columns must still read the
        # idle row as absent, not intern what marks it as a value.
        first = [State({"p": True}, {"O": OperationRecord("at", (1,))}), State({"p": False})]
        later = [State({"p": True}, {"O": OperationRecord("after", (1,))}), State({"p": True})]
        prefix = GrowingPrefix()
        prefix.extend(first)
        clone = pickle.loads(pickle.dumps(prefix))
        assert type(clone) is GrowingPrefix
        prefix.extend(later)
        clone.extend(later)
        assert column_contents(clone.columns) == column_contents(prefix.columns)
        assert clone.state_at(4) == prefix.state_at(4) == State(
            {"p": True, "__start__": False}
        )
        assert clone.states() == prefix.states()
        assert clone.value_universe() == prefix.value_universe()

    def test_a_prefix_pickled_before_its_first_state_marks_start(self):
        prefix = pickle.loads(pickle.dumps(GrowingPrefix()))
        prefix.extend([State({"p": True}), State({"p": False}), State({"p": True})])
        assert [state.raw_values["__start__"] for state in prefix.states()] == [
            True, False, False,
        ]

    def test_a_prefix_pickled_mid_stream_continues_in_another_process(self):
        # Each stream is served in 5-state frames; halfway through, its
        # monitor's prefix is pickled and continued in a child process by a
        # fresh plan state.  Every later frame's verdicts and errors, and
        # the final columns, must equal the unbroken stream's.
        registry = StreamRegistry()
        unbroken, shipped = {}, []
        for script in generate_stream_scripts(12, seed=5, fault_rate=0.5):
            rows = trace_to_rows(script.build_trace())
            frames = [rows[start:start + 5] for start in range(0, len(rows), 5)]
            registry.handle({"op": "open", "stream": script.stream, "spec": script.spec})
            monitor = registry.stream(script.stream).monitor
            outcomes = []
            for index, frame in enumerate(frames):
                if index == len(frames) // 2:
                    checkpoint = pickle.dumps(monitor.plan_state.trace)
                    later = len(frames) - index
                registry.handle({"op": "append", "stream": script.stream, "states": frame})
                outcomes.append({
                    name: (verdict.holds, verdict.error)
                    for name, verdict in monitor.verdicts.items()
                })
            unbroken[script.stream] = (
                outcomes[-later:], column_contents(monitor.plan_state.trace.columns)
            )
            shipped.append((script.stream, script.spec, checkpoint, frames[-later:]))
        done = subprocess.run(
            [sys.executable, "-c", CONTINUE_STREAMS], input=pickle.dumps(shipped),
            capture_output=True, timeout=300,
            env={**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(repro.__file__))},
        )
        assert done.returncode == 0, done.stderr.decode()
        continued = pickle.loads(done.stdout)
        assert set(continued) == set(unbroken)
        for stream, (outcomes, contents) in unbroken.items():
            assert continued[stream][0] == outcomes, stream
            assert continued[stream][1] == contents, stream


#: Run in a child process: continue each pickled prefix with a fresh plan
#: state over the stream's later frames, answering every frame's clause
#: outcomes and the final columns.
CONTINUE_STREAMS = """
import pickle, sys
from repro.compile import compile_specification
from repro.serve.protocol import rows_to_states
from repro.serve.streams import SPEC_FACTORIES

continued = {}
for stream, spec, checkpoint, frames in pickle.load(sys.stdin.buffer):
    prefix = pickle.loads(checkpoint)
    state = compile_specification(SPEC_FACTORIES()[spec]()).evaluator(prefix)
    outcomes = []
    for frame in frames:
        prefix.extend(rows_to_states(frame))
        state.note_append()
        outcomes.append({o.name: (o.verdict, o.error) for o in state.check_all()})
    store = prefix.columns
    continued[stream] = (outcomes, [
        (name, list(column.codes), column.values, column.missing)
        for columns in (store._columns, store._op_columns)
        for name, column in columns.items()
    ])
pickle.dump(continued, sys.stdout.buffer)
"""


def column_contents(store):
    """Every column's name, codes, interned values and ``missing`` flag."""
    return [
        (name, list(column.codes), column.values, column.missing)
        for columns in (store._columns, store._op_columns)
        for name, column in columns.items()
    ]


def start_cells(count, first):
    """A window's ``__start__`` cells as the list rows binding the name give:
    True in the first cell of the trace's first window, False elsewhere."""
    cells = [False] * count
    if first:
        cells[0] = True
    return cells


def encode_start_as_list(column, count, first, new_at):
    """The reference: the same cells coded by :meth:`Column.encode`."""
    column.encode(start_cells(count, first), new_at)


def start_column_builds(build, monkeypatch):
    """What ``build()`` leaves in its store's ``__start__`` column with the
    cells written from their definition, then with the reference's list
    encoding: codes, values, ``missing``, the ``new_at`` indexes each
    window's start cells added, and the store's value universe."""
    outcomes = []
    for write in (Column.encode_start, encode_start_as_list):
        added = []

        def spy(column, count, first, new_at, write=write):
            mine = set()
            write(column, count, first, mine)
            added.append(sorted(mine))
            new_at |= mine

        monkeypatch.setattr(Column, "encode_start", spy)
        store = build()
        column = store.column("__start__")
        outcomes.append((
            list(column.codes), column.values, column.missing, added,
            store.value_universe(),
        ))
        monkeypatch.undo()
    return outcomes


def absorbed(*windows, pickle_after=None):
    """A store that absorbed ``windows`` (lists of rows), pickled and
    restored after window ``pickle_after`` if given."""
    store = ColumnStore()
    for index, rows in enumerate(windows):
        store.absorb(Window(rows, [{}] * len(rows)))
        if index == pickle_after:
            store = pickle.loads(pickle.dumps(store))
    return store


class TestStartColumn:
    """``__start__`` cells no row binds are written from the definition —
    one code at position 1, the other everywhere else — with the codes,
    values and new-value positions the list encoding of the same cells
    gives."""

    @pytest.mark.parametrize("build", [
        lambda: ColumnStore([State({"x": 3})]),
        lambda: ColumnStore([State({"x": i % 4, "p": i % 3 == 0}) for i in range(9)]),
        lambda: absorbed([{"x": 1}], [{"x": 2}, {"x": 1}, {"x": 5}], [{"x": 7}]),
        lambda: absorbed([{"x": 1}], [{"x": 2}], [{"x": 3}, {"x": 4}]),
        lambda: absorbed([{"x": 1}], [{"x": 2}, {"x": 3}], pickle_after=0),
        lambda: absorbed(
            [{"x": 1}, {"x": 2}], [{"x": 3}], [{"x": 4}, {"x": 1}], pickle_after=1,
        ),
    ], ids=[
        "static-one-state", "static", "growing-from-one-state",
        "growing-one-state-windows", "pickled-after-one-state", "pickled-mid-stream",
    ])
    def test_written_cells_equal_the_list_encoding(self, build, monkeypatch):
        direct, listed = start_column_builds(build, monkeypatch)
        assert direct == listed
        assert direct[3], "no window wrote its start cells from the definition"

    def test_rows_binding_start_keep_the_list_path(self, monkeypatch):
        rows = [{"__start__": False, "p": 1}, {"p": 2, "__start__": True}, {"p": 3}]
        direct, listed = start_column_builds(
            lambda: ColumnStore(Window(rows, [{}] * 3), mark_start=True), monkeypatch,
        )
        assert direct == listed
        codes, values, _, added, _ = direct
        assert added == []
        assert [values[code] for code in codes] == [True, True, False]


class TestBitsetKernel:
    def test_bit_positions_round_trip(self):
        bits = 0b1010010001
        assert bit_positions(bits) == [0, 4, 7, 9]

    @pytest.mark.parametrize("formula_text", [
        "p", "~p", "p /\\ q", "p \\/ ~q", "x == 2", "x != 2", "x < 3",
        "start", "[] (p -> <> q)", "<> (x == 2 /\\ p)",
        "[] (x >= 1 \\/ ~p)",
    ])
    def test_vectorized_verdicts_match_the_reference(self, formula_text):
        rows = [{"x": i % 4, "p": i % 2 == 0, "q": i % 3 == 0} for i in range(12)]
        formula = parse_formula(formula_text)
        for loop_start in (None, 1, 5):
            trace = make_trace(rows, loop_start=loop_start)
            plan = compile_formula(formula)
            vectorized = plan.evaluator(trace).satisfies()
            stepwise = plan.evaluator(trace, vectorize=False).satisfies()
            reference = Evaluator(trace).satisfies(formula)
            assert vectorized is stepwise is reference

    def test_generated_scenarios_agree_across_bindings(self):
        # Mini-fuzz: the vectorized binding, the per-position binding and
        # the reference evaluator on seeded rich-fragment scenarios.
        profile = ScenarioProfile()
        domain = profile.domain()
        for seed in range(60):
            rng = random.Random(seed)
            formula = gen_formula(rng, profile, size=7)
            trace = gen_trace(rng, profile, max_states=6)
            plan = compile_formula(formula)
            vectorized = plan.evaluator(trace, domain).satisfies()
            stepwise = plan.evaluator(trace, domain, vectorize=False).satisfies()
            reference = Evaluator(trace, domain=domain).satisfies(formula)
            assert vectorized is stepwise is reference, (seed, formula)


class TestMonitorStepCost:
    def test_appends_do_not_replay_stable_event_searches(self):
        # Satellite regression: with tail-aware memos, the event searches
        # spent per observed state stay flat as the prefix grows — the
        # stable part of every interval construction is answered from the
        # frozen memo, only tail-dependent work re-runs.
        monitor = Monitor({
            "resp": parse_formula("[] ([p] <> q)"),
            "shape": parse_formula("[] (p -> [begin(q)] r)"),
        })
        searches = []
        stats = monitor.plan_state.stats
        for i in range(60):
            before = stats.event_searches
            monitor.observe(State({
                "p": i % 3 == 0, "q": i % 3 == 1, "r": True,
            }))
            searches.append(stats.event_searches - before)
        early = max(searches[10:20])
        late = max(searches[-10:])
        # The periodic input repeats every 3 states, so per-step work must
        # not trend with the prefix length.
        assert late <= early, searches

    def test_step_costs_stay_flat_in_dispatch_calls_too(self):
        monitor = Monitor({"resp": parse_formula("[] (p -> <> q)")})
        costs = []
        for i in range(60):
            monitor.observe(State({"p": i % 2 == 0, "q": i % 2 == 1}))
            costs.append(monitor.last_step_cost)
        assert max(costs[-10:]) <= max(costs[10:20]), costs
