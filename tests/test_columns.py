"""Column-major trace storage and the vectorized bitset kernel.

Three invariants pin the tentpole of the columnar refactor:

* the lazy row view (``states`` / ``state_at`` / iteration) reconstructed
  from dictionary-encoded columns is **exactly** the row-major trace it
  replaced, including ``__start__`` marking and canonical lasso wrapping;
* pickling ships columns and rebuilds identical rows on the other side
  (the ``check_many`` worker handoff);
* the vectorized kernel's whole-column verdicts agree with the
  per-position compiled runtime and the Chapter 3 reference evaluator on
  generated scenarios.
"""

import pickle
import random

import pytest

from repro.checking.monitor import Monitor
from repro.compile import compile_formula
from repro.compile.vector import BitsetKernel, bit_positions, changes_from_bits
from repro.gen.generators import ScenarioProfile, gen_formula, gen_trace
from repro.semantics.columns import ABSENT, ColumnStore
from repro.semantics.evaluator import Evaluator
from repro.semantics.state import State
from repro.semantics.trace import Trace, boolean_trace, make_trace
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


class TestBitsetKernel:
    def test_bit_positions_round_trip(self):
        bits = 0b1010010001
        assert bit_positions(bits) == [0, 4, 7, 9]

    def test_changes_from_bits_matches_change_positions(self):
        trace = boolean_trace(["p"], [[0], [1], [1], [0], [1]], loop_start=2)
        profile = [bool(s["p"]) for s in trace.states()]
        plan = compile_formula(parse_formula("p"))
        state = plan.evaluator(trace)
        kernel = BitsetKernel(state, trace)
        node = next(n for n in state._nodes if n.predicate is not None)
        bits = kernel.profile(node)
        assert bits is not None
        # The change index is the stem; the lasso cycle comes from the bits.
        assert (list(kernel.changes(node)), changes_from_bits(bits, trace)) == (
            trace.change_positions(profile)
        )

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
        for i in range(60):
            monitor.observe(State({"p": i % 2 == 0, "q": i % 2 == 1}))
        assert max(monitor.step_costs[-10:]) <= max(monitor.step_costs[10:20]), \
            monitor.step_costs
