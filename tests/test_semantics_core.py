"""Tests for states, traces, the construction function F and the evaluator.

These tests mirror the worked examples of Chapter 2 (formulas (1)–(8)), the
event validities ``[end P]P`` / ``[begin P]~P`` / ``[P]~P``, and the defining
clauses of the Chapter 3 model.
"""

import gc

import pytest
from hypothesis import given, settings, strategies as st

from repro.api import Session
from repro.errors import TraceError
from repro.semantics import (
    BOTTOM,
    Evaluator,
    INFINITY,
    Interval,
    State,
    Trace,
    boolean_trace,
    make_trace,
    satisfies,
)
from repro.semantics.construction import Direction
from repro.syntax.builder import (
    always,
    at_op,
    after_op,
    begin,
    bind_next,
    end,
    eq,
    event,
    eventually,
    forall,
    forward,
    backward,
    ge,
    gt,
    interval,
    land,
    lnot,
    lvar,
    occurs,
    prop,
    star,
    whole_context,
)


class TestStateAndTrace:
    def test_state_is_a_mapping(self):
        state = State({"x": 1, "ready": True})
        assert state["x"] == 1
        assert state.get("missing") is None
        assert len(state) == 2

    def test_state_functional_updates(self):
        state = State({"x": 1})
        updated = state.with_values(x=2, y=3)
        assert state["x"] == 1 and updated["x"] == 2 and updated["y"] == 3
        with_op = state.with_operation("Enq", "at", (5,))
        assert with_op.operation("Enq").phase == "at"
        assert state.operation("Enq").phase == "idle"

    def test_state_equality_and_hash(self):
        assert State({"x": 1}) == State({"x": 1})
        assert hash(State({"x": 1})) == hash(State({"x": 1}))
        assert State({"x": 1}) != State({"x": 2})

    def test_trace_requires_states(self):
        with pytest.raises(TraceError):
            Trace([])

    def test_trace_marks_start(self):
        trace = boolean_trace(["p"], [[1], [0]])
        assert trace.state_at(1)["__start__"] is True
        assert trace.state_at(2)["__start__"] is False

    def test_stutter_extension_is_default(self):
        trace = boolean_trace(["p"], [[1], [0]])
        assert trace.is_stutter_extended
        assert trace.period == 1
        assert trace.state_at(50) == trace.state_at(2)

    def test_lasso_positions(self):
        trace = boolean_trace(["p"], [[1], [0], [1]], loop_start=2)
        assert trace.period == 2
        assert trace.canonical(4) == 2
        assert trace.canonical(5) == 3
        assert trace.state_at(4)["p"] is False

    def test_invalid_loop_start(self):
        with pytest.raises(TraceError):
            boolean_trace(["p"], [[1]], loop_start=5)

    def test_suffix_representatives_finite_and_infinite(self):
        trace = boolean_trace(["p"], [[1], [0], [1]], loop_start=2)
        assert trace.suffix_representatives(1, 3) == [1, 2, 3]
        assert trace.suffix_representatives(1, INFINITY) == [1, 2, 3]
        assert trace.suffix_representatives(2, INFINITY) == [2, 3]
        assert trace.suffix_representatives(3, INFINITY) == [3, 4]

    def test_make_trace_with_operations(self):
        trace = make_trace(
            [{"x": 1}, {"x": 2}],
            operations=[{}, {"Enq": ("at", (7,), ())}],
        )
        assert trace.state_at(2).operation("Enq").phase == "at"
        assert trace.value_universe() == (1, 2, 7)

    @given(st.lists(st.booleans(), min_size=1, max_size=6), st.integers(1, 6),
           st.integers(1, 30))
    def test_state_at_respects_periodicity(self, values, loop, position):
        loop_start = min(loop, len(values))
        trace = boolean_trace(["p"], [[int(v)] for v in values], loop_start=loop_start)
        canonical = trace.canonical(position)
        assert trace.state_at(position) == trace.state_at(canonical)
        if position > trace.length:
            assert trace.state_at(position + trace.period) == trace.state_at(position)


# A five-state trace used by most construction and evaluation tests:
#   state:   1  2  3  4  5
#   A:       0  1  1  0  0
#   B:       0  0  0  1  1
#   C:       0  0  0  0  1
#   D:       0  0  1  0  0
_TRACE = boolean_trace(
    ["A", "B", "C", "D"],
    [
        [0, 0, 0, 0],
        [1, 0, 0, 0],
        [1, 0, 0, 1],
        [0, 1, 0, 0],
        [0, 1, 1, 0],
    ],
)
_EV = Evaluator(_TRACE)
A, B, C, D = prop("A"), prop("B"), prop("C"), prop("D")


class TestConstructionFunction:
    def test_event_interval_is_the_change_pair(self):
        assert _EV.construct_interval(event(A)) == Interval(1, 2)
        assert _EV.construct_interval(event(B)) == Interval(3, 4)
        assert _EV.construct_interval(event(C)) == Interval(4, 5)

    def test_event_not_found_is_bottom(self):
        missing = prop("A") & prop("C")
        assert _EV.construct_interval(event(missing)) is BOTTOM

    def test_begin_and_end_extract_unit_intervals(self):
        assert _EV.construct_interval(begin(event(A))) == Interval(1, 1)
        assert _EV.construct_interval(end(event(A))) == Interval(2, 2)

    def test_end_of_infinite_interval_is_bottom(self):
        # A => selects <end A, infinity>; its end is undefined.
        assert _EV.construct_interval(end(forward(event(A), None))) is BOTTOM

    def test_whole_context(self):
        assert _EV.construct_interval(whole_context()) == Interval(1, INFINITY)

    def test_forward_with_one_argument(self):
        assert _EV.construct_interval(forward(event(A), None)) == Interval(2, INFINITY)
        assert _EV.construct_interval(forward(None, event(B))) == Interval(1, 4)

    def test_forward_composition(self):
        # A => B: from the end of the A event to the end of the next B event.
        assert _EV.construct_interval(forward(event(A), event(B))) == Interval(2, 4)

    def test_backward_composition(self):
        # A <= C: locate the first C, then the most recent A before its end.
        assert _EV.construct_interval(backward(event(A), event(C))) == Interval(2, 5)

    def test_backward_single_argument_uses_last_event(self):
        trace = boolean_trace(["A"], [[0], [1], [0], [1], [0]])
        evaluator = Evaluator(trace)
        # A <= : from the end of the *last* A event onward.
        assert evaluator.construct_interval(backward(event(prop("A")), None)) == Interval(4, INFINITY)

    def test_backward_infinite_changeset_is_bottom(self):
        # A lasso in which A keeps toggling: infinitely many A events.
        trace = boolean_trace(["A"], [[0], [1], [0], [1]], loop_start=2)
        evaluator = Evaluator(trace)
        assert evaluator.construct_interval(backward(event(prop("A")), None)) is BOTTOM

    def test_example_7_search_order(self):
        # Formula (7): [(A => B) <= C] — forward to C, back to the most recent
        # A, forward to the next B.
        found = _EV.construct_interval(backward(forward(event(A), event(B)), event(C)))
        assert found == Interval(4, 5)

    def test_example_8_begin_backward(self):
        # Formula (8): [ begin(A <= B) <= C ] — extends back from the first C
        # to the beginning of the most recent A <= B interval.
        found = _EV.construct_interval(backward(begin(backward(event(A), event(B))), event(C)))
        assert found == Interval(2, 5)

    def test_star_modifier_is_transparent_for_construction(self):
        assert _EV.construct_interval(star(event(A))) == _EV.construct_interval(event(A))


class TestEvaluator:
    def test_atomic_formula_reads_the_first_state(self):
        assert _EV.holds(A, 2, INFINITY)
        assert not _EV.holds(A, 1, INFINITY)

    def test_paper_event_validities(self):
        # [end P]P, [begin P]~P, [P]~P for a predicate event P.
        for p in (A, B, C, D):
            assert _EV.satisfies(interval(end(event(p)), p))
            assert _EV.satisfies(interval(begin(event(p)), lnot(p)))
            assert _EV.satisfies(interval(event(p), lnot(p)))

    def test_vacuous_satisfaction_when_interval_missing(self):
        impossible = land(A, C)
        assert _EV.satisfies(interval(event(impossible), False))
        assert not _EV.satisfies(occurs(event(impossible)))

    def test_example_3_nested_context(self):
        # [(A => B) => C] <> D: after the A-to-B interval, up to C, D occurs?
        # D only occurs at state 3, before B ends, so the formula fails ...
        formula = interval(forward(forward(event(A), event(B)), event(C)), eventually(D))
        assert not _EV.satisfies(formula)
        # ... while <> ~D trivially holds there.
        assert _EV.satisfies(interval(forward(forward(event(A), event(B)), event(C)),
                                      eventually(lnot(D))))

    def test_example_1_with_arithmetic_events(self):
        # [ x = y => y = 16 ] [] x > z  (Chapter 2.1, formula (1)).
        rows = [
            {"x": 1, "y": 5, "z": 0},
            {"x": 5, "y": 5, "z": 1},    # x = y becomes true
            {"x": 7, "y": 9, "z": 2},
            {"x": 8, "y": 16, "z": 3},   # y = 16 becomes true
            {"x": 0, "y": 0, "z": 5},
        ]
        trace = make_trace(rows)
        formula = interval(
            forward(event(eq("x", "y")), event(eq("y", 16))),
            always(gt("x", "z")),
        )
        assert satisfies(trace, formula)
        # Lowering x inside the interval breaks the invariant.
        rows[2]["x"] = 1
        assert not satisfies(make_trace(rows), formula)

    def test_always_and_eventually_over_intervals(self):
        assert _EV.satisfies(interval(forward(event(A), event(B)), eventually(D)))
        assert not _EV.satisfies(interval(forward(event(A), event(B)), always(A)))
        assert _EV.satisfies(interval(forward(None, event(A)), always(lnot(B))))

    def test_occurs_matches_its_definition(self):
        # V4: *I === ~[I]False, checked directly on this trace.
        for term in (event(A), forward(event(A), event(B)), event(land(A, C))):
            assert _EV.satisfies(occurs(term)) == _EV.satisfies(lnot(interval(term, False)))

    @pytest.mark.parametrize("text", [
        "[] (x == 1 -> <> p)",
        "forall a . [] (x == ?a -> <> p)",
        "[] [(x == 1) => p] <> p",
    ])
    def test_a_checked_evaluator_is_freed_by_reference_counting(self, text):
        # Neither the interval constructor's callback nor the quantifier's
        # recursion may point back at the evaluator: with the collector off,
        # a finished check — one constructing intervals included — leaves
        # it nothing to find: no evaluator, memo, memo keys or closure
        # cells.
        trace = make_trace([{"x": i % 3, "p": i % 4 == 0} for i in range(50)])
        gc.collect()
        gc.disable()
        try:
            assert Session().check(text, mode="trace", trace=trace).verdict is not None
            gc.set_debug(gc.DEBUG_SAVEALL)
            gc.collect()
            left = [type(obj).__name__ for obj in gc.garbage]
        finally:
            gc.set_debug(0)
            del gc.garbage[:]
            gc.enable()
        assert left == [], sorted(set(left))

    def test_forall_over_explicit_domain(self):
        trace = make_trace([{"x": 1}, {"x": 2}, {"x": 3}])
        f = forall("a", interval(forward(event(eq("x", lvar("a"))), None), ge("x", lvar("a"))))
        assert satisfies(trace, f, domain={"a": [2, 3]})

    def test_forall_defaults_to_trace_universe(self):
        trace = make_trace([{"x": 1}, {"x": 2}])
        f = forall("a", eventually(eq("x", lvar("a"))))
        assert satisfies(trace, f)

    def test_next_binding_binds_next_call_arguments(self):
        trace = make_trace(
            [{}, {}, {}],
            operations=[{}, {"O": ("at", (4,), ())}, {"O": ("after", (4,), ())}],
        )
        bound = bind_next("O", "b", eventually(at_op("O", lvar("b"))))
        assert satisfies(trace, bound)
        impossible = bind_next("O", "b", eventually(at_op("O", 99)))
        assert not satisfies(trace, impossible)

    def test_next_binding_vacuous_without_a_call(self):
        trace = make_trace([{"x": 1}])
        assert satisfies(trace, bind_next("O", "b", False))

    def test_operation_lifecycle_axioms_hold_for_driver_traces(self):
        from repro.core.operations import Operation
        from repro.systems.simulator import OperationDriver, TraceBuilder

        builder = TraceBuilder()
        builder.commit()
        driver = OperationDriver(builder, "Op")
        driver.call(1, busy_steps=2)
        driver.call(2, busy_steps=1)
        builder.commit()
        trace = builder.build()
        for axiom in Operation("Op", ("v",)).axioms():
            assert satisfies(trace, axiom), str(axiom)
        assert satisfies(trace, Operation("Op", ("v",)).termination_axiom())

    def test_monotonic_parameter_requirement(self):
        # Chapter 2.2: the operation's parameter increases monotonically.
        def op_trace(values):
            ops = []
            for value in values:
                ops.append({"O": ("at", (value,), ())})
                ops.append({"O": ("after", (value,), ())})
            return make_trace([{} for _ in ops], operations=ops)

        requirement = forall(
            ("a", "b"),
            interval(
                forward(event(at_op("O", lvar("a"))), event(at_op("O", lvar("b")))),
                gt(lvar("b"), lvar("a")),
            ),
        )
        assert satisfies(op_trace([1, 2, 5]), requirement)
        assert not satisfies(op_trace([1, 5, 2]), requirement)
