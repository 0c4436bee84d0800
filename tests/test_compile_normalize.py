"""The repro.compile front end: normalization passes, hash-consed DAGs and
the interval-endpoint index.

Covers the normalization-soundness satellite of the compile PR: every
random `repro.gen` formula evaluates identically pre- and post-
normalization on random traces, the individual passes do what they claim
(NNF duals, constant folding, forall flattening, canonical ordering of
commutative connectives, up-front star elimination), hash-consing
represents repeated subformulas once, and the endpoint index agrees with
the evaluator's linear changeset scan on every edge case (no changes,
change at a trace boundary, lasso cycles, `*`-events).
"""

import random

import pytest

from repro.api import Session
from repro.compile import compile_formula, normalize, structural_key
from repro.compile.dag import CompileError, DagBuilder
from repro.compile.runtime import EventIndex
from repro.errors import TraceError
from repro.gen import ScenarioProfile, gen_formula, gen_trace
from repro.semantics.construction import BOTTOM, Direction, Interval
from repro.semantics.evaluator import Evaluator
from repro.semantics.trace import INFINITY, boolean_trace, make_trace
from repro.syntax.formulas import (
    Eventually,
    FalseFormula,
    Forall,
    Or,
    TrueFormula,
    walk_formula,
)
from repro.syntax.intervals import Star
from repro.syntax.parser import parse_formula


class TestNormalizationPasses:
    def test_negation_normal_form_pushes_through_the_duals(self):
        f = parse_formula("~ [] (p /\\ <> q)")
        normalized = normalize(f)
        # ¬[](p ∧ <>q) ≡ <>(¬p ∨ []¬q), modulo the canonical operand order.
        assert normalized == normalize(parse_formula("<> (~p \\/ [] ~q)"))
        assert isinstance(normalized, Eventually)
        assert isinstance(normalized.operand, Or)

    def test_double_negation_is_eliminated(self):
        assert normalize(parse_formula("~ ~ p")) == parse_formula("p")

    def test_constant_folding(self):
        assert normalize(parse_formula("p /\\ True")) == parse_formula("p")
        assert isinstance(normalize(parse_formula("p /\\ False")), FalseFormula)
        assert isinstance(normalize(parse_formula("False -> p")), TrueFormula)
        assert isinstance(normalize(parse_formula("[] True")), TrueFormula)
        assert isinstance(normalize(parse_formula("<> False")), FalseFormula)
        assert normalize(parse_formula("p <-> True")) == parse_formula("p")

    def test_commutative_connectives_order_canonically(self):
        a = normalize(parse_formula("p /\\ (q /\\ p)"))
        b = normalize(parse_formula("(p /\\ q) /\\ p"))
        assert a == b
        a = normalize(parse_formula("q \\/ p"))
        b = normalize(parse_formula("p \\/ q"))
        assert a == b
        assert normalize(parse_formula("q <-> p")) == normalize(parse_formula("p <-> q"))

    def test_nested_forall_flattens(self):
        f = parse_formula("forall a . (forall b . <> x == ?a + ?b)")
        normalized = normalize(f)
        foralls = [n for n in walk_formula(normalized) if isinstance(n, Forall)]
        assert len(foralls) == 1
        assert foralls[0].variables == ("a", "b")

    def test_shadowing_foralls_do_not_flatten(self):
        inner = Forall(("a",), parse_formula("<> x == ?a"))
        outer = Forall(("a",), inner)
        normalized = normalize(outer)
        foralls = [n for n in walk_formula(normalized) if isinstance(n, Forall)]
        assert len(foralls) == 2

    def test_stars_are_eliminated_up_front(self):
        f = parse_formula("[*(p) => q] <> r")
        normalized = normalize(f)
        for node in walk_formula(normalized):
            for term in node.interval_terms():
                assert not term.has_star()

    def test_structural_key_is_total_and_deterministic(self):
        f = parse_formula("p /\\ q")
        g = parse_formula("p \\/ q")
        assert structural_key(f) != structural_key(g)
        assert structural_key(f) == structural_key(parse_formula("p /\\ q"))


class TestNormalizationSoundness:
    """Every generated formula evaluates identically pre/post normalization."""

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_random_formulas_on_random_traces(self, seed):
        rng = random.Random(seed)
        profile = ScenarioProfile()
        domain = profile.domain()
        for _ in range(40):
            formula = gen_formula(rng, profile, size=rng.randint(2, 12), fragment="rich")
            trace = gen_trace(rng, profile, max_states=6)
            before = Evaluator(trace, domain).satisfies(formula)
            after = Evaluator(trace, domain).satisfies(normalize(formula))
            assert before == after, (formula, trace)

    def test_normalization_is_idempotent_on_random_formulas(self):
        rng = random.Random(7)
        for _ in range(60):
            formula = gen_formula(rng, size=rng.randint(2, 12), fragment="rich")
            once = normalize(formula)
            assert normalize(once) == once, formula


class TestHashConsing:
    def test_repeated_subformulas_share_one_node(self):
        # (p ∧ q) appears three times; the DAG holds it once.
        f = parse_formula("((p /\\ q) \\/ (p /\\ q)) <-> <> (p /\\ q)")
        plan = compile_formula(f)
        shared = parse_formula("p /\\ q")
        matching = [n for n in plan.nodes if n.formula == shared]
        assert len(matching) == 1
        # Or of two equal operands has both children pointing at that node.
        assert plan.node_count < sum(1 for _ in walk_formula(normalize(f)))

    def test_free_variable_signatures_are_precomputed(self):
        plan = compile_formula(parse_formula("forall a . (<> x == ?a /\\ [] p)"))
        by_formula = {repr(n.formula): n for n in plan.nodes}
        cmp_node = by_formula[repr(parse_formula("x == ?a"))]
        assert cmp_node.free_names == ("a",)
        assert cmp_node.free_slots == (plan.slot_of["a"],)
        closed = by_formula[repr(parse_formula("[] p"))]
        assert closed.free_names == ()

    def test_state_formulas_are_marked(self):
        plan = compile_formula(parse_formula("(p /\\ ~q) \\/ <> p"))
        flags = {repr(n.formula): n.is_state for n in plan.nodes}
        assert flags[repr(normalize(parse_formula("p /\\ ~q")))] is True
        assert flags[repr(parse_formula("<> p"))] is False

    def test_star_terms_are_rejected_by_the_lowerer(self):
        from repro.syntax.intervals import EventTerm

        builder = DagBuilder({})
        with pytest.raises(CompileError):
            builder.add_term(Star(EventTerm(parse_formula("p"))))


class TestChangePositionsHook:
    """`Trace.change_positions`: the endpoint-index primitive."""

    def test_stem_positions(self):
        trace = boolean_trace(["p"], [[0], [1], [1], [0], [1]])
        stem, cycle = trace.change_positions([False, True, True, False, True])
        assert stem == [2, 5]
        assert cycle == []  # the stuttered last state never changes

    def test_no_changes(self):
        trace = boolean_trace(["p"], [[1], [1], [1]])
        stem, cycle = trace.change_positions([True, True, True])
        assert stem == [] and cycle == []

    def test_change_at_trace_boundary_wraps_into_the_cycle(self):
        # States: p = F T F with the cycle restarting at state 2 (T F T F ...):
        # virtual position 4 sees p go F→T across the wrap-around.
        trace = boolean_trace(["p"], [[0], [1], [0]], loop_start=2)
        stem, cycle = trace.change_positions([False, True, False])
        assert stem == [2]
        assert cycle == [4]

    def test_profile_length_mismatch_is_rejected(self):
        trace = boolean_trace(["p"], [[0], [1]])
        with pytest.raises(TraceError):
            trace.change_positions([True])


class TestEventIndexAgainstTheScan:
    """The bisecting index returns exactly what the evaluator's scan finds."""

    @staticmethod
    def _reference_find(trace, truth_at, i, j, direction):
        """The linear changeset scan, verbatim from the construction function."""
        bound = trace.scan_bound(i, j)
        found = []
        for k in range(i + 1, bound + 1):
            if truth_at(k - 1):
                continue
            if truth_at(k):
                if direction == Direction.FORWARD:
                    return Interval(k - 1, k)
                found.append(k)
        if direction == Direction.FORWARD or not found:
            return BOTTOM
        if j == INFINITY:
            for k in found:
                if trace.repeats_forever(k - 1):
                    return BOTTOM
        k = max(found)
        return Interval(k - 1, k)

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_random_profiles_and_contexts(self, seed):
        rng = random.Random(seed)
        for _ in range(60):
            length = rng.randint(1, 8)
            rows = [[rng.randint(0, 1)] for _ in range(length)]
            loop_start = rng.randint(1, length)
            trace = boolean_trace(["p"], rows, loop_start=loop_start)
            profile = [bool(r[0]) for r in rows]

            def truth_at(k):
                return profile[trace.canonical(k) - 1]

            index = EventIndex(trace, truth_at)

            for _ in range(12):
                i = rng.randint(1, length + 4)
                j = INFINITY if rng.random() < 0.5 else rng.randint(i, length + 8)
                direction = rng.choice([Direction.FORWARD, Direction.BACKWARD])
                expected = self._reference_find(trace, truth_at, i, j, direction)
                bound = trace.scan_bound(i, j)
                if direction == Direction.FORWARD:
                    k = index.first_change(i + 1, bound, trace.period)
                    got = BOTTOM if k is None else Interval(k - 1, k)
                else:
                    if j == INFINITY:
                        threshold = trace.loop_start + 1
                        if bound >= threshold and index.first_change(
                            max(i + 1, threshold), bound, trace.period
                        ) is not None:
                            got = BOTTOM
                        else:
                            k = index.last_change(
                                i + 1, min(bound, threshold - 1), trace.period
                            )
                            got = BOTTOM if k is None else Interval(k - 1, k)
                    else:
                        k = index.last_change(i + 1, bound, trace.period)
                        got = BOTTOM if k is None else Interval(k - 1, k)
                assert got == expected, (rows, loop_start, i, j, direction)

    @pytest.mark.parametrize("mode", ["compiled", "stepwise"])
    def test_a_static_lasso_indexes_each_event_once(self, mode):
        # A lasso with a longer cycle runs the static mode on both engines.
        # Every start's search for an event that never occurs spans the
        # rest of the lasso: the index answers each by bisection, after
        # one evaluation per concrete state, where scanning would take
        # work quadratic in the trace.
        n = 3000
        trace = make_trace([{"x": i % 7, "p": True} for i in range(n)], loop_start=n - 1)
        assert trace.period == 2
        result = Session().check(parse_formula("[] ([x == 99] p)"), mode=mode, trace=trace)
        assert result.verdict is True
        assert result.statistics["event_indexes"] == 1
        assert result.statistics["dispatch_calls"] <= 3 * n

    def test_erroring_event_formula_disables_the_index(self):
        # State 2 lacks p: the index cannot be built, the static plan state
        # records the event as unindexed, and its scan raises the
        # evaluator's exact error.
        trace = make_trace([{"p": True}, {"q": True}])
        with pytest.raises(KeyError):
            EventIndex(trace, lambda pos: bool(trace.state_at(pos)["p"]))
        formula = parse_formula("<> ([p] q)")
        state = compile_formula(formula).evaluator(trace, vectorize=False)
        with pytest.raises(Exception) as compiled_exc:
            state.satisfies()
        with pytest.raises(Exception) as interp_exc:
            Evaluator(trace).satisfies(formula)
        assert type(compiled_exc.value) is type(interp_exc.value)
        assert list(state._indexes.values()) == [None]
        assert state.index_count == 0


class TestIntervalEndpointEdgeCases:
    """Direct unit tests: empty interval search, boundary events, *-events."""

    def test_event_absent_from_the_whole_trace(self):
        trace = make_trace([{"p": False}, {"p": False}])
        assert not Evaluator(trace).satisfies(parse_formula("*(p)"))
        plan = compile_formula(parse_formula("*(p)"))
        assert not plan.evaluator(trace).satisfies()

    def test_event_at_the_trace_boundary(self):
        # The only change is into the final state.
        trace = make_trace([{"p": False}, {"p": False}, {"p": True}])
        for text in ("*(p)", "[p] [] p", "[begin(p)] ~p"):
            f = parse_formula(text)
            assert compile_formula(f).evaluator(trace).satisfies() == \
                Evaluator(trace).satisfies(f), text

    def test_event_only_in_the_lasso_cycle(self):
        # p rises only across the wrap-around of the repeating cycle.
        trace = boolean_trace(["p"], [[0], [1], [0]], loop_start=2)
        for text in ("*(p)", "[p] True", "[p =>] <> p"):
            f = parse_formula(text)
            assert compile_formula(f).evaluator(trace).satisfies() == \
                Evaluator(trace).satisfies(f), text

    def test_starred_events_match_the_on_the_fly_reduction(self):
        rng = random.Random(13)
        trace = gen_trace(rng, max_states=6, lasso_probability=0.5)
        for text in (
            "[*(p) => q] <> r",
            "*( *(p) => *(q) )",
            "[begin(*(p))] (q \\/ r)",
        ):
            f = parse_formula(text)
            assert compile_formula(f).evaluator(trace).satisfies() == \
                Evaluator(trace).satisfies(f), text

    def test_empty_context_always_eventually(self):
        # A unit context <k, k>: [] and <> degenerate to the single state.
        trace = make_trace([{"p": True}, {"p": False}])
        f = parse_formula("[begin(=>)] ([] p <-> <> p)")
        assert compile_formula(f).evaluator(trace).satisfies() == \
            Evaluator(trace).satisfies(f)
