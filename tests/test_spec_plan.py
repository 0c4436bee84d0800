"""Multi-root spec plans, closure-lowered dispatch, and the new defaults.

Covers the multi-layer refactor's acceptance criteria: clauses sharing a
subformula evaluate it once per position in one ``PlanState`` (asserted
through evaluation counters), spec-plan verdicts match the per-clause
compiled engine over the full ``tests/corpus/`` families, the bounded LRU
plan cache evicts with statistics, comparison atoms are indexed once per
event and binding (and, on the kernel path, tested once per distinct
value), and the session-level fallbacks audit themselves on
``engine_reason``.
"""

import json
import os
from dataclasses import dataclass

import pytest

from repro.api import CheckRequest, Session
from repro.checking import ConformanceCase, run_conformance
from repro.checking.monitor import Monitor, SpecificationMonitor
from repro.compile import (
    ClauseOutcome,
    CompileError,
    EventIndex,
    PlanCache,
    SpecPlan,
    compile_formula,
    compile_specification,
    spec_digest,
)
from repro.core.specification import Specification
from repro.gen import Case, TraceSpec, load_corpus
from repro.gen.fuzz import FuzzConfig, gen_spec_case
from repro.gen.oracle import DifferentialOracle
from repro.semantics.evaluator import Evaluator
from repro.semantics.trace import make_trace
from repro.specs import mutex_spec, request_ack_spec, unreliable_queue_spec
from repro.syntax.formulas import Atom
from repro.syntax.parser import parse_formula
from repro.syntax.terms import Prop
from repro.syntax.builder import always, eventually, implies, lor, prop
from repro.systems import mutex_trace, request_ack_trace, unreliable_queue_trace

CORPUS_DIR = os.path.join(os.path.dirname(__file__), "corpus")


_COUNTS = {}


@dataclass(frozen=True)
class CountingProp(Prop):
    """A proposition that counts its concrete evaluations."""

    def holds(self, state, env):
        _COUNTS[self.name] = _COUNTS.get(self.name, 0) + 1
        return super().holds(state, env)


class TestSpecPlanSharing:
    def test_shared_subformula_evaluates_once_per_position(self):
        """The tentpole claim, asserted on evaluation counters: a second
        clause reading an already-decided shared atom costs zero further
        predicate evaluations."""
        _COUNTS.clear()
        shared = Atom(CountingProp("p"))
        other = prop("q")
        trace = make_trace([{"p": True, "q": i % 2 == 0} for i in range(8)])
        plan = SpecPlan([
            ("a", always(shared)),
            ("b", always(lor(shared, other))),
        ])
        state = plan.evaluator(trace)
        assert state.satisfies("a") is True
        after_first = _COUNTS["p"]
        assert 0 < after_first <= trace.length
        assert state.satisfies("b") is True
        # Clause b's occurrences of the shared atom hit the position memo.
        assert _COUNTS["p"] == after_first

        # The per-clause baseline pays twice.
        _COUNTS.clear()
        for formula in (always(shared), always(lor(shared, other))):
            compile_formula(formula).evaluator(trace).satisfies()
        assert _COUNTS["p"] == 2 * after_first

    def test_interned_tables_smaller_than_per_clause_sum(self):
        plan = compile_specification(mutex_spec(3))
        assert plan.shared_node_count() > 0
        assert len(plan.roots) == len(mutex_spec(3).clauses)
        assert plan.clause_names == tuple(
            c.name for c in mutex_spec(3).clauses
        )

    def test_shared_event_indexes_across_clauses(self):
        """The A1 clause family shares its interval-term event indexes: on
        the kernel path the multi-root state builds fewer change indexes
        than the per-clause states together, and no per-position index."""
        spec = mutex_spec(3)
        trace = mutex_trace(3, entries=4, seed=1)
        state = compile_specification(spec).evaluator(trace)
        for name in state.plan.clause_names:
            state.satisfies(name)
        assert not state._indexes
        shared = state._kernel.change_index_count
        separate = 0
        for clause in spec.clauses:
            single = compile_formula(clause.interpreted_formula()).evaluator(trace)
            single.satisfies()
            assert not single._indexes
            separate += single._kernel.change_index_count
        assert 0 < shared < separate
        assert state.index_count == shared

    def test_one_formula_is_one_plan(self):
        """A formula compiles to the one-clause plan: checking it and
        checking the one-axiom specification of that clause name and formula
        share one compilation, and its plan state answers one clause."""
        formula = parse_formula("[] (p -> <> q)")
        trace = make_trace([{"p": i % 3 == 0, "q": i % 3 == 1} for i in range(7)])
        (name,) = compile_formula(formula).clause_names
        spec = Specification("one formula").add_axiom(name, formula)
        session = Session()
        checked = session.check(formula, trace=trace, mode="compiled")
        result = session.check_spec(spec, trace)
        assert checked.verdict is False
        assert [v.holds for v in result.verdicts] == [False]
        assert session.cache_statistics()["plan_cache_misses"] == 1
        outcomes = compile_formula(formula).evaluator(trace).check_all()
        assert outcomes == [ClauseOutcome(name, False)]

    def test_duplicate_clause_names_rejected(self):
        with pytest.raises(ValueError, match="unique"):
            SpecPlan([("a", prop("p")), ("a", prop("q"))])

    def test_unknown_clause_name(self):
        state = SpecPlan([("a", prop("p"))]).evaluator(make_trace([{"p": True}]))
        with pytest.raises(KeyError, match="no clause named"):
            state.satisfies("nope")

    def test_check_all_captures_per_clause_errors(self):
        trace = make_trace([{"p": True}])
        state = SpecPlan([
            ("ok", prop("p")),
            ("bad", prop("missing")),
            ("ok2", eventually(prop("p"))),
        ]).evaluator(trace)
        outcomes = state.check_all()
        assert [o.name for o in outcomes] == ["ok", "bad", "ok2"]
        assert outcomes[0].verdict is True and outcomes[0].error is None
        assert outcomes[1].verdict is None
        assert "UnknownStateVariableError" in outcomes[1].error
        assert outcomes[2].verdict is True


def _trace_groups():
    groups = {}
    for name in ("specs.jsonl", "faulty_traces.jsonl"):
        for case in load_corpus(os.path.join(CORPUS_DIR, name)):
            if case.kind != "trace" or case.domain:
                continue
            key = json.dumps(case.trace.to_json(), sort_keys=True)
            groups.setdefault(key, []).append(case)
    return groups


class TestCorpusParity:
    """Spec-plan verdicts == per-clause compiled engine on tests/corpus/."""

    def test_specs_and_faulty_traces_families(self):
        session = Session()
        checked = 0
        for _, cases in _trace_groups().items():
            trace = cases[0].trace.build()
            items = [(case.id or f"c{i}", parse_formula(case.formula))
                     for i, case in enumerate(cases)]
            state = SpecPlan(items).evaluator(trace)
            for (name, formula), case in zip(items, cases):
                compiled = session.check(formula, mode="compiled", trace=trace,
                                         capture_errors=True)
                try:
                    verdict = state.satisfies(name)
                except Exception:
                    verdict = None
                assert verdict == compiled.verdict, case.id
                if case.expect and "compiled" in case.expect:
                    assert verdict is case.expect["compiled"], case.id
                checked += 1
        assert checked >= 80  # both families, every clause

    def test_catalogue_family_on_boolean_traces(self):
        cases = load_corpus(os.path.join(CORPUS_DIR, "catalogue.jsonl"))
        items = [(case.id, parse_formula(case.formula)) for case in cases]
        names = sorted({v for case in cases for v in (case.variables or [])})
        plan = SpecPlan(items)
        session = Session()
        for seed in (0, 1, 2):
            rows = [
                {name: bool((position + seed + k) % (2 + k))
                 for k, name in enumerate(names)}
                for position in range(5)
            ]
            trace = make_trace(rows)
            state = plan.evaluator(trace)
            for name, formula in items:
                direct = session.check(formula, mode="compiled", trace=trace,
                                       capture_errors=True)
                try:
                    verdict = state.satisfies(name)
                except Exception:
                    verdict = None
                assert verdict == direct.verdict, name


class TestConformanceViaSpecPlans:
    CASES = [
        ConformanceCase("correct", lambda s: mutex_trace(2, entries=3, seed=s),
                        True, seeds=(0, 1)),
    ]

    def test_run_conformance_matches_seed_loop(self):
        spec = mutex_spec(2)
        report = run_conformance(spec, self.CASES)
        assert report.all_as_expected
        for outcome in report.outcomes:
            for seed, result in zip(outcome.case.seeds, outcome.results):
                direct = spec.check(mutex_trace(2, entries=3, seed=seed))
                assert [(v.clause.name, v.holds) for v in result.verdicts] == \
                       [(v.clause.name, v.holds) for v in direct.verdicts]

    def test_check_spec_opt_out_matches_default(self):
        spec = unreliable_queue_spec()
        trace = unreliable_queue_trace(4, seed=3)
        session = Session()
        default = session.check_spec(spec, trace)
        per_clause = session.check_spec(spec, trace, compiled=False)
        assert [(v.clause.name, v.holds) for v in default.verdicts] == \
               [(v.clause.name, v.holds) for v in per_clause.verdicts]

    def test_spec_plan_reused_across_traces(self):
        spec = mutex_spec(2)
        session = Session()
        session.check_spec(spec, mutex_trace(2, entries=3, seed=0))
        misses = session.plan_cache.misses
        session.check_spec(spec, mutex_trace(2, entries=3, seed=1))
        assert session.plan_cache.misses == misses  # plan resolved by identity

    def test_compile_error_falls_back_to_per_clause(self, monkeypatch):
        spec = mutex_spec(2)
        trace = mutex_trace(2, entries=3, seed=0)
        session = Session()
        expected = [(v.clause.name, v.holds)
                    for v in session.check_spec(spec, trace, compiled=False).verdicts]

        def boom(*args, **kwargs):
            raise CompileError("cannot lower")
        monkeypatch.setattr(session, "spec_plan_state", boom)
        result = session.check_spec(spec, trace)
        assert [(v.clause.name, v.holds) for v in result.verdicts] == expected


class TestLRUPlanCache:
    def test_eviction_and_statistics(self):
        cache = PlanCache(max_plans=2)
        f1, f2, f3 = (parse_formula(t) for t in ("<> p", "[] p", "<> q"))
        cache.get(f1); cache.get(f2)
        cache.get(f1)              # refresh f1: f2 becomes LRU
        cache.get(f3)              # evicts f2
        assert cache.evictions == 1
        _, from_cache = cache.get(f1)
        assert from_cache          # f1 survived the eviction
        _, from_cache = cache.get(f2)
        assert not from_cache      # f2 was evicted and recompiled
        stats = cache.statistics()
        assert stats["plan_cache_capacity"] == 2
        assert stats["plan_cache_evictions"] == 2  # f3's insert evicted again
        cache.clear()
        assert cache.statistics()["plan_cache_evictions"] == 0

    def test_rejects_nonpositive_capacity(self):
        with pytest.raises(ValueError):
            PlanCache(max_plans=0)

    def test_session_drops_monitor_entries_of_evicted_plans(self):
        session = Session()
        session._plan_cache = PlanCache(
            max_plans=1, on_evict=session._drop_plan_states_for
        )
        first = {"a": parse_formula("<> p")}
        session.monitor(first)
        assert session.monitor(first).plan_from_cache  # served by identity
        assert session.cache_statistics()["monitor_plan_entries"] == 1
        session.monitor({"b": parse_formula("<> q")})  # evicts the <> p plan
        assert session.plan_cache.evictions == 1
        assert session.cache_statistics()["monitor_plan_entries"] == 1
        # The evicted plan is compiled again, not served through identity.
        assert not session.monitor(first).plan_from_cache

    def test_spec_identity_cache_is_bounded_and_follows_evictions(self):
        """Regression: evicted spec plans must not survive (or be served)
        through the identity shortcut, and streaming fresh Specification
        objects must not grow the identity cache without bound."""
        session = Session()
        session._plan_cache = PlanCache(
            max_plans=2, on_evict=session._drop_plan_states_for
        )
        trace = make_trace([{"p": True, "q": True}])
        specs = [
            Specification(f"s{i}").add_axiom("a", parse_formula(f"<> ([p] x == {i})"))
            for i in range(6)
        ]
        for spec in specs:
            session.check_spec(spec, make_trace([{"p": True, "x": 1}]))
        # Identity entries follow the LRU: only the plans still cached stay.
        assert len(session._spec_plans) <= 2
        assert session.plan_cache.evictions == 4
        # A capacity's worth of distinct specs never exceeds the bound.
        assert len(session._spec_plans) <= session._SPEC_PLAN_IDENTITY_CAPACITY

    def test_spec_compile_failure_is_negative_cached(self, monkeypatch):
        session = Session()
        spec = mutex_spec(2)
        trace = mutex_trace(2, entries=2, seed=0)
        calls = {"n": 0}

        def boom(*args, **kwargs):
            calls["n"] += 1
            raise CompileError("cannot lower")
        monkeypatch.setattr(session, "spec_plan_state", boom)
        first = session.check_spec(spec, trace)
        second = session.check_spec(spec, trace)
        assert calls["n"] == 1  # the failed compilation is not re-paid
        assert [(v.clause.name, v.holds) for v in first.verdicts] == \
               [(v.clause.name, v.holds) for v in second.verdicts]

    def test_spec_plans_share_the_lru(self):
        cache = PlanCache()
        items = [("a", parse_formula("<> p")), ("b", parse_formula("[] q"))]
        plan, fresh = cache.get_spec(items)
        again, hit = cache.get_spec(items)
        assert plan is again and hit and not fresh
        assert plan.digest == spec_digest(items)


class TestComparisonEvents:
    def test_constant_comparisons_index_each_event_once(self):
        # vectorize=False binds the static per-position mode this test is
        # about: one EventIndex per comparison event, built once.
        rows = [{"x": i % 5, "p": True} for i in range(40)]
        trace = make_trace(rows)
        items = [(f"c{c}", parse_formula(f"[] ([x == {c}] p)")) for c in range(5)]
        state = SpecPlan(items).evaluator(trace, vectorize=False)
        evaluator = Evaluator(trace)
        for (name, formula) in items:
            assert state.satisfies(name) == evaluator.satisfies(formula), name
        assert state._kernel is None
        assert len(state._indexes) == len(items)
        assert all(isinstance(ix, EventIndex) for ix in state._indexes.values())
        assert state.index_count == len(items)

    def test_kernel_comparisons_test_each_distinct_value_once(self):
        # The same spec through the default binding (a stutter-terminated
        # trace read as a finished prefix) answers identically, and each
        # comparison event is searched through one kernel change index
        # whose profile tested each distinct value of x once: no static
        # index.
        rows = [{"x": i % 5, "p": True} for i in range(40)]
        trace = make_trace(rows)
        items = [(f"c{c}", parse_formula(f"[] ([x == {c}] p)")) for c in range(5)]
        state = SpecPlan(items).evaluator(trace)
        evaluator = Evaluator(trace)
        for (name, formula) in items:
            assert state.satisfies(name) == evaluator.satisfies(formula), name
        assert not state._indexes
        kernel = state._kernel
        assert kernel.change_index_count == len(items)
        comparisons = [
            node for node in state._nodes
            if node.predicate is not None and str(node.predicate).startswith("x ==")
        ]
        assert len(comparisons) == len(items)
        assert all(len(kernel._entries[node.id].passes) == 5 for node in comparisons)

    def test_inequality_and_flipped_orientation(self):
        trace = make_trace([{"x": i % 3} for i in range(12)])
        session = Session()
        for text in ("<> ([x != 1] true)", "<> ([2 == x] true)"):
            formula = parse_formula(text)
            compiled = session.check(formula, trace=trace, mode="compiled")
            assert compiled.verdict == Evaluator(trace).satisfies(formula), text

    def test_bound_logical_variable_comparisons(self):
        trace = make_trace([{"x": i % 4} for i in range(16)])
        formula = parse_formula("forall a . <> ([x == ?a] true)")
        state = compile_formula(formula).evaluator(trace, vectorize=False)
        assert state.satisfies() == Evaluator(trace).satisfies(formula)
        # One EventIndex per binding of a, over the value universe 0..3.
        assert sorted(key[1:] for key in state._indexes) == [(0,), (1,), (2,), (3,)]
        assert all(isinstance(ix, EventIndex) for ix in state._indexes.values())

    def test_missing_variable_error_behaviour_unchanged(self):
        # A state without x: the kernel profile dies and the scan must
        # reproduce the evaluator's exact error.
        trace = make_trace([{"x": 1, "p": True}, {"p": True}, {"x": 2, "p": True}])
        formula = parse_formula("<> ([x == 2] p)")
        with pytest.raises(Exception) as compiled_exc:
            compile_formula(formula).evaluator(trace).satisfies()
        with pytest.raises(Exception) as interp_exc:
            Evaluator(trace).satisfies(formula)
        assert type(compiled_exc.value) is type(interp_exc.value)


class TestMonitorSharing:
    def test_monitor_compiles_one_multi_root_plan(self):
        monitor = Monitor({
            "resp": parse_formula("[] (p -> <> q)"),
            "evt": parse_formula("[] ([p] q)"),
        })
        assert len(monitor.plan_state.plan.roots) == 2

    def test_specification_monitor_shares_and_detects(self):
        spec = request_ack_spec()
        monitor = SpecificationMonitor(spec)
        assert len(monitor.plan_state.plan.roots) == len(spec.clauses)
        monitor.observe_trace(request_ack_trace(cycles=2, seed=1))
        assert monitor.failing() == []


class TestSpecFuzzCases:
    def test_gen_spec_case_is_deterministic_and_round_trips(self):
        import random

        config = FuzzConfig(seed=42, specs=True)
        case = gen_spec_case(random.Random(42), config, 0)
        again = gen_spec_case(random.Random(42), config, 0)
        assert case.to_line() == again.to_line()
        assert case.kind == "spec" and len(case.clauses) >= 2
        rebuilt = Case.from_json(json.loads(case.to_line()))
        assert rebuilt.clauses == case.clauses
        for clause in rebuilt.parsed_clauses():
            assert clause is not None

    def test_oracle_judges_spec_cases_and_detects_bad_expectations(self):
        oracle = DifferentialOracle(shrink=False)
        case = Case(
            kind="spec",
            formula="",
            clauses=["[] (p -> <> q)", "<> p"],
            trace=TraceSpec(rows=[{"p": True, "q": False}, {"p": False, "q": True}]),
        )
        reason, per_engine = oracle.check_case(case)
        assert reason is None
        assert {name.split("[")[0] for name in per_engine} == \
               {"trace", "compiled", "stepwise", "specplan"}
        pinned = oracle.record_expectations(case)
        assert pinned.expect and all(
            isinstance(v, bool) for v in pinned.expect.values()
        )
        broken = pinned.replacing(
            expect={**pinned.expect,
                    "specplan[0]": not pinned.expect["specplan[0]"]}
        )
        reason, _ = oracle.check_case(broken)
        assert reason is not None and "specplan[0]" in reason

    def test_spec_plans_corpus_family_checked_in(self):
        path = os.path.join(CORPUS_DIR, "spec_plans.jsonl")
        assert os.path.exists(path)
        cases = load_corpus(path)
        assert len(cases) >= 8
        assert all(case.kind == "spec" and case.clauses for case in cases)
        assert all(case.expect for case in cases)
        assert any(len(case.clauses) >= 5 for case in cases)


class TestEngineReasonAndFallback:
    def test_compiled_run_falls_back_to_trace_on_compile_error(self):
        session = Session()
        engine = session.registry.get("compiled")

        class Exploding(type(engine)):
            def run(self, request, session):
                raise CompileError("deliberately unlowerable")

        broken = Exploding()
        session.register_engine(broken, replace=True)
        result = session.check("<> p", trace=[{"p": False}, {"p": True}])
        assert result.engine == "trace"
        assert result.verdict is True
        assert "fell back to trace on CompileError" in result.engine_reason

    def test_explicit_compiled_mode_does_not_fall_back(self):
        session = Session()
        engine = session.registry.get("compiled")

        class Exploding(type(engine)):
            def run(self, request, session):
                raise CompileError("deliberately unlowerable")

        session.register_engine(Exploding(), replace=True)
        with pytest.raises(CompileError):
            session.check("<> p", trace=[{"p": True}], mode="compiled")

    def test_specification_digest_is_structural(self):
        assert mutex_spec(2).digest == mutex_spec(2).digest
        assert mutex_spec(2).digest != mutex_spec(3).digest
        spec = Specification("s").add_axiom("a", parse_formula("<> p"))
        assert spec.digest == \
            Specification("other").add_axiom("a", parse_formula("<> p")).digest
