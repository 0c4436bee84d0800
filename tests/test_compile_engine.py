"""The `compiled` engine, the session plan cache, and the incremental
monitor rewrite.

Covers the compile PR's acceptance criteria at the façade level: the
``compiled`` engine is registered with capabilities and agrees with the
Chapter 3 evaluator on random scenarios (the full-corpus and fuzz-campaign
gates run in CI), the session plan cache hits across ``check_many`` batches
and across traces, auto-dispatch honours ``compile=True`` /
``Session(prefer_compiled=True)``, and the rewritten ``Monitor`` keeps its
public verdict API while absorbing each appended state in flat — no longer
prefix-proportional — per-step work.
"""

import pytest

from repro.api import CheckRequest, Session
from repro.checking.monitor import Monitor, SpecificationMonitor
from repro.gen import FuzzConfig, gen_cases
from repro.semantics.evaluator import Evaluator
from repro.semantics.state import State
from repro.semantics.trace import Trace, make_trace
from repro.specs import request_ack_spec
from repro.syntax.parser import parse_formula
from repro.systems import request_ack_trace

ROWS = [{"x": 1, "p": False}, {"x": 2, "p": True}]


class TestCompiledEngine:
    def test_registered_with_capabilities(self):
        session = Session()
        assert "compiled" in session.engines
        caps = session.capabilities()["compiled"]
        assert caps.needs_trace and caps.exact and not caps.incremental

    def test_explicit_mode(self):
        result = Session().check("<> x == 2", trace=ROWS, mode="compiled")
        assert result.engine == "compiled"
        assert result.verdict is True
        assert result.statistics["plan_nodes"] > 0
        assert result.statistics["plan_from_cache"] is False

    def test_auto_dispatch_defaults_to_compiled(self):
        result = Session().check("<> x == 2", trace=ROWS)
        assert result.engine == "compiled"
        assert "prefer_compiled" in (result.engine_reason or "")

    def test_request_compile_option_routes_to_compiled(self):
        session = Session()
        assert session.check("<> x == 2", trace=ROWS, compile=True).engine == "compiled"
        assert session.check("<> x == 2", trace=ROWS, compile=False).engine == "trace"

    def test_session_prefer_compiled_opt_out(self):
        session = Session(prefer_compiled=False)
        assert session.check("<> x == 2", trace=ROWS).engine == "trace"
        # A request-level compile=True still wins.
        assert session.check("<> x == 2", trace=ROWS, compile=True).engine == "compiled"
        # Explicit modes are untouched.
        assert session.check("<> x == 2", trace=ROWS, mode="monitor").engine == "monitor"

    def test_prefer_compiled_survives_worker_fan_out(self):
        trace = make_trace(ROWS)
        session = Session(prefer_compiled=True)
        requests = [CheckRequest("<> p", trace=trace, capture_errors=True)] * 4
        fanned = session.check_many(requests, processes=2)
        assert [r.engine for r in fanned] == ["compiled"] * 4
        assert [r.verdict for r in fanned] == [True] * 4

    def test_empty_monitor_plan_state_raises_clearly(self):
        from repro.compile import compile_formula
        from repro.errors import TraceError

        monitor = compile_formula(parse_formula("<> p")).monitor()
        with pytest.raises(TraceError, match="no observed states"):
            monitor.satisfies()

    def test_witness_interval_is_opt_in(self):
        default = Session().check("*( x == 2 )", trace=ROWS, mode="compiled")
        assert default.verdict is True and default.witness is None
        explicit = Session().check("*( x == 2 )", trace=ROWS, mode="compiled",
                                   extract_model=True)
        assert explicit.witness is not None
        trace_witness = Session().check("*( x == 2 )", trace=ROWS, mode="trace",
                                        extract_model=True)
        assert explicit.witness == trace_witness.witness

    def test_capture_errors_matches_trace_engine(self):
        bad = Session().check("<> y == 1", trace=ROWS, mode="compiled",
                              capture_errors=True)
        assert bad.verdict is None
        assert "UnknownStateVariableError" in (bad.error or "")


class TestPlanCache:
    def test_hits_across_check_many_batches(self):
        session = Session()
        trace = make_trace(ROWS)
        requests = [CheckRequest("<> x == 2", mode="compiled", trace=trace)
                    for _ in range(4)]
        results = session.check_many(requests)
        assert [r.statistics["plan_from_cache"] for r in results] == \
            [False, True, True, True]
        again = session.check_many(requests)
        assert all(r.statistics["plan_from_cache"] for r in again)
        stats = session.plan_cache.statistics()
        assert stats["plan_cache_size"] == 1
        assert stats["plan_cache_hits"] == 7 and stats["plan_cache_misses"] == 1

    def test_hits_across_traces(self):
        session = Session()
        first = session.check("<> x == 2", trace=make_trace(ROWS), mode="compiled")
        other_trace = make_trace([{"x": 7, "p": True}, {"x": 2, "p": False}])
        second = session.check("<> x == 2", trace=other_trace, mode="compiled")
        assert first.statistics["plan_from_cache"] is False
        assert second.statistics["plan_from_cache"] is True
        assert first.statistics["plan_digest"] == second.statistics["plan_digest"]

    def test_memo_tables_shared_per_trace(self):
        session = Session()
        trace = make_trace(ROWS)
        # stepwise pins the per-position memo machinery this test is about;
        # the default vectorized path answers from bitset profiles instead.
        first = session.check("<> x == 2", trace=trace, mode="stepwise")
        again = session.check("<> x == 2", trace=trace, mode="stepwise")
        assert first.statistics["memo_new_entries"] > 0
        assert again.statistics["memo_new_entries"] == 0
        assert again.statistics["dispatch_calls"] == 1  # one root memo hit

    def test_vectorized_and_stepwise_states_are_cached_separately(self):
        session = Session()
        trace = make_trace(ROWS)
        vec = session.check("<> x == 2", trace=trace, mode="compiled")
        step = session.check("<> x == 2", trace=trace, mode="stepwise")
        assert vec.verdict is step.verdict is True
        assert vec.statistics["vector_nodes"] > 0
        assert step.statistics["vector_nodes"] == 0
        assert len(session._plan_states) == 2

    def test_clear_caches_releases_plans_and_states(self):
        session = Session()
        trace = make_trace(ROWS)
        session.check("<> x == 2", trace=trace, mode="compiled")
        assert len(session.plan_cache) == 1 and session._plan_states
        session.clear_caches()
        assert len(session.plan_cache) == 0 and not session._plan_states
        assert session.check("<> x == 2", trace=trace, mode="compiled").verdict is True

    def test_cache_statistics_on_the_result(self):
        session = Session()
        result = session.check("<> p", trace=ROWS, mode="compiled")
        for key in ("plan_cache_size", "plan_cache_hits", "plan_cache_misses",
                    "plan_compile_time_s"):
            assert key in result.statistics


class TestCompiledAgreesWithTrace:
    """Seeded mini-differential; the 500-case campaign runs in CI."""

    @pytest.mark.parametrize("seed", [11, 23])
    def test_random_cases(self, seed):
        session = Session()
        for case in gen_cases(FuzzConfig(seed=seed, cases=60)):
            if case.kind != "trace":
                continue
            trace = case.built_trace()
            interpreted = session.check(
                case.formula, mode="trace", trace=trace,
                domain=case.domain, capture_errors=True,
            )
            compiled = session.check(
                case.formula, mode="compiled", trace=trace,
                domain=case.domain, capture_errors=True,
            )
            assert compiled.verdict == interpreted.verdict, case.to_line()

    @pytest.mark.parametrize("text", [
        "[] (x < 3 \\/ p)", "[] (p \\/ x < 3)",
        "[] ~(x >= 3 /\\ ~p)", "[] ~(~p /\\ x >= 3)",
        "[] (x >= 3 -> p)", "[] (~p -> x < 3)",
    ])
    def test_an_operand_error_waits_for_the_other_operand(self, text):
        # The middle state lacks x: wherever p decides the junction there,
        # every engine answers, whichever side the comparison is on.
        trace = make_trace([{"x": 1, "p": False}, {"p": True}, {"x": 2, "p": False}])
        session = Session()
        verdicts = {
            mode: session.check(text, trace=trace, mode=mode).verdict
            for mode in ("trace", "compiled", "stepwise", "monitor")
        }
        assert set(verdicts.values()) == {True}, verdicts

    def test_env_bindings_match(self):
        trace = make_trace(ROWS)
        formula = parse_formula("<> x == ?a")
        for value in (1, 2, 3):
            direct = Evaluator(trace).satisfies(formula, {"a": value})
            via_engine = Session().check(formula, mode="compiled", trace=trace,
                                         env={"a": value})
            assert via_engine.verdict == direct


class TestMonitorRewrite:
    """Same public API and verdicts; per-step work flat in prefix length."""

    def test_public_api_and_verdict_shape(self):
        monitor = Monitor({"safe": parse_formula("[] x >= 1")})
        verdicts = None
        for x in (1, 2, 0):
            verdicts = monitor.observe(State({"x": x}))
        verdict = verdicts["safe"]
        assert verdict.holds is False
        assert verdict.history == [True, True, False]
        assert verdict.stable_for == 0
        assert monitor.prefix_length == 3
        assert monitor.failing() == ["safe"]
        assert "FAIL" in str(verdict)

    def test_stable_for_counts_repeated_verdicts(self):
        monitor = Monitor({"f": parse_formula("<> p")})
        for _ in range(4):
            monitor.observe(State({"p": True}))
        assert monitor.verdicts["f"].stable_for == 3

    def test_verdict_history_matches_per_prefix_evaluation(self):
        for case in gen_cases(FuzzConfig(seed=17, cases=120)):
            if case.kind != "trace":
                continue
            trace = case.built_trace()
            if not trace.is_stutter_extended:
                continue  # monitors follow the finite-computation convention
            formula = case.parsed_formula()
            monitor = Monitor({"f": formula}, case.domain)
            monitor.observe_trace(trace)
            expected = []
            states = list(trace.states())
            for n in range(1, len(states) + 1):
                prefix = Trace(states[:n])
                expected.append(Evaluator(prefix, case.domain).satisfies(formula))
            assert monitor.verdicts["f"].history == expected, case.to_line()

    def test_per_step_work_does_not_grow_with_prefix_length(self):
        # The old Monitor rebuilt a Trace + Evaluator per observe, making
        # step cost proportional to the prefix; the plan-state counters must
        # stay flat once the formula's frontier stabilises.
        monitor = Monitor({
            "resp": parse_formula("[] (p -> <> q)"),
            "evt": parse_formula("[] ([p] q)"),
        })
        for i in range(300):
            monitor.observe(State({"p": i % 3 == 0, "q": i % 3 == 1}))
        costs = monitor.step_costs
        early = sum(costs[20:60]) / 40.0
        late = sum(costs[260:300]) / 40.0
        assert late <= early * 1.5, (early, late)
        assert monitor.last_step_cost == costs[-1]

    def test_specification_monitor_detects_the_injected_fault(self):
        spec = request_ack_spec()
        good = SpecificationMonitor(spec)
        good.observe_trace(request_ack_trace(cycles=2, seed=1))
        assert good.failing() == []
        from repro.systems import request_ack_faulty_trace

        bad = SpecificationMonitor(spec)
        bad.observe_trace(request_ack_faulty_trace(cycles=2, seed=1))
        assert bad.failing()

    def test_monitor_engine_statistics_preserved(self):
        trace = make_trace([{"x": 1}, {"x": 2}, {"x": 2}])
        result = Session().check(parse_formula("[] x == 1"), trace=trace,
                                 mode="monitor")
        assert result.verdict is False
        assert result.statistics["first_failure_step"] == 2
        assert result.statistics["history"] == [True, False, False]


class TestFaultyCorpus:
    def test_checked_in_and_pins_violations(self):
        import os

        from repro.gen import load_corpus

        path = os.path.join(os.path.dirname(__file__), "corpus",
                            "faulty_traces.jsonl")
        assert os.path.exists(path)
        cases = load_corpus(path)
        assert len(cases) >= 30
        assert all(case.kind == "trace" and case.trace.system for case in cases)
        assert all(case.expect for case in cases)
        # The point of the family: engines keep *detecting* the faults.
        assert sum(
            1 for case in cases if any(v is False for v in case.expect.values())
        ) >= 8
        assert any("compiled" in case.expect for case in cases)

    def test_replays_without_disagreement(self):
        import os

        from repro.gen import load_corpus, replay_corpus

        path = os.path.join(os.path.dirname(__file__), "corpus",
                            "faulty_traces.jsonl")
        report = replay_corpus(load_corpus(path))
        assert report.ok, [str(d) for d in report.disagreements]
