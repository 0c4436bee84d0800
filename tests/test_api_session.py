"""The unified checking façade: Session, engines, batching, parallel fan-out.

Covers the acceptance criteria of the façade redesign: one
``Session.check``/``check_many`` call path reaching all five engines with
the unified ``CheckResult``, conformance-campaign verdicts identical to the
pre-façade ``Specification.check`` loop, the memo-key and bind-next
satellites, and the historical entry points agreeing with the façade.
"""

import gc
import sys
import tracemalloc
import warnings

import pytest

from repro.api import (
    CheckRequest,
    CheckRequestError,
    CheckResult,
    Session,
    check,
    coerce_formula,
)
from repro.checking import ConformanceCase, run_conformance
from repro.core.bounded_checker import is_bounded_valid
from repro.core.valid_formulas import get
from repro.errors import EvaluationError
from repro.lll.semantics import is_satisfiable_bounded
from repro.lll.syntax import LChop, LTrueStar, LVar
from repro.ltl.decision import is_valid
from repro.ltl.syntax import LProp, Sometime
from repro.obs import Tracer
from repro.semantics import Evaluator, make_trace
from repro.semantics.evaluator import satisfies
from repro.semantics.trace import INFINITY
from repro.specs import (
    mutex_spec,
    reliable_queue_spec,
    sender_spec,
    service_provided_spec,
)
from repro.syntax import parse_formula
from repro.syntax.builder import (
    always,
    bind_next,
    eq,
    eventually,
    forall,
    lor,
    lvar,
    prop,
)
from repro.systems import (
    ABProtocolConfig,
    ab_protocol_faulty_trace,
    ab_protocol_trace,
    mutex_trace,
    reliable_queue_trace,
)


ROWS = [{"x": 1, "p": False}, {"x": 2, "p": True}]


class TestCoercion:
    def test_accepts_strings_formulas_predicates_and_bools(self):
        from repro.syntax.formulas import Atom, Formula, TrueFormula

        assert coerce_formula("<> x == 2") == parse_formula("<> x == 2")
        f = eventually(eq("x", 2))
        assert coerce_formula(f) is f
        assert isinstance(coerce_formula(prop("p")), Atom)
        assert isinstance(coerce_formula(True), TrueFormula)
        assert isinstance(coerce_formula("forall a . <> x == ?a"), Formula)

    def test_rejects_garbage(self):
        with pytest.raises(CheckRequestError):
            coerce_formula(object())

    def test_trace_rows_are_coerced(self):
        session = Session().add_trace("run", ROWS)
        assert session.trace("run").length == 2

    def test_unknown_trace_name(self):
        with pytest.raises(CheckRequestError):
            Session().check("<> p", trace="nope")


class TestDispatch:
    def test_compiled_engine_when_a_trace_is_given(self):
        result = Session().check("<> x == 2", trace=ROWS)
        assert isinstance(result, CheckResult)
        assert result.engine == "compiled"  # the default trace-backed path
        assert result.verdict is True
        assert result.wall_time_s >= 0.0
        assert result.engine_reason == \
            "trace-backed; session prefer_compiled → compiled"

    def test_trace_engine_on_opt_out(self):
        result = Session().check("<> x == 2", trace=ROWS, compile=False)
        assert result.engine == "trace"
        assert result.verdict is True
        assert result.engine_reason == \
            "trace-backed; request compile=False → trace"

    def test_engine_reason_on_non_trace_requests(self):
        tableau = Session().check("[] (p -> <> q) /\\ <> p -> <> q")
        assert tableau.engine_reason == \
            "no trace; LTL-fragment interval formula → tableau"
        explicit = Session().check("<> p -> <> p", mode="bounded", max_length=2)
        assert explicit.engine_reason == "explicit mode='bounded'"

    def test_ltl_fragment_goes_to_the_tableau(self):
        result = Session().check("[] (p -> <> q) /\\ <> p -> <> q")
        assert result.engine == "tableau"
        assert result.verdict is True

    def test_quantified_formula_goes_to_the_bounded_checker(self):
        entry = get("V4")
        result = Session().check(entry.formula, variables=entry.variables,
                                 max_length=3)
        # V4 mentions interval terms beyond the LTL fragment.
        assert result.engine == "bounded"
        assert result.verdict is True

    def test_ltl_objects_go_to_the_tableau(self):
        result = Session().check(Sometime(LProp("p")), query="satisfiability")
        assert result.engine == "tableau"
        assert result.verdict is True

    def test_lll_expressions_go_to_the_lll_engine(self):
        expression = LChop(LVar("p"), LTrueStar())
        result = Session().check(expression, query="satisfiability", max_length=3)
        assert result.engine == "lll"
        assert result.verdict == is_satisfiable_bounded(expression, 3)

    def test_explicit_mode_wins(self):
        result = Session().check("<> p -> <> p", mode="bounded", max_length=2)
        assert result.engine == "bounded"
        assert result.verdict is True

    def test_unknown_mode(self):
        with pytest.raises(CheckRequestError):
            Session().check("<> p", mode="oracle")


class TestEngines:
    def test_bounded_matches_the_legacy_entry_point(self):
        entry = get("V5")
        facade = Session().check(entry.formula, mode="bounded",
                                 variables=entry.variables, max_length=3)
        direct = is_bounded_valid(entry.formula, entry.variables, max_length=3)
        assert facade.verdict == direct.valid
        assert facade.statistics["traces_checked"] == direct.traces_checked

    def test_bounded_counterexample_is_returned(self):
        result = Session().check("[] p", mode="bounded", max_length=2)
        assert result.verdict is False
        assert result.counterexample is not None

    def test_tableau_validity_counterexample_model(self):
        result = Session().check("<> p -> [] p", mode="tableau", extract_model=True)
        assert result.verdict is False
        assert result.counterexample is not None

    def test_trace_engine_binds_a_fresh_memo_table_per_request(self):
        session = Session()
        trace = make_trace(ROWS)
        first = session.check("<> x == 2", trace=trace, mode="trace")
        again = session.check("<> x == 2", trace=trace, mode="trace")
        assert first.verdict is again.verdict is True
        assert first.statistics["memo_entries"] > 0
        assert again.statistics["memo_entries"] == \
            first.statistics["memo_entries"]

    def test_monitor_engine_reports_first_failure_step(self):
        trace = make_trace([{"x": 1}, {"x": 2}, {"x": 2}])
        result = Session().check(always(eq("x", 1)), trace=trace, mode="monitor")
        assert result.verdict is False
        assert result.statistics["first_failure_step"] == 2
        assert result.statistics["prefix_length"] == 3

    def test_monitor_engine_first_failure_past_the_statistics_window(self):
        rows = [{"p": step < 10} for step in range(1, 5001)]
        result = Session().check("[] p", trace=rows, mode="monitor")
        assert result.verdict is False
        assert result.counterexample == 10
        assert result.statistics["first_failure_step"] == 10
        assert len(result.statistics["history"]) == 5000

    def test_monitor_engine_applies_the_session_default_domain(self):
        session = Session(domain={"a": [1, 2, 7]})
        rows = [{"x": 1}, {"x": 2}, {"x": 3}]
        text = "forall a . <> x == ?a"
        verdicts = {
            mode: session.check(text, trace=rows, mode=mode).verdict
            for mode in ("trace", "compiled", "stepwise", "monitor")
        }
        assert verdicts == dict.fromkeys(verdicts, False)
        requests = [CheckRequest(formula=text, trace=rows, mode="monitor")] * 2
        assert [r.verdict for r in session.check_many(requests)] == \
            [r.verdict for r in session.check_many(requests, processes=2)] == \
            [False, False]

    def test_monitor_engine_takes_its_plan_from_the_session_cache(self):
        session = Session()
        formula = parse_formula("[] (p -> <> q)")
        trace = make_trace([{"p": True, "q": False}, {"p": False, "q": True}])
        for _ in range(2):
            assert session.check(formula, trace=trace, mode="monitor").verdict
        assert session.cache_statistics()["plan_cache_misses"] == 1

    def test_lll_satisfiability_matches_the_direct_translation(self):
        from repro.lll.translation import ltl_to_lll
        from repro.ltl.syntax import to_nnf
        from repro.ltl.translation import interval_to_ltl

        text = "[] (p -> <> q)"
        facade = Session().check(text, mode="lll", query="satisfiability",
                                 max_length=3)
        direct = is_satisfiable_bounded(
            ltl_to_lll(to_nnf(interval_to_ltl(parse_formula(text)))), 3
        )
        assert facade.verdict == direct
        assert facade.witness is not None

    def test_lll_rejects_validity_queries(self):
        with pytest.raises(Exception, match="satisfiability"):
            Session().check("[] p", mode="lll")

    def test_capture_errors_yields_an_error_verdict(self):
        result = Session().check("forall a . x == ?a", trace=ROWS,
                                 domain={"a": [object()]}, capture_errors=False)
        # object() compares unequal everywhere: fine, no error.
        assert result.verdict is False
        bad = Session().check("<> y == 1", trace=ROWS, capture_errors=True)
        assert bad.verdict is None
        assert "UnknownStateVariableError" in (bad.error or "")

    def test_uncaptured_errors_propagate(self):
        with pytest.raises(Exception):
            Session().check("<> y == 1", trace=ROWS)


class TestBatching:
    def test_check_many_preserves_order_and_shares_caches(self):
        session = Session()
        trace = make_trace(ROWS)
        requests = [
            CheckRequest("<> x == 2", trace=trace, label="a"),
            CheckRequest("[] x == 1", trace=trace, label="b"),
            CheckRequest("<> p", trace=trace, label="c"),
        ]
        results = session.check_many(requests)
        assert [r.request.label for r in results] == ["a", "b", "c"]
        assert [r.verdict for r in results] == [True, False, True]

    def test_parallel_fan_out_matches_serial(self):
        trace = ab_protocol_trace(ABProtocolConfig(seed=5))
        spec = sender_spec()
        requests = [
            CheckRequest(clause.interpreted_formula(), mode="trace", trace=trace,
                         capture_errors=True, label=clause.name)
            for clause in spec.clauses
        ] * 3
        serial = [r.verdict for r in Session().check_many(requests)]
        parallel = [r.verdict for r in Session().check_many(requests, processes=2)]
        assert parallel == serial

    def test_check_one_shot_helper(self):
        assert check("<> x == 2", trace=ROWS).verdict is True

    def test_parallel_workers_inherit_the_default_domain(self):
        trace = make_trace(ROWS)
        session = Session(domain={"v": [99]})
        requests = [CheckRequest(parse_formula("forall v . <> x == ?v"),
                                 mode="trace", trace=trace)] * 4
        in_process = [r.verdict for r in session.check_many(requests)]
        fanned = [r.verdict for r in session.check_many(requests, processes=2)]
        # 99 never occurs in the trace: both must say False (no silent
        # fallback to the trace's observed value universe in workers).
        assert in_process == fanned == [False] * 4

    def test_parallel_workers_resolve_named_traces(self):
        session = Session().add_trace("t", ROWS)
        requests = [CheckRequest("<> x == 2", trace="t", capture_errors=True)] * 4
        fanned = session.check_many(requests, processes=2)
        assert [(r.verdict, r.error) for r in fanned] == [(True, None)] * 4

    def test_clear_caches_drops_plans_and_resets_statistics(self):
        """Regression: plan and identity caches must actually drop on clear
        and the plan-cache counters must reset — statistics always describe
        the current cache generation."""
        session = Session()
        trace = make_trace(ROWS)
        session.check("<> x == 2", trace=trace)          # compiled by default
        session.check("<> x == 2", trace=trace)          # a cache hit
        session.check_spec(mutex_spec(2), mutex_trace(2, entries=2, seed=0))
        assert session._spec_plans
        before = session.plan_cache.statistics()
        assert before["plan_cache_hits"] > 0 and before["plan_cache_misses"] > 0
        session.clear_caches()
        assert not session._spec_plans
        stats = session.plan_cache.statistics()
        assert stats["plan_cache_size"] == 0
        assert stats["plan_cache_hits"] == 0
        assert stats["plan_cache_misses"] == 0
        assert stats["plan_cache_evictions"] == 0
        assert stats["plan_compile_time_s"] == 0.0
        # The session still answers (and repopulates) after clearing.
        assert session.check("<> x == 2", trace=trace).verdict is True
        assert session.plan_cache.statistics()["plan_cache_misses"] == 1

    def test_bad_chunk_size_raises_instead_of_degrading(self):
        with pytest.raises(CheckRequestError):
            Session().check_many(
                [CheckRequest("<> x == 2", trace=ROWS)] * 2,
                processes=2, chunk_size=0,
            )

    def test_trace_witness_interval_is_opt_in(self):
        default = Session().check("*( x == 2 )", trace=ROWS)
        assert default.verdict is True and default.witness is None
        explicit = Session().check("*( x == 2 )", trace=ROWS, extract_model=True)
        assert explicit.witness is not None


class TestSessionMemory:
    """A session keeps compiled plans only: every check frees what it bound."""

    def test_retained_memory_is_flat_in_the_traces_checked(self):
        spec = reliable_queue_spec()
        # The span buffer is bounded; a small one is full long before the
        # first reading, so it cannot pass for growth.
        session = Session(tracer=Tracer(max_spans=8))
        retained = {}
        tracemalloc.start()
        try:
            for seed in range(240):
                session.check_spec(spec, reliable_queue_trace(seed=seed))
                if seed + 1 in (40, 240):
                    gc.collect()
                    retained[seed + 1] = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert retained[240] - retained[40] < 32 * 1024

    @pytest.mark.parametrize(
        "path", ["trace", "compiled", "stepwise", "monitor", "check_spec"]
    )
    def test_a_check_leaves_no_reference_and_nothing_to_collect(self, path):
        spec = mutex_spec(2)
        trace = mutex_trace(2, entries=30, seed=0)  # 213 states
        session = Session()
        gc.collect()
        gc.disable()
        try:
            references = sys.getrefcount(trace)
            if path == "check_spec":
                assert session.check_spec(spec, trace).holds
            else:
                formula = spec.clause("A1/12").interpreted_formula()
                assert session.check(formula, trace=trace, mode=path).verdict
            # Nothing holds the trace, and every bound state went with
            # its last reference rather than to the cycle collector.
            assert sys.getrefcount(trace) == references
            assert gc.collect() == 0
        finally:
            gc.enable()


class TestConformanceParity:
    """`check_many` on the AB-protocol campaign == the seed per-trace loop."""

    CASES = [
        ConformanceCase(
            "correct protocol",
            lambda s: ab_protocol_trace(
                ABProtocolConfig(messages=("m1", "m2"), packet_loss=0.3,
                                 ack_loss=0.3, seed=s + 1)),
            True,
            seeds=(0, 1),
        ),
        ConformanceCase(
            "no alternation",
            lambda s: ab_protocol_faulty_trace(fault="no_alternation"),
            False,
            seeds=(0,),
        ),
        ConformanceCase(
            "transmit during dq",
            lambda s: ab_protocol_faulty_trace(fault="transmit_during_dq"),
            False,
            seeds=(0,),
        ),
    ]

    @staticmethod
    def _seed_matrix(specification, cases):
        """The pre-façade implementation: Specification.check per trace."""
        matrix = []
        for case in cases:
            for seed in case.seeds:
                result = specification.check(case.factory(seed))
                matrix.append(
                    (case.name, seed,
                     tuple((v.clause.name, v.holds) for v in result.verdicts))
                )
        return matrix

    @staticmethod
    def _facade_matrix(report):
        matrix = []
        for outcome in report.outcomes:
            for seed, result in zip(outcome.case.seeds, outcome.results):
                matrix.append(
                    (outcome.case.name, seed,
                     tuple((v.clause.name, v.holds) for v in result.verdicts))
                )
        return matrix

    def test_verdicts_identical_to_seed_run_conformance(self):
        spec = sender_spec()
        report = run_conformance(spec, self.CASES)
        assert self._facade_matrix(report) == self._seed_matrix(spec, self.CASES)
        assert report.all_as_expected

    def test_parallel_campaign_identical(self):
        """Each (case, seed) trace answered clause by clause in worker
        processes (``check_spec(processes=2)``) matches the serial
        multi-root campaign, with no fallback to in-process execution."""
        spec = sender_spec()
        serial = run_conformance(spec, self.CASES)
        session = Session()
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            fanned = [
                (case.name, seed,
                 tuple((v.clause.name, v.holds) for v in session.check_spec(
                     spec, case.factory(seed), processes=2).verdicts))
                for case in self.CASES
                for seed in case.seeds
            ]
        assert fanned == self._facade_matrix(serial)
        snapshot = session.metrics_snapshot()
        assert snapshot["repro_spec_checks_total"]["series"] == [
            {"labels": ["per-clause"], "value": len(fanned)}
        ]
        assert snapshot["repro_parallel_chunks_total"]["series"][0]["value"] > 0

    def test_check_specification_matches_direct_check(self):
        trace = ab_protocol_trace(ABProtocolConfig(seed=7))
        for spec in (sender_spec(), service_provided_spec()):
            facade = Session().check_specification(spec, trace)
            direct = spec.check(trace)
            assert [(v.clause.name, v.holds) for v in facade.verdicts] == \
                   [(v.clause.name, v.holds) for v in direct.verdicts]


class TestMemoKeySatellite:
    def test_closed_formulas_ignore_irrelevant_bindings(self):
        evaluator = Evaluator(make_trace(ROWS))
        formula = always(prop("p"))
        evaluator.holds(formula, 1, INFINITY, {"unused": 1})
        size = evaluator.memo_size
        assert size > 0
        evaluator.holds(formula, 1, INFINITY, {"unused": 2})
        assert evaluator.memo_size == size

    def test_closed_subformulas_shared_across_forall_branches(self):
        trace = make_trace([{"x": 1, "p": True}, {"x": 2, "p": True}])
        evaluator = Evaluator(trace, domain={"a": [1, 2, 3, 4]})
        closed = always(prop("p"))
        formula = forall("a", lor(closed, eq("x", lvar("a"))))
        evaluator.satisfies(formula)
        entries = [
            key for key in evaluator._memo
            if key[0] == closed
        ]
        # One entry for the whole-computation context — not one per binding.
        assert len(entries) == 1

    def test_free_variables_are_cached(self):
        formula = forall("a", eq("x", lvar("a")))
        assert formula.free_variables() == frozenset()
        assert formula.free_variables() is formula.free_variables()
        assert formula.body.free_variables() == frozenset({"a"})


class TestNextBindingSatellite:
    def test_missing_arguments_raise_instead_of_padding(self):
        trace = make_trace(
            [{}, {}, {}],
            operations=[{}, {"O": ("at", (), ())}, {"O": ("after", (), ())}],
        )
        formula = bind_next("O", "b", eventually(eq("x", lvar("b"))))
        with pytest.raises(EvaluationError) as excinfo:
            Evaluator(trace).satisfies(formula)
        message = str(excinfo.value)
        assert "'O'" in message and "1 variable" in message

    def test_matching_arity_still_binds(self):
        trace = make_trace(
            [{}, {}, {}],
            operations=[{}, {"O": ("at", (4,), ())}, {"O": ("after", (4,), ())}],
        )
        from repro.syntax.builder import at_op

        formula = bind_next("O", "b", eventually(at_op("O", lvar("b"))))
        assert Evaluator(trace).satisfies(formula)


class TestParallelParity:
    """`check_many(processes=N)` must be indistinguishable from serial."""

    @staticmethod
    def _requests(count):
        trace = make_trace([{"x": 1, "p": False}, {"x": 2, "p": True}])
        formulas = ["<> x == 2", "[] x == 1", "<> p", "[] (p -> <> x == 2)"]
        return [
            CheckRequest(formulas[i % len(formulas)], mode="trace", trace=trace,
                         capture_errors=True, label=f"req-{i}")
            for i in range(count)
        ]

    @pytest.mark.parametrize("chunk_size", [None, 1, 3, 100])
    def test_worker_results_identical_and_in_order(self, chunk_size):
        requests = self._requests(10)
        serial = Session().check_many(requests)
        fanned = Session().check_many(requests, processes=3, chunk_size=chunk_size)
        assert [r.request.label for r in fanned] == [f"req-{i}" for i in range(10)]
        assert [(r.request.label, r.verdict, r.error) for r in fanned] == \
            [(r.request.label, r.verdict, r.error) for r in serial]

    def test_empty_batch(self):
        assert Session().check_many([]) == []
        assert Session().check_many([], processes=4) == []

    def test_single_request_batch_with_workers(self):
        [result] = Session().check_many(self._requests(1), processes=4)
        assert result.verdict is True

    def test_split_chunks_edge_cases(self):
        from repro.api.parallel import split_chunks

        requests = self._requests(5)
        assert split_chunks([], 3) == []
        assert split_chunks(requests, 2, chunk_size=100) == [requests]
        assert split_chunks(requests, 2, chunk_size=2) == \
            [requests[0:2], requests[2:4], requests[4:5]]
        even = split_chunks(requests, 5)
        assert [r.label for chunk in even for r in chunk] == \
            [r.label for r in requests]
        with pytest.raises(ValueError):
            split_chunks(requests, 2, chunk_size=0)


class TestLegacyShims:
    """The historical entry points, at their defining modules."""

    def test_shimmed_entry_points_still_work(self):
        assert satisfies(make_trace(ROWS), parse_formula("<> x == 2"))
        assert is_bounded_valid(parse_formula("<> p -> <> p"), max_length=2).valid
        assert is_valid(Sometime(LProp("p"))) is False

    def test_shim_verdicts_match_the_facade(self):
        trace = make_trace(ROWS)
        for text in ("<> x == 2", "[] x == 1", "<> p"):
            direct = satisfies(trace, parse_formula(text))
            facade = Session().check(text, trace=trace)
            assert direct == facade.verdict
        direct_bounded = is_bounded_valid(parse_formula("<> p -> <> p"),
                                          max_length=2)
        facade_bounded = Session().check("<> p -> <> p", mode="bounded",
                                         max_length=2)
        assert direct_bounded.valid == facade_bounded.verdict
