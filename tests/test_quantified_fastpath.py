"""The quantified-spec fast path, proven by parity.

Forall specialization (unrolling explicit-domain quantifiers at lowering
time) and batched tail-window appends are pure *speed* changes — every
observable answer must be bit-for-bit what the generic quantifier path
and single-state appends produce.  This harness pins that:

- the ``quantified_incremental`` corpus (queue I1-I3, the Chapter 5
  queue/stack foralls, quantified mutual-exclusion obligations) replays
  disagreement-free through the differential oracle AND incrementally
  through monitors with batched appends, against pinned verdicts;
- any ``forall_unroll_cap`` (0 = generic quantification, small caps,
  huge caps) yields identical verdicts, engine reasons and captured
  errors;
- the serve registry's same-stream coalescing answers byte-identical
  response and snapshot sequences to frame-at-a-time dispatch, including
  mid-group verdict flips and malformed frames, for any split of the four
  families' streams into frames (a hypothesis property) — except that a
  verdict flipping and flipping back inside one coalesced run is not
  alerted yet (a strict ``xfail`` pins that known fault);
- a fixed-seed quantified mini-fuzz keeps the whole engine family in
  agreement.
"""

import copy
import os

import pytest
from hypothesis import given, settings, strategies as st

from repro.api import CheckRequest, Session
from repro.gen import (
    DifferentialOracle,
    FuzzConfig,
    fuzz,
    load_corpus,
    replay_corpus,
)
from repro.gen.loadgen import LOAD_FAMILIES, generate_stream_scripts
from repro.semantics.trace import Trace
from repro.serve.protocol import rows_to_states, trace_to_rows
from repro.serve.streams import StreamRegistry
from repro.specs import reliable_queue_spec
from repro.systems import reliable_queue_trace

CORPUS_PATH = os.path.join(
    os.path.dirname(__file__), "corpus", "quantified_incremental.jsonl"
)


def corpus_cases():
    cases = load_corpus(CORPUS_PATH)
    assert cases, "quantified_incremental.jsonl must not be empty"
    return cases


def clause_formulas(case):
    return {str(i): clause for i, clause in enumerate(case.clauses)}


def monitor_holds(monitor):
    return {name: v.holds for name, v in monitor.verdicts.items()}


class TestQuantifiedCorpus:
    def test_replays_clean_through_the_oracle(self):
        report = replay_corpus(corpus_cases())
        assert report.ok, report.summary()

    def test_incremental_batched_replay_matches_pinned_verdicts(self):
        """Each case replayed as a monitored stream with batched appends
        must land on the pinned one-shot verdicts — and agree with a
        single-state monitor at every batch boundary along the way."""
        session = Session()
        for case in corpus_cases():
            states = case.built_trace().states()
            formulas = clause_formulas(case)
            batched = session.monitor(
                formulas, domain=case.domain, capture_errors=True
            )
            single = session.monitor(
                formulas, domain=case.domain, capture_errors=True
            )
            position, size = 0, 1
            while position < len(states):
                chunk = states[position : position + size]
                batched.observe_batch(chunk, commits=len(chunk))
                for state in chunk:
                    single.observe(state)
                assert monitor_holds(batched) == monitor_holds(single), case.id
                position += len(chunk)
                size = size % 4 + 1  # batch sizes cycle 1, 2, 3, 4
            finals = monitor_holds(batched)
            for index in range(len(case.clauses)):
                pinned = case.expect.get(f"compiled[{index}]")
                if pinned is not None:
                    assert finals[str(index)] is pinned, (case.id, index)

    def test_stable_for_weights_match_per_state_commits(self):
        """Once verdicts are established, ``observe_batch(chunk,
        commits=len(chunk))`` advances ``stable_for`` exactly as the
        per-state loop does.  (The establishing observation itself resets
        the counter, so it is fed alone — a weighted batch cannot know
        where inside itself a change landed; the serve layer replays
        frame-at-a-time on flips for exactly that reason.)"""
        session = Session()
        case = next(c for c in corpus_cases() if c.id == "qinc/reliable-queue")
        states = case.built_trace().states()
        formulas = clause_formulas(case)
        batched = session.monitor(formulas, domain=case.domain)
        single = session.monitor(formulas, domain=case.domain)
        batched.observe(states[0])
        single.observe(states[0])
        for start in range(1, len(states), 5):
            chunk = states[start : start + 5]
            batched.observe_batch(chunk, commits=len(chunk))
            for state in chunk:
                single.observe(state)
        assert {n: v.stable_for for n, v in batched.verdicts.items()} == {
            n: v.stable_for for n, v in single.verdicts.items()
        }


class TestForallCapParity:
    def test_generic_quantifier_path_pins_identical_expectations(self):
        """A session with unrolling disabled (cap 0) re-derives exactly the
        pinned expectations: specialization never changes an answer."""
        generic = DifferentialOracle(
            session=Session(forall_unroll_cap=0), shrink=False
        )
        for case in corpus_cases():
            fresh = generic.record_expectations(case.replacing(expect=None))
            assert fresh.expect == case.expect, case.id

    def test_every_cap_agrees_on_monitored_streams(self):
        """Caps straddling every specialization decision (off, below the
        domain product, at the default, far above) are indistinguishable."""
        baseline = {}
        for cap in (None, 0, 1, 4, 64):
            session = Session() if cap is None else Session(forall_unroll_cap=cap)
            for case in corpus_cases():
                monitor = session.monitor(
                    clause_formulas(case), domain=case.domain, capture_errors=True
                )
                monitor.observe_batch(case.built_trace().states())
                holds = monitor_holds(monitor)
                if cap is None:
                    baseline[case.id] = holds
                else:
                    assert holds == baseline[case.id], (cap, case.id)

    def test_check_results_share_verdict_and_engine_reason(self):
        """The one-shot façade agrees across caps down to the recorded
        engine reason — specialization happens inside the compiled path,
        never by rerouting to a different engine."""
        trace = reliable_queue_trace()
        formulas = [
            clause.interpreted_formula()
            for clause in reliable_queue_spec().clauses
        ]
        default = Session()
        generic = Session(forall_unroll_cap=0)
        for formula in formulas:
            a = default.check(formula, trace=trace, capture_errors=True)
            b = generic.check(formula, trace=trace, capture_errors=True)
            assert (a.verdict, a.engine_reason, a.error) == (
                b.verdict,
                b.engine_reason,
                b.error,
            )


class TestServeCoalescing:
    """Same-stream run coalescing in ``StreamRegistry.handle_batch`` must be
    observationally identical to frame-at-a-time ``handle`` dispatch."""

    ROWS_PER_FRAME = 3

    def _fleet(self, streams=6, seed=3, fault_rate=0.9):
        scripts = generate_stream_scripts(streams, seed=seed, fault_rate=fault_rate)
        frame_at_a_time, coalesced = StreamRegistry(), StreamRegistry()
        for registry in (frame_at_a_time, coalesced):
            for script in scripts:
                (opened,) = registry.handle(
                    {"op": "open", "stream": script.stream, "spec": script.spec}
                )
                assert opened.get("ok") == "opened", opened
        return scripts, frame_at_a_time, coalesced

    def _append_frames(self, script):
        rows = trace_to_rows(script.build_trace())
        return [
            {
                "op": "append",
                "stream": script.stream,
                "states": rows[start : start + self.ROWS_PER_FRAME],
            }
            for start in range(0, len(rows), self.ROWS_PER_FRAME)
        ]

    def _snapshot(self, registry, stream):
        (snapshot,) = registry.handle({"op": "snapshot", "stream": stream})
        # step_cost meters actual evaluation work, which coalescing is
        # *supposed* to change (fewer, larger batches); every semantic
        # field — version, length, verdicts, stable_for, alerts — must
        # still match exactly.
        snapshot.pop("step_cost", None)
        return snapshot

    def test_coalesced_runs_match_frame_at_a_time_with_flips(self):
        scripts, frame_at_a_time, coalesced = self._fleet()
        saw_alert = False
        for script in scripts:
            frames = self._append_frames(script)
            sequential = [
                response
                for frame in frames
                for response in frame_at_a_time.handle(copy.deepcopy(frame))
            ]
            grouped = coalesced.handle_batch(copy.deepcopy(frames))
            assert grouped == sequential, script.stream
            saw_alert = saw_alert or any(
                r.get("event") == "alert" for r in sequential
            )
            assert self._snapshot(coalesced, script.stream) == self._snapshot(
                frame_at_a_time, script.stream
            )
        # At fault_rate 0.9 some stream must flip mid-run, otherwise the
        # alert-replay path was never exercised.
        assert saw_alert

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2 ** 16), st.data())
    def test_coalesced_dispatch_equals_frame_at_a_time_for_any_split(self, seed, data):
        # One faulty-leaning stream per family, its rows cut into frames at
        # arbitrary points: one handle_batch over every frame answers what
        # frame-at-a-time handle answers, and leaves the same snapshots.
        # A flip inside a coalesced run replays the stream from rows
        # rebuilt out of its columns, so the replay's encode is covered too.
        scripts = generate_stream_scripts(len(LOAD_FAMILIES), seed=seed, fault_rate=0.9)
        assert {script.spec for script in scripts} == {f[0] for f in LOAD_FAMILIES}
        frame_at_a_time, coalesced = StreamRegistry(), StreamRegistry()
        frames = []
        for script in scripts:
            for registry in (frame_at_a_time, coalesced):
                (opened,) = registry.handle(
                    {"op": "open", "stream": script.stream, "spec": script.spec}
                )
                assert opened.get("ok") == "opened", opened
            rows = trace_to_rows(script.build_trace())
            cuts = data.draw(st.sets(st.integers(1, len(rows) - 1), max_size=len(rows) - 1))
            bounds = [0, *sorted(cuts), len(rows)]
            frames += [
                {"op": "append", "stream": script.stream, "states": rows[start:stop]}
                for start, stop in zip(bounds, bounds[1:])
            ]
        sequential = [
            response
            for frame in frames
            for response in frame_at_a_time.handle(copy.deepcopy(frame))
        ]
        assert coalesced.handle_batch(copy.deepcopy(frames)) == sequential
        for script in scripts:
            assert self._snapshot(coalesced, script.stream) == self._snapshot(
                frame_at_a_time, script.stream
            ), script.stream

    @pytest.mark.xfail(
        strict=True,
        reason="a coalesced run compares verdicts only at its two ends, so a "
        "verdict that flips and flips back inside it raises no alert",
    )
    def test_a_verdict_flipping_back_inside_a_coalesced_run_still_alerts(self):
        # A correct request_ack stream in one-state frames: frame at a time,
        # A1, A2 and A3 each flip to False and back (a request waits for its
        # acknowledgement).  Sent as one frame, then one run of the other
        # fifteen, every clause ends the run as it began it.
        (script,) = [
            script for script in generate_stream_scripts(4, seed=0, fault_rate=0.9)
            if script.spec == "request_ack"
        ]
        assert not script.faulty
        rows = trace_to_rows(script.build_trace())
        frames = [{"op": "append", "stream": script.stream, "states": [row]} for row in rows]
        frame_at_a_time, coalesced = StreamRegistry(), StreamRegistry()
        for registry in (frame_at_a_time, coalesced):
            registry.handle({"op": "open", "stream": script.stream, "spec": script.spec})
        sequential = [
            response
            for frame in frames
            for response in frame_at_a_time.handle(copy.deepcopy(frame))
        ]
        assert [
            (r["clause"], r["verdict"])
            for r in sequential
            if r.get("event") == "alert" and r["at"] > 1
        ] == [("A1", False), ("A1", True), ("A2", False), ("A2", True), ("A3", False), ("A3", True)]
        grouped = coalesced.handle_batch(copy.deepcopy(frames[:1]))
        grouped += coalesced.handle_batch(copy.deepcopy(frames[1:]))
        assert grouped == sequential

    def test_malformed_frame_mid_group_truncates_identically(self):
        scripts, frame_at_a_time, coalesced = self._fleet(streams=2, fault_rate=0.0)
        script = scripts[0]
        frames = self._append_frames(script)
        frames.insert(2, {"op": "append", "stream": script.stream, "states": []})
        frames.insert(5, {"op": "append", "stream": script.stream,
                          "states": ["not-a-state"]})
        sequential = [
            response
            for frame in frames
            for response in frame_at_a_time.handle(copy.deepcopy(frame))
        ]
        grouped = coalesced.handle_batch(copy.deepcopy(frames))
        assert grouped == sequential
        assert sum(1 for r in sequential if "error" in r) == 2
        assert self._snapshot(coalesced, script.stream) == self._snapshot(
            frame_at_a_time, script.stream
        )

    def test_interleaved_ops_break_runs_without_changing_answers(self):
        scripts, frame_at_a_time, coalesced = self._fleet(streams=2, fault_rate=0.5)
        a, b = scripts
        frames = []
        for frame_a, frame_b in zip(self._append_frames(a), self._append_frames(b)):
            frames.extend(
                [frame_a, frame_b, {"op": "snapshot", "stream": a.stream}]
            )
        sequential = [
            response
            for frame in frames
            for response in frame_at_a_time.handle(copy.deepcopy(frame))
        ]
        grouped = coalesced.handle_batch(copy.deepcopy(frames))
        assert grouped == sequential

    def test_flip_replay_keeps_booleans_apart_from_equal_numbers(self):
        # The replay re-ingests the stream's rows as rebuilt from its
        # columns.  Were ``True`` and ``1`` one code, the second row would
        # come back with ``a = True`` and drop 1 from the default
        # quantification domain, so the replay would answer True.
        formula = "forall v . <> (b == ?v)"
        rows = [{"values": {"a": True, "b": 0}}, {"values": {"a": 1, "b": 0}}]
        frames = [{"op": "append", "stream": "s", "states": [row]} for row in rows]
        frame_at_a_time, coalesced = StreamRegistry(), StreamRegistry()
        for registry in (frame_at_a_time, coalesced):
            registry.handle({"op": "open", "stream": "s", "formulas": {"u": formula}})
        sequential = [
            response
            for frame in frames
            for response in frame_at_a_time.handle(copy.deepcopy(frame))
        ]
        grouped = coalesced.handle_batch(copy.deepcopy(frames))
        assert grouped == sequential
        assert sequential[-1]["verdicts"] == {"u": False}
        assert self._snapshot(coalesced, "s") == self._snapshot(frame_at_a_time, "s")
        reference = Session().check(
            formula, mode="trace", trace=Trace(rows_to_states(rows))
        )
        assert reference.verdict is False


class TestQuantifiedMiniFuzz:
    def test_specs_mini_fuzz_is_disagreement_free(self):
        report = fuzz(FuzzConfig(seed=1107, cases=200, specs=True))
        assert report.ok, report.summary()
