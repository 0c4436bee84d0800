"""The monitoring service: registry semantics, sharding, asyncio transport.

Covers the serving tentpole's acceptance behaviours end to end:

- per-stream verdicts through batched ``append`` frames identical to
  one-shot ``Session.check_spec`` on the same trace (the differential
  guarantee the corpus replay generalizes);
- verdict-change alert events emitted ahead of acknowledgements;
- version-stamped MVCC snapshots that never re-evaluate;
- protocol error frames for every semantic failure, with the stream (and
  connection) surviving;
- streams on one specification sharing one compiled plan;
- bounded monitor statistics (the :class:`StatWindow` regression) and
  batched absorption parity;
- the asyncio socket front end and the consistent-hash shard pool.
"""

import asyncio
import os
import signal

import pytest

from repro.api import Session
from repro.checking.monitor import DEFAULT_STAT_WINDOW, Monitor, StatWindow
from repro.gen.cases import SYSTEM_FACTORIES
from repro.gen.loadgen import generate_stream_scripts
from repro.serve.protocol import trace_to_rows
from repro.serve.replay import replay_corpus
from repro.serve.service import MonitorService
from repro.serve.streams import SPEC_FACTORIES, StreamRegistry
from repro.syntax import parse_formula


def open_ok(registry, stream, **fields):
    (response,) = registry.handle({"op": "open", "stream": stream, **fields})
    assert response.get("ok") == "opened", response
    return response


def append_rows(registry, stream, rows, batch=8):
    last = None
    for start in range(0, len(rows), batch):
        responses = registry.handle(
            {"op": "append", "stream": stream, "states": rows[start:start + batch]}
        )
        last = responses[-1]
        assert "error" not in last, last
    return last


class TestRegistrySemantics:
    def test_verdict_parity_with_one_shot_check_spec(self):
        registry = StreamRegistry()
        session = Session()
        for script in generate_stream_scripts(8, seed=3, fault_rate=0.5):
            trace = script.build_trace()
            open_ok(registry, script.stream, spec=script.spec)
            append_rows(registry, script.stream, trace_to_rows(trace))
            (closed,) = registry.handle({"op": "close", "stream": script.stream})
            result = session.check_spec(SPEC_FACTORIES()[script.spec](), trace)
            expected = {
                v.clause.name: (None if v.error else v.holds)
                for v in result.verdicts
            }
            assert closed["verdicts"] == expected, script.stream

    def test_open_with_formulas_and_domain(self):
        registry = StreamRegistry()
        response = open_ok(
            registry, "s1",
            formulas={"ev": "<> p"},
            domain={"x": [1, 2]},
        )
        assert response["clauses"] == ["ev"]
        responses = registry.handle(
            {"op": "append", "stream": "s1",
             "states": [{"values": {"p": False}}, {"values": {"p": True}}]}
        )
        assert responses[-1]["verdicts"] == {"ev": True}

    def test_alerts_precede_acks_and_carry_the_flip(self):
        registry = StreamRegistry()
        open_ok(registry, "s1", formulas={"safe": "[] p"})
        first = registry.handle(
            {"op": "append", "stream": "s1", "states": [{"values": {"p": True}}]}
        )
        # First batch: the verdict materializes -> one alert, then the ack.
        assert first[0]["event"] == "alert"
        assert first[0]["clause"] == "safe"
        assert first[0]["verdict"] is True
        assert first[0]["at"] == 1
        assert first[-1]["ok"] == "appended"
        second = registry.handle(
            {"op": "append", "stream": "s1", "states": [{"values": {"p": True}}]}
        )
        # No flip, no alert.
        assert [f for f in second if f.get("event") == "alert"] == []
        third = registry.handle(
            {"op": "append", "stream": "s1", "states": [{"values": {"p": False}}]}
        )
        assert third[0]["event"] == "alert"
        assert third[0]["verdict"] is False
        assert third[0]["at"] == 3

    def test_ack_false_suppresses_acknowledgement_not_alerts(self):
        registry = StreamRegistry()
        open_ok(registry, "s1", formulas={"safe": "[] p"})
        responses = registry.handle(
            {"op": "append", "stream": "s1", "ack": False,
             "states": [{"values": {"p": False}}]}
        )
        assert all(f.get("event") == "alert" for f in responses)
        assert len(responses) == 1

    def test_snapshot_is_versioned_published_and_cheap(self):
        registry = StreamRegistry()
        open_ok(registry, "s1", formulas={"safe": "[] p"})
        (empty,) = registry.handle({"op": "snapshot", "stream": "s1"})
        assert empty["version"] == 0 and empty["length"] == 0
        append_rows(registry, "s1", [{"values": {"p": True}}] * 6, batch=3)
        (snap,) = registry.handle({"op": "snapshot", "stream": "s1"})
        assert snap["version"] == 2          # one bump per committed batch
        assert snap["length"] == 6
        assert snap["states_ingested"] == 6
        assert snap["verdicts"]["safe"]["holds"] is True
        assert snap["verdicts"]["safe"]["stable_for"] == 1
        assert snap["step_cost"]["lifetime_batches"] == 2
        assert snap["memo_size"] >= 0
        # MVCC: repeated reads return the same committed version and the
        # published copy is immune to reader mutation.
        (again,) = registry.handle({"op": "snapshot", "stream": "s1"})
        snap["verdicts"]["safe"]["holds"] = "tampered"
        assert again["version"] == 2
        (fresh,) = registry.handle({"op": "snapshot", "stream": "s1"})
        assert fresh["verdicts"]["safe"]["holds"] is True

    def test_error_frames_and_stream_survival(self):
        registry = StreamRegistry()
        open_ok(registry, "s1", spec="mutex")
        # Semantic errors, each as one error frame:
        (dup,) = registry.handle({"op": "open", "stream": "s1", "spec": "mutex"})
        assert dup["error"] == "duplicate-stream"
        (unknown,) = registry.handle({"op": "close", "stream": "ghost"})
        assert unknown["error"] == "unknown-stream"
        (spec,) = registry.handle({"op": "open", "stream": "s2", "spec": "nope"})
        assert spec["error"] == "unknown-spec"
        (formula,) = registry.handle(
            {"op": "open", "stream": "s2", "formulas": {"c": "[[["}}
        )
        assert formula["error"] == "bad-formula"
        (state,) = registry.handle(
            {"op": "append", "stream": "s1", "states": ["junk"]}
        )
        assert state["error"] == "bad-state"
        assert registry.errors == 5
        # The stream took no damage from any of it:
        (snap,) = registry.handle({"op": "snapshot", "stream": "s1"})
        assert snap["version"] == 0
        trace = SYSTEM_FACTORIES()["mutex"](processes=2, seed=1)
        last = append_rows(registry, "s1", trace_to_rows(trace))
        assert set(last["verdicts"].values()) == {True}

    def test_service_snapshot_aggregates(self):
        registry = StreamRegistry()
        open_ok(registry, "good", formulas={"safe": "[] p"})
        open_ok(registry, "bad", formulas={"safe": "[] p"})
        append_rows(registry, "good", [{"values": {"p": True}}])
        append_rows(registry, "bad", [{"values": {"p": False}}])
        snapshot = registry.service_snapshot()
        assert snapshot["streams"] == 2
        assert snapshot["opened"] == 2
        assert snapshot["states_ingested"] == 2
        assert snapshot["failing_streams"] == ["bad"]
        assert "plan_hits" in snapshot["cache"] or snapshot["cache"]


class TestPlanCacheSharing:
    def test_streams_on_same_spec_share_one_plan(self):
        registry = StreamRegistry()
        open_ok(registry, "a", spec="mutex")
        open_ok(registry, "b", spec="mutex")
        plan_a = registry.stream("a").monitor.plan
        plan_b = registry.stream("b").monitor.plan
        assert plan_a is plan_b


class TestMonitorStatistics:
    def _states(self, n):
        from repro.semantics.state import State

        return [State({"p": True}) for _ in range(n)]

    def test_stat_window_bounds_memory(self):
        monitor = Monitor({"safe": parse_formula("[] p")}, stat_window=8)
        for state in self._states(100):
            monitor.observe(state)
        assert len(monitor.step_costs) <= 8
        assert monitor.step_costs.total_count == 100
        assert monitor.step_costs.dropped == 92
        verdict = monitor.verdicts["safe"]
        assert len(verdict.history) <= 8
        assert verdict.history.total_count == 100
        assert verdict.holds is True and verdict.stable_for == 99

    def test_default_window_keeps_full_history_for_short_runs(self):
        monitor = Monitor({"safe": parse_formula("[] p")})
        for state in self._states(50):
            monitor.observe(state)
        assert monitor.step_costs.maxlen == DEFAULT_STAT_WINDOW
        assert len(monitor.step_costs) == 50
        assert list(monitor.verdicts["safe"].history) == [True] * 50

    def test_stat_window_behaves_like_a_list(self):
        window = StatWindow(maxlen=5)
        for i in range(9):
            window.append(i)
        assert window == [4, 5, 6, 7, 8]
        assert window[-1] == 8
        assert window[1:3] == [5, 6]
        assert sum(window) == 30
        assert window.total == sum(range(9))
        window.reset()
        assert window == [] and window.total == 0 and window.total_count == 0

    def test_observe_batch_matches_per_state_final_verdicts(self):
        trace = SYSTEM_FACTORIES()["reordering_queue"](num_values=4, seed=2)
        spec = SPEC_FACTORIES()["reliable_queue"]()
        formulas = {
            clause.name: clause.interpreted_formula()
            for clause in spec.clauses
        }
        states = list(trace.states())
        single = Monitor(formulas, capture_errors=True)
        for state in states:
            single.observe(state)
        batched = Monitor(formulas, capture_errors=True)
        for start in range(0, len(states), 7):
            batched.observe_batch(states[start:start + 7])
        assert {n: v.holds for n, v in single.verdicts.items()} == \
               {n: v.holds for n, v in batched.verdicts.items()}
        # The batch path re-evaluates once per chunk, not once per state.
        assert batched.step_costs.total_count < single.step_costs.total_count

    def test_reset_stats_keeps_verdicts(self):
        monitor = Monitor({"safe": parse_formula("[] p")}, stat_window=16)
        for state in self._states(10):
            monitor.observe(state)
        monitor.reset_stats()
        assert len(monitor.step_costs) == 0
        assert monitor.verdicts["safe"].holds is True
        assert monitor.prefix_length == 10


class TestAsyncioService:
    def test_end_to_end_over_a_socket(self):
        from repro.serve.client import ServeClient

        async def scenario():
            service = MonitorService()
            host, port = await service.start()
            try:
                client = await ServeClient.connect(host, port)
                opened = await client.open("dev-1", formulas={"safe": "[] p"})
                assert opened["ok"] == "opened"
                ack = await client.append(
                    "dev-1",
                    [{"values": {"p": True}}, {"values": {"p": False}}],
                )
                assert ack["ok"] == "appended" and ack["count"] == 2
                assert ack["verdicts"] == {"safe": False}
                # The flip arrived as an alert before the ack.
                assert client.alerts and client.alerts[0]["clause"] == "safe"
                snap = await client.snapshot("dev-1")
                assert snap["version"] == 1 and snap["failing"] == ["safe"]
                service_snap = await client.snapshot()
                assert service_snap["streams"] == 1
                pong = await client.ping()
                assert pong == {"ok": "pong"}
                closed = await client.close_stream("dev-1")
                assert closed["ok"] == "closed"
                await client.close()
            finally:
                await service.stop()
                service.close()

        asyncio.run(scenario())

    def test_malformed_lines_answer_errors_and_connection_survives(self):
        async def scenario():
            service = MonitorService()
            host, port = await service.start()
            try:
                reader, writer = await asyncio.open_connection(host, port)
                writer.write(b"this is not json\n")
                writer.write(b'{"op": "warp"}\n')
                writer.write(b'{"op": "ping"}\n')
                await writer.drain()
                from repro.serve.protocol import FrameDecoder, decode_frame

                decoder = FrameDecoder()
                frames = []
                while len(frames) < 3:
                    chunk = await reader.read(4096)
                    assert chunk, "service closed the connection"
                    frames.extend(decode_frame(l) for l in decoder.feed(chunk))
                assert frames[0]["error"] == "bad-json"
                assert frames[1]["error"] == "unknown-op"
                assert frames[2] == {"ok": "pong"}
                writer.close()
                await writer.wait_closed()
            finally:
                await service.stop()
                service.close()

        asyncio.run(scenario())

    def test_oversized_line_answers_in_order_between_good_lines(self):
        from repro.serve.protocol import MAX_LINE_BYTES, FrameDecoder, decode_frame

        async def scenario():
            service = MonitorService()
            host, port = await service.start()
            try:
                reader, writer = await asyncio.open_connection(host, port)
                oversized = b'{"op":"' + b"x" * MAX_LINE_BYTES + b'"}'
                writer.write(b'{"op":"ping"}\n' + oversized + b'\n{"op":"metrics"}\n')
                await writer.drain()
                decoder = FrameDecoder()
                frames = []
                while len(frames) < 3:
                    chunk = await asyncio.wait_for(reader.read(64 * 1024), 30)
                    assert chunk, "service closed the connection"
                    frames.extend(decode_frame(l) for l in decoder.feed(chunk))
                assert frames[0] == {"ok": "pong"}
                assert frames[1]["error"] == "line-too-long"
                assert frames[2]["ok"] == "metrics"
                assert service.framing_poisoned == 1
                writer.close()
                await writer.wait_closed()
            finally:
                await service.stop()
                service.close()

        asyncio.run(scenario())

    def test_streams_outlive_connections(self):
        from repro.serve.client import ServeClient

        async def scenario():
            service = MonitorService()
            host, port = await service.start()
            try:
                first = await ServeClient.connect(host, port)
                await first.open("dev-1", formulas={"safe": "[] p"})
                await first.append("dev-1", [{"values": {"p": True}}])
                await first.close()
                second = await ServeClient.connect(host, port)
                snap = await second.snapshot("dev-1")
                assert snap["length"] == 1
                await second.close()
            finally:
                await service.stop()
                service.close()

        asyncio.run(scenario())


class TestShardPool:
    def test_sharded_parity_and_aggregation(self):
        from repro.serve.worker import ShardPool

        scripts = generate_stream_scripts(6, seed=3, fault_rate=0.5)
        session = Session()
        with ShardPool(2) as pool:
            assignment = {
                s.stream: pool.worker_for(s.stream) for s in scripts
            }
            assert set(assignment.values()) == {0, 1}, (
                "6 streams should land on both of 2 workers"
            )
            for script in scripts:
                (opened,) = pool.handle(
                    {"op": "open", "stream": script.stream, "spec": script.spec}
                )
                assert opened.get("ok") == "opened", opened
            expected_failing = []
            for script in scripts:
                trace = script.build_trace()
                rows = trace_to_rows(trace)
                responses = pool.handle_batch([
                    {"op": "append", "stream": script.stream,
                     "states": rows[start:start + 16]}
                    for start in range(0, len(rows), 16)
                ])
                acks = [f for f in responses if f.get("ok") == "appended"]
                assert sum(a["count"] for a in acks) == len(rows)
                result = session.check_spec(
                    SPEC_FACTORIES()[script.spec](), trace
                )
                expected = {
                    v.clause.name: (None if v.error else v.holds)
                    for v in result.verdicts
                }
                assert acks[-1]["verdicts"] == expected, script.stream
                if not result.holds:
                    expected_failing.append(script.stream)
            aggregate = pool.aggregate_snapshot()
            assert aggregate["shards"] == 2
            assert aggregate["streams"] == 6
            assert aggregate["failing_streams"] == sorted(expected_failing)
            assert len(aggregate["workers"]) == 2
        with pytest.raises(RuntimeError):
            pool.handle({"op": "ping"})

    def test_a_killed_worker_is_lost_and_the_others_keep_serving(self):
        from repro.serve.worker import ShardPool

        scripts = generate_stream_scripts(8, seed=3, fault_rate=0.5)
        pool = ShardPool(2)
        try:
            for script in scripts:
                (opened,) = pool.handle(
                    {"op": "open", "stream": script.stream, "spec": script.spec}
                )
                assert opened.get("ok") == "opened", opened
            dead = pool._workers[0].process
            os.kill(dead.pid, signal.SIGKILL)
            dead.join(timeout=10)
            assert not dead.is_alive()
            session = Session()
            frames, expected = [], {}
            for script in scripts:
                trace = script.build_trace()
                frames.append({"op": "append", "stream": script.stream,
                               "states": trace_to_rows(trace)})
                result = session.check_spec(SPEC_FACTORIES()[script.spec](), trace)
                expected[script.stream] = {
                    v.clause.name: (None if v.error else v.holds)
                    for v in result.verdicts
                }
            lost = {s.stream for s in scripts if pool.worker_for(s.stream) == 0}
            assert lost and len(lost) < len(scripts)
            answered = {
                response["stream"]: response
                for response in pool.handle_batch(frames)
                if response.get("event") != "alert"
            }
            for stream, response in answered.items():
                if stream in lost:
                    assert response["error"] == "worker-lost", response
                else:
                    assert response["verdicts"] == expected[stream], stream
            assert set(answered) == {s.stream for s in scripts}
            (snapshot,) = pool.handle({"op": "snapshot", "stream": sorted(lost)[0]})
            assert snapshot["error"] == "worker-lost"
            aggregate = pool.aggregate_snapshot()
            assert (aggregate["lost"], aggregate["streams"]) == (
                1, len(scripts) - len(lost)
            )
            (metrics,) = pool.handle({"op": "metrics"})
            assert metrics["lost"] == 1
            series = metrics["metrics"]["repro_serve_workers_lost_total"]["series"]
            assert [row["value"] for row in series] == [1]
        finally:
            pool.close()
            for worker in pool._workers:
                worker.process.join(timeout=10)
                assert not worker.process.is_alive()

    def test_mixed_batch_routes_by_stream(self):
        from repro.serve.worker import ShardPool

        with ShardPool(2) as pool:
            responses = pool.handle_batch([
                {"op": "open", "stream": "a", "formulas": {"c": "[] p"}},
                {"op": "open", "stream": "b", "formulas": {"c": "[] p"}},
                {"op": "ping"},
            ])
            assert sorted(f.get("ok") for f in responses) == \
                   ["opened", "opened", "pong"]
            (err,) = pool.handle({"op": "append", "stream": "ghost",
                                  "states": [{"values": {}}]})
            assert err["error"] == "unknown-stream"


class TestServeReplay:
    def test_faulty_corpus_replays_clean_through_the_codec(self):
        report = replay_corpus(paths=["tests/corpus/faulty_traces.jsonl"])
        assert report.ok, [d.describe() for d in report.disagreements]
        assert report.streams > 0
        assert report.states > 0
