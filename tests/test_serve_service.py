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
- one store for every number a stream or the registry reports: a
  stream's step-cost window and lifetime figures count commits (a
  coalesced run is one), the ``serve_step_cost`` histogram observes the
  same numbers, and the service totals (a shard pool's included) are
  sums of the ``serve_*`` counters, so they read 0 under
  ``NULL_METRICS``;
- batched absorption parity;
- a closed stream freed by reference counting alone, with no reference
  cycle left for the garbage collector;
- the asyncio socket front end, the ``python -m repro.serve stats``
  command (its totals and its ingest rate) and the consistent-hash
  shard pool.
"""

import asyncio
import gc
import json
import os
import signal
import subprocess
import sys

import pytest

import repro
from repro.api import Session
from repro.checking.monitor import Monitor, MonitorVerdict
from repro.compile import GrowingPrefix, PlanState
from repro.compile.vector import TailKernel, _Profile
from repro.gen.cases import SYSTEM_FACTORIES
from repro.gen.loadgen import LOAD_FAMILIES, generate_stream_scripts
from repro.obs import NULL_METRICS
from repro.semantics.columns import Column, ColumnStore, OperationColumn
from repro.serve.protocol import trace_to_rows
from repro.serve.replay import replay_corpus
from repro.serve.service import MonitorService
from repro.serve.streams import SPEC_FACTORIES, StreamHandle, StreamRegistry
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

    def test_closed_streams_are_freed_by_reference_counting(self):
        # A stream's monitor holds an alert hook bound to its handle, and its
        # plan state holds lowered closures and a kernel that point back at
        # it.  Closing the stream breaks those cycles, so with the collector
        # off nothing of a closed stream is left for it to find — faulty
        # streams included, whose coalesced flips replace the monitor.
        scripts = generate_stream_scripts(len(LOAD_FAMILIES) * 2, seed=5, fault_rate=0.5)
        assert {script.spec for script in scripts} == {f[0] for f in LOAD_FAMILIES}
        assert any(script.faulty for script in scripts)
        # Named from the classes, so that a rename fails here, not silently.
        kinds = {
            kind.__name__ for kind in (
                StreamHandle, Monitor, MonitorVerdict, PlanState,
                TailKernel, _Profile, GrowingPrefix, ColumnStore, Column, OperationColumn,
            )
        }
        registry = StreamRegistry()
        gc.collect()
        gc.disable()
        try:
            for script in scripts:
                open_ok(registry, script.stream, spec=script.spec)
            open_ok(registry, "adhoc", formulas={"safe": "[] p", "ev": "<> p"})
            frames = [
                {"op": "append", "stream": script.stream, "states": rows[start:start + 4]}
                for script in scripts
                for rows in [trace_to_rows(script.build_trace())]
                for start in range(0, len(rows), 4)
            ]
            frames += [
                {"op": "append", "stream": "adhoc", "states": [{"values": {"p": p}}]}
                for p in (True, True, False)
            ]
            responses = registry.handle_batch(frames)
            assert not [r for r in responses if "error" in r]
            assert [r for r in responses if r.get("event") == "alert"]
            for name in [script.stream for script in scripts] + ["adhoc"]:
                (closed,) = registry.handle({"op": "close", "stream": name})
                assert closed["ok"] == "closed", closed
            assert registry.stream_count == 0
            gc.set_debug(gc.DEBUG_SAVEALL)
            gc.collect()
            left = [type(obj).__name__ for obj in gc.garbage]
        finally:
            gc.set_debug(0)
            del gc.garbage[:]
            gc.enable()
        assert [kind for kind in left if kind in kinds] == [], sorted(set(left))

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
        assert registry.service_snapshot()["errors"] == 5
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
        assert batched.plan_state.stats.dispatch_calls < \
               single.plan_state.stats.dispatch_calls

    def test_each_observation_sets_its_own_step_cost(self):
        # ``last_step_cost`` is the dispatch work of the latest observation
        # alone, so the costs of every observation add up to the plan
        # state's lifetime count; a batch standing for k commits advances
        # ``stable_for`` as k observations would.
        monitor = Monitor({"safe": parse_formula("[] p")})
        assert monitor.last_step_cost == 0
        start = monitor.plan_state.stats.dispatch_calls
        costs = []
        for _ in range(100):
            monitor.observe({"p": True})
            costs.append(monitor.last_step_cost)
        verdict = monitor.verdicts["safe"]
        assert verdict.holds is True and verdict.stable_for == 99
        monitor.observe_batch([{"p": True}] * 10, commits=10)
        costs.append(monitor.last_step_cost)
        assert monitor.prefix_length == 110
        assert monitor.verdicts["safe"].stable_for == 109
        assert costs[0] > 0
        assert all(type(cost) is int and cost >= 0 for cost in costs)
        assert sum(costs) == monitor.plan_state.stats.dispatch_calls - start

    def test_default_window_keeps_every_commit_of_a_short_run(self):
        registry = StreamRegistry()
        open_ok(registry, "s1", formulas={"safe": "[] p"})
        costs = []
        for _ in range(50):
            registry.handle({"op": "append", "stream": "s1",
                             "states": [{"values": {"p": True}}]})
            costs.append(registry.stream("s1").monitor.last_step_cost)
        (snapshot,) = registry.handle({"op": "snapshot", "stream": "s1"})
        assert snapshot["step_cost"] == {
            "last": costs[-1],
            "window": 50,
            "window_total": sum(costs),
            "lifetime_batches": 50,
            "lifetime_total": sum(costs),
        }
        assert snapshot["verdicts"]["safe"] == {"holds": True, "stable_for": 49}


def step_cost_series(registry):
    """The ``serve_step_cost`` histogram's (count, sum) over its families."""
    entry = registry.metrics_snapshot()["serve_step_cost"]
    return (
        sum(row["count"] for row in entry["series"]),
        sum(row["sum"] for row in entry["series"]),
    )


class TestOneStore:
    def test_step_cost_window_keeps_the_last_commits(self):
        registry = StreamRegistry(stat_window=8)
        open_ok(registry, "s1", formulas={"safe": "[] p", "ev": "<> q"})
        costs = []
        for index in range(20):
            registry.handle({"op": "append", "stream": "s1",
                             "states": [{"values": {"p": True, "q": index % 3 == 0}}]})
            costs.append(registry.stream("s1").monitor.last_step_cost)
        (snapshot,) = registry.handle({"op": "snapshot", "stream": "s1"})
        step = snapshot["step_cost"]
        assert step == {
            "last": costs[-1],
            "window": 8,
            "window_total": sum(costs[-8:]),
            "lifetime_batches": 20,
            "lifetime_total": sum(costs),
        }
        assert step_cost_series(registry) == (20, float(sum(costs)))

    def test_a_step_cost_window_holds_at_least_one_commit(self):
        for stat_window in (0, -1):
            with pytest.raises(ValueError):
                StreamRegistry(stat_window=stat_window)

    def test_a_flipping_coalesced_run_counts_as_one_commit(self):
        # Every clause of a fresh stream alerts on its first frame, so a
        # first run of several frames flips and is replayed frame by frame
        # on a fresh monitor.  The run is still one commit, costed by the
        # coalesced observation.
        registry = StreamRegistry()
        open_ok(registry, "s1", formulas={"safe": "[] p", "ev": "<> q"})
        frames = [
            {"op": "append", "stream": "s1",
             "states": [{"values": {"p": True, "q": q}}]}
            for q in (False, False, True)
        ]
        responses = registry.handle_batch(frames)
        assert [r for r in responses if r.get("event") == "alert"]
        (snapshot,) = registry.handle({"op": "snapshot", "stream": "s1"})
        step = snapshot["step_cost"]
        assert step["lifetime_batches"] == step["window"] == 1
        assert step["last"] == step["lifetime_total"] == step["window_total"]
        assert step_cost_series(registry) == (1, float(step["lifetime_total"]))
        assert snapshot["batches"] == 3 and snapshot["version"] == 3

    def test_a_failed_coalesced_run_counts_one_internal_error(self, monkeypatch):
        def fail(handle, batches):
            raise RuntimeError("absorb failed")

        registry = StreamRegistry()
        open_ok(registry, "s1", formulas={"safe": "[] p"})
        monkeypatch.setattr(StreamHandle, "absorb_group", fail)
        frames = [
            {"op": "append", "stream": "s1", "states": [{"values": {"p": True}}]}
            for _ in range(2)
        ]
        (error,) = registry.handle_batch(frames)
        assert error["error"] == "internal" and error["stream"] == "s1"
        snapshot = registry.service_snapshot()
        errors = registry.metrics_snapshot()["serve_errors_total"]["series"]
        assert snapshot["errors"] == sum(row["value"] for row in errors) == 1
        assert {tuple(row["labels"]) for row in errors} == {("internal",)}

    def test_service_totals_are_sums_of_the_serve_counters(self):
        registry = StreamRegistry()
        open_ok(registry, "a", spec="request_ack")
        open_ok(registry, "b", formulas={"safe": "[] p"})
        registry.handle({"op": "append", "stream": "a",
                         "states": [{"values": {"req": True, "ack": False}}]})
        registry.handle({"op": "append", "stream": "b",
                         "states": [{"values": {"p": False}}] * 3})
        registry.handle({"op": "close", "stream": "b"})
        registry.handle({"op": "snapshot", "stream": "ghost"})
        snapshot = registry.service_snapshot()
        metrics = registry.metrics_snapshot()

        def total(name):
            return sum(row["value"] for row in metrics[name]["series"])

        assert snapshot["opened"] == total("serve_streams_opened_total") == 2
        assert snapshot["closed"] == total("serve_streams_closed_total") == 1
        assert snapshot["states_ingested"] == total("serve_states_ingested_total") == 4
        assert snapshot["alerts"] == total("serve_alerts_total") > 0
        assert snapshot["errors"] == total("serve_errors_total") == 1
        assert all(
            type(snapshot[key]) is int
            for key in ("opened", "closed", "states_ingested", "alerts", "errors")
        )

    def test_under_null_metrics_the_service_totals_read_zero(self):
        # The service totals live only in the metrics registry, so one that
        # records nothing reads 0; a stream's own figures live on its
        # handle and still count.
        registry = StreamRegistry(Session(metrics=NULL_METRICS))
        open_ok(registry, "s1", formulas={"safe": "[] p"})
        responses = registry.handle({"op": "append", "stream": "s1",
                                     "states": [{"values": {"p": True}}] * 3})
        assert [r for r in responses if r.get("event") == "alert"]
        (snapshot,) = registry.handle({"op": "snapshot", "stream": "s1"})
        assert snapshot["states_ingested"] == 3 and snapshot["alerts"] == 1
        assert snapshot["step_cost"]["lifetime_batches"] == 1
        assert snapshot["step_cost"]["lifetime_total"] > 0
        registry.handle({"op": "close", "stream": "s1"})
        registry.handle({"op": "snapshot", "stream": "ghost"})
        totals = registry.service_snapshot()
        assert {
            key: totals[key]
            for key in ("opened", "closed", "states_ingested", "alerts", "errors")
        } == {"opened": 0, "closed": 0, "states_ingested": 0, "alerts": 0, "errors": 0}
        assert registry.metrics_snapshot() == {}


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
                assert service.service_snapshot()["framing"]["poisoned_lines"] == 1
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


def run_stats(port, *options):
    """``python -m repro.serve stats`` against a live service, to completion."""
    return subprocess.run(
        [sys.executable, "-m", "repro.serve", "stats", "--port", str(port), *options],
        capture_output=True, encoding="utf-8", timeout=60,
        env={**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(repro.__file__))},
    )


class TestStatsCommand:
    def test_stats_prints_the_fleet_and_its_json(self):
        from repro.serve.client import ServeClient

        rows = [{"values": {"req": True, "ack": False}},
                {"values": {"req": False, "ack": True}}]

        async def scenario():
            service = MonitorService()
            host, port = await service.start()
            try:
                client = await ServeClient.connect(host, port)
                try:
                    for index in range(3):
                        await client.open(f"s{index}", spec="request_ack")
                        await client.append(f"s{index}", rows)
                    await client.close_stream("s0")
                finally:
                    await client.close()
                # The command blocks until it has its answer: run it off the
                # service's event loop.
                return [
                    await asyncio.to_thread(run_stats, port, *options)
                    for options in (("--interval", "0"), ("--json",))
                ]
            finally:
                await service.stop()
                service.close()

        text, raw = asyncio.run(scenario())
        assert text.returncode == 0, text.stderr
        lines = text.stdout.splitlines()
        assert "streams open:     2" in lines
        assert "states ingested:  6" in lines
        # One compile, and the two later opens find the plan by formula
        # identity: both count as hits.
        assert "plan cache:       hits=2 misses=1" in lines
        assert raw.returncode == 0, raw.stderr
        snapshot = json.loads(raw.stdout)
        series = snapshot["serve_states_ingested_total"]["series"]
        assert sum(row["value"] for row in series) == 6

    def test_stats_rate_counts_the_states_between_its_two_samples(self):
        from repro.serve.client import ServeClient

        rows = [{"values": {"req": True, "ack": False}},
                {"values": {"req": False, "ack": True}}]

        async def scenario():
            service = MonitorService()
            host, port = await service.start()
            try:
                client = await ServeClient.connect(host, port)
                try:
                    await client.open("s0", spec="request_ack")
                    await client.append("s0", rows)  # before the first sample
                    served = service.frames_served
                    stats = asyncio.create_task(
                        asyncio.to_thread(run_stats, port, "--interval", "2")
                    )
                    # The command's first metrics frame is its first sample.
                    while service.frames_served == served and not stats.done():
                        await asyncio.sleep(0.01)
                    await client.append("s0", rows * 2)
                    return await stats
                finally:
                    await client.close()
            finally:
                await service.stop()
                service.close()

        result = asyncio.run(scenario())
        assert result.returncode == 0, result.stderr
        assert "states ingested:  6  (2 states/s over 2s)" in result.stdout.splitlines()


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

    def test_pool_totals_are_sums_of_the_fleet_serve_counters(self):
        from repro.serve.worker import ShardPool

        scripts = generate_stream_scripts(4, seed=3, fault_rate=0.5)
        with ShardPool(2) as pool:
            for script in scripts:
                (opened,) = pool.handle(
                    {"op": "open", "stream": script.stream, "spec": script.spec}
                )
                assert opened.get("ok") == "opened", opened
            frames = [
                {"op": "append", "stream": script.stream,
                 "states": trace_to_rows(script.build_trace())}
                for script in scripts
            ]
            responses = pool.handle_batch(frames)
            assert not [r for r in responses if "error" in r]
            (closed,) = pool.handle({"op": "close", "stream": scripts[0].stream})
            assert closed["ok"] == "closed", closed
            (error,) = pool.handle({"op": "snapshot", "stream": "ghost"})
            assert error["error"] == "unknown-stream"
            aggregate = pool.aggregate_snapshot()
            metrics = pool.aggregate_metrics()["metrics"]

        def total(name):
            return sum(row["value"] for row in metrics[name]["series"])

        assert aggregate["opened"] == total("serve_streams_opened_total") == 4
        assert aggregate["closed"] == total("serve_streams_closed_total") == 1
        assert aggregate["states_ingested"] == total("serve_states_ingested_total") \
            == sum(len(frame["states"]) for frame in frames)
        assert aggregate["alerts"] == total("serve_alerts_total") > 0
        assert aggregate["errors"] == total("serve_errors_total") == 1

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
