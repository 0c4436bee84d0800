"""repro.obs: the unified metrics/tracing layer and its wiring.

Covers the observability tentpole's acceptance behaviours:

- registry snapshot/merge round-trips (counters, histogram buckets and
  gauges sum on merge) and the Prometheus-text + JSON exposition encoders;
- the tracer's nested spans and bounded root buffer;
- ``Session.metrics_snapshot()`` reflecting check traffic;
- worker-registry merge determinism under ``check_many(processes=N)``, and
  the counted (and still warned) fall-back to in-process execution;
- the serve ``metrics`` frame — in-process, over the asyncio socket, and
  aggregated across a :class:`ShardPool` — plus the framing counters the
  ``FrameDecoder`` now surfaces.
"""

import asyncio
import json
import warnings

import pytest

from repro.api import CheckRequest, Session
from repro.obs import (
    DEFAULT_SIZE_BUCKETS,
    MetricsRegistry,
    NULL_METRICS,
    NULL_TRACER,
    Tracer,
    merge_snapshots,
    snapshot_quantile,
    to_json,
    to_prometheus_text,
)
from repro.semantics import make_trace
from repro.serve.client import ServeClient
from repro.serve.protocol import FrameDecoder, ProtocolError
from repro.serve.service import MonitorService
from repro.serve.streams import StreamRegistry
from repro.serve.worker import ShardPool
from repro.syntax import parse_formula


ROWS = [{"x": 1, "p": False}, {"x": 2, "p": True}, {"x": 3, "p": True}]

#: Pickle finds functions by qualified name, and a module-level lambda has
#: none it can look up: a request carrying it cannot ship to a worker.
UNPICKLABLE = lambda value: value  # noqa: E731


class TestRegistry:
    def test_counter_gauge_histogram_basics(self):
        registry = MetricsRegistry()
        checks = registry.counter("checks_total", "Checks.", ("engine",))
        checks.child("compiled").inc()
        checks.child("compiled").inc(2)
        checks.labels(engine="evaluator").inc()
        assert checks.value("compiled") == 3
        assert checks.value("evaluator") == 1
        assert checks.total() == 4

        open_streams = registry.gauge("streams_open", "Open streams.")
        open_streams.child().set(5)
        open_streams.child().dec(2)
        assert open_streams.value() == 3

        latency = registry.histogram("latency", "Seconds.", buckets=(0.1, 1.0))
        latency.child().observe(0.05)
        latency.child().observe(0.5)
        latency.child().observe(99.0)  # +Inf bucket
        child = latency.child()
        assert child.buckets == [1, 1, 1]
        assert child.count == 3

    def test_get_or_create_and_conflicts(self):
        registry = MetricsRegistry()
        first = registry.counter("c", "help", ("a",))
        assert registry.counter("c", "other help", ("a",)) is first
        with pytest.raises(ValueError):
            registry.gauge("c")
        with pytest.raises(ValueError):
            registry.counter("c", labels=("a", "b"))
        registry.histogram("h", buckets=(1, 2))
        with pytest.raises(ValueError):
            registry.histogram("h", buckets=(1, 2, 3))

    def test_label_arity_enforced(self):
        registry = MetricsRegistry()
        counter = registry.counter("c", labels=("engine",))
        with pytest.raises(ValueError):
            counter.child()
        with pytest.raises(ValueError):
            counter.child("a", "b")
        with pytest.raises(ValueError):
            counter.labels(wrong="x")

    def test_histogram_buckets_validated(self):
        registry = MetricsRegistry()
        with pytest.raises(ValueError):
            registry.histogram("h1", buckets=())
        with pytest.raises(ValueError):
            registry.histogram("h2", buckets=(2, 1))
        with pytest.raises(ValueError):
            registry.histogram("h3", buckets=(1, float("inf")))


class TestSnapshotAlgebra:
    def build(self):
        registry = MetricsRegistry()
        counter = registry.counter("c", "counts", ("k",))
        counter.child("a").inc(3)
        counter.child("b").inc(1)
        registry.gauge("g", "level").child().set(7)
        hist = registry.histogram("h", "sizes", buckets=(1, 10))
        hist.child().observe(0.5)
        hist.child().observe(5)
        hist.child().observe(50)
        return registry

    def test_snapshot_is_json_safe_and_sorted(self):
        snap = self.build().snapshot()
        assert json.loads(to_json(snap)) == snap
        assert list(snap) == sorted(snap)
        assert snap["h"]["bounds"] == [1.0, 10.0]
        assert snap["h"]["series"][0]["buckets"] == [1, 1, 1]

    def test_merge_round_trip_doubles_everything(self):
        snap = self.build().snapshot()
        merged = merge_snapshots(snap, snap)
        assert merged["c"]["series"] == [
            {"labels": ["a"], "value": 6},
            {"labels": ["b"], "value": 2},
        ]
        # Gauges sum on merge: the fleet-level reading of "open streams".
        assert merged["g"]["series"][0]["value"] == 14
        assert merged["h"]["series"][0]["buckets"] == [2, 2, 2]
        assert merged["h"]["series"][0]["count"] == 6

    def test_merge_is_order_independent(self):
        a = self.build().snapshot()
        other = MetricsRegistry()
        other.counter("c", "counts", ("k",)).child("a").inc(10)
        other.counter("d").child().inc()
        b = other.snapshot()
        assert merge_snapshots(a, b) == merge_snapshots(b, a)

    def test_merge_snapshot_creates_missing_instruments(self):
        snap = self.build().snapshot()
        registry = MetricsRegistry()
        registry.merge_snapshot(snap)
        assert registry.snapshot() == snap

    def test_merge_rejects_mismatched_bucket_grids(self):
        snap = self.build().snapshot()
        registry = MetricsRegistry()
        registry.histogram("h", "sizes", buckets=(1, 10, 100)).child().observe(1)
        with pytest.raises(ValueError):
            registry.merge_snapshot(snap)

    def test_snapshot_quantile_pools_all_series(self):
        registry = MetricsRegistry()
        hist = registry.histogram("h", labels=("k",), buckets=(1, 2, 4))
        for _ in range(50):
            hist.child("a").observe(0.5)
        for _ in range(50):
            hist.child("b").observe(3.0)
        entry = registry.snapshot()["h"]
        assert snapshot_quantile(entry, 0.25) <= 1.0
        assert 2.0 <= snapshot_quantile(entry, 0.9) <= 4.0


class TestHistogramQuantile:
    def test_empty_is_zero_and_range_checked(self):
        registry = MetricsRegistry()
        child = registry.histogram("h", buckets=(1, 2)).child()
        assert child.quantile(0.5) == 0.0
        with pytest.raises(ValueError):
            child.quantile(1.5)

    def test_interpolates_and_clamps_inf(self):
        registry = MetricsRegistry()
        child = registry.histogram("h", buckets=(10, 20)).child()
        for _ in range(100):
            child.observe(15)
        q = child.quantile(0.5)
        assert 10 <= q <= 20
        child2 = registry.histogram("h2", buckets=(10, 20)).child()
        child2.observe(1000)
        # +Inf bucket clamps to the largest finite bound.
        assert child2.quantile(0.99) == 20.0


class TestPrometheusText:
    def test_labelled_series_and_cumulative_buckets(self):
        registry = MetricsRegistry()
        registry.counter("c_total", "The counter.", ("engine",)).child(
            "compiled"
        ).inc(3)
        hist = registry.histogram("lat", "Latency.", buckets=(0.1, 1.0))
        hist.child().observe(0.05)
        hist.child().observe(0.5)
        hist.child().observe(9.0)
        text = to_prometheus_text(registry.snapshot())
        assert "# HELP c_total The counter." in text
        assert "# TYPE c_total counter" in text
        assert 'c_total{engine="compiled"} 3' in text
        # Buckets are cumulative on the wire though stored per-bucket.
        assert 'lat_bucket{le="0.1"} 1' in text
        assert 'lat_bucket{le="1"} 2' in text
        assert 'lat_bucket{le="+Inf"} 3' in text
        assert "lat_sum" in text and "lat_count 3" in text

    def test_label_values_escaped(self):
        registry = MetricsRegistry()
        registry.counter("c", labels=("path",)).child('a"b\\c').inc()
        text = to_prometheus_text(registry.snapshot())
        assert 'c{path="a\\"b\\\\c"} 1' in text

    def test_empty_snapshot_renders_empty(self):
        assert to_prometheus_text({}) == ""


class TestNullMetrics:
    def test_discards_everything(self):
        NULL_METRICS.counter("x", labels=("a",)).child("whatever").inc(100)
        NULL_METRICS.gauge("y").child().set(5)
        NULL_METRICS.histogram("z").child().observe(1.0)
        assert NULL_METRICS.snapshot() == {}
        NULL_METRICS.merge_snapshot({"c": {"type": "counter"}})
        assert NULL_METRICS.snapshot() == {}
        assert NULL_METRICS.counter("x", labels=("a",)).total() == 0


class TestTracer:
    def test_nesting_and_attrs(self):
        tracer = Tracer()
        with tracer.span("outer", a=1) as outer:
            with tracer.span("inner") as inner:
                inner.set(b=2)
            assert tracer.current() is outer
        assert tracer.current() is None
        (root,) = tracer.roots()
        assert root.name == "outer" and root.attrs == {"a": 1}
        assert [c.name for c in root.children] == ["inner"]
        assert root.wall_s >= root.children[0].wall_s >= 0
        exported = tracer.spans()
        assert exported[-1]["children"][0]["attrs"] == {"b": 2}

    def test_root_buffer_is_bounded(self):
        tracer = Tracer(max_spans=4)
        for index in range(10):
            with tracer.span(f"s{index}"):
                pass
        assert tracer.started == tracer.finished == 10
        assert [s["name"] for s in tracer.spans()] == ["s6", "s7", "s8", "s9"]
        assert [s["name"] for s in tracer.spans(limit=2)] == ["s8", "s9"]

    def test_exception_recorded_on_span(self):
        tracer = Tracer()
        with pytest.raises(RuntimeError):
            with tracer.span("boom"):
                raise RuntimeError("x")
        (root,) = tracer.roots()
        assert root.attrs["error"] == "RuntimeError"

    def test_null_tracer_records_nothing(self):
        with NULL_TRACER.span("anything", k=1) as span:
            span.set(more=2)
        assert NULL_TRACER.spans() == []


class TestSessionMetrics:
    def test_metrics_snapshot_reflects_checks(self):
        session = Session()
        trace = make_trace(ROWS)
        session.check("<> x == 2", trace=trace)
        session.check("<> x == 2", trace=trace)  # plan-cache hit
        snap = session.metrics_snapshot()
        checks = sum(r["value"] for r in snap["repro_checks_total"]["series"])
        assert checks == 2
        plan = {
            tuple(r["labels"]): r["value"]
            for r in snap["repro_plan_requests_total"]["series"]
        }
        assert plan[("hit",)] >= 1 and plan[("miss",)] >= 1
        latency = snap["repro_check_seconds"]
        assert sum(r["count"] for r in latency["series"]) == 2
        # Gauges mirror cache_statistics.
        assert snap["repro_plan_cache_hits"]["series"][0]["value"] >= 1

    def test_check_spec_paths_counted(self):
        from repro.specs import sender_spec
        from repro.systems import ab_protocol_trace

        session = Session()
        session.check_spec(sender_spec(), ab_protocol_trace())
        snap = session.metrics_snapshot()
        paths = {
            tuple(r["labels"]): r["value"]
            for r in snap["repro_spec_checks_total"]["series"]
        }
        assert sum(paths.values()) >= 1

    def test_tracer_captures_check_spans(self):
        session = Session()
        session.check("<> x == 2", trace=make_trace(ROWS))
        spans = session.tracer.spans()
        assert spans and spans[-1]["name"] == "check"
        assert spans[-1]["attrs"]["engine"]


class TestWorkerMergeDeterminism:
    def requests(self, count):
        trace = make_trace(ROWS)
        return [
            CheckRequest(parse_formula(f"<> x == {1 + index % 3}"), trace=trace)
            for index in range(count)
        ]

    def test_parallel_merge_totals_and_stability(self):
        totals = []
        for _ in range(2):
            session = Session()
            session.check_many(self.requests(6), processes=2, chunk_size=2)
            snap = session.metrics_snapshot()
            totals.append(
                sum(r["value"] for r in snap["repro_checks_total"]["series"])
            )
            chunks = snap["repro_parallel_chunks_total"]["series"][0]["value"]
            assert chunks == 3
        # Fan-out order cannot change the merged totals.
        assert totals == [6, 6]

    def test_fallback_to_serial_is_counted_by_reason(self):
        # A lambda in ``env`` cannot be pickled to a worker, so the fan-out
        # falls back to running the batch in-process.
        requests = [
            request.with_options(env={"scale": UNPICKLABLE})
            for request in self.requests(4)
        ]
        session = Session()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            fanned = session.check_many(requests, processes=2)
        serial = Session().check_many(requests)
        assert [r.verdict for r in fanned] == [r.verdict for r in serial]
        fallbacks = [w for w in caught if issubclass(w.category, RuntimeWarning)]
        assert len(fallbacks) == 1
        series = session.metrics_snapshot()["repro_parallel_fallbacks_total"]["series"]
        assert sum(row["value"] for row in series) == 1
        assert {tuple(row["labels"]): row["value"] for row in series} == {
            ("PicklingError",): 1
        }


class TestServeMetrics:
    def test_metrics_frame_counts_ingested_states(self):
        registry = StreamRegistry()
        (opened,) = registry.handle(
            {"op": "open", "stream": "s1", "formulas": {"ev": "<> p"}}
        )
        assert opened["ok"] == "opened"
        registry.handle(
            {"op": "append", "stream": "s1",
             "states": [{"values": {"p": False}}, {"values": {"p": True}}]}
        )
        (frame,) = registry.handle({"op": "metrics"})
        assert frame["ok"] == "metrics"
        snap = frame["metrics"]
        states = sum(
            r["value"] for r in snap["serve_states_ingested_total"]["series"]
        )
        assert states == 2
        assert snap["serve_streams_open"]["series"][0]["value"] == 1
        assert snap["serve_batch_states"]["bounds"] == list(
            float(b) for b in DEFAULT_SIZE_BUCKETS
        )

    def test_error_frames_labelled_by_code(self):
        registry = StreamRegistry()
        (error,) = registry.handle({"op": "append", "stream": "ghost",
                                    "states": [{"values": {}}]})
        assert error["error"] == "unknown-stream"
        snap = registry.metrics_snapshot()
        errors = {
            tuple(r["labels"]): r["value"]
            for r in snap["serve_errors_total"]["series"]
        }
        assert errors[("unknown-stream",)] == 1

    def test_frame_decoder_counts_poisoning_and_resync(self):
        decoder = FrameDecoder(max_line=32)
        with pytest.raises(ProtocolError):
            decoder.feed(b"x" * 64)
        assert decoder.poisoned_lines == 1 and decoder.resyncs == 0
        # Garbage continues, then a newline: the decoder resynchronizes.
        assert decoder.feed(b"more garbage") == []
        assert decoder.feed(b"tail\n{\"op\":\"ping\"}\n") == [b'{"op":"ping"}']
        assert decoder.resyncs == 1

    def test_service_snapshot_carries_framing_counts(self):
        service = MonitorService()
        snapshot = service.service_snapshot()
        assert snapshot["framing"] == {"poisoned_lines": 0, "resyncs": 0}
        service.close()

    def test_metrics_over_asyncio_socket(self):
        async def scenario():
            service = MonitorService()
            host, port = await service.start("127.0.0.1", 0)
            try:
                client = await ServeClient.connect(host, port)
                try:
                    reply = await client.open("s1", formulas={"ev": "<> p"})
                    assert reply["ok"] == "opened"
                    await client.append(
                        "s1", [{"values": {"p": True}}, {"values": {"p": True}}]
                    )
                    snap = await client.metrics()
                finally:
                    await client.close()
            finally:
                await service.stop()
                service.close()
            return snap

        snap = asyncio.run(scenario())
        states = sum(
            r["value"] for r in snap["serve_states_ingested_total"]["series"]
        )
        assert states == 2
        # Front-end series are merged into the wire response.
        assert snap["serve_connections_served"]["series"][0]["value"] >= 1
        assert "serve_framing_poisoned_total" in snap

    def test_shard_pool_aggregates_worker_registries(self):
        with ShardPool(2) as pool:
            streams = [f"s{i}" for i in range(6)]
            opens = [
                {"op": "open", "stream": s, "formulas": {"ev": "<> p"}}
                for s in streams
            ]
            for response in pool.handle_batch(opens):
                assert response["ok"] == "opened", response
            appends = [
                {"op": "append", "stream": s, "states": [{"values": {"p": True}}]}
                for s in streams
            ]
            for response in pool.handle_batch(appends):
                if response.get("event") == "alert":
                    continue
                assert response["ok"] == "appended", response
            # Both shards own streams (consistent hashing spreads 6 names).
            owners = {pool.worker_for(s) for s in streams}
            frame = pool.aggregate_metrics()
        assert frame["ok"] == "metrics" and frame["shards"] == 2
        snap = frame["metrics"]
        states = sum(
            r["value"] for r in snap["serve_states_ingested_total"]["series"]
        )
        assert states == len(streams)
        if len(owners) == 2:
            opened = sum(
                r["value"] for r in snap["serve_streams_opened_total"]["series"]
            )
            assert opened == len(streams)

    def test_prometheus_endpoint_scrape(self):
        async def scenario():
            service = MonitorService()
            host, port = await service.start("127.0.0.1", 0)
            mhost, mport = await service.start_metrics_endpoint("127.0.0.1", 0)
            try:
                client = await ServeClient.connect(host, port)
                try:
                    await client.open("s1", formulas={"ev": "<> p"})
                    await client.append("s1", [{"values": {"p": True}}])
                finally:
                    await client.close()
                reader, writer = await asyncio.open_connection(mhost, mport)
                writer.write(b"GET /metrics HTTP/1.0\r\n\r\n")
                await writer.drain()
                raw = await reader.read()
                writer.close()
                await writer.wait_closed()
            finally:
                await service.stop()
                service.close()
            return raw

        raw = asyncio.run(scenario())
        head, _, body = raw.partition(b"\r\n\r\n")
        assert head.startswith(b"HTTP/1.0 200 OK")
        assert b"text/plain" in head
        text = body.decode("utf-8")
        assert "# TYPE serve_states_ingested_total counter" in text
        assert 'serve_states_ingested_total{family="formulas"} 1' in text
