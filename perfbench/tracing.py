"""Span recording around the system's layers, installed from outside ``src/``.

:func:`install` replaces selected functions and methods of the ``repro``
modules with thin wrappers that open a span on entry and close it on exit.
Spans nest on one synchronous stack (every wrapped call is synchronous, and
with no shards all registry work runs on the service's event-loop thread),
so a span's *self time* is its duration minus the durations of the spans it
directly contains.  Spans are aggregated in memory per name as they close
and handed out by :meth:`Recorder.report` when the run ends.

The accounting identity: the self times of all spans sum to the durations of
the outermost spans, and ``other`` is the traced wall time minus that sum,
so ``sum(self) + other == wall`` with every term non-negative.
"""

from __future__ import annotations

import pickle
import time
from collections import defaultdict
from typing import Any, Callable, Dict, List, Optional

_clock = time.perf_counter


class Recorder:
    """In-memory span aggregates: self time, total time and calls per name."""

    def __init__(self) -> None:
        self._stack: List[List[float]] = []
        self.self_s: Dict[str, float] = defaultdict(float)
        self.total_s: Dict[str, float] = defaultdict(float)
        self.calls: Dict[str, int] = defaultdict(int)
        #: Counts collected by observation hooks (frames per absorb, replays,
        #: profile bits ...), keyed like the per-layer metrics they feed.
        self.counts: Dict[str, float] = defaultdict(float)
        #: Per-observe_batch (states, dispatch calls) in call order, for the
        #: first-tenth/last-tenth dispatch growth ratio.
        self.batches: List[tuple] = []
        #: The chunk lists ``split_chunks`` returned, pickled (to measure
        #: the worker payload) only once the traced window is over.
        self.chunks: List[Any] = []
        #: Sessions seen by the wrappers; their pool hits are read at the end.
        self.sessions: List[Any] = []
        #: Total duration of the outermost spans.
        self.top_s = 0.0
        self.started: Optional[float] = None
        self.stopped: Optional[float] = None

    def start(self) -> None:
        self.started = _clock()

    def stop(self) -> None:
        self.stopped = _clock()

    @property
    def wall_s(self) -> float:
        return (self.stopped or _clock()) - (self.started or 0.0)

    def wrap(
        self,
        owner: Any,
        attr: str,
        name: str,
        rename: Optional[Callable[[tuple, Any], str]] = None,
        before: Optional[Callable[[tuple], Any]] = None,
        after: Optional[Callable[[tuple, Any, Any], None]] = None,
    ) -> None:
        """Replace ``owner.attr`` by a span-recording wrapper.

        ``rename(args, result)`` may file a call under another span name
        (plan-cache misses become ``compile.compile``); ``before(args)``
        runs just before the span opens and its value is passed to
        ``after(args, result, token)``, which runs once the span is closed.
        """
        original = getattr(owner, attr)
        stack = self._stack
        self_s, total_s, calls = self.self_s, self.total_s, self.calls
        recorder = self

        def traced(*args, **kwargs):
            token = before(args) if before is not None else None
            frame = [0.0]
            stack.append(frame)
            start = _clock()
            result = None
            try:
                result = original(*args, **kwargs)
                return result
            finally:
                end = _clock()
                stack.pop()
                span = name if rename is None else rename(args, result)
                duration = end - start
                self_s[span] += duration - frame[0]
                total_s[span] += duration
                calls[span] += 1
                if stack:
                    stack[-1][0] += duration
                else:
                    recorder.top_s += duration
                if after is not None:
                    after(args, result, token)

        traced.__wrapped__ = original
        traced.__name__ = getattr(original, "__name__", attr)
        setattr(owner, attr, traced)

    def accounting(self) -> Dict[str, float]:
        """Self times, ``other`` and the wall they must add up to.

        ``other`` is the wall minus the outermost spans, measured apart
        from the self times, so the identity checks the span nesting.
        """
        wall = self.wall_s
        named = sum(self.self_s.values())
        other = wall - self.top_s
        negative = [name for name, value in self.self_s.items() if value < -1e-9]
        if negative or other < -1e-6:
            raise AssertionError(
                f"trace accounting broken: negative self time in {negative}, "
                f"other={other:.6f}s"
            )
        if abs(named + other - wall) > 1e-6:
            raise AssertionError("trace accounting: self times + other != wall")
        return {"wall_s": wall, "named_s": named, "other_s": other}

    def report(self) -> Dict[str, Any]:
        """The JSON-safe aggregates, read once the traced window is over."""
        batches = self.batches
        k = max(1, len(batches) // 10)

        def per_state(part) -> float:
            return sum(d for _, d in part) / max(1, sum(s for s, _ in part))

        first = per_state(batches[:k])
        multi = [chunks for chunks in self.chunks if len(chunks) > 1]
        return {
            **self.accounting(),
            "self_s": dict(self.self_s),
            "total_s": dict(self.total_s),
            "calls": dict(self.calls),
            "counts": dict(self.counts),
            "dispatch_per_state": per_state(batches),
            "dispatch_growth": per_state(batches[-k:]) / first if first else 0.0,
            "pool_hits": sum(
                s.cache_statistics()["plan_state_pool_hits"] for s in self.sessions
            ),
            # Only fan-outs of more than one chunk reach worker processes.
            "chunks": sum(len(chunks) for chunks in multi),
            "payload_bytes": sum(
                len(pickle.dumps((chunk, None))) for chunks in multi for chunk in chunks
            ),
        }


#: Per-layer time metric → the span names whose self time it sums.  Every
#: span name appears exactly once, so these plus ``trace.other_s`` add up
#: to ``trace.wall_s``.
LAYER_TIMES = {
    "service.dispatch_s": ("service.dispatch",),
    "protocol.decode_s": ("protocol.feed", "protocol.decode"),
    "protocol.to_state_s": ("protocol.to_state",),
    "protocol.encode_s": ("protocol.encode",),
    "registry.dispatch_s": ("registry.dispatch",),
    "registry.open_s": ("registry.open",),
    "registry.append_s": ("registry.append",),
    "registry.absorb_s": ("registry.absorb",),
    "registry.snapshot_s": ("registry.snapshot",),
    "registry.close_s": ("registry.close",),
    "monitor.observe_s": ("monitor.observe",),
    "session.monitor_s": ("session.monitor",),
    "session.release_s": ("session.release",),
    "session.check_spec_s": ("session.check_spec",),
    "session.metrics_s": ("session.metrics",),
    "compile.compile_s": ("compile.compile",),
    "compile.lookup_s": ("compile.lookup",),
    "compile.lower_s": ("compile.lower",),
    "compile.note_append_s": ("compile.note_append",),
    "compile.eval_s": ("compile.eval",),
    "vector.tail_profile_s": ("vector.tail_profile",),
    "vector.bitset_profile_s": ("vector.bitset_profile",),
    "columns.absorb_s": ("columns.absorb",),
    "columns.build_s": ("columns.build",),
    "prefix.append_s": ("prefix.append",),
    "parallel.run_chunked_s": ("parallel.run_chunked", "parallel.split"),
}

#: Metrics that must repeat exactly for a given seed.
DETERMINISTIC = (
    "protocol.bytes_per_state",
    "registry.frames_per_absorb",
    "registry.replays",
    "monitor.dispatch_per_state",
    "monitor.dispatch_growth",
    "monitor.memo_entries",
    "session.pool_hit_ratio",
    "compile.compilations",
    "compile.lowerings_per_stream",
    "compile.event_searches",
    "vector.tail_profile_bits",
    "parallel.chunks",
    "parallel.payload_bytes",
    "parallel.fallbacks",
)


def layer_metrics(report: Dict[str, Any], extra: Dict[str, float]) -> Dict[str, tuple]:
    """Per-layer metrics ``{name: (value, unit)}`` from a traced report.

    ``extra`` carries what the workload measured outside the spans: states
    ingested, monitoring units (streams opened or traces checked), wire
    bytes, the client-observed mean latency, memory-pass bytes, and the
    untraced and traced ``run_s``.
    """
    self_s = report["self_s"]
    calls = report["calls"]
    counts = report["counts"]

    def ratio(numerator: float, denominator: float) -> float:
        return numerator / denominator if denominator else 0.0

    metrics: Dict[str, tuple] = {
        name: (sum(self_s.get(span, 0.0) for span in spans), "s")
        for name, spans in LAYER_TIMES.items()
    }
    dispatch_calls = calls.get("service.dispatch", 0)
    handled = ratio(report["total_s"].get("service.dispatch", 0.0), dispatch_calls)
    client = extra.get("client_latency_s")
    metrics.update({
        "service.frames_per_dispatch": (ratio(counts.get("service.frames", 0), dispatch_calls), "frames"),
        "client.rtt_ms": ((client - handled) * 1e3 if client else 0.0, "ms"),
        "protocol.decode_calls": (calls.get("protocol.decode", 0), "count"),
        "protocol.encode_calls": (calls.get("protocol.encode", 0), "count"),
        "protocol.bytes_per_state": (ratio(extra.get("wire_bytes", 0), extra["states"]), "bytes"),
        "registry.opens": (calls.get("registry.open", 0), "count"),
        "registry.snapshots": (calls.get("registry.snapshot", 0), "count"),
        "registry.frames_per_absorb": (
            ratio(counts.get("registry.frames", 0), counts.get("registry.commits", 0)), "frames"),
        "registry.replays": (counts.get("registry.replays", 0), "count"),
        "monitor.dispatch_per_state": (report["dispatch_per_state"], "calls"),
        "monitor.dispatch_growth": (report["dispatch_growth"], "ratio"),
        "monitor.memo_entries": (
            ratio(counts.get("monitor.memo_entries", 0), counts.get("registry.closed", 0)), "entries"),
        "session.monitors": (calls.get("session.monitor", 0), "count"),
        "session.pool_hit_ratio": (ratio(report["pool_hits"], calls.get("session.monitor", 0)), "ratio"),
        "compile.compilations": (calls.get("compile.compile", 0), "count"),
        "compile.lowerings_per_stream": (ratio(calls.get("compile.lower", 0), extra["units"]), "ratio"),
        "compile.event_searches": (counts.get("compile.event_searches", 0), "count"),
        "vector.tail_profile_calls": (calls.get("vector.tail_profile", 0), "count"),
        "vector.tail_profile_bits": (
            ratio(counts.get("vector.profile_bits", 0), counts.get("vector.profiles", 0)), "bits"),
        "columns.absorb_calls": (calls.get("columns.absorb", 0), "count"),
        "parallel.chunks": (report["chunks"], "count"),
        "parallel.payload_bytes": (report["payload_bytes"], "bytes"),
        "parallel.fallbacks": (extra.get("fallbacks", 0), "count"),
        "memory.bytes_per_stream": (extra.get("bytes_per_stream", 0.0), "bytes"),
        "memory.bytes_per_state": (extra.get("bytes_per_state", 0.0), "bytes"),
        "trace.wall_s": (report["wall_s"], "s"),
        "trace.other_s": (report["other_s"], "s"),
        "trace.coverage": (ratio(report["named_s"], report["wall_s"]), "ratio"),
        "trace.overhead": (ratio(extra["traced_run_s"], extra["untraced_run_s"]), "ratio"),
    })
    layered = sum(metrics[name][0] for name in LAYER_TIMES)
    if abs(layered + report["other_s"] - report["wall_s"]) > 1e-6:
        raise AssertionError("per-layer self times + other != traced wall time")
    return metrics


def _compile_or_lookup(args: tuple, result: Any) -> str:
    """``PlanCache.get``/``get_spec`` return ``(plan, from_cache)``."""
    return "compile.compile" if result is not None and not result[1] else "compile.lookup"


def install(recorder: Recorder) -> None:
    """Wrap every named layer boundary of the ``repro`` package."""
    from repro.api import parallel, session as session_mod
    from repro.checking.monitor import Monitor
    from repro.compile import cache, lower, runtime, specplan, vector
    from repro.semantics import columns
    from repro.serve import protocol, service, streams

    wrap = recorder.wrap
    counts = recorder.counts

    def dispatch_after(args: tuple, result: Any, token: Any) -> None:
        counts["service.frames"] += len(args[1])

    wrap(service.MonitorService, "handle_batch", "service.dispatch", after=dispatch_after)

    wrap(protocol.FrameDecoder, "feed", "protocol.feed")
    for module in (protocol, service):
        wrap(module, "decode_frame", "protocol.decode")
        wrap(module, "encode_frame", "protocol.encode")
    wrap(streams, "rows_to_states", "protocol.to_state")

    wrap(streams.StreamRegistry, "handle_batch", "registry.dispatch")
    wrap(streams.StreamRegistry, "handle", "registry.dispatch")
    wrap(streams.StreamRegistry, "open", "registry.open")
    wrap(streams.StreamRegistry, "append", "registry.append")
    wrap(streams.StreamRegistry, "append_group", "registry.append")

    def close_before(args: tuple) -> None:
        registry, name = args[0], args[1]
        try:
            plan_state = registry.stream(name).monitor.plan_state
        except protocol.ProtocolError:
            return  # unknown stream: close answers the error frame itself
        counts["monitor.memo_entries"] += plan_state.memo_size
        counts["compile.event_searches"] += plan_state.stats.event_searches
        counts["registry.closed"] += 1

    wrap(streams.StreamRegistry, "close", "registry.close", before=close_before)

    def absorb_after(args: tuple, result: Any, token: Any) -> None:
        counts["registry.commits"] += 1
        counts["registry.frames"] += 1

    def group_before(args: tuple) -> bool:
        # A one-frame group delegates to absorb(), which counts itself.
        return len(args[1]) > 1

    def group_after(args: tuple, result: Any, counted: bool) -> None:
        if not counted or result is None:
            return
        counts["registry.commits"] += 1
        counts["registry.frames"] += len(args[1])
        if any(alerts for alerts, _, _, _ in result):
            counts["registry.replays"] += 1

    wrap(streams.StreamHandle, "absorb", "registry.absorb", after=absorb_after)
    wrap(streams.StreamHandle, "absorb_group", "registry.absorb",
         before=group_before, after=group_after)
    wrap(streams.StreamHandle, "snapshot", "registry.snapshot")

    def observe_before(args: tuple) -> int:
        return args[0].plan_state.stats.dispatch_calls

    def observe_after(args: tuple, result: Any, before: int) -> None:
        states = len(args[1])
        dispatch = args[0].plan_state.stats.dispatch_calls - before
        recorder.batches.append((states, dispatch))

    wrap(Monitor, "observe_batch", "monitor.observe",
         before=observe_before, after=observe_after)

    def session_seen(args: tuple) -> None:
        if not any(s is args[0] for s in recorder.sessions):
            recorder.sessions.append(args[0])

    wrap(session_mod.Session, "monitor", "session.monitor", before=session_seen)
    wrap(session_mod.Session, "release_monitor", "session.release")
    wrap(session_mod.Session, "check_spec", "session.check_spec", before=session_seen)
    wrap(session_mod.Session, "metrics_snapshot", "session.metrics")

    wrap(cache.PlanCache, "get", "compile.lookup", rename=_compile_or_lookup)
    wrap(cache.PlanCache, "get_spec", "compile.lookup", rename=_compile_or_lookup)
    wrap(lower, "bind_dispatch", "compile.lower")
    wrap(runtime.PlanState, "note_append", "compile.note_append")

    def check_all_after(args: tuple, result: Any, token: Any) -> None:
        counts["compile.event_searches"] += args[0].stats.event_searches

    wrap(specplan.SpecPlanState, "satisfies", "compile.eval")
    wrap(specplan.SpecPlanState, "check_all", "compile.eval", after=check_all_after)

    def profile_after(args: tuple, result: Any, token: Any) -> None:
        if isinstance(result, int):
            counts["vector.profile_bits"] += result.bit_length()
            counts["vector.profiles"] += 1

    wrap(vector.TailKernel, "profile", "vector.tail_profile", after=profile_after)
    wrap(vector.BitsetKernel, "profile", "vector.bitset_profile")

    wrap(columns.IncrementalColumnStore, "absorb", "columns.absorb")
    wrap(columns.ColumnStore, "_build", "columns.build")
    wrap(runtime.GrowingPrefix, "append", "prefix.append")

    def chunks_after(args: tuple, result: Any, token: Any) -> None:
        recorder.chunks.append(result)

    wrap(parallel, "split_chunks", "parallel.split", after=chunks_after)
    wrap(parallel, "run_chunked", "parallel.run_chunked")
