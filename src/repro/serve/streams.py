"""Named monitored streams and the per-worker stream registry.

A :class:`StreamRegistry` is the synchronous core every transport shares:
the asyncio front end (single-process service), each shard worker process,
and the corpus replay harness all push decoded request frames through
:meth:`StreamRegistry.handle` and write back whatever response frames it
returns.  One registry owns one :class:`~repro.api.session.Session`, so
every stream opened on the same specification reuses one warm compiled
plan.

Each stream is an incremental :class:`~repro.checking.monitor.Monitor` —
one multi-root ``PlanState`` with tail-aware memos — plus a
version counter bumped once per committed batch.  A snapshot read builds
a small version-stamped verdict digest from the monitor when it is asked
for.  A registry is single-threaded (in process and in each shard
worker), so no read can fall between a batch and its commit: every
snapshot shows the last *committed* batch, and each read gets a frame of
its own.

Verdict-change alerts ride the monitor's ``on_change`` hook: whenever a
clause's verdict flips (or first materializes, or starts erroring), the
registry emits an ``alert`` event frame ahead of the triggering frame's
acknowledgement.

**Same-stream coalescing.**  :meth:`StreamRegistry.handle_batch` is the
batch entry every transport shipping multiple frames at once uses (shard
workers, the asyncio front end's per-read frame lists, replay harnesses).
Back-to-back ``append`` frames for one stream are absorbed as **one**
runtime batch — one volatile-memo sweep, one tail-kernel extension, one
verdict re-evaluation with ``commits=k`` so every clause's ``stable_for``
advances exactly as ``k`` frame-at-a-time commits would have.  Each frame
still gets its own acknowledgement (cumulative length, its own snapshot
version), and when a verdict differs between a coalesced group's two
ends the handle replays the stream frame-at-a-time on a fresh monitor
from its retained frame boundaries, recovering the exact per-frame alert
positions and ``stable_for`` resets.  One case is not recovered: a
verdict that flips and flips back inside the group, while every verdict
ends the group as it began it, raises no alert, where frame-at-a-time
dispatch raises two (pinned by a strict xfail; ROADMAP item 3).
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from ..api.session import Session
from ..obs import DEFAULT_SIZE_BUCKETS
from ..semantics.columns import Window
from ..syntax.parser import parse_formula
from .protocol import ProtocolError, rows_to_states, validate_request

__all__ = ["SPEC_FACTORIES", "StreamHandle", "StreamRegistry"]


def _spec_factories() -> Dict[str, Callable[[], Any]]:
    # Lazy: repro.specs pulls in the full syntax/builder stack.
    from ..specs import (
        arbiter_spec,
        mutex_spec,
        receiver_spec,
        reliable_queue_spec,
        request_ack_spec,
        sender_spec,
        service_provided_spec,
        stack_spec,
        unreliable_queue_spec,
    )

    return {
        "mutex": mutex_spec,
        "reliable_queue": reliable_queue_spec,
        "stack": stack_spec,
        "unreliable_queue": unreliable_queue_spec,
        "arbiter": arbiter_spec,
        "request_ack": request_ack_spec,
        "ab_sender": sender_spec,
        "ab_receiver": receiver_spec,
        "ab_service": service_provided_spec,
    }


#: ``open`` frames with ``"spec": name`` resolve through this registry —
#: the paper's Chapter 5-8 specifications, ready to serve.
SPEC_FACTORIES = _spec_factories


class StreamHandle:
    """One named stream: an incremental monitor plus its commit counters."""

    __slots__ = (
        "name",
        "family",
        "monitor",
        "version",
        "states_ingested",
        "batches",
        "alerts_emitted",
        "_pending_alerts",
        "_frame_counts",
        "_rebuild",
        "_stat_window",
        "_costs",
        "_cost_commits",
        "_cost_total",
    )

    def __init__(
        self,
        name: str,
        monitor,
        rebuild: Callable[[], Any],
        family: str = "formulas",
        stat_window: int = 256,
    ) -> None:
        self.name = name
        #: The spec family this stream monitors (a registered spec name, or
        #: ``"formulas"`` for ad-hoc clause maps) — the label the registry
        #: files this stream's metrics series under.
        self.family = family
        self.monitor = monitor
        #: Bumped once per committed batch; snapshots carry it, so a client
        #: polling snapshots can tell "no progress" from "no change".
        self.version = 0
        self.states_ingested = 0
        self.batches = 0
        self.alerts_emitted = 0
        self._pending_alerts: List[Dict[str, Any]] = []
        #: State count of every committed frame, in order — the commit
        #: boundaries a coalesced group's flip replay reconstructs from.
        self._frame_counts: List[int] = []
        #: Builds a fresh, empty monitor for the same formulas (the
        #: registry passes one backed by the session's warm plan cache).
        self._rebuild = rebuild
        #: The step cost (plan dispatch calls) of each of the last
        #: ``stat_window`` commits — a coalesced run is one commit — and
        #: the lifetime count and sum of every commit's cost.
        self._stat_window = stat_window
        self._costs: List[int] = []
        self._cost_commits = 0
        self._cost_total = 0
        monitor.on_change = self._on_change  # the stream owns the alert hook

    # -- alerts ---------------------------------------------------------------

    def _on_change(self, clause: str, verdict) -> None:
        alert: Dict[str, Any] = {
            "event": "alert",
            "stream": self.name,
            "clause": clause,
            "verdict": verdict.holds,
            "at": self.monitor.prefix_length,
        }
        if verdict.error is not None:
            alert["error"] = verdict.error
        self._pending_alerts.append(alert)

    # -- ingestion ------------------------------------------------------------

    def _record_cost(self) -> None:
        """Read the commit's step cost, right after its ``observe_batch``
        (a flip replay later swaps the monitor, not this number)."""
        cost = self.monitor.last_step_cost
        costs = self._costs
        costs.append(cost)
        if len(costs) > self._stat_window:
            del costs[0]
        self._cost_commits += 1
        self._cost_total += cost

    @property
    def last_step_cost(self) -> int:
        """The step cost of the latest commit (0 before any)."""
        return self._costs[-1] if self._costs else 0

    def absorb(self, states) -> List[Dict[str, Any]]:
        """Commit one batch; returns the alert frames it raised."""
        self.monitor.observe_batch(states)
        self._record_cost()
        self.version += 1
        self.states_ingested += len(states)
        self.batches += 1
        self._frame_counts.append(len(states))
        alerts, self._pending_alerts = self._pending_alerts, []
        self.alerts_emitted += len(alerts)
        return alerts

    def absorb_group(
        self, batches: Sequence[Window]
    ) -> List[Tuple[List[Dict[str, Any]], Dict[str, Optional[bool]], int, int]]:
        """Commit ``k`` back-to-back frames as one coalesced runtime batch.

        The frames' windows, concatenated, are absorbed in **one**
        :meth:`~repro.checking.monitor.Monitor.observe_batch` call with
        ``commits=k`` — one volatile-memo sweep and one verdict refresh
        whose ``stable_for`` weights stand in for the ``k`` commits.  Every
        frame keeps its own snapshot version (``k`` bumps).

        Returns one ``(alerts, verdict_map, length, version)`` entry per
        frame.  On the common no-flip path the alert lists are empty and
        the maps identical; when a verdict differs between the group's two
        ends, the stream is replayed frame-at-a-time from its retained
        commit boundaries on a fresh monitor, recovering the exact
        mid-group alert positions and ``stable_for`` resets (see
        :meth:`_replay_group`).  A verdict that flips and flips back inside
        the group, with no verdict changed at its ends, raises no alert,
        unlike frame-at-a-time ingestion (ROADMAP item 3).
        """
        if len(batches) == 1:
            alerts = self.absorb(batches[0])
            return [
                (alerts, self.verdict_map(), self.monitor.prefix_length, self.version)
            ]
        start_version = self.version
        start_length = self.monitor.prefix_length
        merged = Window.join(batches)
        commits = sum(1 for batch in batches if batch)
        if merged:
            self.monitor.observe_batch(merged, commits=commits)
            self._record_cost()
        self.version += len(batches)
        self.states_ingested += len(merged)
        self.batches += len(batches)
        self._frame_counts.extend(len(batch) for batch in batches)
        alerts, self._pending_alerts = self._pending_alerts, []
        if alerts:
            pairs = self._replay_group(len(batches))
        else:
            verdicts = self.verdict_map()
            pairs = [([], verdicts) for _ in batches]
        for frame_alerts, _ in pairs:
            self.alerts_emitted += len(frame_alerts)
        out: List[Tuple[List[Dict[str, Any]], Dict[str, Optional[bool]], int, int]] = []
        length = start_length
        for index, (batch, (frame_alerts, verdicts)) in enumerate(zip(batches, pairs)):
            length += len(batch)
            out.append((frame_alerts, verdicts, length, start_version + index + 1))
        return out

    def _replay_group(
        self, group_size: int
    ) -> List[Tuple[List[Dict[str, Any]], Dict[str, Optional[bool]]]]:
        """Exact per-frame alerts for a coalesced group that flipped.

        A flip observed at the group boundary could have happened at any
        of the group's commit points; clients are promised frame-at-a-time
        alert positions and ``stable_for`` resets regardless of how frames
        were coalesced.  So: rebuild a fresh monitor (plan comes warm from
        the session cache), replay every retained commit silently up to
        the group, then commit the group's frames one at a time, capturing
        alerts and verdict maps per frame.  The replayed monitor replaces
        the optimistic one — its final verdicts are identical (batched
        absorption is verdict-equivalent by construction); only the alert
        granularity differs.  Flips are rare (once per faulty stream), so
        the O(history) replay amortizes away against the batched fast
        path.
        """
        monitor = self._rebuild()
        states = self.monitor.plan_state.trace.states()
        counts = self._frame_counts
        boundary = len(counts) - group_size
        captured: List[Dict[str, Any]] = []

        def capture(clause: str, verdict) -> None:
            alert: Dict[str, Any] = {
                "event": "alert",
                "stream": self.name,
                "clause": clause,
                "verdict": verdict.holds,
                "at": monitor.prefix_length,
            }
            if verdict.error is not None:
                alert["error"] = verdict.error
            captured.append(alert)

        pairs: List[Tuple[List[Dict[str, Any]], Dict[str, Optional[bool]]]] = []
        offset = 0
        for index, count in enumerate(counts):
            chunk = list(states[offset:offset + count])
            offset += count
            if index == boundary:
                monitor.on_change = capture
            monitor.observe_batch(chunk)
            if index >= boundary:
                frame_alerts, captured = captured, []
                pairs.append(
                    (frame_alerts,
                     {name: v.holds for name, v in monitor.verdicts.items()})
                )
        monitor.on_change = self._on_change
        self.monitor.close()
        self.monitor = monitor
        self._pending_alerts = []
        return pairs

    # -- snapshots ------------------------------------------------------------

    def snapshot(self) -> Dict[str, Any]:
        """The last *committed* version, built for this read.

        Each call returns a new frame, so a reader mutating its copy
        cannot reach any other read.  Two keys count different things:
        ``batches`` counts append frames, while
        ``step_cost.lifetime_batches`` counts commits, and a coalesced run
        of frames is one commit.  Both names are part of the wire format.
        """
        monitor = self.monitor
        costs = self._costs
        verdicts = {
            name: {
                "holds": v.holds,
                "stable_for": v.stable_for,
                **({"error": v.error} if v.error is not None else {}),
            }
            for name, v in monitor.verdicts.items()
        }
        return {
            "ok": "snapshot",
            "stream": self.name,
            "version": self.version,
            "length": monitor.prefix_length,
            "states_ingested": self.states_ingested,
            "batches": self.batches,
            "alerts": self.alerts_emitted,
            "verdicts": verdicts,
            "failing": sorted(monitor.failing()),
            "step_cost": {
                "last": self.last_step_cost,
                "window": len(costs),
                "window_total": sum(costs),
                "lifetime_batches": self._cost_commits,
                "lifetime_total": self._cost_total,
            },
            "memo_size": monitor.plan_state.memo_size,
        }

    def verdict_map(self) -> Dict[str, Optional[bool]]:
        return {name: v.holds for name, v in self.monitor.verdicts.items()}


class StreamRegistry:
    """All streams of one worker, behind the frame-level request surface.

    Every total it reports lives in one place: the session's
    :class:`~repro.obs.MetricsRegistry`, as per-family labelled
    ``serve_*`` series, exported by the ``metrics`` frame.
    :meth:`service_snapshot` sums those series.

    ``stat_window`` is the number of commits whose step costs a stream
    snapshot's ``step_cost`` window covers.
    """

    def __init__(
        self,
        session: Optional[Session] = None,
        stat_window: int = 256,
        worker_id: Optional[int] = None,
    ) -> None:
        if stat_window < 1:
            raise ValueError(f"stat_window must be at least 1, got {stat_window}")
        self._session = session if session is not None else Session()
        self._stat_window = stat_window
        self._streams: Dict[str, StreamHandle] = {}
        #: Resolved clause maps per registered spec family.  Reusing the
        #: *same* formula objects across opens keeps the session's
        #: identity fast path hot: every stream of a family lands on one
        #: interned plan without a parse or digest.
        self._family_formulas: Dict[str, Dict[str, Any]] = {}
        self.worker_id = worker_id
        # The session's registry, so engine/cache series and serve series
        # travel in one snapshot.
        metrics = self._session.metrics
        self._m_opened = metrics.counter(
            "serve_streams_opened_total", "Streams opened, by spec family.",
            ("family",),
        )
        self._m_closed = metrics.counter(
            "serve_streams_closed_total", "Streams closed, by spec family.",
            ("family",),
        )
        self._m_states = metrics.counter(
            "serve_states_ingested_total", "States absorbed, by spec family.",
            ("family",),
        )
        self._m_alerts = metrics.counter(
            "serve_alerts_total", "Verdict-change alerts emitted, by spec family.",
            ("family",),
        )
        self._m_errors = metrics.counter(
            "serve_errors_total", "Error frames answered, by protocol code.",
            ("code",),
        )
        self._m_batch_states = metrics.histogram(
            "serve_batch_states", "States per append frame, by spec family.",
            ("family",), buckets=DEFAULT_SIZE_BUCKETS,
        )
        self._m_coalesced = metrics.histogram(
            "serve_coalesced_frames",
            "Append frames coalesced into one runtime batch, by spec family.",
            ("family",), buckets=DEFAULT_SIZE_BUCKETS,
        )
        self._m_step_cost = metrics.histogram(
            "serve_step_cost", "Evaluation step cost per committed batch, by spec family.",
            ("family",), buckets=DEFAULT_SIZE_BUCKETS,
        )
        self._m_open_streams = metrics.gauge(
            "serve_streams_open", "Streams currently open on this worker."
        )

    @property
    def session(self) -> Session:
        return self._session

    @property
    def stream_count(self) -> int:
        return len(self._streams)

    def stream(self, name: str) -> StreamHandle:
        try:
            return self._streams[name]
        except KeyError:
            raise ProtocolError(
                "unknown-stream", f"no stream named {name!r} is open", stream=name
            ) from None

    # -- the frame-level surface ----------------------------------------------

    def handle(self, frame: Dict[str, Any]) -> List[Dict[str, Any]]:
        """One request frame → its response frames (alerts before acks).

        Protocol failures come back as ``error`` frames instead of
        raising, so every transport (socket loop, shard pipe, replay
        harness) shares one error discipline; unexpected internal failures
        are caught too (``"internal"``) — one poisoned frame must not take
        down a worker serving thousands of streams.
        """
        try:
            op = validate_request(frame)
            if op == "ping":
                return [{"ok": "pong"}]
            if op == "metrics":
                return [self.metrics_frame()]
            if op == "open":
                return [self.open(frame)]
            if op == "append":
                return self.append(frame)
            if op == "snapshot":
                return [self.snapshot(frame.get("stream"))]
            return [self.close(frame["stream"])]
        except ProtocolError as exc:
            self._m_errors.child(exc.code).inc()
            return [exc.to_frame()]
        except Exception as exc:  # pragma: no cover - defensive
            self._m_errors.child("internal").inc()
            return [
                ProtocolError(
                    "internal",
                    f"{type(exc).__name__}: {exc}",
                    stream=frame.get("stream")
                    if isinstance(frame.get("stream"), str)
                    else None,
                ).to_frame()
            ]

    def handle_batch(
        self, frames: Sequence[Dict[str, Any]]
    ) -> List[Dict[str, Any]]:
        """A frame batch → its response frames, coalescing same-stream runs.

        Maximal runs of back-to-back ``append`` frames for one (open)
        stream absorb as a single runtime batch (:meth:`append_group`);
        every other frame goes through :meth:`handle` one at a time.
        Responses are ordered exactly as frame-at-a-time dispatch orders
        them: each frame's alerts ahead of its own acknowledgement.
        """
        responses: List[Dict[str, Any]] = []
        index = 0
        total = len(frames)
        while index < total:
            frame = frames[index]
            stream = frame.get("stream")
            if (
                frame.get("op") == "append"
                and isinstance(stream, str)
                and stream in self._streams
                and index + 1 < total
                and frames[index + 1].get("op") == "append"
                and frames[index + 1].get("stream") == stream
            ):
                end = index + 2
                while (
                    end < total
                    and frames[end].get("op") == "append"
                    and frames[end].get("stream") == stream
                ):
                    end += 1
                consumed, grouped = self.append_group(frames[index:end])
                responses.extend(grouped)
                index += consumed
            else:
                responses.extend(self.handle(frame))
                index += 1
        return responses

    # -- operations ------------------------------------------------------------

    def open(self, frame: Mapping[str, Any]) -> Dict[str, Any]:
        name = frame["stream"]
        if name in self._streams:
            raise ProtocolError(
                "duplicate-stream", f"stream {name!r} is already open", stream=name
            )
        formulas = self._resolve_formulas(frame)
        domain = frame.get("domain")
        monitor = self._session.monitor(formulas, domain, capture_errors=True)

        def rebuild():
            # A fresh monitor on the same warm plan — what a coalesced
            # group's flip replay runs the stream back through.
            return self._session.monitor(formulas, domain, capture_errors=True)

        family = frame.get("spec", "formulas")
        handle = StreamHandle(
            name, monitor, rebuild=rebuild, family=family,
            stat_window=self._stat_window,
        )
        self._streams[name] = handle
        self._m_opened.child(family).inc()
        self._m_open_streams.child().set(len(self._streams))
        return {
            "ok": "opened",
            "stream": name,
            "clauses": list(formulas),
            "plan_from_cache": bool(monitor.plan_from_cache),
        }

    def _resolve_formulas(self, frame: Mapping[str, Any]) -> Dict[str, Any]:
        name = frame["stream"]
        if "spec" in frame:
            family = frame["spec"]
            cached = self._family_formulas.get(family)
            if cached is not None:
                return cached
            factories = SPEC_FACTORIES()
            try:
                factory = factories[family]
            except KeyError:
                raise ProtocolError(
                    "unknown-spec",
                    f"unknown spec {family!r}; available: "
                    f"{', '.join(sorted(factories))}",
                    stream=name,
                ) from None
            specification = factory()
            resolved = {
                clause.name: clause.interpreted_formula()
                for clause in specification.clauses
            }
            # Cache the resolved clause map so every later open of this
            # family hands the session identity-stable formula objects.
            self._family_formulas[family] = resolved
            return resolved
        formulas = {}
        for clause, text in frame["formulas"].items():
            try:
                formulas[clause] = parse_formula(text)
            except Exception as exc:
                raise ProtocolError(
                    "bad-formula", f"clause {clause!r}: {exc}", stream=name
                ) from None
        return formulas

    def append(self, frame: Mapping[str, Any]) -> List[Dict[str, Any]]:
        name = frame["stream"]
        handle = self.stream(name)
        states = rows_to_states(frame["states"], stream=name)
        alerts = handle.absorb(states)
        self._record_commit(handle, len(states), len(alerts))
        responses = list(alerts)
        if frame.get("ack", True):
            responses.append(
                {
                    "ok": "appended",
                    "stream": name,
                    "count": len(states),
                    "length": handle.monitor.prefix_length,
                    "version": handle.version,
                    "verdicts": handle.verdict_map(),
                }
            )
        return responses

    def append_group(
        self, run: Sequence[Dict[str, Any]]
    ) -> Tuple[int, List[Dict[str, Any]]]:
        """Absorb a run of same-stream ``append`` frames as one batch.

        Every frame is validated and decoded *before* anything commits, so
        a malformed frame ``k`` truncates the group: frames ``[0, k)``
        still absorb (coalesced), frame ``k`` answers with its error
        frame, and the frames after ``k`` are left for the caller to
        redispatch (the returned consumed count covers ``[0, k]`` only) —
        exactly the prefix frame-at-a-time dispatch would have committed
        before hitting the error.
        """
        name = run[0]["stream"]
        handle = self._streams[name]
        decoded: List[Tuple[Dict[str, Any], Window]] = []
        failure: Optional[ProtocolError] = None
        for frame in run:
            try:
                validate_request(frame)
                decoded.append(
                    (frame, rows_to_states(frame["states"], stream=name))
                )
            except ProtocolError as exc:
                failure = exc
                break
        responses: List[Dict[str, Any]] = []
        if decoded:
            try:
                outcomes = handle.absorb_group(
                    [states for _, states in decoded]
                )
            except Exception as exc:  # pragma: no cover - defensive
                self._m_errors.child("internal").inc()
                responses.append(
                    ProtocolError(
                        "internal", f"{type(exc).__name__}: {exc}", stream=name
                    ).to_frame()
                )
                outcomes = []
            if outcomes:
                self._m_coalesced.child(handle.family).observe(len(decoded))
                self._record_commit(
                    handle,
                    sum(len(states) for _, states in decoded),
                    sum(len(alerts) for alerts, _, _, _ in outcomes),
                )
            for (frame, states), (alerts, verdicts, length, version) in zip(
                decoded, outcomes
            ):
                responses.extend(alerts)
                if frame.get("ack", True):
                    responses.append(
                        {
                            "ok": "appended",
                            "stream": name,
                            "count": len(states),
                            "length": length,
                            "version": version,
                            "verdicts": verdicts,
                        }
                    )
        if failure is not None:
            self._m_errors.child(failure.code).inc()
            responses.append(failure.to_frame())
            return len(decoded) + 1, responses
        return len(decoded), responses

    def _record_commit(self, handle: StreamHandle, states: int, alerts: int) -> None:
        """One committed batch (single frame or coalesced group) → series."""
        family = handle.family
        self._m_states.child(family).inc(states)
        self._m_batch_states.child(family).observe(states)
        if alerts:
            self._m_alerts.child(family).inc(alerts)
        self._m_step_cost.child(family).observe(handle.last_step_cost)

    def snapshot(self, name: Optional[str] = None) -> Dict[str, Any]:
        if name is not None:
            return self.stream(name).snapshot()
        return self.service_snapshot()

    def service_snapshot(self) -> Dict[str, Any]:
        """The whole worker's aggregate, cache stats included.

        Its totals are the ``serve_*`` series of :meth:`metrics_snapshot`
        (and the wire-level ``metrics`` frame), summed over their labels.
        """
        snapshot: Dict[str, Any] = {
            "ok": "snapshot",
            "streams": len(self._streams),
            "opened": self._m_opened.total(),
            "closed": self._m_closed.total(),
            "states_ingested": self._m_states.total(),
            "alerts": self._m_alerts.total(),
            "errors": self._m_errors.total(),
            "failing_streams": sorted(
                handle.name
                for handle in self._streams.values()
                if handle.monitor.failing()
            ),
            "cache": self._session.cache_statistics(),
        }
        if self.worker_id is not None:
            snapshot["worker"] = self.worker_id
        return snapshot

    def metrics_frame(self) -> Dict[str, Any]:
        """The ``{"op": "metrics"}`` response: this worker's registry
        snapshot, cache gauges synced."""
        return {"ok": "metrics", "metrics": self.metrics_snapshot()}

    def metrics_snapshot(self) -> Dict[str, Any]:
        self._m_open_streams.child().set(len(self._streams))
        return self._session.metrics_snapshot()

    def close(self, name: str) -> Dict[str, Any]:
        handle = self.stream(name)
        del self._streams[name]
        self._m_closed.child(handle.family).inc()
        self._m_open_streams.child().set(len(self._streams))
        closed = {
            "ok": "closed",
            "stream": name,
            "length": handle.monitor.prefix_length,
            "version": handle.version,
            "verdicts": handle.verdict_map(),
        }
        # The monitor's alert hook points back at the handle, and its plan
        # state at itself: break both so the stream is freed right here.
        handle.monitor.close()
        return closed
