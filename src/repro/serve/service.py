"""The asyncio monitoring service: sockets in front, registry or shards behind.

A :class:`MonitorService` multiplexes any number of client connections over
one backend:

* ``shards=0`` (default) — a single in-process
  :class:`~repro.serve.streams.StreamRegistry`.  Frame handling is
  synchronous and cheap (amortized O(changed work) per appended state), so
  the event loop itself is the scheduler: thousands of concurrent client
  connections interleave at frame granularity.
* ``shards=n`` — a :class:`~repro.serve.worker.ShardPool`: streams are
  consistent-hashed across ``n`` worker processes and frame batches are
  shipped over pipes from a thread (``asyncio.to_thread``), so the event
  loop keeps accepting and parsing input while workers grind.

Each connection is its own protocol session: frames answer in order, a
malformed line answers with an ``error`` frame and the connection lives
on, and EOF is a clean goodbye (streams stay open — they belong to the
service, not the connection, so a monitoring fleet can hand a stream from
one connection to another).
"""

from __future__ import annotations

import asyncio
from typing import Any, Dict, List, Optional, Sequence

from ..obs import MetricsRegistry, merge_snapshots, to_prometheus_text
from .protocol import READ_SIZE, FrameDecoder, ProtocolError, decode_frame, encode_frame
from .streams import StreamRegistry
from .worker import ShardPool

__all__ = ["MonitorService"]


class MonitorService:
    """The long-lived monitoring process behind ``python -m repro.serve``."""

    def __init__(
        self,
        shards: int = 0,
        stat_window: int = 256,
        session=None,
    ) -> None:
        self._pool: Optional[ShardPool] = None
        self._registry: Optional[StreamRegistry] = None
        if shards and shards > 1:
            self._pool = ShardPool(shards, stat_window=stat_window)
        else:
            if session is None:
                from ..api.session import Session

                session = Session()
            self._registry = StreamRegistry(
                session=session, stat_window=stat_window
            )
        self._server: Optional[asyncio.AbstractServer] = None
        self._metrics_server: Optional[asyncio.AbstractServer] = None
        self.connections_served = 0
        self.frames_served = 0
        # Front-end-only series (framing, connections) live in their own
        # registry so they merge cleanly into any backend's snapshot —
        # including a shard pool's, whose workers know nothing of sockets.
        self._service_metrics = MetricsRegistry()
        self._m_poisoned = self._service_metrics.counter(
            "serve_framing_poisoned_total",
            "Wire lines rejected by the framing guard (oversize before newline).",
        )
        self._m_resyncs = self._service_metrics.counter(
            "serve_framing_resyncs_total",
            "Framing recoveries: decoder resynchronized at a later newline.",
        )

    @property
    def sharded(self) -> bool:
        return self._pool is not None

    @property
    def registry(self) -> Optional[StreamRegistry]:
        """The in-process registry (``None`` when sharded)."""
        return self._registry

    @property
    def pool(self) -> Optional[ShardPool]:
        return self._pool

    # -- frame handling --------------------------------------------------------

    def handle_batch(self, frames: Sequence[Dict[str, Any]]) -> List[Dict[str, Any]]:
        self.frames_served += len(frames)
        if self._pool is not None:
            return self._inject_service_series(self._pool.handle_batch(frames))
        # Registry-level batch dispatch coalesces back-to-back same-stream
        # appends into single runtime batches.
        return self._inject_service_series(self._registry.handle_batch(frames))

    async def handle_frames_async(
        self, frames: Sequence[Dict[str, Any]]
    ) -> List[Dict[str, Any]]:
        """Batch dispatch off the event loop when a shard pool is behind."""
        if self._pool is not None:
            self.frames_served += len(frames)
            pool = self._pool
            responses = await asyncio.to_thread(pool.handle_batch, frames)
            return self._inject_service_series(responses)
        return self.handle_batch(frames)

    def _inject_service_series(
        self, responses: List[Dict[str, Any]]
    ) -> List[Dict[str, Any]]:
        """Fold front-end series (framing, connections) into any ``metrics``
        responses passing through — the backend registries cannot know
        them, and operators asking the wire for metrics want the whole
        picture."""
        for response in responses:
            if isinstance(response, dict) and response.get("ok") == "metrics":
                response["metrics"] = merge_snapshots(
                    response.get("metrics", {}), self._service_metrics_snapshot()
                )
        return responses

    def _service_metrics_snapshot(self) -> Dict[str, Any]:
        metrics = self._service_metrics
        metrics.gauge(
            "serve_connections_served", "Client connections accepted."
        ).child().set(self.connections_served)
        metrics.gauge(
            "serve_frames_served", "Request frames dispatched."
        ).child().set(self.frames_served)
        return metrics.snapshot()

    def metrics_snapshot(self) -> Dict[str, Any]:
        """The whole service's :mod:`repro.obs` snapshot: the backend's
        (aggregated over every shard worker) merged with the front end's
        framing/connection series.  ``python -m repro.serve stats`` and
        the ``--metrics-port`` endpoint read this."""
        if self._pool is not None:
            backend = self._pool.aggregate_metrics().get("metrics", {})
        else:
            backend = self._registry.metrics_snapshot()
        return merge_snapshots(backend, self._service_metrics_snapshot())

    # -- the socket front end --------------------------------------------------

    async def _on_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        self.connections_served += 1
        writer.transport.max_size = READ_SIZE
        decoder = FrameDecoder()
        framing_seen = [0, 0]  # [poisoned_lines, resyncs] already folded in
        try:
            while True:
                chunk = await reader.read(READ_SIZE)
                if not chunk:
                    break
                try:
                    lines = decoder.feed(chunk)
                except ProtocolError as exc:  # the chunk completed no line
                    lines = [exc]
                self._sync_framing(decoder, framing_seen)
                frames: List[Dict[str, Any]] = []
                responses: List[Dict[str, Any]] = []
                for line in lines:
                    try:
                        # An oversized line is its own ProtocolError entry.
                        frames.append(decode_frame(line))
                    except ProtocolError as exc:
                        # Flush what decoded so far, then the error, keeping
                        # response order aligned with request order.
                        if frames:
                            responses.extend(await self.handle_frames_async(frames))
                            frames = []
                        responses.append(exc.to_frame())
                if frames:
                    responses.extend(await self.handle_frames_async(frames))
                if responses:
                    writer.write(b"".join(encode_frame(r) for r in responses))
                    await writer.drain()
        except (ConnectionResetError, BrokenPipeError):  # client went away
            pass
        finally:
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError, OSError,
                    asyncio.CancelledError):
                # Teardown races (client already gone, loop shutting down
                # mid-wait) are all equivalent here: the connection is over.
                pass
            self._sync_framing(decoder, framing_seen)

    def _sync_framing(self, decoder: FrameDecoder, seen: List[int]) -> None:
        """Fold a connection decoder's new framing counts into the service."""
        poisoned = decoder.poisoned_lines - seen[0]
        resyncs = decoder.resyncs - seen[1]
        if poisoned:
            self._m_poisoned.child().inc(poisoned)
            seen[0] = decoder.poisoned_lines
        if resyncs:
            self._m_resyncs.child().inc(resyncs)
            seen[1] = decoder.resyncs

    async def start(self, host: str = "127.0.0.1", port: int = 0):
        """Bind and start accepting; returns the listening ``(host, port)``."""
        self._server = await asyncio.start_server(self._on_connection, host, port)
        return self._server.sockets[0].getsockname()[:2]

    async def start_metrics_endpoint(self, host: str = "127.0.0.1", port: int = 0):
        """A minimal Prometheus scrape endpoint (``--metrics-port``).

        Answers every HTTP request on the port with the text exposition of
        :meth:`metrics_snapshot` — enough for ``curl`` and any Prometheus
        scraper; this is not a general HTTP server.  Returns the bound
        ``(host, port)``.
        """

        async def on_scrape(reader, writer) -> None:
            try:
                # Consume the request head; the reply is the same whatever
                # path was asked for.
                await reader.readline()
                body = to_prometheus_text(
                    await asyncio.to_thread(self.metrics_snapshot)
                ).encode("utf-8")
                writer.write(
                    b"HTTP/1.0 200 OK\r\n"
                    b"Content-Type: text/plain; version=0.0.4; charset=utf-8\r\n"
                    b"Content-Length: " + str(len(body)).encode() + b"\r\n"
                    b"Connection: close\r\n\r\n" + body
                )
                await writer.drain()
            except (ConnectionResetError, BrokenPipeError):
                pass
            finally:
                try:
                    writer.close()
                    await writer.wait_closed()
                except (ConnectionResetError, BrokenPipeError, OSError,
                        asyncio.CancelledError):
                    pass

        self._metrics_server = await asyncio.start_server(on_scrape, host, port)
        return self._metrics_server.sockets[0].getsockname()[:2]

    async def serve_forever(self, host: str = "127.0.0.1", port: int = 9178) -> None:
        bound_host, bound_port = await self.start(host, port)
        backend = (
            f"{self._pool.shard_count} shard workers"
            if self._pool is not None
            else "in-process registry"
        )
        print(f"repro.serve listening on {bound_host}:{bound_port} ({backend})")
        async with self._server:
            await self._server.serve_forever()

    async def stop(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        if self._metrics_server is not None:
            self._metrics_server.close()
            await self._metrics_server.wait_closed()
            self._metrics_server = None

    def close(self) -> None:
        """Release the backend (stops shard workers)."""
        if self._pool is not None:
            self._pool.close()

    def service_snapshot(self) -> Dict[str, Any]:
        if self._pool is not None:
            snapshot = self._pool.aggregate_snapshot()
        else:
            snapshot = self._registry.service_snapshot()
        snapshot["connections_served"] = self.connections_served
        snapshot["frames_served"] = self.frames_served
        snapshot["framing"] = {
            "poisoned_lines": self._m_poisoned.total(),
            "resyncs": self._m_resyncs.total(),
        }
        return snapshot
