"""Shard worker processes and the parent-side routing pool.

One :class:`ShardPool` owns ``n`` worker processes, each running
:func:`shard_worker_main`: a plain loop over a ``multiprocessing`` pipe
that applies request frames to a private :class:`~repro.serve.streams.
StreamRegistry` (its own :class:`~repro.api.session.Session`, its own warm
in-memory plan cache: each worker compiles a specification the first time
one of its streams opens it).  The parent routes each frame by consistent
hash on its stream id (:class:`~repro.serve.shard.HashRing`), ships frames
**in batches** per worker (one pickle round-trip absorbs an arbitrary
number of appends, so the pipe never becomes the bottleneck the per-frame
latency would make it), and re-interleaves nothing: responses come back
grouped per worker in submission order, which is exactly per-stream order
— the only order the protocol promises.

Stream-less frames fan out: a service-wide ``snapshot`` queries every
worker and merges the aggregates, ``metrics`` merges every worker's
:mod:`repro.obs` registry snapshot; ``ping`` answers in the parent.

A worker whose pipe breaks (the process died) is marked lost for good and
counted in ``repro_serve_workers_lost_total``: every frame routed to it
answers a ``worker-lost`` error frame, and the aggregates answer from the
live workers with a ``lost`` count.  Lost workers are not respawned.
"""

from __future__ import annotations

import multiprocessing
import pickle
import threading
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence

from ..obs import MetricsRegistry, merge_snapshots
from .protocol import ProtocolError
from .shard import DEFAULT_REPLICAS, HashRing

__all__ = ["WorkerConfig", "ShardPool", "shard_worker_main"]


@dataclass
class WorkerConfig:
    """Everything a worker needs to build its registry (must pickle)."""

    worker_id: int
    stat_window: int = 256
    session_options: Dict[str, Any] = field(default_factory=dict)


def _encode_shipment(frames: Sequence[Dict[str, Any]]) -> bytes:
    """Pickle one worker's ``("frames", [...])`` shipment exactly once.

    ``Connection.send`` re-pickles its argument on every call; routing
    encodes each batch up front instead and ships the bytes with
    ``send_bytes``, so serialization happens outside the pipe locks (and
    outside the window where workers could already be grinding).  The
    worker's plain ``conn.recv()`` unpickles it transparently.
    """
    return pickle.dumps(
        ("frames", list(frames)), protocol=pickle.HIGHEST_PROTOCOL
    )


def shard_worker_main(conn, config: WorkerConfig) -> None:
    """The worker loop: ``("frames", [...])`` in, ``[responses...]`` out."""
    from ..api.session import Session
    from .streams import StreamRegistry

    session = Session(**config.session_options)
    registry = StreamRegistry(
        session=session,
        stat_window=config.stat_window,
        worker_id=config.worker_id,
    )
    while True:
        try:
            kind, payload = conn.recv()
        except EOFError:  # parent died: nothing left to serve
            break
        if kind == "stop":
            conn.send(("stats", registry.service_snapshot()))
            break
        # Batch dispatch: back-to-back appends for one stream inside this
        # shipment coalesce into a single runtime batch in the registry.
        conn.send(("frames", registry.handle_batch(payload)))
    conn.close()


#: What a round-trip raises once the worker at the other end of the pipe
#: has died (``BrokenPipeError`` is an ``OSError``).
_PIPE_ERRORS = (EOFError, OSError)


class _Worker:
    """Parent-side handle: process + pipe + a lock serializing round-trips."""

    __slots__ = ("id", "process", "conn", "lock", "lost")

    def __init__(self, worker_id: int, process, conn) -> None:
        self.id = worker_id
        self.process = process
        self.conn = conn
        # The asyncio front end may drive round-trips from worker threads
        # (``asyncio.to_thread``); one lock per pipe keeps send/recv paired.
        self.lock = threading.Lock()
        #: Set once a round-trip failed on a broken pipe; never cleared.
        self.lost = False

    def request(self, frames: Sequence[Dict[str, Any]]) -> List[Dict[str, Any]]:
        # Encode before taking the lock: pickling is the expensive half of
        # a pipe send, and nothing about it needs the pipe.
        encoded = _encode_shipment(frames)
        with self.lock:
            self.conn.send_bytes(encoded)
            kind, payload = self.conn.recv()
        return payload

    def stop(self) -> Optional[Dict[str, Any]]:
        stats = None
        try:
            with self.lock:
                self.conn.send(("stop", None))
                kind, payload = self.conn.recv()
            if kind == "stats":
                stats = payload
        except (OSError, EOFError, BrokenPipeError):
            pass
        finally:
            try:
                self.conn.close()
            except OSError:
                pass
        self.process.join(timeout=5)
        if self.process.is_alive():  # pragma: no cover - defensive
            self.process.terminate()
            self.process.join(timeout=5)
        return stats


class ShardPool:
    """``n`` shard workers behind one consistent-hash router."""

    def __init__(
        self,
        shards: int,
        stat_window: int = 256,
        replicas: int = DEFAULT_REPLICAS,
        context: Optional[str] = None,
    ) -> None:
        if shards < 1:
            raise ValueError(f"shards must be at least 1, got {shards}")
        ctx = multiprocessing.get_context(context)
        self.ring = HashRing(range(shards), replicas=replicas)
        # Ring lookups are a SHA-256 + bisect per frame; assignments are a
        # pure function of the (fixed) ring, so memoize per stream id.
        self._route_cache: Dict[str, int] = {}
        self._workers: List[_Worker] = []
        self._closed = False
        # Pool-level series, merged into :meth:`aggregate_metrics`.
        self._metrics = MetricsRegistry()
        self._m_lost = self._metrics.counter(
            "repro_serve_workers_lost_total",
            "Shard workers lost to a broken pipe (never respawned).",
        )
        for worker_id in range(shards):
            parent_conn, child_conn = ctx.Pipe()
            config = WorkerConfig(worker_id=worker_id, stat_window=stat_window)
            process = ctx.Process(
                target=shard_worker_main,
                args=(child_conn, config),
                daemon=True,
                name=f"repro-serve-shard-{worker_id}",
            )
            process.start()
            child_conn.close()
            self._workers.append(_Worker(worker_id, process, parent_conn))

    @property
    def shard_count(self) -> int:
        return len(self._workers)

    def worker_for(self, stream: str) -> int:
        worker_id = self._route_cache.get(stream)
        if worker_id is None:
            worker_id = self.ring.worker_for(stream)
            if len(self._route_cache) < 65536:
                self._route_cache[stream] = worker_id
        return worker_id

    # -- routing ---------------------------------------------------------------

    def handle(self, frame: Dict[str, Any]) -> List[Dict[str, Any]]:
        """Route one frame; stream-less snapshots aggregate over the pool."""
        return self.handle_batch([frame])

    def handle_batch(self, frames: Sequence[Dict[str, Any]]) -> List[Dict[str, Any]]:
        """Route a frame batch, one pipe round-trip per involved worker.

        Responses are concatenated in worker-id order, per-stream order
        preserved inside each worker (the hash pins a stream to exactly
        one worker, so no cross-worker reordering can touch a stream).
        """
        self._check_open()
        groups: Dict[int, List[Dict[str, Any]]] = {}
        passthrough: List[Dict[str, Any]] = []
        for frame in frames:
            stream = frame.get("stream")
            if isinstance(stream, str):
                groups.setdefault(self.worker_for(stream), []).append(frame)
            elif frame.get("op") == "snapshot":
                passthrough.append(self.aggregate_snapshot())
            elif frame.get("op") == "metrics":
                passthrough.append(self.aggregate_metrics())
            elif frame.get("op") == "ping":
                passthrough.append({"ok": "pong"})
            else:
                # Shape errors for stream-less frames: any worker answers
                # identically; use worker 0 to keep one error discipline.
                groups.setdefault(self.ring.workers[0], []).append(frame)
        involved = [w for w in self._workers if groups.get(w.id)]
        live = [w for w in involved if not w.lost]
        answers: Dict[int, List[Dict[str, Any]]] = {}
        if len(live) == 1:
            worker = live[0]
            try:
                answers[worker.id] = worker.request(groups[worker.id])
            except _PIPE_ERRORS:
                self._lose(worker)
        elif live:
            # Ship every worker its batch *before* collecting any reply —
            # the whole point of sharding is that workers grind
            # concurrently, and a send-recv-send-recv loop would serialize
            # them behind each other.  Batches are encoded up front (one
            # pickle per worker, outside the locks) so the lock-held
            # window is pure pipe writes.  Locks are taken in worker-id
            # order (consistently everywhere) so concurrent batch
            # dispatchers cannot deadlock.
            encoded = {
                worker.id: _encode_shipment(groups[worker.id])
                for worker in live
            }
            for worker in live:
                worker.lock.acquire()
            try:
                sent = []
                for worker in live:
                    try:
                        worker.conn.send_bytes(encoded[worker.id])
                    except _PIPE_ERRORS:
                        self._lose(worker)
                    else:
                        sent.append(worker)
                for worker in sent:
                    try:
                        answers[worker.id] = worker.conn.recv()[1]
                    except _PIPE_ERRORS:
                        self._lose(worker)
            finally:
                for worker in live:
                    worker.lock.release()
        responses: List[Dict[str, Any]] = []
        for worker in involved:
            if worker.id in answers:
                responses.extend(answers[worker.id])
            else:
                responses.extend(_lost_frame(worker, f) for f in groups[worker.id])
        responses.extend(passthrough)
        return responses

    def _lose(self, worker: _Worker) -> None:
        if not worker.lost:
            worker.lost = True
            self._m_lost.child().inc()

    def _ask(self, worker: _Worker, frame: Dict[str, Any]) -> Optional[Dict[str, Any]]:
        """A live worker's answer to one stream-less frame; ``None`` once
        the worker is lost."""
        if not worker.lost:
            try:
                (response,) = worker.request([frame])
                return response
            except _PIPE_ERRORS:
                self._lose(worker)
        return None

    def aggregate_snapshot(self) -> Dict[str, Any]:
        """Service-wide totals merged over every worker's aggregate."""
        self._check_open()
        merged: Dict[str, Any] = {
            "ok": "snapshot",
            "shards": len(self._workers),
            "streams": 0,
            "opened": 0,
            "closed": 0,
            "states_ingested": 0,
            "alerts": 0,
            "errors": 0,
            "failing_streams": [],
            "workers": [],
        }
        for worker in self._workers:
            snapshot = self._ask(worker, {"op": "snapshot"})
            if snapshot is None:
                continue
            for key in ("streams", "opened", "closed", "states_ingested",
                        "alerts", "errors"):
                merged[key] += snapshot.get(key, 0)
            merged["failing_streams"].extend(snapshot.get("failing_streams", []))
            merged["workers"].append(snapshot)
        merged["failing_streams"].sort()
        merged["lost"] = self.lost_count
        return merged

    def aggregate_metrics(self) -> Dict[str, Any]:
        """The fleet's :mod:`repro.obs` snapshot: every live worker's
        registry queried with a ``metrics`` frame and summed
        series-by-series with the pool's own series (counter/histogram
        addition is associative, so the merge is deterministic whatever
        order workers answer in)."""
        self._check_open()
        snapshots = [self._metrics.snapshot()]
        for worker in self._workers:
            response = self._ask(worker, {"op": "metrics"})
            if response is not None and response.get("ok") == "metrics":
                snapshots.append(response.get("metrics", {}))
        return {
            "ok": "metrics",
            "shards": len(self._workers),
            "lost": self.lost_count,
            "metrics": merge_snapshots(*snapshots),
        }

    @property
    def lost_count(self) -> int:
        """Workers lost so far."""
        return sum(1 for worker in self._workers if worker.lost)

    # -- lifecycle -------------------------------------------------------------

    def _check_open(self) -> None:
        if self._closed:
            raise RuntimeError("this shard pool is closed")

    def close(self) -> List[Dict[str, Any]]:
        """Stop every worker; returns their final aggregate snapshots."""
        if self._closed:
            return []
        self._closed = True
        stats = []
        for worker in self._workers:
            final = worker.stop()
            if final is not None:
                stats.append(final)
        return stats

    def __enter__(self) -> "ShardPool":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


def _lost_frame(worker: _Worker, frame: Dict[str, Any]) -> Dict[str, Any]:
    """The ``worker-lost`` error answering a frame routed to a lost worker."""
    stream = frame.get("stream")
    return ProtocolError(
        "worker-lost",
        f"shard worker {worker.id} is lost; its streams are gone",
        stream=stream if isinstance(stream, str) else None,
    ).to_frame()
