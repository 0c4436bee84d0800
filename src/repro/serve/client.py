"""An asyncio client and the load-generator harness.

:class:`ServeClient` speaks the JSONL protocol over one connection:
requests go out framed, responses stream back in order, and unsolicited
``alert`` events are collected onto :attr:`ServeClient.alerts` (and an
optional callback) rather than interleaving with acknowledgements — so
``await client.append(...)`` always returns the ``appended``/``error``
frame it caused.

:func:`run_load` is the ``python -m repro.serve loadgen`` engine: it opens
a fleet of streams from :func:`repro.gen.loadgen.generate_stream_scripts`,
round-robins batched appends across them at a target aggregate rate
(``states_per_second``; unpaced when 0), and reports achieved throughput,
alert counts, and the failing streams against the fleet's fault-injection
ground truth.
"""

from __future__ import annotations

import asyncio
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence

from .protocol import READ_SIZE, FrameDecoder, decode_frame, encode_frame

__all__ = ["ServeClient", "LoadReport", "run_load"]


class ServeClient:
    """One protocol session against a running monitoring service."""

    def __init__(
        self,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
        on_alert: Optional[Callable[[Dict[str, Any]], None]] = None,
    ) -> None:
        self._reader = reader
        self._writer = writer
        self._decoder = FrameDecoder()
        self._queued: List[Dict[str, Any]] = []
        self._on_alert = on_alert
        #: Every alert event seen on this connection, in arrival order.
        self.alerts: List[Dict[str, Any]] = []

    @classmethod
    async def connect(
        cls,
        host: str = "127.0.0.1",
        port: int = 9178,
        on_alert: Optional[Callable[[Dict[str, Any]], None]] = None,
    ) -> "ServeClient":
        reader, writer = await asyncio.open_connection(host, port)
        writer.transport.max_size = READ_SIZE
        return cls(reader, writer, on_alert=on_alert)

    async def close(self) -> None:
        self._writer.close()
        try:
            await self._writer.wait_closed()
        except (ConnectionResetError, BrokenPipeError, OSError):
            pass

    # -- the request/response discipline --------------------------------------

    async def _next_frame(self) -> Dict[str, Any]:
        while not self._queued:
            chunk = await self._reader.read(READ_SIZE)
            if not chunk:
                raise ConnectionError("service closed the connection")
            for line in self._decoder.feed(chunk):
                self._queued.append(decode_frame(line))
        return self._queued.pop(0)

    async def request(self, frame: Dict[str, Any]) -> Dict[str, Any]:
        """Send one frame; returns its acknowledgement (or error) frame.

        Alert events arriving first are absorbed onto :attr:`alerts` —
        the protocol emits them ahead of the acknowledgement they precede.
        """
        await self.send(frame)
        return await self.ack()

    async def send(self, frame: Dict[str, Any]) -> None:
        """Fire one frame without waiting (pair with :meth:`ack` later)."""
        self._writer.write(encode_frame(frame))
        await self._writer.drain()

    async def ack(self) -> Dict[str, Any]:
        """The next non-event frame; absorbs alerts on the way."""
        while True:
            frame = await self._next_frame()
            if frame.get("event") == "alert":
                self.alerts.append(frame)
                if self._on_alert is not None:
                    self._on_alert(frame)
                continue
            return frame

    # -- convenience ops -------------------------------------------------------

    async def open(self, stream: str, **fields: Any) -> Dict[str, Any]:
        return await self.request({"op": "open", "stream": stream, **fields})

    async def append(
        self, stream: str, states: Sequence[Dict[str, Any]], ack: bool = True
    ) -> Optional[Dict[str, Any]]:
        frame = {"op": "append", "stream": stream, "states": list(states)}
        if not ack:
            frame["ack"] = False
            await self.send(frame)
            return None
        return await self.request(frame)

    async def snapshot(self, stream: Optional[str] = None) -> Dict[str, Any]:
        frame: Dict[str, Any] = {"op": "snapshot"}
        if stream is not None:
            frame["stream"] = stream
        return await self.request(frame)

    async def close_stream(self, stream: str) -> Dict[str, Any]:
        return await self.request({"op": "close", "stream": stream})

    async def ping(self) -> Dict[str, Any]:
        return await self.request({"op": "ping"})

    async def metrics(self) -> Dict[str, Any]:
        """The service's :mod:`repro.obs` snapshot (merged across shards
        and front-end framing series) — the ``metrics`` frame's payload."""
        reply = await self.request({"op": "metrics"})
        if "error" in reply:
            raise RuntimeError(f"metrics: {reply}")
        return reply.get("metrics", {})


@dataclass
class LoadReport:
    """What a load-generation run achieved."""

    streams: int
    states: int
    elapsed_s: float
    target_rate: float
    alerts: int
    failing_streams: List[str] = field(default_factory=list)
    expected_failing: List[str] = field(default_factory=list)

    @property
    def achieved_rate(self) -> float:
        return self.states / self.elapsed_s if self.elapsed_s > 0 else 0.0

    def summary(self) -> str:
        target = f", target {self.target_rate:.0f}/s" if self.target_rate else ""
        return (
            f"{self.states} states over {self.streams} streams in "
            f"{self.elapsed_s:.2f}s = {self.achieved_rate:.0f} states/s"
            f"{target}; {self.alerts} alerts, "
            f"{len(self.failing_streams)} streams failing "
            f"({len(self.expected_failing)} fault-injected)"
        )


async def run_load(
    host: str,
    port: int,
    streams: int = 100,
    states_per_second: float = 0.0,
    fault_rate: float = 0.2,
    batch: int = 16,
    seed: int = 0,
    connections: int = 4,
) -> LoadReport:
    """Drive a generated fleet against a running service.

    The fleet's scripts are dealt round-robin over ``connections``
    parallel protocol sessions (each stream stays on one connection, so
    per-stream frame order is preserved end to end).  Appends are batched
    and paced to the *aggregate* target rate; ``states_per_second=0``
    means as fast as the service absorbs them.
    """
    from ..gen.loadgen import generate_stream_scripts

    scripts = generate_stream_scripts(streams, seed=seed, fault_rate=fault_rate)
    clients = [
        await ServeClient.connect(host, port) for _ in range(max(1, connections))
    ]
    assignments: List[List[Any]] = [[] for _ in clients]
    for index, script in enumerate(scripts):
        assignments[index % len(clients)].append(script)

    total_states = 0
    started = time.perf_counter()

    async def drive(client: ServeClient, mine: List[Any]) -> int:
        sent = 0
        for script in mine:
            reply = await client.open(script.stream, spec=script.spec)
            if "error" in reply:
                raise RuntimeError(f"open {script.stream}: {reply}")
        # Interleave batches across this connection's streams so every
        # stream progresses together — the concurrent-streams shape, not
        # one stream at a time.
        cursors = [(script, script.rows()) for script in mine]
        offset = 0
        while True:
            progressed = False
            for script, rows in cursors:
                chunk = rows[offset : offset + batch]
                if not chunk:
                    continue
                progressed = True
                reply = await client.append(script.stream, chunk)
                if "error" in reply:
                    raise RuntimeError(f"append {script.stream}: {reply}")
                sent += len(chunk)
                if states_per_second > 0:
                    # Pace against the shared aggregate budget.
                    expected = (time.perf_counter() - started) * states_per_second
                    ahead = (total_states + sent) - expected
                    if ahead > batch:
                        await asyncio.sleep(ahead / states_per_second)
            if not progressed:
                break
            offset += batch
        return sent

    results = await asyncio.gather(
        *(drive(client, mine) for client, mine in zip(clients, assignments))
    )
    total_states = sum(results)
    elapsed = time.perf_counter() - started

    failing: List[str] = []
    alerts = 0
    for client, mine in zip(clients, assignments):
        alerts += len(client.alerts)
        for script in mine:
            final = await client.close_stream(script.stream)
            if "error" in final:
                raise RuntimeError(f"close {script.stream}: {final}")
            if any(holds is False for holds in final["verdicts"].values()):
                failing.append(script.stream)
    for client in clients:
        await client.close()

    return LoadReport(
        streams=streams,
        states=total_states,
        elapsed_s=elapsed,
        target_rate=states_per_second,
        alerts=alerts,
        failing_streams=sorted(failing),
        expected_failing=sorted(s.stream for s in scripts if s.faulty),
    )
