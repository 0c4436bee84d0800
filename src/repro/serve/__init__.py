"""``repro.serve`` — monitoring as a long-lived service.

The paper's checking problem, turned inside out: instead of one formula
evaluated on one finished computation, a *service* holds thousands of
named streams, each an incremental multi-root plan
(:class:`~repro.checking.monitor.Monitor`) absorbing appended states as
the monitored systems produce them.  The pieces:

- :mod:`~repro.serve.protocol` — the newline-framed JSONL wire format
  (``open`` / ``append`` / ``snapshot`` / ``close``, batched appends,
  explicit error frames, incremental framing);
- :mod:`~repro.serve.streams` — the per-worker
  :class:`~repro.serve.streams.StreamRegistry`: monitors, versioned
  snapshots of the last committed batch, verdict-change alerts;
- :mod:`~repro.serve.shard` / :mod:`~repro.serve.worker` — consistent-hash
  sharding over worker processes, each with its own warm plan cache;
- :mod:`~repro.serve.service` — the asyncio socket front end;
- :mod:`~repro.serve.client` — an asyncio client and the load generator;
- :mod:`~repro.serve.replay` — the regression corpus replayed through the
  wire codec against the one-shot engines.

Run ``python -m repro.serve serve`` / ``loadgen`` / ``replay``.
"""

from .protocol import (
    ERROR_CODES,
    MAX_LINE_BYTES,
    REQUEST_OPS,
    FrameDecoder,
    ProtocolError,
    decode_frame,
    encode_frame,
    row_to_state,
    rows_to_states,
    state_to_row,
    trace_to_rows,
    validate_request,
)
from .shard import DEFAULT_REPLICAS, HashRing
from .streams import SPEC_FACTORIES, StreamHandle, StreamRegistry

__all__ = [
    "ProtocolError",
    "FrameDecoder",
    "encode_frame",
    "decode_frame",
    "validate_request",
    "state_to_row",
    "row_to_state",
    "rows_to_states",
    "trace_to_rows",
    "MAX_LINE_BYTES",
    "REQUEST_OPS",
    "ERROR_CODES",
    "HashRing",
    "DEFAULT_REPLICAS",
    "SPEC_FACTORIES",
    "StreamHandle",
    "StreamRegistry",
    "MonitorService",
    "ServeClient",
    "run_load",
    "replay_corpus",
    "ShardPool",
]


def __getattr__(name):
    # Heavy/optional surfaces load lazily: importing repro.serve for the
    # protocol helpers must not pull in asyncio servers or multiprocessing.
    if name == "MonitorService":
        from .service import MonitorService

        return MonitorService
    if name in ("ServeClient", "run_load"):
        from . import client

        return getattr(client, name)
    if name == "replay_corpus":
        from .replay import replay_corpus

        return replay_corpus
    if name == "ShardPool":
        from .worker import ShardPool

        return ShardPool
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
