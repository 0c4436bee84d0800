"""The newline-framed JSONL wire protocol of the monitoring service.

Every frame is one JSON object on one ``\\n``-terminated line, UTF-8.
Requests carry an ``op`` discriminator; responses carry exactly one of
``ok`` (acknowledgement), ``event`` (an unsolicited per-stream alert
emitted *before* the acknowledgement of the frame that caused it) or
``error``.  Frames are small and self-describing so any language's JSON +
line reader is a complete client.

Request frames::

    {"op": "open", "stream": "dev-7", "spec": "mutex"}
    {"op": "open", "stream": "dev-8",
     "formulas": {"safety": "[] (p -> <> q)"}, "domain": {...}}
    {"op": "append", "stream": "dev-7", "states": [ROW, ...], "ack": true}
    {"op": "snapshot", "stream": "dev-7"}      # omit "stream": service-wide
    {"op": "close", "stream": "dev-7"}
    {"op": "ping"}
    {"op": "metrics"}                          # repro.obs registry snapshot

A state ROW is ``{"values": {name: value, ...}}`` plus an optional
``"ops"`` mapping of operation records ``{name: [phase, args, results]}``
— exactly the shape :func:`state_to_row`/:func:`row_to_state` round-trip.
``values`` may not bind ``__start__``: the monitor derives it.
``append`` frames are **batched**: all rows are absorbed as one unit and
verdicts re-evaluate once at the batch boundary (send one row per frame
for per-state alert granularity).  :func:`rows_to_states` is the one row
validator: it checks a frame's rows and fills one
:class:`~repro.semantics.columns.Window` with the decoded ``values``
dicts themselves, so a served row reaches the column encoder without a
``State`` being built or a dict copied.  ``"ack": false`` suppresses the
``appended`` acknowledgement (alerts still fire) for fire-and-forget
ingestion.

Response frames::

    {"ok": "opened", "stream": ..., "clauses": [...], "plan_from_cache": ...}
    {"event": "alert", "stream": ..., "clause": ..., "verdict": ...,
     "at": prefix_length, "error": ...?}
    {"ok": "appended", "stream": ..., "count": n, "length": L,
     "version": V, "verdicts": {...}}
    {"ok": "snapshot", ...}                    # version-stamped, see streams
    {"ok": "closed", "stream": ..., "length": L, "verdicts": {...}}
    {"ok": "pong"}
    {"ok": "metrics", "metrics": SNAPSHOT}     # + "shards": n behind a pool
    {"error": CODE, "message": ..., "stream": ...?}

``metrics`` answers the serving process's :mod:`repro.obs` registry
snapshot (merged across every worker behind a :class:`ShardPool`) —
JSON-safe, mergeable with :func:`repro.obs.merge_snapshots`, renderable
with :func:`repro.obs.to_prometheus_text`.

Malformed input never kills a connection: undecodable bytes, oversized
lines, non-object JSON, unknown ops and missing/ill-typed fields each
produce an explicit ``error`` frame (codes in :data:`ERROR_CODES`), in
the order of the lines, and the session continues with the next line.
"""

from __future__ import annotations

import json
from typing import Any, Dict, Iterable, List, Mapping, Optional, Union

from ..semantics.columns import Window
from ..semantics.state import OperationRecord, State

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
]


#: Guard against unframed garbage (or a binary protocol pointed at the
#: service): a line longer than this is rejected before being buffered.
MAX_LINE_BYTES = 4 * 1024 * 1024

REQUEST_OPS = ("open", "append", "snapshot", "close", "ping", "metrics")

ERROR_CODES = (
    "bad-json",        # line is not valid JSON
    "bad-frame",       # JSON but not an object, or ill-typed fields
    "unknown-op",      # "op" not one of REQUEST_OPS
    "missing-field",   # a required field is absent
    "line-too-long",   # framing guard tripped
    "unknown-stream",  # append/snapshot/close on a stream never opened
    "duplicate-stream",  # open on a name already serving
    "unknown-spec",    # open names a spec outside the registry
    "bad-formula",     # open carries unparseable concrete syntax
    "bad-state",       # append carries a malformed state row
    "internal",        # unexpected server-side failure, stream unharmed
    "worker-lost",     # the stream's shard worker died; the stream is gone
)


class ProtocolError(Exception):
    """A wire-level failure that maps onto one ``error`` response frame."""

    def __init__(self, code: str, message: str, stream: Optional[str] = None):
        if code not in ERROR_CODES:
            raise ValueError(f"unknown protocol error code: {code!r}")
        super().__init__(message)
        self.code = code
        self.message = message
        self.stream = stream

    def to_frame(self) -> Dict[str, Any]:
        frame: Dict[str, Any] = {"error": self.code, "message": self.message}
        if self.stream is not None:
            frame["stream"] = self.stream
        return frame


def encode_frame(frame: Dict[str, Any]) -> bytes:
    """One frame → one newline-terminated JSON line."""
    return (json.dumps(frame, separators=(",", ":"), sort_keys=True) + "\n").encode(
        "utf-8"
    )


def decode_frame(line: Any) -> Dict[str, Any]:
    """One line (bytes or str) → a frame dict, or :class:`ProtocolError`.

    An entry of :meth:`FrameDecoder.feed` that is already a
    :class:`ProtocolError` (an oversized line) is raised as it is, so a
    caller decoding every entry answers each error at its line's place.
    """
    if isinstance(line, ProtocolError):
        raise line
    if isinstance(line, (bytes, bytearray)):
        try:
            line = line.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ProtocolError("bad-json", f"undecodable bytes: {exc}") from None
    try:
        frame = json.loads(line)
    except ValueError as exc:
        raise ProtocolError("bad-json", f"not a JSON frame: {exc}") from None
    if not isinstance(frame, dict):
        raise ProtocolError(
            "bad-frame", f"a frame is a JSON object, got {type(frame).__name__}"
        )
    return frame


def _require(frame: Dict[str, Any], field: str, types: tuple, op: str) -> Any:
    try:
        value = frame[field]
    except KeyError:
        raise ProtocolError(
            "missing-field",
            f"{op!r} frame requires the field {field!r}",
            stream=frame.get("stream") if isinstance(frame.get("stream"), str) else None,
        ) from None
    if not isinstance(value, types):
        names = "/".join(t.__name__ for t in types)
        raise ProtocolError(
            "bad-frame",
            f"{op!r} frame field {field!r} must be {names}, "
            f"got {type(value).__name__}",
            stream=frame.get("stream") if isinstance(frame.get("stream"), str) else None,
        )
    return value


def validate_request(frame: Dict[str, Any]) -> str:
    """Check a request frame's shape; returns its ``op``.

    Field *presence and JSON types* are enforced here so registries and
    workers downstream can index frames without defensive code; semantic
    errors (unknown streams, unparseable formulas) surface from them.
    """
    op = frame.get("op")
    if not isinstance(op, str):
        raise ProtocolError("bad-frame", "request frames require a string 'op'")
    if op not in REQUEST_OPS:
        raise ProtocolError(
            "unknown-op", f"unknown op {op!r}; expected one of {', '.join(REQUEST_OPS)}"
        )
    if op in ("ping", "metrics"):
        return op
    if op == "snapshot":
        if "stream" in frame:
            _require(frame, "stream", (str,), op)
        return op
    stream = _require(frame, "stream", (str,), op)
    if op == "open":
        has_spec = "spec" in frame
        has_formulas = "formulas" in frame
        if has_spec == has_formulas:
            raise ProtocolError(
                "bad-frame",
                "'open' takes exactly one of 'spec' (a registered specification "
                "name) or 'formulas' (clause name -> concrete syntax)",
                stream=stream,
            )
        if has_spec:
            _require(frame, "spec", (str,), op)
        else:
            formulas = _require(frame, "formulas", (dict,), op)
            if not formulas:
                raise ProtocolError(
                    "bad-frame", "'formulas' must be non-empty", stream=stream
                )
            for name, text in formulas.items():
                if not isinstance(text, str):
                    raise ProtocolError(
                        "bad-frame",
                        f"formula {name!r} must be concrete syntax (a string)",
                        stream=stream,
                    )
        if "domain" in frame and not isinstance(frame["domain"], dict):
            raise ProtocolError(
                "bad-frame", "'domain' must be an object", stream=stream
            )
    elif op == "append":
        states = _require(frame, "states", (list,), op)
        if not states:
            raise ProtocolError(
                "bad-frame", "'states' must be a non-empty list", stream=stream
            )
        if "ack" in frame and not isinstance(frame["ack"], bool):
            raise ProtocolError("bad-frame", "'ack' must be a boolean", stream=stream)
    return op


class FrameDecoder:
    """Incremental newline framing over an arbitrary byte stream.

    ``feed`` accepts whatever chunk the transport produced — half a line, a
    hundred lines, a line split mid-UTF-8-sequence — buffers the partial
    tail and returns the *complete* raw lines.  Decoding those lines (and
    answering per-line errors) is the caller's business, so one bad line
    never poisons its neighbours in the same chunk: a line longer than
    ``max_line`` is returned as its ``line-too-long``
    :class:`ProtocolError`, at its place among the lines — a complete one
    where it ended, a partial tail that outgrew the limit last.  Only a
    chunk that completes no line at all raises that error instead.

    Oversize-line poisoning is *counted*: :attr:`poisoned_lines` is the
    number of lines rejected by the framing guard and :attr:`resyncs` the
    number of successful re-synchronizations at a later newline.  The
    service folds both into ``service_snapshot()["framing"]`` and the
    ``serve_framing_*`` metrics series, so garbage on the wire is visible
    to operators instead of silently discarded.
    """

    __slots__ = ("_buffer", "_max_line", "_poisoned", "poisoned_lines", "resyncs")

    def __init__(self, max_line: int = MAX_LINE_BYTES) -> None:
        self._buffer = bytearray()
        self._max_line = max_line
        self._poisoned = False
        #: Lines rejected for exceeding ``max_line`` before their newline.
        self.poisoned_lines = 0
        #: Recoveries: the decoder found the next newline and resumed.
        self.resyncs = 0

    @property
    def pending(self) -> int:
        """Bytes buffered waiting for their newline."""
        return len(self._buffer)

    def feed(self, data: bytes) -> List[Union[bytes, ProtocolError]]:
        """Absorb a chunk; returns every newly completed line (sans ``\\n``),
        with a :class:`ProtocolError` in place of each oversized one."""
        if self._poisoned:
            # After an oversized line, resynchronize at the next newline.
            cut = data.find(b"\n")
            if cut < 0:
                return []
            data = data[cut + 1:]
            self._poisoned = False
            self.resyncs += 1
            self._buffer.clear()
        self._buffer.extend(data)
        if b"\n" not in self._buffer:
            if len(self._buffer) > self._max_line:
                raise self._poison_tail()
            return []
        *complete, tail = self._buffer.split(b"\n")
        self._buffer = bytearray(tail)
        lines: List[Union[bytes, ProtocolError]] = []
        for line in complete:
            if not line.strip():
                continue
            line = line.rstrip(b"\r")
            if len(line) > self._max_line:
                self.poisoned_lines += 1
                lines.append(ProtocolError(
                    "line-too-long", f"frame exceeds {self._max_line} bytes"
                ))
            else:
                lines.append(line)
        if len(self._buffer) > self._max_line:
            lines.append(self._poison_tail())
        return lines

    def _poison_tail(self) -> ProtocolError:
        """Drop the oversized partial line and skip to the next newline."""
        self._poisoned = True
        self.poisoned_lines += 1
        self._buffer.clear()
        return ProtocolError(
            "line-too-long",
            f"frame exceeds {self._max_line} bytes before its newline",
        )


# -- state rows -------------------------------------------------------------


def state_to_row(state: State) -> Dict[str, Any]:
    """A JSON-safe row for one :class:`State` (``__start__`` is framing,
    re-derived by the receiving monitor, so it never travels)."""
    row: Dict[str, Any] = {
        "values": {
            name: value
            for name, value in state.values_map.items()
            if name != "__start__"
        }
    }
    if state.operations:
        row["ops"] = {
            name: [record.phase, list(record.args), list(record.results)]
            for name, record in state.operations.items()
        }
    return row


def row_to_state(row: Any, stream: Optional[str] = None) -> State:
    """One wire row → a :class:`State`; :class:`ProtocolError` on bad shape."""
    return rows_to_states([row], stream)[0]


#: The operation map of every row without ``"ops"``; windows only read it.
_NO_OPERATIONS: Mapping[str, OperationRecord] = {}


def rows_to_states(rows: Iterable[Any], stream: Optional[str] = None) -> Window:
    """Wire rows → one :class:`~repro.semantics.columns.Window` of states.

    The one row validator: rows are checked in order, and the first bad one
    raises its ``bad-state`` :class:`ProtocolError` before the window is
    returned, so a frame with a bad row commits nothing.  A good row's
    decoded ``values`` dict goes into the window as it is — no ``State`` is
    built and no dict copied (the encoder only reads it) — beside an
    operation map of :class:`OperationRecord` s built from its ``ops``.
    """
    value_maps: List[Dict[str, Any]] = []
    operation_maps: List[Mapping[str, OperationRecord]] = []
    for row in rows:
        if not isinstance(row, dict):
            raise ProtocolError(
                "bad-state", f"a state row is an object, got {type(row).__name__}",
                stream=stream,
            )
        values = row.get("values")
        if not isinstance(values, dict):
            raise ProtocolError(
                "bad-state", "a state row requires an object field 'values'",
                stream=stream,
            )
        if "__start__" in values:
            raise ProtocolError(
                "bad-state", "'__start__' is derived by the monitor, not sent",
                stream=stream,
            )
        operations = row.get("ops", _NO_OPERATIONS)
        if operations is not _NO_OPERATIONS:
            operations = _operation_records(operations, stream)
        value_maps.append(values)
        operation_maps.append(operations)
    return Window(value_maps, operation_maps)


def _operation_records(raw_ops: Any, stream: Optional[str]) -> Dict[str, OperationRecord]:
    """A row's ``ops`` field → operation name → :class:`OperationRecord`."""
    if not isinstance(raw_ops, dict):
        raise ProtocolError(
            "bad-state", "'ops' must map operation names to records",
            stream=stream,
        )
    operations = {}
    for name, record in raw_ops.items():
        if (
            not isinstance(record, (list, tuple))
            or len(record) != 3
            or not isinstance(record[0], str)
            or not isinstance(record[1], list)
            or not isinstance(record[2], list)
        ):
            raise ProtocolError(
                "bad-state",
                f"operation {name!r} record must be [phase, args, results]",
                stream=stream,
            )
        try:
            operations[name] = OperationRecord(
                record[0], tuple(record[1]), tuple(record[2])
            )
        except Exception as exc:
            raise ProtocolError(
                "bad-state", f"operation {name!r}: {exc}", stream=stream
            ) from None
    return operations


def trace_to_rows(trace) -> List[Dict[str, Any]]:
    """Every state of a trace as wire rows (load generators, replay)."""
    return [state_to_row(state) for state in trace.states()]
