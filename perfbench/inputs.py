"""Seeded workload inputs and the independent reference verdicts.

Every input comes from :func:`repro.gen.loadgen.generate_stream_scripts`
(and through it the ``SYSTEM_FACTORIES`` simulators); the same ``seed``
and ``scale`` always give byte-identical inputs.  The system under test
receives only these inputs.

Reference verdicts come from the interpreting ``trace`` engine
(``Session.check_spec(..., compiled=False)``), never from the compiled
runtime the workloads measure, and are computed outside every timed
window.  They are cached per input digest under ``.perfbench/`` at the
checkout root; the digest covers the inputs and every ``src/repro``
source file, so a code change can never reuse a stale reference.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.gen.loadgen import LOAD_FAMILIES, generate_stream_scripts
from repro.serve.protocol import encode_frame, row_to_state

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
CACHE_DIR = os.path.join(ROOT, ".perfbench", "reference")

FAMILIES = tuple(family[0] for family in LOAD_FAMILIES)

#: fleet: streams of the default mix, states per append frame, fault rate.
FLEET_STREAMS = 1000
FLEET_BATCH = 16
FLEET_FAULT_RATE = 0.2

#: soak: states per long stream, states per frame, frames per shipment,
#: generated segments in the period each stream repeats.
SOAK_STATES = 16384
SOAK_FRAME = 64
SOAK_SHIPMENT = 4
SOAK_SEGMENTS = 8
#: Shares of each soak stream at which the served verdicts are checked.
SOAK_CHECKPOINTS = (1 / 8, 1 / 4, 1 / 2, 1)
#: Longest prefix the interpreter checks; longer soak prefixes (tens of
#: seconds in the interpreter) use the static one-shot check_spec, a
#: different path from the incremental monitors under test.
INTERPRETER_LIMIT = 4096

#: campaign: per family, short traces of concatenated generated segments
#: and, after each, a long trace repeating it, so the per-state cost is
#: compared across lengths on the same content.
CAMPAIGN_TRACES = 3
CAMPAIGN_STATES = 1000
CAMPAIGN_REPEAT = 4
CAMPAIGN_FAULT_RATE = 0.2

Verdicts = Dict[str, Optional[bool]]


def source_digest() -> str:
    """sha256 over every ``src/repro`` source file (path and content)."""
    digest = hashlib.sha256()
    base = os.path.join(ROOT, "src", "repro")
    for folder, dirs, files in os.walk(base):
        dirs.sort()
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(folder, name)
                digest.update(os.path.relpath(path, base).encode())
                with open(path, "rb") as handle:
                    digest.update(handle.read())
    return digest.hexdigest()


@dataclass
class Stream:
    """One monitored stream: its wire rows and the spec it is opened on."""

    name: str
    spec: str
    rows: List[Dict[str, Any]]
    faulty: bool = False


@dataclass
class FleetInputs:
    streams: List[Stream]
    #: Every stream's append frames, depth-major (round-robin).
    frames: List[Dict[str, Any]] = field(default_factory=list)
    wire_bytes: int = 0

    @property
    def states(self) -> int:
        return sum(len(stream.rows) for stream in self.streams)


@dataclass
class SoakInputs:
    streams: List[Stream]
    #: (stream index, encoded bytes of SOAK_SHIPMENT frames, states).
    shipments: List[Tuple[int, bytes, int]]
    #: Per stream: the ack lengths at which verdicts are checked.
    checkpoints: List[List[int]]
    #: Per stream: the encoded open, snapshot and close frames.
    opens: List[bytes] = field(default_factory=list)
    snapshots: List[bytes] = field(default_factory=list)
    closes: List[bytes] = field(default_factory=list)

    @property
    def states(self) -> int:
        return sum(len(stream.rows) for stream in self.streams)

    @property
    def wire_bytes(self) -> int:
        return sum(len(payload) for _, payload, _ in self.shipments)


@dataclass
class CampaignInputs:
    #: (spec family, wire rows, length class "short"/"long").
    traces: List[Tuple[str, List[Dict[str, Any]], str]]
    #: One small generated trace per family, checked during set-up.
    warmups: List[Tuple[str, List[Dict[str, Any]]]]

    @property
    def states(self) -> int:
        return sum(len(rows) for _, rows, _ in self.traces)


def _scaled(value: int, scale: float, floor: int) -> int:
    return max(floor, int(round(value * scale)))


def fleet_inputs(seed: int, scale: float) -> FleetInputs:
    scripts = generate_stream_scripts(
        _scaled(FLEET_STREAMS, scale, len(FAMILIES)), seed=seed,
        fault_rate=FLEET_FAULT_RATE,
    )
    streams = [
        Stream(script.stream, script.spec, script.rows(), script.faulty)
        for script in scripts
    ]
    chunks = [
        [s.rows[i:i + FLEET_BATCH] for i in range(0, len(s.rows), FLEET_BATCH)]
        for s in streams
    ]
    frames = [
        {"op": "append", "stream": stream.name, "states": stream_chunks[depth]}
        for depth in range(max(len(c) for c in chunks))
        for stream, stream_chunks in zip(streams, chunks)
        if depth < len(stream_chunks)
    ]
    return FleetInputs(streams, frames, sum(len(encode_frame(f)) for f in frames))


def soak_inputs(seed: int, scale: float) -> SoakInputs:
    """One long healthy stream per family: generated segments, repeated.

    Each stream cycles through the same ``SOAK_SEGMENTS`` correct segments
    of its family.  Repeating keeps every value set fixed, so the
    quantified queue's domain never grows and any per-state cost growth
    comes from the runtime's history, not from the specification.  Several
    segments per period keep a stream's cost from hinging on one seed's
    segment: repeating a single mutex segment sends the plan dispatch per
    state up roughly fivefold for some segments (one seed in eight tried)
    and not for others, which made the soak's figures bimodal across seeds.
    """
    target = _scaled(SOAK_STATES, scale, SOAK_FRAME * SOAK_SHIPMENT)
    scripts = generate_stream_scripts(
        len(FAMILIES) * SOAK_SEGMENTS, seed=seed, fault_rate=0.0
    )
    streams = []
    for index, family in enumerate(FAMILIES):
        period = [row for script in scripts[index::len(FAMILIES)] for row in script.rows()]
        rows = period * math.ceil(target / len(period))
        streams.append(Stream(f"soak-{family}", family, rows))
    per_stream: List[List[bytes]] = []
    checkpoints = []
    for stream in streams:
        frames = [
            encode_frame({"op": "append", "stream": stream.name,
                          "states": stream.rows[i:i + SOAK_FRAME]})
            for i in range(0, len(stream.rows), SOAK_FRAME)
        ]
        per_stream.append([
            b"".join(frames[i:i + SOAK_SHIPMENT])
            for i in range(0, len(frames), SOAK_SHIPMENT)
        ])
        length = len(stream.rows)
        # Acks report cumulative lengths at frame boundaries; check the
        # first ack at or past each checkpoint share of the stream.
        checkpoints.append(sorted({
            min(length, math.ceil(share * length / SOAK_FRAME) * SOAK_FRAME)
            for share in SOAK_CHECKPOINTS
        }))
    shipments = []
    offsets = [0] * len(streams)
    for depth in range(max(len(s) for s in per_stream)):
        for index, payloads in enumerate(per_stream):
            if depth < len(payloads):
                rows = streams[index].rows
                start = offsets[index]
                count = min(SOAK_FRAME * SOAK_SHIPMENT, len(rows) - start)
                offsets[index] += count
                shipments.append((index, payloads[depth], count))
    return SoakInputs(
        streams, shipments, checkpoints,
        opens=[encode_frame({"op": "open", "stream": s.name, "spec": s.spec}) for s in streams],
        snapshots=[encode_frame({"op": "snapshot", "stream": s.name}) for s in streams],
        closes=[encode_frame({"op": "close", "stream": s.name}) for s in streams],
    )


def campaign_inputs(seed: int, scale: float) -> CampaignInputs:
    traces = []
    warmups = []
    goal = _scaled(CAMPAIGN_STATES, scale, 16)
    for family in LOAD_FAMILIES:
        scripts = iter(generate_stream_scripts(
            10_000, seed=seed, fault_rate=CAMPAIGN_FAULT_RATE, families=[family],
        ))
        warmups.append((family[0], next(scripts).rows()))
        for _ in range(CAMPAIGN_TRACES):
            rows: List[Dict[str, Any]] = []
            while len(rows) < goal:
                rows.extend(next(scripts).rows())
            traces.append((family[0], rows, "short"))
            traces.append((family[0], rows * CAMPAIGN_REPEAT, "long"))
    return CampaignInputs(traces, warmups)


# -- the independent reference ------------------------------------------------


def _states(rows: Sequence[Dict[str, Any]]):
    return [row_to_state(row) for row in rows]


def reference_verdicts(
    spec: str, rows: Sequence[Dict[str, Any]], interpret: bool = True
) -> Verdicts:
    """Final verdicts of a fresh one-shot check of ``rows``: the
    interpreting ``trace`` engine, or with ``interpret=False`` the static
    compiled ``check_spec``."""
    from repro.api.session import Session
    from repro.semantics.trace import Trace
    from repro.serve.streams import SPEC_FACTORIES

    result = Session().check_spec(
        SPEC_FACTORIES()[spec](), Trace(_states(rows)),
        compiled=False if interpret else None,
    )
    return {
        verdict.clause.name: None if verdict.error is not None else verdict.holds
        for verdict in result.verdicts
    }


def _cached(kind: str, payload: Any, compute) -> Any:
    digest = hashlib.sha256()
    digest.update(kind.encode())
    digest.update(source_digest().encode())
    digest.update(json.dumps(payload, sort_keys=True, separators=(",", ":")).encode())
    path = os.path.join(CACHE_DIR, f"{kind}-{digest.hexdigest()[:24]}.json")
    if os.path.exists(path):
        with open(path) as handle:
            return json.load(handle)
    value = compute()
    os.makedirs(CACHE_DIR, exist_ok=True)
    temporary = f"{path}.{os.getpid()}.tmp"
    with open(temporary, "w") as handle:
        json.dump(value, handle)
    os.replace(temporary, path)
    return value


def stream_reference(streams: Sequence[Stream]) -> Dict[str, Verdicts]:
    """Stream name → reference final verdicts (fleet)."""
    payload = [[s.name, s.spec, s.rows] for s in streams]
    return _cached("streams", payload, lambda: {
        s.name: reference_verdicts(s.spec, s.rows) for s in streams
    })


def soak_reference(inputs: SoakInputs) -> Dict[str, Dict[str, Verdicts]]:
    """Stream name → {checkpoint length → reference verdicts} (soak)."""
    payload = [
        [s.name, s.spec, s.rows, points]
        for s, points in zip(inputs.streams, inputs.checkpoints)
    ]
    return _cached("soak", payload, lambda: {
        s.name: {
            str(n): reference_verdicts(s.spec, s.rows[:n], n <= INTERPRETER_LIMIT)
            for n in points
        }
        for s, points in zip(inputs.streams, inputs.checkpoints)
    })


def campaign_reference(inputs: CampaignInputs) -> List[Verdicts]:
    """Reference verdicts per campaign trace, in input order."""
    payload = [[spec, rows] for spec, rows, _ in inputs.traces]
    return _cached("campaign", payload, lambda: [
        reference_verdicts(spec, rows) for spec, rows, _ in inputs.traces
    ])
