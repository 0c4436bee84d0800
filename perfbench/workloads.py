"""The four workloads: rounds of fixed work, repeated for ``--seconds``.

Each round builds a fresh system (its set-up is timed as one ``setup_s``
sample), runs the workload's fixed work once and keeps every latency
sample.  End-to-end metrics are medians over rounds (latency percentiles
are medians over blocks of rounds, see :func:`blocks`), so a run's figures
do not depend on how many rounds fitted into its window, and every time is
scaled to the reference runner's uncontended speed by probes measured
beside its round, and for the fleet within it (see :func:`probe`).  The
traced run (``--trace 1``)
instead runs exactly one untraced round, one memory pass and one traced
round, so its work counters repeat exactly for a given seed.

Served verdicts are kept per round and compared with the reference once
the rounds are over, so computing the reference never inflates the
measured peak memory.
"""

from __future__ import annotations

import asyncio
import gc
import json
import math
import os
import resource
import signal
import statistics
import sys
import time
import tracemalloc
import warnings
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

import inputs as inputs_mod
import tracing
from inputs import FAMILIES, ROOT

clock = time.perf_counter

#: Snapshot reads per soak stream and ``metrics_snapshot`` reads per
#: campaign round, taken after the round's window (>= 1,000 per round so
#: the p99 rule holds).
SOAK_READS_PER_STREAM = 256
CAMPAIGN_READS = 1024

#: Latency samples per percentile block: a p99 with ten samples beyond it.
BLOCK_SAMPLES = 1000

#: The traced service prints its span report on this prefixed line.
TRACE_LINE = "PERFBENCH-TRACE "

#: Seconds ``probe`` takes on the reference runner (2-vCPU Xeon VM,
#: CPython 3.11) while no neighbour contends for its host cores.
REFERENCE_PROBE_S = 0.0027

#: The in-process workloads slow down as much as the probe under
#: contention, so their times are multiplied by ``REFERENCE_PROBE_S`` over
#: the probe.  The fleet's two processes slow down less (on the reference
#: runner ~1.4x where the probe slowed ~1.75x), so its times are multiplied
#: by that ratio to this power: over 52 consecutive fleet rounds probed
#: every ``PROBE_EVERY`` requests, the round times spread 0.099
#: (IQR/median) scaled by the full ratio, 0.087 by its square root and
#: 0.072 by this.
FLEET_SPEED_EXPONENT = 0.75

#: Requests between two probes in a fleet round.  A fleet round lasts
#: seconds, and the host's speed changes within it: the slowest and the
#: fastest probe inside one round differed ~1.9x at the median.
PROBE_EVERY = 400


def _probe_task() -> int:
    table: Dict[str, int] = {}
    rows = []
    for i in range(6000):
        key = "k%d" % (i % 257)
        table[key] = table.get(key, 0) + i
        rows.append((i, key, [i, i + 1]))
    return len(json.loads(json.dumps(table, sort_keys=True))) + len(rows)


def probe() -> float:
    """Best of three timings of a fixed interpreter-bound task.

    The reference runner's vCPUs share host cores with other tenants: in
    episodes of a second to minutes everything runs up to ~1.5-2x slower,
    CPU time included (steal time stays near zero), so whole runs can land
    in a slow episode.  Timed figures are therefore reported at the
    runner's uncontended speed: multiplied by ``REFERENCE_PROBE_S`` over
    this probe, measured right before and after each in-process round and
    every ``PROBE_EVERY`` requests of a fleet round (there raised to
    ``FLEET_SPEED_EXPONENT``).  The probe uses only the standard
    library, so no change to ``src/`` can move it, and it runs with the
    collector off so the system's heap cannot slow it down.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        best = math.inf
        for _ in range(3):
            started = clock()
            _probe_task()
            best = min(best, clock() - started)
    finally:
        if enabled:
            gc.enable()
    return best


def usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def pin_to_one_cpu(workload: str) -> Optional[int]:
    """Run every process of the workload on one CPU (fan-out excepted).

    On the 2-vCPU reference runner, cross-CPU wake-ups between the load
    generator and the service made fleet rounds swing by +-30% depending
    on where the scheduler happened to place them; one CPU for all of a
    workload's processes removes that.  (On one CPU a second client
    connection could only queue behind the first, so the fleet uses one.)
    The fan-out campaign keeps every CPU, because its worker processes
    are what it measures.  Returns the CPU used, or None when unpinned.
    """
    try:
        cpus = os.sched_getaffinity(0)
    except AttributeError:
        return None
    if workload == "campaign-fanout" or len(cpus) < 2:
        return None
    chosen = max(cpus)
    os.sched_setaffinity(0, {chosen})
    return chosen


def settle_inputs() -> None:
    """Move the generated inputs out of the collector's view.

    The inputs live as long as the run; freezing them keeps the garbage
    collector from rescanning tens of thousands of input rows on every
    full collection the system under test triggers.
    """
    gc.collect()
    gc.freeze()


def tail(samples: List[float]) -> Tuple[float, float]:
    """The highest percentile (at most p99) with >= 10 samples beyond it,
    as ``(value, percentile)``; with 10 or fewer samples, the maximum."""
    ordered = sorted(samples)
    n = len(ordered)
    if n >= BLOCK_SAMPLES:
        rank = math.ceil(0.99 * n)
    else:
        rank = n - 10 if n > 10 else n
    return ordered[rank - 1], rank / n


def blocks(per_round: List[List[float]]) -> List[List[float]]:
    """Consecutive rounds' latency samples grouped into blocks of at least
    ``BLOCK_SAMPLES`` (the last block takes the remainder; fewer samples
    than that in all make one block).

    Percentiles are taken per block and reported as the median over
    blocks: a few rounds that a neighbour slowed then move one block's
    tail instead of filling the pooled top percent.  On the reference
    runner this halved the run-to-run spread of the p99 reads.
    """
    grouped: List[List[float]] = []
    current: List[float] = []
    for samples in per_round:
        current.extend(samples)
        if len(current) >= BLOCK_SAMPLES:
            grouped.append(current)
            current = []
    if current:
        if grouped:
            grouped[-1].extend(current)
        else:
            grouped.append(current)
    return grouped


def per_state_ratio(late: List[Tuple[float, int]], early: List[Tuple[float, int]]) -> float:
    """(seconds per state over ``late``) / (seconds per state over ``early``)."""
    late_rate = sum(t for t, _ in late) / max(1, sum(n for _, n in late))
    early_rate = sum(t for t, _ in early) / max(1, sum(n for _, n in early))
    return late_rate / early_rate if early_rate > 0 else 0.0


def tenths_ratio(samples: List[Tuple[float, int]]) -> float:
    """Per-state time in the last tenth of ``(seconds, states)`` samples
    (in arrival order) over that in the first tenth."""
    k = max(1, len(samples) // 10)
    return per_state_ratio(samples[-k:], samples[:k])


@dataclass
class Round:
    """What one round measured."""

    setup_s: float
    run_s: float
    ingest_s: float
    open_s: float
    opens: int
    states: int
    #: (latency, states) of every ingest request, in arrival order.
    requests: List[Tuple[float, int]] = field(default_factory=list)
    reads: List[float] = field(default_factory=list)
    slowdown: float = 1.0
    rss_mb: float = 0.0
    attempted: int = 0
    failed: int = 0
    #: Served verdicts, compared with the reference once the rounds end.
    served: Any = None
    #: The round's speed factor (reference-runner seconds per second); the
    #: times above are already multiplied by it (see ``probe``).
    speed: float = 1.0

    def scale(self, speed: float) -> None:
        """Bring every time of the round to reference speed."""
        self.setup_s *= speed
        self.run_s *= speed
        self.ingest_s *= speed
        self.open_s *= speed
        self.requests = [(latency * speed, states) for latency, states in self.requests]
        self.reads = [latency * speed for latency in self.reads]
        self.speed = speed


def _self_rss_mb(children: bool = False) -> float:
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if children:
        peak += resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return peak / 1024.0


def _differences(served: Optional[Dict[str, Any]], expected: Dict[str, Any]) -> int:
    """Clause verdicts that differ from the reference (missing ones count)."""
    served = served or {}
    keys = set(served) | set(expected)
    return sum(1 for key in keys if served.get(key, "missing") != expected.get(key, "absent"))


# -- fleet: the socket service ------------------------------------------------


def _service_env() -> Dict[str, str]:
    env = dict(os.environ)
    env.pop("REPRO_PLAN_CACHE", None)
    source = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = source + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["PYTHONUNBUFFERED"] = "1"
    return env


SERVE_COMMAND = [sys.executable, "-m", "repro.serve", "serve", "--port", "0"]
TRACED_SERVE_COMMAND = [
    sys.executable, os.path.join(ROOT, "perfbench", "serve_traced.py"),
    "serve", "--port", "0",
]


def _vm_hwm_mb(pid: int) -> float:
    """Peak resident memory of a live process (Linux ``VmHWM``)."""
    try:
        with open(f"/proc/{pid}/status") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return 0.0


class _Segments:
    """Speed factors of the stretches of a fleet round between two probes."""

    def __init__(self) -> None:
        self.probes = [probe()]
        #: Seconds spent probing, kept out of every measured span.
        self.probing = 0.0

    @property
    def current(self) -> int:
        return len(self.probes) - 1

    def mark(self) -> None:
        """Probe, ending the current segment."""
        started = clock()
        self.probes.append(probe())
        self.probing += clock() - started

    def speed(self, index: int) -> float:
        mean = (self.probes[index] + self.probes[index + 1]) / 2
        return (REFERENCE_PROBE_S / mean) ** FLEET_SPEED_EXPONENT


async def _fleet_round(
    fleet: inputs_mod.FleetInputs, command: List[str]
) -> Tuple[Round, str, List[float]]:
    """One fresh service process: set-up, open, ingest with reads, close.

    ``command`` starts the service and prints its listening address first.
    The host's speed changes within a round, so the round is probed every
    ``PROBE_EVERY`` requests and each request is scaled by the speed of the
    segment it ran in.  Returns the round (at reference speed), the
    service's remaining standard output and every request's raw latency
    (set-up included), in seconds.
    """
    from repro.serve.client import ServeClient

    segments = _Segments()
    #: (raw seconds, segment) of every request, in order.
    timed: List[Tuple[float, int]] = []
    #: (first request, end request, wall seconds without probes) per phase.
    phases: List[Tuple[int, int, float]] = []
    failed = 0

    async def call(frame: Dict[str, Any]) -> Dict[str, Any]:
        nonlocal failed
        started = clock()
        reply = await client.request(frame)
        timed.append((clock() - started, segments.current))
        if "error" in reply:
            failed += 1
        if len(timed) % PROBE_EVERY == 0:
            segments.mark()
        return reply

    async def phase(frames: List[Dict[str, Any]]) -> List[Dict[str, Any]]:
        first, probing, begun = len(timed), segments.probing, clock()
        replies = [await call(frame) for frame in frames]
        phases.append((first, len(timed), clock() - begun - (segments.probing - probing)))
        return replies

    def at_reference(first: int, end: int, wall: float) -> float:
        """A phase's wall time scaled by its requests' latency-weighted speed."""
        part = timed[first:end]
        return wall * sum(t * segments.speed(s) for t, s in part) / sum(t for t, _ in part)

    opens = [{"op": "open", "stream": s.name, "spec": s.spec} for s in fleet.streams]
    ingest = [
        request for frame in fleet.frames
        for request in (frame, {"op": "snapshot", "stream": frame["stream"]})
    ]
    closes = [{"op": "close", "stream": s.name} for s in fleet.streams]

    started = clock()
    process = await asyncio.create_subprocess_exec(
        *command, cwd=ROOT, env=_service_env(),
        stdout=asyncio.subprocess.PIPE, stdin=asyncio.subprocess.DEVNULL,
    )
    client = None
    try:
        line = (await asyncio.wait_for(process.stdout.readline(), 120)).decode()
        if "listening on" not in line:
            raise RuntimeError(f"service did not start: {line!r}")
        host, port = line.split("listening on ", 1)[1].split()[0].rsplit(":", 1)
        client = await ServeClient.connect(host, int(port))
        for family in FAMILIES:
            await call({"op": "open", "stream": f"warmup-{family}", "spec": family})
            await call({"op": "close", "stream": f"warmup-{family}"})
        setup_wall = clock() - started
        segments.mark()  # the set-up is segment 0
        await phase(opens)
        await phase(ingest)
        closed = await phase(closes)
        segments.mark()
        rss_mb = _vm_hwm_mb(process.pid)
    finally:
        if client is not None:
            await client.close()
        if process.returncode is None:
            process.send_signal(signal.SIGINT)
        try:
            output, _ = await asyncio.wait_for(process.communicate(), 60)
        except asyncio.TimeoutError:
            process.kill()
            output, _ = await process.communicate()

    open_s, ingest_s, close_s = (at_reference(*span) for span in phases)
    first, end, _ = phases[1]
    scaled = [t * segments.speed(s) for t, s in timed[first:end]]
    appends = [(latency, len(frame["states"])) for latency, frame in zip(scaled[0::2], fleet.frames)]
    result = Round(
        setup_s=setup_wall * segments.speed(0),
        run_s=open_s + ingest_s + close_s,
        ingest_s=ingest_s,
        open_s=open_s,
        opens=len(fleet.streams),
        states=fleet.states,
        requests=appends,
        reads=scaled[1::2],
        slowdown=tenths_ratio(appends),
        rss_mb=rss_mb,
        attempted=len(timed),
        failed=failed,
        served={s.name: reply.get("verdicts") for s, reply in zip(fleet.streams, closed)},
        speed=statistics.median(segments.speed(i) for i in range(segments.current)),
    )
    return result, output.decode(errors="replace"), [t for t, _ in timed]


def _fleet_mismatches(fleet: inputs_mod.FleetInputs, rounds: List[Round]) -> int:
    reference = inputs_mod.stream_reference(fleet.streams)
    mismatches = 0
    for round_ in rounds:
        for stream in fleet.streams:
            served = round_.served.get(stream.name) or {}
            mismatches += _differences(served, reference[stream.name])
            if not stream.faulty and any(v is False for v in served.values()):
                mismatches += 1  # a correct stream ended failing: spurious alarm
    return mismatches


def _warm_registry():
    """A fresh in-process registry with every family's plan compiled, by
    opening and closing one warm-up stream per family."""
    from repro.api.session import Session
    from repro.serve.streams import StreamRegistry

    registry = StreamRegistry(session=Session())
    for family in FAMILIES:
        registry.handle({"op": "open", "stream": f"warmup-{family}", "spec": family})
        registry.handle({"op": "close", "stream": f"warmup-{family}"})
    return registry


def _fleet_memory(fleet: inputs_mod.FleetInputs) -> Tuple[float, float]:
    """Traced-allocation bytes per open stream and per ingested state,
    opening and feeding the same fleet through an in-process registry."""
    registry = _warm_registry()
    gc.collect()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        for stream in fleet.streams:
            registry.handle({"op": "open", "stream": stream.name, "spec": stream.spec})
        opened = tracemalloc.get_traced_memory()[0]
        for frame in fleet.frames:
            registry.handle(frame)
        ingested = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    return (opened - base) / len(fleet.streams), (ingested - opened) / fleet.states


# -- soak: long streams through the in-process codec -------------------------


def _soak_round(soak: inputs_mod.SoakInputs, memory: Optional[Dict[str, int]] = None) -> Round:
    """Set-up, four opens, the shipments, post-ingest reads, four closes.

    With a ``memory`` dict, traced-allocation totals after the opens and
    after the ingest are filed into it (the memory pass).
    """
    from repro.serve import protocol

    checkpoints = [set(points) for points in soak.checkpoints]
    failed = 0
    attempted = 0

    started = clock()
    registry = _warm_registry()
    decoder = protocol.FrameDecoder()
    setup_s = clock() - started

    def serve(payload: bytes) -> List[Dict[str, Any]]:
        # The service path: framing, decoding, dispatch, encoding replies.
        nonlocal failed, attempted
        frames = [protocol.decode_frame(line) for line in decoder.feed(payload)]
        responses = registry.handle_batch(frames)
        b"".join(protocol.encode_frame(response) for response in responses)
        attempted += len(frames)
        failed += sum(1 for response in responses if "error" in response)
        return responses

    if memory is not None:
        gc.collect()
        tracemalloc.start()
        memory["base"] = tracemalloc.get_traced_memory()[0]
    t0 = clock()
    for payload in soak.opens:
        serve(payload)
    t1 = clock()
    if memory is not None:
        memory["opened"] = tracemalloc.get_traced_memory()[0]
    served: Dict[str, Any] = {}
    shipments: List[Tuple[float, int]] = []
    for index, payload, states in soak.shipments:
        sent = clock()
        responses = serve(payload)
        shipments.append((clock() - sent, states))
        for response in responses:
            if response.get("ok") == "appended" and response["length"] in checkpoints[index]:
                served[f"{index}:{response['length']}"] = response["verdicts"]
    t2 = clock()
    if memory is not None:
        memory["ingested"] = tracemalloc.get_traced_memory()[0]
        tracemalloc.stop()
    reads: List[float] = []
    for payload in soak.snapshots:
        for _ in range(SOAK_READS_PER_STREAM):
            sent = clock()
            serve(payload)
            reads.append(clock() - sent)
    t3 = clock()
    for index, payload in enumerate(soak.closes):
        (reply,) = serve(payload)
        served[f"{index}:closed"] = reply.get("verdicts")
    t4 = clock()
    return Round(
        setup_s=setup_s,
        run_s=(t2 - t0) + (t4 - t3),
        ingest_s=t2 - t1,
        open_s=t1 - t0,
        opens=len(soak.opens),
        states=soak.states,
        requests=shipments,
        reads=reads,
        slowdown=tenths_ratio(shipments),
        attempted=attempted,
        failed=failed,
        served=served,
    )


def _soak_mismatches(soak: inputs_mod.SoakInputs, rounds: List[Round]) -> int:
    reference = inputs_mod.soak_reference(soak)
    mismatches = 0
    for round_ in rounds:
        for index, stream in enumerate(soak.streams):
            expected = reference[stream.name]
            for length in soak.checkpoints[index]:
                mismatches += _differences(
                    round_.served.get(f"{index}:{length}"), expected[str(length)]
                )
            mismatches += _differences(
                round_.served.get(f"{index}:closed"), expected[str(len(stream.rows))]
            )
    return mismatches


# -- campaigns: one-shot check_spec -------------------------------------------


def _campaign_traces(campaign: inputs_mod.CampaignInputs):
    """Fresh ``Trace`` objects (built outside every timed window): a trace
    caches its column store, and building it is campaign work."""
    from repro.semantics.trace import Trace
    from repro.serve.protocol import row_to_state

    def build(rows):
        return Trace([row_to_state(row) for row in rows])

    return (
        [build(rows) for _, rows, _ in campaign.traces],
        [(spec, build(rows)) for spec, rows in campaign.warmups],
    )


def _campaign_round(campaign: inputs_mod.CampaignInputs, prepared, processes: Optional[int]) -> Round:
    from repro.api.session import Session
    from repro.serve.streams import SPEC_FACTORIES

    traces, warmups = prepared
    failed = 0

    def check(session, spec, trace) -> Any:
        # A check_many fall-back to serial is a failed operation.
        nonlocal failed
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", RuntimeWarning)
            result = session.check_spec(spec, trace, processes=processes)
        failed += sum(1 for w in caught if issubclass(w.category, RuntimeWarning))
        return result

    started = clock()
    session = Session()
    specs = {family: SPEC_FACTORIES()[family]() for family in FAMILIES}
    for family, trace in warmups:
        check(session, specs[family], trace)
    setup_s = clock() - started

    checks: List[Tuple[float, int]] = []
    served = []
    t0 = clock()
    for (family, rows, _), trace in zip(campaign.traces, traces):
        sent = clock()
        result = check(session, specs[family], trace)
        checks.append((clock() - sent, len(rows)))
        served.append({
            v.clause.name: None if v.error is not None else v.holds for v in result.verdicts
        })
    run_s = clock() - t0
    reads = []
    for _ in range(CAMPAIGN_READS):
        sent = clock()
        session.metrics_snapshot()
        reads.append(clock() - sent)
    classes = [length_class for _, _, length_class in campaign.traces]
    return Round(
        setup_s=setup_s,
        run_s=run_s,
        ingest_s=run_s,
        open_s=run_s,
        opens=len(traces),
        states=campaign.states,
        requests=checks,
        reads=reads,
        slowdown=per_state_ratio(
            [c for c, k in zip(checks, classes) if k == "long"],
            [c for c, k in zip(checks, classes) if k == "short"],
        ),
        attempted=len(warmups) + len(traces) + CAMPAIGN_READS,
        failed=failed,
        served=served,
    )


def _campaign_mismatches(campaign: inputs_mod.CampaignInputs, rounds: List[Round]) -> int:
    reference = inputs_mod.campaign_reference(campaign)
    return sum(
        _differences(served, expected)
        for round_ in rounds
        for served, expected in zip(round_.served, reference)
    )


# -- the runs -----------------------------------------------------------------


@dataclass
class Outcome:
    metrics: Dict[str, Tuple[float, str]]
    attempted: int
    failed: int
    mismatches: int
    notes: List[str] = field(default_factory=list)
    pinned_cpu: Optional[int] = None


class Workload:
    """One workload's inputs and its round, mismatch and memory hooks."""

    def __init__(self, name: str, seed: int, scale: float) -> None:
        self.name = name
        self.processes: Optional[int] = None
        if name == "fleet":
            self.inputs = inputs_mod.fleet_inputs(seed, scale)
        elif name == "soak":
            self.inputs = inputs_mod.soak_inputs(seed, scale)
        else:
            self.inputs = inputs_mod.campaign_inputs(seed, scale)
            if name == "campaign-fanout":
                self.processes = min(2, usable_cpus())
        settle_inputs()
        self.pinned_cpu = pin_to_one_cpu(name)

    def round(self, traced: Optional[tracing.Recorder] = None) -> Round:
        """One in-process round (soak, campaigns); ``traced`` records it."""
        gc.collect()
        prepared = _campaign_traces(self.inputs) if self.name != "soak" else None
        before = probe()
        if traced is not None:
            traced.start()
        try:
            if self.name == "soak":
                result = _soak_round(self.inputs)
            else:
                result = _campaign_round(self.inputs, prepared, self.processes)
        finally:
            if traced is not None:
                traced.stop()
        result.scale(REFERENCE_PROBE_S / ((before + probe()) / 2))
        return result

    async def fleet_round(self, command: List[str]) -> Tuple[Round, str, List[float]]:
        """One fleet round against a fresh service started by ``command``."""
        gc.collect()
        return await _fleet_round(self.inputs, command)

    def mismatches(self, rounds: List[Round]) -> int:
        if self.name == "fleet":
            return _fleet_mismatches(self.inputs, rounds)
        if self.name == "soak":
            return _soak_mismatches(self.inputs, rounds)
        return _campaign_mismatches(self.inputs, rounds)

    def peak_rss_mb(self, rounds: List[Round]) -> float:
        if self.name == "fleet":
            return statistics.median(r.rss_mb for r in rounds)
        return _self_rss_mb(children=self.processes is not None)


def _latency_blocks(rounds: List[Round]) -> Tuple[List[List[float]], List[List[float]]]:
    """Request and read latency blocks."""
    return (
        blocks([[latency for latency, _ in r.requests] for r in rounds]),
        blocks([r.reads for r in rounds]),
    )


def _end_to_end(
    rounds: List[Round], requests: List[List[float]], reads: List[List[float]],
    peak_rss_mb: float,
) -> Dict[str, Tuple[float, str]]:
    """Medians over rounds, and percentiles as medians over the latency
    blocks (the rounds' times are at reference speed already)."""
    median = statistics.median
    return {
        "setup_s": (median(r.setup_s for r in rounds), "s"),
        "run_s": (median(r.run_s for r in rounds), "s"),
        "states_per_s": (median(r.states / r.ingest_s for r in rounds), "states/s"),
        "open_per_s": (median(r.opens / r.open_s for r in rounds), "streams/s"),
        "append_p50_ms": (median(median(b) for b in requests) * 1e3, "ms"),
        "append_p99_ms": (median(tail(b)[0] for b in requests) * 1e3, "ms"),
        "snapshot_p50_ms": (median(median(b) for b in reads) * 1e3, "ms"),
        "snapshot_p99_ms": (median(tail(b)[0] for b in reads) * 1e3, "ms"),
        "soak_slowdown": (median(r.slowdown for r in rounds), "ratio"),
        "peak_rss_mb": (peak_rss_mb, "MiB"),
    }


def _latency_note(kind: str, grouped: List[List[float]]) -> str:
    """Sample count, blocks and the tail percentile of the smallest block."""
    smallest = min(grouped, key=len)
    return (f"{kind} samples={sum(map(len, grouped))} in {len(grouped)} blocks "
            f"(tail = p{tail(smallest)[1] * 100:.1f} of >= {len(smallest)})")


def run_timed(name: str, seed: int, seconds: float, scale: float) -> Outcome:
    """The ``--trace 0`` run: fresh-system rounds for ``seconds``."""
    workload = Workload(name, seed, scale)
    rounds: List[Round] = []
    started = clock()
    if name == "fleet":
        async def loop() -> None:
            while not rounds or clock() - started < seconds:
                rounds.append((await workload.fleet_round(SERVE_COMMAND))[0])

        asyncio.run(loop())
    else:
        while not rounds or clock() - started < seconds:
            rounds.append(workload.round())
    requests, reads = _latency_blocks(rounds)
    outcome = Outcome(
        _end_to_end(rounds, requests, reads, workload.peak_rss_mb(rounds)),
        attempted=sum(r.attempted for r in rounds),
        failed=sum(r.failed for r in rounds),
        mismatches=workload.mismatches(rounds),
        pinned_cpu=workload.pinned_cpu,
    )
    outcome.notes.append(
        f"rounds={len(rounds)}; {_latency_note('append', requests)}; "
        f"{_latency_note('snapshot', reads)}"
    )
    outcome.notes.append(
        "times are at reference-runner speed: raw x "
        f"{statistics.median(r.speed for r in rounds):.4f} (median round speed factor)"
    )
    return outcome


def run_traced(name: str, seed: int, scale: float) -> Outcome:
    """The ``--trace 1`` run: one untraced round, a memory pass and one
    traced round, reported as per-layer metrics."""
    workload = Workload(name, seed, scale)
    extra: Dict[str, float] = {"states": workload.inputs.states}
    if name == "fleet":
        fleet = workload.inputs
        untraced, _, _ = asyncio.run(workload.fleet_round(SERVE_COMMAND))
        extra["bytes_per_stream"], extra["bytes_per_state"] = _fleet_memory(fleet)
        traced, output, latencies = asyncio.run(workload.fleet_round(TRACED_SERVE_COMMAND))
        lines = [line for line in output.splitlines() if line.startswith(TRACE_LINE)]
        if not lines:
            raise RuntimeError(f"the traced service printed no report: {output!r}")
        report = json.loads(lines[-1][len(TRACE_LINE):])
        extra["client_latency_s"] = statistics.mean(latencies)
        extra["units"] = traced.opens + len(FAMILIES)
        extra["wire_bytes"] = fleet.wire_bytes
    else:
        untraced = workload.round()
        if name == "soak":
            marks: Dict[str, int] = {}
            _soak_round(workload.inputs, memory=marks)
            extra["bytes_per_stream"] = (marks["opened"] - marks["base"]) / len(workload.inputs.streams)
            extra["bytes_per_state"] = (marks["ingested"] - marks["opened"]) / workload.inputs.states
            extra["wire_bytes"] = workload.inputs.wire_bytes
        recorder = tracing.Recorder()
        tracing.install(recorder)
        traced = workload.round(traced=recorder)
        if name != "soak":
            extra["fallbacks"] = traced.failed
        extra["units"] = traced.opens + len(FAMILIES)
        report = recorder.report()
    extra["traced_run_s"] = traced.run_s
    extra["untraced_run_s"] = untraced.run_s
    rounds = [untraced, traced]
    metrics = tracing.layer_metrics(report, extra)
    return Outcome(
        metrics,
        attempted=sum(r.attempted for r in rounds),
        failed=sum(r.failed for r in rounds),
        mismatches=workload.mismatches(rounds),
        notes=[f"traced wall {report['wall_s']:.3f}s = named self time "
               f"{report['named_s']:.3f}s + other {report['other_s']:.3f}s"],
        pinned_cpu=workload.pinned_cpu,
    )
