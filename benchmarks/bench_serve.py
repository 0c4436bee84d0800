"""Trajectory gate: serve-path ingestion throughput and shard fan-out.

Two gates for the :mod:`repro.serve` subsystem, both measured through the
*real* wire path (encoded frames -> :class:`FrameDecoder` ->
:func:`decode_frame` -> registry dispatch), so protocol overhead is inside
the window:

* ``test_single_worker_sustained_throughput`` — a 1,000-stream fleet of
  the paper's simulated systems over the **default**
  :data:`~repro.gen.loadgen.LOAD_FAMILIES` mix (equal parts mutex,
  reliable-queue, arbiter and request/ack — the quantified queue and
  mutex specs carry full weight, not a token tail), batched appends
  interleaved round-robin across every stream, gated at >= 50,000
  states/second through one in-process registry — with every stream's
  final verdicts asserted identical to a one-shot ``Session.check_spec``
  over the same trace.
* ``test_quantified_only_throughput`` — a quantified-spec-only fleet
  (mutex + reliable-queue families), states arriving as bursts of
  contiguous same-stream frames through ``handle_batch`` so the
  registry's run coalescing engages, gated at >= 2x the 20-25k st/s the
  quantified families sustained before forall specialization and batched
  tail-window vectorization.  Records the ``serve-quantified`` row.
* ``test_shard_fanout`` — the same workload through a
  :class:`~repro.serve.worker.ShardPool`, shards=1 vs shards=N, asserting
  cross-shard verdict parity and a bounded routing overhead always, and a
  real speedup when the machine has cores to scale onto
  (``BENCH_SERVE_REQUIRE_SCALING=1``; meaningless on one core, where
  parallel workers physically cannot outrun one).

Both record their points in ``BENCH_serve.json`` at the repo root — the
serve series of the ROADMAP's benchmark-trajectory convention.  Sizes are
environment-parameterized (``BENCH_SERVE_STREAMS``, ``BENCH_SERVE_BATCH``,
``BENCH_SERVE_SHARD_STREAMS``, ``BENCH_SERVE_SHARDS``) so the nightly run
can push the sharded fleet to 10k streams without another code path.
"""

import json
import os
import time

from repro.api.session import Session
from repro.gen.loadgen import generate_stream_scripts
from repro.serve.protocol import FrameDecoder, decode_frame, encode_frame
from repro.serve.streams import SPEC_FACTORIES, StreamRegistry
from repro.serve.worker import ShardPool

STREAMS = int(os.environ.get("BENCH_SERVE_STREAMS", "1000"))
BATCH = int(os.environ.get("BENCH_SERVE_BATCH", "64"))
TARGET_STATES_PER_SECOND = float(os.environ.get("BENCH_SERVE_TARGET", "50000"))
SHARD_STREAMS = int(os.environ.get("BENCH_SERVE_SHARD_STREAMS", "240"))
SHARDS = int(os.environ.get("BENCH_SERVE_SHARDS", "2"))
SEED = 7

#: The propositional-heavy shard mix kept for the ``serve-shards-v1``
#: series: many long request/ack and arbiter histories (cheap per state,
#: so the batched-absorption amortization shows), a fair share of mutex
#: safety streams, and the quantified reliable-queue spec as the
#: expensive tail.  Repeating a family weights the round-robin rotation.
#: The single-worker gate no longer uses this — it runs the default
#: ``LOAD_FAMILIES`` mix where quantified specs carry full weight.
SERVE_FAMILIES = (
    [("request_ack", "request_ack", "request_ack_faulty", {"cycles": 8})] * 4
    + [("arbiter", "arbiter", "arbiter_faulty", {"requests": [1, 2, 1, 2, 1, 2, 1]})] * 3
    + [("mutex", "mutex", "mutex_faulty", {"processes": 2})] * 2
    + [("reliable_queue", "reliable_queue", "reordering_queue", {"num_values": 4})]
)

#: Quantified specifications only: the forall-heavy families that sat at
#: 20-25k states/second before the fast path.  The gate demands 2x that.
QUANTIFIED_FAMILIES = (
    ("mutex", "mutex", "mutex_faulty", {"processes": 2}),
    ("reliable_queue", "reliable_queue", "reordering_queue", {"num_values": 4}),
)
QUANTIFIED_BASELINE = float(
    os.environ.get("BENCH_SERVE_QUANTIFIED_BASELINE", "20000")
)

#: Ingestion rounds per gate: the shared runner's wall clock swings by
#: +-25% between identical runs, so each gate ingests the same wire into
#: a fresh fleet three times and judges the best round — the round with
#: the least scheduler interference, exactly like the compile-series
#: benches' best-of-N discipline.
ROUNDS = int(os.environ.get("BENCH_SERVE_ROUNDS", "3"))

SERIES_PATH = os.path.join(os.path.dirname(__file__), "..", "BENCH_serve.json")


def record_point(label, row):
    """Append/refresh one labelled entry in the committed trajectory series."""
    series = []
    if os.path.exists(SERIES_PATH):
        with open(SERIES_PATH) as handle:
            series = json.load(handle)
    entry = {"label": label, **row}
    for index, existing in enumerate(series):
        if existing.get("label") == label:
            series[index] = entry
            break
    else:
        series.append(entry)
    with open(SERIES_PATH, "w") as handle:
        json.dump(series, handle, indent=2, sort_keys=True)
        handle.write("\n")


def build_fleet(streams, seed=SEED, families=None):
    """``[(script, wire_rows)]`` for a deterministic ``streams``-wide fleet.

    ``families=None`` means the default ``LOAD_FAMILIES`` mix (quantified
    specs at full weight); the shard sweep passes ``SERVE_FAMILIES``.
    """
    scripts = generate_stream_scripts(
        streams, seed=seed, fault_rate=0.2, families=families
    )
    return [(script, script.rows()) for script in scripts]


def interleaved_append_frames(fleet, batch):
    """Batched ``append`` frames, round-robin across every live stream.

    This is the service's worst realistic arrival order: no stream's
    states ever arrive contiguously, so nothing but the monitors' own
    incremental memos can amortize the work.
    """
    per_stream = [
        (script.stream, [rows[i:i + batch] for i in range(0, len(rows), batch)])
        for script, rows in fleet
    ]
    depth = max(len(chunks) for _, chunks in per_stream)
    frames = []
    for index in range(depth):
        for stream, chunks in per_stream:
            if index < len(chunks):
                frames.append(
                    {"op": "append", "stream": stream, "states": chunks[index]}
                )
    return frames


def expected_verdicts(script):
    """One-shot ``check_spec`` verdicts for a script, keyed like the wire."""
    session = Session()
    specification = SPEC_FACTORIES()[script.spec]()
    result = session.check_spec(specification, script.build_trace())
    return {
        v.clause.name: (None if v.error is not None else v.holds)
        for v in result.verdicts
    }


def ingest_rounds(fleet, wire, batched=False):
    """Best-of-``ROUNDS`` ingestion of one wire into fresh fleets.

    Every round opens its own registry (untimed), replays the identical
    wire, and the fastest round wins — per-round wall clock on the shared
    runner swings far too much for a single-shot hard gate.  Returns
    ``(elapsed_s, responses, registry)`` of the winning round; the
    registry carries the full ingested fleet for the parity check.
    """
    best = None
    for _ in range(ROUNDS):
        registry = StreamRegistry(session=Session())
        for script, _ in fleet:
            (response,) = registry.handle(
                {"op": "open", "stream": script.stream, "spec": script.spec}
            )
            assert response.get("ok") == "opened", response
        decoder = FrameDecoder()
        responses = 0
        started = time.perf_counter()
        for offset in range(0, len(wire), 64 * 1024):
            lines = decoder.feed(wire[offset:offset + 64 * 1024])
            if batched:
                frames = [decode_frame(line) for line in lines]
                if frames:
                    responses += len(registry.handle_batch(frames))
            else:
                for line in lines:
                    responses += len(registry.handle(decode_frame(line)))
        elapsed = time.perf_counter() - started
        if best is None or elapsed < best[0]:
            best = (elapsed, responses, registry)
    return best


def assert_fleet_parity(registry, fleet):
    """Every stream's served verdicts == one-shot check_spec on its trace."""
    mismatches = []
    for script, _ in fleet:
        (closed,) = registry.handle({"op": "close", "stream": script.stream})
        assert closed.get("ok") == "closed", closed
        if closed["verdicts"] != expected_verdicts(script):
            mismatches.append(script.stream)
    assert not mismatches, mismatches


def test_single_worker_sustained_throughput(benchmark):
    """>= 50k states/s through one registry, verdicts == one-shot check_spec."""
    fleet = build_fleet(STREAMS)
    total_states = sum(len(rows) for _, rows in fleet)
    frames = interleaved_append_frames(fleet, BATCH)
    wire = b"".join(encode_frame(frame) for frame in frames)

    def ingest():
        elapsed, responses, registry = ingest_rounds(fleet, wire)
        row = {
            "streams": len(fleet),
            "states": total_states,
            "frames": len(frames),
            "batch": BATCH,
            "wire_bytes": len(wire),
            "responses": responses,
            "rounds": ROUNDS,
            "elapsed_s": round(elapsed, 3),
            "states_per_second": round(total_states / elapsed),
        }
        assert_fleet_parity(registry, fleet)
        row["parity_streams"] = len(fleet)
        return row

    row = benchmark.pedantic(ingest, rounds=1, iterations=1)
    benchmark.extra_info["row"] = row
    print()
    print(row)

    assert row["states_per_second"] >= TARGET_STATES_PER_SECOND, row
    record_point("serve-v2-default-mix", row)


def contiguous_append_frames(fleet, batch):
    """Batched ``append`` frames, every stream's states arriving as one
    contiguous burst — the arrival order where the registry's same-stream
    run coalescing does its work (back-to-back frames for one stream
    absorb as a single runtime batch)."""
    frames = []
    for script, rows in fleet:
        frames.extend(
            {"op": "append", "stream": script.stream, "states": rows[i:i + batch]}
            for i in range(0, len(rows), batch)
        )
    return frames


def test_quantified_only_throughput(benchmark):
    """Quantified families only, >= 2x their pre-fast-path 20-25k st/s."""
    fleet = build_fleet(STREAMS, families=QUANTIFIED_FAMILIES)
    total_states = sum(len(rows) for _, rows in fleet)
    frames = contiguous_append_frames(fleet, BATCH)
    wire = b"".join(encode_frame(frame) for frame in frames)

    def ingest():
        elapsed, responses, registry = ingest_rounds(fleet, wire, batched=True)
        row = {
            "streams": len(fleet),
            "states": total_states,
            "frames": len(frames),
            "batch": BATCH,
            "wire_bytes": len(wire),
            "responses": responses,
            "rounds": ROUNDS,
            "elapsed_s": round(elapsed, 3),
            "states_per_second": round(total_states / elapsed),
            "baseline_states_per_second": round(QUANTIFIED_BASELINE),
        }
        assert_fleet_parity(registry, fleet)
        row["parity_streams"] = len(fleet)
        return row

    row = benchmark.pedantic(ingest, rounds=1, iterations=1)
    benchmark.extra_info["row"] = row
    print()
    print(row)

    row["speedup_over_baseline"] = round(
        row["states_per_second"] / QUANTIFIED_BASELINE, 2
    )
    assert row["states_per_second"] >= 2 * QUANTIFIED_BASELINE, row
    record_point("serve-quantified", row)


def _drive_pool(shards, fleet, frames, rounds=1):
    """Open/ingest/close one fleet through a pool; (elapsed, verdicts).

    ``rounds`` replays the identical wire into a fresh fleet of streams
    on the *same* pool (worker processes and their plan/state caches stay
    warm), best round wins — the registry gates' best-of-N discipline,
    applied symmetrically to both shard counts.
    """
    pool = ShardPool(shards)
    try:
        opens = [
            {"op": "open", "stream": script.stream, "spec": script.spec}
            for script, _ in fleet
        ]
        closes = [
            {"op": "close", "stream": script.stream} for script, _ in fleet
        ]
        best = None
        verdicts = {}
        for _ in range(rounds):
            for index in range(0, len(opens), 64):
                for response in pool.handle_batch(opens[index:index + 64]):
                    assert response.get("ok") == "opened", response
            started = time.perf_counter()
            for index in range(0, len(frames), 200):
                pool.handle_batch(frames[index:index + 200])
            elapsed = time.perf_counter() - started
            best = elapsed if best is None else min(best, elapsed)
            verdicts = {}
            for index in range(0, len(closes), 64):
                for response in pool.handle_batch(closes[index:index + 64]):
                    assert response.get("ok") == "closed", response
                    verdicts[response["stream"]] = response["verdicts"]
        return best, verdicts
    finally:
        pool.close()


def test_shard_fanout(benchmark):
    """Sharded ingestion: verdict parity always, scaling where cores exist."""
    fleet = build_fleet(SHARD_STREAMS, families=SERVE_FAMILIES)
    total_states = sum(len(rows) for _, rows in fleet)
    frames = interleaved_append_frames(fleet, BATCH)
    cores = os.cpu_count() or 1

    def sweep():
        single_s, single_verdicts = _drive_pool(1, fleet, frames, rounds=ROUNDS)
        sharded_s, sharded_verdicts = _drive_pool(
            SHARDS, fleet, frames, rounds=ROUNDS
        )
        assert sharded_verdicts == single_verdicts
        return {
            "streams": len(fleet),
            "states": total_states,
            "batch": BATCH,
            "shards": SHARDS,
            "cores": cores,
            "single_worker_states_per_second": round(total_states / single_s),
            "sharded_states_per_second": round(total_states / sharded_s),
            "shard_speedup": round(single_s / sharded_s, 2),
        }

    row = benchmark.pedantic(sweep, rounds=1, iterations=1)
    benchmark.extra_info["row"] = row
    print()
    print(row)

    # Routing + pipe overhead must stay bounded on any machine; an actual
    # speedup is only physics when there are cores to fan out onto, so the
    # scaling gate is opt-in (the nightly multi-core runner sets it).
    # With batches encoded once per worker (outside the pipe locks) the
    # sharded path must retain >= 0.9x single-worker throughput even on a
    # single core — pure routing overhead, no fan-out credit.
    assert row["shard_speedup"] >= 0.9, row
    if os.environ.get("BENCH_SERVE_REQUIRE_SCALING") == "1" and cores >= 2:
        assert row["shard_speedup"] >= 1.15, row
    record_point("serve-shards-v1", row)
