"""The ``python -m repro.serve`` command line.

Four subcommands::

    python -m repro.serve serve [--host H] [--port P] [--shards N]
        [--stat-window N] [--metrics-port P]
    python -m repro.serve loadgen [--host H] [--port P | --self-host [--shards N]]
        [--streams N] [--rate STATES_PER_SEC] [--fault-rate F]
        [--batch B] [--seed S] [--connections C]
    python -m repro.serve replay [PATH ...] [--batch B]
    python -m repro.serve stats [--host H] [--port P] [--interval S] [--json]

``serve`` runs the monitoring service until interrupted; with
``--metrics-port`` it also answers Prometheus text scrapes on that port.
``loadgen`` drives a seeded fleet of simulated-system streams against a
service — its own ephemeral one under ``--self-host`` — and exits
non-zero if any *correct* stream ends failing or any fault-injected
stream goes undetected.  ``replay`` pushes the regression corpus through
the wire codec and exits non-zero on any divergence from the one-shot
engines.  ``stats`` samples a live service's ``metrics`` frame twice,
``--interval`` seconds apart, and prints the aggregated fleet picture:
open streams, ingest rate, alerts, error frames, plan-cache hits and
alpha-equivalent hits, step-cost and batch-size quantiles.
"""

from __future__ import annotations

import argparse
import asyncio
import sys
from typing import List, Optional

from ..gen.corpus import DEFAULT_CORPUS_DIR


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.serve",
        description="A sharded monitoring service for concurrent incremental streams.",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    serve_cmd = commands.add_parser("serve", help="run the monitoring service")
    serve_cmd.add_argument("--host", default="127.0.0.1")
    serve_cmd.add_argument("--port", type=int, default=9178)
    serve_cmd.add_argument("--shards", type=int, default=0,
                           help="shard streams over N worker processes "
                                "(0/1: one in-process registry)")
    serve_cmd.add_argument("--stat-window", type=int, default=256,
                           help="commits whose step costs a stream "
                                "snapshot's window covers")
    serve_cmd.add_argument("--metrics-port", type=int, default=None, metavar="P",
                           help="also serve Prometheus text metrics on this port")

    load_cmd = commands.add_parser("loadgen", help="drive a generated stream fleet")
    load_cmd.add_argument("--host", default="127.0.0.1")
    load_cmd.add_argument("--port", type=int, default=9178)
    load_cmd.add_argument("--self-host", action="store_true",
                          help="spin up an ephemeral service in this process")
    load_cmd.add_argument("--shards", type=int, default=0,
                          help="shards for --self-host")
    load_cmd.add_argument("--streams", type=int, default=100)
    load_cmd.add_argument("--rate", type=float, default=0.0, metavar="STATES_PER_SEC",
                          help="aggregate pacing target (0: unpaced)")
    load_cmd.add_argument("--fault-rate", type=float, default=0.2)
    load_cmd.add_argument("--batch", type=int, default=16,
                          help="states per append frame")
    load_cmd.add_argument("--seed", type=int, default=0)
    load_cmd.add_argument("--connections", type=int, default=4)

    replay_cmd = commands.add_parser(
        "replay", help="replay the corpus through the wire protocol"
    )
    replay_cmd.add_argument("paths", nargs="*", default=None,
                            help=f"corpus files or directories "
                                 f"(default: {DEFAULT_CORPUS_DIR})")
    replay_cmd.add_argument("--batch", type=int, default=16,
                            help="states per append frame")

    stats_cmd = commands.add_parser(
        "stats", help="sample a live service's aggregated fleet metrics"
    )
    stats_cmd.add_argument("--host", default="127.0.0.1")
    stats_cmd.add_argument("--port", type=int, default=9178)
    stats_cmd.add_argument("--interval", type=float, default=1.0,
                           help="seconds between the two samples the rate "
                                "window spans (0: single sample, no rates)")
    stats_cmd.add_argument("--json", action="store_true",
                           help="print the raw metrics snapshot as JSON")
    return parser


def _cmd_serve(args: argparse.Namespace) -> int:
    from .service import MonitorService

    service = MonitorService(shards=args.shards, stat_window=args.stat_window)

    async def _run() -> None:
        if args.metrics_port is not None:
            metrics_host, metrics_port = await service.start_metrics_endpoint(
                args.host, args.metrics_port
            )
            print(f"metrics (Prometheus text) on {metrics_host}:{metrics_port}")
        await service.serve_forever(args.host, args.port)

    try:
        asyncio.run(_run())
    except KeyboardInterrupt:
        print("interrupted; shutting down")
    finally:
        service.close()
    return 0


def _cmd_loadgen(args: argparse.Namespace) -> int:
    from .client import run_load
    from .service import MonitorService

    async def _run():
        service = None
        host, port = args.host, args.port
        try:
            if args.self_host:
                service = MonitorService(shards=args.shards)
                host, port = await service.start(args.host, 0)
                backend = (
                    f"{args.shards} shards" if args.shards > 1
                    else "in-process registry"
                )
                print(f"self-hosting on {host}:{port} ({backend})")
            report = await run_load(
                host,
                port,
                streams=args.streams,
                states_per_second=args.rate,
                fault_rate=args.fault_rate,
                batch=args.batch,
                seed=args.seed,
                connections=args.connections,
            )
        finally:
            if service is not None:
                await service.stop()
                service.close()
        return report

    report = asyncio.run(_run())
    print(report.summary())
    missed = sorted(set(report.expected_failing) - set(report.failing_streams))
    spurious = sorted(set(report.failing_streams) - set(report.expected_failing))
    if missed:
        # Informational: an injected fault is a *chance* to violate the
        # spec; some seeds reorder into an order that happens to be legal.
        print(f"fault injected but not manifested: {', '.join(missed)}")
    if spurious:
        # Hard failure: the correct simulators satisfy their specs by
        # construction, so a failing correct stream is a monitoring bug.
        print(f"SPURIOUS failures on correct streams: {', '.join(spurious)}")
        return 1
    print("no spurious failures; "
          f"{len(report.expected_failing) - len(missed)} manifested fault(s) detected")
    return 0


def _cmd_replay(args: argparse.Namespace) -> int:
    from .replay import replay_corpus

    report = replay_corpus(paths=args.paths or None, batch=args.batch)
    print(f"serve replay: {report.summary()}")
    for disagreement in report.disagreements:
        print(f"DISAGREEMENT {disagreement.describe()}")
    return 0 if report.ok else 1


def _series_total(snapshot, name: str) -> float:
    """A counter's or gauge's value summed over its label sets."""
    entry = snapshot.get(name)
    if not entry:
        return 0
    return sum(row.get("value", 0) for row in entry.get("series", ()))


def _counter_by_label(snapshot, name: str):
    entry = snapshot.get(name)
    if not entry:
        return {}
    return {
        "/".join(row.get("labels", ())) or "-": row.get("value", 0)
        for row in entry.get("series", ())
    }


def _cmd_stats(args: argparse.Namespace) -> int:
    from ..obs import snapshot_quantile, to_json
    from .client import ServeClient

    async def _sample():
        client = await ServeClient.connect(args.host, args.port)
        try:
            first = await client.metrics()
            if args.interval > 0:
                await asyncio.sleep(args.interval)
                second = await client.metrics()
            else:
                second = first
        finally:
            await client.close()
        return first, second

    try:
        first, snapshot = asyncio.run(_sample())
    except (ConnectionError, OSError) as exc:
        print(f"cannot reach {args.host}:{args.port}: {exc}", file=sys.stderr)
        return 1

    if args.json:
        print(to_json(snapshot, indent=2))
        return 0

    open_streams = _series_total(snapshot, "serve_streams_open")
    states = _series_total(snapshot, "serve_states_ingested_total")
    alerts = _series_total(snapshot, "serve_alerts_total")
    errors = _series_total(snapshot, "serve_errors_total")
    rate = ""
    if args.interval > 0:
        delta = states - _series_total(first, "serve_states_ingested_total")
        rate = f"  ({delta / args.interval:,.0f} states/s over {args.interval:g}s)"
    print(f"streams open:     {open_streams:,.0f}")
    print(f"states ingested:  {states:,.0f}{rate}")
    print(f"alerts emitted:   {alerts:,.0f}")
    print(f"error frames:     {errors:,.0f}")
    opened = _counter_by_label(snapshot, "serve_streams_opened_total")
    if opened:
        families = ", ".join(f"{k}={v:,.0f}" for k, v in sorted(opened.items()))
        print(f"opened by family: {families}")
    # Every monitor opened and every check counts its plan request here: a
    # hit when the session's identity map or its plan LRU serves the plan,
    # a miss when it compiles.  The LRU's own gauges miss the warm opens,
    # which the identity map answers without reaching the LRU.
    if "repro_plan_requests_total" in snapshot:
        requests = _counter_by_label(snapshot, "repro_plan_requests_total")
        hits, misses = requests.get("hit", 0), requests.get("miss", 0)
        print(f"plan cache:       hits={hits:,.0f} misses={misses:,.0f}")
    alpha = _series_total(snapshot, "repro_plan_alpha_interned")
    if alpha:
        print(f"interned plans:   alpha-equivalent hits={alpha:,.0f}")
    for metric, label in (
        ("serve_step_cost", "step cost"),
        ("serve_batch_states", "batch states"),
    ):
        entry = snapshot.get(metric)
        if entry and any(row.get("count") for row in entry.get("series", ())):
            q50 = snapshot_quantile(entry, 0.5)
            q95 = snapshot_quantile(entry, 0.95)
            q99 = snapshot_quantile(entry, 0.99)
            print(f"{label + ':':<18}p50={q50:g} p95={q95:g} p99={q99:g}")
    framing_poisoned = _series_total(snapshot, "serve_framing_poisoned_total")
    if framing_poisoned:
        resyncs = _series_total(snapshot, "serve_framing_resyncs_total")
        print(f"framing:          {framing_poisoned:,.0f} poisoned lines, "
              f"{resyncs:,.0f} resyncs")
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    if args.command == "serve":
        return _cmd_serve(args)
    if args.command == "loadgen":
        return _cmd_loadgen(args)
    if args.command == "stats":
        return _cmd_stats(args)
    return _cmd_replay(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
