"""Chunked multiprocessing fan-out for large checking campaigns.

``Session.check_many`` hands a prepared request list here when asked for
worker processes.  The batch is split into contiguous chunks (preserving
order), each worker materializes its own :class:`~repro.api.session.Session`
and runs a chunk serially, and the results are re-concatenated in request
order.  Workers share nothing: each compiles the plans its chunk needs
into its own in-memory plan cache, and every request binds its own state
to its trace.  Each worker's :mod:`repro.obs` registry snapshot rides
home with its chunk, and the parent session merges it into its own
registry on join.
"""

from __future__ import annotations

import multiprocessing
from typing import Any, Dict, List, Optional, Sequence, Tuple

from ..semantics.trace import Trace
from .request import CheckRequest
from .result import CheckResult

__all__ = ["run_chunked", "split_chunks"]


def _prepare_columns(requests: Sequence[CheckRequest]) -> None:
    """Build each distinct trace's column store once before pickling.

    Traces pickle as their dictionary-encoded columns (never as
    materialized ``State`` rows), so forcing the build here means every
    chunk that shares a trace ships the same already-encoded payload and
    no worker pays the encoding pass again — the columns are the wire
    format, handed to workers as-is.
    """
    seen = set()
    for request in requests:
        trace = request.trace
        if isinstance(trace, Trace) and id(trace) not in seen:
            seen.add(id(trace))
            trace.columns  # noqa: B018 — property builds and caches the store


def split_chunks(
    requests: Sequence[CheckRequest], chunk_count: int, chunk_size: Optional[int] = None
) -> List[List[CheckRequest]]:
    """Split ``requests`` into order-preserving chunks.

    Without an explicit ``chunk_size``, aims at one chunk per worker (never
    more chunks than requests).
    """
    total = len(requests)
    if chunk_size is None:
        chunk_size = max(1, (total + chunk_count - 1) // chunk_count)
    if chunk_size < 1:
        raise ValueError(f"chunk_size must be at least 1, got {chunk_size}")
    return [list(requests[i : i + chunk_size]) for i in range(0, total, chunk_size)]


def _run_chunk(
    requests: List[CheckRequest],
) -> Tuple[List[CheckResult], Dict[str, Any]]:
    # A fresh session per worker: plans are shared within the chunk, never
    # across processes.  The worker session carries its own
    # MetricsRegistry; its snapshot rides home with the chunk and the
    # parent merges it on join.
    from .session import Session

    session = Session()
    results = [session._run(request) for request in requests]
    return results, session.metrics.snapshot()


def run_chunked(
    requests: Sequence[CheckRequest],
    processes: int,
    chunk_size: Optional[int] = None,
    metrics_sink: Optional[List[Dict[str, Any]]] = None,
) -> List[CheckResult]:
    """Run ``requests`` over ``processes`` workers; results in request order.

    ``metrics_sink`` (a list) collects one
    :meth:`~repro.obs.MetricsRegistry.snapshot` per worker chunk, in chunk
    order, ready for ``merge_snapshot`` into the parent registry.
    """
    chunks = split_chunks(requests, processes, chunk_size)
    if len(chunks) <= 1:
        chunk_results = [_run_chunk(list(requests))]
    else:
        _prepare_columns(requests)
        context = multiprocessing.get_context()
        with context.Pool(processes=min(processes, len(chunks))) as pool:
            chunk_results = pool.map(_run_chunk, chunks)
    if metrics_sink is not None:
        metrics_sink.extend(metrics for _, metrics in chunk_results)
    return [result for results, _ in chunk_results for result in results]
