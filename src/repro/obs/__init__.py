"""repro.obs — unified metrics, tracing and profiling.

One observability layer for the whole stack, replacing the patchwork of
ad-hoc stats surfaces that grew alongside it:

==============================================  ==================================
Legacy surface                                  repro.obs replacement
==============================================  ==================================
``Session.cache_statistics()``                  ``Session.metrics_snapshot()``
                                                (``repro_plan_cache_*`` series)
``Monitor.step_costs`` / ``last_step_cost``     ``serve_step_cost`` histogram
``StreamRegistry.service_snapshot()`` counters  ``serve_*`` labelled series
``PlanStats`` per-state counters                ``PlanProfiler`` kind attribution
==============================================  ==================================

The legacy surfaces all still work — tests and tools depend on them — but
new telemetry should go through a :class:`MetricsRegistry`.

Three pieces:

* :mod:`repro.obs.metrics` — labelled counters/gauges/histograms with
  snapshot/merge/diff semantics and Prometheus-text + JSON exposition;
* :mod:`repro.obs.tracing` — nested wall/CPU spans in a bounded buffer;
* :mod:`repro.obs.profile` — an opt-in sampling profiler attributing
  plan-runtime time to node kinds (forall / event-search / bitset-kernel
  / fallback).
"""

from .metrics import (
    DEFAULT_SECONDS_BUCKETS,
    DEFAULT_SIZE_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    NullMetrics,
    NULL_METRICS,
    diff_snapshots,
    merge_snapshots,
    snapshot_quantile,
    to_json,
    to_prometheus_text,
)
from .profile import PlanProfiler
from .tracing import NullTracer, NULL_TRACER, Span, Tracer

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NullMetrics",
    "NULL_METRICS",
    "DEFAULT_SECONDS_BUCKETS",
    "DEFAULT_SIZE_BUCKETS",
    "merge_snapshots",
    "diff_snapshots",
    "snapshot_quantile",
    "to_json",
    "to_prometheus_text",
    "Span",
    "Tracer",
    "NullTracer",
    "NULL_TRACER",
    "PlanProfiler",
]
