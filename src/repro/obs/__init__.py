"""repro.obs — unified metrics and tracing.

One observability layer for the whole stack.  The numbers the monitor and
serve layers report live in a :class:`MetricsRegistry`, once each; the
other stats surfaces are views of it, or read counters of their own layer
that no series duplicates:

================================================  ==================================
Surface                                           Where its numbers live
================================================  ==================================
``Session.cache_statistics()``                    the plan cache; synced into
                                                  ``repro_plan_cache_*`` gauges by
                                                  ``Session.metrics_snapshot()``
``StreamRegistry.service_snapshot()`` totals      sums of the ``serve_*`` counters
a stream snapshot's ``step_cost`` block           the commit costs that
                                                  ``serve_step_cost`` observes
``PlanStats`` (``dispatch_calls``,                one plan state's work counters
``event_searches``)
================================================  ==================================

Two pieces:

* :mod:`repro.obs.metrics` — labelled counters/gauges/histograms with
  snapshot/merge semantics and Prometheus-text + JSON exposition;
* :mod:`repro.obs.tracing` — nested wall/CPU spans in a bounded buffer.
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
    merge_snapshots,
    snapshot_quantile,
    to_json,
    to_prometheus_text,
)
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
    "snapshot_quantile",
    "to_json",
    "to_prometheus_text",
    "Span",
    "Tracer",
    "NullTracer",
    "NULL_TRACER",
]
