"""Process-local metrics: labelled counters, gauges and fixed-bucket histograms.

A :class:`MetricsRegistry` is the one telemetry surface every layer of the
stack writes into — :class:`~repro.api.session.Session` checks, the
``check_many`` worker fan-out, :class:`~repro.checking.monitor.Monitor`
streams behind :mod:`repro.serve`, and the shard pool.  Three instrument
kinds, all labelled:

* **counters** — monotone totals (``repro_checks_total{engine="compiled"}``);
* **gauges** — set-to-current values (open stream counts, cache sizes);
* **histograms** — fixed-bucket distributions with a running sum/count
  (check latencies, batch sizes, per-batch step costs) and a
  :meth:`HistogramChild.quantile` estimator.

The design centre is **snapshot/merge**: :meth:`MetricsRegistry.snapshot`
produces a plain JSON-safe dict, and :func:`merge_snapshots` adds two
snapshots series-by-series (counters, histogram buckets and gauges all
sum — the cross-worker aggregation rule, i.e. Prometheus ``sum()``).
Worker processes ship their snapshot to the parent on join and the parent
folds it in with :meth:`MetricsRegistry.merge_snapshot` — merging is
associative and commutative over counter series, so fan-out order cannot
change the totals.

Two exposition encoders: the snapshot itself *is* the JSON form (it round-
trips through ``json.dumps``), and :func:`to_prometheus_text` renders the
Prometheus text format (``# HELP`` / ``# TYPE`` headers, label sets,
cumulative ``_bucket{le=...}`` series) for scrape endpoints.

Everything is process-local and relies on the GIL for increment atomicity
— there are no locks on the hot path.  ``NULL_METRICS`` is a shared no-op
registry: hand it to any instrumented component to measure the
uninstrumented baseline (``benchmarks/bench_obs.py`` gates the overhead).
"""

from __future__ import annotations

import json
import math
from bisect import bisect_left
from typing import Any, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

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
    "to_prometheus_text",
    "to_json",
]


#: Latency buckets (seconds): 50µs .. 10s, roughly 3 per decade.  Fixed
#: buckets keep snapshots mergeable across processes by plain addition.
DEFAULT_SECONDS_BUCKETS = (
    0.00005, 0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01,
    0.025, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0,
)

#: Size/count buckets: batch sizes, step costs, memo growth.
DEFAULT_SIZE_BUCKETS = (
    1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024, 4096, 16384, 65536,
)


class _Child:
    """One labelled series of an instrument (the hot-path handle)."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0


class CounterChild(_Child):
    __slots__ = ()

    def inc(self, amount: float = 1) -> None:
        self.value += amount


class GaugeChild(_Child):
    __slots__ = ()

    def set(self, value: float) -> None:
        self.value = value

    def inc(self, amount: float = 1) -> None:
        self.value += amount

    def dec(self, amount: float = 1) -> None:
        self.value -= amount


class HistogramChild:
    """One labelled histogram series: fixed buckets + running sum/count."""

    __slots__ = ("bounds", "buckets", "sum", "count")

    def __init__(self, bounds: Tuple[float, ...]) -> None:
        self.bounds = bounds
        # buckets[i] counts observations <= bounds[i]; the implicit +Inf
        # bucket is buckets[len(bounds)].  Stored non-cumulative so merge
        # is element-wise addition; the text encoder accumulates.
        self.buckets = [0] * (len(bounds) + 1)
        self.sum = 0.0
        self.count = 0

    def observe(self, value: float) -> None:
        self.buckets[bisect_left(self.bounds, value)] += 1
        self.sum += value
        self.count += 1

    def quantile(self, q: float) -> float:
        """Estimated q-quantile (0..1), interpolated inside its bucket.

        Exact enough for operational dashboards — resolution is the bucket
        grid.  Returns 0.0 on an empty series; values in the +Inf bucket
        clamp to the largest finite bound.
        """
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile must be in [0, 1], got {q}")
        if self.count == 0:
            return 0.0
        rank = q * self.count
        seen = 0
        for index, bucket in enumerate(self.buckets):
            if bucket == 0:
                continue
            if seen + bucket >= rank:
                hi = self.bounds[index] if index < len(self.bounds) else self.bounds[-1]
                lo = self.bounds[index - 1] if 0 < index <= len(self.bounds) else 0.0
                if index >= len(self.bounds):
                    return float(hi)
                fraction = (rank - seen) / bucket
                return float(lo + (hi - lo) * min(1.0, max(0.0, fraction)))
            seen += bucket
        return float(self.bounds[-1])


class _Instrument:
    """Shared shell: name, help text, label names, labelled children."""

    kind = "?"

    def __init__(self, name: str, help: str, labels: Sequence[str] = ()) -> None:
        self.name = name
        self.help = help
        self.label_names = tuple(labels)
        self._children: Dict[Tuple[str, ...], Any] = {}

    def _new_child(self) -> Any:
        raise NotImplementedError

    def child(self, *label_values: str):
        """The series for these label values (created on first use)."""
        if len(label_values) != len(self.label_names):
            raise ValueError(
                f"{self.name} takes labels {self.label_names}, "
                f"got {label_values!r}"
            )
        key = tuple(str(v) for v in label_values)
        series = self._children.get(key)
        if series is None:
            series = self._new_child()
            self._children[key] = series
        return series

    def labels(self, **labels: str):
        """Keyword form of :meth:`child` (order-insensitive)."""
        try:
            return self.child(*(labels[name] for name in self.label_names))
        except KeyError as exc:
            raise ValueError(
                f"{self.name} takes labels {self.label_names}, got "
                f"{sorted(labels)}"
            ) from None

    def series(self) -> Dict[Tuple[str, ...], Any]:
        return dict(self._children)


class Counter(_Instrument):
    kind = "counter"

    def _new_child(self) -> CounterChild:
        return CounterChild()

    def inc(self, amount: float = 1, *label_values: str) -> None:
        self.child(*label_values).inc(amount)

    def value(self, *label_values: str) -> float:
        return self.child(*label_values).value

    def total(self) -> float:
        """The sum over every label set (0 before any increment)."""
        return sum(child.value for child in self._children.values())


class Gauge(_Instrument):
    kind = "gauge"

    def _new_child(self) -> GaugeChild:
        return GaugeChild()

    def set(self, value: float, *label_values: str) -> None:
        self.child(*label_values).set(value)

    def value(self, *label_values: str) -> float:
        return self.child(*label_values).value


class Histogram(_Instrument):
    kind = "histogram"

    def __init__(
        self,
        name: str,
        help: str,
        labels: Sequence[str] = (),
        buckets: Sequence[float] = DEFAULT_SECONDS_BUCKETS,
    ) -> None:
        super().__init__(name, help, labels)
        bounds = tuple(float(b) for b in buckets)
        if not bounds or list(bounds) != sorted(set(bounds)):
            raise ValueError(
                f"{name}: buckets must be a non-empty strictly increasing "
                f"sequence, got {buckets!r}"
            )
        if any(math.isinf(b) for b in bounds):
            raise ValueError(f"{name}: the +Inf bucket is implicit")
        self.bounds = bounds

    def _new_child(self) -> HistogramChild:
        return HistogramChild(self.bounds)

    def observe(self, value: float, *label_values: str) -> None:
        self.child(*label_values).observe(value)


class MetricsRegistry:
    """All instruments of one process (or one worker, or one shard).

    ``counter`` / ``gauge`` / ``histogram`` are *get-or-create*: asking for
    an existing name returns the existing instrument (so layers can
    declare the series they write without coordinating), and asking with a
    conflicting kind or label set raises — one name, one meaning.
    """

    def __init__(self) -> None:
        self._instruments: Dict[str, _Instrument] = {}

    # -- declaration ---------------------------------------------------------

    def _declare(self, cls, name: str, help: str, labels: Sequence[str], **extra):
        instrument = self._instruments.get(name)
        if instrument is not None:
            if type(instrument) is not cls or instrument.label_names != tuple(labels):
                raise ValueError(
                    f"metric {name!r} already declared as "
                    f"{instrument.kind}{instrument.label_names}, asked for "
                    f"{cls.kind}{tuple(labels)}"
                )
            return instrument
        instrument = cls(name, help, labels, **extra)
        self._instruments[name] = instrument
        return instrument

    def counter(self, name: str, help: str = "", labels: Sequence[str] = ()) -> Counter:
        return self._declare(Counter, name, help, labels)

    def gauge(self, name: str, help: str = "", labels: Sequence[str] = ()) -> Gauge:
        return self._declare(Gauge, name, help, labels)

    def histogram(
        self,
        name: str,
        help: str = "",
        labels: Sequence[str] = (),
        buckets: Sequence[float] = DEFAULT_SECONDS_BUCKETS,
    ) -> Histogram:
        instrument = self._instruments.get(name)
        if isinstance(instrument, Histogram) and instrument.bounds != tuple(
            float(b) for b in buckets
        ):
            raise ValueError(
                f"metric {name!r} already declared with buckets "
                f"{instrument.bounds}"
            )
        return self._declare(Histogram, name, help, labels, buckets=buckets)

    def get(self, name: str) -> Optional[_Instrument]:
        return self._instruments.get(name)

    def names(self) -> Tuple[str, ...]:
        return tuple(sorted(self._instruments))

    # -- snapshot / merge ----------------------------------------------------

    def snapshot(self) -> Dict[str, Any]:
        """Every instrument as one plain JSON-safe dict (label order sorted,
        so two snapshots of identical state are identical objects)."""
        out: Dict[str, Any] = {}
        for name in sorted(self._instruments):
            instrument = self._instruments[name]
            entry: Dict[str, Any] = {
                "type": instrument.kind,
                "help": instrument.help,
                "labels": list(instrument.label_names),
            }
            series = []
            for key in sorted(instrument.series()):
                child = instrument.series()[key]
                if instrument.kind == "histogram":
                    series.append(
                        {
                            "labels": list(key),
                            "buckets": list(child.buckets),
                            "sum": child.sum,
                            "count": child.count,
                        }
                    )
                else:
                    series.append({"labels": list(key), "value": child.value})
            entry["series"] = series
            if instrument.kind == "histogram":
                entry["bounds"] = list(instrument.bounds)
            out[name] = entry
        return out

    def merge_snapshot(self, snapshot: Mapping[str, Any]) -> "MetricsRegistry":
        """Fold a (worker's) snapshot into the live instruments, in place.

        Counters and histogram series add; gauges add too — the merged
        registry answers fleet-level questions ("open streams across all
        shards"), which is a sum.  Instruments unseen here are created
        from the snapshot's declaration.
        """
        for name, entry in snapshot.items():
            kind = entry.get("type")
            labels = tuple(entry.get("labels", ()))
            if kind == "counter":
                instrument = self.counter(name, entry.get("help", ""), labels)
            elif kind == "gauge":
                instrument = self.gauge(name, entry.get("help", ""), labels)
            elif kind == "histogram":
                instrument = self.histogram(
                    name, entry.get("help", ""), labels,
                    buckets=entry.get("bounds", DEFAULT_SECONDS_BUCKETS),
                )
            else:
                raise ValueError(f"snapshot entry {name!r} has no known type")
            for row in entry.get("series", ()):
                child = instrument.child(*row.get("labels", ()))
                if kind == "histogram":
                    incoming = row.get("buckets", ())
                    if len(incoming) != len(child.buckets):
                        raise ValueError(
                            f"{name}: bucket grids differ, cannot merge"
                        )
                    for index, count in enumerate(incoming):
                        child.buckets[index] += count
                    child.sum += row.get("sum", 0.0)
                    child.count += row.get("count", 0)
                else:
                    child.value += row.get("value", 0)
        return self

    def clear(self) -> "MetricsRegistry":
        self._instruments.clear()
        return self


class NullMetrics(MetricsRegistry):
    """A registry whose instruments discard every write.

    The uninstrumented baseline: components take any registry, and handing
    them :data:`NULL_METRICS` removes all recording work except one no-op
    call per site — what ``bench_obs.py`` measures the overhead against.
    """

    class _NullSeries:
        __slots__ = ()
        value = 0
        sum = 0.0
        count = 0
        buckets: List[int] = []

        def inc(self, amount: float = 1) -> None:
            pass

        def dec(self, amount: float = 1) -> None:
            pass

        def set(self, value: float) -> None:
            pass

        def observe(self, value: float) -> None:
            pass

        def quantile(self, q: float) -> float:
            return 0.0

    _SERIES = _NullSeries()

    class _NullInstrument:
        __slots__ = ("kind", "label_names")

        def __init__(self, kind: str) -> None:
            self.kind = kind
            self.label_names = ()

        def child(self, *label_values: str):
            return NullMetrics._SERIES

        def labels(self, **labels: str):
            return NullMetrics._SERIES

        def series(self) -> Dict[Tuple[str, ...], Any]:
            return {}

        def total(self) -> float:
            return 0

        def inc(self, amount: float = 1, *label_values: str) -> None:
            pass

        def set(self, value: float, *label_values: str) -> None:
            pass

        def observe(self, value: float, *label_values: str) -> None:
            pass

    def __init__(self) -> None:
        super().__init__()
        self._null = {
            "counter": NullMetrics._NullInstrument("counter"),
            "gauge": NullMetrics._NullInstrument("gauge"),
            "histogram": NullMetrics._NullInstrument("histogram"),
        }

    def counter(self, name, help="", labels=()):  # type: ignore[override]
        return self._null["counter"]

    def gauge(self, name, help="", labels=()):  # type: ignore[override]
        return self._null["gauge"]

    def histogram(self, name, help="", labels=(), buckets=DEFAULT_SECONDS_BUCKETS):  # type: ignore[override]
        return self._null["histogram"]

    def snapshot(self) -> Dict[str, Any]:
        return {}

    def merge_snapshot(self, snapshot) -> "MetricsRegistry":
        return self


#: The shared no-op registry (stateless, safe to hand to anything).
NULL_METRICS = NullMetrics()


# -- snapshot algebra ---------------------------------------------------------


def merge_snapshots(*snapshots: Mapping[str, Any]) -> Dict[str, Any]:
    """Add snapshots series-by-series (associative + commutative).

    The shard pool's aggregation: every counter, gauge and histogram
    bucket sums, so the merged snapshot reads as one fleet-wide registry.
    """
    merged = MetricsRegistry()
    for snapshot in snapshots:
        merged.merge_snapshot(snapshot)
    return merged.snapshot()


def snapshot_quantile(entry: Mapping[str, Any], q: float) -> float:
    """Estimated q-quantile of a snapshot histogram entry (all series
    pooled) — what ``python -m repro.serve stats`` prints."""
    bounds = tuple(entry.get("bounds", ()))
    pooled = HistogramChild(bounds) if bounds else None
    if pooled is None:
        return 0.0
    for row in entry.get("series", ()):
        for index, count in enumerate(row.get("buckets", ())):
            pooled.buckets[index] += count
        pooled.count += row.get("count", 0)
        pooled.sum += row.get("sum", 0.0)
    return pooled.quantile(q)


# -- exposition ---------------------------------------------------------------


def to_json(snapshot: Mapping[str, Any], indent: Optional[int] = None) -> str:
    """The JSON exposition (snapshots are already JSON-safe)."""
    return json.dumps(snapshot, indent=indent, sort_keys=True)


def _format_value(value: Any) -> str:
    if isinstance(value, float) and value == int(value) and abs(value) < 1e15:
        return str(int(value))
    return repr(float(value)) if isinstance(value, float) else str(value)


def _label_str(names: Iterable[str], values: Iterable[str], extra: str = "") -> str:
    parts = [
        f'{name}="{str(value).replace(chr(92), chr(92) * 2).replace(chr(34), chr(92) + chr(34))}"'
        for name, value in zip(names, values)
    ]
    if extra:
        parts.append(extra)
    return "{" + ",".join(parts) + "}" if parts else ""


def to_prometheus_text(snapshot: Mapping[str, Any]) -> str:
    """The Prometheus text exposition format of a snapshot.

    Histograms render cumulative ``_bucket{le=...}`` series (the wire
    convention) from the non-cumulative stored counts, plus ``_sum`` and
    ``_count``.
    """
    lines: List[str] = []
    for name in sorted(snapshot):
        entry = snapshot[name]
        kind = entry.get("type", "untyped")
        help_text = entry.get("help", "")
        if help_text:
            lines.append(f"# HELP {name} {help_text}")
        lines.append(f"# TYPE {name} {kind}")
        label_names = entry.get("labels", ())
        for row in entry.get("series", ()):
            values = row.get("labels", ())
            if kind == "histogram":
                bounds = entry.get("bounds", ())
                running = 0
                for bound, count in zip(
                    list(bounds) + ["+Inf"], row.get("buckets", ())
                ):
                    running += count
                    le = _format_value(bound) if bound != "+Inf" else "+Inf"
                    labels = _label_str(label_names, values, f'le="{le}"')
                    lines.append(f"{name}_bucket{labels} {running}")
                labels = _label_str(label_names, values)
                lines.append(f"{name}_sum{labels} {_format_value(row.get('sum', 0.0))}")
                lines.append(f"{name}_count{labels} {row.get('count', 0)}")
            else:
                labels = _label_str(label_names, values)
                lines.append(f"{name}{labels} {_format_value(row.get('value', 0))}")
    return "\n".join(lines) + ("\n" if lines else "")
