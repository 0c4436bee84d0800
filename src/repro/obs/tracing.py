"""Lightweight nested spans with wall/CPU timings.

A :class:`Tracer` records where time goes *structurally*: each
:meth:`Tracer.span` context manager opens a :class:`Span`, nests under
whatever span is already open on this thread, and on exit captures both
wall time (``perf_counter``) and process CPU time (``process_time``).
Finished **root** spans land in a bounded ring buffer (oldest evicted),
so a long-lived :class:`~repro.api.session.Session` or serve process can
always answer "what did the last N checks spend their time on" without
unbounded growth.

This is deliberately not a distributed tracer — no IDs, no propagation,
no exporters.  Spans are plain objects; :meth:`Tracer.spans` exports the
buffer as JSON-safe dicts for in-process inspection (no serve frame
carries spans).  The per-span cost is two clock reads and a list append,
cheap enough to leave on for every ``Session.check`` call.

``NULL_TRACER`` is the no-op twin (same API, records nothing) used for
uninstrumented baselines, mirroring ``NULL_METRICS``.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from typing import Any, Deque, Dict, Iterator, List, Optional, Tuple

__all__ = ["Span", "Tracer", "NullTracer", "NULL_TRACER"]

DEFAULT_SPAN_BUFFER = 256


class Span:
    """One timed region.  ``attrs`` may be amended while the span is open
    (engines record their dispatch reason after selection, for example)."""

    __slots__ = ("name", "attrs", "children", "wall_s", "cpu_s", "_wall0", "_cpu0")

    def __init__(self, name: str, attrs: Optional[Dict[str, Any]] = None) -> None:
        self.name = name
        self.attrs: Dict[str, Any] = dict(attrs) if attrs else {}
        self.children: List["Span"] = []
        self.wall_s = 0.0
        self.cpu_s = 0.0
        self._wall0 = 0.0
        self._cpu0 = 0.0

    def _start(self) -> None:
        self._wall0 = time.perf_counter()
        self._cpu0 = time.process_time()

    def _finish(self) -> None:
        self.wall_s = time.perf_counter() - self._wall0
        self.cpu_s = time.process_time() - self._cpu0

    def set(self, **attrs: Any) -> "Span":
        self.attrs.update(attrs)
        return self

    def to_dict(self) -> Dict[str, Any]:
        out: Dict[str, Any] = {
            "name": self.name,
            "wall_s": self.wall_s,
            "cpu_s": self.cpu_s,
        }
        if self.attrs:
            out["attrs"] = dict(self.attrs)
        if self.children:
            out["children"] = [child.to_dict() for child in self.children]
        return out

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Span({self.name!r}, wall={self.wall_s:.6f}s, children={len(self.children)})"


class _SpanContext:
    __slots__ = ("_tracer", "_span")

    def __init__(self, tracer: "Tracer", span: Span) -> None:
        self._tracer = tracer
        self._span = span

    def __enter__(self) -> Span:
        self._tracer._push(self._span)
        self._span._start()
        return self._span

    def __exit__(self, exc_type, exc, tb) -> None:
        self._span._finish()
        if exc_type is not None:
            self._span.attrs.setdefault("error", exc_type.__name__)
        self._tracer._pop(self._span)


class Tracer:
    """Per-thread span stacks feeding one bounded root-span buffer."""

    def __init__(self, max_spans: int = DEFAULT_SPAN_BUFFER) -> None:
        self._roots: Deque[Span] = deque(maxlen=max_spans)
        self._local = threading.local()
        self.started = 0
        self.finished = 0

    @property
    def max_spans(self) -> int:
        return self._roots.maxlen or 0

    def _stack(self) -> List[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def span(self, name: str, **attrs: Any) -> _SpanContext:
        """Open a span: ``with tracer.span("check", engine="compiled") as s:``"""
        return _SpanContext(self, Span(name, attrs))

    def _push(self, span: Span) -> None:
        stack = self._stack()
        if stack:
            stack[-1].children.append(span)
        stack.append(span)
        self.started += 1

    def _pop(self, span: Span) -> None:
        stack = self._stack()
        # Tolerate misnested exits rather than corrupting the stack.
        while stack:
            top = stack.pop()
            if top is span:
                break
        self.finished += 1
        if not stack:
            self._roots.append(span)

    def current(self) -> Optional[Span]:
        stack = self._stack()
        return stack[-1] if stack else None

    def roots(self) -> Tuple[Span, ...]:
        return tuple(self._roots)

    def spans(self, limit: Optional[int] = None) -> List[Dict[str, Any]]:
        """The newest finished root spans as JSON-safe dicts (newest last)."""
        roots = list(self._roots)
        if limit is not None:
            roots = roots[-limit:]
        return [span.to_dict() for span in roots]

    def clear(self) -> None:
        self._roots.clear()

    def __iter__(self) -> Iterator[Span]:
        return iter(tuple(self._roots))


class NullTracer(Tracer):
    """Records nothing; ``span()`` yields a shared throwaway span."""

    class _NullContext:
        __slots__ = ()
        _SPAN = Span("null")

        def __enter__(self) -> Span:
            return self._SPAN

        def __exit__(self, exc_type, exc, tb) -> None:
            pass

    _CONTEXT = _NullContext()

    def __init__(self) -> None:
        super().__init__(max_spans=1)

    def span(self, name: str, **attrs: Any):  # type: ignore[override]
        return NullTracer._CONTEXT

    def spans(self, limit: Optional[int] = None) -> List[Dict[str, Any]]:
        return []


#: Shared no-op tracer for uninstrumented baselines.
NULL_TRACER = NullTracer()
