"""Lightweight span tracing over simulated time.

A :class:`Tracer` records named spans — intervals of *simulated* time
with arbitrary attributes and parent/child nesting — so an end-to-end
flow (publish courseware → download → present) can be decomposed into
the per-layer intervals the thesis's measurement chapter tabulates.

Cross-component requests are stitched together with a
:class:`TraceContext` — a ``(trace_id, span_id)`` pair minted when a
root span opens and carried in transport message headers across sites.
The tracer holds at most one *current* context, managed with explicit
``attach``/``detach`` tokens rather than a stack: each ``attach``
returns the context it displaced, and ``detach`` restores exactly that
snapshot.  Interleaved simulator callbacks can therefore open and
close spans in any order without corrupting each other's parentage —
a span opened outside any attached context is simply a new root.

The clock is injected: the :class:`~repro.atm.simulator.Simulator`
builds the one tracer of a deployment over its own clock, and every
component, the MHEG engine and the navigator included, records into
that tracer.  Tracing defaults to **off** and is zero-cost when disabled:
``span()`` then returns one shared no-op context manager, so the hot
path pays a single attribute test.

Finished spans live in a fixed newest-wins ring of ``MAX_SPANS``.  A
``sink`` callable, when attached, receives every finished
:class:`SpanRecord` as it closes, which is how a streamed archive
keeps every span on disk while memory stays bounded.
"""

from __future__ import annotations

import itertools
import math
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Callable, Deque, Dict, List, Optional

__all__ = ["Span", "SpanRecord", "TraceContext", "Tracer", "NULL_SPAN"]


@dataclass(frozen=True)
class TraceContext:
    """Wire-portable identity of one span within one trace."""

    trace_id: int
    span_id: int

    def to_dict(self) -> Dict[str, int]:
        return {"trace_id": self.trace_id, "span_id": self.span_id}


@dataclass
class SpanRecord:
    """A finished span, as exported."""

    span_id: int
    parent_id: Optional[int]
    trace_id: int
    name: str
    start: float
    end: float
    attrs: Dict[str, Any] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start

    def to_dict(self) -> Dict[str, Any]:
        return {
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "trace_id": self.trace_id,
            "name": self.name,
            "start": self.start,
            "end": self.end,
            "duration": self.duration,
            "attrs": self.attrs,
        }


class _NullSpan:
    """Shared no-op span for a disabled tracer."""

    __slots__ = ()

    #: a disabled span carries no trace identity to propagate
    context = None

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc: Any) -> bool:
        return False

    def set(self, **attrs: Any) -> "_NullSpan":
        return self

    def end(self) -> None:
        pass


NULL_SPAN = _NullSpan()


class Span:
    """An open span; close it with ``end()`` or use it as a context
    manager.  Attributes added with ``set()`` land in the record.

    Entering the span as a context manager attaches its context to the
    tracer (so spans opened inside become children); a bare ``span()``
    call leaves the ambient context untouched.
    """

    __slots__ = ("_tracer", "span_id", "parent_id", "trace_id", "name",
                 "start", "attrs", "_open", "_token", "_attached")

    def __init__(self, tracer: "Tracer", span_id: int,
                 parent_id: Optional[int], trace_id: int, name: str,
                 start: float, attrs: Dict[str, Any]) -> None:
        self._tracer = tracer
        self.span_id = span_id
        self.parent_id = parent_id
        self.trace_id = trace_id
        self.name = name
        self.start = start
        self.attrs = attrs
        self._open = True
        self._token: Optional[TraceContext] = None
        self._attached = False

    @property
    def context(self) -> TraceContext:
        return TraceContext(self.trace_id, self.span_id)

    def set(self, **attrs: Any) -> "Span":
        self.attrs.update(attrs)
        return self

    def end(self) -> None:
        if self._open:
            self._open = False
            if self._attached:
                self._attached = False
                self._tracer.detach(self._token)
                self._token = None
            self._tracer._finish(self)

    def __enter__(self) -> "Span":
        if self._open and not self._attached:
            self._token = self._tracer.attach(self.context)
            self._attached = True
        return self

    def __exit__(self, exc_type: Any, exc: Any, tb: Any) -> bool:
        if exc_type is not None:
            self.attrs.setdefault("error", exc_type.__name__)
        self.end()
        return False


def _quantile(sorted_values: List[float], q: float) -> float:
    """Exact nearest-rank quantile of a pre-sorted sample."""
    idx = max(0, math.ceil(q * len(sorted_values)) - 1)
    return sorted_values[idx]


#: finished spans a tracer keeps; the oldest are evicted first
MAX_SPANS = 10_000


class Tracer:
    """Collects spans against an injected clock; off until its owner
    sets ``enabled``.

    :data:`MAX_SPANS` bounds memory: the oldest finished spans are
    evicted first (the ``dropped`` counter says how many).
    """

    def __init__(self, clock: Callable[[], float]) -> None:
        self.clock = clock
        self.enabled = False
        self.dropped = 0
        self._ids = itertools.count(1)
        self._trace_ids = itertools.count(1)
        self._current: Optional[TraceContext] = None
        self._finished: Deque[SpanRecord] = deque(maxlen=MAX_SPANS)
        #: receives every SpanRecord at finish (the streamed archive)
        self.sink: Optional[Callable[[SpanRecord], None]] = None
        #: OverheadMeter charged per finished span, when attached
        self.meter = None

    # -- context management ----------------------------------------------

    @property
    def current(self) -> Optional[TraceContext]:
        """The attached context new spans will parent to, if any."""
        return self._current

    def attach(self, ctx: Optional[TraceContext]) -> Optional[TraceContext]:
        """Make *ctx* the current context; returns a token (the
        displaced context) to hand back to :meth:`detach`."""
        token = self._current
        self._current = ctx
        return token

    def detach(self, token: Optional[TraceContext]) -> None:
        """Restore the context snapshot returned by :meth:`attach`."""
        self._current = token

    # -- spans -----------------------------------------------------------

    def span(self, name: str, **attrs: Any):
        """Open a span.  Returns the shared no-op span when disabled.

        The parent is the currently attached context; without one, the
        span roots a fresh trace.
        """
        if not self.enabled:
            return NULL_SPAN
        parent = self._current
        if parent is not None:
            trace_id = parent.trace_id
            parent_id: Optional[int] = parent.span_id
        else:
            trace_id = next(self._trace_ids)
            parent_id = None
        return Span(self, next(self._ids), parent_id, trace_id, name,
                    self.clock(), attrs)

    def _finish(self, sp: Span) -> None:
        meter = self.meter
        t0 = meter.now() if meter is not None else 0.0
        rec = SpanRecord(
            span_id=sp.span_id, parent_id=sp.parent_id,
            trace_id=sp.trace_id, name=sp.name, start=sp.start,
            end=self.clock(), attrs=sp.attrs)
        if self.sink is not None:
            self.sink(rec)
        if len(self._finished) == self._finished.maxlen:
            self.dropped += 1
        self._finished.append(rec)
        if meter is not None:
            meter.charge("tracer", t0)

    @property
    def spans(self) -> List[SpanRecord]:
        return list(self._finished)

    def by_trace(self, trace_id: int) -> List[SpanRecord]:
        return [s for s in self.spans if s.trace_id == trace_id]

    def aggregate(self) -> Dict[str, Dict[str, float]]:
        """Per-name duration stats (count/total/min/mean/max/p50/p99)."""
        durations: Dict[str, List[float]] = {}
        for s in self.spans:
            durations.setdefault(s.name, []).append(s.duration)
        agg: Dict[str, Dict[str, float]] = {}
        for name, durs in durations.items():
            durs.sort()
            total = sum(durs)
            agg[name] = {
                "count": len(durs),
                "total": total,
                "min": durs[0],
                "mean": total / len(durs),
                "max": durs[-1],
                "p50": _quantile(durs, 0.5),
                "p99": _quantile(durs, 0.99),
            }
        return agg
