"""Flight recorder: a bounded ring buffer of structured events.

Metrics say *how much*; traces say *how long*; the flight recorder
says *what happened* — typed, severity-tagged events for the rare but
diagnostic occurrences in a run (a cell dropped on a congested link, a
go-back-N retransmission burst, a VC torn down, a video frame arriving
late, an MHEG link firing).  Events carry the trace_id of the request
they belong to when one is known, so a slow span in a trace can be
correlated with the transport-level trouble that caused it.

The buffer is a fixed-capacity ring: recording is O(1), memory is
bounded no matter how pathological the run, and the ``dropped``
counter says how many old events were evicted.  One recorder is owned
by each :class:`~repro.atm.simulator.Simulator` and shared by every
component attached to it.

A ``sink`` callable, when attached, receives every recorded event as
it happens, which is how a streamed archive keeps the events the ring
later evicts while the in-memory window stays bounded.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Any, Callable, Deque, Dict, List, Optional

__all__ = ["FlightEvent", "FlightRecorder", "SEVERITIES"]

#: allowed severity tags, in increasing order of gravity
SEVERITIES = ("debug", "info", "warning", "error")


@dataclass
class FlightEvent:
    """One recorded occurrence."""

    time: float
    component: str
    kind: str
    severity: str = "info"
    trace_id: Optional[int] = None
    attrs: Dict[str, Any] = field(default_factory=dict)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "time": self.time,
            "component": self.component,
            "kind": self.kind,
            "severity": self.severity,
            "trace_id": self.trace_id,
            "attrs": self.attrs,
        }


#: events a flight recorder keeps; the oldest are evicted first
CAPACITY = 4096


class FlightRecorder:
    """Fixed-capacity event ring against an injected clock."""

    def __init__(self, clock: Callable[[], float]) -> None:
        self.clock = clock
        self.dropped = 0
        self.recorded = 0
        self._events: Deque[FlightEvent] = deque(maxlen=CAPACITY)
        #: receives every recorded FlightEvent (the streamed archive)
        self.sink: Optional[Callable[[FlightEvent], None]] = None

    def record(self, component: str, kind: str, *, severity: str = "info",
               trace_id: Optional[int] = None, **attrs: Any) -> None:
        """Append one event; oldest events are evicted when full."""
        if severity not in SEVERITIES:
            raise ValueError(f"unknown severity {severity!r}")
        if len(self._events) == self._events.maxlen:
            self.dropped += 1
        self.recorded += 1
        event = FlightEvent(
            time=self.clock(), component=component, kind=kind,
            severity=severity, trace_id=trace_id, attrs=attrs)
        self._events.append(event)
        if self.sink is not None:
            self.sink(event)

    @property
    def events(self) -> List[FlightEvent]:
        return list(self._events)

    def by_kind(self, kind: str) -> List[FlightEvent]:
        return [e for e in self._events if e.kind == kind]

    def counts(self) -> Dict[str, int]:
        """Per-kind event counts in the current window."""
        out: Dict[str, int] = {}
        for e in self._events:
            out[e.kind] = out.get(e.kind, 0) + 1
        return out

    def snapshot(self) -> Dict[str, Any]:
        """JSON-stable dump of the ring (newest last)."""
        return {
            "recorded": self.recorded,
            "dropped": self.dropped,
            "counts": self.counts(),
            "events": [e.to_dict() for e in self._events],
        }
