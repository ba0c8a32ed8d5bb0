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

Under a :class:`~repro.obs.sampling.SamplingPolicy` (see
:meth:`FlightRecorder.apply_policy`) ring-evicted events can spill
into a seeded reservoir instead of vanishing, so a uniform sample of
the *early* run survives arbitrarily long scenarios; and a ``sink``
callable, when attached, receives every recorded event as it happens,
which is how a streamed archive persists full fidelity while the
in-memory window stays bounded.
"""

from __future__ import annotations

import json
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Callable, Deque, Dict, List, Optional

__all__ = ["FlightEvent", "FlightRecorder", "SEVERITIES",
           "event_sort_key"]

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

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "FlightEvent":
        return cls(time=payload["time"],
                   component=payload["component"],
                   kind=payload["kind"],
                   severity=payload.get("severity", "info"),
                   trace_id=payload.get("trace_id"),
                   attrs=dict(payload.get("attrs") or {}))


def event_sort_key(event: Dict[str, Any]):
    """Total order over event dicts for k-way shard merges: sim time
    first, then content so equal-time events from different shards
    land deterministically."""
    return (event.get("time", 0.0), event.get("component", ""),
            event.get("kind", ""), event.get("severity", ""),
            event.get("trace_id") if event.get("trace_id") is not None
            else -1,
            json.dumps(event.get("attrs") or {}, sort_keys=True,
                       default=repr))


class FlightRecorder:
    """Fixed-capacity event ring against an injected clock."""

    def __init__(self, clock: Callable[[], float], *,
                 capacity: int = 4096, enabled: bool = True) -> None:
        self.clock = clock
        self.enabled = enabled
        self.dropped = 0
        self.recorded = 0
        self._events: Deque[FlightEvent] = deque(maxlen=capacity)
        #: overflow reservoir, installed by apply_policy(event_reservoir=N)
        self._overflow = None
        #: receives every recorded FlightEvent (the streamed archive)
        self.sink: Optional[Callable[[FlightEvent], None]] = None

    def apply_policy(self, policy) -> None:
        """Install a :class:`~repro.obs.sampling.SamplingPolicy`.

        With ``event_reservoir`` set, events evicted from the ring
        spill into a seeded uniform reservoir instead of vanishing.
        """
        from repro.obs.sampling import Reservoir

        if policy.event_reservoir is not None:
            self._overflow = Reservoir(policy.event_reservoir,
                                       seed=policy.seed)
        else:
            self._overflow = None

    def record(self, component: str, kind: str, *, severity: str = "info",
               trace_id: Optional[int] = None, **attrs: Any) -> None:
        """Append one event; oldest events are evicted when full."""
        if not self.enabled:
            return
        if severity not in SEVERITIES:
            raise ValueError(f"unknown severity {severity!r}")
        if len(self._events) == self._events.maxlen:
            self.dropped += 1
            if self._overflow is not None:
                self._overflow.offer(self._events[0])
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

    @property
    def overflow(self) -> List[FlightEvent]:
        """Reservoir-kept evicted events, oldest-first (empty unless a
        policy with ``event_reservoir`` is applied)."""
        if self._overflow is None:
            return []
        return sorted(self._overflow.items(), key=lambda e: e.time)

    def for_trace(self, trace_id: int) -> List[FlightEvent]:
        """Events correlated to one trace."""
        return [e for e in self._events if e.trace_id == trace_id]

    def by_kind(self, kind: str) -> List[FlightEvent]:
        return [e for e in self._events if e.kind == kind]

    def counts(self) -> Dict[str, int]:
        """Per-kind event counts in the current window."""
        out: Dict[str, int] = {}
        for e in self._events:
            out[e.kind] = out.get(e.kind, 0) + 1
        return out

    def clear(self) -> None:
        self._events.clear()
        if self._overflow is not None:
            self._overflow.clear()
        self.dropped = 0
        self.recorded = 0

    def snapshot(self) -> Dict[str, Any]:
        """JSON-stable dump of the ring (newest last).

        With an overflow reservoir installed the snapshot grows an
        ``overflow`` block; the default shape is unchanged.
        """
        snap: Dict[str, Any] = {
            "recorded": self.recorded,
            "dropped": self.dropped,
            "counts": self.counts(),
            "events": [e.to_dict() for e in self._events],
        }
        if self._overflow is not None:
            snap["overflow"] = {
                "capacity": self._overflow.capacity,
                "kept": len(self._overflow),
                "events": [e.to_dict() for e in self.overflow],
            }
        return snap

    def to_jsonl(self) -> str:
        """One event per line (the ``event`` record body, untagged)."""
        return "\n".join(
            json.dumps(e.to_dict(), sort_keys=True) for e in self._events)
