"""Finite coordinate spaces and events (§2.2.1.2).

"The scheduling module places document objects in Finite Coordinate
Spaces (FCS), which are defined as collections of axes.  Events are
located on the axes of a FCS."
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from repro.util.errors import DecodingError


@dataclass(frozen=True)
class Axis:
    """One dimension of an FCS, with a measurement unit."""

    name: str
    unit: str                  # e.g. "second", "pixel"
    extent: float              # size of the addressable range

    def __post_init__(self) -> None:
        if self.extent <= 0:
            raise ValueError(f"axis {self.name!r} needs a positive extent")


@dataclass
class Event:
    """A document object placed in an FCS: per-axis (start, length)."""

    name: str
    extents: Dict[str, Tuple[float, float]] = field(default_factory=dict)

    def start(self, axis: str) -> float:
        return self.extents[axis][0]

    def length(self, axis: str) -> float:
        return self.extents[axis][1]

    def end(self, axis: str) -> float:
        start, length = self.extents[axis]
        return start + length


class FiniteCoordinateSpace:
    """A collection of axes holding scheduled events."""

    def __init__(self, name: str, axes: List[Axis]) -> None:
        if not axes:
            raise ValueError("an FCS needs at least one axis")
        names = [a.name for a in axes]
        if len(set(names)) != len(names):
            raise ValueError("duplicate axis names")
        self.name = name
        self.axes = {a.name: a for a in axes}
        self.events: Dict[str, Event] = {}

    def schedule(self, event: Event) -> Event:
        """Place an event, checking every extent fits its axis."""
        if event.name in self.events:
            raise DecodingError(f"event {event.name!r} already scheduled")
        for axis_name, (start, length) in event.extents.items():
            axis = self.axes.get(axis_name)
            if axis is None:
                raise DecodingError(
                    f"event {event.name!r} uses unknown axis {axis_name!r}")
            if length < 0 or start < 0 or start + length > axis.extent:
                raise DecodingError(
                    f"event {event.name!r} extent ({start}, {length}) falls "
                    f"outside axis {axis_name!r} (0..{axis.extent})")
        self.events[event.name] = event
        return event

    def overlapping(self, axis: str, point: float) -> List[Event]:
        """Events whose extent on *axis* covers *point* (presentation
        queries: 'what is on screen at t?')."""
        out = []
        for event in self.events.values():
            if axis in event.extents:
                start, length = event.extents[axis]
                if start <= point < start + length:
                    out.append(event)
        return sorted(out, key=lambda e: e.name)

    def timeline(self, axis: str) -> List[Tuple[float, float, str]]:
        """(start, end, event name) along *axis*, ordered by start."""
        out = []
        for event in self.events.values():
            if axis in event.extents:
                out.append((event.start(axis), event.end(axis), event.name))
        return sorted(out)

