"""Time-line structure (Fig 4.4b).

The temporal half of a scene's rendering scenario.  Each entry gives a
media object a start time and an optional duration.  An entry may be
marked *pre-emptable by* a choice object: "users can click the button
'choice1' at any time between t1 and t2 to display image1 earlier than
the pre-defined time.  Therefore, the playback time of image1 is
dynamic" — the essence of dynamic interaction.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from repro.util.errors import AuthoringError


@dataclass
class TimelineEntry:
    """One object's slot on the scene time-line."""

    object_name: str
    start: float
    duration: Optional[float] = None
    #: name of a choice object that can cut this entry short and
    #: immediately advance to *preempt_next* (dynamic interaction)
    preempted_by: Optional[str] = None
    preempt_next: Optional[str] = None

    def __post_init__(self) -> None:
        if self.start < 0:
            raise AuthoringError(
                f"{self.object_name}: start time must be >= 0")
        if self.duration is not None and self.duration <= 0:
            raise AuthoringError(
                f"{self.object_name}: duration must be positive")
        if (self.preempted_by is None) != (self.preempt_next is None):
            raise AuthoringError(
                f"{self.object_name}: preemption needs both the choice "
                "object and the successor")

    @property
    def end(self) -> Optional[float]:
        if self.duration is None:
            return None
        return self.start + self.duration


class Timeline:
    """The ordered set of entries for one scene."""

    def __init__(self) -> None:
        self.entries: List[TimelineEntry] = []

    def add(self, entry: TimelineEntry) -> TimelineEntry:
        if any(e.object_name == entry.object_name for e in self.entries):
            raise AuthoringError(
                f"object {entry.object_name!r} already on the time-line")
        self.entries.append(entry)
        self.entries.sort(key=lambda e: (e.start, e.object_name))
        return entry

    def entry(self, object_name: str) -> TimelineEntry:
        for e in self.entries:
            if e.object_name == object_name:
                return e
        raise AuthoringError(f"no time-line entry for {object_name!r}")

    def validate(self, known_objects: set) -> None:
        for e in self.entries:
            if e.object_name not in known_objects:
                raise AuthoringError(
                    f"time-line references unknown object {e.object_name!r}")
            if e.preempted_by is not None:
                if e.preempted_by not in known_objects:
                    raise AuthoringError(
                        f"{e.object_name}: preempting choice "
                        f"{e.preempted_by!r} unknown")
                if e.preempt_next not in known_objects:
                    raise AuthoringError(
                        f"{e.object_name}: preemption successor "
                        f"{e.preempt_next!r} unknown")
