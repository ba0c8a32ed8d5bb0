"""Run-time (form c) objects, channels, and sockets (Fig 2.4, §2.2.2.2).

A run-time object is a presentable copy of a model object: "the
activation of a runtime-object does not affect the model object, which
allows the reuse of a same model object in different runtime-objects."
Run-time objects live only inside an engine and vanish with it.

A *channel* is "a logical space in which the runtime-components are
positioned, presented and perceived by the user when they are mapped
to the physical space" (§4.3.3); the engine owns the mapping.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from repro.mheg.classes.base import MhObject
from repro.mheg.classes.composite import CompositeClass
from repro.mheg.classes.content import ContentClass, GenericValueClass
from repro.mheg.classes.script import ScriptClass
from repro.mheg.identifiers import ObjectReference
from repro.util.errors import PresentationError


class RtState(enum.Enum):
    """Presentation life cycle of a run-time object."""

    INACTIVE = "inactive"   # created (form c exists), not presented
    RUNNING = "running"
    PAUSED = "paused"
    STOPPED = "stopped"     # was presented, presentation ended
    DELETED = "deleted"     # removed by a 'delete' action


#: transitions allowed by presentation actions; anything else raises
_ALLOWED = {
    ("inactive", "running"), ("stopped", "running"),
    ("running", "paused"), ("paused", "running"),
    ("running", "stopped"), ("paused", "stopped"),
    ("inactive", "deleted"), ("stopped", "deleted"),
    ("running", "deleted"), ("paused", "deleted"),
}


@dataclass
class Channel:
    """A logical presentation space."""

    name: str
    #: rt references currently presented on this channel, in z-order
    presented: List[str] = field(default_factory=list)

    def enter(self, rt_ref: str) -> None:
        if rt_ref not in self.presented:
            self.presented.append(rt_ref)

    def leave(self, rt_ref: str) -> None:
        if rt_ref in self.presented:
            self.presented.remove(rt_ref)


class RtKind(enum.Enum):
    CONTENT = "rt-content"
    MULTIPLEXED = "rt-multiplexed-content"
    COMPOSITE = "rt-composite"
    SCRIPT = "rt-script"
    VALUE = "rt-value"


def rt_kind_for(model: MhObject) -> RtKind:
    # late import keeps content -> runtime dependency one-directional
    from repro.mheg.classes.content import MultiplexedContentClass

    if isinstance(model, MultiplexedContentClass):
        return RtKind.MULTIPLEXED
    if isinstance(model, GenericValueClass):
        return RtKind.VALUE
    if isinstance(model, ContentClass):
        return RtKind.CONTENT
    if isinstance(model, CompositeClass):
        return RtKind.COMPOSITE
    if isinstance(model, ScriptClass):
        return RtKind.SCRIPT
    raise PresentationError(
        f"{model}: class has no run-time form (only components and "
        "scripts can be instantiated)")


@dataclass
class RtObject:
    """One run-time instance."""

    reference: ObjectReference          # carries the rt_tag
    model: MhObject
    kind: RtKind
    channel: Optional[str] = None
    state: RtState = RtState.INACTIVE
    #: rendition parameters, overridable per instance
    position: Optional[List[int]] = None
    size: Optional[List[int]] = None
    volume: Optional[int] = None
    speed: float = 1.0
    #: interaction
    selectable: bool = False
    #: for rt-values: the mutable copy of the model's value
    value: Any = None
    #: rt-composite: socket name -> rt reference string (or None)
    plugged: Dict[str, Optional[str]] = field(default_factory=dict)
    #: rt-multiplexed-content: stream_id -> enabled ("a stream
    #: identifier can be used to control single streams, for example,
    #: to turn audio on and off in an MPEG system stream", §4.4.1)
    stream_enabled: Dict[int, bool] = field(default_factory=dict)
    #: timing bookkeeping
    started_at: Optional[float] = None
    stopped_at: Optional[float] = None

    def __post_init__(self) -> None:
        if not self.reference.is_runtime:
            raise PresentationError(
                f"run-time object needs an rt-tagged reference, got "
                f"{self.reference}")

    @property
    def ref_str(self) -> str:
        return str(self.reference)

    def transition(self, new_state: RtState) -> RtState:
        """Apply a state transition, enforcing the life-cycle rules."""
        if self.state is new_state:
            return self.state
        key = (self.state.value, new_state.value)
        if key not in _ALLOWED:
            raise PresentationError(
                f"{self.ref_str}: illegal transition "
                f"{self.state.value} -> {new_state.value}")
        old = self.state
        self.state = new_state
        return old

    @property
    def presentation_status(self) -> str:
        """The standard's running/not-running presentable status."""
        return "running" if self.state is RtState.RUNNING else "not-running"
