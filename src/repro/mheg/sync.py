"""Spatial-temporal synchronisation mechanisms (§2.2.2.3, Fig 2.6).

Four mechanisms for relating component presentations inside a
composite, serialised into the composite's ``sync_spec`` field:

* **atomic** — two components, serial ("when A stops, run B") or
  parallel ("run A and B together");
* **elementary** — two components with explicit time values T1 and T2
  (offsets from composite start);
* **cyclic** — repetitive presentation of one component with a period
  (events synchronised to clock ticks);
* **chained** — a list of components presented back to back.

*Conditional* synchronisation ("when the audio has finished, display
the image") is expressed with link objects directly; helpers here
build the common forms.
"""

from __future__ import annotations

from typing import Any, Dict, Optional, Sequence

from repro.mheg.classes.behavior import (
    ActionClass, ActionVerb, ConditionKind, ElementaryAction, LinkClass,
    LinkCondition,
)
from repro.mheg.identifiers import MhegIdentifier, ObjectReference
from repro.util.errors import AuthoringError


def elementary(first: ObjectReference, t1: float,
               second: ObjectReference, t2: float) -> Dict[str, Any]:
    """Two components with associated time values T1 and T2 (Fig 2.6b)."""
    if t1 < 0 or t2 < 0:
        raise AuthoringError("elementary sync offsets must be >= 0")
    return {"kind": "elementary",
            "entries": [{"target": str(first), "time": t1},
                        {"target": str(second), "time": t2}]}


def timeline(entries: Sequence[tuple]) -> Dict[str, Any]:
    """Generalised elementary sync: [(ref, start_time), ...]."""
    out = []
    for target, t in entries:
        if t < 0:
            raise AuthoringError("timeline offsets must be >= 0")
        out.append({"target": str(target), "time": float(t)})
    return {"kind": "elementary", "entries": out}


def cyclic(target: ObjectReference, period: float,
           repetitions: Optional[int] = None) -> Dict[str, Any]:
    """Repetitive presentation synchronised to a periodic tick."""
    if period <= 0:
        raise AuthoringError("cyclic sync needs a positive period")
    if repetitions is not None and repetitions < 1:
        raise AuthoringError("cyclic repetitions must be >= 1 (or None)")
    return {"kind": "cyclic", "target": str(target), "period": period,
            "repetitions": repetitions}


def chained(targets: Sequence[ObjectReference]) -> Dict[str, Any]:
    """Back-to-back serial presentation of a list of components."""
    if len(targets) < 1:
        raise AuthoringError("chained sync needs at least one component")
    return {"kind": "chained", "targets": [str(t) for t in targets]}


def validate_spec(spec: Dict[str, Any]) -> None:
    """Structural validation used by the engine before interpreting."""
    kind = spec.get("kind")
    if kind == "atomic":
        if spec.get("mode") not in ("serial", "parallel"):
            raise AuthoringError(f"atomic sync has bad mode {spec.get('mode')!r}")
        ObjectReference.parse(spec["first"])
        ObjectReference.parse(spec["second"])
    elif kind == "elementary":
        entries = spec.get("entries", [])
        if not entries:
            raise AuthoringError("elementary sync with no entries")
        for e in entries:
            ObjectReference.parse(e["target"])
            if e["time"] < 0:
                raise AuthoringError("elementary sync time < 0")
    elif kind == "cyclic":
        ObjectReference.parse(spec["target"])
        if spec["period"] <= 0:
            raise AuthoringError("cyclic period <= 0")
    elif kind == "chained":
        targets = spec.get("targets", [])
        if not targets:
            raise AuthoringError("chained sync with no targets")
        for t in targets:
            ObjectReference.parse(t)
    else:
        raise AuthoringError(f"unknown sync kind {kind!r}")


# -- conditional-synchronisation link builders --------------------------------

def when_stops_run(application: str, number: int,
                   watched: ObjectReference,
                   started: ObjectReference) -> LinkClass:
    """'When the audio has finished, display the image' (§2.2.2.3)."""
    return LinkClass(
        identifier=MhegIdentifier(application, number),
        trigger_conditions=[LinkCondition(
            kind=ConditionKind.TRIGGER, source=watched,
            attribute="presentation", comparison="==", value="not-running")],
        effect=ActionClass(
            identifier=MhegIdentifier(application, number * 100_000 + 1),
            actions=[ElementaryAction(verb=ActionVerb.RUN, target=started)]),
    )
