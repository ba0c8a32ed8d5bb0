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

Authors write a spec as a plain dict (``{"kind": "chained",
"targets": [...]}``); :func:`validate_spec` checks its structure.
*Conditional* synchronisation ("when the audio has finished, display
the image") is expressed with link objects directly; a helper here
builds the common form.
"""

from __future__ import annotations

from typing import Any, Dict

from repro.mheg.classes.behavior import (
    ActionClass, ActionVerb, ConditionKind, ElementaryAction, LinkClass,
    LinkCondition,
)
from repro.mheg.identifiers import MhegIdentifier, ObjectReference
from repro.util.errors import AuthoringError


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
        repetitions = spec.get("repetitions")
        if repetitions is not None and repetitions < 1:
            raise AuthoringError("cyclic repetitions must be >= 1 (or None)")
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
