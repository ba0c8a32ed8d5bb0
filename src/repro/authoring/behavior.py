"""Behaviour structure (Fig 4.4c).

"A behavior structure specifies special links between the media
objects or between users' action and the media objects.  It is
composed of a set of conditions and a set of actions to be activated
while the conditions are met."  Conditions split into one *trigger*
and optional *additional* conditions, exactly like MHEG links — which
is what they compile to.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, List, Tuple

from repro.util.errors import AuthoringError

#: (object, event) pairs a trigger can watch
TRIGGER_EVENTS = ("selected", "stopped", "started", "value")
#: verbs a behaviour action may apply
ACTION_VERBS = ("run", "stop", "pause", "resume", "set_value",
                "set_position", "set_volume")


@dataclass
class BehaviorCondition:
    """'when <object> <event> [== value]'"""

    object_name: str
    event: str
    value: Any = True

    def __post_init__(self) -> None:
        if self.event not in TRIGGER_EVENTS:
            raise AuthoringError(
                f"unknown behaviour event {self.event!r} "
                f"(expected one of {TRIGGER_EVENTS})")


@dataclass
class BehaviorAction:
    """'<verb> <object> [value]'"""

    verb: str
    object_name: str
    value: Any = None

    def __post_init__(self) -> None:
        if self.verb not in ACTION_VERBS:
            raise AuthoringError(
                f"unknown behaviour verb {self.verb!r} "
                f"(expected one of {ACTION_VERBS})")
        if self.verb.startswith("set_") and self.value is None:
            raise AuthoringError(f"{self.verb} needs a value")


@dataclass
class BehaviorRule:
    """One row of the behaviour table: conditions -> actions.

    Fig 4.4c examples:
    * when user clicked "stop": stop audio1, text1, image1;
    * when text1 stops being displayed: show image1.
    """

    trigger: BehaviorCondition
    actions: List[BehaviorAction]
    additional: List[BehaviorCondition] = field(default_factory=list)

    def __post_init__(self) -> None:
        if not self.actions:
            raise AuthoringError("behaviour rule with no actions")

    def objects(self) -> List[str]:
        names = [self.trigger.object_name]
        names.extend(c.object_name for c in self.additional)
        names.extend(a.object_name for a in self.actions)
        return names


class Behavior:
    """The behaviour table of one scene (or one hypermedia page)."""

    def __init__(self) -> None:
        self.rules: List[BehaviorRule] = []

    def add(self, rule: BehaviorRule) -> BehaviorRule:
        self.rules.append(rule)
        return rule

    def when_selected(self, choice: str,
                      *actions: Tuple[str, str]) -> BehaviorRule:
        """Shorthand: when *choice* is clicked, apply (verb, object)s."""
        rule = BehaviorRule(
            trigger=BehaviorCondition(choice, "selected"),
            actions=[BehaviorAction(verb, obj) for verb, obj in actions])
        return self.add(rule)

    def validate(self, known_objects: set) -> None:
        for rule in self.rules:
            for name in rule.objects():
                if name not in known_objects:
                    raise AuthoringError(
                        f"behaviour rule references unknown object {name!r}")
