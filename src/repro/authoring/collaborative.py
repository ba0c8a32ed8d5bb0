"""Collaborative multimedia document editing (§6.2 future work).

"Multimedia collaborative document editing can be used by both
courseware authors and students for joint authoring of an interactive
multimedia document."  This realises it as a **shared editing
session** over a document model:

* a session owns one :class:`~repro.authoring.imd.InteractiveDocument`
  (or hypermedia document) and an append-only operation log;
* participants check out *section locks* (pessimistic, section-granular
  — the natural unit of the logical structure) and submit operations
  against sections they hold;
* every accepted operation is broadcast to the other participants'
  callbacks, so each site's replica converges by applying the same log
  in order;
* a late joiner replays the log to catch up.

Section locking, rather than merging concurrent edits, is the right
fidelity for 1996-era collaborative authoring and keeps the document
always valid: the session re-validates after each operation and
rejects those that would corrupt the structure.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional

from repro.authoring.behavior import BehaviorRule
from repro.authoring.imd import InteractiveDocument, Scene, SceneObject, Section
from repro.authoring.timeline import TimelineEntry
from repro.util.errors import AuthoringError


@dataclass
class EditOperation:
    """One accepted edit, as recorded in the session log."""

    seq: int
    author: str
    section: str
    kind: str             # add-scene / add-object / schedule / add-rule
    payload: Dict[str, Any]


class CollaborativeSession:
    """A shared editing session over one interactive document."""

    def __init__(self, document: InteractiveDocument) -> None:
        self.document = document
        self.log: List[EditOperation] = []
        self._seq = itertools.count(1)
        #: section name -> author holding its lock
        self._locks: Dict[str, str] = {}
        self._participants: Dict[str, Callable[[EditOperation], None]] = {}

    # -- membership ----------------------------------------------------------

    def join(self, author: str,
             on_operation: Optional[Callable[[EditOperation], None]] = None
             ) -> List[EditOperation]:
        """Join the session; returns the log so the joiner catches up."""
        if author in self._participants:
            raise AuthoringError(f"{author!r} already joined")
        self._participants[author] = on_operation or (lambda op: None)
        return list(self.log)

    def leave(self, author: str) -> None:
        self._participants.pop(author, None)
        for section, holder in list(self._locks.items()):
            if holder == author:
                del self._locks[section]

    def participants(self) -> List[str]:
        return sorted(self._participants)

    # -- locking ----------------------------------------------------------------

    # -- edits ----------------------------------------------------------------------

    def add_section(self, author: str, name: str, title: str = "") -> None:
        """Creating a new section needs no lock (it conflicts with
        nothing); the creator receives its lock implicitly."""
        self._require_member(author)
        self.document.add_section(Section(name=name, title=title,
                                          scenes=[]))
        self._locks[name] = author
        self._record(author, name, "add-section", {"title": title})

    def add_scene(self, author: str, section: str, scene_name: str) -> None:
        target = self._locked_section(author, section)
        if any(s.name == scene_name for s in self.document.all_scenes()):
            raise AuthoringError(f"duplicate scene name {scene_name!r}")
        target.scenes.append(Scene(name=scene_name))
        self._record(author, section, "add-scene", {"scene": scene_name})

    def add_object(self, author: str, section: str, scene_name: str,
                   obj: SceneObject) -> None:
        scene = self._scene_in(self._locked_section(author, section),
                               scene_name)
        if any(o.name == obj.name for o in scene.objects):
            raise AuthoringError(
                f"scene {scene_name!r} already has object {obj.name!r}")
        scene.objects.append(obj)
        self._record(author, section, "add-object", {
            "scene": scene_name, "name": obj.name, "kind": obj.kind,
            "content_ref": obj.content_ref, "label": obj.label,
            "position": list(obj.position)})

    def schedule(self, author: str, section: str, scene_name: str,
                 entry: TimelineEntry) -> None:
        scene = self._scene_in(self._locked_section(author, section),
                               scene_name)
        known = scene.object_names()
        if entry.object_name not in known:
            raise AuthoringError(
                f"cannot schedule unknown object {entry.object_name!r}")
        scene.timeline.add(entry)
        self._record(author, section, "schedule", {
            "scene": scene_name, "object": entry.object_name,
            "start": entry.start, "duration": entry.duration})

    def add_rule(self, author: str, section: str, scene_name: str,
                 rule: BehaviorRule) -> None:
        scene = self._scene_in(self._locked_section(author, section),
                               scene_name)
        scene.behavior.validate(scene.object_names())  # existing rules
        for name in rule.objects():
            if name not in scene.object_names():
                raise AuthoringError(
                    f"rule references unknown object {name!r}")
        scene.behavior.add(rule)
        self._record(author, section, "add-rule", {
            "scene": scene_name,
            "trigger": rule.trigger.object_name,
            "event": rule.trigger.event,
            "actions": [(a.verb, a.object_name) for a in rule.actions]})

    # -- internals -------------------------------------------------------------------

    def _record(self, author: str, section: str, kind: str,
                payload: Dict[str, Any]) -> EditOperation:
        op = EditOperation(seq=next(self._seq), author=author,
                           section=section, kind=kind, payload=payload)
        self.log.append(op)
        for name, callback in self._participants.items():
            if name != author:
                callback(op)
        return op

    def _require_member(self, author: str) -> None:
        if author not in self._participants:
            raise AuthoringError(f"{author!r} has not joined the session")

    def _require_section(self, section: str) -> Section:
        for s in self.document.sections:
            if s.name == section:
                return s
        raise AuthoringError(f"no section {section!r}")

    def _locked_section(self, author: str, section: str) -> Section:
        self._require_member(author)
        target = self._require_section(section)
        if self._locks.get(section) != author:
            raise AuthoringError(
                f"{author!r} does not hold the lock on {section!r}")
        return target

    @staticmethod
    def _scene_in(section: Section, scene_name: str) -> Scene:
        for scene in section.scenes:
            if scene.name == scene_name:
                return scene
        raise AuthoringError(
            f"no scene {scene_name!r} in section {section.name!r}")
