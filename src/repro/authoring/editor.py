"""The courseware editor (§4.5): layer mapping and compilation.

"The courseware editor is responsible for the mapping between layers
in the authoring model."  Concretely:

* a **teaching architecture** produced a document model skeleton
  (:mod:`repro.authoring.teaching`);
* the filled **document model** (hypermedia or interactive multimedia)
  compiles here into **MHEG objects** — content classes referencing
  the **media** layer, composites for pages/scenes/sections, links for
  navigation and behaviour, and one container + descriptor for
  interchange;
* for the §2.3 comparison, a hypermedia document can also be emitted
  as a **HyTime/SGML** document, exercising the publishing-oriented
  path MITS decided against.

The editor's four views (§4.5.3) exist headlessly: logical, layout,
time-line, and behaviour views are data queries on the document.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple, Union

from repro.authoring.behavior import BehaviorRule
from repro.authoring.hyperdoc import HyperDocument, Page, PageItem
from repro.authoring.imd import InteractiveDocument, Scene, SceneObject, Section
from repro.media.base import MediaObject
from repro.mheg.classes import (
    ActionClass, ActionVerb, AudioContentClass, CompositeClass,
    ContainerClass, DescriptorClass, ElementaryAction,     GraphicsContentClass, ImageContentClass, LinkClass, TextContentClass,
    VideoContentClass,
)
from repro.mheg.classes.behavior import ConditionKind, LinkCondition
from repro.mheg.classes.interchange import ResourceRequirement
from repro.mheg.codec import MhegCodec
from repro.mheg.identifiers import MhegIdentifier, ObjectReference
from repro.util.errors import AuthoringError

_CONTENT_BY_KIND = {
    "text": TextContentClass,
    "image": ImageContentClass,
    "graphics": GraphicsContentClass,
    "audio": AudioContentClass,
    "video": VideoContentClass,
}

_HOOK_BY_KIND = {"text": "STXT", "image": "SIMG", "graphics": "SIMG",
                 "audio": "SPCM", "video": "SMPG"}


@dataclass
class CompiledCourseware:
    """Everything the database and navigator need for one courseware."""

    application: str
    container: ContainerClass
    descriptor: DescriptorClass
    root: ObjectReference
    #: page or scene name -> composite reference
    part_refs: Dict[str, ObjectReference]
    #: page item / scene object name -> content reference
    object_refs: Dict[str, ObjectReference]

    def encode(self) -> bytes:
        """The interchange blob stored as a CoursewareRecord."""
        return MhegCodec().encode(self.container)


class CoursewareEditor:
    """Compiles document models into interchangeable MHEG courseware."""

    def __init__(self, application: str,
                 catalog: Optional[Dict[str, MediaObject]] = None) -> None:
        if not application:
            raise AuthoringError("editor needs an application id")
        self.application = application
        #: content_ref -> produced media object (for attributes)
        self.catalog = catalog or {}
        self._numbers = itertools.count(1)

    def _alloc(self) -> MhegIdentifier:
        return MhegIdentifier(self.application, next(self._numbers))

    # -- shared helpers ----------------------------------------------------

    def _media_info(self, content_ref: str) -> Tuple[str, Optional[float], int]:
        """(coding hook, duration, size) from the catalog, if known."""
        media = self.catalog.get(content_ref)
        if media is None:
            return "", None, 0
        return media.coding_method, media.duration, media.size

    def _compile_item(self, item: Union[PageItem, SceneObject],
                      duration_override: Optional[float] = None) -> Any:
        """A page item or scene object -> a content class instance."""
        if item.kind == "choice":
            content = TextContentClass(
                identifier=self._alloc(), content_hook="STXT",
                data=item.label.encode("utf-8"),
                presentation={"position": list(item.position),
                              "selectable": True, "role": "choice"})
            content.info.name = item.name
            return content
        cls = _CONTENT_BY_KIND[item.kind]
        hook, duration, _size = self._media_info(item.content_ref)
        if not hook:
            hook = _HOOK_BY_KIND[item.kind]
        if duration_override is not None:
            duration = duration_override
        presentation: Dict[str, Any] = {"position": list(item.position)}
        if item.size is not None:
            presentation["size"] = list(item.size)
        content = cls(identifier=self._alloc(), content_hook=hook,
                      content_ref=item.content_ref,
                      original_duration=duration,
                      original_volume=getattr(item, "volume", None),
                      presentation=presentation)
        content.info.name = item.name
        return content

    def _descriptor(self, objects: List[Any],
                    root: ObjectReference) -> DescriptorClass:
        hooks: Dict[str, float] = {}
        total = 0
        for obj in objects:
            content_ref = getattr(obj, "content_ref", None)
            hook = getattr(obj, "content_hook", None)
            if hook:
                peak = 0.0
                if content_ref is not None:
                    media = self.catalog.get(content_ref)
                    if media is not None:
                        total += media.size
                        peak = media.bitrate_bps() or 0.0
                hooks[hook] = max(hooks.get(hook, 0.0), peak)
        descriptor = DescriptorClass(
            identifier=self._alloc(), described=[root],
            requirements=[ResourceRequirement(decoder=h, peak_bitrate_bps=p)
                          for h, p in sorted(hooks.items())],
            readme=f"courseware {self.application}",
            total_size=total)
        return descriptor

    def _behavior_links(self, rules: List[BehaviorRule],
                        refs: Dict[str, ObjectReference]) -> List[Any]:
        """Behaviour rules -> link (+ inline action) objects."""
        event_map = {
            "selected": ("selected", "==", True),
            "stopped": ("presentation", "==", "not-running"),
            "started": ("presentation", "==", "running"),
        }
        verb_map = {"run": ActionVerb.RUN, "stop": ActionVerb.STOP,
                    "pause": ActionVerb.PAUSE, "resume": ActionVerb.RESUME,
                    "set_value": ActionVerb.SET_VALUE,
                    "set_position": ActionVerb.SET_POSITION,
                    "set_volume": ActionVerb.SET_VOLUME}
        objects = []
        for rule in rules:
            if rule.trigger.event == "value":
                trigger = LinkCondition(
                    ConditionKind.TRIGGER, refs[rule.trigger.object_name],
                    "value", "==", rule.trigger.value)
            else:
                attr, op, value = event_map[rule.trigger.event]
                trigger = LinkCondition(
                    ConditionKind.TRIGGER, refs[rule.trigger.object_name],
                    attr, op, value)
            additional = []
            for cond in rule.additional:
                attr, op, value = event_map.get(
                    cond.event, ("value", "==", cond.value))
                additional.append(LinkCondition(
                    ConditionKind.ADDITIONAL, refs[cond.object_name],
                    attr, op,
                    value if cond.event != "value" else cond.value))
            actions = []
            for act in rule.actions:
                params = {}
                if act.value is not None:
                    params["value"] = act.value
                actions.append(ElementaryAction(
                    verb=verb_map[act.verb], target=refs[act.object_name],
                    parameters=params))
            link = LinkClass(
                identifier=self._alloc(), trigger_conditions=[trigger],
                additional_conditions=additional,
                effect=ActionClass(identifier=self._alloc(),
                                   actions=actions))
            objects.append(link)
        return objects

    # -- hypermedia compilation -------------------------------------------------

    def compile_hyperdoc(self, doc: HyperDocument) -> CompiledCourseware:
        """Fig 4.3 model -> MHEG: pages as parallel composites, the
        navigation structure as selection-triggered links."""
        doc.validate()
        objects: List[Any] = []
        part_refs: Dict[str, ObjectReference] = {}
        object_refs: Dict[str, ObjectReference] = {}
        page_item_refs: Dict[str, Dict[str, ObjectReference]] = {}

        for page in doc.pages:
            item_refs: Dict[str, ObjectReference] = {}
            for item in page.items:
                content = self._compile_item(item)
                objects.append(content)
                item_refs[item.name] = ObjectReference(content.identifier)
                object_refs[f"{page.name}/{item.name}"] = item_refs[item.name]
            composite = CompositeClass(
                identifier=self._alloc(),
                components=list(item_refs.values()),
                sync_spec={"kind": "elementary",
                           "entries": [{"target": str(r), "time": 0.0}
                                       for r in item_refs.values()]},
                layout={str(r): {"position": list(page.item(n).position)}
                        for n, r in item_refs.items()})
            composite.info.name = page.name
            objects.append(composite)
            part_refs[page.name] = ObjectReference(composite.identifier)
            page_item_refs[page.name] = item_refs

        nav_links: List[ObjectReference] = []
        for link in doc.links:
            choice_ref = page_item_refs[link.from_page][link.condition]
            effect = ActionClass(identifier=self._alloc(), actions=[
                ElementaryAction(ActionVerb.STOP,
                                 part_refs[link.from_page]),
                ElementaryAction(ActionVerb.RUN, part_refs[link.to_page]),
            ])
            mheg_link = LinkClass(
                identifier=self._alloc(),
                trigger_conditions=[LinkCondition(
                    ConditionKind.TRIGGER, choice_ref, "selected", "==",
                    True)],
                effect=effect)
            mheg_link.info.name = (f"{link.from_page}:{link.condition}"
                                   f"->{link.to_page}")
            objects.append(mheg_link)
            nav_links.append(ObjectReference(mheg_link.identifier))

        root = CompositeClass(
            identifier=self._alloc(),
            components=list(part_refs.values()),
            links=nav_links,
            sync_spec={"kind": "elementary",
                       "entries": [{"target": str(part_refs[doc.start_page]),
                                    "time": 0.0}]})
        root.info.name = doc.name
        objects.append(root)
        root_ref = ObjectReference(root.identifier)
        descriptor = self._descriptor(objects, root_ref)
        container = ContainerClass(identifier=self._alloc(),
                                   objects=objects + [descriptor])
        container.info.name = doc.title
        return CompiledCourseware(
            application=self.application, container=container,
            descriptor=descriptor, root=root_ref,
            part_refs=part_refs, object_refs=object_refs)

    # -- interactive multimedia compilation ---------------------------------------

    def compile_imd(self, doc: InteractiveDocument) -> CompiledCourseware:
        """Fig 4.4 model -> MHEG: scenes as timed composites with
        behaviour links, sections chained serially."""
        doc.validate()
        objects: List[Any] = []
        part_refs: Dict[str, ObjectReference] = {}
        object_refs: Dict[str, ObjectReference] = {}

        def compile_scene(scene: Scene) -> ObjectReference:
            refs: Dict[str, ObjectReference] = {}
            for obj in scene.objects:
                duration = None
                try:
                    duration = scene.timeline.entry(obj.name).duration
                except AuthoringError:
                    pass
                content = self._compile_item(obj, duration_override=duration)
                objects.append(content)
                refs[obj.name] = ObjectReference(content.identifier)
                object_refs[f"{scene.name}/{obj.name}"] = refs[obj.name]

            link_refs: List[ObjectReference] = []
            for link_obj in self._behavior_links(scene.behavior.rules, refs):
                objects.append(link_obj)
                link_refs.append(ObjectReference(link_obj.identifier))
            # dynamic interaction: pre-emption links from the time-line
            for entry in scene.timeline.entries:
                if entry.preempted_by is None:
                    continue
                effect = ActionClass(identifier=self._alloc(), actions=[
                    ElementaryAction(ActionVerb.STOP,
                                     refs[entry.object_name]),
                    ElementaryAction(ActionVerb.RUN,
                                     refs[entry.preempt_next]),
                ])
                link = LinkClass(
                    identifier=self._alloc(),
                    trigger_conditions=[LinkCondition(
                        ConditionKind.TRIGGER, refs[entry.preempted_by],
                        "selected", "==", True)],
                    additional_conditions=[LinkCondition(
                        ConditionKind.ADDITIONAL, refs[entry.object_name],
                        "presentation", "==", "running")],
                    effect=effect)
                link.info.name = (f"{scene.name}:{entry.preempted_by}"
                                  f" preempts {entry.object_name}")
                objects.append(link)
                link_refs.append(ObjectReference(link.identifier))

            entries = [{"target": str(refs[e.object_name]), "time": e.start}
                       for e in scene.timeline.entries]
            # choices are selectable for the whole scene
            for obj in scene.objects:
                if obj.kind == "choice":
                    entries.append({"target": str(refs[obj.name]),
                                    "time": 0.0})
            sync: Dict[str, Any] = {"kind": "elementary", "entries": entries}
            # scene duration: prefer explicit entry durations, fall back
            # to the media catalog's; only bound the scene when every
            # scheduled object's end is known
            ends: List[float] = []
            bounded = True
            for e in scene.timeline.entries:
                duration = e.duration
                if duration is None:
                    obj = scene.object(e.object_name)
                    if obj.content_ref is not None:
                        duration = self._media_info(obj.content_ref)[1]
                if duration is None:
                    bounded = False
                    break
                ends.append(e.start + duration)
            if bounded and ends:
                sync["duration"] = max(ends)
            composite = CompositeClass(
                identifier=self._alloc(), components=list(refs.values()),
                links=link_refs, sync_spec=sync,
                layout={str(r): {"position":
                                 list(scene.object(n).position)}
                        for n, r in refs.items()})
            composite.info.name = scene.name
            objects.append(composite)
            part_refs[scene.name] = ObjectReference(composite.identifier)
            return part_refs[scene.name]

        def compile_section(section: Section) -> ObjectReference:
            child_refs: List[ObjectReference] = []
            if section.subsections:
                child_refs = [compile_section(s) for s in section.subsections]
            else:
                child_refs = [compile_scene(sc) for sc in section.scenes]
            composite = CompositeClass(
                identifier=self._alloc(), components=child_refs,
                sync_spec={"kind": "chained",
                           "targets": [str(r) for r in child_refs]})
            composite.info.name = section.name
            objects.append(composite)
            part_refs[section.name] = ObjectReference(composite.identifier)
            return part_refs[section.name]

        section_refs = [compile_section(s) for s in doc.sections]
        root = CompositeClass(
            identifier=self._alloc(), components=section_refs,
            sync_spec={"kind": "chained",
                       "targets": [str(r) for r in section_refs]})
        root.info.name = doc.name
        objects.append(root)
        root_ref = ObjectReference(root.identifier)
        descriptor = self._descriptor(objects, root_ref)
        container = ContainerClass(identifier=self._alloc(),
                                   objects=objects + [descriptor])
        container.info.name = doc.title
        return CompiledCourseware(
            application=self.application, container=container,
            descriptor=descriptor, root=root_ref,
            part_refs=part_refs, object_refs=object_refs)

    # -- HyTime emission (the §2.3 comparison path) ---------------------------------

    def to_hytime(self, doc: HyperDocument) -> str:
        """Emit a hypermedia document as HyTime/SGML text."""
        doc.validate()
        lines = [f'<doc modules="base location hyperlinks" id="{doc.name}">']
        for page in doc.pages:
            lines.append(f'  <page id="{page.name}">')
            for item in page.items:
                if item.kind == "choice":
                    lines.append(
                        f'    <choice id="{page.name}.{item.name}">'
                        f"{_esc(item.label)}</choice>")
                else:
                    lines.append(
                        f'    <media id="{page.name}.{item.name}" '
                        f'kind="{item.kind}" src="{item.content_ref}" '
                        f'x="{item.position[0]}" y="{item.position[1]}"/>')
            lines.append("  </page>")
        for link in doc.links:
            lines.append(
                f'  <clink anchor="{link.from_page}.{link.condition}" '
                f'target="{link.to_page}"/>')
        lines.append("</doc>")
        return "\n".join(lines)


def _esc(text: str) -> str:
    return (text.replace("&", "&amp;").replace("<", "&lt;")
            .replace(">", "&gt;").replace('"', "&quot;"))
