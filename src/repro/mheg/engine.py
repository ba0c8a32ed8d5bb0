"""The MHEG engine (Fig 2.4, Fig 2.9, §3.4).

One engine runs at each MITS site.  It decodes interchanged objects
into form (b), creates and drives form (c) run-time objects, and
interprets links and actions — the conditional and spatial-temporal
synchronisation that makes a courseware presentation interactive.

The engine runs on its site's :class:`~repro.atm.simulator.Simulator`:
delays, durations and script waits schedule on the simulator's clock,
and the engine records into the simulator's metrics registry, tracer
and flight recorder.  A caller lets a presentation progress with
``sim.run(until=...)``.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.mheg.classes.base import MhObject
from repro.mheg.classes.behavior import (
    ActionClass, ActionVerb, ElementaryAction, LinkClass,
)
from repro.mheg.classes.composite import CompositeClass
from repro.mheg.classes.content import ContentClass, GenericValueClass
from repro.mheg.classes.interchange import ContainerClass, DescriptorClass
from repro.mheg.classes.script import ScriptClass, ScriptStatement
from repro.mheg.codec import MhegCodec
from repro.mheg.identifiers import ObjectReference
from repro.mheg.runtime import (
    Channel, RtKind, RtObject, RtState, rt_kind_for,
)
from repro.mheg.sync import validate_spec
from repro.util.errors import PresentationError


@dataclass
class EngineEvent:
    """A recorded status change (what link triggers match against)."""

    time: float
    source: str          # reference string (model or run-time)
    attribute: str
    old: Any
    new: Any


@dataclass
class _Watcher:
    """Internal trigger: fires a callback on matching status changes."""

    source: str
    attribute: str
    predicate: Callable[[Any], bool]
    callback: Callable[[], None]
    once: bool = True
    armed: bool = True


class MhegEngine:
    """Decode, hold, instantiate, and drive MHEG objects."""

    def __init__(self, sim, *, name: str = "engine") -> None:
        self.sim = sim
        self.name = name
        self.codec = MhegCodec()
        #: site capabilities used for descriptor negotiation
        self.capabilities = {
            "decoders": ["SIMG", "SMPG", "SPCM", "SMID", "STXT"],
            "bandwidth_bps": 155.52e6,
            "storage_bytes": 1 << 30,
        }
        #: form (b) object store: identifier string -> object
        self._store: Dict[str, MhObject] = {}
        self._prepared: set[str] = set()
        #: fetched content for by-reference objects: content_ref -> bytes
        self.content_cache: Dict[str, bytes] = {}
        #: hook the navigator installs to fetch referenced content;
        #: signature: resolver(content_ref) -> bytes
        self.content_resolver: Optional[Callable[[str], bytes]] = None
        #: form (c) instances: rt reference string -> RtObject
        self._rt: Dict[str, RtObject] = {}
        self._rt_tags: Dict[str, itertools.count] = {}
        self._composite_children: Dict[str, Dict[str, str]] = {}
        self.channels: Dict[str, Channel] = {"main": Channel("main")}
        #: armed MHEG links: link id string -> its watchers
        self._link_watchers: Dict[str, List[_Watcher]] = {}
        self._watchers: List[_Watcher] = []
        self._auto_stops: Dict[str, Any] = {}
        self._scripts: Dict[str, "_ScriptRun"] = {}
        self.events: List[EngineEvent] = []
        #: counts the registry reads through, each bumped once per fact
        self.links_fired = 0
        self.actions_applied = 0
        self.rt_created = 0
        for field in ("links_fired", "actions_applied", "rt_created"):
            sim.metrics.read_through("mheg", field, self, field, engine=name)
        #: skew between when a sync-spec entry was due and when the
        #: engine actually ran it (elementary/cyclic synchronisation)
        self._m_sync_skew = sim.metrics.histogram(
            "mheg", "sync_skew_seconds", engine=name)

    @property
    def stats(self) -> Dict[str, int]:
        """This engine's counts (the registry sums them over the
        engines that share its name)."""
        return {"links_fired": self.links_fired,
                "actions_applied": self.actions_applied,
                "rt_created": self.rt_created}

    # -- object store (form a -> form b) --------------------------------------

    def receive(self, data: bytes) -> MhObject:
        """Decode one interchanged object and store it.

        Containers are unpacked: every carried object is stored
        individually (and the container itself kept for provenance).
        """
        with self.sim.tracer.span("mheg.receive", engine=self.name,
                                  bytes=len(data)) as span:
            obj = self.codec.decode(data)
            self.store(obj)
            span.set(object=str(obj.identifier))
        return obj

    def store(self, obj: MhObject) -> None:
        """Insert a form (b) object directly (local authoring path)."""
        self._store[str(obj.identifier)] = obj
        if isinstance(obj, ContainerClass):
            for inner in obj.objects:
                self.store(inner)

    def encode(self, reference: ObjectReference) -> bytes:
        """Re-encode a stored object for onward interchange."""
        return self.codec.encode(self.get(reference))

    def get(self, reference: ObjectReference) -> MhObject:
        key = str(reference.identifier)
        try:
            return self._store[key]
        except KeyError as exc:
            raise PresentationError(
                f"{self.name}: unknown object {key}") from exc

    def knows(self, reference: ObjectReference) -> bool:
        return str(reference.identifier) in self._store

    def stored_ids(self) -> List[str]:
        return sorted(self._store)

    def negotiate(self, descriptor: DescriptorClass) -> Tuple[bool, List[str]]:
        """Descriptor-based resource negotiation (§3.1.2.2)."""
        return descriptor.check_capabilities(self.capabilities)

    # -- preparation -----------------------------------------------------------

    def prepare(self, reference: ObjectReference) -> None:
        """Make an object available: resolve referenced content."""
        obj = self.get(reference)
        key = str(obj.identifier)
        if key in self._prepared:
            return
        with self.sim.tracer.span("mheg.prepare", engine=self.name,
                                  object=key):
            if isinstance(obj, ContentClass) and obj.content_ref is not None:
                if obj.content_ref not in self.content_cache:
                    if self.content_resolver is None:
                        raise PresentationError(
                            f"{self.name}: {obj} references content "
                            f"{obj.content_ref!r} but no resolver is installed")
                    self.content_cache[obj.content_ref] = \
                        self.content_resolver(obj.content_ref)
            self._prepared.add(key)
        self._emit(key, "prepared", False, True)

    def content_bytes(self, reference: ObjectReference) -> bytes:
        """The content data of a prepared content object."""
        obj = self.get(reference)
        if not isinstance(obj, ContentClass):
            raise PresentationError(f"{obj} is not a content object")
        if obj.data is not None:
            return obj.data
        if obj.content_ref in self.content_cache:
            return self.content_cache[obj.content_ref]
        raise PresentationError(
            f"{obj} content not available; prepare() it first")

    def destroy(self, reference: ObjectReference) -> None:
        """Remove an object from availability (the 'destroy' action)."""
        key = str(reference.identifier)
        self._prepared.discard(key)
        self._store.pop(key, None)
        self._emit(key, "prepared", True, False)

    # -- run-time instantiation (form b -> form c) ------------------------------

    def new_runtime(self, reference: ObjectReference, *,
                    channel: str = "main",
                    rt_tag: Optional[int] = None) -> RtObject:
        """The 'new' action: create a run-time copy of a model object."""
        model = self.get(reference)
        kind = rt_kind_for(model)
        if channel not in self.channels:
            raise PresentationError(f"{self.name}: unknown channel {channel!r}")
        key = str(model.identifier)
        if rt_tag is None:
            counter = self._rt_tags.setdefault(key, itertools.count(1))
            rt_tag = next(counter)
            while f"{key}#{rt_tag}" in self._rt:
                rt_tag = next(counter)
        rt_ref = ObjectReference(model.identifier, rt_tag)
        if str(rt_ref) in self._rt:
            raise PresentationError(f"{self.name}: {rt_ref} already exists")
        rt = RtObject(reference=rt_ref, model=model, kind=kind, channel=channel)
        if isinstance(model, ContentClass):
            pres = model.presentation
            rt.position = list(pres.get("position", (0, 0)))
            rt.size = list(pres.get("size")) if pres.get("size") else None
            rt.volume = model.original_volume
            rt.selectable = bool(pres.get("selectable", False))
        if isinstance(model, GenericValueClass):
            rt.value = model.value
        if kind is RtKind.MULTIPLEXED:
            rt.stream_enabled = {s.stream_id: True
                                 for s in model.streams}
        self._rt[str(rt_ref)] = rt
        self.rt_created += 1
        if isinstance(model, CompositeClass):
            children: Dict[str, str] = {}
            for comp_ref in model.components:
                comp = self.get(comp_ref)
                try:
                    rt_kind_for(comp)
                except PresentationError:
                    continue  # links/actions have no run-time form
                child = self.new_runtime(comp_ref, channel=channel)
                children[str(comp_ref)] = child.ref_str
                # spatial synchronisation: the composite's layout
                # overrides the child's own presentation geometry
                placement = model.layout.get(str(comp_ref))
                if placement:
                    if placement.get("position") is not None:
                        child.position = list(placement["position"])
                    if placement.get("size") is not None:
                        child.size = list(placement["size"])
            self._composite_children[str(rt_ref)] = children
            for socket in model.sockets:
                rt.plugged[socket.name] = (
                    children.get(str(socket.plugged))
                    if socket.plugged is not None else None)
        self._emit(str(rt_ref), "state", None, RtState.INACTIVE.value)
        return rt

    def runtime(self, reference: ObjectReference) -> RtObject:
        try:
            return self._rt[str(reference)]
        except KeyError as exc:
            raise PresentationError(
                f"{self.name}: unknown run-time object {reference}") from exc

    def runtimes(self) -> List[RtObject]:
        return [rt for rt in self._rt.values()
                if rt.state is not RtState.DELETED]

    def resolve_rt_targets(self, reference: ObjectReference) -> List[RtObject]:
        """Run-time instances an action target denotes.

        An rt-tagged reference denotes exactly that instance; a model
        reference denotes every live instance of the model (authors
        typically write links against model objects, since rt tags are
        assigned at presentation time).
        """
        if reference.is_runtime:
            return [self.runtime(reference)]
        prefix = str(reference.identifier)
        matches = [rt for rt in self._rt.values()
                   if str(rt.reference.identifier) == prefix
                   and rt.state is not RtState.DELETED]
        if not matches:
            raise PresentationError(
                f"{self.name}: no run-time instance of {prefix}")
        return matches

    def children_of(self, rt_composite: RtObject) -> Dict[str, str]:
        """model component ref string -> child rt ref string."""
        return dict(self._composite_children.get(rt_composite.ref_str, {}))

    # -- status queries -------------------------------------------------------

    def get_status(self, reference: ObjectReference, attribute: str) -> Any:
        ref_str = str(reference)
        rt: Optional[RtObject] = None
        if reference.is_runtime:
            rt = self._rt.get(ref_str)
        else:
            # a model reference denotes its live instances: prefer a
            # running one, else any live instance
            prefix = str(reference.identifier)
            candidates = [r for r in self._rt.values()
                          if str(r.reference.identifier) == prefix
                          and r.state is not RtState.DELETED]
            running = [r for r in candidates if r.state is RtState.RUNNING]
            rt = (running or candidates or [None])[0]
        if rt is not None:
            return {
                "state": rt.state.value,
                "presentation": rt.presentation_status,
                "selected": False,   # selection is momentary
                "selectable": rt.selectable,
                "value": rt.value,
                "position": rt.position,
                "size": rt.size,
                "volume": rt.volume,
                "speed": rt.speed,
                "channel": rt.channel,
            }.get(attribute)
        if attribute == "prepared":
            return ref_str in self._prepared
        return None

    # -- events and links -------------------------------------------------------

    def _emit(self, source: str, attribute: str, old: Any, new: Any) -> None:
        event = EngineEvent(time=self.sim.now, source=source,
                            attribute=attribute, old=old, new=new)
        self.events.append(event)
        self._dispatch(event)

    def _dispatch(self, event: EngineEvent) -> None:
        # model-level conditions (no #tag) also match their rt instances
        base = event.source.split("#", 1)[0]
        for watcher in list(self._watchers):
            if not watcher.armed:
                continue
            if watcher.source not in (event.source, base):
                continue
            if watcher.attribute != event.attribute:
                continue
            if not watcher.predicate(event.new):
                continue
            if watcher.once:
                watcher.armed = False
            watcher.callback()
        self._watchers = [w for w in self._watchers if w.armed]

    def watch(self, source: str, attribute: str,
              predicate: Callable[[Any], bool],
              callback: Callable[[], None], once: bool = True) -> _Watcher:
        """Engine-internal trigger registration."""
        watcher = _Watcher(source=source, attribute=attribute,
                           predicate=predicate, callback=callback, once=once)
        self._watchers.append(watcher)
        return watcher

    def arm_link(self, reference: ObjectReference) -> None:
        """Activate an interchanged link so its triggers are live."""
        link = self.get(reference)
        if not isinstance(link, LinkClass):
            raise PresentationError(f"{link} is not a link object")
        key = str(link.identifier)
        if key in self._link_watchers:
            return
        watchers = []
        for cond in link.trigger_conditions:
            watchers.append(self.watch(
                source=str(cond.source), attribute=cond.attribute,
                predicate=cond.evaluate,
                callback=lambda link=link: self._fire_link(link),
                once=False))
        self._link_watchers[key] = watchers

    def disarm_link(self, reference: ObjectReference) -> None:
        for watcher in self._link_watchers.pop(str(reference.identifier), []):
            watcher.armed = False
        self._watchers = [w for w in self._watchers if w.armed]

    def _fire_link(self, link: LinkClass) -> None:
        for cond in link.additional_conditions:
            observed = self.get_status(cond.source, cond.attribute)
            if not cond.evaluate(observed):
                return
        self.links_fired += 1
        ambient = self.sim.tracer.current
        self.sim.recorder.record(
            "mheg", "link_fired", engine=self.name,
            trace_id=ambient.trace_id if ambient is not None else None,
            link=str(link.identifier))
        if link.once:
            self.disarm_link(ObjectReference(link.identifier))
        effect = link.effect
        if effect is None:
            obj = self.get(link.effect_ref)
            if not isinstance(obj, ActionClass):
                raise PresentationError(
                    f"{link} effect_ref {link.effect_ref} is not an action")
            effect = obj
        self.execute_action(effect)

    def execute_action(self, action: ActionClass) -> None:
        """Run an action object's synchronisation set."""
        for delay, ea in action.schedule():
            if delay <= 0:
                self.apply(ea)
            else:
                self.sim.schedule(delay, self.apply, ea)

    # -- elementary action interpreter -----------------------------------------

    def apply(self, action: ElementaryAction) -> None:
        """Interpret one elementary action (Fig 4.5c verbs)."""
        self.actions_applied += 1
        verb, target, params = action.verb, action.target, action.parameters
        if verb is ActionVerb.PREPARE:
            self.prepare(target)
        elif verb is ActionVerb.DESTROY:
            self.destroy(target)
        elif verb is ActionVerb.NEW:
            self.new_runtime(target, channel=params.get("channel", "main"),
                             rt_tag=params.get("rt_tag"))
        elif verb is ActionVerb.DELETE:
            for rt in self.resolve_rt_targets(target):
                self._delete(rt)
        elif verb is ActionVerb.RUN:
            for rt in self.resolve_rt_targets(target):
                self.run(rt)
        elif verb is ActionVerb.STOP:
            for rt in self.resolve_rt_targets(target):
                self.stop(rt)
        elif verb is ActionVerb.PAUSE:
            for rt in self.resolve_rt_targets(target):
                self.pause(rt)
        elif verb is ActionVerb.RESUME:
            for rt in self.resolve_rt_targets(target):
                self.resume(rt)
        elif verb is ActionVerb.SET_POSITION:
            for rt in self.resolve_rt_targets(target):
                old = rt.position
                rt.position = list(params["value"])
                self._emit(rt.ref_str, "position", old, rt.position)
        elif verb is ActionVerb.SET_SIZE:
            for rt in self.resolve_rt_targets(target):
                old = rt.size
                rt.size = list(params["value"])
                self._emit(rt.ref_str, "size", old, rt.size)
        elif verb is ActionVerb.SET_SPEED:
            for rt in self.resolve_rt_targets(target):
                old = rt.speed
                rt.speed = float(params["value"])
                if rt.speed <= 0:
                    raise PresentationError(f"{rt.ref_str}: speed must be > 0")
                self._emit(rt.ref_str, "speed", old, rt.speed)
        elif verb is ActionVerb.SET_VOLUME:
            for rt in self.resolve_rt_targets(target):
                stream_id = params.get("stream_id")
                if stream_id is not None:
                    # stream control on multiplexed content: volume 0
                    # disables the stream, anything else enables it
                    if stream_id not in rt.stream_enabled:
                        raise PresentationError(
                            f"{rt.ref_str}: no stream {stream_id}")
                    old = rt.stream_enabled[stream_id]
                    rt.stream_enabled[stream_id] = \
                        int(params["value"]) > 0
                    self._emit(rt.ref_str, f"stream:{stream_id}",
                               old, rt.stream_enabled[stream_id])
                    continue
                old = rt.volume
                rt.volume = int(params["value"])
                self._emit(rt.ref_str, "volume", old, rt.volume)
        elif verb is ActionVerb.SET_SELECTABLE:
            for rt in self.resolve_rt_targets(target):
                old = rt.selectable
                rt.selectable = bool(params.get("value", True))
                self._emit(rt.ref_str, "selectable", old, rt.selectable)
        elif verb is ActionVerb.SELECT:
            for rt in self.resolve_rt_targets(target):
                self.select(rt)
        elif verb is ActionVerb.ACTIVATE:
            for rt in self.resolve_rt_targets(target):
                self.activate_script(rt)
        elif verb is ActionVerb.DEACTIVATE:
            for rt in self.resolve_rt_targets(target):
                self.deactivate_script(rt)
        elif verb is ActionVerb.SET_VALUE:
            for rt in self.resolve_rt_targets(target):
                old = rt.value
                rt.value = params.get("value")
                self._emit(rt.ref_str, "value", old, rt.value)
        elif verb in (ActionVerb.GET_VALUE, ActionVerb.GET_STATUS):
            # value flows through the event so links can match on it
            attr = "value" if verb is ActionVerb.GET_VALUE \
                else params.get("attribute", "state")
            observed = self.get_status(target, attr)
            self._emit(str(target), f"queried:{attr}", None, observed)
        else:  # pragma: no cover - exhaustive over ActionVerb
            raise PresentationError(f"unhandled verb {verb}")

    # -- presentation ------------------------------------------------------------

    def run(self, rt: RtObject) -> None:
        if rt.state is RtState.RUNNING:
            return
        old = rt.transition(RtState.RUNNING)
        rt.started_at = self.sim.now
        self.channels[rt.channel].enter(rt.ref_str)
        self._emit(rt.ref_str, "state", old.value, rt.state.value)
        self._emit(rt.ref_str, "presentation", "not-running", "running")
        if rt.kind in (RtKind.CONTENT, RtKind.MULTIPLEXED):
            duration = getattr(rt.model, "original_duration", None)
            if duration:
                self._schedule_auto_stop(rt, duration / rt.speed)
        elif rt.kind is RtKind.COMPOSITE:
            self._run_composite(rt)
        elif rt.kind is RtKind.SCRIPT:
            self.activate_script(rt)

    def _schedule_auto_stop(self, rt: RtObject, remaining: float) -> None:
        handle = self.sim.schedule(remaining, self._auto_stop, rt.ref_str)
        self._auto_stops[rt.ref_str] = (handle, self.sim.now, remaining)

    def _auto_stop(self, rt_ref: str) -> None:
        self._auto_stops.pop(rt_ref, None)
        rt = self._rt.get(rt_ref)
        if rt is not None and rt.state is RtState.RUNNING:
            self.stop(rt)

    def stop(self, rt: RtObject) -> None:
        if rt.state in (RtState.STOPPED, RtState.DELETED, RtState.INACTIVE):
            return
        self._cancel_auto_stop(rt)
        old = rt.transition(RtState.STOPPED)
        rt.stopped_at = self.sim.now
        self.channels[rt.channel].leave(rt.ref_str)
        if rt.kind is RtKind.COMPOSITE:
            self._teardown_composite(rt)
        if rt.kind is RtKind.SCRIPT:
            self.deactivate_script(rt)
        self._emit(rt.ref_str, "state", old.value, rt.state.value)
        self._emit(rt.ref_str, "presentation", "running", "not-running")

    def pause(self, rt: RtObject) -> None:
        if rt.state is not RtState.RUNNING:
            return
        entry = self._auto_stops.pop(rt.ref_str, None)
        if entry is not None:
            handle, started, remaining = entry
            if handle is not None:
                handle.cancel()
            left = max(0.0, remaining - (self.sim.now - started))
            self._auto_stops[rt.ref_str] = (None, self.sim.now, left)
        old = rt.transition(RtState.PAUSED)
        self._emit(rt.ref_str, "state", old.value, rt.state.value)
        self._emit(rt.ref_str, "presentation", "running", "not-running")

    def resume(self, rt: RtObject) -> None:
        if rt.state is not RtState.PAUSED:
            return
        old = rt.transition(RtState.RUNNING)
        entry = self._auto_stops.pop(rt.ref_str, None)
        if entry is not None:
            _, _, left = entry
            self._schedule_auto_stop(rt, left)
        self._emit(rt.ref_str, "state", old.value, rt.state.value)
        self._emit(rt.ref_str, "presentation", "not-running", "running")

    def _cancel_auto_stop(self, rt: RtObject) -> None:
        entry = self._auto_stops.pop(rt.ref_str, None)
        if entry is not None and entry[0] is not None:
            entry[0].cancel()

    def _delete(self, rt: RtObject) -> None:
        if rt.state is RtState.RUNNING or rt.state is RtState.PAUSED:
            self.stop(rt)
        old = rt.transition(RtState.DELETED)
        for child_ref in self._composite_children.pop(rt.ref_str, {}).values():
            child = self._rt.get(child_ref)
            if child is not None and child.state is not RtState.DELETED:
                self._delete(child)
        self._emit(rt.ref_str, "state", old.value, rt.state.value)
        del self._rt[rt.ref_str]

    def delete_runtime(self, rt: RtObject) -> None:
        """The 'delete' action: remove a form (c) object (public API)."""
        self._delete(rt)

    def select(self, rt: RtObject) -> None:
        """A user selection (click) on a selectable run-time object."""
        if not rt.selectable:
            raise PresentationError(
                f"{rt.ref_str} is not selectable")
        self._emit(rt.ref_str, "selected", False, True)

    # -- composite synchronisation ------------------------------------------------

    def _child_rt(self, rt: RtObject, model_ref_str: str) -> RtObject:
        children = self._composite_children.get(rt.ref_str, {})
        child_ref = children.get(model_ref_str)
        if child_ref is None:
            raise PresentationError(
                f"{rt.ref_str}: sync spec names {model_ref_str}, which is "
                "not an instantiable component")
        return self.runtime(ObjectReference.parse(child_ref))

    def _run_composite(self, rt: RtObject) -> None:
        model = rt.model
        assert isinstance(model, CompositeClass)
        for link_ref in model.links:
            self.arm_link(link_ref)
        spec = model.sync_spec
        children = self._composite_children.get(rt.ref_str, {})
        if spec is None:
            # default: simple serial playback of instantiable components
            order = [children[str(c)] for c in model.components
                     if str(c) in children]
            self._run_chain(rt, order)
            return
        validate_spec(spec)
        # a spec may bound the composite's own presentation time so that
        # scene composites end when their time-line does
        if spec.get("duration"):
            self._schedule_auto_stop(rt, float(spec["duration"]) / rt.speed)
        kind = spec["kind"]
        if kind == "atomic":
            first = self._child_rt(rt, spec["first"])
            second = self._child_rt(rt, spec["second"])
            if spec["mode"] == "parallel":
                self.run(first)
                self.run(second)
            else:
                self._run_chain(rt, [first.ref_str, second.ref_str])
        elif kind == "elementary":
            for entry in spec["entries"]:
                child = self._child_rt(rt, entry["target"])
                if entry["time"] <= 0:
                    self.run(child)
                else:
                    self.sim.schedule(entry["time"], self._run_if_live,
                                  rt.ref_str, child.ref_str,
                                  self.sim.now + entry["time"])
        elif kind == "cyclic":
            child = self._child_rt(rt, spec["target"])
            self._cycle(rt.ref_str, child.ref_str, spec["period"],
                        spec.get("repetitions"))
        elif kind == "chained":
            order = []
            for t in spec["targets"]:
                order.append(self._child_rt(rt, t).ref_str)
            self._run_chain(rt, order)

    def _run_if_live(self, composite_ref: str, child_ref: str,
                     due: Optional[float] = None) -> None:
        if due is not None:
            self._m_sync_skew.observe(max(0.0, self.sim.now - due))
        composite = self._rt.get(composite_ref)
        child = self._rt.get(child_ref)
        if composite is None or composite.state is not RtState.RUNNING:
            return
        if child is not None and child.state is not RtState.DELETED:
            self.run(child)

    def _cycle(self, composite_ref: str, child_ref: str, period: float,
               repetitions: Optional[int], iteration: int = 0,
               due: Optional[float] = None) -> None:
        if due is not None:
            self._m_sync_skew.observe(max(0.0, self.sim.now - due))
        composite = self._rt.get(composite_ref)
        if composite is None or composite.state is not RtState.RUNNING:
            return
        if repetitions is not None and iteration >= repetitions:
            # final repetition issued: the composite completes when the
            # cycled child next stops (or now, if it already has)
            child = self._rt.get(child_ref)
            if child is None or child.state is not RtState.RUNNING:
                self._stop_if_running(composite_ref)
            else:
                self.watch(
                    source=child_ref, attribute="presentation",
                    predicate=lambda v: v == "not-running",
                    callback=lambda c=composite_ref: self._stop_if_running(c),
                    once=True)
            return
        child = self._rt.get(child_ref)
        if child is None or child.state is RtState.DELETED:
            return
        if child.state is RtState.RUNNING:
            self.stop(child)
        self.run(child)
        self.sim.schedule(period, self._cycle, composite_ref, child_ref,
                      period, repetitions, iteration + 1,
                      self.sim.now + period)

    def _run_chain(self, rt: RtObject, order: List[str]) -> None:
        if not order:
            return
        first = self.runtime(ObjectReference.parse(order[0]))
        for prev_ref, next_ref in zip(order, order[1:]):
            self.watch(
                source=prev_ref, attribute="presentation",
                predicate=lambda v: v == "not-running",
                callback=lambda c=rt.ref_str, n=next_ref:
                    self._run_if_live(c, n),
                once=True)
        # serial playback completes the composite when its last element
        # finishes, so enclosing chains (sections, the document) move on
        self.watch(
            source=order[-1], attribute="presentation",
            predicate=lambda v: v == "not-running",
            callback=lambda c=rt.ref_str: self._stop_if_running(c),
            once=True)
        self.run(first)

    def _stop_if_running(self, rt_ref: str) -> None:
        rt = self._rt.get(rt_ref)
        if rt is not None and rt.state is RtState.RUNNING:
            self.stop(rt)

    def _teardown_composite(self, rt: RtObject) -> None:
        model = rt.model
        assert isinstance(model, CompositeClass)
        for link_ref in model.links:
            self.disarm_link(link_ref)
        for child_ref in self._composite_children.get(rt.ref_str, {}).values():
            child = self._rt.get(child_ref)
            if child is not None and child.state in (RtState.RUNNING,
                                                     RtState.PAUSED):
                self.stop(child)

    # -- script interpretation ------------------------------------------------------

    def activate_script(self, rt: RtObject) -> None:
        if rt.kind is not RtKind.SCRIPT:
            raise PresentationError(f"{rt.ref_str} is not a script instance")
        if rt.ref_str in self._scripts:
            return
        model = rt.model
        assert isinstance(model, ScriptClass)
        run = _ScriptRun(self, rt, model.parse())
        self._scripts[rt.ref_str] = run
        self._emit(rt.ref_str, "activation", "inactive", "active")
        run.step()

    def deactivate_script(self, rt: RtObject) -> None:
        run = self._scripts.pop(rt.ref_str, None)
        if run is not None:
            run.kill()
            self._emit(rt.ref_str, "activation", "active", "inactive")

    def _script_finished(self, rt_ref: str) -> None:
        if self._scripts.pop(rt_ref, None) is not None:
            self._emit(rt_ref, "activation", "active", "done")


class _ScriptRun:
    """Stepwise interpreter for one active mits-script instance."""

    def __init__(self, engine: MhegEngine, rt: RtObject,
                 statements: List[ScriptStatement]) -> None:
        self.engine = engine
        self.rt = rt
        self.statements = statements
        self.pc = 0
        self.alive = True
        self._pending = None

    def kill(self) -> None:
        self.alive = False
        if self._pending is not None:
            self._pending.cancel()
        self._pending = None

    def step(self) -> None:
        engine = self.engine
        while self.alive and self.pc < len(self.statements):
            stmt = self.statements[self.pc]
            self.pc += 1
            if stmt.verb == "wait":
                self._pending = engine.sim.schedule(float(stmt.args[0]),
                                                   self.step)
                return
            self._execute(stmt)
        if self.alive:
            self.alive = False
            engine._script_finished(self.rt.ref_str)

    def _execute(self, stmt: ScriptStatement) -> None:
        engine = self.engine
        if stmt.verb == "new":
            engine.new_runtime(ObjectReference.parse(stmt.args[1]),
                               rt_tag=int(stmt.args[3]),
                               channel=stmt.args[5])
        elif stmt.verb in ("run", "stop", "pause", "resume", "delete"):
            rt = engine.runtime(ObjectReference.parse(stmt.args[0]))
            {"run": engine.run, "stop": engine.stop, "pause": engine.pause,
             "resume": engine.resume, "delete": engine._delete}[stmt.verb](rt)
        elif stmt.verb == "prepare":
            engine.prepare(ObjectReference.parse(stmt.args[0]))
        elif stmt.verb == "set":
            target = ObjectReference.parse(stmt.args[0])
            param, raw = stmt.args[1], stmt.args[2]
            verb = {"position": ActionVerb.SET_POSITION,
                    "size": ActionVerb.SET_SIZE,
                    "speed": ActionVerb.SET_SPEED,
                    "volume": ActionVerb.SET_VOLUME,
                    "selectable": ActionVerb.SET_SELECTABLE,
                    "value": ActionVerb.SET_VALUE}.get(param)
            if verb is None:
                raise PresentationError(
                    f"script {self.rt.ref_str}: unknown parameter {param!r}")
            value: Any
            if param in ("position", "size"):
                value = [int(x) for x in raw.split(",")]
            elif param == "speed":
                value = float(raw)
            elif param == "volume":
                value = int(raw)
            elif param == "selectable":
                value = raw.lower() in ("1", "true", "yes")
            else:
                value = raw
            engine.apply(ElementaryAction(verb=verb, target=target,
                                          parameters={"value": value}))
