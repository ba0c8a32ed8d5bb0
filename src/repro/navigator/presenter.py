"""Classroom presentation (Fig 5.5).

The presenter owns a user-site MHEG engine, loads an interchanged
courseware container, resolves its by-reference content (locally or by
streaming from the database), and exposes what a GUI front-end needs:
what is visible, what is clickable, click dispatch, and the current
position for resume.  The engine runs on the site's simulator, so
playback progresses as the simulator runs.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional

from repro.mheg.classes.composite import CompositeClass
from repro.mheg.classes.content import ContentClass
from repro.mheg.classes.interchange import ContainerClass, DescriptorClass
from repro.mheg.engine import MhegEngine
from repro.mheg.identifiers import ObjectReference
from repro.mheg.runtime import RtState
from repro.util.errors import PresentationError


class CoursewarePresenter:
    """Load and drive one courseware presentation."""

    def __init__(self, sim, *, client=None,
                 local_resolver: Optional[Callable[[str], bytes]] = None,
                 name: str = "presenter") -> None:
        self.sim = sim
        self.client = client          # DatabaseClient for remote content
        self.engine = MhegEngine(sim, name=name)
        if local_resolver is not None:
            self.engine.content_resolver = local_resolver
        self.container: Optional[ContainerClass] = None
        self.descriptor: Optional[DescriptorClass] = None
        self.root: Optional[ObjectReference] = None
        self.root_rt = None
        self._started_at: Optional[float] = None
        self._resumed_from = 0.0
        self.load_stats: Dict[str, Any] = {}
        #: why :meth:`preload` could not fetch the content (None when it
        #: could): the first refused ref and the server's reason
        self.error: Optional[str] = None

    # -- loading ------------------------------------------------------------

    def load_blob(self, blob: bytes) -> None:
        """Decode an interchanged container and locate its root."""
        obj = self.engine.receive(blob)
        if not isinstance(obj, ContainerClass):
            raise PresentationError(
                "courseware blob must decode to a container")
        self.container = obj
        for inner in obj.objects:
            if isinstance(inner, DescriptorClass):
                self.descriptor = inner
        if self.descriptor is not None:
            ok, problems = self.engine.negotiate(self.descriptor)
            if not ok:
                raise PresentationError(
                    f"site cannot present this courseware: {problems}")
        self.root = self._find_root(obj)

    @staticmethod
    def _find_root(container: ContainerClass) -> ObjectReference:
        """The root composite: the one no other composite references."""
        composites = [o for o in container.objects
                      if isinstance(o, CompositeClass)]
        if not composites:
            raise PresentationError("container holds no composite")
        referenced = set()
        for comp in composites:
            referenced.update(str(r.identifier) for r in comp.components)
        roots = [c for c in composites
                 if str(c.identifier) not in referenced]
        if len(roots) != 1:
            raise PresentationError(
                f"expected exactly one root composite, found {len(roots)}")
        return ObjectReference(roots[0].identifier)

    def content_refs(self) -> List[str]:
        """All by-reference content keys the courseware needs."""
        if self.container is None:
            return []
        refs = []
        for obj in self.container.objects:
            if isinstance(obj, ContentClass) and obj.content_ref is not None:
                refs.append(obj.content_ref)
        return sorted(set(refs))

    def preload(self, on_ready: Optional[Callable[[], None]] = None) -> None:
        """Fetch all referenced content.

        With a *local_resolver*, preparation is synchronous.  With a
        remote client, each content object streams from the database
        and *on_ready* fires when the last one lands or is refused; a
        refusal leaves the presentation unprepared, with :attr:`error`
        set.
        """
        refs = self.content_refs()
        start = self.sim.now
        self.load_stats = {"objects": len(refs), "bytes": 0,
                           "load_time": None}
        if self.client is None:
            for ref in refs:
                if self.engine.content_resolver is None:
                    raise PresentationError(
                        "no content resolver and no database client")
                data = self.engine.content_resolver(ref)
                self.engine.content_cache[ref] = data
                self.load_stats["bytes"] += len(data)
            self._prepare_all()
            self.load_stats["load_time"] = self.sim.now - start
            if on_ready is not None:
                on_ready()
            return

        missing = set(refs)
        if not missing:
            self._prepare_all()
            self.load_stats["load_time"] = 0.0
            if on_ready is not None:
                on_ready()
            return

        def finish_one(content_ref: str, receiver) -> None:
            if receiver.error is not None:
                if self.error is None:
                    self.error = f"content {content_ref!r}: {receiver.error}"
            else:
                self.engine.content_cache[content_ref] = receiver.data
                self.load_stats["bytes"] += len(receiver.data)
            missing.discard(content_ref)
            if not missing:
                if self.error is None:
                    self._prepare_all()
                    self.load_stats["load_time"] = self.sim.now - start
                if on_ready is not None:
                    on_ready()

        for ref in refs:
            self.client.get_content(
                ref, on_end=lambda rx, ref=ref: finish_one(ref, rx))

    def _prepare_all(self) -> None:
        assert self.container is not None
        for obj in self.container.objects:
            if isinstance(obj, ContentClass):
                self.engine.prepare(ObjectReference(obj.identifier))

    # -- playback ---------------------------------------------------------------

    def start(self, from_position: float = 0.0) -> None:
        """Instantiate and run the root; *from_position* is the saved
        resume position.

        The shared clock cannot jump, so playback starts at the
        beginning; the resume position only keeps :meth:`position` from
        reporting less than where the learner left off.
        """
        if self.root is None:
            raise PresentationError("no courseware loaded")
        self.root_rt = self.engine.new_runtime(self.root)
        self.engine.run(self.root_rt)
        self._started_at = self.sim.now
        self._resumed_from = from_position

    @property
    def playing(self) -> bool:
        return (self.root_rt is not None
                and self.root_rt.state is RtState.RUNNING)

    def position(self) -> float:
        """The resume position: seconds of presentation elapsed, never
        less than the position this playback resumed from."""
        if self._started_at is None:
            return 0.0
        return max(self._resumed_from, self.sim.now - self._started_at)

    def stop(self) -> float:
        """End the presentation; returns the position for resume."""
        position = self.position()
        if self.root_rt is not None and \
                self.root_rt.state in (RtState.RUNNING, RtState.PAUSED):
            self.engine.stop(self.root_rt)
        return position

    # -- what a GUI needs ----------------------------------------------------------

    def visible(self) -> List[str]:
        """Names of content objects currently presented."""
        out = []
        for ref_str in self.engine.channels["main"].presented:
            rt = self.engine.runtime(ObjectReference.parse(ref_str))
            if isinstance(rt.model, ContentClass) and rt.model.info.name:
                out.append(rt.model.info.name)
        return out

    def clickable(self) -> List[str]:
        out = []
        for ref_str in self.engine.channels["main"].presented:
            rt = self.engine.runtime(ObjectReference.parse(ref_str))
            if rt.selectable and rt.model.info.name:
                out.append(rt.model.info.name)
        return out

    def click(self, name: str) -> None:
        """Select the presented object with the given author name."""
        for rt in self.engine.runtimes():
            if (rt.model.info.name == name and rt.selectable
                    and rt.state is RtState.RUNNING):
                self.engine.select(rt)
                return
        raise PresentationError(
            f"no clickable object {name!r} is presented")

    def object_named(self, name: str):
        """The live run-time object with the given author name."""
        for rt in self.engine.runtimes():
            if rt.model.info.name == name:
                return rt
        raise PresentationError(f"no run-time object named {name!r}")
