"""Tests for the courseware editor: compilation to MHEG and HyTime."""

import pytest

from repro.atm.simulator import Simulator
from repro.authoring import (
    Button, CoursewareEditor, EntryField, HyperDocument, Hyperobject,
    InteractiveDocument, Menu, NavigationLink, OutputObject, Page, PageItem,
    Scene, SceneObject, Section, TimelineEntry, architecture_by_name,
    list_architectures,
)
from repro.hytime import HyTimeEngine
from repro.media.production import MediaProductionCenter
from repro.mheg import MhegCodec, MhegEngine
from repro.mheg.identifiers import MhegIdentifier, ObjectReference
from repro.mheg.runtime import RtState
from repro.util.errors import AuthoringError


def hyperdoc():
    doc = HyperDocument("lib", title="Library course")
    doc.add_page(Page(name="start", items=[
        PageItem(name="body", kind="text", content_ref="txt-1"),
        PageItem(name="pic", kind="image", content_ref="img-1",
                 position=(200, 10)),
        PageItem(name="next", kind="choice", label="Next section"),
    ]))
    doc.add_page(Page(name="end", items=[
        PageItem(name="summary", kind="text", content_ref="txt-2"),
        PageItem(name="back", kind="choice", label="Back"),
    ]))
    doc.add_link(NavigationLink("start", "next", "end"))
    doc.add_link(NavigationLink("end", "back", "start"))
    return doc


def imd():
    doc = InteractiveDocument("atm", title="ATM course")
    scene = Scene(name="intro", objects=[
        SceneObject(name="clip", kind="video", content_ref="vid-1"),
        SceneObject(name="skip", kind="choice", label="Skip")])
    scene.timeline.add(TimelineEntry("clip", 0.0, 2.0))
    scene.behavior.when_selected("skip", ("stop", "clip"))
    doc.add_section(Section(name="s1", scenes=[scene]))
    return doc


class TestHyperdocCompilation:
    def test_container_holds_descriptor_and_parts(self):
        compiled = CoursewareEditor("lib").compile_hyperdoc(hyperdoc())
        assert "start" in compiled.part_refs and "end" in compiled.part_refs
        assert compiled.descriptor in compiled.container.objects
        assert compiled.root.identifier.application == "lib"

    def test_blob_decodes(self):
        compiled = CoursewareEditor("lib").compile_hyperdoc(hyperdoc())
        container = MhegCodec().decode(compiled.encode())
        assert container.manifest() == compiled.container.manifest()

    def test_navigation_compiles_to_links(self):
        compiled = CoursewareEditor("lib").compile_hyperdoc(hyperdoc())
        engine = MhegEngine(Simulator())
        engine.content_resolver = lambda key: b"x"
        engine.receive(compiled.encode())
        root = engine.new_runtime(compiled.root)
        engine.run(root)
        # start page presented, end page not
        start_rt = engine.resolve_rt_targets(compiled.part_refs["start"])[0]
        end_rt = engine.resolve_rt_targets(compiled.part_refs["end"])[0]
        assert start_rt.state is RtState.RUNNING
        assert end_rt.state is RtState.INACTIVE
        # click "next"
        choice = engine.resolve_rt_targets(
            compiled.object_refs["start/next"])[0]
        engine.select(choice)
        assert start_rt.state is RtState.STOPPED
        assert end_rt.state is RtState.RUNNING
        # and back again
        back = engine.resolve_rt_targets(compiled.object_refs["end/back"])[0]
        engine.select(back)
        assert start_rt.state is RtState.RUNNING

    def test_choices_are_selectable_media_not(self):
        compiled = CoursewareEditor("lib").compile_hyperdoc(hyperdoc())
        engine = MhegEngine(Simulator())
        engine.content_resolver = lambda key: b"x"
        engine.receive(compiled.encode())
        engine.new_runtime(compiled.root)
        choice = engine.resolve_rt_targets(compiled.object_refs["start/next"])[0]
        body = engine.resolve_rt_targets(compiled.object_refs["start/body"])[0]
        assert choice.selectable and not body.selectable

    def test_invalid_document_rejected(self):
        doc = HyperDocument("bad")
        with pytest.raises(AuthoringError):
            CoursewareEditor("bad").compile_hyperdoc(doc)


class TestImdCompilation:
    def test_scene_timeline_drives_playback(self):
        compiled = CoursewareEditor("atm").compile_imd(imd())
        engine = MhegEngine(Simulator())
        engine.content_resolver = lambda key: b"x"
        engine.receive(compiled.encode())
        root = engine.new_runtime(compiled.root)
        engine.run(root)
        clip = engine.resolve_rt_targets(compiled.object_refs["intro/clip"])[0]
        assert clip.state is RtState.RUNNING
        engine.sim.run(until=2.5)
        assert clip.state is RtState.STOPPED
        engine.sim.run(until=3.0)
        assert root.state is RtState.STOPPED

    def test_behavior_link_stops_clip(self):
        compiled = CoursewareEditor("atm").compile_imd(imd())
        engine = MhegEngine(Simulator())
        engine.content_resolver = lambda key: b"x"
        engine.receive(compiled.encode())
        root = engine.new_runtime(compiled.root)
        engine.run(root)
        skip = engine.resolve_rt_targets(compiled.object_refs["intro/skip"])[0]
        clip = engine.resolve_rt_targets(compiled.object_refs["intro/clip"])[0]
        engine.sim.run(until=0.5)
        engine.select(skip)
        assert clip.state is RtState.STOPPED

    def test_preemption_compiles(self):
        doc = InteractiveDocument("atm")
        scene = Scene(name="sc", objects=[
            SceneObject(name="text1", kind="text", content_ref="t1"),
            SceneObject(name="image1", kind="image", content_ref="i1"),
            SceneObject(name="choice1", kind="choice", label="Now")])
        scene.timeline.add(TimelineEntry("text1", 0.0, 5.0,
                                         preempted_by="choice1",
                                         preempt_next="image1"))
        scene.timeline.add(TimelineEntry("image1", 5.0, 2.0))
        doc.add_section(Section(name="s", scenes=[scene]))
        compiled = CoursewareEditor("atm").compile_imd(doc)
        engine = MhegEngine(Simulator())
        engine.content_resolver = lambda key: b"x"
        engine.receive(compiled.encode())
        engine.run(engine.new_runtime(compiled.root))
        text1 = engine.resolve_rt_targets(compiled.object_refs["sc/text1"])[0]
        image1 = engine.resolve_rt_targets(compiled.object_refs["sc/image1"])[0]
        choice = engine.resolve_rt_targets(compiled.object_refs["sc/choice1"])[0]
        engine.sim.run(until=1.0)
        assert text1.state is RtState.RUNNING
        assert image1.state is RtState.INACTIVE
        engine.select(choice)  # user pre-empts at t=1 < t2=5
        assert text1.state is RtState.STOPPED
        assert image1.state is RtState.RUNNING

    def test_catalog_attributes_flow_into_objects(self):
        pc = MediaProductionCenter()
        vid = pc.produce_video("vid-1", seconds=1.5)
        doc = InteractiveDocument("atm")
        scene = Scene(name="sc", objects=[
            SceneObject(name="clip", kind="video", content_ref="vid-1")])
        scene.timeline.add(TimelineEntry("clip", 0.0))  # duration from media
        doc.add_section(Section(name="s", scenes=[scene]))
        compiled = CoursewareEditor("atm", catalog={"vid-1": vid}) \
            .compile_imd(doc)
        engine = MhegEngine(Simulator())
        engine.receive(compiled.encode())
        content = engine.get(compiled.object_refs["sc/clip"])
        assert content.original_duration == pytest.approx(1.5)
        assert content.content_hook == "SMPG"
        assert compiled.descriptor.total_size == vid.size

    def test_descriptor_lists_decoders(self):
        compiled = CoursewareEditor("atm").compile_imd(imd())
        decoders = {r.decoder for r in compiled.descriptor.requirements}
        assert "SMPG" in decoders and "STXT" in decoders


class TestHyTimeEmission:
    def test_emitted_document_processes(self):
        text = CoursewareEditor("lib").to_hytime(hyperdoc())
        doc = HyTimeEngine().process(text)
        assert doc.resolve("start").name == "page"
        assert len(doc.hyperlinks) == 2

    def test_links_resolve_to_choices(self):
        text = CoursewareEditor("lib").to_hytime(hyperdoc())
        doc = HyTimeEngine().process(text)
        anchor, target = doc.hyperlinks[0].endpoints(doc.root)
        assert anchor.name == "choice"
        assert target.name == "page"


class TestTeachingArchitectures:
    def test_six_architectures(self):
        assert len(list_architectures()) == 6

    def test_lookup_by_name(self):
        arch = architecture_by_name("case-based")
        assert arch.document_model == "interactive"
        with pytest.raises(AuthoringError):
            architecture_by_name("osmosis")

    def test_interactive_skeleton_builds(self):
        arch = architecture_by_name("simulation-based")
        doc = arch.build_skeleton("pilot-training")
        assert [s.name for s in doc.sections] == list(arch.skeleton_parts)

    def test_hypermedia_skeleton_builds(self):
        arch = architecture_by_name("exploration")
        doc = arch.build_skeleton("museum")
        assert isinstance(doc, HyperDocument)
        assert [p.name for p in doc.pages] == list(arch.skeleton_parts)


class TestCoursewareLibrary:
    def alloc_for(self, app="t"):
        editor = CoursewareEditor(app)
        return editor._alloc

    def test_button_expansion(self):
        exp = Button(name="ok", label="OK").to_mheg(self.alloc_for())
        assert len(exp.objects) == 1
        assert exp.objects[0].presentation["selectable"] is True
        assert exp.objects[0].data == b"OK"

    def test_menu_expansion(self):
        exp = Menu(name="m", entries=["a", "b", "c"]).to_mheg(self.alloc_for())
        composite = exp.objects[-1]
        assert len(composite.components) == 3
        # entries stacked vertically
        ys = [o.presentation["position"][1] for o in exp.objects[:-1]]
        assert ys == sorted(ys) and len(set(ys)) == 3

    def test_empty_menu_rejected(self):
        with pytest.raises(AuthoringError):
            Menu(name="m", entries=[]).to_mheg(self.alloc_for())

    def test_entry_field_expansion(self):
        exp = EntryField(name="name", prompt="Your name:").to_mheg(
            self.alloc_for())
        kinds = [type(o).__name__ for o in exp.objects]
        assert "GenericValueClass" in kinds
        assert kinds[-1] == "CompositeClass"

    def test_output_object_kinds(self):
        for kind in ("text", "image", "audio", "video", "graphics"):
            exp = OutputObject(name="o", kind=kind,
                               content_ref="ref-1").to_mheg(self.alloc_for())
            assert exp.objects[0].content_ref == "ref-1"
        with pytest.raises(AuthoringError):
            OutputObject(name="o", kind="smellovision",
                         content_ref="x").to_mheg(self.alloc_for())

    def test_hyperobject_links_inputs_to_outputs(self):
        hyper = Hyperobject(
            name="h",
            inputs=[Button(name="play", label="Play")],
            outputs=[OutputObject(name="clip", kind="video",
                                  content_ref="vid-1")],
            links={"play": "clip"})
        exp = hyper.to_mheg(self.alloc_for())
        engine = MhegEngine(Simulator())
        engine.content_resolver = lambda key: b"x"
        for obj in exp.objects:
            engine.store(obj)
        rt = engine.new_runtime(exp.main)
        engine.run(rt)
        play = [r for r in engine.runtimes()
                if r.model.info.name == "play"][0]
        clip = [r for r in engine.runtimes()
                if r.model.info.name == "clip"][0]
        assert play.state is RtState.RUNNING
        engine.select(play)
        assert clip.state is RtState.RUNNING

    def test_hyperobject_bad_link_rejected(self):
        hyper = Hyperobject(name="h", inputs=[Button(name="b", label="B")],
                            outputs=[], links={"b": "ghost"})
        with pytest.raises(AuthoringError):
            hyper.to_mheg(self.alloc_for())
