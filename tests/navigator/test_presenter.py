"""Tests for the courseware presenter, on a bare simulator."""

import pytest

from repro.atm.simulator import Simulator
from repro.authoring import (
    CoursewareEditor, HyperDocument, InteractiveDocument, NavigationLink,
    Page, PageItem, Scene, SceneObject, Section, TimelineEntry,
)
from repro.media.production import MediaProductionCenter
from repro.navigator.presenter import CoursewarePresenter
from repro.util.errors import PresentationError


def make_imd_blob(catalog=None):
    doc = InteractiveDocument("course", title="Demo")
    scene = Scene(name="sc", objects=[
        SceneObject(name="clip", kind="video", content_ref="vid-1"),
        SceneObject(name="caption", kind="text", content_ref="txt-1"),
        SceneObject(name="skip", kind="choice", label="Skip")])
    scene.timeline.add(TimelineEntry("clip", 0.0, 2.0))
    scene.timeline.add(TimelineEntry("caption", 0.5, 1.5))
    scene.behavior.when_selected("skip", ("stop", "clip"),
                                 ("stop", "caption"))
    doc.add_section(Section(name="s", scenes=[scene]))
    compiled = CoursewareEditor("course", catalog=catalog).compile_imd(doc)
    return compiled.encode()


def local_presenter():
    presenter = CoursewarePresenter(
        Simulator(), local_resolver=lambda key: b"media:" + key.encode())
    presenter.load_blob(make_imd_blob())
    presenter.preload()
    return presenter


class TestLoading:
    def test_load_finds_root_and_descriptor(self):
        presenter = local_presenter()
        assert presenter.root is not None
        assert presenter.descriptor is not None

    def test_content_refs_enumerated(self):
        presenter = CoursewarePresenter(Simulator(),
                                        local_resolver=lambda key: b"x")
        presenter.load_blob(make_imd_blob())
        assert presenter.content_refs() == ["txt-1", "vid-1"]

    def test_preload_counts_bytes(self):
        presenter = local_presenter()
        assert presenter.load_stats["objects"] == 2
        assert presenter.load_stats["bytes"] > 0

    def test_non_container_rejected(self):
        from repro.mheg import GenericValueClass, MhegCodec
        from repro.mheg.identifiers import MhegIdentifier
        blob = MhegCodec().encode(
            GenericValueClass(identifier=MhegIdentifier("x", 1), value=1))
        with pytest.raises(PresentationError):
            CoursewarePresenter(Simulator()).load_blob(blob)

    def test_negotiation_blocks_unsupported_courseware(self):
        presenter = CoursewarePresenter(Simulator(),
                                        local_resolver=lambda key: b"x")
        presenter.engine.capabilities["decoders"] = ["STXT"]  # no video
        with pytest.raises(PresentationError):
            presenter.load_blob(make_imd_blob())


class TestPlayback:
    def test_visibility_follows_timeline(self):
        presenter = local_presenter()
        presenter.start()
        assert "clip" in presenter.visible()
        assert "caption" not in presenter.visible()
        presenter.sim.run(until=1.0)
        assert set(presenter.visible()) >= {"clip", "caption"}
        presenter.sim.run(until=3.0)
        assert "clip" not in presenter.visible()

    def test_clickable_lists_choices_only(self):
        presenter = local_presenter()
        presenter.start()
        assert presenter.clickable() == ["skip"]

    def test_click_dispatches(self):
        presenter = local_presenter()
        presenter.start()
        presenter.click("skip")
        assert "clip" not in presenter.visible()

    def test_click_unknown_raises(self):
        presenter = local_presenter()
        presenter.start()
        with pytest.raises(PresentationError):
            presenter.click("ghost")

    def test_position_advances_and_stop_returns_it(self):
        presenter = local_presenter()
        presenter.start()
        presenter.sim.run(until=1.25)
        assert presenter.position() == pytest.approx(1.25)
        assert presenter.stop() == pytest.approx(1.25)
        assert not presenter.playing

    def test_resume_never_reports_less_than_saved(self):
        presenter = local_presenter()
        presenter.start(from_position=1.0)
        # the shared clock cannot jump: playback starts at the beginning
        assert "caption" not in presenter.visible()
        assert presenter.position() == pytest.approx(1.0)
        presenter.sim.run(until=0.5)
        assert presenter.position() == pytest.approx(1.0)
        presenter.sim.run(until=1.75)
        assert presenter.position() == pytest.approx(1.75)
        assert presenter.stop() == pytest.approx(1.75)

    def test_playback_completes(self):
        presenter = local_presenter()
        presenter.start()
        presenter.sim.run(until=5.0)
        assert not presenter.playing
