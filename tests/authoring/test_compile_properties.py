"""Property-based tests: arbitrary valid documents compile, interchange,
and play to completion."""

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.atm.simulator import Simulator
from repro.authoring import (
    CoursewareEditor, InteractiveDocument, Scene, SceneObject, Section,
    TimelineEntry,
)
from repro.navigator.presenter import CoursewarePresenter


@st.composite
def documents(draw):
    """Random interactive documents: 1-3 sections, 1-2 scenes each,
    1-3 timed objects per scene."""
    doc = InteractiveDocument("prop-course")
    object_counter = 0
    for s in range(draw(st.integers(1, 3))):
        scenes = []
        for sc in range(draw(st.integers(1, 2))):
            objects = []
            timeline = []
            for o in range(draw(st.integers(1, 3))):
                name = f"obj{object_counter}"
                object_counter += 1
                kind = draw(st.sampled_from(["text", "image", "audio"]))
                objects.append(SceneObject(
                    name=name, kind=kind, content_ref=f"media-{kind}"))
                start = draw(st.floats(0.0, 2.0))
                duration = draw(st.floats(0.1, 1.5))
                timeline.append(TimelineEntry(name, round(start, 2),
                                              round(duration, 2)))
            scene = Scene(name=f"scene-{s}-{sc}", objects=objects)
            for entry in timeline:
                scene.timeline.add(entry)
            scenes.append(scene)
        doc.add_section(Section(name=f"section-{s}", scenes=scenes))
    return doc


class TestCompileProperties:
    @given(documents())
    @settings(max_examples=25, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_compile_interchange_play_completes(self, doc):
        doc.validate()
        compiled = CoursewareEditor("prop").compile_imd(doc)
        blob = compiled.encode()
        presenter = CoursewarePresenter(
            Simulator(), local_resolver=lambda key: b"content")
        presenter.load_blob(blob)
        presenter.preload()
        presenter.start()
        # total worst-case duration: sum over scenes of (max end)
        horizon = 0.0
        for scene in doc.all_scenes():
            ends = [e.end for e in scene.timeline.entries]
            horizon += 0.0 if None in ends else max(ends, default=0.0)
        presenter.sim.run(until=horizon + 2.0)
        # every scheduled object ran exactly once and the course ended
        assert not presenter.playing
        ran = {e.source for e in presenter.engine.events
               if e.attribute == "presentation" and e.new == "running"}
        scheduled = {str(compiled.object_refs[f"{sc.name}/{o.name}"]) + "#1"
                     for sc in doc.all_scenes() for o in sc.objects}
        assert scheduled <= ran

    @given(documents())
    @settings(max_examples=10, deadline=None)
    def test_blob_roundtrip_stable(self, doc):
        """Compiling the same document twice gives identical bytes
        (deterministic id allocation), and the blob re-decodes."""
        a = CoursewareEditor("prop").compile_imd(doc).encode()
        b = CoursewareEditor("prop").compile_imd(doc).encode()
        assert a == b
        from repro.mheg import MhegCodec
        assert MhegCodec().decode(a).manifest()
