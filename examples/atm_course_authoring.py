#!/usr/bin/env python
"""Authoring walkthrough: the Fig 4.4 ATM course, all four layers.

Reproduces the thesis's running example — an interactive multimedia
course about ATM itself — exercising each authoring layer (Fig 4.2):

* teaching-architecture layer: pick the case-based framework;
* document layer: sections -> scenes with time-line and behaviour
  structures, including the dynamic-interaction pattern of Fig 4.4b
  (choice1 pre-empts text1 -> image1);
* object layer: the compiled MHEG class instances, shown in both
  interchange notations (ASN.1 sizes, SGML extract);
* media layer: deterministic synthetic assets.

The compiled course then plays back on a standalone MHEG engine with
a scripted user, printing the screen state over time.

Run:  python examples/atm_course_authoring.py
"""

from repro.atm.simulator import Simulator
from repro.authoring import (
    CoursewareEditor, InteractiveDocument, Scene, SceneObject, Section,
    TimelineEntry, architecture_by_name,
)
from repro.media.production import MediaProductionCenter
from repro.mheg import MhegCodec
from repro.navigator.presenter import CoursewarePresenter


def build_course(catalog) -> InteractiveDocument:
    arch = architecture_by_name("case-based")
    print(f"teaching architecture: {arch.name} — {arch.summary}")
    print(f"  parts to fill: {arch.skeleton_parts}")

    doc = InteractiveDocument("atm-course", title="ATM, the case-based way")

    # -- scene 1: the Fig 4.4 example ------------------------------------
    intro = Scene(name="intro", objects=[
        SceneObject(name="text1", kind="text", content_ref="atm-overview",
                    position=(0, 0)),
        SceneObject(name="image1", kind="image", content_ref="cell-diagram",
                    position=(320, 0)),
        SceneObject(name="audio1", kind="audio", content_ref="narration"),
        SceneObject(name="choice1", kind="choice",
                    label="Show the diagram now", position=(0, 400)),
        SceneObject(name="stop-btn", kind="choice", label="Stop",
                    position=(200, 400)),
    ])
    # Fig 4.4b: text1 from t1=0 to t2=2, then image1; choice1 may pre-empt
    intro.timeline.add(TimelineEntry("text1", 0.0, 2.0,
                                     preempted_by="choice1",
                                     preempt_next="image1"))
    intro.timeline.add(TimelineEntry("image1", 2.0, 2.0))
    intro.timeline.add(TimelineEntry("audio1", 0.0, 4.0))
    # Fig 4.4c: the stop button stops everything
    intro.behavior.when_selected("stop-btn", ("stop", "audio1"),
                                 ("stop", "text1"), ("stop", "image1"))

    # -- scene 2: a case ---------------------------------------------------
    case = Scene(name="case-study", objects=[
        SceneObject(name="case-video", kind="video",
                    content_ref="case-clip"),
    ])
    case.timeline.add(TimelineEntry("case-video", 0.0))

    doc.add_section(Section(name="problem", title="The Problem",
                            scenes=[intro]))
    doc.add_section(Section(name="cases", title="A Case",
                            scenes=[case]))
    return doc


def main() -> None:
    # media layer
    center = MediaProductionCenter(seed=42)
    catalog = {
        "atm-overview": center.produce_text("atm-overview"),
        "cell-diagram": center.produce_image("cell-diagram"),
        "narration": center.produce_audio("narration", seconds=4.0),
        "case-clip": center.produce_video("case-clip", seconds=2.0),
    }
    print("media layer:", {k: f"{m.size}B" for k, m in catalog.items()})

    # document layer
    doc = build_course(catalog)
    print("logical view:", doc.logical_view())

    # object layer
    editor = CoursewareEditor("atm-course", catalog=catalog)
    compiled = editor.compile_imd(doc)
    blob = compiled.encode()
    print(f"\nobject layer: {len(compiled.container.objects)} MHEG objects, "
          f"ASN.1 container = {len(blob)} bytes")
    codec = MhegCodec()
    sizes = {type(o).__name__: len(codec.encode(o))
             for o in compiled.container.objects[:4]}
    print("  per-object ASN.1 sizes (first few):", sizes)
    sgml = codec.to_sgml(compiled.container.objects[0])
    print("  SGML notation extract:")
    for line in sgml.splitlines()[:6]:
        print("   ", line)

    # playback with a scripted user
    print("\nplayback (user clicks 'choice1' at t=1.0):")
    presenter = CoursewarePresenter(
        Simulator(), local_resolver=lambda key: catalog[key].data)
    presenter.load_blob(blob)
    presenter.preload()
    presenter.start()
    for t, action in [(0.5, None), (1.0, "choice1"), (1.5, None),
                      (4.5, None), (6.5, None)]:
        presenter.sim.run(until=t)
        if action:
            presenter.click(action)
        print(f"  t={t:4.1f}  visible={presenter.visible()}")
    print("course finished:", not presenter.playing)


if __name__ == "__main__":
    main()
