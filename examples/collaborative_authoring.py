#!/usr/bin/env python
"""Collaborative courseware authoring (§6.2 future work, realised).

Two authors jointly build one interactive course: Alice writes the
introduction while Bob writes a case study in parallel, under
section-granular locks.  A third author joins late and catches up by
replaying the operation log.  The finished document compiles and plays
like any single-author course.

Run:  python examples/collaborative_authoring.py
"""

from repro.atm.simulator import Simulator
from repro.authoring import (
    CollaborativeSession, CoursewareEditor, InteractiveDocument,
    SceneObject, TimelineEntry,
)
from repro.authoring.behavior import (
    BehaviorAction, BehaviorCondition, BehaviorRule,
)
from repro.media.production import MediaProductionCenter
from repro.navigator.presenter import CoursewarePresenter


def main() -> None:
    center = MediaProductionCenter(seed=11)
    catalog = {
        "intro-clip": center.produce_video("intro-clip", seconds=1.5),
        "case-text": center.produce_text("case-text"),
        "case-audio": center.produce_audio("case-audio", seconds=1.0),
    }

    session = CollaborativeSession(InteractiveDocument(
        "joint-course", title="Jointly authored ATM course"))

    bob_sees = []
    session.join("alice")
    session.join("bob", on_operation=lambda op: bob_sees.append(
        f"{op.author}:{op.kind}"))

    # Alice builds the introduction
    session.add_section("alice", "intro", title="Introduction")
    session.add_scene("alice", "intro", "welcome")
    session.add_object("alice", "intro", "welcome", SceneObject(
        name="clip", kind="video", content_ref="intro-clip"))
    session.add_object("alice", "intro", "welcome", SceneObject(
        name="skip", kind="choice", label="Skip"))
    session.schedule("alice", "intro", "welcome",
                     TimelineEntry("clip", 0.0, 1.5))
    session.add_rule("alice", "intro", "welcome", BehaviorRule(
        trigger=BehaviorCondition("skip", "selected"),
        actions=[BehaviorAction("stop", "clip")]))

    # Bob, concurrently, builds a case study in his own section
    session.add_section("bob", "case", title="A Case Study")
    session.add_scene("bob", "case", "story")
    session.add_object("bob", "case", "story", SceneObject(
        name="text", kind="text", content_ref="case-text"))
    session.add_object("bob", "case", "story", SceneObject(
        name="narration", kind="audio", content_ref="case-audio"))
    session.schedule("bob", "case", "story",
                     TimelineEntry("text", 0.0, 1.0))
    session.schedule("bob", "case", "story",
                     TimelineEntry("narration", 0.0, 1.0))

    print(f"operations Bob observed from Alice: "
          f"{[o for o in bob_sees if o.startswith('alice')]}")

    # locks protect against cross-editing
    try:
        session.add_scene("bob", "intro", "hijack")
    except Exception as exc:
        print(f"lock enforcement: {exc}")

    # Carol joins late and catches up from the log
    log = session.join("carol")
    print(f"Carol replays {len(log)} operations to catch up "
          f"({sorted(set(op.author for op in log))} contributed)")

    # the joint document compiles and plays
    session.document.validate()
    compiled = CoursewareEditor("joint", catalog=catalog) \
        .compile_imd(session.document)
    presenter = CoursewarePresenter(
        Simulator(), local_resolver=lambda key: catalog[key].data)
    presenter.load_blob(compiled.encode())
    presenter.preload()
    presenter.start()
    print("t=0.5 on screen:", presenter.visible())
    presenter.sim.run(until=1.6)
    print("t=1.6 on screen:", presenter.visible(), "(Bob's section)")
    presenter.sim.run(until=3.6)
    print("course finished:", not presenter.playing)


if __name__ == "__main__":
    main()
