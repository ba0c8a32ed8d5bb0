"""Soak test: a realistic load over the OCRInet-like WAN.

Ten students at edge sites concurrently register, take the same
course (content streamed on demand), interact, ask the facilitator,
and leave — while the production center keeps publishing new media.
Everything must complete, every session independent, no silent loss.
"""

import pytest

from repro.authoring import (
    InteractiveDocument, Scene, SceneObject, Section, TimelineEntry,
)
from repro.core import MitsSystem


@pytest.fixture(scope="module")
def loaded_system():
    mits = MitsSystem(topology="ocrinet")
    assets = mits.produce_standard_assets("soak", seconds=1.0)
    author = mits.add_author("author1", "soak-course", catalog=assets)
    scene = Scene(name="lesson", objects=[
        SceneObject(name="clip", kind="video",
                    content_ref="soak-intro-video"),
        SceneObject(name="notes", kind="text", content_ref="soak-notes"),
        SceneObject(name="skip", kind="choice", label="Skip")])
    scene.timeline.add(TimelineEntry("clip", 0.0))
    scene.timeline.add(TimelineEntry("notes", 0.0, 1.0))
    scene.behavior.when_selected("skip", ("stop", "clip"))
    doc = InteractiveDocument("soak-course")
    doc.add_section(Section(name="s1", scenes=[scene]))
    mits.wait(author.publish_courseware(
        author.editor.compile_imd(doc), courseware_id="soak-course",
        title="Soak", program="p"))
    mits.wait(author.publish_course(
        course_code="SOAK1", name="Soak", program="p",
        courseware_id="soak-course"))
    mits.facilitator.service.facilitator.teach(["cell"], "53 bytes")
    return mits


N_USERS = 10


def test_ten_concurrent_students(loaded_system):
    mits = loaded_system
    navs = []
    for i in range(N_USERS):
        nav = mits.add_user(f"soak-u{i}").navigator
        nav.start()
        nav.register(f"student-{i}")
        navs.append(nav)
    mits.sim.run(until=mits.sim.now + 15)
    assert all(nav.student for nav in navs)

    clicked = []
    answers = []
    for i, nav in enumerate(navs):
        mits.wait(nav.register_for_course("SOAK1"))

        def on_ready(session, i=i):
            session.click("skip")
            clicked.append(i)

        nav.enter_classroom("SOAK1", "soak-course", on_ready=on_ready)
        nav.ask_facilitator("how big is a cell?",
                            on_result=answers.append)
    # meanwhile the production center keeps publishing
    publish = mits.production.publish(
        mits.production.center.produce_image("soak-extra-diagram"))
    mits.sim.run(until=mits.sim.now + 120)

    assert sorted(clicked) == list(range(N_USERS))
    assert len(answers) == N_USERS
    assert all(a["answered"] for a in answers)
    assert publish.done and publish.error is None

    positions = [nav.leave_classroom() for nav in navs]
    mits.sim.run(until=mits.sim.now + 10)
    assert all(p > 0 for p in positions)

    # every resume position persisted
    for nav in navs:
        saved = mits.wait(nav.client.get_resume(
            nav.student["student_number"], "soak-course"))
        assert saved > 0

    stats = mits.database.db.statistics()
    assert stats["students"] == N_USERS
    assert stats["course_registrations"] == N_USERS
    # the database CPU actually queued work
    assert mits.database.processor.jobs_done > N_USERS * 5


def test_network_carried_all_sessions(loaded_system):
    mits = loaded_system
    total_switched = sum(sw.stats.switched
                         for sw in mits.network.switches.values())
    assert total_switched > 3_000  # genuine cell-level traffic
    unroutable = sum(sw.stats.unroutable
                     for sw in mits.network.switches.values())
    # closed VCs may strand a handful of in-flight cells; anything more
    # means routing is broken
    assert unroutable < total_switched * 0.01
