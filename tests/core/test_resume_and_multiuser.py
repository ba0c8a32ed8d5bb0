"""Integration: resume across sessions, concurrent users, and uploads."""

import pytest

from repro.authoring import (
    InteractiveDocument, Scene, SceneObject, Section, TimelineEntry,
)
from repro.core import MitsSystem
from repro.util.errors import PresentationError


def deploy_long_course():
    """A course long enough (6 s) that a student can leave mid-way."""
    mits = MitsSystem(topology="star")
    assets = mits.produce_standard_assets("lc", seconds=1.0)
    author = mits.add_author("author1", "long-course", catalog=assets)
    doc = InteractiveDocument("long-course", title="Long course")
    for i in range(3):
        scene = Scene(name=f"part{i}", objects=[
            SceneObject(name=f"txt{i}", kind="text",
                        content_ref="lc-notes")])
        scene.timeline.add(TimelineEntry(f"txt{i}", 0.0, 2.0))
        doc.add_section(Section(name=f"s{i}", scenes=[scene]))
    compiled = author.editor.compile_imd(doc)
    mits.wait(author.publish_courseware(
        compiled, courseware_id="long-course", title="Long course",
        program="p"))
    mits.wait(author.publish_course(
        course_code="LC1", name="Long course", program="p",
        courseware_id="long-course"))
    return mits


class TestResumeCycle:
    def test_second_session_resumes_where_first_left(self):
        mits = deploy_long_course()
        nav = mits.add_user("user1").navigator
        nav.start()
        nav.register("Resumer")
        mits.sim.run(until=mits.sim.now + 5)

        # first sitting: watch ~3 s then leave
        entered_at = {}

        def on_ready(session):
            entered_at["t"] = mits.sim.now

        nav.enter_classroom("LC1", "long-course", on_ready=on_ready)
        # run until ready then 3 more seconds of class
        mits.sim.run(until=mits.sim.now + 10)
        assert "t" in entered_at
        first_position = nav.leave_classroom()
        mits.sim.run(until=mits.sim.now + 2)
        assert first_position > 0

        # second sitting: the saved position arrives at the session
        resumed = {}

        def on_ready2(session):
            resumed["position"] = session.resume_position

        nav.enter_classroom("LC1", "long-course", on_ready=on_ready2)
        mits.sim.run(until=mits.sim.now + 10)
        assert resumed["position"] == pytest.approx(first_position)
        nav.leave_classroom()

    def test_short_second_visit_keeps_saved_position(self):
        """A resumed visit never saves less than where it resumed from:
        playback restarts at the beginning on the shared clock, so a
        short second visit must not overwrite the first's progress."""
        mits = deploy_long_course()
        nav = mits.add_user("user1").navigator
        nav.start()
        nav.register("Returner")
        mits.sim.run(until=mits.sim.now + 5)
        number = nav.student["student_number"]

        nav.enter_classroom("LC1", "long-course")
        mits.sim.run(until=mits.sim.now + 10)
        first_position = nav.leave_classroom()
        mits.sim.run(until=mits.sim.now + 2)

        ready = {}
        nav.enter_classroom("LC1", "long-course",
                            on_ready=lambda s: ready.setdefault("t", mits.sim.now))
        mits.sim.run(until=mits.sim.now + 5)
        assert ready["t"] < mits.sim.now - 1.0
        assert nav.leave_classroom() == pytest.approx(first_position)
        mits.sim.run(until=mits.sim.now + 2)
        saved = mits.wait(nav.client.get_resume(number, "long-course"))
        assert saved == pytest.approx(first_position)

    def test_bookmarks_survive_sessions(self):
        mits = deploy_long_course()
        nav = mits.add_user("user1").navigator
        nav.start()
        nav.register("Marker")
        mits.sim.run(until=mits.sim.now + 5)

        def on_ready(session):
            session.add_bookmark("txt0")

        nav.enter_classroom("LC1", "long-course", on_ready=on_ready)
        mits.sim.run(until=mits.sim.now + 15)
        nav.leave_classroom()
        mits.sim.run(until=mits.sim.now + 2)
        marks = mits.wait(nav.client.get_bookmarks(
            nav.student["student_number"], "long-course"))
        assert len(marks) == 1


class TestConcurrentUsers:
    def test_many_students_share_one_course(self):
        mits = deploy_long_course()
        navs = []
        for i in range(5):
            nav = mits.add_user(f"u{i}").navigator
            nav.start()
            nav.register(f"student-{i}")
            navs.append(nav)
        mits.sim.run(until=mits.sim.now + 10)
        ready = []
        for nav in navs:
            nav.enter_classroom("LC1", "long-course",
                                on_ready=lambda s: ready.append(s))
        mits.sim.run(until=mits.sim.now + 60)
        assert len(ready) == 5
        # every session has its own engine and instances
        engines = {id(s.presenter.engine) for s in ready}
        assert len(engines) == 5
        for nav in navs:
            nav.leave_classroom()

    def test_students_get_distinct_numbers(self):
        mits = deploy_long_course()
        numbers = []
        for i in range(4):
            nav = mits.add_user(f"n{i}").navigator
            nav.start()
            nav.register(f"s{i}", on_done=lambda p: numbers.append(
                p["student_number"]))
        mits.sim.run(until=mits.sim.now + 10)
        assert len(set(numbers)) == 4


class TestUploadPaths:
    def test_publish_uploads_a_content_record(self):
        mits = MitsSystem()
        call = mits.production.publish(mits.production.center.produce_image(
            "fresh-diagram", width=64, height=48))
        mits.wait(call)
        record = mits.database.db.content.get("fresh-diagram")
        assert record.media_kind == "image"
        assert record.coding_method == "SIMG"
