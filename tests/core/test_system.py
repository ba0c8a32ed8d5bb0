"""Integration tests: the full MITS deployment end to end (Ch. 3+5)."""

import re

import pytest

from repro.authoring import (
    HyperDocument, InteractiveDocument, NavigationLink, Page, PageItem,
    Scene, SceneObject, Section, TimelineEntry,
)
from repro.core import MitsSystem
from repro.navigator.navigator import NavigatorState
from repro.school.exercise import Exercise, MultipleChoiceQuestion
from repro.transport.rpc import STREAM_CHUNK_BYTES, RpcError
from repro.util.errors import PresentationError


def deploy(topology="star", **kwargs):
    """Standard deployment: assets produced, one course published."""
    mits = MitsSystem(topology=topology, **kwargs)
    assets = mits.produce_standard_assets("atm", seconds=1.0)
    author = mits.add_author(
        "author1" if topology == "star" else "author1", "atm-101",
        catalog=assets)
    scene = Scene(name="intro", objects=[
        SceneObject(name="clip", kind="video",
                    content_ref="atm-intro-video"),
        SceneObject(name="notes", kind="text", content_ref="atm-notes",
                    position=(0, 200)),
        SceneObject(name="skip", kind="choice", label="Skip")])
    scene.timeline.add(TimelineEntry("clip", 0.0))
    scene.timeline.add(TimelineEntry("notes", 0.0, 1.0))
    scene.behavior.when_selected("skip", ("stop", "clip"))
    doc = InteractiveDocument("atm-101", title="ATM Networks")
    doc.add_section(Section(name="s1", scenes=[scene]))
    compiled = author.editor.compile_imd(doc)
    mits.wait(author.publish_courseware(
        compiled, courseware_id="atm-101", title="ATM Networks",
        program="networking", keywords=["networks/atm", "broadband"],
        introduction_ref="atm-intro-video"))
    mits.wait(author.publish_course(
        course_code="ELG5376", name="ATM Networks", program="networking",
        courseware_id="atm-101"))
    mits.wait(author.publish_library_doc(
        doc_id="lib-atm", title="ATM notes", media_kind="text",
        content_ref="atm-notes", keywords=["networks/atm"]))
    return mits


class TestDeployment:
    def test_production_publishes_to_database(self):
        mits = deploy()
        stats = mits.database.db.statistics()
        assert stats["content_objects"] == 4
        assert stats["courseware"] == 1
        assert stats["courses"] == 1

    def test_snapshot_lists_sites(self):
        mits = deploy()
        snap = mits.snapshot()
        assert snap["sites"]["database"] == "database"
        assert "author1" in snap["sites"]["authors"]

    def test_snapshot_has_metrics_section(self):
        mits = deploy()
        snap = mits.snapshot()
        metrics = snap["metrics"]
        # the layers the deployment exercised are all represented
        assert "simulator" in metrics
        assert metrics["simulator"]["events_run"][0]["value"] > 0
        assert "vc" in metrics and "pdu_delay_seconds" in metrics["vc"]
        assert any(h["count"] > 0 for h in metrics["vc"]["pdu_delay_seconds"])
        assert "link" in metrics and "drops_total" in metrics["link"]
        assert "connection" in metrics and "retransmits" in metrics["connection"]
        # and the dump is JSON-serialisable as-is
        import json
        json.dumps(snap["metrics"])

    def test_courseware_keywords_indexed(self):
        mits = deploy()
        assert mits.database.db.docs_by_keyword("broadband") == ["atm-101"]

    def test_snapshot_has_timeseries_section(self):
        """The snapshot counts the sampler's ticks; the ticks themselves
        live only in a streamed archive."""
        mits = deploy()
        ts = mits.snapshot()["timeseries"]
        assert set(ts) == {"enabled", "interval", "samples"}
        assert ts["enabled"] is True
        assert ts["interval"] == 0.25
        assert ts["samples"] > 0

    def test_snapshot_carries_no_wall_clock_profile(self):
        """Wall time is measured outside the deployment (perfbench);
        the snapshot holds simulated facts only."""
        assert "profile" not in deploy().snapshot()

    def test_telemetry_can_be_disabled(self):
        mits = deploy(telemetry_interval=None)
        assert mits.snapshot()["timeseries"] == {"enabled": False}

    def test_missing_content_answers_error(self):
        """A stream the content server cannot open comes back as the
        server's reason; the simulator keeps running."""
        mits = deploy()
        client = mits.add_user("user1").client
        ghost = client.get_content("ghost")
        notes = client.get_content("atm-notes")
        mits.sim.run(until=mits.sim.now + 10)
        assert ghost.error == "no content object 'ghost'"
        assert not ghost.finished and ghost.chunks == []
        # content that exists streams in the same chunks as before
        data = mits.database.db.content.get("atm-notes").data
        assert notes.finished and notes.error is None
        assert notes.data == data
        assert [len(c) for c in notes.chunks] == [
            len(data[i:i + STREAM_CHUNK_BYTES])
            for i in range(0, len(data), STREAM_CHUNK_BYTES)]


class TestSampleLearningSession:
    """The §5.4 walkthrough, over the simulated network."""

    def test_full_session(self):
        mits = deploy()
        user = mits.add_user("user1")
        nav = user.navigator

        # Fig 5.3: entry screen
        entry = nav.start()
        assert entry["video"] == "welcome"
        assert nav.state is NavigatorState.ENTRY

        # Fig 5.4: registration
        done = []
        nav.register("Ada Lovelace", "1 Loop Rd", "ada@mirl.example",
                     on_done=done.append)
        mits.sim.run(until=mits.sim.now + 5)
        assert done and done[0]["student_number"].startswith("S")
        assert nav.state is NavigatorState.MAIN

        # Fig 5.4d: course registration with introduction video
        programs = mits.wait(nav.list_programs())
        assert programs == ["networking"]
        courses = mits.wait(nav.list_courses("networking"))
        assert courses[0]["course_code"] == "ELG5376"
        summaries = mits.wait(nav.client.list_courseware("networking"))
        intro_rx = nav.course_introduction(summaries[0]["introduction_ref"])
        mits.sim.run(until=mits.sim.now + 20)
        assert intro_rx.finished and len(intro_rx.data) > 0
        mits.wait(nav.register_for_course("ELG5376"))

        # Fig 5.5: classroom — interact the moment the session is ready
        # (the demo course is only a second long)
        interacted = []

        def on_ready(sess):
            assert "skip" in sess.presenter.clickable()
            sess.click("skip")
            sess.add_bookmark("notes")
            interacted.append(True)

        session = nav.enter_classroom("ELG5376", "atm-101",
                                      on_ready=on_ready)
        mits.sim.run(until=mits.sim.now + 30)
        assert session.ready and interacted
        position = nav.leave_classroom()
        assert position > 0
        mits.sim.run(until=mits.sim.now + 5)

        # resume position persisted server-side
        saved = mits.wait(nav.client.get_resume(
            nav.student["student_number"], "atm-101"))
        assert saved == pytest.approx(position)
        marks = mits.wait(nav.client.get_bookmarks(
            nav.student["student_number"], "atm-101"))
        assert len(marks) == 1

        # Fig 5.6: profile update
        updated = []
        nav.update_profile(address="2 New St", on_result=updated.append)
        mits.sim.run(until=mits.sim.now + 5)
        assert nav.student["address"] == "2 New St"

        # Fig 5.7: library browsing with cross references
        docs = mits.wait(nav.browse_library())
        assert docs[0]["doc_id"] == "lib-atm"
        read = []
        nav.read_document("lib-atm", on_done=read.append)
        mits.sim.run(until=mits.sim.now + 20)
        assert read and read[0]["bytes"] > 0
        assert "text" in read[0]

        nav.exit()
        assert nav.state is NavigatorState.ENTRY
        assert ("classroom", "leave-classroom") not in nav.trace  # traced under MAIN

    def test_unpublished_content_ends_the_classroom_with_an_error(self):
        """A course whose text names content the database never got:
        entering it ends with the refused ref instead of waiting."""
        mits = deploy(tracing=True)
        author = mits.authors["author1"]
        scene = Scene(name="gap", objects=[
            SceneObject(name="notes", kind="text", content_ref="ghost")])
        scene.timeline.add(TimelineEntry("notes", 0.0, 1.0))
        doc = InteractiveDocument("gap-101", title="Gap")
        doc.add_section(Section(name="s1", scenes=[scene]))
        mits.wait(author.publish_courseware(
            author.editor.compile_imd(doc), courseware_id="gap-101",
            title="Gap", program="networking", keywords=[],
            introduction_ref="atm-intro-video"))
        nav = mits.add_user("user1").navigator
        nav.start()
        nav.register("Ada Lovelace")
        mits.sim.run(until=mits.sim.now + 5)
        done = []
        session = nav.enter_classroom("GAP", "gap-101",
                                      on_ready=done.append)
        mits.sim.run(until=mits.sim.now + 60)
        assert done == [session]
        assert not session.ready
        assert session.error == "content 'ghost': no content object 'ghost'"
        (span,) = [s for s in mits.sim.tracer.spans
                   if s.name == "navigator.enter_classroom"]
        assert span.attrs["error"] == session.error

    def test_refused_classroom_keeps_the_saved_resume_position(self):
        """Leaving a classroom whose content was refused must not save
        the never-started presentation's 0.0 over the learner's place."""
        mits = deploy()
        author = mits.authors["author1"]
        scene = Scene(name="gap", objects=[
            SceneObject(name="notes", kind="text", content_ref="ghost")])
        scene.timeline.add(TimelineEntry("notes", 0.0, 1.0))
        doc = InteractiveDocument("gap-101", title="Gap")
        doc.add_section(Section(name="s1", scenes=[scene]))
        mits.wait(author.publish_courseware(
            author.editor.compile_imd(doc), courseware_id="gap-101",
            title="Gap", program="networking", keywords=[],
            introduction_ref="atm-intro-video"))
        nav = mits.add_user("user1").navigator
        nav.start()
        nav.register("Ada Lovelace")
        mits.sim.run(until=mits.sim.now + 5)
        number = nav.student["student_number"]
        client = nav.client
        mits.wait(client.save_resume(number, "gap-101", 42.0))
        session = nav.enter_classroom("GAP", "gap-101")
        mits.sim.run(until=mits.sim.now + 60)
        assert session.error is not None
        assert session.resume_position == 42.0
        assert nav.leave_classroom() == 42.0
        mits.sim.run(until=mits.sim.now + 5)
        assert mits.wait(client.get_resume(number, "gap-101")) == 42.0

    def test_leaving_before_the_resume_reply_saves_nothing(self):
        """Leaving at once, before ``GetResume`` answers, keeps the
        saved position, and the late reply presents nothing."""
        mits = deploy()
        nav = mits.add_user("user1").navigator
        nav.start()
        nav.register("Ada Lovelace")
        mits.sim.run(until=mits.sim.now + 5)
        mits.wait(nav.register_for_course("ELG5376"))
        number = nav.student["student_number"]
        client = nav.client
        mits.wait(client.save_resume(number, "atm-101", 42.0))
        session = nav.enter_classroom("ELG5376", "atm-101")
        nav.leave_classroom()
        mits.sim.run(until=mits.sim.now + 30)
        assert mits.wait(client.get_resume(number, "atm-101")) == 42.0
        assert not session.ready
        assert nav.state is NavigatorState.MAIN

    def test_leaving_before_ready_ends_the_enter_span(self):
        """The ``navigator.enter_classroom`` span ends on an early
        leave, marked ``left_early``, so its ``GetResume`` child is not
        an orphan; a session that got ready carries no such mark."""
        mits = deploy(tracing=True)
        nav = mits.add_user("user1").navigator
        nav.start()
        nav.register("Ada Lovelace")
        mits.sim.run(until=mits.sim.now + 5)
        mits.wait(nav.register_for_course("ELG5376"))
        nav.enter_classroom("ELG5376", "atm-101")
        nav.leave_classroom()
        mits.sim.run(until=mits.sim.now + 30)
        session = nav.enter_classroom("ELG5376", "atm-101")
        mits.sim.run(until=mits.sim.now + 30)
        assert session.ready
        nav.leave_classroom()
        spans = mits.sim.tracer.spans
        early, full = [s for s in spans
                       if s.name == "navigator.enter_classroom"]
        assert early.attrs["left_early"] is True
        assert "left_early" not in full.attrs
        ids = {s.span_id for s in spans}
        (resume,) = [s for s in spans if s.name == "rpc.client:GetResume"
                     and s.trace_id == early.trace_id]
        assert resume.parent_id == early.span_id
        assert all(s.parent_id in ids for s in spans
                   if s.trace_id == early.trace_id
                   and s.parent_id is not None)

    def test_login_with_existing_number(self):
        mits = deploy()
        user = mits.add_user("user1")
        nav = user.navigator
        nav.start()
        done = []
        nav.register("Bob", on_done=done.append)
        mits.sim.run(until=mits.sim.now + 5)
        number = done[0]["student_number"]
        nav.exit()

        nav.start()
        back = []
        nav.login(number, on_done=back.append)
        mits.sim.run(until=mits.sim.now + 5)
        assert back and back[0]["name"] == "Bob"

    def test_login_unknown_number_fails(self):
        mits = deploy()
        nav = mits.add_user("user1").navigator
        nav.start()
        errors = []
        nav.login("S9999", on_error=errors.append)
        mits.sim.run(until=mits.sim.now + 5)
        assert errors
        assert nav.state is NavigatorState.ENTRY

    def test_facilities_require_login(self):
        mits = deploy()
        nav = mits.add_user("user1").navigator
        nav.start()
        with pytest.raises(PresentationError):
            nav.facilities()


class TestSchoolFeatures:
    def test_bulletin_and_exercise_flow(self):
        mits = deploy()
        service = mits.facilitator.service
        service.exercises.add(Exercise(
            exercise_id="ex1", course_code="ELG5376", title="Cells",
            questions=[MultipleChoiceQuestion(
                "ATM cell size?", ["48", "53", "64"], correct=1)]))
        service.bulletin.post("school.announcements", "admin",
                              "Welcome to MIRL TeleSchool", "enjoy")

        nav = mits.add_user("user1").navigator
        nav.start()
        done = []
        nav.register("Ada", on_done=done.append)
        mits.sim.run(until=mits.sim.now + 5)

        posts = mits.wait(nav.read_bulletin("school.announcements"))
        assert posts[0]["subject"] == "Welcome to MIRL TeleSchool"

        result = mits.wait(nav.take_exercise("ex1", [1]))
        assert result["score"] == 1.0

        standings = mits.wait(nav.school.standings("ex1"))
        assert standings[0]["student_number"] == \
            nav.student["student_number"]

    def test_facilitator_q_and_a(self):
        mits = deploy()
        mits.facilitator.service.facilitator.teach(
            ["atm", "cell"], "53 octets: 5 header + 48 payload")
        nav = mits.add_user("user1").navigator
        nav.start()
        nav.register("Ada")
        mits.sim.run(until=mits.sim.now + 5)
        answer = mits.wait(nav.ask_facilitator("how big is an ATM cell?"))
        assert answer["answered"] is True
        unknown = mits.wait(nav.ask_facilitator("meaning of life?"))
        assert unknown["answered"] is False
        assert mits.facilitator.service.facilitator.pending

    def test_forwarded_question_is_answered_by_mail(self):
        mits = deploy()
        nav = mits.add_user("user1").navigator
        nav.start()
        nav.register("Ada")
        mits.sim.run(until=mits.sim.now + 5)
        number = nav.student["student_number"]
        unknown = mits.wait(nav.ask_facilitator("meaning of life?"))
        assert unknown["answered"] is False
        facilitator = mits.facilitator.service.facilitator
        facilitator.answer_pending(lambda student, q: f"{student}: 42")
        answered_at = mits.sim.now
        mail = mits.wait(nav.school.read_mail(number))
        assert [(m["sender"], m["body"], m["sent_at"]) for m in mail] == \
            [("facilitator", f"{number}: 42", answered_at)]
        assert facilitator.pending == []

    def test_bulletin_post_stamped_with_sim_time(self):
        mits = deploy()
        nav = mits.add_user("user1").navigator
        nav.start()
        nav.register("Ada")
        mits.sim.run(until=mits.sim.now + 5)
        posted_at = mits.sim.now
        assert posted_at > 0.0
        mits.facilitator.service.bulletin.post(
            "school.announcements", "admin", "Late news", "exam moved")
        posts = mits.wait(nav.read_bulletin("school.announcements"))
        assert [(p["subject"], p["posted_at"]) for p in posts] == \
            [("Late news", posted_at)]

    def test_conference_between_users(self):
        mits = deploy()
        nav1 = mits.add_user("user1").navigator
        nav2 = mits.add_user("user2").navigator
        for nav, name in ((nav1, "Ada"), (nav2, "Bob")):
            nav.start()
            nav.register(name)
        mits.sim.run(until=mits.sim.now + 5)
        s1 = nav1.student["student_number"]
        s2 = nav2.student["student_number"]
        # each learner joins over RPC, from their own site
        mits.wait(nav1.school.join_conference("common-room", s1))
        members = mits.wait(nav2.school.join_conference("common-room", s2))
        assert members == sorted([s1, s2])
        mits.wait(nav1.school.say("common-room", s1, "anyone here?"))
        transcript = mits.wait(nav2.school.transcript("common-room"))
        assert transcript[-1]["body"] == "anyone here?"

    def test_say_without_joining_is_refused(self):
        mits = deploy()
        nav = mits.add_user("user1").navigator
        nav.start()
        nav.register("Cy")
        mits.sim.run(until=mits.sim.now + 5)
        me = nav.student["student_number"]
        # the facilitator site's DatabaseError comes back as the reason
        with pytest.raises(RpcError, match=re.escape(
                f"{me!r} is not in conference 'common-room'")):
            mits.wait(nav.school.say("common-room", me, "hello?"))


class TestWanDeployment:
    def test_ocrinet_session(self):
        mits = deploy(topology="ocrinet")
        nav = mits.add_user("user9").navigator
        nav.start()
        done = []
        nav.register("Remote Rita", on_done=done.append)
        mits.sim.run(until=mits.sim.now + 10)
        assert done
        ready = []
        session = nav.enter_classroom("ELG5376", "atm-101",
                                      on_ready=ready.append)
        mits.sim.run(until=mits.sim.now + 60)
        assert session.ready
        assert session.presenter.load_stats["bytes"] > 0
