#!/usr/bin/env python
"""The §5.4 sample learning session, over an OCRInet-like metro WAN.

A remote student walks every screen of the prototype (Figs 5.3-5.7):
entry with the school's introduction clip, registration with a
course-introduction video, the classroom with interaction and
bookmarks (read back after leaving), profile update, library browsing
with cross-reference links, the bulletin board, an exercise, questions
to the on-line facilitator (one answered by mail), the bill, a second
login, and the database saved and reloaded — all over simulated ATM
with real cell-level transport.

Run:  python examples/teleschool_session.py
"""

from repro.authoring import (
    InteractiveDocument, Scene, SceneObject, Section, TimelineEntry,
)
from repro.core import MitsSystem
from repro.database.persistence import restore, snapshot
from repro.navigator.navigator import SCHOOL_INTRODUCTION_REF
from repro.school.billing import BillingService
from repro.school.exercise import Exercise, MultipleChoiceQuestion, NumericQuestion


def deploy() -> MitsSystem:
    mits = MitsSystem(topology="ocrinet")
    center = mits.production.center
    assets = {
        "atm-intro-video": center.produce_video("atm-intro-video",
                                                seconds=2.0),
        "atm-notes": center.produce_text(
            "atm-notes", link_targets=["lib-cells", "lib-qos"]),
        "cells-doc": center.produce_text("cells-doc"),
        "qos-doc": center.produce_text("qos-doc"),
    }
    for media in assets.values():
        mits.publish_media(media)
    mits.publish_media(center.produce_video(SCHOOL_INTRODUCTION_REF,
                                            seconds=1.0))

    author = mits.add_author("author1", "atm-101", catalog=assets)
    scene = Scene(name="lecture", objects=[
        SceneObject(name="clip", kind="video",
                    content_ref="atm-intro-video"),
        SceneObject(name="notes", kind="text", content_ref="atm-notes",
                    position=(0, 300)),
        SceneObject(name="skip", kind="choice", label="Skip")])
    scene.timeline.add(TimelineEntry("clip", 0.0))
    scene.timeline.add(TimelineEntry("notes", 0.0, 2.0))
    scene.behavior.when_selected("skip", ("stop", "clip"))
    doc = InteractiveDocument("atm-101", title="ATM Networks")
    doc.add_section(Section(name="s1", scenes=[scene]))
    mits.wait(author.publish_courseware(
        author.editor.compile_imd(doc), courseware_id="atm-101",
        title="ATM Networks", program="networking",
        keywords=["networks/atm"], introduction_ref="atm-intro-video"))
    mits.wait(author.publish_course(
        course_code="ELG5376", name="ATM Networks", program="networking",
        courseware_id="atm-101"))
    for doc_id, ref in (("lib-cells", "cells-doc"), ("lib-qos", "qos-doc")):
        mits.wait(author.publish_library_doc(
            doc_id=doc_id, title=doc_id, media_kind="text",
            content_ref=ref, keywords=["networks/atm"]))

    service = mits.facilitator.service
    service.facilitator.teach(["atm", "cell"],
                              "An ATM cell is 53 octets: 5 header + 48 payload.")
    service.bulletin.post("school.announcements", "admin",
                          "Welcome to MIRL TeleSchool",
                          "New this term: ATM Networks (ELG5376).")
    service.exercises.add(Exercise(
        exercise_id="atm-quiz-1", course_code="ELG5376",
        title="Cells and rates", questions=[
            MultipleChoiceQuestion("ATM cell size?", ["48", "53", "64"], 1),
            NumericQuestion("Payload octets per cell?", 48),
        ]))
    mits.database.server.billing = BillingService()
    return mits


def main() -> None:
    mits = deploy()
    nav = mits.add_user("student-home").navigator

    print("== Fig 5.3: entry screen ==")
    print(nav.start())
    print("about:", nav.about())
    rx = nav.watch_school_introduction()
    mits.sim.run(until=mits.sim.now + 10)
    print(f"school introduction streamed: {len(rx.data)} bytes")

    print("\n== Fig 5.4: registration ==")
    nav.register("Ruiping W.", "Ottawa", "rw@mirl.example",
                 on_done=lambda p: print("student number:",
                                         p["student_number"]))
    mits.sim.run(until=mits.sim.now + 10)
    print("main screen:", nav.facilities())
    summaries = mits.wait(nav.client.list_courseware("networking"))
    rx = nav.course_introduction(summaries[0]["introduction_ref"])
    mits.sim.run(until=mits.sim.now + 30)
    print(f"introduction video streamed: {len(rx.data)} bytes "
          f"in {rx.finished_at - rx.first_chunk_at:.2f}s")
    mits.wait(nav.register_for_course("ELG5376"))

    print("\n== Fig 5.5: classroom ==")

    def on_ready(session):
        print("  loaded:", session.presenter.load_stats)
        print("  on screen:", session.presenter.visible())
        session.click("skip")
        session.add_bookmark("notes")
        print("  after skip:", session.presenter.visible())

    nav.enter_classroom("ELG5376", "atm-101", on_ready=on_ready)
    mits.sim.run(until=mits.sim.now + 60)
    position = nav.leave_classroom()
    mits.sim.run(until=mits.sim.now + 5)
    print(f"  resume position saved: {position:.2f}s")
    marks = mits.wait(nav.client.get_bookmarks(
        nav.student["student_number"], "atm-101"))
    print("  bookmarks kept:", marks)

    print("\n== Fig 5.6: profile update ==")
    nav.update_profile(address="125 Colonel By Dr")
    mits.sim.run(until=mits.sim.now + 5)
    print("  new address:", nav.student["address"])

    print("\n== Fig 5.7: library ==")
    docs = mits.wait(nav.browse_library())
    print("  documents:", [d["doc_id"] for d in docs])
    read = []
    nav.read_document("lib-cells", on_done=read.append)
    mits.sim.run(until=mits.sim.now + 30)
    print(f"  read lib-cells: {read[0]['bytes']} bytes, "
          f"links: {read[0].get('links', [])[:2]}")

    print("\n== bulletin, exercise, facilitator ==")
    posts = mits.wait(nav.read_bulletin("school.announcements"))
    print("  bulletin:", posts[0]["subject"])
    result = mits.wait(nav.take_exercise("atm-quiz-1", [1, 48]))
    print(f"  exercise score: {result['score']}/{result['max_score']}")
    answer = mits.wait(nav.ask_facilitator("how big is an ATM cell?"))
    print("  facilitator:", answer["answer"])
    forwarded = mits.wait(nav.ask_facilitator("when is the final exam?"))
    print("  facilitator:", forwarded["message"])
    service = mits.facilitator.service
    service.facilitator.answer_pending(
        lambda student, question: f"{student}: the exam is in week 13.")
    me = nav.student["student_number"]
    mail = mits.wait(nav.school.read_mail(me))
    print("  mailbox:", [(m["sender"], m["body"]) for m in mail])

    print("\n== text conference ==")
    members = mits.wait(nav.school.join_conference("common-room", me))
    print("  common-room members:", members)
    mits.wait(nav.school.say("common-room", me, "hello from home"))
    said = mits.wait(nav.school.transcript("common-room"))
    print("  transcript:", [m["body"] for m in said])

    bill = mits.database.server.billing.statement(me)
    print(f"\nbill: {bill['entries']} items, total {bill['total']:.2f}")

    nav.exit()
    nav.start()
    nav.login(me, on_done=lambda p: print("logged in again as", p["name"]),
              on_error=lambda e: print("login failed:", e))
    mits.sim.run(until=mits.sim.now + 5)
    nav.exit()
    print("\nsession trace:", nav.trace)
    print("db requests served:", mits.database.requests_served())

    print("\n== MEDIAFILE: the database saved and reloaded ==")
    saved = snapshot(mits.database.db)
    reloaded = restore(saved)
    print(f"  {len(saved)} bytes; student {me} after reload:",
          reloaded.get_student(me).registered_courses)


if __name__ == "__main__":
    main()
