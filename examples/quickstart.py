#!/usr/bin/env python
"""Quickstart: author a tiny course, publish it, and take it on demand.

This walks the whole MITS pipeline in ~60 lines:

1. deploy the five sites over a simulated ATM campus network;
2. the media production center synthesises and publishes assets;
3. an author site compiles an interactive multimedia document into an
   MHEG container and publishes it as a Course-On-Demand;
4. a student registers at the TeleSchool and takes the course, with
   content streamed from the database at presentation time.

The run streams its observability archive to ``obs_quickstart.jsonl``
in the system temporary directory.

Run:  python examples/quickstart.py
"""

import os
import tempfile

from repro.authoring import (
    InteractiveDocument, Scene, SceneObject, Section, TimelineEntry,
)
from repro.core import MitsSystem
from repro.obs.export import dump_observability


def main() -> MitsSystem:
    # 1. deploy (production, author, database, facilitator, user sites)
    # with request tracing on, so every cross-site flow leaves a span
    # tree behind, streamed with the telemetry ticks to the run's archive
    out_dir = tempfile.gettempdir()
    mits = MitsSystem(topology="star", tracing=True,
                      stream=os.path.join(out_dir, "obs_quickstart.jsonl"))
    print("deployed sites:", mits.snapshot()["sites"])

    # 2. produce and publish media
    assets = mits.produce_standard_assets("atm", seconds=2.0)
    print("published assets:",
          {name: f"{m.size} bytes" for name, m in assets.items()})

    # 3. author a one-scene course and publish it
    author = mits.add_author("author1", "atm-101", catalog=assets)
    scene = Scene(name="welcome", objects=[
        SceneObject(name="clip", kind="video",
                    content_ref="atm-intro-video"),
        SceneObject(name="notes", kind="text", content_ref="atm-notes",
                    position=(0, 300)),
        SceneObject(name="skip", kind="choice", label="Skip the video"),
    ])
    scene.timeline.add(TimelineEntry("clip", 0.0))
    scene.timeline.add(TimelineEntry("notes", 0.5, 1.5))
    scene.behavior.when_selected("skip", ("stop", "clip"))
    course = InteractiveDocument("atm-101", title="ATM Networks 101")
    course.add_section(Section(name="intro", scenes=[scene]))

    compiled = author.editor.compile_imd(course)
    print(f"compiled container: {len(compiled.encode())} bytes, "
          f"{len(compiled.container.objects)} MHEG objects")
    mits.wait(author.publish_courseware(
        compiled, courseware_id="atm-101", title="ATM Networks 101",
        program="networking", keywords=["networks/atm"],
        introduction_ref="atm-intro-video"))
    mits.wait(author.publish_course(
        course_code="ELG5376", name="ATM Networks", program="networking",
        courseware_id="atm-101"))

    # 4. a student registers and takes the course on demand
    nav = mits.add_user("user1").navigator
    nav.start()
    nav.register("Ada Lovelace", "1 Loop Road")
    mits.sim.run(until=mits.sim.now + 5)
    print("registered as", nav.student["student_number"])
    mits.wait(nav.register_for_course("ELG5376"))

    def on_ready(session):
        print(f"course loaded in {session.presenter.load_stats['load_time']:.3f}s "
              f"({session.presenter.load_stats['bytes']} bytes streamed)")
        print("on screen:", session.presenter.visible())
        print("clickable:", session.presenter.clickable())
        session.click("skip")
        print("after skip:", session.presenter.visible())

    nav.enter_classroom("ELG5376", "atm-101", on_ready=on_ready)
    mits.sim.run(until=mits.sim.now + 30)
    position = nav.leave_classroom()
    mits.sim.run(until=mits.sim.now + 2)
    print(f"left the classroom at position {position:.2f}s "
          "(saved for resume)")
    print("school statistics:", mits.database.db.statistics())
    (path,) = dump_observability(mits, "quickstart", out_dir)
    print(f"archive: {path} (render with `python -m repro.obs report`)")
    return mits


if __name__ == "__main__":
    main()
