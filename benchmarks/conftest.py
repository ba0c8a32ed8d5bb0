"""Shared builders for the experiment harness.

Every table/figure experiment in EXPERIMENTS.md starts from one of
these: a deterministic media catalog, a reference hypermedia document,
a reference interactive multimedia document, and a deployed MITS
system.  Fixtures are function-scoped where mutation matters and
module-scoped where construction is expensive and read-only.
"""

from __future__ import annotations

import os

import pytest

from repro.authoring import (
    CoursewareEditor, HyperDocument, InteractiveDocument, NavigationLink,
    Page, PageItem, Scene, SceneObject, Section, TimelineEntry,
)
from repro.core import MitsSystem
from repro.media.production import MediaProductionCenter
from repro.obs.export import dump_observability


def build_catalog(seed: int = 1996):
    center = MediaProductionCenter(seed=seed)
    return {
        "intro-video": center.produce_video("intro-video", seconds=2.0),
        "lecture-audio": center.produce_audio("lecture-audio", seconds=2.0),
        "diagram": center.produce_image("diagram"),
        "notes": center.produce_text("notes"),
        "summary": center.produce_text("summary"),
    }


def build_hyperdoc() -> HyperDocument:
    doc = HyperDocument("bench-lib", title="Benchmark hypermedia course")
    doc.add_page(Page(name="start", items=[
        PageItem(name="body", kind="text", content_ref="notes"),
        PageItem(name="pic", kind="image", content_ref="diagram",
                 position=(320, 0)),
        PageItem(name="go-detail", kind="choice", label="Details"),
        PageItem(name="go-quiz", kind="choice", label="Quiz"),
    ]))
    doc.add_page(Page(name="detail", items=[
        PageItem(name="detail-text", kind="text", content_ref="summary"),
        PageItem(name="back", kind="choice", label="Back"),
    ]))
    doc.add_page(Page(name="quiz", items=[
        PageItem(name="question", kind="text", content_ref="notes"),
        PageItem(name="back", kind="choice", label="Back"),
    ]))
    doc.add_link(NavigationLink("start", "go-detail", "detail"))
    doc.add_link(NavigationLink("start", "go-quiz", "quiz"))
    doc.add_link(NavigationLink("detail", "back", "start"))
    doc.add_link(NavigationLink("quiz", "back", "start"))
    return doc


def build_imd() -> InteractiveDocument:
    doc = InteractiveDocument("bench-imd", title="Benchmark IMD course")
    intro = Scene(name="intro", objects=[
        SceneObject(name="text1", kind="text", content_ref="notes"),
        SceneObject(name="image1", kind="image", content_ref="diagram",
                    position=(320, 0)),
        SceneObject(name="audio1", kind="audio",
                    content_ref="lecture-audio"),
        SceneObject(name="choice1", kind="choice", label="Show image now"),
        SceneObject(name="stop-btn", kind="choice", label="Stop"),
    ])
    intro.timeline.add(TimelineEntry("text1", 0.0, 2.0,
                                     preempted_by="choice1",
                                     preempt_next="image1"))
    intro.timeline.add(TimelineEntry("image1", 2.0, 2.0))
    intro.timeline.add(TimelineEntry("audio1", 0.0, 4.0))
    intro.behavior.when_selected("stop-btn", ("stop", "audio1"),
                                 ("stop", "text1"), ("stop", "image1"))
    video_scene = Scene(name="clip", objects=[
        SceneObject(name="video1", kind="video", content_ref="intro-video")])
    video_scene.timeline.add(TimelineEntry("video1", 0.0))
    doc.add_section(Section(name="s1", scenes=[intro]))
    doc.add_section(Section(name="s2", scenes=[video_scene]))
    return doc


@pytest.fixture(scope="module")
def catalog():
    return build_catalog()


@pytest.fixture(scope="module")
def compiled_hyperdoc(catalog):
    return CoursewareEditor("bench-lib", catalog=catalog) \
        .compile_hyperdoc(build_hyperdoc())


@pytest.fixture(scope="module")
def compiled_imd(catalog):
    return CoursewareEditor("bench-imd", catalog=catalog) \
        .compile_imd(build_imd())


def emit_metrics(mits: MitsSystem, name: str) -> str:
    """Archive the deployment's observability; returns the path.

    Written next to the pytest-benchmark output (override the
    directory with ``BENCH_METRICS_DIR``) as ``obs_<name>.jsonl`` —
    metrics, span trees, flight-recorder events, sampler rings and
    ledger in one archive — so per-layer numbers stay comparable
    across PRs and ``python -m repro.obs report`` / ``dashboard`` /
    ``top`` can render any benchmark's run.
    """
    out_dir = os.environ.get(
        "BENCH_METRICS_DIR",
        os.path.join(os.path.dirname(os.path.abspath(__file__)), "out"))
    return dump_observability(mits, name, out_dir)[0]


def deploy_mits(topology: str = "star", **kwargs) -> MitsSystem:
    """A deployed system with the standard course published.

    Tracing is on so every scenario's archive has cross-site span
    trees to render.
    """
    kwargs.setdefault("tracing", True)
    mits = MitsSystem(topology=topology, **kwargs)
    catalog = build_catalog()
    for media in catalog.values():
        mits.publish_media(media)
    author = mits.add_author("author1", "bench-imd", catalog=catalog)
    compiled = author.editor.compile_imd(build_imd())
    mits.wait(author.publish_courseware(
        compiled, courseware_id="bench-imd", title="Benchmark course",
        program="bench", keywords=["bench"],
        introduction_ref="intro-video"))
    mits.wait(author.publish_course(
        course_code="B101", name="Benchmark course", program="bench",
        courseware_id="bench-imd"))
    return mits
