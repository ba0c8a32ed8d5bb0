"""Tests for critical-path analysis (repro.obs.critical).

The adversarial shapes here — single spans, overlapping siblings,
fully-shadowed siblings, orphaned children — are exactly what sampled
archives produce, so the analyser must stay total over all of them:
segments always tile the root duration, nothing crashes, nothing is
double-charged.
"""

import json
import os

import pytest

from repro.core.scenarios import build
from repro.obs.critical import (
    analyze_trace, attribution, component_of, critical_segments, kind_of,
    render_attribution, render_critical_path,
    select_traces, tail_trace_ids,
)
from repro.obs.export import dump_observability
from repro.obs.sink import load_archive


def span(span_id, name, start, end, parent_id=None, trace_id=1):
    return {"span_id": span_id, "parent_id": parent_id,
            "trace_id": trace_id, "name": name, "start": start,
            "end": end, "duration": end - start, "attrs": {}}


def tiles(analysis):
    """Segments are start-ordered, non-overlapping, and sum to the
    root duration."""
    segs = analysis["segments"]
    total = sum(s["seconds"] for s in segs)
    assert total == pytest.approx(analysis["duration"])
    for prev, nxt in zip(segs, segs[1:]):
        assert nxt["start"] >= prev["end"] - 1e-9


class TestNames:
    def test_component_of(self):
        assert component_of("rpc.client:GetContent") == "rpc"
        assert component_of("streaming.send") == "streaming"
        assert component_of("mheg") == "mheg"

    def test_kind_of_pools_methods(self):
        assert kind_of("rpc.client:GetContent") == "rpc.client"
        assert kind_of("rpc.client:Register") == "rpc.client"
        assert kind_of("streaming.send") == "streaming.send"


class TestSingleSpan:
    def test_trivial_trace(self):
        a = analyze_trace([span(1, "rpc.client:Get", 0.0, 2.0)])
        assert a["root"] == "rpc.client:Get"
        assert a["duration"] == pytest.approx(2.0)
        assert a["path_span_ids"] == [1]
        assert a["self_time"][1] == pytest.approx(2.0)
        assert a["slack"][1] == 0.0
        assert a["by_component"]["rpc"]["share"] == pytest.approx(1.0)
        tiles(a)

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            analyze_trace([])


class TestSequentialChildren:
    def test_path_walks_both_legs(self):
        spans = [span(1, "navigator.enter", 0.0, 10.0),
                 span(2, "rpc.client:A", 0.0, 4.0, parent_id=1),
                 span(3, "rpc.client:B", 4.0, 10.0, parent_id=1)]
        a = analyze_trace(spans)
        tiles(a)
        assert set(a["path_span_ids"]) == {2, 3}
        # the parent is fully covered by its children: no self-time,
        # no path charge
        assert a["self_time"][1] == pytest.approx(0.0)
        assert a["by_component"]["rpc"]["seconds"] == pytest.approx(10.0)

    def test_gap_charged_to_parent(self):
        spans = [span(1, "navigator.enter", 0.0, 10.0),
                 span(2, "rpc.client:A", 0.0, 3.0, parent_id=1),
                 span(3, "rpc.client:B", 5.0, 10.0, parent_id=1)]
        a = analyze_trace(spans)
        tiles(a)
        # the [3, 5) gap between the legs is the parent's own work
        assert a["self_time"][1] == pytest.approx(2.0)
        parent_secs = sum(s["seconds"] for s in a["segments"]
                          if s["span_id"] == 1)
        assert parent_secs == pytest.approx(2.0)


class TestOverlappingSiblings:
    def test_later_finisher_wins_the_overlap(self):
        spans = [span(1, "root.r", 0.0, 10.0),
                 span(2, "work.a", 0.0, 6.0, parent_id=1),
                 span(3, "work.b", 4.0, 10.0, parent_id=1)]
        a = analyze_trace(spans)
        tiles(a)
        # b blocks [4, 10); a is clipped to its pre-overlap [0, 4)
        a_secs = sum(s["seconds"] for s in a["segments"]
                     if s["span_id"] == 2)
        b_secs = sum(s["seconds"] for s in a["segments"]
                     if s["span_id"] == 3)
        assert a_secs == pytest.approx(4.0)
        assert b_secs == pytest.approx(6.0)

    def test_shadowed_sibling_contributes_nothing(self):
        spans = [span(1, "root.r", 0.0, 10.0),
                 span(2, "work.a", 2.0, 9.0, parent_id=1),
                 span(3, "work.b", 3.0, 8.0, parent_id=1)]
        a = analyze_trace(spans)
        tiles(a)
        assert 3 not in a["path_span_ids"]
        # but its slack is visible: it could run 1s longer before
        # delaying the last finisher's parent
        assert a["slack"][3] == pytest.approx(2.0)

    def test_slack_clamped_for_overrunning_child(self):
        spans = [span(1, "root.r", 0.0, 10.0),
                 span(2, "work.late", 8.0, 12.0, parent_id=1)]
        a = analyze_trace(spans)
        assert a["slack"][2] == 0.0


class TestOrphans:
    def test_missing_parent_becomes_root(self):
        spans = [span(1, "rpc.server", 0.0, 5.0),
                 span(2, "streaming.send", 0.0, 7.0, parent_id=99)]
        a = analyze_trace(spans)
        # the longest orphan anchors the analysis ...
        assert a["root"] == "streaming.send"
        assert a["duration"] == pytest.approx(7.0)
        # ... and the other root is reported, not silently dropped
        assert [r["name"] for r in a["other_roots"]] == ["rpc.server"]
        tiles(a)

    def test_orphan_keeps_its_children(self):
        spans = [span(2, "rpc.server:Get", 1.0, 6.0, parent_id=99),
                 span(3, "db.get_content", 2.0, 5.0, parent_id=2)]
        a = analyze_trace(spans)
        assert a["root"] == "rpc.server:Get"
        assert set(a["path_span_ids"]) == {2, 3}
        tiles(a)

    def test_render_notes_orphaned_subtrees(self):
        spans = [span(1, "rpc.server", 0.0, 5.0),
                 span(2, "streaming.send", 0.0, 7.0, parent_id=99)]
        assert "orphaned subtrees" in render_critical_path(spans)


class TestTailExemplars:
    def test_p99_selects_the_slowest(self):
        spans = [span(i, "rpc.client", 0.0, float(i), trace_id=i)
                 for i in range(1, 101)]
        # nearest-rank p99 of 100 samples is the 99th: two exemplars
        assert tail_trace_ids(spans, 0.99) == [99, 100]

    def test_always_at_least_one(self):
        spans = [span(1, "rpc.client", 0.0, 1.0, trace_id=1)]
        assert tail_trace_ids(spans, 0.99) == [1]

    def test_quantile_validated(self):
        with pytest.raises(ValueError):
            tail_trace_ids([], 1.5)

    def test_select_unknown_trace_raises(self):
        spans = [span(1, "rpc.client", 0.0, 1.0, trace_id=1)]
        with pytest.raises(ValueError):
            select_traces(spans, trace_id=42)


class TestAttribution:
    def test_aggregates_across_traces(self):
        spans = [span(1, "rpc.client", 0.0, 2.0, trace_id=1),
                 span(2, "streaming.send", 0.0, 8.0, trace_id=2)]
        attr = attribution(spans)
        assert attr["traces"] == 2
        assert attr["path_seconds"] == pytest.approx(10.0)
        assert attr["by_component"]["streaming"]["share"] \
            == pytest.approx(0.8)

    def test_trace_id_filter(self):
        spans = [span(1, "rpc.client", 0.0, 2.0, trace_id=1),
                 span(2, "streaming.send", 0.0, 8.0, trace_id=2)]
        attr = attribution([s for s in spans if s["trace_id"] == 1])
        assert attr["traces"] == 1
        assert "streaming" not in attr["by_component"]

    def test_render_handles_no_spans(self):
        assert "no spans" in render_attribution([])


@pytest.fixture(scope="module")
def quickstart_archive(tmp_path_factory):
    """One quickstart run archived as it streamed."""
    out = str(tmp_path_factory.mktemp("critical"))
    obs_path = os.path.join(out, "obs_q.jsonl")
    run = build("quickstart", stream=obs_path)
    run.run_to_horizon()
    dump_observability(run.mits, "q", out)
    return run.mits, out, obs_path


class TestArchiveParity:
    def test_streamed_and_monolithic_agree(self, quickstart_archive):
        """The spans streamed as they ended attribute like the tracer's
        in-memory ring, which holds every quickstart span."""
        mits, _, obs_path = quickstart_archive
        held = json.loads(json.dumps(
            [s.to_dict() for s in mits.sim.tracer.spans], sort_keys=True))
        streamed = load_archive(obs_path).spans
        assert mits.sim.tracer.dropped == 0
        assert attribution(held) == attribution(streamed)

    def test_live_tracer_matches_archive(self, quickstart_archive):
        """The ``fin`` block, attributed from the tracer's ring at close,
        equals the attribution of the spans streamed as they ended."""
        _, _, obs_path = quickstart_archive
        archive = load_archive(obs_path)
        assert archive.summary["critical"] == attribution(archive.spans)

    def test_tracer_critical_single_trace(self, quickstart_archive):
        mits, _, _ = quickstart_archive
        tid = mits.sim.tracer.spans[0].trace_id
        analysis = analyze_trace([s.to_dict() for s in mits.sim.tracer.spans
                                  if s.trace_id == tid])
        assert analysis["trace_id"] == tid


class TestClassroomAttribution:
    """Acceptance: the component attribution on the classroom archive
    must show the streaming cell path dominating end-to-end latency."""

    def test_streaming_dominates(self):
        run = build("classroom")
        run.run_to_horizon()
        attr = attribution(
            [s.to_dict() for s in run.mits.sim.tracer.spans])
        ranked = sorted(attr["by_component"].items(),
                        key=lambda kv: kv[1]["seconds"], reverse=True)
        assert ranked[0][0] == "streaming"
        assert ranked[0][1]["share"] > 0.5
