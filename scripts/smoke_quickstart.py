#!/usr/bin/env python
"""Smoke test: run examples/quickstart.py end to end and assert the
deployment produced a non-empty, JSON-serialisable metrics dump, at
least one cross-site trace (navigator → transport → content server →
MHEG under a single trace_id), a streamed archive with telemetry
ticks and no watchdog alert, and a clean default-SLO verdict.

Run via ``make smoke`` (or directly with ``PYTHONPATH=src``); exits
non-zero on any failure, so it slots into CI after the unit suite.
"""

import json
import os
import sys

_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(_ROOT, "src"))
sys.path.insert(0, os.path.join(_ROOT, "examples"))

from quickstart import main  # noqa: E402

from repro.obs import SloMonitor, load_archive  # noqa: E402

#: span-name prefixes that must appear in one trace for it to count as
#: an end-to-end Course-On-Demand request
REQUIRED_LAYERS = {"navigator", "rpc", "db", "mheg"}


def _layer(span_name: str) -> str:
    return span_name.split(".", 1)[0].split(":", 1)[0]


def check_cross_site_trace(tracer) -> int:
    spans = tracer.spans
    assert spans, "tracing was enabled but no spans were recorded"
    by_trace = {}
    for span in spans:
        by_trace.setdefault(span.trace_id, []).append(span)
    for trace_id, group in sorted(by_trace.items()):
        layers = {_layer(s.name) for s in group}
        if not REQUIRED_LAYERS <= layers:
            continue
        # the tree must be connected: every non-root span's parent is
        # another span of the same trace
        ids = {s.span_id for s in group}
        roots = [s for s in group if s.parent_id is None]
        assert roots, f"trace {trace_id} has no root span"
        for s in group:
            assert s.parent_id is None or s.parent_id in ids, \
                f"span {s.name} of trace {trace_id} has a dangling parent"
        return trace_id
    raise AssertionError(
        f"no trace spans all of {sorted(REQUIRED_LAYERS)}; "
        f"saw {[sorted({_layer(s.name) for s in g}) for g in by_trace.values()]}")


def run() -> None:
    mits = main()
    snap = mits.snapshot()
    metrics = snap["metrics"]
    assert metrics, "metrics dump is empty"
    for component in ("simulator", "link", "vc", "connection", "mheg"):
        assert component in metrics, f"no {component!r} metrics recorded"
    events = metrics["simulator"]["events_run"][0]["value"]
    assert events > 0, "simulator recorded no events"
    delay_hists = metrics["vc"]["pdu_delay_seconds"]
    assert any(h["count"] > 0 for h in delay_hists), \
        "no per-VC delay samples recorded"

    trace_id = check_cross_site_trace(mits.sim.tracer)

    assert snap["timeseries"]["enabled"], \
        "telemetry sampler is off in the quickstart"
    archive = load_archive(mits.sink.path)
    assert archive.complete, archive.warning()
    assert archive.samples > 1, "sampler never ticked on the sim clock"
    sampled = {(s.component, s.name) for s in archive.timeseries}
    assert ("simulator", "events_run") in sampled, \
        "no event-rate series sampled"

    results = SloMonitor().evaluate(metrics)
    failures = [r.slo.name for r in results if not r.ok]
    assert not failures, f"default SLOs violated: {failures}"
    assert snap["slo"]["pass"], "snapshot SLO section disagrees"

    audit = snap["audit"]
    assert audit["checks"] > 0, "conservation audit ran no checks"
    assert audit["ok"], \
        f"conservation violations in the quickstart: {audit['violations']}"
    wd = archive.summary["watchdog"]
    assert wd["enabled"], "the quickstart archive was not judged"
    assert not wd["alerts"], f"watchdog alerts on a clean run: {wd['alerts']}"

    payload = json.dumps(snap)
    print(f"smoke ok: {events} events, {len(delay_hists)} VC delay "
          f"histograms, cross-site trace {trace_id} "
          f"({len(mits.sim.tracer.by_trace(trace_id))} spans), "
          f"{archive.samples} telemetry samples over "
          f"{len(archive.timeseries)} series, "
          f"{sum(1 for r in results if not r.skipped)} SLOs judged, "
          f"{audit['checks']} conservation checks clean, "
          f"snapshot {len(payload)} bytes")


if __name__ == "__main__":
    run()
