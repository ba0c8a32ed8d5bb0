"""Archive round-trip: stream a run to its archive, close it with
``dump_observability``, re-render from the file, and assert parity
with the live render (repro.obs.export)."""

import json
import os

import pytest

from repro.core.scenarios import build
from repro.obs.accounting import render_top
from repro.obs.dashboard import render_dashboard
from repro.obs.export import dump_observability
from repro.obs.report import (
    render_metrics_summary, render_slo_table, render_traces,
)
from repro.obs.sink import load_archive
from repro.obs.slo import SloMonitor


@pytest.fixture(scope="module")
def dumped(tmp_path_factory):
    """One quickstart run with accounting on, streamed and closed."""
    out = str(tmp_path_factory.mktemp("sidecars"))
    run = build("quickstart", accounting=True,
                stream=os.path.join(out, "obs_rt.jsonl"))
    run.run_to_horizon()
    written = dump_observability(run.mits, "rt", out)
    return run.mits, load_archive(written[0]), written


def canon(rows):
    """Live dicts normalised the way the archive writes them."""
    return json.loads(json.dumps(rows, sort_keys=True))


class TestSidecarSet:
    def test_all_four_sidecars_written(self, dumped):
        """Metrics, traces, time series and ledger: one archive."""
        _, archive, written = dumped
        assert [os.path.basename(p) for p in written] == ["obs_rt.jsonl"]
        assert archive.complete
        assert archive.metrics and archive.spans
        assert archive.timeseries
        assert archive.accounting["kinds"]

    def test_metrics_sidecar_embeds_a_clean_audit(self, dumped):
        _, archive, _ = dumped
        summary = archive.summary
        assert summary["audit"]["ok"] is True
        assert summary["audit"]["checks"] > 0
        assert summary["watchdog"]["alerts"] == []
        assert summary["slo"]["watchdog_alerts"] == 0


class TestReportParity:
    def test_metrics_summary_matches_live(self, dumped):
        mits, archive, _ = dumped
        live = mits.sim.metrics.report()
        assert render_metrics_summary(archive.metrics) \
            == render_metrics_summary(live)

    def test_slo_table_matches_live(self, dumped):
        mits, archive, _ = dumped
        monitor = SloMonitor()
        assert render_slo_table(monitor.evaluate(archive.metrics)) \
            == render_slo_table(monitor.evaluate(mits.sim.metrics.report()))

    def test_trace_render_matches_live(self, dumped):
        mits, archive, _ = dumped
        live_spans = canon([s.to_dict() for s in mits.sim.tracer.spans])
        live_events = canon([e.to_dict() for e in mits.sim.recorder.events])
        assert render_traces(archive.spans, archive.events, top=5) \
            == render_traces(live_spans, live_events, top=5)


class TestDashboardParity:
    def test_dashboard_matches_live(self, dumped):
        """Every series the dashboard plots ends on its instrument's
        live reading: the final tick at close is in the archive."""
        mits, archive, _ = dumped
        instruments = mits.sim.metrics._instruments
        assert {(s.component, s.name, tuple(sorted(s.labels.items())))
                for s in archive.timeseries} == set(instruments)
        for series in archive.timeseries:
            inst = instruments[(series.component, series.name,
                                tuple(sorted(series.labels.items())))]
            live = inst.count if series.kind == "histogram" else inst.value
            assert series.values[-1] == live
            assert series.times[-1] == archive.summary["sim_time"]
        out = render_dashboard(archive.timeseries, samples=archive.samples,
                               interval=archive.interval, width=40,
                               title="x")
        assert "event rate" in out


class TestTopParity:
    def test_top_matches_live(self, dumped):
        mits, archive, _ = dumped
        sim = mits.sim
        live = sim.ledger.snapshot(sim_time=sim.now)
        for sort in ("bytes", "drops", "residency"):
            assert render_top(archive.accounting, sort=sort, title="x") \
                == render_top(live, sort=sort, title="x")

    def test_accounting_sidecar_is_sorted_json(self, dumped):
        _, _, written = dumped
        with open(written[0]) as fh:
            lines = [line.rstrip("\n") for line in fh]
        ledgers = [line for line in lines if '"record": "ledger"' in line]
        assert ledgers
        data = json.loads(ledgers[-1])
        assert json.dumps(data, sort_keys=True) == ledgers[-1]
        assert data["enabled"] is True
        assert set(data["kinds"]) >= {"vc", "site", "stream", "link"}


class TestOverheadRoundTrip:
    """The wall-clock overhead table rides in the archive's ``wall``
    record, which only ``dump_observability`` writes."""

    def test_overhead_block_round_trips_in_metrics_sidecar(self, dumped):
        mits, archive, _ = dumped
        overhead = archive.overhead
        live = mits.meter.report()
        assert set(overhead) == set(live)
        assert overhead["obs_overhead_pct"] >= 0.0
        # components accrued before the dump are all accounted for
        assert set(overhead["components"]) <= set(live["components"])

    def test_default_run_has_no_overflow_key(self, dumped):
        """The telemetry block carries counts only, no reservoir key."""
        _, archive, _ = dumped
        assert "flight_overflow_kept" not in archive.summary["telemetry"]


def _overflowed_run(stream):
    """A streamed classroom whose span and flight-event rings have both
    evicted: each is overfilled after the scripted load."""
    run = build("classroom", tracing=True, accounting=True, stream=stream)
    run.run_to_horizon()
    mits = run.mits
    sim = mits.sim
    for i in range(sim.recorder._events.maxlen + 50):
        sim.recorder.record("test", "filler", seq=i)
    for i in range(sim.tracer._finished.maxlen + 50):
        sim.tracer.span("test.filler", seq=i).end()
    assert sim.recorder.dropped > 0
    assert sim.tracer.dropped > 0
    return mits


class TestOverflowRoundTrip:
    """Fixed rings bound the tracer's and the flight recorder's memory;
    what they evict survives in the streamed archive, whose ``fin``
    reports the truncation."""

    @pytest.fixture(scope="class")
    def overflowed(self, tmp_path_factory):
        out = str(tmp_path_factory.mktemp("overflow"))
        stream = os.path.join(out, "obs_ov.jsonl")
        streamed = _overflowed_run(stream)
        dump_observability(streamed, "ov", out)
        return streamed, load_archive(stream)

    def test_span_store_is_ring_bounded(self, overflowed):
        streamed, archive = overflowed
        tracer = streamed.sim.tracer
        assert len(tracer.spans) == tracer._finished.maxlen
        # the stream kept every span, evicted or not
        assert len(archive.spans) == len(tracer.spans) + tracer.dropped

    def test_event_ring_is_bounded(self, overflowed):
        streamed, _ = overflowed
        recorder = streamed.sim.recorder
        assert len(recorder.events) == recorder._events.maxlen
        assert recorder.recorded == len(recorder.events) + recorder.dropped

    def test_stream_carries_every_evicted_event(self, overflowed):
        streamed, archive = overflowed
        recorder = streamed.sim.recorder
        assert len(archive.events) == recorder.recorded
        # the evicted events are the oldest, so they come first; the
        # rest is exactly the live ring
        assert archive.events[recorder.dropped:] \
            == canon([e.to_dict() for e in recorder.events])

    def test_fin_reports_the_ring_evictions(self, overflowed):
        mits, archive = overflowed
        health = archive.summary["telemetry"]
        assert health["flight_dropped"] == mits.sim.recorder.dropped > 0
        assert health["tracer_dropped"] == mits.sim.tracer.dropped > 0
        assert "sampler_evictions" not in health

    def test_streamed_fin_matches_metrics_sidecar(self, overflowed):
        mits, archive = overflowed
        assert archive.summary["timeseries"] \
            == {"interval": mits.sampler.interval,
                "samples": mits.sampler.samples}
        assert archive.samples == mits.sampler.samples
        assert archive.summary["metrics"] == canon(mits.sim.metrics.report())

    def test_render_parity_flags_the_truncation(self, overflowed):
        from repro.obs.export import telemetry_health
        from repro.obs.report import render_telemetry_health

        mits, archive = overflowed
        streamed = render_telemetry_health(archive.summary["telemetry"])
        assert streamed == render_telemetry_health(telemetry_health(mits))
        assert "the tracer and flight-recorder rings were truncated; " \
            "the archive holds every span and event" in streamed
