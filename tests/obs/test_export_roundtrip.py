"""Archive round-trip: archive a finished run through a late-attached
sink, re-render from the file, and assert parity with the live render
(repro.obs.export)."""

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
    """One quickstart run with accounting on, archived after the run."""
    out = str(tmp_path_factory.mktemp("sidecars"))
    run = build("quickstart", accounting=True)
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
        assert archive.timeseries["series"]
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
        mits, archive, _ = dumped
        archived = render_dashboard(archive.timeseries, width=40,
                                    title="x")
        live = render_dashboard(mits.sampler, width=40, title="x")
        assert archived == live


class TestTopParity:
    def test_top_matches_live(self, dumped):
        mits, archive, _ = dumped
        sim = mits.sim
        live = sim.ledger.snapshot(sim_time=sim.now)
        for sort in ("bytes", "drops", "residency"):
            assert render_top(archive.accounting, sort=sort, title="x") \
                == render_top(live, sort=sort, title="x")

    def test_accounting_reconciles_with_registry(self, dumped):
        mits, _, _ = dumped
        assert mits.sim.ledger.reconcile(mits.sim.metrics) == []

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
        """No policy ⇒ the telemetry block keeps its historical shape."""
        _, archive, _ = dumped
        assert "flight_overflow_kept" not in archive.summary["telemetry"]


def _overflowed_run(stream=None):
    from repro.obs.sampling import SamplingPolicy

    run = build("quickstart",
                sampling=SamplingPolicy(event_reservoir=4, seed=3),
                stream=stream)
    run.run_to_horizon()
    # force ring evictions: the reservoir only salvages once the
    # flight ring is full
    recorder = run.mits.sim.recorder
    for i in range(recorder._events.maxlen + 50):
        recorder.record("test", "filler", seq=i)
    assert recorder.dropped > 0
    assert len(recorder._overflow) > 0
    return run.mits


class TestOverflowRoundTrip:
    """Ring-evicted events salvaged by the overflow reservoir must
    survive BOTH archive paths: a late-attached sink and a stream."""

    @pytest.fixture(scope="class")
    def overflowed(self, tmp_path_factory):
        out = str(tmp_path_factory.mktemp("overflow"))
        stream = os.path.join(out, "obs_stream.jsonl")
        streamed = _overflowed_run(stream)
        streamed.sink.close()
        mits = _overflowed_run()
        (path,) = dump_observability(mits, "ov", out)
        return mits, load_archive(path), stream

    def test_metrics_sidecar_reports_salvaged_count(self, overflowed):
        mits, archive, _ = overflowed
        health = archive.summary["telemetry"]
        assert health["flight_overflow_kept"] \
            == len(mits.sim.recorder._overflow)
        assert health["flight_overflow_kept"] > 0
        assert health["flight_dropped"] == mits.sim.recorder.dropped

    def test_streamed_fin_matches_metrics_sidecar(self, overflowed):
        _, archive, stream = overflowed
        streamed = load_archive(stream)
        assert streamed.summary["telemetry"] \
            == archive.summary["telemetry"]
        # a plain-closed stream stays wall-clock-free
        assert '"overhead"' not in open(stream).read()

    def test_render_parity_shows_the_salvage_line(self, overflowed):
        from repro.obs.export import telemetry_health
        from repro.obs.report import render_telemetry_health

        mits, archive, _ = overflowed
        archived = render_telemetry_health(archive.summary["telemetry"])
        assert archived == render_telemetry_health(telemetry_health(mits))
        assert "overflow reservoir" in archived
        assert "salvaged" in archived

    def test_trace_sidecar_carries_the_salvaged_events(self, overflowed):
        mits, archive, _ = overflowed
        recorder = mits.sim.recorder
        assert len(archive.events) \
            == len(recorder._overflow) + len(recorder.events)
        # reservoir events are the oldest: written first, so a reader
        # sees (salvaged, then live ring) in record order
        salvaged = archive.events[:len(recorder._overflow)]
        assert salvaged \
            == canon([e.to_dict() for e in recorder.overflow])
