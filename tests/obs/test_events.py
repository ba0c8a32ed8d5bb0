"""Tests for the flight recorder."""

import json

import pytest

from repro.atm.simulator import Simulator
from repro.obs import FlightRecorder
from repro.obs.events import CAPACITY


class TestRecording:
    def test_events_stamp_the_injected_clock(self):
        t = [0.0]
        rec = FlightRecorder(clock=lambda: t[0])
        rec.record("atm", "cell_drop", link="a->b")
        t[0] = 2.5
        rec.record("transport", "retransmit", severity="warning", seq=4)
        first, second = rec.events
        assert first.time == 0.0
        assert first.component == "atm"
        assert first.kind == "cell_drop"
        assert first.attrs == {"link": "a->b"}
        assert second.time == 2.5
        assert second.severity == "warning"

    def test_unknown_severity_rejected(self):
        rec = FlightRecorder(clock=lambda: 0.0)
        with pytest.raises(ValueError):
            rec.record("x", "y", severity="catastrophic")


class TestRing:
    def test_capacity_bounds_memory_and_counts_evictions(self):
        rec = FlightRecorder(clock=lambda: 0.0)
        for i in range(CAPACITY + 7):
            rec.record("x", "tick", i=i)
        assert len(rec.events) == CAPACITY
        assert rec.recorded == CAPACITY + 7
        assert rec.dropped == 7
        # newest events survive
        assert [e.attrs["i"] for e in rec.events] == \
            list(range(7, CAPACITY + 7))

    def test_sink_sees_every_evicted_event(self):
        streamed = []
        rec = FlightRecorder(clock=lambda: 0.0)
        rec.sink = streamed.append
        for i in range(CAPACITY + 6):
            rec.record("x", "tick", i=i)
        assert len(rec.events) == CAPACITY
        assert [e.attrs["i"] for e in streamed] == list(range(CAPACITY + 6))
        assert streamed[rec.dropped:] == rec.events


class TestQueries:
    def test_by_kind_and_counts(self):
        rec = FlightRecorder(clock=lambda: 0.0)
        for _ in range(3):
            rec.record("atm", "cell_drop")
        rec.record("atm", "vc_close")
        assert len(rec.by_kind("cell_drop")) == 3
        assert rec.counts() == {"cell_drop": 3, "vc_close": 1}


class TestExport:
    def test_snapshot_is_json_stable(self):
        rec = FlightRecorder(clock=lambda: 1.5)
        rec.record("mheg", "link_fired", trace_id=3, link="L1")
        snap = rec.snapshot()
        assert set(snap) == {"recorded", "dropped", "counts", "events"}
        assert snap["recorded"] == 1
        assert snap["counts"] == {"link_fired": 1}
        [ev] = snap["events"]
        assert ev == {"time": 1.5, "component": "mheg",
                      "kind": "link_fired", "severity": "info",
                      "trace_id": 3, "attrs": {"link": "L1"}}
        json.dumps(snap)  # must not raise


class TestSimulatorIntegration:
    def test_simulator_owns_a_recorder_on_sim_time(self):
        sim = Simulator()
        sim.schedule(2.0, lambda: sim.recorder.record("test", "tick"))
        sim.run()
        [ev] = sim.recorder.events
        assert ev.time == 2.0
