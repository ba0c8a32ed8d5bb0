"""Tests for the anomaly watchdog (repro.obs.watchdog)."""

from types import SimpleNamespace

from repro.atm.simulator import Simulator
from repro.obs.slo import SloMonitor
from repro.obs.watchdog import (
    DEFAULT_DETECTORS, DROP_WINDOW, SILENT_WINDOW, STALL_LIMIT, STUCK_WINDOW,
    Watchdog,
)


def _fake_link(label="a->sw0", queued=0, transmitted=0, drops=0):
    stats = SimpleNamespace(transmitted=transmitted,
                            dropped_overflow=drops, dropped_errors=0,
                            dropped_down=0)
    return SimpleNamespace(_label=label, queue_length=queued, stats=stats)


def _fake_player(name="p1", received=0, first_arrival=None,
                 stall_started=None, buffer=(), finished=False):
    return SimpleNamespace(
        name=name, finished=finished, _first_arrival=first_arrival,
        _stall_started=stall_started, _buffer=dict.fromkeys(buffer),
        _next_frame=0, stats=SimpleNamespace(frames_received=received))


def _network(*links):
    return SimpleNamespace(links={lk._label: lk for lk in links})


class TestStuckQueue:
    def test_fires_after_window_of_no_progress(self):
        sim = Simulator()
        link = _fake_link(queued=5)
        w = Watchdog(sim, network=_network(link))
        for i in range(STUCK_WINDOW + 2):
            w.tick(float(i))
        assert len(w.alerts) == 1
        alert = w.alerts[0]
        assert alert["detector"] == "stuck_queue"
        assert alert["severity"] == "error"
        assert alert["entity"] == "a->sw0"
        assert alert["queued"] == 5

    def test_progress_keeps_it_quiet(self):
        sim = Simulator()
        link = _fake_link(queued=5)
        w = Watchdog(sim, network=_network(link))
        for i in range(STUCK_WINDOW + 5):
            link.stats.transmitted += 1  # the queue is draining
            w.tick(float(i))
        assert w.alerts == []

    def test_episode_dedup_and_realert_after_recovery(self):
        sim = Simulator()
        link = _fake_link(queued=5)
        w = Watchdog(sim, network=_network(link))
        first = STUCK_WINDOW + 6
        for i in range(first):
            w.tick(float(i))
        assert len(w.alerts) == 1  # persists, but alerts once
        assert w.active == ["stuck_queue:a->sw0"]
        # recovery: queue drains, episode clears
        link.queue_length = 0
        for i in range(first, first + 4):
            w.tick(float(i))
        assert w.active == []
        # second episode alerts again
        link.queue_length = 7
        for i in range(first + 4, first + 4 + STUCK_WINDOW + 2):
            w.tick(float(i))
        assert len(w.alerts) == 2


class TestRisingDropRate:
    def test_fires_on_strictly_climbing_drops(self):
        sim = Simulator()
        link = _fake_link()
        w = Watchdog(sim, network=_network(link))
        for i in range(DROP_WINDOW + 3):
            link.stats.dropped_overflow += 2
            link.stats.transmitted += 1  # not stuck, just lossy
            w.tick(float(i))
        kinds = {a["detector"] for a in w.alerts}
        assert kinds == {"rising_drop_rate"}
        assert w.alerts[0]["severity"] == "warning"

    def test_flat_drops_stay_quiet(self):
        sim = Simulator()
        link = _fake_link(drops=100)
        w = Watchdog(sim, network=_network(link))
        for i in range(DROP_WINDOW + 3):
            link.stats.transmitted += 1
            w.tick(float(i))
        assert w.alerts == []


class TestSilentStream:
    def test_started_then_silent_stream_fires(self):
        sim = Simulator()
        player = _fake_player(received=10, first_arrival=1.0,
                              stall_started=2.0)
        sim.register_entity("player", player)
        w = Watchdog(sim)
        for i in range(SILENT_WINDOW + 3):
            w.tick(float(i))
        assert any(a["detector"] == "silent_stream" for a in w.alerts)

    def test_never_started_stream_is_ignored(self):
        sim = Simulator()
        sim.register_entity("player", _fake_player(received=0))
        w = Watchdog(sim)
        for i in range(SILENT_WINDOW + 3):
            w.tick(float(i))
        assert w.alerts == []

    def test_finished_stream_is_ignored(self):
        sim = Simulator()
        sim.register_entity("player", _fake_player(
            received=10, first_arrival=1.0, finished=True))
        w = Watchdog(sim)
        for i in range(SILENT_WINDOW + 3):
            w.tick(float(i))
        assert w.alerts == []


class TestClockStall:
    def test_fires_past_the_stall_limit(self):
        sim = Simulator()
        sim.register_entity("player", _fake_player(
            received=5, first_arrival=0.0, stall_started=0.0,
            buffer=(3, 4)))
        w = Watchdog(sim)
        w.tick(STALL_LIMIT)
        assert w.alerts == []  # stalled exactly the limit
        w.tick(STALL_LIMIT + 1.0)
        stalls = [a for a in w.alerts if a["detector"] == "clock_stall"]
        assert len(stalls) == 1
        assert stalls[0]["stalled_for"] == STALL_LIMIT + 1.0


class TestPlumbing:
    def test_alerts_land_in_the_flight_recorder(self):
        sim = Simulator()
        link = _fake_link(queued=5)
        w = Watchdog(sim, network=_network(link))
        for i in range(STUCK_WINDOW + 3):
            w.tick(float(i))
        events = sim.recorder.by_kind("stuck_queue")
        assert events
        assert events[0].component == "watchdog"
        assert events[0].severity == "error"

    def test_same_instant_tick_is_ignored(self):
        sim = Simulator()
        link = _fake_link(queued=5)
        w = Watchdog(sim, network=_network(link))
        for i in range(3):
            w.tick(float(i))
            w.tick(float(i))  # snapshot() flush re-sample
        # one observation per instant
        _, hist = w._link_state["a->sw0"]
        assert len(hist) == 3

    def test_attach_registers_a_sampler_listener(self):
        from repro.obs.timeseries import TelemetrySampler
        sim = Simulator()
        sampler = TelemetrySampler(sim)
        w = Watchdog(sim).attach(sampler)
        assert w.tick in sampler._listeners

    def test_snapshot_shape(self):
        sim = Simulator()
        w = Watchdog(sim)
        snap = w.snapshot()
        assert snap["enabled"]
        assert len(snap["detectors"]) == len(DEFAULT_DETECTORS)
        assert snap["alerts"] == [] and snap["active"] == []


class TestSloEscalation:
    def _clean_report(self):
        from repro.obs.metrics import MetricsRegistry
        reg = MetricsRegistry()
        reg.counter("link", "drops_total", link="l").value += 0
        return reg.report()

    def test_alerts_demote_ok_to_degraded(self):
        report = self._clean_report()
        monitor = SloMonitor()
        clean = monitor.summary(report, watchdog_alerts=[])
        assert clean["verdict"] == "ok"
        assert clean["watchdog_alerts"] == 0
        alerted = monitor.summary(
            report, watchdog_alerts=[{"detector": "stuck_queue"}])
        assert alerted["verdict"] == "degraded"
        assert alerted["pass"] is True  # degraded, never failed
        assert alerted["watchdog_alerts"] == 1

    def test_default_path_is_unchanged(self):
        summary = SloMonitor().summary(self._clean_report())
        assert summary["verdict"] == "ok"
        assert "watchdog_alerts" not in summary
