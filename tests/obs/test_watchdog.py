"""Tests for the anomaly watchdog (repro.obs.watchdog), judged from
hand-made telemetry series as an archive loads them."""

import json

from repro.obs.sink import load_archive
from repro.obs.slo import SloMonitor, with_alerts
from repro.obs.timeseries import Series
from repro.obs.watchdog import (
    DEFAULT_DETECTORS, DROP_WINDOW, SILENT_WINDOW, STALL_LIMIT, STUCK_WINDOW,
    judge,
)


def _series(component, entity, name, values, times=None, kind="counter"):
    s = Series(component, name, {component: entity}, kind)
    for i, value in enumerate(values):
        s.record(float(i) if times is None else times[i], value, None, None)
    return s


def _link(queued, transmitted=None, drops=None, label="a->sw0"):
    """One link's three series, a point per tick."""
    n = len(queued)
    return [
        _series("link", label, "queue_occupancy", queued, kind="gauge"),
        _series("link", label, "cells_transmitted", transmitted or [0] * n),
        _series("link", label, "drops_total", drops or [0] * n),
    ]


def _player(received, *, finished=None, stalled=None, buffered=None,
            times=None, name="p1"):
    """One player's four series, a point per tick."""
    n = len(received)
    return [
        _series("player", name, "frames_received", received, times),
        _series("player", name, "finished", finished or [False] * n, times),
        _series("player", name, "stall_seconds", stalled or [0.0] * n,
                times),
        _series("player", name, "buffer_frames", buffered or [0.0] * n,
                times, kind="gauge"),
    ]


class TestStuckQueue:
    def test_fires_after_window_of_no_progress(self):
        alerts = judge(_link([5] * (STUCK_WINDOW + 2)))["alerts"]
        assert len(alerts) == 1
        alert = alerts[0]
        assert alert["detector"] == "stuck_queue"
        assert alert["severity"] == "error"
        assert alert["entity"] == "a->sw0"
        assert alert["queued"] == 5
        assert alert["time"] == float(STUCK_WINDOW)

    def test_progress_keeps_it_quiet(self):
        n = STUCK_WINDOW + 5
        # the queue is draining
        assert judge(_link([5] * n, list(range(n))))["alerts"] == []

    def test_episode_dedup_and_realert_after_recovery(self):
        first = STUCK_WINDOW + 6
        stuck = [5] * first
        block = judge(_link(stuck))
        assert len(block["alerts"]) == 1  # persists, but alerts once
        assert block["active"] == ["stuck_queue:a->sw0"]
        # recovery: queue drains, episode clears
        drained = stuck + [0] * 4
        block = judge(_link(drained))
        assert len(block["alerts"]) == 1 and block["active"] == []
        # second episode alerts again
        block = judge(_link(drained + [7] * (STUCK_WINDOW + 2)))
        assert [a["queued"] for a in block["alerts"]] == [5, 7]


class TestRisingDropRate:
    def test_fires_on_strictly_climbing_drops(self):
        n = DROP_WINDOW + 3
        alerts = judge(_link([0] * n, list(range(1, n + 1)),  # not stuck
                             [2 * (i + 1) for i in range(n)]))["alerts"]
        assert {a["detector"] for a in alerts} == {"rising_drop_rate"}
        assert alerts[0]["severity"] == "warning"
        assert alerts[0]["drops"] == 2 * DROP_WINDOW

    def test_flat_drops_stay_quiet(self):
        n = DROP_WINDOW + 3
        assert judge(_link([0] * n, list(range(n)),
                           [100] * n))["alerts"] == []


class TestSilentStream:
    def test_started_then_silent_stream_fires(self):
        n = SILENT_WINDOW + 3
        alerts = judge(_player([10] * n, stalled=[
            max(0.0, i - 2.0) for i in range(n)]))["alerts"]
        assert any(a["detector"] == "silent_stream" for a in alerts)

    def test_never_started_stream_is_ignored(self):
        assert judge(_player([0] * (SILENT_WINDOW + 3)))["alerts"] == []

    def test_finished_stream_is_ignored(self):
        n = SILENT_WINDOW + 3
        assert judge(_player([10] * n, finished=[True] * n))["alerts"] == []

    def test_buffered_frames_keep_a_quiet_stream_quiet(self):
        """Nothing arrives, but the player has frames to play."""
        n = SILENT_WINDOW + 3
        assert judge(_player([10] * n, buffered=[4.0] * n))["alerts"] == []


class TestClockStall:
    def test_fires_past_the_stall_limit(self):
        # stalled since t=0, with frames still buffered
        at = _player([5], stalled=[STALL_LIMIT], buffered=[2.0],
                     times=[STALL_LIMIT])
        assert judge(at)["alerts"] == []  # stalled exactly the limit
        times = [STALL_LIMIT, STALL_LIMIT + 1.0]
        past = _player([5, 5], stalled=list(times), buffered=[2.0, 2.0],
                       times=times)
        stalls = [a for a in judge(past)["alerts"]
                  if a["detector"] == "clock_stall"]
        assert len(stalls) == 1
        assert stalls[0]["stalled_for"] == STALL_LIMIT + 1.0
        assert stalls[0]["entity"] == "p1"


class TestPlumbing:
    def _archive(self, tmp_path, *, ask=True, fin_extra=None):
        """A hand-written archive whose one link holds 5 cells still."""
        meta = {"record": "meta", "version": 2, "name": "hand",
                "telemetry": {"interval": 0.25}}
        if ask:
            meta["watchdog"] = True
        lines = [meta]
        for index, (name, kind) in enumerate(
                [("queue_occupancy", "gauge"), ("cells_transmitted",
                                                "counter"),
                 ("drops_total", "counter")]):
            lines.append({"record": "series", "index": index,
                          "component": "link", "name": name,
                          "labels": {"link": "a->sw0"}, "kind": kind})
        lines.append({"record": "telemetry", "time": 0.0,
                      "rows": [[0, 5], [1, 0], [2, 0]]})
        for k in range(1, STUCK_WINDOW + 2):
            lines.append({"record": "telemetry", "time": 0.25 * k,
                          "rows": []})
        lines.append({"record": "fin", "name": "hand",
                      "slo": SloMonitor().summary({}),
                      **(fin_extra or {})})
        path = tmp_path / "obs_hand.jsonl"
        path.write_text("".join(json.dumps(r) + "\n" for r in lines))
        return load_archive(str(path))

    def test_loader_judges_an_archive_that_asks(self, tmp_path):
        summary = self._archive(tmp_path).summary
        (alert,) = summary["watchdog"]["alerts"]
        assert alert["detector"] == "stuck_queue"
        assert alert["time"] == 0.25 * STUCK_WINDOW
        assert summary["watchdog"]["active"] == ["stuck_queue:a->sw0"]
        assert len(summary["watchdog"]["detectors"]) \
            == len(DEFAULT_DETECTORS)
        assert summary["slo"]["verdict"] == "degraded"
        assert summary["slo"]["watchdog_alerts"] == 1

    def test_a_stored_block_loads_as_written(self, tmp_path):
        stored = {"enabled": True, "detectors": [], "alerts": [],
                  "active": []}
        summary = self._archive(tmp_path,
                                fin_extra={"watchdog": stored}).summary
        assert summary["watchdog"] == stored
        assert summary["slo"]["verdict"] == "ok"
        assert "watchdog_alerts" not in summary["slo"]

    def test_an_archive_that_does_not_ask_is_not_judged(self, tmp_path):
        summary = self._archive(tmp_path, ask=False).summary
        assert "watchdog" not in summary
        assert summary["slo"]["verdict"] == "ok"


class TestSloEscalation:
    def _clean_report(self):
        from repro.obs.metrics import MetricsRegistry
        reg = MetricsRegistry()
        reg.counter("link", "drops_total", link="l").value += 0
        return reg.report()

    def test_alerts_demote_ok_to_degraded(self):
        summary = SloMonitor().summary(self._clean_report())
        clean = with_alerts(summary, [])
        assert clean["verdict"] == "ok"
        assert clean["watchdog_alerts"] == 0
        alerted = with_alerts(summary, [{"detector": "stuck_queue"}])
        assert alerted["verdict"] == "degraded"
        assert alerted["pass"] is True  # degraded, never failed
        assert alerted["watchdog_alerts"] == 1
        failed = with_alerts({**summary, "verdict": "failed"},
                             [{"detector": "stuck_queue"}])
        assert failed["verdict"] == "failed"

    def test_default_path_is_unchanged(self):
        summary = SloMonitor().summary(self._clean_report())
        assert summary["verdict"] == "ok"
        assert "watchdog_alerts" not in summary
