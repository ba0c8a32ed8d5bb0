"""Tests for the sparkline dashboard and its CLI subcommand."""

import pytest

from repro.obs.__main__ import main
from repro.obs.dashboard import (
    DEFAULT_PANELS, Panel, render_dashboard, render_panel, sparkline,
)
from repro.obs.sink import load_archive
from repro.obs.timeseries import Series
from tests.obs.archives import write_archive


def series_entry(component="link", name="queue_occupancy",
                 labels=None, kind="gauge", values=(0, 2, 5, 9, 3)):
    """One series sampled once a second, in archive form; a counter's
    rates are its per-second differences."""
    entry = {"component": component, "name": name,
             "labels": labels or {"link": "sw0->user1"}, "kind": kind,
             "times": [float(i) for i in range(len(values))],
             "values": [float(v) for v in values]}
    if kind == "counter":
        entry["rates"] = [0.0] + [float(b - a)
                                  for a, b in zip(values, values[1:])]
    return entry


def make_series(**kwargs):
    entry = series_entry(**kwargs)
    series = Series(entry["component"], entry["name"], entry["labels"],
                    entry["kind"])
    rates = entry.get("rates", [None] * len(entry["times"]))
    for time, value, rate in zip(entry["times"], entry["values"], rates):
        series.record(time, value, rate, None)
    return series


def write_timeseries(path):
    """An archive whose telemetry ticks carry three series."""
    series = [
        series_entry(),
        series_entry("simulator", "queue_depth", labels={},
                     values=(1, 4, 2, 0, 0)),
        series_entry("simulator", "events_run", labels={},
                     kind="counter", values=(0, 100, 300, 600, 900)),
    ]
    return write_archive(path, series=series,
                         telemetry={"interval": 0.25},
                         summary={"timeseries": {"samples": 5}})


class TestSparkline:
    def test_empty_series_renders_dots(self):
        assert sparkline([], width=8) == "." * 8

    def test_all_zero_series_renders_blank(self):
        assert sparkline([0, 0, 0], width=6) == " " * 6

    def test_flat_nonzero_series_renders_plateau(self):
        out = sparkline([5, 5, 5], width=6)
        assert len(out) == 6 and len(set(out)) == 1 and out[0] != " "

    def test_ramp_is_monotone(self):
        out = sparkline(list(range(10)), width=10)
        ramp = " .:-=+*#%@"
        indices = [ramp.index(c) for c in out]
        assert indices == sorted(indices)
        assert indices[0] == 0 and indices[-1] == len(ramp) - 1

    def test_long_series_decimated_to_width(self):
        assert len(sparkline(list(range(1000)), width=40)) == 40


class TestPanels:
    def test_panel_renders_header_stats_and_bar(self):
        panel = Panel("link queue occupancy", "link", "queue_occupancy",
                      unit="cells")
        out = render_panel(panel, [make_series()])
        assert "link queue occupancy" in out
        assert "link.queue_occupancy" in out
        assert "max 9" in out
        assert "|" in out

    def test_panel_without_data_is_omitted(self):
        panel = Panel("player buffer", "player", "buffer_frames")
        assert render_panel(panel, [make_series()]) is None

    def test_multiple_instruments_are_merged(self):
        a = make_series(labels={"link": "a"}, values=(1, 1, 1))
        b = make_series(labels={"link": "b"}, values=(2, 2, 2))
        panel = Panel("queues", "link", "queue_occupancy")
        out = render_panel(panel, [a, b])
        assert "2 series" in out
        assert "max 3" in out  # summed at aligned timestamps

    def test_counter_panel_uses_rates(self):
        series = make_series(component="simulator", name="events_run",
                             labels={}, kind="counter",
                             values=(0, 100, 300, 600))
        panel = Panel("event rate", "simulator", "events_run",
                      channel="rates", unit="events/s")
        out = render_panel(panel, [series])
        assert "rates" in out
        assert "max 300" in out  # (600-300)/1s


class TestDashboard:
    def test_renders_from_live_series(self):
        out = render_dashboard([make_series()], samples=5, interval=1.0)
        assert "== dashboard ==  (5 samples @ 1.0s)" in out
        assert "link queue occupancy" in out

    def test_renders_from_archived_payload(self, tmp_path):
        path = write_timeseries(tmp_path / "obs_demo.jsonl")
        archive = load_archive(str(path))
        out = render_dashboard(archive.timeseries, samples=archive.samples,
                               interval=archive.interval, title="demo")
        assert "demo" in out
        assert "link queue occupancy" in out
        assert "simulator queue depth" in out
        assert "event rate" in out
        assert "(5 samples @ 0.25s)" in out
        assert "evict" not in out

    def test_no_matching_series_message(self):
        out = render_dashboard([make_series(component="nobody",
                                            name="cares")],
                               samples=5, interval=1.0)
        assert "no series match any panel" in out

    def test_default_panels_cover_the_issue_list(self):
        covered = {(p.component, p.name) for p in DEFAULT_PANELS}
        for required in (("link", "queue_occupancy"),
                         ("connection", "window_occupancy"),
                         ("player", "buffer_frames"),
                         ("simulator", "queue_depth"),
                         ("simulator", "events_run")):
            assert required in covered


class TestDashboardCommand:
    def test_archived_mode(self, tmp_path, capsys):
        path = write_timeseries(tmp_path / "obs_demo.jsonl")
        assert main(["dashboard", str(path)]) == 0
        out = capsys.readouterr().out
        assert "== dashboard: demo ==" in out
        assert "link queue occupancy" in out

    def test_snapshot_wrapper_accepted(self, tmp_path, capsys):
        """A whole deployment works too: it streams its telemetry ticks,
        and ``dump_observability`` closes the archive."""
        from repro.core.scenarios import build
        from repro.obs.export import dump_observability

        run = build("quickstart", stream=str(tmp_path / "obs_snap.jsonl"))
        run.run_to_horizon()
        (path,) = dump_observability(run.mits, "snap", str(tmp_path))
        assert main(["dashboard", path]) == 0
        assert "link queue occupancy" in capsys.readouterr().out

    def test_no_input_is_an_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["dashboard"])
        assert exc.value.code == 2
        assert "archive" in capsys.readouterr().err


class TestReportTelemetryHealth:
    def test_health_block_rendered_and_flagged(self, tmp_path, capsys):
        summary = {
            "sim_time": 4.0, "events_run": 99,
            "metrics": {"link": {"drops_total": [
                {"type": "counter", "value": 0}]}},
            "telemetry": {
                "flight_recorded": 120, "flight_dropped": 20,
                "tracer_spans": 5, "tracer_dropped": 0,
                "sampler_samples": 40,
            },
        }
        path = write_archive(tmp_path / "obs_demo.jsonl", summary=summary)
        assert main(["report", str(path)]) == 0
        out = capsys.readouterr().out
        assert "telemetry health" in out
        assert "! flight recorder: 120 events recorded, 20 evicted" in out
        assert "   sampler: 40 samples\n" in out
        assert "rings were truncated; the archive holds every span and " \
            "event" in out
