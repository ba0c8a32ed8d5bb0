"""Tests for the sparkline dashboard and its CLI subcommand."""

from repro.obs.__main__ import main
from repro.obs.dashboard import (
    DEFAULT_PANELS, Panel, render_dashboard, render_panel,
    render_profile, sparkline,
)
from repro.obs.sink import load_archive
from repro.obs.timeseries import Series
from tests.obs.archives import write_archive


def make_series(component="link", name="queue_occupancy",
                labels=None, kind="gauge", values=(0, 2, 5, 9, 3)):
    series = Series(component, name, labels or {"link": "sw0->user1"},
                    kind, capacity=64)
    for i, v in enumerate(values):
        series.record(float(i), float(v))
    return series


def write_timeseries(path, evictions=0):
    """An archive whose telemetry ticks carry three series."""
    series = [
        make_series().to_dict(),
        make_series("simulator", "queue_depth", labels={},
                    values=(1, 4, 2, 0, 0)).to_dict(),
        make_series("simulator", "events_run", labels={},
                    kind="counter", values=(0, 100, 300, 600, 900)
                    ).to_dict(),
    ]
    return write_archive(
        path, series=series,
        telemetry={"interval": 0.25, "capacity": 64},
        summary={"timeseries": {"samples": 5, "evictions": evictions}})


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
        series = make_series("simulator", "events_run", labels={},
                             kind="counter", values=(0, 100, 300, 600))
        panel = Panel("event rate", "simulator", "events_run",
                      channel="rates", unit="events/s")
        out = render_panel(panel, [series])
        assert "rates" in out
        assert "max 300" in out  # (600-300)/1s


class TestDashboard:
    def test_renders_from_live_series(self):
        out = render_dashboard([make_series()])
        assert "== dashboard ==" in out
        assert "link queue occupancy" in out

    def test_renders_from_archived_payload(self, tmp_path):
        path = write_timeseries(tmp_path / "obs_demo.jsonl")
        payload = load_archive(str(path)).timeseries
        out = render_dashboard(payload, title="demo")
        assert "demo" in out
        assert "link queue occupancy" in out
        assert "simulator queue depth" in out
        assert "event rate" in out
        assert "5 samples" in out

    def test_eviction_warning_is_surfaced(self, tmp_path):
        path = write_timeseries(tmp_path / "obs_demo.jsonl", evictions=7)
        out = render_dashboard(load_archive(str(path)).timeseries)
        assert "7 ring evictions" in out
        assert "! 7 samples evicted" in out

    def test_no_matching_series_message(self):
        out = render_dashboard([make_series("nobody", "cares")])
        assert "no series match any panel" in out

    def test_default_panels_cover_the_issue_list(self):
        covered = {(p.component, p.name) for p in DEFAULT_PANELS}
        for required in (("link", "queue_occupancy"),
                         ("connection", "window_occupancy"),
                         ("player", "buffer_frames"),
                         ("simulator", "queue_depth"),
                         ("simulator", "events_run")):
            assert required in covered


class TestProfilePane:
    def test_disabled_profile_message(self):
        assert "profiler disabled" in render_profile({"enabled": False})

    def test_hotspot_table(self):
        profile = {
            "enabled": True, "events": 42, "wall_seconds": 0.5,
            "sim_seconds": 50.0, "sim_to_wall": 100.0,
            "hotspots": [
                {"callsite": "Host.receive_train", "calls": 30,
                 "cum_seconds": 0.3, "self_seconds": 0.25,
                 "mean_us": 10000.0},
            ],
        }
        out = render_profile(profile)
        assert "42 events" in out
        assert "(100x real time)" in out
        assert "Host.receive_train" in out


class TestDashboardCommand:
    def test_archived_mode(self, tmp_path, capsys):
        path = write_timeseries(tmp_path / "obs_demo.jsonl")
        assert main(["dashboard", str(path)]) == 0
        out = capsys.readouterr().out
        assert "== dashboard: demo ==" in out
        assert "link queue occupancy" in out

    def test_snapshot_wrapper_accepted(self, tmp_path, capsys):
        """A whole deployment works too: ``dump_observability``
        archives its sampler rings through a late-attached sink."""
        from repro.core.scenarios import build
        from repro.obs.export import dump_observability

        run = build("quickstart")
        run.run_to_horizon()
        (path,) = dump_observability(run.mits, "snap", str(tmp_path))
        assert main(["dashboard", path]) == 0
        assert "link queue occupancy" in capsys.readouterr().out

    def test_no_input_is_an_error(self, capsys):
        assert main(["dashboard"]) == 2
        assert "--live" in capsys.readouterr().err


class TestReportTelemetryHealth:
    def test_health_block_rendered_and_flagged(self, tmp_path, capsys):
        summary = {
            "sim_time": 4.0, "events_run": 99,
            "metrics": {"link": {"drops_total": [
                {"type": "counter", "value": 0}]}},
            "telemetry": {
                "flight_recorded": 120, "flight_dropped": 20,
                "tracer_spans": 5, "tracer_dropped": 0,
                "sampler_samples": 40, "sampler_evictions": 3,
            },
        }
        path = write_archive(tmp_path / "obs_demo.jsonl", summary=summary)
        assert main(["report", str(path)]) == 0
        out = capsys.readouterr().out
        assert "telemetry health" in out
        assert "! flight recorder: 120 events recorded, 20 evicted" in out
        assert "! sampler: 40 samples, 3 ring evictions" in out
        assert "telemetry was truncated" in out
