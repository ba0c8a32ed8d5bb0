"""Tests for the ``python -m repro.obs`` reporting CLI."""

import pytest

from repro.obs.__main__ import main
from repro.obs.report import render_trace_tree
from repro.obs.sink import load_archive
from tests.obs.archives import write_archive

SPANS = [
    {"span_id": 1, "parent_id": None, "trace_id": 1,
     "name": "navigator.enter_classroom", "start": 0.0, "end": 1.0,
     "duration": 1.0, "attrs": {}},
    {"span_id": 2, "parent_id": 1, "trace_id": 1,
     "name": "rpc.client:get_doc", "start": 0.1, "end": 0.6,
     "duration": 0.5, "attrs": {}},
    {"span_id": 3, "parent_id": 2, "trace_id": 1,
     "name": "rpc.server:get_doc", "start": 0.3, "end": 0.3,
     "duration": 0.0, "attrs": {}},
]

EVENTS = [
    {"time": 0.2, "component": "transport", "kind": "retransmit",
     "severity": "warning", "trace_id": 1, "attrs": {"seq": 4}},
]


def write_metrics(path, p99=0.05, wrapped=True):
    """An archive of a tiny run; ``wrapped=False`` leaves the summary
    with nothing but the metrics report."""
    report = {
        "connection": {"rtt_seconds": [
            {"type": "histogram", "count": 12, "sum": 0.3,
             "mean": 0.025, "min": 0.01, "max": p99, "p50": 0.02,
             "p99": p99}]},
        "link": {
            "drops_total": [{"type": "counter", "value": 0}],
            "cells_transmitted": [{"type": "counter", "value": 5000}]},
    }
    summary = {"sim_time": 4.0, "events_run": 99, "metrics": report} \
        if wrapped else {"metrics": report}
    return write_archive(path, summary=summary, spans=SPANS,
                         events=EVENTS)


class TestLoading:
    def test_load_metrics_unwraps_benchmark_dump(self, tmp_path):
        archive = load_archive(str(write_metrics(tmp_path / "obs.jsonl")))
        assert archive.name == "demo"
        assert archive.complete
        assert "connection" in archive.metrics

    def test_load_metrics_accepts_bare_report(self, tmp_path):
        path = write_metrics(tmp_path / "bare.jsonl", wrapped=False)
        archive = load_archive(str(path))
        assert "sim_time" not in archive.summary
        assert "connection" in archive.metrics

    def test_trace_lines_classified_by_kind(self, tmp_path):
        archive = load_archive(str(write_metrics(tmp_path / "obs.jsonl")))
        assert len(archive.spans) == 3
        assert len(archive.events) == 1


class TestReportCommand:
    def test_report_prints_summary_slos_and_waterfall(self, tmp_path,
                                                      capsys):
        path = write_metrics(tmp_path / "obs_demo.jsonl")
        assert main(["report", str(path)]) == 0
        out = capsys.readouterr().out
        assert "== scenario: demo ==" in out
        assert "connection.rtt_seconds" in out
        assert "rpc-rtt-p99" in out
        assert "PASS" in out
        assert "all SLOs met" in out
        # waterfall: tree indentation plus bar characters
        assert "navigator.enter_classroom" in out
        assert "  rpc.client:get_doc" in out
        assert "|" in out and "#" in out
        assert "! warning: transport.retransmit" in out
        assert "top 3 slow spans" in out

    def test_strict_mode_fails_on_violation(self, tmp_path, capsys):
        good = write_metrics(tmp_path / "obs_ok.jsonl")
        bad = write_metrics(tmp_path / "obs_bad.jsonl", p99=2.0)
        assert main(["report", str(good), "--strict"]) == 0
        assert main(["report", str(bad), "--strict"]) == 1
        assert "FAIL" in capsys.readouterr().out


class TestSloCommand:
    """The SLO verdict is ``report --strict``'s exit code."""

    def test_exit_code_reflects_verdict(self, tmp_path, capsys):
        good = write_metrics(tmp_path / "obs_ok.jsonl")
        bad = write_metrics(tmp_path / "obs_bad.jsonl", p99=9.0)
        assert main(["report", str(good), "--strict"]) == 0
        assert main(["report", str(bad), "--strict"]) == 1
        out = capsys.readouterr().out
        assert "SLO VIOLATIONS PRESENT" in out

    def test_skipped_objectives_render_distinctly(self, tmp_path, capsys):
        path = write_metrics(tmp_path / "obs_ok.jsonl")
        assert main(["report", str(path), "--strict"]) == 0
        assert "SKIP (no data)" in capsys.readouterr().out


class TestTraceCommand:
    """The span waterfalls are a ``report`` section."""

    def test_waterfall_only(self, tmp_path, capsys):
        path = write_metrics(tmp_path / "obs_demo.jsonl")
        assert main(["report", str(path)]) == 0
        out = capsys.readouterr().out
        assert f"== traces: {path} ==" in out
        assert "trace 1 · 3 spans" in out
        assert "slow spans" in out


class TestRenderers:
    def test_zero_duration_span_still_gets_a_bar(self):
        spans = [{"span_id": 1, "parent_id": None, "trace_id": 1,
                  "name": "instant", "start": 1.0, "end": 1.0,
                  "attrs": {}}]
        out = render_trace_tree(spans)
        assert "#" in out

    def test_dangling_parent_becomes_a_root(self):
        spans = [{"span_id": 5, "parent_id": 99, "trace_id": 1,
                  "name": "orphan", "start": 0.0, "end": 1.0,
                  "attrs": {}}]
        out = render_trace_tree(spans)
        assert out.startswith("orphan")


class TestTopCommand:
    def _write_accounting(self, path):
        ledger = {
            "enabled": True,
            "kinds": {"vc": [
                {"kind": "vc", "key": "1", "note": "a->b",
                 "units_sent": 4, "units_delivered": 4,
                 "cells_sent": 20, "cells_delivered": 20,
                 "bytes_sent": 960, "bytes_delivered": 960,
                 "drops": 0, "residency_seconds": 0.0, "share": 1.0}]},
        }
        return write_archive(path, ledger=ledger)

    def test_archived_top_renders_tables(self, tmp_path, capsys):
        path = self._write_accounting(tmp_path / "obs_demo.jsonl")
        assert main(["top", str(path)]) == 0
        out = capsys.readouterr().out
        assert "-- vc (1) --" in out
        assert "1 (a->b)" in out

    def test_top_without_source_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["top"])
        assert exc.value.code == 2
        assert "archive" in capsys.readouterr().err

    def test_bad_sort_column_rejected_by_argparse(self, tmp_path):
        path = self._write_accounting(tmp_path / "obs_demo.jsonl")
        with pytest.raises(SystemExit):
            main(["top", str(path), "--sort", "colour"])
