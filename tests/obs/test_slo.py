"""Tests for SLO evaluation over metrics reports."""

import json

import pytest

from repro.obs import DEFAULT_SLOS, MetricsRegistry, Slo, SloMonitor


def hist_entry(count, p99, **extra):
    entry = {"type": "histogram", "count": count, "p99": p99}
    entry.update(extra)
    return entry


class TestEvaluation:
    def test_histogram_slo_pass_and_fail(self):
        slo = Slo("rtt", "connection", "rtt_seconds", stat="p99",
                  threshold=0.25)
        ok = slo.evaluate(
            {"connection": {"rtt_seconds": [hist_entry(10, 0.1)]}})
        assert ok.ok and not ok.skipped
        assert ok.observed == 0.1
        bad = slo.evaluate(
            {"connection": {"rtt_seconds": [hist_entry(10, 0.9)]}})
        assert not bad.ok
        assert bad.observed == 0.9

    def test_bucket_bound_past_every_sample_is_not_a_violation(self):
        """The 86 ms sample's bucket ends at 262 ms; the quantile is
        capped at the largest sample, so the SLO passes — and a sample
        truly past the threshold still fails."""
        slo = Slo("rtt", "connection", "rtt_seconds", stat="p99",
                  threshold=0.25)
        reg = MetricsRegistry()
        h = reg.histogram("connection", "rtt_seconds", conn="a")
        for v in (0.001, 0.02, 0.086):
            h.observe(v)
        assert h.quantile(0.99) == pytest.approx(0.086)
        r = slo.evaluate(reg.report())
        assert r.ok and r.observed == pytest.approx(0.086)
        h.observe(0.26)
        r = slo.evaluate(reg.report())
        assert not r.ok and r.observed == pytest.approx(0.26)

    def test_worst_instrument_decides_a_distribution_slo(self):
        slo = Slo("rtt", "connection", "rtt_seconds", stat="p99",
                  threshold=0.25)
        report = {"connection": {"rtt_seconds": [
            hist_entry(5, 0.05), hist_entry(5, 0.4), hist_entry(5, 0.1)]}}
        r = slo.evaluate(report)
        assert r.observed == 0.4
        assert not r.ok

    def test_empty_instruments_are_ignored(self):
        slo = Slo("rtt", "connection", "rtt_seconds", stat="p99",
                  threshold=0.25)
        report = {"connection": {"rtt_seconds": [
            hist_entry(0, None), hist_entry(3, 0.2)]}}
        r = slo.evaluate(report)
        assert r.ok
        assert r.observed == 0.2

    def test_missing_metric_skips_not_fails(self):
        slo = Slo("preroll", "player", "startup_delay_seconds",
                  stat="p99", threshold=2.0)
        r = slo.evaluate({})
        assert r.skipped
        assert r.ok
        assert r.observed is None

    def test_counter_values_sum_across_entries(self):
        slo = Slo("drops", "link", "drops_total", stat="value",
                  threshold=5.0)
        report = {"link": {"drops_total": [
            {"type": "counter", "value": 2},
            {"type": "counter", "value": 4}]}}
        r = slo.evaluate(report)
        assert r.observed == 6.0
        assert not r.ok

    def test_ratio_slo_divides_by_denominator_sum(self):
        slo = Slo("drop-rate", "link", "drops_total", stat="value",
                  threshold=0.01, per=("link", "cells_transmitted"))
        report = {"link": {
            "drops_total": [{"type": "counter", "value": 5}],
            "cells_transmitted": [{"type": "counter", "value": 1000}]}}
        r = slo.evaluate(report)
        assert r.observed == pytest.approx(0.005)
        assert r.ok

    def test_ratio_with_zero_denominator_skips(self):
        slo = Slo("drop-rate", "link", "drops_total", stat="value",
                  threshold=0.01, per=("link", "cells_transmitted"))
        report = {"link": {
            "drops_total": [{"type": "counter", "value": 0}],
            "cells_transmitted": [{"type": "counter", "value": 0}]}}
        r = slo.evaluate(report)
        assert r.skipped

    def test_gte_objective(self):
        slo = Slo("throughput", "link", "goodput", stat="min",
                  threshold=10.0, op=">=")
        report = {"link": {"goodput": [
            hist_entry(4, 0.0, min=12.0), hist_entry(4, 0.0, min=8.0)]}}
        r = slo.evaluate(report)
        # for >= the worst instrument is the smallest
        assert r.observed == 8.0
        assert not r.ok

    def test_invalid_op_rejected(self):
        with pytest.raises(ValueError):
            Slo("bad", "x", "y", op="==")


class TestSummary:
    def test_summary_is_json_stable_and_aggregates_pass(self):
        monitor = SloMonitor()
        good = monitor.summary(
            {"connection": {"rtt_seconds": [hist_entry(1, 0.01)]}})
        assert good["pass"] is True
        assert good["results"][0]["name"] == DEFAULT_SLOS[0].name
        json.dumps(good)
        bad = monitor.summary(
            {"connection": {"rtt_seconds": [hist_entry(1, 1.0)]}})
        assert bad["pass"] is False

    def test_default_slos_judge_a_live_registry(self):
        metrics = MetricsRegistry()
        rtt = metrics.histogram("connection", "rtt_seconds", conn="c1")
        for _ in range(20):
            rtt.observe(0.02)
        results = SloMonitor().evaluate(metrics.report())
        by_name = {r.slo.name: r for r in results}
        assert by_name["rpc-rtt-p99"].ok
        assert not by_name["rpc-rtt-p99"].skipped
        # nothing streamed, so the player objectives are vacuous
        assert by_name["frame-lateness-p99"].skipped
        assert by_name["preroll-p99"].skipped

    def test_default_slos_cover_the_documented_objectives(self):
        names = {s.name for s in DEFAULT_SLOS}
        assert names == {"rpc-rtt-p99", "frame-lateness-p99",
                         "cell-drop-rate", "preroll-p99"}
