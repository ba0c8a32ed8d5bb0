"""Tests for the metrics registry (counters, gauges, histograms)."""

import json

import pytest

from repro.obs import MetricsRegistry, ReadThrough, TIME_BUCKETS
from repro.obs.metrics import Histogram

B = TIME_BUCKETS


class TestCounter:
    def test_inc(self):
        reg = MetricsRegistry()
        c = reg.counter("link", "drops", link="a->b")
        c.inc()
        c.value += 4
        assert c.value == 5

    def test_memoised_by_key(self):
        reg = MetricsRegistry()
        a = reg.counter("link", "drops", link="a->b")
        b = reg.counter("link", "drops", link="a->b")
        other = reg.counter("link", "drops", link="b->a")
        assert a is b
        assert a is not other

    def test_label_order_irrelevant(self):
        reg = MetricsRegistry()
        a = reg.counter("vc", "pdus", vc=1, route="a->b")
        b = reg.counter("vc", "pdus", route="a->b", vc=1)
        assert a is b

    def test_kind_collision_rejected(self):
        reg = MetricsRegistry()
        reg.counter("x", "y")
        with pytest.raises(TypeError):
            reg.gauge("x", "y")


class TestGauge:
    def test_set_tracks_watermarks(self):
        reg = MetricsRegistry()
        g = reg.gauge("link", "occupancy", link="l")
        g.set(3)
        g.set(10)
        g.set(1)
        assert g.value == 1
        assert g.min == 1
        assert g.max == 10

    def test_add(self):
        g = MetricsRegistry().gauge("c", "n")
        g.add(2.5)
        g.add(-1.0)
        assert g.value == 1.5


class TestHistogram:
    def test_observe_and_stats(self):
        h = Histogram()
        values = (B[0] / 2, B[2], B[2], B[4])
        for v in values:
            h.observe(v)
        assert h.count == 4
        assert h.sum == pytest.approx(sum(values))
        assert h.min == B[0] / 2
        assert h.max == B[4]
        assert h.counts[:6] == [1, 0, 2, 0, 1, 0]

    def test_overflow_bucket(self):
        h = Histogram()
        h.observe(B[-1] * 2)
        assert h.overflow == 1

    def test_nan_ignored(self):
        h = Histogram()
        h.observe(float("nan"))
        assert h.count == 0

    def test_quantile(self):
        h = Histogram()
        for v in (B[0] / 2, B[1] * 0.9, B[1] * 0.95, B[2] * 0.9):
            h.observe(v)
        assert h.quantile(0.5) == B[1]
        # the top bucket's bound lies past every sample: capped at max
        assert h.quantile(1.0) == B[2] * 0.9

    def test_default_buckets_are_time_ladder(self):
        h = Histogram()
        assert h.bounds == TIME_BUCKETS

    def test_bounded_memory(self):
        h = Histogram()
        for i in range(100_000):
            h.observe(i * 1e-6)
        assert h.count == 100_000
        assert len(h.counts) == len(TIME_BUCKETS)


class TestHistogramQuantileEdges:
    def test_empty_histogram_is_zero_for_any_q(self):
        h = Histogram()
        assert h.quantile(0.0) == 0.0
        assert h.quantile(0.5) == 0.0
        assert h.quantile(0.99) == 0.0
        assert h.quantile(1.0) == 0.0

    def test_single_sample(self):
        h = Histogram()
        h.observe(B[1] * 0.9)
        # every non-zero quantile lands in the sample's bucket, whose
        # bound lies past the sample: each reads the sample itself
        assert h.quantile(0.5) == B[1] * 0.9
        assert h.quantile(0.99) == B[1] * 0.9
        assert h.quantile(1.0) == B[1] * 0.9

    def test_p99_never_exceeds_the_largest_sample(self):
        """One 86 ms round trip sits in the bucket that ends at
        262.144 ms; its p99 is the sample, not the bound."""
        h = Histogram()
        h.observe(0.086)
        assert h.quantile(0.99) == 0.086
        assert h.snapshot()["p99"] == h.snapshot()["p50"] == 0.086

    def test_q_zero_is_the_lowest_bound(self):
        h = Histogram()
        h.observe(B[2] * 0.9)
        assert h.quantile(0.0) == B[0]

    def test_q_one_covers_overflowed_samples(self):
        """With samples past the last bucket, q=1.0 falls back to the
        exact observed max instead of understating the tail."""
        h = Histogram()
        h.observe(B[0] / 2)
        h.observe(B[-1] * 2)
        assert h.quantile(1.0) == B[-1] * 2

    def test_out_of_range_q_rejected(self):
        h = Histogram()
        h.observe(B[0] / 2)
        for bad in (-0.01, 1.01, 2.0):
            with pytest.raises(ValueError):
                h.quantile(bad)


class _Stats:
    def __init__(self, sent=0):
        self.sent = sent


class TestReadThrough:
    def test_reports_exactly_as_a_counter(self):
        stats = _Stats(7)
        reg = MetricsRegistry()
        reg.read_through("vc", "pdus_sent", stats, "sent", vc=1)
        ref = MetricsRegistry()
        ref.counter("vc", "pdus_sent", vc=1).value += 7
        assert reg.report() == ref.report()
        assert reg.report()["vc"]["pdus_sent"][0] == {
            "labels": {"vc": "1"}, "type": "counter", "value": 7}

    def test_reads_the_field_when_walked(self):
        stats = _Stats()
        reg = MetricsRegistry()
        inst = reg.read_through("vc", "pdus_sent", stats, "sent")
        stats.sent = 3
        assert inst.value == 3
        [found] = reg.find("vc", "pdus_sent").values()
        assert found is inst and found.value == 3
        assert reg.get("vc", "pdus_sent").value == 3

    def test_sources_under_one_key_sum(self):
        a, b = _Stats(2), _Stats(5)
        reg = MetricsRegistry()
        first = reg.read_through("link", "drops_total", a, "sent", link="x")
        second = reg.read_through("link", "drops_total", b, "sent",
                                  link="x")
        assert first is second
        assert isinstance(first, ReadThrough)
        assert len(reg) == 1
        assert reg.report()["link"]["drops_total"][0]["value"] == 7

    def test_counter_on_a_read_through_key_rejected(self):
        reg = MetricsRegistry()
        reg.read_through("vc", "pdus_sent", _Stats(), "sent", vc=1)
        with pytest.raises(TypeError):
            reg.counter("vc", "pdus_sent", vc=1)

    def test_read_through_on_a_counter_key_rejected(self):
        reg = MetricsRegistry()
        reg.counter("vc", "pdus_sent", vc=1)
        with pytest.raises(TypeError):
            reg.read_through("vc", "pdus_sent", _Stats(), "sent", vc=1)


class TestExport:
    def test_report_shape(self):
        reg = MetricsRegistry()
        reg.counter("link", "drops", link="a->b").value += 3
        reg.histogram("vc", "delay", vc=1).observe(0.01)
        rep = reg.report()
        [drops] = rep["link"]["drops"]
        assert drops["labels"] == {"link": "a->b"}
        assert drops["value"] == 3
        [delay] = rep["vc"]["delay"]
        assert delay["count"] == 1

    def test_report_round_trips_through_json(self):
        reg = MetricsRegistry()
        reg.counter("c", "n").inc()
        reg.gauge("c", "g").set(2.0)
        reg.histogram("c", "h").observe(0.5)
        back = json.loads(json.dumps(reg.report()))
        assert back == reg.report()
        assert back["c"]["n"][0]["value"] == 1

    def test_find(self):
        reg = MetricsRegistry()
        reg.counter("link", "drops", link="x").inc()
        reg.counter("link", "drops", link="y").inc()
        reg.counter("vc", "pdus").inc()
        assert len(reg.find("link", "drops")) == 2
        assert len(reg.find("vc")) == 1


class TestDelta:
    """MetricsRegistry.delta — per-instrument diff of two reports."""

    def _registry(self):
        reg = MetricsRegistry()
        reg.counter("link", "drops", link="a->b").value += 3
        reg.gauge("player", "buffer", player="p1").set(5)
        reg.histogram("vc", "delay").observe(0.01)
        return reg

    def test_identical_reports_have_zero_deltas(self):
        report = self._registry().report()
        rows = MetricsRegistry.delta(report, report)
        assert rows
        assert all(r["delta"] == 0 for r in rows.values())
        assert all("only" not in r for r in rows.values())

    def test_counter_movement_and_key_shape(self):
        reg = self._registry()
        before = reg.report()
        reg.counter("link", "drops", link="a->b").value += 4
        rows = MetricsRegistry.delta(before, reg.report())
        row = rows["link.drops{link=a->b}"]
        assert row == {"kind": "counter", "before": 3.0, "after": 7.0,
                       "delta": 4.0}

    def test_histograms_diff_their_count(self):
        reg = self._registry()
        before = reg.report()
        reg.histogram("vc", "delay").observe(0.5)
        reg.histogram("vc", "delay").observe(1.5)
        row = MetricsRegistry.delta(before, reg.report())["vc.delay{}"]
        assert row["kind"] == "histogram"
        assert row["delta"] == 2.0

    def test_one_sided_instruments_are_marked(self):
        reg = self._registry()
        before = reg.report()
        reg.counter("switch", "received", switch="sw0").inc()
        rows = MetricsRegistry.delta(before, reg.report())
        new = rows["switch.received{switch=sw0}"]
        assert new["only"] == "after"
        assert new["before"] == 0.0 and new["delta"] == 1.0
        gone = MetricsRegistry.delta(reg.report(), before)
        assert gone["switch.received{switch=sw0}"]["only"] == "before"
        assert gone["switch.received{switch=sw0}"]["delta"] == -1.0

    def test_empty_reports(self):
        assert MetricsRegistry.delta({}, {}) == {}

    def test_counter_fall_between_runs_is_negative(self):
        """Each report is one run's own registry: fewer drops in the
        second run is a negative delta, not a reset."""
        reg_a = MetricsRegistry()
        reg_a.counter("link", "drops", link="a->b").value += 100
        reg_b = MetricsRegistry()
        reg_b.counter("link", "drops", link="a->b").value += 7
        row = MetricsRegistry.delta(
            reg_a.report(), reg_b.report())["link.drops{link=a->b}"]
        assert row == {"kind": "counter", "before": 100.0, "after": 7.0,
                       "delta": -93.0}

    def test_histogram_count_fall_between_runs_is_negative(self):
        reg_a = MetricsRegistry()
        for _ in range(5):
            reg_a.histogram("vc", "delay").observe(0.1)
        reg_b = MetricsRegistry()
        reg_b.histogram("vc", "delay").observe(0.1)
        row = MetricsRegistry.delta(
            reg_a.report(), reg_b.report())["vc.delay{}"]
        assert row["delta"] == -4.0

    def test_gauge_fall_is_not_a_reset(self):
        reg = MetricsRegistry()
        gauge = reg.gauge("player", "buffer", player="p1")
        gauge.set(8)
        before = reg.report()
        gauge.set(2)
        row = MetricsRegistry.delta(
            before, reg.report())["player.buffer{player=p1}"]
        assert row["delta"] == -6.0

    def test_one_sided_rows_never_marked_reset(self):
        """An instrument absent from one side diffs against zero; the
        before-only case reads as a disappearance."""
        reg = MetricsRegistry()
        reg.counter("switch", "received", switch="sw0").value += 9
        gone = MetricsRegistry.delta(
            reg.report(), {})["switch.received{switch=sw0}"]
        assert gone == {"kind": "counter", "before": 9.0, "after": 0.0,
                        "delta": -9.0, "only": "before"}
