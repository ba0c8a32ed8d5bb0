"""Tests for the time-series telemetry sampler."""

import json

import pytest

from repro.atm.simulator import Simulator
from repro.obs.timeseries import Series, TelemetrySampler, load_timeseries


def make_sim_with_work(duration=10.0, step=0.5):
    """A simulator with a counter/gauge workload across *duration*."""
    sim = Simulator()
    counter = sim.metrics.counter("work", "items_done")
    gauge = sim.metrics.gauge("work", "in_flight")
    hist = sim.metrics.histogram("work", "latency_seconds")

    def tick(i):
        counter.value += 10
        gauge.set(i % 4)
        hist.observe(0.001 * (i + 1))

    n = int(duration / step)
    for i in range(n):
        sim.schedule(step * (i + 1), tick, i)
    return sim


class TestSampling:
    def test_samples_on_the_simulated_clock(self):
        sim = make_sim_with_work()
        sampler = TelemetrySampler(sim, interval=1.0)
        sampler.start()
        sim.run(until=10.0)
        series = sampler.get("work", "items_done")
        assert series is not None
        # one sample at start + one per interval while work was pending
        assert len(series) >= 9
        assert series.times[0] == 0.0
        # times advance by the interval
        deltas = [b - a for a, b in zip(series.times, list(series.times)[1:])]
        assert all(d == pytest.approx(1.0) for d in deltas)

    def test_every_instrument_kind_gets_a_series(self):
        sim = make_sim_with_work()
        sampler = TelemetrySampler(sim, interval=1.0)
        sampler.start()
        sim.run(until=10.0)
        assert sampler.get("work", "items_done").kind == "counter"
        assert sampler.get("work", "in_flight").kind == "gauge"
        assert sampler.get("work", "latency_seconds").kind == "histogram"
        # simulator's own instruments are sampled too
        assert sampler.get("simulator", "queue_depth") is not None

    def test_counter_rate_derivation(self):
        sim = make_sim_with_work(duration=4.0, step=0.5)
        sampler = TelemetrySampler(sim, interval=1.0)
        sampler.start()
        sim.run(until=4.0)
        series = sampler.get("work", "items_done")
        # 10 items per 0.5s => 20 items/s at every full interval
        assert series.rates is not None
        steady = list(series.rates)[1:]
        assert steady and all(r == pytest.approx(20.0) for r in steady)

    def test_histogram_series_tracks_count_and_p99(self):
        sim = make_sim_with_work()
        sampler = TelemetrySampler(sim, interval=1.0)
        sampler.start()
        sim.run(until=10.0)
        series = sampler.get("work", "latency_seconds")
        assert list(series.values) == sorted(series.values)  # cumulative
        assert series.p99s is not None
        assert series.p99s[-1] > 0

    def test_gauge_series_tracks_level(self):
        sim = make_sim_with_work()
        sampler = TelemetrySampler(sim, interval=1.0)
        sampler.start()
        sim.run(until=10.0)
        series = sampler.get("work", "in_flight")
        assert set(series.values) <= {0.0, 0, 1, 2, 3}

    def test_bad_parameters_rejected(self):
        sim = Simulator()
        with pytest.raises(ValueError):
            TelemetrySampler(sim, interval=0.0)
        with pytest.raises(ValueError):
            TelemetrySampler(sim, capacity=1)


class TestCounterFall:
    def test_falling_read_through_never_yields_negative_rates(self):
        """A read-through counter reads a component's own field; one
        that moves backwards clamps the derived rate to zero instead of
        reporting a negative rate."""
        sim = Simulator()
        stats = type("Stats", (), {"done": 0})()
        sim.metrics.read_through("work", "items_done", stats, "done")
        sampler = TelemetrySampler(sim, interval=1.0)
        sampler.start()
        stats.done = 100
        sim.schedule(1.0, lambda: None)
        sim.run(until=1.5)  # sample sees value=100

        stats.done = 5
        sim.schedule(1.0, lambda: None)
        sim.run(until=3.5)

        series = sampler.get("work", "items_done")
        assert list(series.values) == [0, 100, 5, 5]
        assert list(series.rates) == [0.0, 100.0, 0.0, 0.0]


class TestDormancy:
    def test_run_without_horizon_still_drains(self):
        """The sampler must never keep the simulation alive on its own."""
        sim = Simulator()
        sim.schedule(1.0, lambda: None)
        sampler = TelemetrySampler(sim, interval=0.25)
        sampler.start()
        end = sim.run()  # would never return if the sampler re-armed
        assert end <= 1.25
        assert sampler.dormant

    def test_wakes_when_new_work_arrives(self):
        sim = Simulator()
        sim.schedule(1.0, lambda: None)
        sampler = TelemetrySampler(sim, interval=0.25)
        sampler.start()
        sim.run()
        assert sampler.dormant
        before = sampler.samples
        sim.schedule(2.0, lambda: None)
        assert not sampler.dormant  # re-armed by schedule()
        sim.run()
        assert sampler.samples > before

    def test_stop_detaches_from_simulator(self):
        sim = Simulator()
        sampler = TelemetrySampler(sim, interval=0.25)
        sampler.start()
        sampler.stop()
        before = sampler.samples
        sim.schedule(1.0, lambda: None)
        sim.run()
        assert sampler.samples == before
        assert sim._sampler is None


class TestBoundedMemory:
    def test_ring_eviction_is_counted(self):
        sim = make_sim_with_work(duration=50.0, step=0.5)
        sampler = TelemetrySampler(sim, interval=1.0, capacity=8)
        sampler.start()
        sim.run(until=50.0)
        series = sampler.get("work", "items_done")
        assert len(series) == 8  # bounded
        assert series.evicted > 0
        assert sampler.evictions >= series.evicted
        # the ring holds the *newest* samples
        assert series.times[-1] > 40.0

    def test_identical_samples_each_take_a_slot(self):
        series = Series("c", "n", {}, "gauge", capacity=4)
        for i in range(6):
            series.record(float(i), 5.0)
        assert list(series.times) == [2.0, 3.0, 4.0, 5.0]
        assert series.evicted == 2


class TestRollups:
    def test_windowed_rollup(self):
        series = Series("c", "n", {}, "gauge", capacity=16)
        for i in range(10):
            series.record(float(i), float(i))
        full = series.rollup()
        assert full["min"] == 0.0 and full["max"] == 9.0
        assert full["mean"] == pytest.approx(4.5)
        # the ring is the window: a three-slot series rolls up the last 3
        short = Series("c", "n", {}, "gauge", capacity=3)
        for i in range(10):
            short.record(float(i), float(i))
        last3 = short.rollup()
        assert last3["min"] == 7.0 and last3["count"] == 3

    def test_empty_rollup(self):
        series = Series("c", "n", {}, "gauge", capacity=4)
        assert series.rollup()["count"] == 0
        assert series.rollup()["p99"] is None

    def test_unknown_channel_rejected(self):
        series = Series("c", "n", {}, "gauge", capacity=4)
        with pytest.raises(ValueError):
            series.rollup(channel="rates")  # gauges have no rate ring


class TestExport:
    def test_snapshot_is_json_stable_and_reloadable(self):
        sim = make_sim_with_work()
        sampler = TelemetrySampler(sim, interval=1.0)
        sampler.start()
        sim.run(until=10.0)
        snap = json.loads(json.dumps(sampler.snapshot()))
        assert snap["samples"] == sampler.samples
        reloaded = load_timeseries(snap)
        by_key = {s.key: s for s in reloaded}
        original = sampler.get("work", "items_done")
        twin = by_key[original.key]
        assert list(twin.times) == list(original.times)
        assert list(twin.values) == list(original.values)
        assert list(twin.rates) == list(original.rates)

    def test_peak(self):
        sim = make_sim_with_work()
        sampler = TelemetrySampler(sim, interval=1.0)
        sampler.start()
        sim.run(until=10.0)
        assert sampler.peak("work", "in_flight") == 3
        assert sampler.peak("work", "nope") is None
