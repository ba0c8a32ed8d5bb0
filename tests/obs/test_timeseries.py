"""Tests for the time-series telemetry sampler."""

import pytest

from repro.atm.simulator import Simulator
from repro.obs.timeseries import Series, TelemetrySampler
from tests.obs.archives import Decoded


def start(sim, interval):
    """A started sampler streaming into a :class:`Decoded` archive."""
    sampler = TelemetrySampler(sim, interval=interval)
    streamed = Decoded(sampler)
    sampler.start()
    return streamed


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
        streamed = start(sim, 1.0)
        sim.run(until=10.0)
        series = streamed.get("work", "items_done")
        assert series is not None
        # one sample at start + one per interval while work was pending
        assert len(series) >= 9
        assert series.times[0] == 0.0
        # times advance by the interval
        deltas = [b - a for a, b in zip(series.times, list(series.times)[1:])]
        assert all(d == pytest.approx(1.0) for d in deltas)

    def test_every_instrument_kind_gets_a_series(self):
        sim = make_sim_with_work()
        streamed = start(sim, 1.0)
        sim.run(until=10.0)
        assert streamed.get("work", "items_done").kind == "counter"
        assert streamed.get("work", "in_flight").kind == "gauge"
        assert streamed.get("work", "latency_seconds").kind == "histogram"
        # simulator's own instruments are sampled too
        assert streamed.get("simulator", "queue_depth") is not None

    def test_counter_rate_derivation(self):
        sim = make_sim_with_work(duration=4.0, step=0.5)
        streamed = start(sim, 1.0)
        sim.run(until=4.0)
        series = streamed.get("work", "items_done")
        # 10 items per 0.5s => 20 items/s at every full interval
        assert series.rates is not None
        steady = list(series.rates)[1:]
        assert steady and all(r == pytest.approx(20.0) for r in steady)

    def test_histogram_series_tracks_count_and_p99(self):
        sim = make_sim_with_work()
        streamed = start(sim, 1.0)
        sim.run(until=10.0)
        series = streamed.get("work", "latency_seconds")
        assert list(series.values) == sorted(series.values)  # cumulative
        assert series.p99s is not None
        assert series.p99s[-1] > 0

    def test_gauge_series_tracks_level(self):
        sim = make_sim_with_work()
        streamed = start(sim, 1.0)
        sim.run(until=10.0)
        series = streamed.get("work", "in_flight")
        assert set(series.values) <= {0.0, 0, 1, 2, 3}

    def test_bad_parameters_rejected(self):
        sim = Simulator()
        with pytest.raises(ValueError):
            TelemetrySampler(sim, interval=0.0)


class TestCounterFall:
    def test_falling_read_through_never_yields_negative_rates(self):
        """A read-through counter reads a component's own field; one
        that moves backwards clamps the derived rate to zero instead of
        reporting a negative rate."""
        sim = Simulator()
        stats = type("Stats", (), {"done": 0})()
        sim.metrics.read_through("work", "items_done", stats, "done")
        streamed = start(sim, 1.0)
        stats.done = 100
        sim.schedule(1.0, lambda: None)
        sim.run(until=1.5)  # sample sees value=100

        stats.done = 5
        sim.schedule(1.0, lambda: None)
        sim.run(until=3.5)

        series = streamed.get("work", "items_done")
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


class TestNoSink:
    def test_a_tick_without_a_sink_reads_nothing(self):
        """Without a sink the sampler keeps nothing and reads no
        instrument."""
        sim = make_sim_with_work(duration=2.0)
        sampler = TelemetrySampler(sim, interval=0.5)
        sampler.start()
        sim.run(until=2.0)
        assert sampler.samples == 5
        assert sampler._columns == () and sampler._last is None


class TestBoundedMemory:
    def test_identical_samples_each_take_a_slot(self):
        series = Series("c", "n", {}, "gauge")
        for i in range(6):
            series.record(float(i), 5.0, None, None)
        assert list(series.times) == [0.0, 1.0, 2.0, 3.0, 4.0, 5.0]
        assert len(series) == 6

