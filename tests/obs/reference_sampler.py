"""Reference telemetry sampler: one ring per series, one append per tick.

An oracle for :class:`repro.obs.timeseries.TelemetrySampler`, kept in
the shape the sampler had before it batched ticks: every tick walks the
registry, reads each instrument, and appends the reading (with the rate
derived from the series' previous sample) to that series' rings.  It
shares no code with ``repro.obs.timeseries``.
"""

from collections import deque


class ReferenceSeries:
    def __init__(self, key, kind, capacity):
        self.key = key
        self.kind = kind
        self.times = deque(maxlen=capacity)
        self.values = deque(maxlen=capacity)
        self.rates = deque(maxlen=capacity) \
            if kind in ("counter", "histogram") else None
        self.p99s = deque(maxlen=capacity) if kind == "histogram" else None
        self.evicted = 0
        self.prev = None  # (value, time) of the last sample

    def record(self, time, value, p99):
        if len(self.times) == self.times.maxlen:
            self.evicted += 1
        self.times.append(time)
        self.values.append(value)
        if self.rates is not None:
            if self.prev is None or time <= self.prev[1]:
                rate = 0.0
            else:
                rate = max(0.0, (value - self.prev[0])
                           / (time - self.prev[1]))
            self.rates.append(rate)
        if self.p99s is not None:
            self.p99s.append(p99)
        self.prev = (value, time)


class ReferenceSampler:
    """``sample(now)`` reads *registry* into per-series rings and
    returns the tick's archive rows."""

    def __init__(self, registry, capacity):
        self.registry = registry
        self.capacity = capacity
        self.series = {}

    def sample(self, now):
        rows = []
        for key, inst in self.registry._instruments.items():
            series = self.series.get(key)
            if series is None:
                series = ReferenceSeries(key, inst.kind, self.capacity)
                self.series[key] = series
            elif series.times and series.times[-1] == now:
                continue
            if inst.kind == "histogram":
                series.record(now, inst.count, inst.quantile(0.99))
            else:
                series.record(now, inst.value, None)
            rows.append([key[0], key[1], dict(key[2]), inst.kind,
                         series.values[-1],
                         series.rates[-1] if series.rates is not None
                         else None,
                         series.p99s[-1] if series.p99s is not None
                         else None])
        return rows

    def dump(self):
        """``{key: (kind, evicted, times, values, rates, p99s)}``."""
        return {key: (s.kind, s.evicted, list(s.times), list(s.values),
                      None if s.rates is None else list(s.rates),
                      None if s.p99s is None else list(s.p99s))
                for key, s in self.series.items()}
