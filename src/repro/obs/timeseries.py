"""Time-series telemetry: periodic snapshots of every live instrument.

Counters, gauges, and histograms answer "how much, in total, by the
end of the run".  The thesis's prototype was judged by how it behaved
*over a session* — link utilisation during classroom streaming, player
buffer fill across pre-roll, MHEG event rates while links fire — which
needs the missing time axis.  A :class:`TelemetrySampler` self-schedules
on the :class:`~repro.atm.simulator.Simulator` at a configurable
simulated-time interval and snapshots every instrument registered in
the deployment's :class:`~repro.obs.metrics.MetricsRegistry` into one
bounded ring-buffered :class:`Series` per ``(component, name, labels)``
key.

Per instrument kind, a sample stores:

* **counter** — the cumulative value, plus a derived *rate* (units/s of
  simulated time) over the interval since the previous sample.  A
  read-through field that moved backwards clamps the rate to 0 instead
  of reporting a negative rate.
* **gauge** — the level at sample time.
* **histogram** — the cumulative observation count (with a derived
  observations/s rate) and the p99 at sample time, so latency
  trajectories are visible, not just end-of-run aggregates.

Scheduling is *dormancy-aware* so the sampler never keeps a simulation
alive on its own: a tick only re-arms while other events are pending,
and :meth:`Simulator.schedule` wakes a dormant sampler when new work
arrives.  ``Simulator.run()`` with no horizon therefore still drains.

A tick reads each instrument once into one row, through a cached walk
of the registry that is extended as keys are registered.  Rows are
folded into the series rings in batches (when a reader asks, and at
the latest every ``capacity`` ticks); the rings hold exactly what one
append per tick would have put there.

Memory is bounded: each series is a fixed-capacity ring
(:data:`DEFAULT_CAPACITY` samples unless the sampler is told otherwise)
and evictions are counted (surfaced by the ``repro.obs`` CLI so
silently-truncated telemetry is visible).  A ``sink`` callable, when
attached, receives every tick for the streamed archive, which keeps
what the rings later evict.
"""

from __future__ import annotations

from collections import deque
from itertools import islice
from operator import attrgetter
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.obs.metrics import ReadThrough

__all__ = ["DEFAULT_CAPACITY", "Series", "TelemetrySampler",
           "load_timeseries"]

LabelKey = Tuple[Tuple[str, str], ...]
#: one sampler tick: ``(time, columns, row, p99s)``
_Tick = Tuple[float, Tuple, List[Any], List[float]]

#: what one tick reads from a counter or gauge
_value = attrgetter("value")


class _HistogramReader:
    """What one tick reads from a histogram: its observation count, and
    its p99 (0.0 while empty) left in :attr:`p99`.  ``observe()`` is a
    histogram's only writer and always moves the count, so the p99 is
    recomputed only when the count has moved since the last tick."""

    __slots__ = ("count", "p99")

    def __init__(self) -> None:
        self.count: Optional[int] = None
        self.p99 = 0.0

    def __call__(self, hist) -> int:
        count = hist.count
        if count != self.count:
            self.count = count
            self.p99 = hist.quantile(0.99)
        return count


#: instrument kinds whose series carry a derived rate
_RATED = ("counter", "histogram")


def _rate(prev_value: Optional[float], prev_time: Optional[float],
          value: float, time: float) -> float:
    """Units per simulated second since the previous sample (0.0 for a
    first sample)."""
    if prev_value is None or prev_time is None or time <= prev_time:
        return 0.0
    # a read-through counter is a component's own field, which nothing
    # holds to monotonic: one that moved backwards clamps, never negative
    return max(0.0, (value - prev_value) / (time - prev_time))


#: per-series ring size, for a live sampler and for an archive replay
#: whose ``meta`` record names none
DEFAULT_CAPACITY = 512


class Series:
    """One ring-buffered metric trajectory.

    ``times``/``values`` are parallel rings; counter and histogram
    series additionally carry a ``rates`` ring (derived units per
    simulated second) and histogram series a ``p99s`` ring.
    """

    __slots__ = ("component", "name", "labels", "kind",
                 "times", "values", "rates", "p99s", "evicted",
                 "_prev_value", "_prev_time")

    def __init__(self, component: str, name: str,
                 labels: Mapping[str, str], kind: str,
                 capacity: int) -> None:
        self.component = component
        self.name = name
        self.labels = dict(labels)
        self.kind = kind
        self.times: deque = deque(maxlen=capacity)
        self.values: deque = deque(maxlen=capacity)
        self.rates: Optional[deque] = \
            deque(maxlen=capacity) if kind in _RATED else None
        self.p99s: Optional[deque] = \
            deque(maxlen=capacity) if kind == "histogram" else None
        self.evicted = 0
        self._prev_value: Optional[float] = None
        self._prev_time: Optional[float] = None

    def __len__(self) -> int:
        return len(self.times)

    @property
    def key(self) -> Tuple[str, str, LabelKey]:
        return (self.component, self.name,
                tuple(sorted(self.labels.items())))

    def record(self, time: float, value: float,
               p99: Optional[float] = None) -> None:
        """Append one sample, deriving the rate from the previous one."""
        self.extend((time,), (value,),
                    None if self.p99s is None
                    else (0.0 if p99 is None else p99,))

    def extend(self, times: Sequence[float], values: Sequence[float],
               p99s: Optional[Sequence[float]] = None) -> None:
        """Append samples in time order, deriving each rate from the
        sample before it (histogram series take one p99 per sample)."""
        if not times:
            return
        self.evicted += max(0, len(self.times) + len(times)
                            - self.times.maxlen)
        self.times.extend(times)
        self.values.extend(values)
        if self.rates is not None:
            prev_v, prev_t = self._prev_value, self._prev_time
            rates = []
            for time, value in zip(times, values):
                rates.append(_rate(prev_v, prev_t, value, time))
                prev_v, prev_t = value, time
            self.rates.extend(rates)
        if self.p99s is not None:
            self.p99s.extend(p99s)
        self._prev_value = values[-1]
        self._prev_time = times[-1]

    def rollup(self, channel: str = "values") -> Dict[str, Any]:
        """min/max/mean/p99 over the samples one channel's ring holds
        (``values``/``rates``/``p99s``)."""
        ring = getattr(self, channel, None)
        if ring is None:
            raise ValueError(
                f"{self.kind} series has no {channel!r} channel")
        vals = sorted(ring)
        if not vals:
            return {"count": 0, "min": None, "max": None,
                    "mean": None, "p99": None}
        idx = min(len(vals) - 1, int(0.99 * (len(vals) - 1) + 0.5))
        return {
            "count": len(vals),
            "min": vals[0],
            "max": vals[-1],
            "mean": sum(vals) / len(vals),
            "p99": vals[idx],
        }

    @classmethod
    def from_dict(cls, entry: Mapping[str, Any]) -> "Series":
        """Rebuild one series from its :meth:`to_dict` form (rings are
        restored verbatim — rates are not re-derived)."""
        series = cls(entry["component"], entry["name"],
                     entry.get("labels", {}),
                     entry.get("kind", "gauge"),
                     capacity=max(2, len(entry.get("times", []))))
        times = entry.get("times", [])
        values = entry.get("values", [])
        rates = entry.get("rates")
        p99s = entry.get("p99s")
        for i, (t, v) in enumerate(zip(times, values)):
            series.times.append(t)
            series.values.append(v)
            if series.rates is not None and rates is not None:
                series.rates.append(rates[i] if i < len(rates) else 0.0)
            if series.p99s is not None and p99s is not None:
                series.p99s.append(p99s[i] if i < len(p99s) else 0.0)
        series.evicted = entry.get("evicted", 0)
        return series

    def to_dict(self) -> Dict[str, Any]:
        out: Dict[str, Any] = {
            "component": self.component,
            "name": self.name,
            "labels": self.labels,
            "kind": self.kind,
            "evicted": self.evicted,
            "times": list(self.times),
            "values": list(self.values),
            "rollup": self.rollup(),
        }
        if self.rates is not None:
            out["rates"] = list(self.rates)
            out["rate_rollup"] = self.rollup(channel="rates")
        if self.p99s is not None:
            out["p99s"] = list(self.p99s)
        return out


class TelemetrySampler:
    """Samples a :class:`MetricsRegistry` on the simulated clock.

    One sampler serves one simulator; :meth:`start` attaches it so
    :meth:`Simulator.schedule` can wake it from dormancy.  ``interval``
    is simulated seconds between snapshots, ``capacity`` the per-series
    ring size.
    """

    def __init__(self, sim, *, interval: float = 0.25,
                 capacity: int = DEFAULT_CAPACITY,
                 meter=None) -> None:
        if interval <= 0:
            raise ValueError(f"sampling interval must be positive "
                             f"(got {interval})")
        if capacity < 2:
            raise ValueError("series capacity must be at least 2")
        self.sim = sim
        self.interval = interval
        self.capacity = capacity
        self.samples = 0
        self.started = False
        self._series: Dict[Tuple[str, str, LabelKey], Series] = {}
        #: ticks not yet folded into the rings, ``(time, columns, row,
        #: p99s)``: ``row`` holds one reading per ``columns`` entry
        #: ``(key, kind, histogram ordinal or None, labels)`` and
        #: ``p99s`` one p99 per histogram
        self._pending: List[_Tick] = []
        #: every column's latest sample, as a tick
        self._last: Optional[_Tick] = None
        #: the cached registry walk: columns, ``(getter, arg)`` pairs and
        #: histogram readers, extended as the registry grows
        self._columns: Tuple = ()
        self._pairs: List[Tuple[Any, Any]] = []
        self._readers: List[_HistogramReader] = []
        self._walk_rewired = 0
        self._dormant = False
        self._tick_event = None
        #: receives ``(now, rows)`` per recorded tick (the streamed archive)
        self.sink: Optional[Any] = None
        #: OverheadMeter charged per sample, when attached
        self.meter = meter
        #: callables invoked with the sample time after each sample —
        #: the watchdog's evaluation hook (see obs/watchdog)
        self._listeners: List[Any] = []

    def add_listener(self, fn) -> None:
        """Call ``fn(now)`` after every sample (watchdog hook)."""
        self._listeners.append(fn)

    # -- lifecycle ---------------------------------------------------------

    def start(self) -> None:
        """Take a first sample now and self-schedule on the simulator."""
        if self.started:
            return
        self.started = True
        self.sim._sampler = self
        self.sample()
        self._arm()

    def stop(self) -> None:
        """Detach from the simulator; series are kept for export."""
        if not self.started:
            return
        self.started = False
        if self.sim._sampler is self:
            self.sim._sampler = None
        if self._tick_event is not None:
            self._tick_event.cancel()
            self._tick_event = None
        self._dormant = False

    @property
    def dormant(self) -> bool:
        """True while no tick is scheduled (idle simulator)."""
        return self._dormant

    def _arm(self) -> None:
        self._dormant = False
        self._tick_event = self.sim.schedule(self.interval, self._tick)

    def _tick(self) -> None:
        self._tick_event = None
        self.sample()
        # re-arm only while the deployment still has work queued;
        # otherwise go dormant so `run()` with no horizon still drains.
        # Simulator.schedule() wakes us when new work arrives.
        if self.sim.pending() > 0:
            self._arm()
        else:
            self._dormant = True

    def wake(self) -> None:
        """Called by :meth:`Simulator.schedule` when work arrives while
        the sampler is dormant."""
        if self.started and self._dormant:
            self._arm()

    # -- sampling ----------------------------------------------------------

    def sample(self) -> None:
        """Snapshot every registered instrument at the current sim time.

        A tick reads each instrument once into one row.  Rows wait in
        ``_pending`` and are folded into the per-series rings in batches
        (:meth:`_fold`): when a reader asks for a series, and whenever
        ``capacity`` rows wait.
        """
        meter = self.meter
        t0 = meter.now() if meter is not None else 0.0
        now = self.sim.now
        self.samples += 1
        registry = self.sim.metrics
        if registry.rewired != self._walk_rewired \
                or len(registry._instruments) != len(self._columns):
            self._walk(registry)
        tick = (now, self._columns, [get(arg) for get, arg in self._pairs],
                [reader.p99 for reader in self._readers])
        if self.sink is not None:
            self.sink(now, self._sink_rows(tick))
        last = self._last
        if last is None or last[0] != now:
            self._last = tick
        else:
            # a flush at the last tick's time: its columns keep their
            # sample, the ones registered since take this tick's
            self._last = (now, tick[1], last[2] + tick[2][len(last[2]):],
                          last[3] + tick[3][len(last[3]):])
        self._pending.append(tick)
        if len(self._pending) >= self.capacity:
            self._fold()
        if meter is not None:
            meter.charge("sampler", t0)
        for fn in list(self._listeners):
            fn(now)

    def _walk(self, registry) -> None:
        """Bring the cached walk up to date with *registry*: walk the
        keys added since the last walk, re-reading the read-through
        readers if one gained a source."""
        if registry.rewired != self._walk_rewired:
            # a read-through gained a source: only its reader changes
            instruments = registry._instruments
            for j, column in enumerate(self._columns):
                inst = instruments[column[0]]
                if type(inst) is ReadThrough:
                    self._pairs[j] = inst.reader()
        self._walk_rewired = registry.rewired
        columns = []
        for key, inst in islice(registry._instruments.items(),
                                len(self._columns), None):
            if inst.kind == "histogram":
                reader = _HistogramReader()
                columns.append((key, inst.kind, len(self._readers),
                                dict(key[2])))
                self._pairs.append((reader, inst))
                self._readers.append(reader)
            else:
                columns.append((key, inst.kind, None, dict(key[2])))
                self._pairs.append(inst.reader() if type(inst) is ReadThrough
                                   else (_value, inst))
        self._columns += tuple(columns)

    def _sink_rows(self, tick: _Tick) -> List[List[Any]]:
        """One tick's archive rows, ``[component, name, labels, kind,
        value, rate, p99]`` for each series that takes the sample, each
        rate taken from the last tick: a column new since then has no
        series yet, so its first rate is 0."""
        now, columns, row, p99s = tick
        last = self._last
        known = len(last[1]) if last is not None else 0
        rows = []
        for j, (key, kind, h, labels) in enumerate(columns):
            if j < known:
                if last[0] == now:
                    continue  # a flush: this series already sampled now
                prev_v, prev_t = last[2][j], last[0]
            else:
                prev_v = prev_t = None
            value = row[j]
            rows.append([key[0], key[1], labels, kind, value,
                         _rate(prev_v, prev_t, value, now)
                         if kind in _RATED else None,
                         None if h is None else p99s[h]])
        return rows

    def _fold(self) -> None:
        """Move the pending ticks into the per-series rings, one
        :meth:`Series.extend` per series per run of ticks that share a
        walk.

        A tick at the time a series last sampled (a ``snapshot()`` flush)
        adds nothing to that series: only series new since then take it.
        """
        pending = self._pending
        start = 0
        while start < len(pending):
            columns = pending[start][1]
            end = start + 1
            while end < len(pending) and pending[end][1] is columns:
                end += 1
            times: List[float] = []
            rows: List[List[Any]] = []
            p99s: List[List[float]] = []
            for now, _, row, p99 in pending[start:end]:
                if not times or now != times[-1]:
                    times.append(now)
                    rows.append(row)
                    p99s.append(p99)
            all_series = self._series
            for j, (key, kind, h, labels) in enumerate(columns):
                series = all_series.get(key)
                if series is None:
                    series = Series(key[0], key[1], labels, kind,
                                    self.capacity)
                    all_series[key] = series
                lo = 1 if series.times and series.times[-1] == times[0] \
                    else 0
                series.extend(times[lo:], [row[j] for row in rows[lo:]],
                              None if h is None
                              else [p99[h] for p99 in p99s[lo:]])
            start = end
        pending.clear()

    # -- access / export ---------------------------------------------------

    def series(self, component: Optional[str] = None,
               name: Optional[str] = None) -> List[Series]:
        """All series matching the given component/name filters."""
        self._fold()
        return [s for s in self._series.values()
                if (component is None or s.component == component)
                and (name is None or s.name == name)]

    def get(self, component: str, name: str,
            **labels: Any) -> Optional[Series]:
        key = (component, name,
               tuple(sorted((k, str(v)) for k, v in labels.items())))
        self._fold()
        return self._series.get(key)

    @property
    def evictions(self) -> int:
        """Total ring evictions across every series."""
        self._fold()
        return sum(s.evicted for s in self._series.values())

    def peak(self, component: str, name: str) -> Optional[float]:
        """Largest sampled value across all series of one metric."""
        peaks = [max(s.values) for s in self.series(component, name)
                 if s.values]
        return max(peaks) if peaks else None

    def snapshot(self) -> Dict[str, Any]:
        """JSON-stable dump of every ring."""
        self._fold()
        return {
            "enabled": True,
            "interval": self.interval,
            "capacity": self.capacity,
            "samples": self.samples,
            "evictions": self.evictions,
            "series": [s.to_dict() for s in sorted(
                self._series.values(), key=lambda s: s.key)],
        }


def load_timeseries(payload: Mapping[str, Any]) -> List[Series]:
    """Rebuild :class:`Series` objects from a snapshot dict (an
    archive's replayed telemetry or ``TelemetrySampler.snapshot()``)."""
    return [Series.from_dict(entry) for entry in
            payload.get("series", [])]
