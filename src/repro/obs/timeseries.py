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
  counter that moved backwards (the registry was reset mid-run) clamps
  the rate to 0 instead of reporting a negative rate.
* **gauge** — the level at sample time.
* **histogram** — the cumulative observation count (with a derived
  observations/s rate) and the p99 at sample time, so latency
  trajectories are visible, not just end-of-run aggregates.

Scheduling is *dormancy-aware* so the sampler never keeps a simulation
alive on its own: a tick only re-arms while other events are pending,
and :meth:`Simulator.schedule` wakes a dormant sampler when new work
arrives.  ``Simulator.run()`` with no horizon therefore still drains.

Memory is bounded: each series is a fixed-capacity ring and evictions
are counted (surfaced by the ``repro.obs`` CLI so silently-truncated
telemetry is visible).

Under a :class:`~repro.obs.sampling.SamplingPolicy` the sampler can
additionally *decimate* (record only every ``telemetry_stride``-th
scheduled tick — explicit :meth:`TelemetrySampler.sample` calls always
record) and *coalesce* (a sample identical to the previous point slides
that point's timestamp forward instead of appending, so flat-lining
gauges cost O(1) ring slots).  A ``sink`` callable, when attached,
receives every recorded tick for the streamed archive.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Dict, List, Mapping, Optional, Tuple

__all__ = ["Series", "TelemetrySampler", "load_timeseries"]

LabelKey = Tuple[Tuple[str, str], ...]


def _sorted_window(values, window: Optional[int]) -> List[float]:
    vals = list(values) if window is None else list(values)[-window:]
    vals.sort()
    return vals


class Series:
    """One ring-buffered metric trajectory.

    ``times``/``values`` are parallel rings; counter and histogram
    series additionally carry a ``rates`` ring (derived units per
    simulated second) and histogram series a ``p99s`` ring.
    """

    __slots__ = ("component", "name", "labels", "kind",
                 "times", "values", "rates", "p99s", "evicted",
                 "coalesce", "coalesced", "_prev_value", "_prev_time")

    def __init__(self, component: str, name: str,
                 labels: Mapping[str, str], kind: str,
                 capacity: int, *, coalesce: bool = False) -> None:
        self.component = component
        self.name = name
        self.labels = dict(labels)
        self.kind = kind
        self.times: deque = deque(maxlen=capacity)
        self.values: deque = deque(maxlen=capacity)
        self.rates: Optional[deque] = \
            deque(maxlen=capacity) if kind in ("counter", "histogram") else None
        self.p99s: Optional[deque] = \
            deque(maxlen=capacity) if kind == "histogram" else None
        self.evicted = 0
        self.coalesce = coalesce
        self.coalesced = 0
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
        if (self.coalesce and self.times
                and value == self._prev_value
                and (self.rates is None or self.rates[-1] == 0.0)
                and (self.p99s is None
                     or self.p99s[-1] == (0.0 if p99 is None else p99))):
            # identical to the standing point: slide its timestamp
            # forward instead of burning a ring slot (the derived rate
            # of an unchanged cumulative value is 0, matching the one
            # already stored)
            self.times[-1] = time
            self.coalesced += 1
            self._prev_time = time
            return
        if len(self.times) == self.times.maxlen:
            self.evicted += 1
        self.times.append(time)
        self.values.append(value)
        if self.rates is not None:
            prev_v, prev_t = self._prev_value, self._prev_time
            if prev_v is None or prev_t is None or time <= prev_t:
                rate = 0.0
            else:
                # a cumulative value that moved backwards means the
                # registry was reset mid-run: clamp, never negative
                rate = max(0.0, (value - prev_v) / (time - prev_t))
            self.rates.append(rate)
        if self.p99s is not None:
            self.p99s.append(0.0 if p99 is None else p99)
        self._prev_value = value
        self._prev_time = time

    def rollup(self, window: Optional[int] = None,
               channel: str = "values") -> Dict[str, Any]:
        """min/max/mean/p99 over the last *window* samples (all when
        None) of one channel (``values``/``rates``/``p99s``)."""
        ring = getattr(self, channel, None)
        if ring is None:
            raise ValueError(
                f"{self.kind} series has no {channel!r} channel")
        vals = _sorted_window(ring, window)
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
        if self.coalesce:
            out["coalesced"] = self.coalesced
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
                 capacity: int = 512,
                 registry=None, policy=None, meter=None) -> None:
        if interval <= 0:
            raise ValueError(f"sampling interval must be positive "
                             f"(got {interval})")
        if capacity < 2:
            raise ValueError("series capacity must be at least 2")
        self.sim = sim
        self.registry = registry if registry is not None else sim.metrics
        self.interval = interval
        self.capacity = capacity
        self.samples = 0
        self.started = False
        self._series: Dict[Tuple[str, str, LabelKey], Series] = {}
        self._dormant = False
        self._tick_event = None
        self._stride = 1 if policy is None else policy.telemetry_stride
        self._coalesce = (False if policy is None
                          else policy.telemetry_coalesce)
        self._ticks = 0
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
        self._ticks += 1
        if self._ticks % self._stride == 0:
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
        """Snapshot every registered instrument at the current sim time."""
        meter = self.meter
        t0 = meter.now() if meter is not None else 0.0
        now = self.sim.now
        self.samples += 1
        sink = self.sink
        rows: Optional[List[List[Any]]] = [] if sink is not None else None
        for (component, name, labels), inst in \
                self.registry._instruments.items():
            kind = getattr(inst, "kind", None)
            if kind is None:
                continue
            key = (component, name, labels)
            series = self._series.get(key)
            if series is None:
                series = Series(component, name, dict(labels), kind,
                                self.capacity, coalesce=self._coalesce)
                self._series[key] = series
            elif series.times and series.times[-1] == now:
                continue  # snapshot() flush at an existing tick time
            if kind == "counter":
                series.record(now, inst.value)
            elif kind == "gauge":
                series.record(now, inst.value)
            else:  # histogram (empty histograms report p99 = 0.0)
                series.record(now, inst.count, p99=inst.quantile(0.99))
            if rows is not None:
                rows.append([
                    component, name, series.labels, kind,
                    series.values[-1],
                    series.rates[-1] if series.rates is not None else None,
                    series.p99s[-1] if series.p99s is not None else None,
                ])
        if sink is not None:
            sink(now, rows)
        if meter is not None:
            meter.charge("sampler", t0)
        for fn in list(self._listeners):
            fn(now)

    # -- access / export ---------------------------------------------------

    def series(self, component: Optional[str] = None,
               name: Optional[str] = None) -> List[Series]:
        """All series matching the given component/name filters."""
        return [s for s in self._series.values()
                if (component is None or s.component == component)
                and (name is None or s.name == name)]

    def get(self, component: str, name: str,
            **labels: Any) -> Optional[Series]:
        key = (component, name,
               tuple(sorted((k, str(v)) for k, v in labels.items())))
        return self._series.get(key)

    @property
    def evictions(self) -> int:
        """Total ring evictions across every series."""
        return sum(s.evicted for s in self._series.values())

    @property
    def coalesced(self) -> int:
        """Total samples collapsed into standing points across series."""
        return sum(s.coalesced for s in self._series.values())

    def peak(self, component: str, name: str) -> Optional[float]:
        """Largest sampled value across all series of one metric."""
        peaks = [max(s.values) for s in self.series(component, name)
                 if s.values]
        return max(peaks) if peaks else None

    def snapshot(self) -> Dict[str, Any]:
        """JSON-stable dump of every ring.

        Decimation/coalescing stats appear only when a policy enables
        them; the default shape is unchanged.
        """
        snap: Dict[str, Any] = {
            "enabled": True,
            "interval": self.interval,
            "capacity": self.capacity,
            "samples": self.samples,
            "evictions": self.evictions,
            "series": [s.to_dict() for s in sorted(
                self._series.values(), key=lambda s: s.key)],
        }
        if self._stride != 1 or self._coalesce:
            snap["stride"] = self._stride
            snap["coalesced"] = self.coalesced
        return snap


def load_timeseries(payload: Mapping[str, Any]) -> List[Series]:
    """Rebuild :class:`Series` objects from a snapshot dict, so
    the dashboard renders archived runs exactly like live ones."""
    return [Series.from_dict(entry) for entry in
            payload.get("series", [])]
