"""Time-series telemetry: periodic snapshots of every live instrument.

Counters, gauges, and histograms answer "how much, in total, by the
end of the run".  The thesis's prototype was judged by how it behaved
*over a session* — link utilisation during classroom streaming, player
buffer fill across pre-roll, MHEG event rates while links fire — which
needs the missing time axis.  A :class:`TelemetrySampler` self-schedules
on the :class:`~repro.atm.simulator.Simulator` at a configurable
simulated-time interval and writes every instrument registered in the
deployment's :class:`~repro.obs.metrics.MetricsRegistry` to the run's
streamed archive as one telemetry record per tick.

Per instrument kind, a sample stores:

* **counter** — the cumulative value, plus a *rate* (units/s of
  simulated time) over the interval since the previous sample, derived
  when the archive is loaded.  A read-through field that moved
  backwards clamps the rate to 0 instead of reporting a negative rate.
* **gauge** — the level at sample time.
* **histogram** — the cumulative observation count (with a derived
  observations/s rate) and the p99 at sample time, so latency
  trajectories are visible, not just end-of-run aggregates.  The p99
  moves only when the count does, so a tick that leaves the count
  alone writes no row for it.

Scheduling is *dormancy-aware* so the sampler never keeps a simulation
alive on its own: a tick only re-arms while other events are pending,
and :meth:`Simulator.schedule` wakes a dormant sampler when new work
arrives.  ``Simulator.run()`` with no horizon therefore still drains.

A tick reads each instrument once, through a cached walk of the
registry that is extended as keys are registered, and hands its
``sink`` (:class:`~repro.obs.sink.ObsSink`) the walk's columns and one
row per column whose reading changed since the last tick: the archive
names each series once and stores only the readings that moved (the
delta idea of Gorilla, Pelkonen et al., VLDB 2015).  Rates are not
written; :func:`~repro.obs.sink.load_archive` carries each unchanged
reading forward and derives the rates with :func:`_rate`, rebuilding
one :class:`Series` per key from every tick in the archive.  The
sampler keeps only the last tick, and without a sink a tick reads
nothing: a :class:`~repro.core.system.MitsSystem` built without an
archive never starts its sampler, and the watchdog
(:mod:`repro.obs.watchdog`) judges the archived series after the run.
"""

from __future__ import annotations

from itertools import islice
from operator import attrgetter
from typing import Any, List, Mapping, Optional, Tuple

from repro.obs.metrics import ReadThrough

__all__ = ["Series", "TelemetrySampler"]

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
    first sample): what the loader derives for each point of a counter
    or histogram series."""
    if prev_value is None or prev_time is None or time <= prev_time:
        return 0.0
    # a read-through counter is a component's own field, which nothing
    # holds to monotonic: one that moved backwards clamps, never negative
    return max(0.0, (value - prev_value) / (time - prev_time))


def _unchanged(value: Any, prev: Any) -> bool:
    """True when a tick may leave out *value* because its series last
    read *prev*: the same value of the same type, and a zero of the same
    sign, so that the carried-forward reading renders as the written
    one would."""
    return value is prev or (value == prev and type(value) is type(prev)
                             and (value or str(value) == str(prev)))


class Series:
    """One metric's trajectory over every tick of a streamed run.

    ``times``/``values`` are parallel lists; counter and histogram
    series also carry ``rates`` (units per simulated second, derived
    by :func:`_rate` as the archive is loaded; a version-1 archive
    stored each tick's) and histogram series ``p99s``.
    """

    __slots__ = ("component", "name", "labels", "kind",
                 "times", "values", "rates", "p99s")

    def __init__(self, component: str, name: str,
                 labels: Mapping[str, str], kind: str) -> None:
        self.component = component
        self.name = name
        self.labels = dict(labels)
        self.kind = kind
        self.times: List[float] = []
        self.values: List[float] = []
        self.rates: Optional[List[float]] = [] if kind in _RATED else None
        self.p99s: Optional[List[float]] = \
            [] if kind == "histogram" else None

    def __len__(self) -> int:
        return len(self.times)

    def record(self, time: float, value: float, rate: Optional[float],
               p99: Optional[float]) -> None:
        """Append one archived sample."""
        self.times.append(time)
        self.values.append(value)
        if self.rates is not None:
            self.rates.append(0.0 if rate is None else rate)
        if self.p99s is not None:
            self.p99s.append(0.0 if p99 is None else p99)


class TelemetrySampler:
    """Samples a :class:`MetricsRegistry` on the simulated clock.

    One sampler serves one simulator; :meth:`start` attaches it so
    :meth:`Simulator.schedule` can wake it from dormancy.  ``interval``
    is simulated seconds between snapshots.
    """

    def __init__(self, sim, *, interval: float = 0.25, meter=None) -> None:
        if interval <= 0:
            raise ValueError(f"sampling interval must be positive "
                             f"(got {interval})")
        self.sim = sim
        self.interval = interval
        self.samples = 0
        self.started = False
        #: the latest tick ``(time, columns, row, p99s)``, which the next
        #: tick derives its rates from: ``row`` holds one reading per
        #: ``columns`` entry ``(key, kind, histogram ordinal or None)``
        #: and ``p99s`` one p99 per histogram
        self._last: Optional[_Tick] = None
        #: the cached registry walk: columns, ``(getter, arg)`` pairs and
        #: histogram readers, extended as the registry grows
        self._columns: Tuple = ()
        self._pairs: List[Tuple[Any, Any]] = []
        self._readers: List[_HistogramReader] = []
        self._walk_rewired = 0
        self._dormant = False
        self._tick_event = None
        #: receives ``(now, columns, rows)`` per tick (the streamed
        #: archive); a tick reads the instruments only while one is
        #: attached
        self.sink: Optional[Any] = None
        #: OverheadMeter charged per sample, when attached
        self.meter = meter

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
        """Detach from the simulator."""
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
        """Snapshot every registered instrument at the current sim time
        into the attached sink.

        A tick reads each instrument once into one row, and only while
        a sink is attached: the archive is the only place a tick is
        kept.
        """
        meter = self.meter
        t0 = meter.now() if meter is not None else 0.0
        now = self.sim.now
        self.samples += 1
        if self.sink is not None:
            registry = self.sim.metrics
            if registry.rewired != self._walk_rewired \
                    or len(registry._instruments) != len(self._columns):
                self._walk(registry)
            tick = (now, self._columns,
                    [get(arg) for get, arg in self._pairs],
                    [reader.p99 for reader in self._readers])
            self.sink(now, self._columns, self._sink_rows(tick))
            last = self._last
            if last is None or last[0] != now:
                self._last = tick
            else:
                # a flush at the last tick's time: its columns keep
                # their sample, the ones registered since take this
                # tick's
                self._last = (now, tick[1],
                              last[2] + tick[2][len(last[2]):],
                              last[3] + tick[3][len(last[3]):])
        if meter is not None:
            meter.charge("sampler", t0)

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
                columns.append((key, inst.kind, len(self._readers)))
                self._pairs.append((reader, inst))
                self._readers.append(reader)
            else:
                columns.append((key, inst.kind, None))
                self._pairs.append(inst.reader() if type(inst) is ReadThrough
                                   else (_value, inst))
        self._columns += tuple(columns)

    def _sink_rows(self, tick: _Tick) -> List[List[Any]]:
        """One tick's archive rows, ``[index, value]`` (``[index,
        value, p99]`` for a histogram) for each column whose reading
        changed since the last tick, and for each column new since
        then.  A same-instant flush writes only the new columns: the
        others already took their sample at this time."""
        now, columns, row, p99s = tick
        last = self._last
        known = 0
        rows = []
        if last is not None:
            known = len(last[1])
            if last[0] != now:
                for j, (value, prev) in enumerate(zip(row, last[2])):
                    # most unchanged readings are the very same object,
                    # which needs no call
                    if value is prev or _unchanged(value, prev):
                        continue
                    h = columns[j][2]
                    rows.append([j, value] if h is None
                                else [j, value, p99s[h]])
        for j in range(known, len(columns)):
            h = columns[j][2]
            rows.append([j, row[j]] if h is None else [j, row[j], p99s[h]])
        return rows
