"""Hand-written archives for the CLI tests, written through
:class:`~repro.obs.sink.ObsSink` in the record grammar of either
schema version, and a sampler sink that decodes what the archive
would hold tick by tick."""

import json
import os

from repro.obs.sink import SCHEMA_VERSION, ObsSink, _Telemetry
from repro.obs.timeseries import _unchanged

#: a series' last reading before its first tick
_UNSEEN = object()


class Decoded:
    """A sampler sink: each tick's ``series`` and ``telemetry`` lines as
    :class:`~repro.obs.sink.ObsSink` writes them, decoded by the
    loader's decoder.  :attr:`series` maps each key
    to its :class:`~repro.obs.timeseries.Series`, and :attr:`ticks`
    holds ``(time, rows)`` per tick with one row ``[component, name,
    labels, kind, value, rate, p99]`` per series that took a point."""

    def __init__(self, sampler):
        self.ticks = []
        self._records = []
        self._decoder = _Telemetry()
        self.series = self._decoder.series
        archive = ObsSink(os.devnull)
        archive._fh.close()  # lines go to _records, never to the file
        archive._write = self._records.append
        self._sink = archive._telemetry_sink
        sampler.sink = self

    def __call__(self, now, columns, rows):
        self._sink(now, columns, rows)
        for line in self._records:
            record = json.loads(line)
            if record["record"] == "series":
                self._decoder.declare(record)
            else:
                columns = self._decoder._columns.values()
                before = [len(s) for s in columns]
                self._decoder.tick(record)
                self.ticks.append((record["time"], [
                    [s.component, s.name, s.labels, s.kind, s.values[-1],
                     None if s.rates is None else s.rates[-1],
                     None if s.p99s is None else s.p99s[-1]]
                    for s, n in zip(columns, before) if len(s) > n]))
        self._records.clear()

    def get(self, component, name, **labels):
        return self.series.get(
            (component, name, tuple(sorted(labels.items()))))


def _v1_records(series):
    """One telemetry record per distinct time, one full row per series
    sampled then (rates and p99s as given)."""
    ticks = {}
    for s in series:
        rates, p99s = s.get("rates"), s.get("p99s")
        for i, (time, value) in enumerate(zip(s["times"], s["values"])):
            ticks.setdefault(time, []).append([
                s["component"], s["name"], s["labels"], s["kind"], value,
                rates[i] if rates is not None else None,
                p99s[i] if p99s is not None else None])
    return [{"record": "telemetry", "time": time, "rows": ticks[time]}
            for time in sorted(ticks)]


def _v2_records(series):
    """A ``series`` record per series before its first tick, and one
    telemetry record per distinct time holding a row only for the
    series whose reading changed (rates are derived on load, so any
    given ``rates`` are not written).  Version 2 samples a series at
    every tick from its first on."""
    times = sorted({t for s in series for t in s["times"]})
    ordered = sorted(series, key=lambda s: s["times"][0])
    readings = []
    for s in ordered:
        if s["times"] != [t for t in times if t >= s["times"][0]]:
            raise ValueError(f"{s['name']}: a version-2 series is "
                             f"sampled at every tick from its first on")
        p99s = s.get("p99s") or [None] * len(s["times"])
        readings.append(dict(zip(s["times"], zip(s["values"], p99s))))
    records, last = [], [_UNSEEN] * len(ordered)
    for time in times:
        rows = []
        for index, s in enumerate(ordered):
            if time not in readings[index]:
                continue
            prev = last[index]
            if prev is _UNSEEN:
                records.append({"record": "series", "index": index,
                                "component": s["component"],
                                "name": s["name"], "labels": s["labels"],
                                "kind": s["kind"]})
            value, p99 = readings[index][time]
            last[index] = value
            if prev is not _UNSEEN and _unchanged(value, prev):
                continue
            rows.append([index, value] if s["kind"] != "histogram"
                        else [index, value, p99])
        records.append({"record": "telemetry", "time": time, "rows": rows})
    return records


def telemetry_records(series, version=SCHEMA_VERSION):
    """Series given as ``{"component", "name", "labels", "kind",
    "times", "values"[, "rates"][, "p99s"]}`` dicts, as the records a
    sampler streams under schema *version* (1 or 2)."""
    return _v1_records(series) if version == 1 else _v2_records(series)


def write_archive(path, *, name="demo", summary=None, spans=(),
                  events=(), series=(), ledger=None, wall=None,
                  telemetry=None, meta=None, version=SCHEMA_VERSION):
    """One complete archive at *path* in schema *version*; *summary*
    becomes ``fin`` and *meta* adds keys to the ``meta`` record."""
    sink = ObsSink(str(path))
    meta = {"record": "meta", "version": version, "name": name,
            **(meta or {})}
    if telemetry is not None:
        meta["telemetry"] = telemetry
    sink.emit(meta)
    for span in spans:
        sink.emit({"record": "span", **span})
    for event in events:
        sink.emit({"record": "event", **event})
    for record in telemetry_records(series, version):
        sink.emit(record)
    if ledger is not None:
        sink.emit({"record": "ledger", **ledger})
    sink.finish({"name": name, **(summary or {})}, wall=wall)
    return path
