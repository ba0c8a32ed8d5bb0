"""The observability archive: one append-only JSONL file per run.

Every archive this repo writes is an ``obs_<name>.jsonl`` (or, for a
merged fleet, a ``fleet_<name>.jsonl``) in one record grammar, and
:class:`ObsSink` is its only writer.  Attach a sink to a
:class:`~repro.core.system.MitsSystem` (``MitsSystem(stream=path)``)
and every kept span, every flight event, and every telemetry tick is
appended *as it happens*, through a small bounded write buffer, so
in-memory rings can be as small as the sampling policy allows while
the archive keeps full sampled fidelity.  A sink attached late (by
:func:`~repro.obs.export.dump_observability` on a run that did not
stream) replays what the run still holds in memory instead.

Record grammar (one JSON object per line, tagged ``"record"``):

``meta``
    first line — schema version, run name, seed, topology, the
    :class:`~repro.obs.sampling.SamplingPolicy` the run used, and the
    sampler's interval/capacity.  A merged fleet archive adds
    ``merged``, ``shards`` (per-shard provenance, with wall time and
    peak RSS) and ``provenance`` (gauge sources, id remaps).
``span`` / ``event``
    one finished :class:`~repro.obs.tracing.SpanRecord` / recorded
    :class:`~repro.obs.events.FlightEvent`.
``telemetry``
    one sampler tick: the time plus one compact row per instrument —
    ``[component, name, labels, kind, value, rate, p99]``.
``ledger``
    an accounting checkpoint (every :data:`LEDGER_EVERY` telemetry
    ticks, and one final checkpoint at close); the last one wins.
``wall``
    optional, just before ``fin`` — the wall-clock facts: the
    :class:`~repro.obs.meter.OverheadMeter`'s ``overhead`` table and
    the profiler's ``profile``.  Only ``dump_observability`` (and a
    fleet merge) write it; a plain :meth:`ObsSink.close` does not, so
    same seed + same policy ⇒ byte-identical archives.
``fin``
    last line — the end-of-run summary (metrics report, SLO verdicts,
    conservation audit, telemetry health, watchdog, critical-path
    attribution), plus ``records`` (how many records precede it) and
    ``digest`` (sha256 over those lines and over the ``fin`` line
    itself with the digest zeroed).

:func:`load_archive` reads any archive back into one :class:`Archive`,
which every ``repro.obs`` verb renders.  It never trusts a file to be
whole: a torn last line (one without its newline), a missing ``fin``,
a record count or digest that does not match, or records after
``fin`` give ``complete=False`` and a ``reason``; a malformed record
on any newline-terminated line raises ``ValueError`` naming the line.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

__all__ = ["Archive", "ObsSink", "load_archive"]

#: bump when the record grammar changes incompatibly
SCHEMA_VERSION = 1

#: records buffered at most before a flush
BUFFER_RECORDS = 256

#: telemetry ticks between periodic ledger checkpoints
LEDGER_EVERY = 16

#: what the ``fin`` digest field holds while the digest is computed
_DIGEST_PLACEHOLDER = "0" * 64

#: what a well-formed JSON line with the wrong shape raises on replay
_MALFORMED = (ArithmeticError, AttributeError, KeyError, TypeError,
              ValueError)


class ObsSink:
    """Bounded-buffer JSONL writer for one run's archive."""

    def __init__(self, path: str, *, name: str = "") -> None:
        self.path = path
        self.name = name or os.path.basename(path)
        self.records = 0
        self.bytes_written = 0
        self.flushes = 0
        self.closed = False
        self._buf: List[str] = []
        self._digest = hashlib.sha256()
        self._ticks = 0
        self._mits = None
        self.meter = None
        directory = os.path.dirname(os.path.abspath(path))
        os.makedirs(directory, exist_ok=True)
        self._fh = open(path, "w")

    # -- wiring ------------------------------------------------------------

    def attach(self, mits, *, replay: bool = False) -> None:
        """Wire the deployment's collectors into this sink.

        Writes the ``meta`` record; from then on every kept span,
        recorded event, and telemetry tick streams through
        :meth:`emit`.  With *replay* (a sink attached after the run)
        the spans, events, and sampler rings already held in memory
        are written first.
        """
        self._mits = mits
        self.meter = getattr(mits, "meter", None)
        policy = getattr(mits, "sampling", None)
        meta: Dict[str, Any] = {
            "record": "meta",
            "version": SCHEMA_VERSION,
            "name": self.name,
            "seed": getattr(mits, "seed", None),
            "topology": mits.spec.name if hasattr(mits, "spec") else None,
            "policy": policy.to_dict() if policy is not None else None,
        }
        sampler = getattr(mits, "sampler", None)
        if sampler is not None:
            meta["telemetry"] = {"interval": sampler.interval,
                                 "capacity": sampler.capacity}
        self.emit(meta)
        sim = mits.sim
        if replay:
            for span in sim.tracer.spans:
                self._span_sink(span)
            # reservoir-salvaged ring-evicted events are the oldest
            for event in sim.recorder.overflow:
                self._event_sink(event)
            for event in sim.recorder.events:
                self._event_sink(event)
            if sampler is not None:
                self.emit_series(sampler.snapshot()["series"])
        sim.tracer.sink = self._span_sink
        sim.recorder.sink = self._event_sink
        if sampler is not None:
            sampler.sink = self._telemetry_sink

    def _span_sink(self, rec) -> None:
        self.emit({"record": "span", **rec.to_dict()})

    def _event_sink(self, event) -> None:
        self.emit({"record": "event", **event.to_dict()})

    def _telemetry_sink(self, now: float, rows: List[List[Any]]) -> None:
        self.emit({"record": "telemetry", "time": now, "rows": rows})
        self._ticks += 1
        if self._ticks % LEDGER_EVERY == 0:
            self._ledger_checkpoint()

    def emit_series(self, series: List[Dict[str, Any]]) -> None:
        """Write series rings (``Series.to_dict`` form) as telemetry
        ticks, one per distinct sample time."""
        ticks: Dict[float, List[List[Any]]] = {}
        for s in series:
            rates, p99s = s.get("rates"), s.get("p99s")
            for i, (time, value) in enumerate(zip(s["times"],
                                                  s["values"])):
                ticks.setdefault(time, []).append([
                    s["component"], s["name"], s["labels"], s["kind"],
                    value, rates[i] if rates is not None else None,
                    p99s[i] if p99s is not None else None])
        for time in sorted(ticks):
            self.emit({"record": "telemetry", "time": time,
                       "rows": ticks[time]})

    def _ledger_checkpoint(self) -> None:
        mits = self._mits
        if mits is None:
            return
        ledger = getattr(mits.sim, "ledger", None)
        if ledger is None or not ledger.enabled:
            return
        meter = self.meter
        t0 = meter.now() if meter is not None else 0.0
        self.emit({"record": "ledger", "sim_time": mits.sim.now,
                   **ledger.snapshot(sim_time=mits.sim.now)})
        if meter is not None:
            meter.charge("ledger", t0)

    # -- the write path ----------------------------------------------------

    def emit(self, record: Dict[str, Any]) -> None:
        """Buffer one record; flushes when the buffer fills."""
        if self.closed:
            raise ValueError(f"sink {self.path} is closed")
        self._buf.append(json.dumps(record, sort_keys=True))
        self.records += 1
        if len(self._buf) >= BUFFER_RECORDS:
            self.flush()

    def flush(self) -> None:
        if not self._buf:
            return
        meter = self.meter
        t0 = meter.now() if meter is not None else 0.0
        chunk = "\n".join(self._buf) + "\n"
        self._buf.clear()
        self._fh.write(chunk)
        self._fh.flush()
        self._digest.update(chunk.encode())
        self.bytes_written += len(chunk)
        self.flushes += 1
        if meter is not None:
            meter.charge("sink", t0, nbytes=len(chunk))

    def close(self, *, wall: Optional[Dict[str, Any]] = None) -> None:
        """Write the final ledger checkpoint and the ``fin`` record.

        *wall* (``dump_observability`` only) is written as a ``wall``
        record before ``fin``, with the meter's ``overhead`` added.
        """
        if self.closed:
            return
        mits = self._mits
        if mits is None:
            self.finish({"name": self.name}, wall=wall)
            return
        sim = mits.sim
        sampler = getattr(mits, "sampler", None)
        if sampler is not None:
            sampler.sample()  # flush a final point at `now`
        self._ledger_checkpoint()
        from repro.obs.audit import ConservationAuditor
        from repro.obs.export import critical_block, telemetry_health

        metrics_report = sim.metrics.report()
        watchdog = getattr(mits, "watchdog", None)
        meter = self.meter
        t0 = meter.now() if meter is not None else 0.0
        audit = ConservationAuditor(mits).report()
        if meter is not None:
            meter.charge("auditor", t0)
        fin: Dict[str, Any] = {
            "name": self.name,
            "sim_time": sim.now,
            "events_run": sim.events_run,
            "metrics": metrics_report,
            "slo": mits.slos.summary(
                metrics_report,
                watchdog_alerts=watchdog.alerts
                if watchdog is not None else None),
            "telemetry": telemetry_health(mits),
            "audit": audit,
        }
        if watchdog is not None:
            fin["watchdog"] = watchdog.snapshot()
        # attribution over the spans still held in memory
        crit = critical_block([s.to_dict() for s in sim.tracer.spans])
        if crit is not None:
            fin["critical"] = crit
        if sampler is not None:
            ts: Dict[str, Any] = {
                "interval": sampler.interval,
                "capacity": sampler.capacity,
                "samples": sampler.samples,
                "evictions": sampler.evictions,
            }
            if sampler._stride != 1 or sampler._coalesce:
                ts["stride"] = sampler._stride
                ts["coalesced"] = sampler.coalesced
            fin["timeseries"] = ts
        # detach so late spans/events cannot hit a closed sink
        sim.tracer.sink = None
        sim.recorder.sink = None
        if sampler is not None:
            sampler.sink = None
        if wall is not None and meter is not None:
            self.flush()  # so the overhead table counts these bytes
            wall = {**wall, "overhead": meter.report()}
        self.finish(fin, wall=wall)

    def finish(self, fin: Dict[str, Any], *,
               wall: Optional[Dict[str, Any]] = None) -> None:
        """Write the optional ``wall`` record, then ``fin`` stamped
        with the record count and digest, and close the file."""
        if wall:
            self.emit({"record": "wall", **wall})
        self.flush()
        fin = {**fin, "record": "fin", "records": self.records,
               "digest": _DIGEST_PLACEHOLDER}
        line = json.dumps(fin, sort_keys=True)
        self._digest.update(line.encode() + b"\n")
        self._buf.append(line.replace(_DIGEST_PLACEHOLDER,
                                      self._digest.hexdigest(), 1))
        self.records += 1
        self.flush()
        self._fh.close()
        self.closed = True

    def report(self) -> Dict[str, Any]:
        """Write-path counters, for tests and the health block."""
        return {"path": self.path, "records": self.records,
                "bytes_written": self.bytes_written,
                "flushes": self.flushes, "closed": self.closed}


# -- reading one back -------------------------------------------------------


@dataclass
class Archive:
    """One run (or merged fleet) as every ``repro.obs`` verb sees it."""

    path: str
    name: str
    #: the ``meta`` record (merged archives: ``merged``/``shards``/...)
    meta: Dict[str, Any]
    #: the ``fin`` summary; empty when the run did not finish
    summary: Dict[str, Any]
    spans: List[Dict[str, Any]] = field(default_factory=list)
    events: List[Dict[str, Any]] = field(default_factory=list)
    #: sampler-snapshot shape, rebuilt from the telemetry ticks
    timeseries: Dict[str, Any] = field(default_factory=dict)
    #: the last ledger checkpoint (None when the run had no ledger)
    accounting: Optional[Dict[str, Any]] = None
    #: the ``wall`` record: ``overhead`` and/or ``profile``
    wall: Dict[str, Any] = field(default_factory=dict)
    records: int = 0
    complete: bool = False
    #: why the archive is incomplete ("" when complete)
    reason: str = ""

    @property
    def metrics(self) -> Dict[str, Any]:
        return self.summary.get("metrics", {})

    @property
    def merged(self) -> bool:
        return bool(self.meta.get("merged"))

    @property
    def shards(self) -> List[Dict[str, Any]]:
        return self.meta.get("shards") or []

    @property
    def overhead(self) -> Optional[Dict[str, Any]]:
        return self.wall.get("overhead")

    @property
    def profile(self) -> Optional[Dict[str, Any]]:
        return self.wall.get("profile")

    def warning(self) -> Optional[str]:
        """The line every verb prints for an incomplete archive."""
        if self.complete:
            return None
        return (f"!! incomplete archive: {self.records} records "
                f"recovered, {self.reason} ({self.path})")

    def shard(self) -> Dict[str, Any]:
        """This archive as a :mod:`repro.obs.merge` shard dict."""
        summary = self.summary
        acct = self.accounting
        if acct is not None:
            acct = {k: v for k, v in acct.items() if k != "sim_time"}
        shard: Dict[str, Any] = {
            "name": self.name or os.path.basename(self.path),
            "path": self.path,
            "sim_time": summary.get("sim_time", 0.0),
            "events_run": summary.get("events_run", 0),
            "metrics": self.metrics,
            "spans": self.spans,
            "events": self.events,
            "timeseries": self.timeseries,
            "accounting": acct,
            "watchdog": summary.get("watchdog"),
            "audit": summary.get("audit"),
            "telemetry": summary.get("telemetry"),
            "overhead": self.overhead,
        }
        gauges = (self.meta.get("provenance") or {}).get("gauges")
        if gauges:
            shard["gauge_provenance"] = gauges
        return shard


class _Telemetry:
    """Replays telemetry ticks into sampler-shaped series rings, with
    the run's real capacity and coalescing policy, so the result
    renders exactly like the live sampler's ``snapshot()``."""

    def __init__(self, meta: Dict[str, Any]) -> None:
        policy = meta.get("policy") or {}
        self.settings = dict(meta.get("telemetry") or {})
        self.capacity = int(self.settings.get("capacity", 512))
        self.coalesce = bool(policy.get("telemetry_coalesce", False))
        self.series: Dict[Tuple[str, str, Any], Any] = {}
        self.ticks = 0

    def tick(self, rec: Dict[str, Any]) -> None:
        from repro.obs.timeseries import Series

        time = rec["time"]
        self.ticks += 1
        for component, name, labels, kind, value, _rate, p99 in \
                rec["rows"]:
            key = (component, name, tuple(sorted(labels.items())))
            series = self.series.get(key)
            if series is None:
                series = Series(component, name, labels, kind,
                                self.capacity, coalesce=self.coalesce)
                self.series[key] = series
            if series.times and series.times[-1] == time:
                continue  # a snapshot() flush re-emitted this tick
            series.record(time, value,
                          p99=p99 if kind == "histogram" else None)

    def snapshot(self, fin: Dict[str, Any]) -> Dict[str, Any]:
        ts = {**self.settings, **(fin.get("timeseries") or {})}
        series = sorted(self.series.values(), key=lambda s: s.key)
        payload: Dict[str, Any] = {
            "enabled": True,
            "interval": ts.get("interval"),
            "capacity": ts.get("capacity", self.capacity),
            "samples": ts.get("samples", self.ticks),
            "evictions": ts.get("evictions",
                                sum(s.evicted for s in series)),
            "series": [s.to_dict() for s in series],
        }
        if "stride" in ts:
            payload["stride"] = ts["stride"]
            payload["coalesced"] = ts.get(
                "coalesced", sum(s.coalesced for s in series))
        return payload


def load_archive(path: str) -> Archive:
    """Read one archive back; see the module docstring for what makes
    it ``complete``."""
    with open(path, "rb") as fh:
        lines = fh.read().split(b"\n")
    # a record is written when its newline is: an unterminated last
    # line is a run killed inside its final write
    torn = bool(lines.pop())
    archive = Archive(path=path, name="", meta={}, summary={})
    telemetry: Optional[_Telemetry] = None
    digest = hashlib.sha256()
    fin: Optional[Dict[str, Any]] = None
    after_fin = 0
    for lineno, raw in enumerate(lines, 1):
        try:
            rec = json.loads(raw.decode())
            if not isinstance(rec, dict):
                raise ValueError("not a JSON object")
        except ValueError as exc:
            raise ValueError(f"{path}:{lineno}: malformed record: "
                             f"{exc}") from exc
        tag = rec.pop("record", None)
        if lineno == 1 and tag != "meta":
            raise ValueError(f"{path}:{lineno}: not an obs archive "
                             f"(first record is not meta)")
        archive.records += 1
        if fin is not None:
            after_fin += 1
            continue
        try:
            if tag == "fin":
                fin = rec
                digest.update(raw.replace(
                    str(fin.get("digest")).encode(),
                    _DIGEST_PLACEHOLDER.encode(), 1) + b"\n")
                continue
            digest.update(raw + b"\n")
            if tag == "meta":
                archive.meta = rec
                archive.name = str(rec.get("name") or "")
                telemetry = _Telemetry(rec)
            elif tag == "span":
                archive.spans.append(rec)
            elif tag == "event":
                archive.events.append(rec)
            elif tag == "telemetry":
                telemetry.tick(rec)
            elif tag == "ledger":
                archive.accounting = rec
            elif tag == "wall":
                archive.wall = rec
        except _MALFORMED as exc:
            raise ValueError(f"{path}:{lineno}: malformed {tag} record: "
                             f"{exc!r}") from exc
    if telemetry is None:
        raise ValueError(f"{path}:1: not an obs archive (no meta record)")
    archive.summary = fin or {}
    try:
        archive.timeseries = telemetry.snapshot(archive.summary)
    except _MALFORMED as exc:
        raise ValueError(f"{path}:{len(lines)}: malformed fin record: "
                         f"{exc!r}") from exc
    reasons = []
    if torn:
        reasons.append("torn final line skipped")
    if fin is None:
        reasons.append("no fin record (run did not finish)")
    elif after_fin:
        reasons.append(f"{after_fin} record(s) after fin")
    elif fin.get("records") != archive.records - 1:
        reasons.append(f"fin counts {fin.get('records')} records, "
                       f"found {archive.records - 1}")
    elif fin.get("digest") != digest.hexdigest():
        reasons.append("digest mismatch")
    archive.complete = not reasons
    archive.reason = ", ".join(reasons)
    return archive
