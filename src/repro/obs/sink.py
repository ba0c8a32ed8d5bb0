"""The observability archive: one append-only JSONL file per run.

Every archive this repo writes is an ``obs_<name>.jsonl`` in one record
grammar, and :class:`ObsSink` is its only writer.  A
:class:`~repro.core.system.MitsSystem` built with ``stream=path``
attaches a sink before its first telemetry tick, and every finished
span, every flight event, and every telemetry tick is appended *as it
happens*, through a small bounded write buffer.  The archive keeps
every span and event the fixed in-memory rings later evict, and it is
the only place a telemetry tick is kept.  A run built without
``stream=`` has no archive.

Record grammar (one JSON object per line, tagged ``"record"``):

``meta``
    first line — schema version, run name, seed, topology, the
    sampler's interval, and ``watchdog: true`` when the loader is to
    judge the run's telemetry (:func:`repro.obs.watchdog.judge`).
    Older archives may also carry a ``policy`` key and a telemetry
    ``capacity``, which readers ignore.
``span`` / ``event``
    one finished :class:`~repro.obs.tracing.SpanRecord` / recorded
    :class:`~repro.obs.events.FlightEvent`.
``series``
    one telemetry series, written once, before the tick that first
    samples it: its ``index`` (0, 1, 2, ... in order), ``component``,
    ``name``, ``labels`` and ``kind``.
``telemetry``
    one sampler tick: the time plus one row per series whose reading
    changed since the previous tick — ``[index, value]``, or ``[index,
    value, p99]`` for a histogram.  A series with no row keeps its
    previous reading; every series takes a row at its first tick.  A
    reading is unchanged when it has the same value and type (and, for
    a zero, the same sign), so the loaded value renders byte-identical.
    Rates are not stored: the loader derives each counter's and
    histogram's rate from the series' previous point.  A tick at the
    previous tick's time (the final flush at close) carries only the
    series new since then.  Version-1 archives instead carry one row
    per series per tick, ``[component, name, labels, kind, value,
    rate, p99]``, and no ``series`` records; the loader reads both.
``ledger``
    an accounting checkpoint (every :data:`LEDGER_EVERY` telemetry
    ticks, and one final checkpoint at close); the last one wins.
``wall``
    optional, just before ``fin`` — the wall-clock facts: the
    :class:`~repro.obs.meter.OverheadMeter`'s ``overhead`` table.
    Only ``dump_observability`` writes it; a plain
    :meth:`ObsSink.close` does not, so same seed ⇒ byte-identical
    archives.
``fin``
    last line — the end-of-run summary (metrics report, SLO verdicts,
    conservation audit, telemetry health, critical-path attribution),
    plus ``records`` (how many records precede it) and ``digest``
    (sha256 over those lines and over the ``fin`` line itself with the
    digest zeroed).  Archives written before the watchdog judged the
    archive also carry the run's ``watchdog`` block.

:func:`load_archive` reads any archive back into one :class:`Archive`,
which every ``repro.obs`` verb renders.  It never trusts a file to be
whole: a torn last line (one without its newline), a missing ``fin``,
a record count or digest that does not match, or records after
``fin`` give ``complete=False`` and a ``reason``; a malformed record
on any newline-terminated line raises ``ValueError`` naming the line.
When ``meta`` asks for it and ``fin`` carries no ``watchdog`` block,
the loader judges the run's series once: the loaded summary gains the
``watchdog`` block, and its ``slo`` the alert count and the verdict
the alerts demote (:func:`repro.obs.slo.with_alerts`).
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from repro.obs.slo import with_alerts
from repro.obs.timeseries import Series, _rate
from repro.obs.watchdog import judge

__all__ = ["Archive", "ObsSink", "load_archive"]

#: bump when the record grammar changes incompatibly
SCHEMA_VERSION = 2

#: records buffered at most before a flush
BUFFER_RECORDS = 256

#: telemetry ticks between periodic ledger checkpoints
LEDGER_EVERY = 16

#: encodes one record as ``json.dumps(record, sort_keys=True)`` does,
#: without building an encoder per record
_encode = json.JSONEncoder(sort_keys=True).encode

#: what the ``fin`` digest field holds while the digest is computed
_DIGEST_PLACEHOLDER = "0" * 64

#: what a well-formed JSON line with the wrong shape raises on load
_MALFORMED = (ArithmeticError, AttributeError, LookupError, TypeError,
              ValueError)


class ObsSink:
    """Bounded-buffer JSONL writer for one run's archive."""

    def __init__(self, path: str) -> None:
        self.path = path
        self.name = os.path.basename(path)
        self.records = 0
        self.bytes_written = 0
        self.flushes = 0
        self.closed = False
        self._buf: List[str] = []
        self._digest = hashlib.sha256()
        self._ticks = 0
        #: telemetry series named so far by a ``series`` record
        self._series = 0
        self._mits = None
        self.meter = None
        directory = os.path.dirname(os.path.abspath(path))
        os.makedirs(directory, exist_ok=True)
        self._fh = open(path, "w")

    # -- wiring ------------------------------------------------------------

    def attach(self, mits) -> None:
        """Wire the deployment's collectors into this sink.

        Writes the ``meta`` record; from then on every finished span,
        recorded event, and telemetry tick streams through
        :meth:`emit`.
        """
        self._mits = mits
        self.meter = getattr(mits, "meter", None)
        meta: Dict[str, Any] = {
            "record": "meta",
            "version": SCHEMA_VERSION,
            "name": self.name,
            "seed": getattr(mits, "seed", None),
            "topology": mits.topology,
        }
        sampler = getattr(mits, "sampler", None)
        if sampler is not None:
            meta["telemetry"] = {"interval": sampler.interval}
            if getattr(mits, "watchdog", False):
                meta["watchdog"] = True
        self.emit(meta)
        sim = mits.sim
        sim.tracer.sink = self._span_sink
        sim.recorder.sink = self._event_sink
        if sampler is not None:
            sampler.sink = self._telemetry_sink

    def _span_sink(self, rec) -> None:
        self.emit({"record": "span", **rec.to_dict()})

    def _event_sink(self, event) -> None:
        self.emit({"record": "event", **event.to_dict()})

    def _telemetry_sink(self, now: float, columns: Tuple,
                        rows: List[List[Any]]) -> None:
        for index in range(self._series, len(columns)):
            (component, name, labels), kind, _ = columns[index]
            self.emit({"record": "series", "index": index,
                       "component": component, "name": name,
                       "labels": dict(labels), "kind": kind})
        self._series = len(columns)
        self.emit({"record": "telemetry", "time": now, "rows": rows})
        self._ticks += 1
        if self._ticks % LEDGER_EVERY == 0:
            self._ledger_checkpoint()

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
        self._write(_encode(record))

    def _write(self, line: str) -> None:
        """Buffer one encoded record."""
        if self.closed:
            raise ValueError(f"sink {self.path} is closed")
        self._buf.append(line)
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

    def close(self, *, wall: bool = False) -> None:
        """Write the final ledger checkpoint and the ``fin`` record.

        With *wall* (``dump_observability`` only), the meter's
        ``overhead`` table is written as a ``wall`` record before
        ``fin``.
        """
        if self.closed:
            return
        mits = self._mits
        if mits is None:
            self.finish({"name": self.name})
            return
        sim = mits.sim
        sampler = getattr(mits, "sampler", None)
        if sampler is not None:
            sampler.sample()  # flush a final point at `now`
        self._ledger_checkpoint()
        from repro.obs.audit import ConservationAuditor
        from repro.obs.export import critical_block, telemetry_health

        metrics_report = sim.metrics.report()
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
            "slo": mits.slos.summary(metrics_report),
            "telemetry": telemetry_health(mits),
            "audit": audit,
        }
        # attribution over the spans still held in memory
        crit = critical_block([s.to_dict() for s in sim.tracer.spans])
        if crit is not None:
            fin["critical"] = crit
        if sampler is not None:
            fin["timeseries"] = {"interval": sampler.interval,
                                 "samples": sampler.samples}
        # detach so late spans/events cannot hit a closed sink
        sim.tracer.sink = None
        sim.recorder.sink = None
        if sampler is not None:
            sampler.sink = None
        overhead = None
        if wall and meter is not None:
            self.flush()  # so the overhead table counts these bytes
            overhead = {"overhead": meter.report()}
        self.finish(fin, wall=overhead)

    def finish(self, fin: Dict[str, Any], *,
               wall: Optional[Dict[str, Any]] = None) -> None:
        """Write the optional ``wall`` record, then ``fin`` stamped
        with the record count and digest, and close the file."""
        if wall:
            self.emit({"record": "wall", **wall})
        self.flush()
        fin = {**fin, "record": "fin", "records": self.records,
               "digest": _DIGEST_PLACEHOLDER}
        line = _encode(fin)
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
    """One run as every ``repro.obs`` verb sees it."""

    path: str
    name: str
    #: the ``meta`` record
    meta: Dict[str, Any]
    #: the ``fin`` summary; empty when the run did not finish
    summary: Dict[str, Any]
    spans: List[Dict[str, Any]] = field(default_factory=list)
    events: List[Dict[str, Any]] = field(default_factory=list)
    #: one :class:`Series` per telemetry key, in key order, holding
    #: every tick of the run
    timeseries: List[Series] = field(default_factory=list)
    #: sampler ticks (``fin``'s count, else the telemetry records)
    samples: int = 0
    #: simulated seconds between sampler ticks (None without telemetry)
    interval: Optional[float] = None
    #: the last ledger checkpoint (None when the run had no ledger)
    accounting: Optional[Dict[str, Any]] = None
    #: the ``wall`` record: the meter's ``overhead``
    wall: Dict[str, Any] = field(default_factory=dict)
    records: int = 0
    complete: bool = False
    #: why the archive is incomplete ("" when complete)
    reason: str = ""

    @property
    def metrics(self) -> Dict[str, Any]:
        return self.summary.get("metrics", {})

    @property
    def overhead(self) -> Optional[Dict[str, Any]]:
        return self.wall.get("overhead")

    def warning(self) -> Optional[str]:
        """The line every verb prints for an incomplete archive."""
        if self.complete:
            return None
        return (f"!! incomplete archive: {self.records} records "
                f"recovered, {self.reason} ({self.path})")


def _telemetry(series: Dict[Tuple[str, str, Any], Series],
               rec: Dict[str, Any]) -> None:
    """Append one version-1 telemetry record's rows to their series."""
    time = rec["time"]
    for component, name, labels, kind, value, rate, p99 in rec["rows"]:
        key = (component, name, tuple(sorted(labels.items())))
        entry = series.get(key)
        if entry is None:
            entry = series[key] = Series(component, name, labels, kind)
        elif entry.times[-1] == time:
            continue  # a same-instant flush re-emitted this series
        entry.record(time, value, rate, p99)


class _Telemetry:
    """Rebuilds one :class:`Series` per key from a version-2 archive's
    ``series`` and ``telemetry`` records."""

    def __init__(self) -> None:
        self.series: Dict[Tuple[str, str, Any], Series] = {}
        #: the named series by index, and the latest row of each
        self._columns: Dict[int, Series] = {}
        self._latest: Dict[int, List[Any]] = {}

    def declare(self, rec: Dict[str, Any]) -> None:
        """Name one series (a ``series`` record)."""
        labels = rec["labels"]
        key = (rec["component"], rec["name"], tuple(sorted(labels.items())))
        self._columns[rec["index"]] = self.series[key] = Series(
            rec["component"], rec["name"], labels, rec["kind"])

    def tick(self, rec: Dict[str, Any]) -> None:
        """Give every sampled series one point at the record's time: its
        row's reading, else its previous one carried forward, with the
        rate :func:`~repro.obs.timeseries._rate` derives from the
        previous point.  A series that already has a point at this time
        (a same-instant flush) takes none, and a row naming no series
        is never read: only a damaged archive has one, and its record
        count or digest says so."""
        time = rec["time"]
        latest = self._latest
        for row in rec["rows"]:
            latest[row[0]] = row
        for index, entry in self._columns.items():
            row = latest.get(index)
            if row is None:
                continue  # named, not sampled yet
            times = entry.times
            if not times:
                rate = 0.0
            elif times[-1] == time:
                continue
            else:
                rate = _rate(entry.values[-1], times[-1], row[1], time)
            entry.record(time, row[1], rate,
                         row[2] if len(row) > 2 else None)


def load_archive(path: str) -> Archive:
    """Read one archive back; see the module docstring for what makes
    it ``complete``."""
    with open(path, "rb") as fh:
        lines = fh.read().split(b"\n")
    # a record is written when its newline is: an unterminated last
    # line is a run killed inside its final write
    torn = bool(lines.pop())
    archive = Archive(path=path, name="", meta={}, summary={})
    telemetry = _Telemetry()
    ticks = 0
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
            elif tag == "span":
                archive.spans.append(rec)
            elif tag == "event":
                archive.events.append(rec)
            elif tag == "series":
                telemetry.declare(rec)
            elif tag == "telemetry":
                if archive.meta.get("version", 1) < 2:
                    _telemetry(telemetry.series, rec)
                else:
                    telemetry.tick(rec)
                ticks += 1
            elif tag == "ledger":
                archive.accounting = rec
            elif tag == "wall":
                archive.wall = rec
        except _MALFORMED as exc:
            raise ValueError(f"{path}:{lineno}: malformed {tag} record: "
                             f"{exc!r}") from exc
    if not archive.records:
        raise ValueError(f"{path}:1: not an obs archive (no meta record)")
    archive.summary = fin or {}
    try:
        settings = {**(archive.meta.get("telemetry") or {}),
                    **(archive.summary.get("timeseries") or {})}
        archive.interval = settings.get("interval")
        archive.samples = settings.get("samples", ticks)
        series = telemetry.series
        archive.timeseries = [series[key] for key in sorted(series)]
        if fin is not None and archive.meta.get("watchdog") \
                and "watchdog" not in fin:
            fin["watchdog"] = judge(archive.timeseries)
            if "slo" in fin:
                fin["slo"] = with_alerts(fin["slo"],
                                         fin["watchdog"]["alerts"])
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
