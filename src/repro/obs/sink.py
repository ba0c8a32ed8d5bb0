"""Streaming observability sidecar: append-as-you-go JSONL.

``dump_observability`` materialises a run's full telemetry in memory
and writes it once at the end — fine for the toy scenarios, hopeless
for the campus-scale runs the ROADMAP targets, where the interesting
spans and events number in the millions and the process would hold
them all just to serialise them.  An :class:`ObsSink` inverts that:
attach it to a :class:`~repro.core.system.MitsSystem` and every kept
span, every flight event, and every telemetry tick is appended to one
``obs_<name>.jsonl`` file *as it happens*, through a small bounded
write buffer.  In-memory rings can then be as small as the sampling
policy allows while the sidecar keeps full sampled fidelity.

Record grammar (one JSON object per line, tagged ``"record"``):

``meta``
    first line — schema version, run name, and the
    :class:`~repro.obs.sampling.SamplingPolicy` the run used.
``span`` / ``event``
    one finished :class:`~repro.obs.tracing.SpanRecord` / recorded
    :class:`~repro.obs.events.FlightEvent`, same shape as the legacy
    ``trace_*.jsonl`` lines.
``telemetry``
    one sampler tick: the time plus one compact row per instrument —
    ``[component, name, labels, kind, value, rate, p99]``.
``ledger``
    a periodic accounting checkpoint (every ``ledger_every`` telemetry
    ticks) plus one final checkpoint at close, shaped like the
    ``accounting_*.json`` sidecar body.
``fin``
    last line — the end-of-run summary the monolithic
    ``metrics_*.json`` would have carried (metrics report, SLO
    verdicts, audit, telemetry health, watchdog).  Only *simulated*
    quantities appear in the file — never wall-clock readings — so
    same seed + same policy ⇒ byte-identical sidecars.

:func:`load_obs_sidecar` reads one back into the shapes the ``repro
.obs`` renderers consume, which is what lets ``report``, ``dashboard``
and ``top`` render identically from a streamed sidecar and from the
legacy monolithic dumps.
"""

from __future__ import annotations

import json
import os
from typing import Any, Dict, List, Optional, Tuple

__all__ = ["ObsSink", "is_obs_sidecar", "load_obs_sidecar"]

#: bump when the record grammar changes incompatibly
SCHEMA_VERSION = 1


class ObsSink:
    """Bounded-buffer JSONL writer for one run's observability stream.

    ``buffer_records`` lines are held at most before a flush;
    ``ledger_every`` telemetry ticks elapse between accounting
    checkpoints (0 disables periodic checkpoints — the final one at
    :meth:`close` is always written when the ledger is enabled).
    """

    def __init__(self, path: str, *, name: str = "",
                 buffer_records: int = 256,
                 ledger_every: int = 16) -> None:
        if buffer_records < 1:
            raise ValueError("buffer_records must be >= 1")
        if ledger_every < 0:
            raise ValueError("ledger_every must be >= 0")
        self.path = path
        self.name = name or os.path.basename(path)
        self.buffer_records = buffer_records
        self.ledger_every = ledger_every
        self.records = 0
        self.bytes_written = 0
        self.flushes = 0
        self.closed = False
        self._buf: List[str] = []
        self._ticks = 0
        self._mits = None
        self.meter = None
        directory = os.path.dirname(os.path.abspath(path))
        os.makedirs(directory, exist_ok=True)
        self._fh = open(path, "w")

    # -- wiring ------------------------------------------------------------

    def attach(self, mits) -> None:
        """Wire the deployment's collectors into this sink.

        Writes the ``meta`` record, then every kept span, recorded
        event, and telemetry tick streams through :meth:`emit`.
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
        if self.ledger_every and self._ticks % self.ledger_every == 0:
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
        if self.closed:
            raise ValueError(f"sink {self.path} is closed")
        self._buf.append(json.dumps(record, sort_keys=True))
        self.records += 1
        if len(self._buf) >= self.buffer_records:
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
        self.bytes_written += len(chunk)
        self.flushes += 1
        if meter is not None:
            meter.charge("sink", t0, nbytes=len(chunk))

    def close(self) -> None:
        """Write the final ledger checkpoint and ``fin`` record."""
        if self.closed:
            return
        mits = self._mits
        if mits is not None:
            sim = mits.sim
            sampler = getattr(mits, "sampler", None)
            if sampler is not None:
                sampler.sample()  # flush a final point at `now`
            self._ledger_checkpoint()
            from repro.obs.export import telemetry_health

            metrics_report = sim.metrics.report()
            watchdog = getattr(mits, "watchdog", None)
            fin: Dict[str, Any] = {
                "record": "fin",
                "name": self.name,
                "sim_time": sim.now,
                "events_run": sim.events_run,
                "metrics": metrics_report,
                "slo": mits.slos.summary(
                    metrics_report,
                    watchdog_alerts=watchdog.alerts
                    if watchdog is not None else None),
                "telemetry": telemetry_health(mits),
            }
            from repro.obs.audit import ConservationAuditor

            fin["audit"] = ConservationAuditor(mits).report()
            if watchdog is not None:
                fin["watchdog"] = watchdog.snapshot()
            from repro.obs.export import critical_block

            # attribution over the spans still held in memory — the
            # sampled view, same population the legacy dump would see
            crit = critical_block([s.to_dict()
                                   for s in sim.tracer.spans])
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
            self.emit(fin)
            # detach so late spans/events cannot hit a closed sink
            sim.tracer.sink = None
            sim.recorder.sink = None
            if sampler is not None:
                sampler.sink = None
        self.flush()
        self._fh.close()
        self.closed = True

    def report(self) -> Dict[str, Any]:
        """Write-path counters, for tests and the health block."""
        return {"path": self.path, "records": self.records,
                "bytes_written": self.bytes_written,
                "flushes": self.flushes, "closed": self.closed}


# -- reading one back -------------------------------------------------------


def _rebuild_timeseries(meta: Dict[str, Any],
                        fin: Dict[str, Any],
                        ticks: List[Dict[str, Any]]) -> Dict[str, Any]:
    """Replay streamed telemetry ticks into a sampler-snapshot shape.

    Rings are rebuilt with the run's real capacity and coalescing
    policy, so the result renders exactly like the live sampler's
    ``snapshot()`` (same evictions, same standing points).
    """
    from repro.obs.timeseries import Series

    policy = meta.get("policy") or {}
    ts_meta = dict(meta.get("telemetry") or {})
    ts_meta.update(fin.get("timeseries") or {})
    capacity = int(ts_meta.get("capacity", 512))
    coalesce = bool(policy.get("telemetry_coalesce", False))
    series_map: Dict[Tuple[str, str, Any], Series] = {}
    for tick in ticks:
        time = tick["time"]
        for component, name, labels, kind, value, _rate, p99 in \
                tick["rows"]:
            key = (component, name, tuple(sorted(labels.items())))
            series = series_map.get(key)
            if series is None:
                series = Series(component, name, labels, kind,
                                capacity, coalesce=coalesce)
                series_map[key] = series
            if series.times and series.times[-1] == time:
                continue  # a snapshot() flush re-emitted this tick
            series.record(time, value,
                          p99=p99 if kind == "histogram" else None)
    payload: Dict[str, Any] = {
        "enabled": True,
        "interval": ts_meta.get("interval"),
        "capacity": capacity,
        "samples": ts_meta.get("samples", len(ticks)),
        "evictions": sum(s.evicted for s in series_map.values()),
        "series": [s.to_dict() for s in sorted(
            series_map.values(), key=lambda s: s.key)],
    }
    if "stride" in ts_meta:
        payload["stride"] = ts_meta["stride"]
        payload["coalesced"] = sum(
            s.coalesced for s in series_map.values())
    return payload


def load_obs_sidecar(path: str) -> Dict[str, Any]:
    """Read one ``obs_*.jsonl`` stream back into renderer-ready shapes.

    Returns ``{"name", "policy", "meta", "spans", "events",
    "timeseries", "accounting", "complete", "records", "torn"}`` where
    ``meta`` is the ``fin`` summary (metrics report, SLO verdicts,
    audit, telemetry health, watchdog — everything the monolithic
    ``metrics_*.json`` carries), ``timeseries`` is a
    sampler-snapshot-shaped dict, and ``accounting`` is the last ledger
    checkpoint (None when the run had no ledger).

    A run killed mid-write leaves a stream without its ``fin`` record,
    possibly cut inside its last line.  Such a torn final line is
    skipped (``torn`` is True); either defect gives ``complete``
    False.  ``records`` counts the records recovered.  A malformed
    line anywhere before the last is corruption, not a torn tail, and
    raises ``ValueError``.
    """
    meta: Dict[str, Any] = {}
    fin: Dict[str, Any] = {}
    spans: List[Dict[str, Any]] = []
    events: List[Dict[str, Any]] = []
    ticks: List[Dict[str, Any]] = []
    accounting: Optional[Dict[str, Any]] = None
    records = 0
    torn = False

    def take(rec: Dict[str, Any]) -> None:
        nonlocal meta, fin, accounting, records
        records += 1
        tag = rec.pop("record", None)
        if tag == "meta":
            meta = rec
        elif tag == "span":
            spans.append(rec)
        elif tag == "event":
            events.append(rec)
        elif tag == "telemetry":
            ticks.append(rec)
        elif tag == "ledger":
            accounting = rec
        elif tag == "fin":
            fin = rec

    with open(path) as fh:
        # parse each line once the next one shows it was not the last
        pending: Optional[Tuple[int, str]] = None
        for lineno, line in enumerate(fh, 1):
            line = line.strip()
            if not line:
                continue
            if pending is not None:
                try:
                    rec = json.loads(pending[1])
                except ValueError as exc:
                    raise ValueError(f"{path}:{pending[0]}: malformed "
                                     f"record: {exc}") from exc
                take(rec)
            pending = (lineno, line)
        if pending is not None:
            try:
                rec = json.loads(pending[1])
            except ValueError:
                torn = True
            else:
                take(rec)
    if not meta:
        raise ValueError(f"{path} does not look like an obs sidecar "
                         f"(no meta record)")
    return {
        "name": meta.get("name", ""),
        "policy": meta.get("policy"),
        "meta": fin,
        "spans": spans,
        "events": events,
        "timeseries": _rebuild_timeseries(meta, fin, ticks),
        "accounting": accounting,
        "complete": bool(fin) and not torn,
        "records": records,
        "torn": torn,
    }


def is_obs_sidecar(path: str) -> bool:
    """Sniff: a JSONL file whose first line is a ``meta`` record."""
    if not path.endswith(".jsonl"):
        return False
    try:
        with open(path) as fh:
            first = fh.readline().strip()
        return bool(first) and json.loads(first).get("record") == "meta"
    except (OSError, ValueError):
        return False
