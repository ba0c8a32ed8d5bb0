"""Hand-written archives for the CLI tests, written through
:class:`~repro.obs.sink.ObsSink` in the record grammar a run uses."""

from repro.obs.sink import SCHEMA_VERSION, ObsSink


def telemetry_records(series):
    """Series given as ``{"component", "name", "labels", "kind",
    "times", "values"[, "rates"][, "p99s"]}`` dicts, as the telemetry
    records a sampler streams: one per distinct time, one row per
    series sampled then."""
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


def write_archive(path, *, name="demo", summary=None, spans=(),
                  events=(), series=(), ledger=None, wall=None,
                  telemetry=None, meta=None):
    """One complete archive at *path*; *summary* becomes ``fin`` and
    *meta* adds keys to the ``meta`` record."""
    sink = ObsSink(str(path))
    meta = {"record": "meta", "version": SCHEMA_VERSION, "name": name,
            **(meta or {})}
    if telemetry is not None:
        meta["telemetry"] = telemetry
    sink.emit(meta)
    for span in spans:
        sink.emit({"record": "span", **span})
    for event in events:
        sink.emit({"record": "event", **event})
    for record in telemetry_records(series):
        sink.emit(record)
    if ledger is not None:
        sink.emit({"record": "ledger", **ledger})
    sink.finish({"name": name, **(summary or {})}, wall=wall)
    return path
