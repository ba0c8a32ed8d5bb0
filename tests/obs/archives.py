"""Hand-written archives for the CLI tests, written through
:class:`~repro.obs.sink.ObsSink` in the record grammar a run uses."""

from repro.obs.sink import SCHEMA_VERSION, ObsSink


def write_archive(path, *, name="demo", summary=None, spans=(),
                  events=(), series=(), ledger=None, wall=None,
                  telemetry=None):
    """One complete archive at *path*; *summary* becomes ``fin``."""
    sink = ObsSink(str(path), name=name)
    meta = {"record": "meta", "version": SCHEMA_VERSION, "name": name}
    if telemetry is not None:
        meta["telemetry"] = telemetry
    sink.emit(meta)
    for span in spans:
        sink.emit({"record": "span", **span})
    for event in events:
        sink.emit({"record": "event", **event})
    sink.emit_series(list(series))
    if ledger is not None:
        sink.emit({"record": "ledger", **ledger})
    sink.finish({"name": name, **(summary or {})}, wall=wall)
    return path
