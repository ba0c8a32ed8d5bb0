"""One call archives a deployment's full telemetry.

The benchmark harness (``benchmarks/conftest.py``), the perf-regression
gate (``scripts/bench_gate.py``), the fleet workers and ad-hoc scripts
all archive a finished run with :func:`dump_observability`.  The
archive is the one ``obs_<name>.jsonl`` record stream that
:class:`~repro.obs.sink.ObsSink` writes and
:func:`~repro.obs.sink.load_archive` reads: a run that streamed
(``MitsSystem(stream=path)``) gets its attached sink closed; any other
run gets a sink attached late, which replays the spans, flight events,
sampler rings and ledger still held in memory.

Either way the archive ends with a ``wall`` record — the meter's
``overhead`` table — and the ``fin`` summary (metrics, SLO verdicts,
conservation audit, telemetry health, critical-path attribution).
"""

from __future__ import annotations

import os
from typing import Any, Dict, List, Optional

__all__ = ["critical_block", "dump_observability", "telemetry_health"]


def critical_block(spans) -> Optional[Dict[str, Any]]:
    """Compact critical-path attribution for the ``fin`` summary.

    Purely simulated-time quantities, so the block is deterministic
    (same seed ⇒ byte-identical) and safe to diff across runs.
    """
    if not spans:
        return None
    from repro.obs.critical import attribution
    return attribution(spans)


def telemetry_health(mits) -> Dict[str, Any]:
    """Loss/truncation accounting for one deployment's telemetry."""
    sim = mits.sim
    sampler = getattr(mits, "sampler", None)
    return {
        "flight_recorded": sim.recorder.recorded,
        "flight_dropped": sim.recorder.dropped,
        "tracer_spans": len(sim.tracer.spans),
        "tracer_dropped": sim.tracer.dropped,
        "sampler_samples": sampler.samples if sampler is not None else 0,
        "sampler_evictions": sampler.evictions
        if sampler is not None else 0,
    }


def dump_observability(mits, name: str, out_dir: str) -> List[str]:
    """Close *mits*'s archive and return ``[path]``.

    A streaming run's attached sink is closed where it is; otherwise a
    sink is attached late at ``<out_dir>/obs_<name>.jsonl``.
    """
    from repro.obs.sink import ObsSink

    sink = getattr(mits, "sink", None)
    if sink is None or sink.closed:
        sink = ObsSink(os.path.join(out_dir, f"obs_{name}.jsonl"),
                       name=name)
        sink.attach(mits, replay=True)
    sink.close(wall=True)
    return [sink.path]
