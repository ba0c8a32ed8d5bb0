"""One call closes a deployment's archive.

The benchmark harness (``benchmarks/conftest.py``), the perf-regression
gate (``scripts/bench_gate.py``), the fleet workers and ``python -m
repro.obs audit SCENARIO`` all finish a run with
:func:`dump_observability`.  The archive is the one
``obs_<name>.jsonl`` record stream that :class:`~repro.obs.sink.ObsSink`
writes as the run progresses (``MitsSystem(stream=path)``) and
:func:`~repro.obs.sink.load_archive` reads.  A run built without
``stream=`` kept no telemetry ticks, so it has no archive to close.

The closed archive ends with a ``wall`` record — the meter's
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
    }


def dump_observability(mits, name: str, out_dir: str) -> List[str]:
    """Close *mits*'s streamed archive with its ``wall`` record and
    return ``[path]``.

    Raises ``ValueError`` for a run built without ``stream=``: there
    is no archive to close.
    """
    sink = getattr(mits, "sink", None)
    if sink is None:
        raise ValueError(
            f"run {name!r} has no archive: build it with stream="
            f"{os.path.join(out_dir, f'obs_{name}.jsonl')!r}")
    sink.close(wall=True)
    return [sink.path]
