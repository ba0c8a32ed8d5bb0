"""Observability: metrics, time series, tracing, events, SLOs.

One :class:`MetricsRegistry` + :class:`Tracer` + :class:`FlightRecorder`
trio is owned by each :class:`~repro.atm.simulator.Simulator` and
shared by every component attached to it; a :class:`TelemetrySampler`
turns the registry's point-in-time instruments into time-series ticks
on the run's archive.  ``MitsSystem.snapshot()`` and the
benchmark harness export all of it so measured trajectories are
comparable across PRs.  :class:`SloMonitor` turns a metrics report
into pass/fail verdicts.

A run built with ``MitsSystem(stream=path)`` has one archive: the
``obs_<name>.jsonl`` record stream an :class:`ObsSink` writes as the
run progresses, and :func:`~repro.obs.export.dump_observability`
closes.  :func:`load_archive` reads any archive into one
:class:`Archive`, and every ``python -m repro.obs`` verb renders that
into waterfalls, sparkline dashboards, and tables.  The tracer and the
flight recorder keep fixed-size rings in memory (spans, flight
events), and the archive keeps what they evict; the sampler keeps
nothing, so its ticks live only in the archive.  An
:class:`OverheadMeter` attributes what the obs stack itself cost.

A fleet of runs (``scripts/fleet.py``) is a table over its shards'
own archives: each shard keeps its ``obs_<name>.jsonl``, and nothing
rewrites or combines them.
"""

from repro.obs.accounting import Ledger, render_top
from repro.obs.audit import ConservationAuditor, Violation
from repro.obs.events import SEVERITIES, FlightEvent, FlightRecorder
from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    ReadThrough,
    TIME_BUCKETS,
)
from repro.obs.meter import OverheadMeter
from repro.obs.sink import Archive, ObsSink, load_archive
from repro.obs.slo import DEFAULT_SLOS, Slo, SloMonitor, SloResult
from repro.obs.timeseries import Series, TelemetrySampler
from repro.obs.tracing import (
    NULL_SPAN,
    Span,
    SpanRecord,
    TraceContext,
    Tracer,
)
from repro.obs.watchdog import DEFAULT_DETECTORS, Detector, judge

__all__ = [
    "Archive",
    "ConservationAuditor",
    "Counter",
    "DEFAULT_DETECTORS",
    "Detector",
    "Ledger",
    "ObsSink",
    "OverheadMeter",
    "Violation",
    "judge",
    "load_archive",
    "render_top",
    "Series",
    "TelemetrySampler",
    "DEFAULT_SLOS",
    "FlightEvent",
    "FlightRecorder",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NULL_SPAN",
    "ReadThrough",
    "SEVERITIES",
    "Slo",
    "SloMonitor",
    "SloResult",
    "Span",
    "SpanRecord",
    "TIME_BUCKETS",
    "TraceContext",
    "Tracer",
]
