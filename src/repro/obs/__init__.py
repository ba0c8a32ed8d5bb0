"""Observability: metrics, time series, tracing, events, SLOs.

One :class:`MetricsRegistry` + :class:`Tracer` + :class:`FlightRecorder`
trio is owned by each :class:`~repro.atm.simulator.Simulator` and
shared by every component attached to it; a :class:`TelemetrySampler`
turns the registry's point-in-time instruments into bounded
time-series rings.  ``MitsSystem.snapshot()`` and the
benchmark harness export all of it so measured trajectories are
comparable across PRs.  :class:`SloMonitor` turns a metrics report
into pass/fail verdicts.

A run has one archive: the ``obs_<name>.jsonl`` record stream an
:class:`ObsSink` writes, as the run progresses
(``MitsSystem(stream=path)``) or at the end
(:func:`~repro.obs.export.dump_observability`).  :func:`load_archive`
reads any archive into one :class:`Archive`, and every ``python -m
repro.obs`` verb renders that into waterfalls, sparkline dashboards,
and tables.  Every collector keeps a fixed-size ring in memory (spans,
flight events, one ring per series); a streamed archive keeps what the
rings evict.  An :class:`OverheadMeter` attributes what the obs stack
itself cost.

A fleet of runs (``scripts/fleet.py``) is a table over its shards'
own archives: each shard keeps its ``obs_<name>.jsonl``, and nothing
rewrites or combines them.
"""

from repro.obs.accounting import (
    Account,
    Ledger,
    NULL_ACCOUNT,
    render_top,
)
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
from repro.obs.timeseries import Series, TelemetrySampler, load_timeseries
from repro.obs.tracing import (
    NULL_SPAN,
    Span,
    SpanRecord,
    TraceContext,
    Tracer,
)
from repro.obs.watchdog import DEFAULT_DETECTORS, Detector, Watchdog

__all__ = [
    "Account",
    "Archive",
    "ConservationAuditor",
    "Counter",
    "DEFAULT_DETECTORS",
    "Detector",
    "Ledger",
    "NULL_ACCOUNT",
    "ObsSink",
    "OverheadMeter",
    "Violation",
    "Watchdog",
    "load_archive",
    "render_top",
    "Series",
    "TelemetrySampler",
    "load_timeseries",
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
