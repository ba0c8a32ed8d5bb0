"""Observability: metrics, time series, tracing, events, SLOs, profiling.

One :class:`MetricsRegistry` + :class:`Tracer` + :class:`FlightRecorder`
trio is owned by each :class:`~repro.atm.simulator.Simulator` and
shared by every component attached to it; a :class:`TelemetrySampler`
turns the registry's point-in-time instruments into bounded
time-series rings, and a :class:`LoopProfiler` attributes event-loop
wall time to callback qualnames.  ``MitsSystem.snapshot()`` and the
benchmark harness export all of it so measured trajectories are
comparable across PRs.  :class:`SloMonitor` turns a metrics report
into pass/fail verdicts.

A run has one archive: the ``obs_<name>.jsonl`` record stream an
:class:`ObsSink` writes, as the run progresses
(``MitsSystem(stream=path)``) or at the end
(:func:`~repro.obs.export.dump_observability`).  :func:`load_archive`
reads any archive into one :class:`Archive`, and every ``python -m
repro.obs`` verb renders that into waterfalls, sparkline dashboards,
and tables.  A :class:`SamplingPolicy` bounds every collector's memory
(head-based trace sampling, span/event reservoirs, telemetry
decimation/coalescing, top-K accounting), and an
:class:`OverheadMeter` attributes what the obs stack itself cost.

Fleets of runs roll up through :mod:`repro.obs.merge`: deterministic,
order-insensitive merge operators over every store, written back as a
``fleet_<name>.jsonl`` in the same grammar (``scripts/fleet.py``
drives them across a multiprocessing pool).
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
    NULL_COUNTER,
    NULL_GAUGE,
    NULL_HISTOGRAM,
    TIME_BUCKETS,
)
from repro.obs.merge import (
    merge_archives,
    merged_canonical_form,
    split_shard,
    write_merged,
)
from repro.obs.meter import OverheadMeter
from repro.obs.profiler import CallsiteStats, LoopProfiler
from repro.obs.sampling import (
    DEFAULT_POLICY,
    Reservoir,
    SamplingPolicy,
    scaled_policy,
    trace_sampled,
)
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
    "CallsiteStats",
    "ConservationAuditor",
    "Counter",
    "DEFAULT_DETECTORS",
    "DEFAULT_POLICY",
    "Detector",
    "Ledger",
    "NULL_ACCOUNT",
    "ObsSink",
    "OverheadMeter",
    "Reservoir",
    "SamplingPolicy",
    "Violation",
    "Watchdog",
    "load_archive",
    "merge_archives",
    "merged_canonical_form",
    "split_shard",
    "write_merged",
    "render_top",
    "scaled_policy",
    "trace_sampled",
    "LoopProfiler",
    "Series",
    "TelemetrySampler",
    "load_timeseries",
    "DEFAULT_SLOS",
    "FlightEvent",
    "FlightRecorder",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NULL_COUNTER",
    "NULL_GAUGE",
    "NULL_HISTOGRAM",
    "NULL_SPAN",
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
