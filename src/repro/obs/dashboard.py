"""ASCII dashboard: sparkline panels over time-series telemetry.

Renders the :class:`~repro.obs.timeseries.TelemetrySampler` rings —
live from a running deployment or rebuilt from an archive's telemetry
ticks — as fixed-width ASCII panels, one per
watched metric, plus the event-loop profiler's top-N table when a
profile is available.  Everything is plain ASCII string building (like
:mod:`repro.obs.report`) so output is stable in CI logs and easy to
assert on in tests.

The default panel set covers the signals the thesis's evaluation
watched during a session: link queue occupancy, transport window
occupancy, player buffer fill, simulator queue depth, and the event /
cell rates.  Extra panels are picked up automatically for any metric
named in :data:`DEFAULT_PANELS`; pass your own panel list for other
views.
"""

from __future__ import annotations

from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.obs.timeseries import Series, load_timeseries

__all__ = [
    "DEFAULT_PANELS",
    "Panel",
    "render_dashboard",
    "render_panel",
    "render_profile",
    "sparkline",
]

#: density ramp for sparkline cells, lightest to heaviest (pure ASCII)
RAMP = " .:-=+*#%@"

#: sparkline width in character cells
WIDTH = 60


class Panel:
    """One dashboard panel: a metric plus how to read it.

    ``channel`` picks the series ring to plot: ``values`` (gauges,
    levels), ``rates`` (counters, units/s), or ``p99s`` (histograms,
    latency trajectory).
    """

    def __init__(self, title: str, component: str, name: str,
                 channel: str = "values", unit: str = "") -> None:
        self.title = title
        self.component = component
        self.name = name
        self.channel = channel
        self.unit = unit


DEFAULT_PANELS: Tuple[Panel, ...] = (
    Panel("link queue occupancy", "link", "queue_occupancy",
          unit="cells"),
    Panel("transport window occupancy", "connection", "window_occupancy",
          unit="pdus"),
    Panel("player buffer", "player", "buffer_frames", unit="frames"),
    Panel("simulator queue depth", "simulator", "queue_depth",
          unit="events"),
    Panel("event rate", "simulator", "events_run", channel="rates",
          unit="events/s"),
    Panel("cell rate", "link", "cells_transmitted", channel="rates",
          unit="cells/s"),
    Panel("MHEG link firings", "mheg", "links_fired", channel="rates",
          unit="links/s"),
    Panel("RPC round-trip p99", "connection", "rtt_seconds",
          channel="p99s", unit="s"),
)


# -- sparklines -------------------------------------------------------------


def _fmt(value: Optional[float]) -> str:
    if value is None:
        return "-"
    if value == 0:
        return "0"
    if abs(value) >= 1e6:
        return f"{value / 1e6:.2f}M"
    if abs(value) >= 1e4:
        return f"{value / 1e3:.1f}k"
    if abs(value) >= 1 and value == int(value):
        return str(int(value))
    if abs(value) >= 1:
        return f"{value:.2f}"
    return f"{value:.3g}"


def sparkline(values: Sequence[float], width: int = WIDTH,
              lo: Optional[float] = None,
              hi: Optional[float] = None) -> str:
    """Resample *values* to *width* cells and map onto the ramp.

    A flat non-zero series renders mid-ramp (a visible plateau), an
    all-zero series renders as spaces, an empty one as dots.
    """
    if not values:
        return "." * width
    vals = list(values)
    lo = min(vals) if lo is None else lo
    hi = max(vals) if hi is None else hi
    cells: List[str] = []
    n = len(vals)
    for i in range(width):
        # average the value window this cell covers (simple decimation)
        start = i * n // width
        end = max(start + 1, (i + 1) * n // width)
        v = sum(vals[start:end]) / (end - start)
        if hi <= lo:
            cells.append(RAMP[len(RAMP) // 2] if v else " ")
            continue
        frac = (v - lo) / (hi - lo)
        idx = int(frac * (len(RAMP) - 1) + 0.5)
        cells.append(RAMP[max(0, min(idx, len(RAMP) - 1))])
    return "".join(cells)


def _merge(series_list: Sequence[Series], channel: str
           ) -> Tuple[List[float], List[float]]:
    """Sum a channel across the instruments of one metric, aligned by
    sample timestamp (series may start at different ticks)."""
    acc: Dict[float, float] = {}
    for series in series_list:
        ring = getattr(series, channel, None)
        if ring is None:
            continue
        for t, v in zip(series.times, ring):
            acc[t] = acc.get(t, 0.0) + v
    times = sorted(acc)
    return times, [acc[t] for t in times]


# -- panels -----------------------------------------------------------------


def render_panel(panel: Panel, series_list: Sequence[Series],
                 width: int = WIDTH) -> Optional[str]:
    """Two lines: a header with headline stats and the sparkline.

    Returns None when no series carries the panel's metric — the
    dashboard simply omits panels a scenario never exercised.
    """
    matching = [s for s in series_list
                if s.component == panel.component and s.name == panel.name]
    if not matching:
        return None
    times, values = _merge(matching, panel.channel)
    if not values:
        return None
    unit = f" {panel.unit}" if panel.unit else ""
    head = (f"-- {panel.title} [{panel.component}.{panel.name}"
            f"{'/' + panel.channel if panel.channel != 'values' else ''}]"
            f" · {len(matching)} series")
    stats = (f"   last {_fmt(values[-1])}{unit}  min {_fmt(min(values))}"
             f"  max {_fmt(max(values))}"
             f"  mean {_fmt(sum(values) / len(values))}")
    span = f"t={times[0]:.2f}s..{times[-1]:.2f}s" if times else ""
    return "\n".join([
        head,
        f"  |{sparkline(values, width)}|  {span}",
        stats,
    ])


def render_profile(profile: Mapping[str, Any], top: int = 10) -> str:
    """The event-loop profiler's top-N hotspot table."""
    hotspots = list(profile.get("hotspots", []))[:top]
    if not profile.get("enabled") or not hotspots:
        return "(profiler disabled — run with profile=True " \
               "or --profile for hotspots)"
    ratio = profile.get("sim_to_wall")
    lines = [
        f"event-loop profile: {profile.get('events', 0)} events, "
        f"{profile.get('wall_seconds', 0.0):.3f}s wall, "
        f"{profile.get('sim_seconds', 0.0):.3f}s simulated"
        + (f"  ({ratio:.0f}x real time)" if ratio else ""),
        f"{'callsite':<44}{'calls':>8}{'cum':>10}{'self':>10}"
        f"{'mean':>10}",
        "-" * 82,
    ]
    for h in hotspots:
        lines.append(
            f"{h['callsite'][:43]:<44}{h['calls']:>8}"
            f"{h['cum_seconds'] * 1e3:>9.2f}m"
            f"{h['self_seconds'] * 1e3:>9.2f}m"
            f"{h['mean_us']:>8.1f}us")
    return "\n".join(lines)


# -- the dashboard ----------------------------------------------------------


def render_dashboard(source: Any, *,
                     profile: Optional[Mapping[str, Any]] = None,
                     panels: Sequence[Panel] = DEFAULT_PANELS,
                     width: int = WIDTH, top: int = 10,
                     title: str = "") -> str:
    """Render every applicable panel plus telemetry health + profile.

    *source* is a :class:`TelemetrySampler`, a list of
    :class:`Series`, or a snapshot dict (``Archive.timeseries``).
    """
    meta: Dict[str, Any] = {}
    if hasattr(source, "series") and callable(source.series):
        series_list = source.series()
        meta = {"samples": source.samples, "evictions": source.evictions,
                "interval": source.interval}
    elif isinstance(source, Mapping):
        series_list = load_timeseries(source)
        meta = {k: source.get(k) for k in
                ("samples", "evictions", "interval") if k in source}
    else:
        series_list = list(source)

    lines: List[str] = []
    header = f"== dashboard{': ' + title if title else ''} =="
    if meta:
        header += (f"  ({meta.get('samples', '?')} samples @ "
                   f"{meta.get('interval', '?')}s"
                   f", {meta.get('evictions', 0)} ring evictions)")
    lines.append(header)
    if meta.get("evictions"):
        lines.append(f"  ! {meta['evictions']} samples evicted from "
                     f"full rings — oldest history is gone")
    rendered = 0
    for panel in panels:
        block = render_panel(panel, series_list, width)
        if block is not None:
            lines.append("")
            lines.append(block)
            rendered += 1
    if not rendered:
        lines.append("(no series match any panel — is telemetry "
                     "enabled on this run?)")
    if profile is not None:
        lines.append("")
        lines.append(render_profile(profile, top=top))
    return "\n".join(lines)
