"""ASCII dashboard: sparkline panels over time-series telemetry.

Renders the :class:`~repro.obs.timeseries.Series` that
:func:`~repro.obs.sink.load_archive` rebuilds from an archive's
telemetry ticks as fixed-width ASCII panels, one per watched metric.
Everything is plain ASCII string building (like
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

from typing import Dict, List, Optional, Sequence, Tuple

from repro.obs.timeseries import Series

__all__ = [
    "DEFAULT_PANELS",
    "Panel",
    "render_dashboard",
    "render_panel",
    "sparkline",
]

#: density ramp for sparkline cells, lightest to heaviest (pure ASCII)
RAMP = " .:-=+*#%@"

#: sparkline width in character cells
WIDTH = 60


class Panel:
    """One dashboard panel: a metric plus how to read it.

    ``channel`` picks the series channel to plot: ``values`` (gauges,
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


def sparkline(values: Sequence[float], width: int = WIDTH) -> str:
    """Resample *values* to *width* cells and map onto the ramp.

    A flat non-zero series renders mid-ramp (a visible plateau), an
    all-zero series renders as spaces, an empty one as dots.
    """
    if not values:
        return "." * width
    vals = list(values)
    lo, hi = min(vals), max(vals)
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


# -- the dashboard ----------------------------------------------------------


def render_dashboard(series_list: Sequence[Series], *, samples: int,
                     interval: Optional[float], width: int = WIDTH,
                     title: str = "") -> str:
    """Render every applicable panel over an archive's series
    (``Archive.timeseries``), headed by its tick count and interval."""
    lines: List[str] = [f"== dashboard{': ' + title if title else ''} =="
                        f"  ({samples} samples @ {interval}s)"]
    rendered = 0
    for panel in DEFAULT_PANELS:
        block = render_panel(panel, series_list, width)
        if block is not None:
            lines.append("")
            lines.append(block)
            rendered += 1
    if not rendered:
        lines.append("(no series match any panel — is telemetry "
                     "enabled on this run?)")
    return "\n".join(lines)
