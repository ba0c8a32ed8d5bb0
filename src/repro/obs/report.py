"""Rendering for metrics / trace / SLO sections (the ``repro.obs`` CLI).

Everything here is pure string building over the shapes an archive's
``fin`` summary, ``span``/``event`` records and ``wall`` record carry
(see :mod:`repro.obs.sink`), or over the live equivalents from
``MitsSystem.snapshot()``.

The renderers are deliberately plain ASCII so output is stable in CI
logs and easy to assert on in tests.
"""

from __future__ import annotations

from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.obs.slo import SloResult

__all__ = [
    "fmt_seconds",
    "render_metrics_summary",
    "render_overhead",
    "render_slo_table",
    "render_slow_spans",
    "render_telemetry_health",
    "render_trace_tree",
    "render_traces",
]

#: character cells in a waterfall bar
BAR_WIDTH = 32


# -- formatting helpers ----------------------------------------------------


def fmt_seconds(value: Optional[float]) -> str:
    if value is None:
        return "-"
    if value >= 1.0:
        return f"{value:.3f}s"
    if value >= 1e-3:
        return f"{value * 1e3:.2f}ms"
    return f"{value * 1e6:.1f}us"


def _fmt_number(value: Optional[float]) -> str:
    if value is None:
        return "-"
    if value == int(value):
        return str(int(value))
    return f"{value:.4g}"


def _pad(text: str, width: int) -> str:
    return text[:width].ljust(width)


# -- metrics ----------------------------------------------------------------


def render_metrics_summary(report: Mapping[str, Any]) -> str:
    """One line per metric name: series count plus headline stats."""
    lines = ["metric                                   kind       series  "
             "headline",
             "-" * 78]
    for component in sorted(report):
        for name in sorted(report[component]):
            entries = report[component][name]
            kinds = {e.get("type", "?") for e in entries}
            kind = kinds.pop() if len(kinds) == 1 else "mixed"
            if kind == "counter":
                headline = f"total {_fmt_number(sum(e['value'] for e in entries))}"
            elif kind == "gauge":
                peaks = [e["max"] for e in entries if e.get("max") is not None]
                headline = f"peak {_fmt_number(max(peaks))}" if peaks else "-"
            elif kind == "histogram":
                samples = sum(e.get("count", 0) for e in entries)
                p99s = [e["p99"] for e in entries if e.get("count", 0)]
                headline = f"{samples} samples"
                if p99s:
                    headline += (f"  worst p99 {fmt_seconds(max(p99s))}")
            else:
                headline = "-"
            lines.append(f"{_pad(component + '.' + name, 41)}"
                         f"{_pad(kind, 11)}{len(entries):>6}  {headline}")
    return "\n".join(lines)


# -- telemetry health -------------------------------------------------------


def render_telemetry_health(health: Mapping[str, Any]) -> str:
    """Loss accounting: is any of this run's telemetry truncated?

    Works on the ``telemetry`` block of an archive's ``fin`` summary
    (or the equivalent live dict).  Dropped flight
    events, dropped spans, and sampler ring evictions are flagged with
    a leading ``!`` so silent truncation is visible in every summary.
    """
    lines = ["telemetry health"]
    flight_dropped = health.get("flight_dropped", 0)
    marker = "!" if flight_dropped else " "
    lines.append(f" {marker} flight recorder: "
                 f"{health.get('flight_recorded', 0)} events recorded, "
                 f"{flight_dropped} evicted from the ring")
    if "flight_overflow_kept" in health:
        lines.append(f"   overflow reservoir: "
                     f"{health.get('flight_overflow_kept', 0)} evicted "
                     f"events salvaged")
    tracer_dropped = health.get("tracer_dropped", 0)
    marker = "!" if tracer_dropped else " "
    lines.append(f" {marker} tracer: {health.get('tracer_spans', 0)} "
                 f"spans kept, {tracer_dropped} dropped")
    evictions = health.get("sampler_evictions", 0)
    marker = "!" if evictions else " "
    lines.append(f" {marker} sampler: {health.get('sampler_samples', 0)} "
                 f"samples, {evictions} ring evictions")
    if flight_dropped or tracer_dropped or evictions:
        lines.append("   (!) telemetry was truncated — oldest data is "
                     "gone; raise capacities to keep it")
    return "\n".join(lines)


def render_overhead(overhead: Mapping[str, Any]) -> str:
    """What the obs stack itself cost (the ``overhead`` table an
    :class:`~repro.obs.meter.OverheadMeter` reports into an archive's
    ``wall`` record)."""
    pct = overhead.get("obs_overhead_pct", 0.0)
    lines = [f"observability overhead: {pct:.2f}% of wall "
             f"({fmt_seconds(overhead.get('obs_seconds', 0.0))} of "
             f"{fmt_seconds(overhead.get('wall_seconds', 0.0))}, "
             f"{overhead.get('obs_bytes', 0)} bytes written)"]
    components = overhead.get("components", {})
    for name in sorted(components):
        cost = components[name]
        line = (f"    {_pad(name, 12)}"
                f"{fmt_seconds(cost.get('seconds', 0.0)):>10}  "
                f"{cost.get('calls', 0):>8} calls")
        if cost.get("bytes"):
            line += f"  {cost['bytes']} bytes"
        lines.append(line)
    return "\n".join(lines)


# -- SLOs -------------------------------------------------------------------


def render_slo_table(results: Sequence[SloResult]) -> str:
    lines = [_pad("SLO", 22) + _pad("objective", 44)
             + _pad("observed", 12) + "verdict",
             "-" * 88]
    for r in results:
        slo = r.slo
        target = f"{slo.component}.{slo.metric} {slo.stat} " \
                 f"{slo.op} {_fmt_number(slo.threshold)}"
        if r.skipped:
            verdict = "SKIP (no data)"
        else:
            verdict = "PASS" if r.ok else "FAIL"
        lines.append(f"{_pad(slo.name, 22)}{_pad(target, 44)}"
                     f"{_pad(_fmt_number(r.observed), 12)}{verdict}")
    status = "all SLOs met" if all(r.ok for r in results) \
        else "SLO VIOLATIONS PRESENT"
    lines.append(status)
    return "\n".join(lines)


# -- traces -----------------------------------------------------------------


def _children_index(spans: Sequence[Mapping[str, Any]]
                    ) -> Tuple[List[Mapping[str, Any]],
                               Dict[int, List[Mapping[str, Any]]]]:
    """Roots and a parent_id -> children map, both start-ordered."""
    ids = {s["span_id"] for s in spans}
    roots = []
    children: Dict[int, List[Mapping[str, Any]]] = {}
    for s in spans:
        parent = s.get("parent_id")
        if parent is None or parent not in ids:
            roots.append(s)
        else:
            children.setdefault(parent, []).append(s)
    key = lambda s: (s["start"], s["span_id"])  # noqa: E731
    roots.sort(key=key)
    for lst in children.values():
        lst.sort(key=key)
    return roots, children


def _bar(span: Mapping[str, Any], t0: float, extent: float) -> str:
    if extent <= 0:
        return "#" * BAR_WIDTH
    lead = int((span["start"] - t0) / extent * BAR_WIDTH)
    lead = min(lead, BAR_WIDTH - 1)
    fill = max(1, round((span["end"] - span["start"]) / extent * BAR_WIDTH))
    fill = min(fill, BAR_WIDTH - lead)
    return "." * lead + "#" * fill + "." * (BAR_WIDTH - lead - fill)


def render_trace_tree(spans: Sequence[Mapping[str, Any]],
                      events: Sequence[Mapping[str, Any]] = ()) -> str:
    """Indented tree + waterfall bars for the spans of ONE trace."""
    if not spans:
        return "(no spans)"
    t0 = min(s["start"] for s in spans)
    t1 = max(s["end"] for s in spans)
    extent = t1 - t0
    roots, children = _children_index(spans)
    lines: List[str] = []

    def walk(span: Mapping[str, Any], depth: int) -> None:
        name = "  " * depth + span["name"]
        dur = fmt_seconds(span["end"] - span["start"])
        lines.append(f"{_pad(name, 44)}{dur:>10}  "
                     f"|{_bar(span, t0, extent)}|")
        for child in children.get(span["span_id"], []):
            walk(child, depth + 1)

    for root in roots:
        walk(root, 0)
    for ev in sorted(events, key=lambda e: e["time"]):
        lines.append(f"  ! {ev['severity']}: {ev['component']}."
                     f"{ev['kind']} at {fmt_seconds(ev['time'] - t0)} "
                     f"{ev.get('attrs', {})}")
    return "\n".join(lines)


def render_slow_spans(spans: Sequence[Mapping[str, Any]],
                      top: int = 10) -> str:
    """The *top* longest spans across all traces."""
    ranked = sorted(spans, key=lambda s: s["end"] - s["start"],
                    reverse=True)[:top]
    lines = [f"top {len(ranked)} slow spans",
             "-" * 60]
    for s in ranked:
        lines.append(f"{_pad(s['name'], 36)}"
                     f"{fmt_seconds(s['end'] - s['start']):>10}  "
                     f"trace {s.get('trace_id', '-')}")
    return "\n".join(lines)


def render_traces(spans: Sequence[Mapping[str, Any]],
                  events: Sequence[Mapping[str, Any]] = (),
                  *, top: int = 10, max_traces: int = 5) -> str:
    """Group spans by trace and render the largest trees first."""
    if not spans:
        return "(no spans recorded)"
    by_trace: Dict[Any, List[Mapping[str, Any]]] = {}
    for s in spans:
        by_trace.setdefault(s.get("trace_id"), []).append(s)
    events_by_trace: Dict[Any, List[Mapping[str, Any]]] = {}
    for e in events:
        if e.get("trace_id") is not None:
            events_by_trace.setdefault(e["trace_id"], []).append(e)
    ordered = sorted(by_trace.items(),
                     key=lambda kv: len(kv[1]), reverse=True)
    sections: List[str] = []
    for trace_id, group in ordered[:max_traces]:
        t0 = min(s["start"] for s in group)
        t1 = max(s["end"] for s in group)
        sections.append(
            f"trace {trace_id} · {len(group)} spans · "
            f"{fmt_seconds(t1 - t0)}")
        sections.append(render_trace_tree(
            group, events_by_trace.get(trace_id, [])))
        sections.append("")
    hidden = len(ordered) - min(len(ordered), max_traces)
    if hidden:
        sections.append(f"({hidden} smaller traces not shown)")
    sections.append(render_slow_spans(spans, top=top))
    return "\n".join(sections)
