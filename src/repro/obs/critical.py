"""Critical-path analysis over span trees.

A Course-On-Demand request traverses navigator → RPC → database →
MHEG → streaming, and its end-to-end latency is a chain of dependent
stage delays.  This module extracts the **critical path** of a trace:
the longest blocking chain of spans that determines when the root
finishes.  Shrinking a span on the path shrinks the trace; shrinking
any other span does not.  That makes the path the attribution tool the
ROADMAP's perf arc is judged with — "which layer bounds latency" has
one deterministic answer per trace.

The algorithm is the classic backward walk (as used by Jaeger's
critical-path view): starting at a span's end, repeatedly yield to the
child that finishes last, attribute the gaps between child intervals
to the parent itself, and recurse into each blocking child clipped to
the frontier.  The result is a list of non-overlapping *segments*,
each charging an interval of simulated time to exactly one span; the
segments tile the root's duration exactly.

Derived quantities:

``self_time``
    per span, its duration minus the union of its children's
    intervals (clipped to the span) — time the span spent working,
    not waiting.  Path segments charge a span only for blocking
    self-time, so a span's path contribution is ≤ its self-time.
``slack``
    per span, ``parent.end − span.end`` (clamped ≥ 0): how much
    longer the span could have run before it alone delayed its
    parent.  Spans on the critical path have the smallest slack in
    their sibling set; a large slack marks work that can soak up an
    optimisation's budget without moving the end-to-end number.
``attribution``
    path seconds aggregated by *component* (the span-name prefix
    before the first dot: ``rpc``, ``streaming``, ``mheg``, …) and by
    *span kind* (the name with any ``:method`` suffix stripped, so
    ``rpc.client:GetContent`` pools with every other client call).
``tail exemplars``
    the traces whose root duration sits at or above a quantile
    (default p99) of all root durations — the concrete slow requests
    worth reading, auto-selected instead of hand-picked.

Everything here is pure functions over span dicts (the
archive ``span`` record shape); live
:class:`~repro.obs.tracing.SpanRecord` objects are accepted too and
normalised up front.  Orphaned spans — parents dropped by sampling or
ring eviction — are treated as roots of their own subtree, so a
sampled archive still analyses instead of crashing.
"""

from __future__ import annotations

import math
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

__all__ = [
    "analyze_trace",
    "attribution",
    "component_of",
    "critical_segments",
    "kind_of",
    "normalize_spans",
    "render_attribution",
    "render_critical_path",
    "select_traces",
    "tail_trace_ids",
]

#: ignore segments shorter than this (simulated seconds): float noise
#: from clipping, not real work
EPSILON = 1e-12


def component_of(name: str) -> str:
    """``rpc.client:GetContent`` → ``rpc``; ``streaming.send`` →
    ``streaming``.  The prefix before the first dot is the layer the
    thesis's measurement chapter tabulates by."""
    return name.split(".", 1)[0].split(":", 1)[0]


def kind_of(name: str) -> str:
    """Span kind: the name with any ``:method`` suffix stripped, so
    every RPC method pools into ``rpc.client`` / ``rpc.server``."""
    return name.split(":", 1)[0]


def normalize_spans(spans: Sequence[Any]) -> List[Dict[str, Any]]:
    """Accept SpanRecord objects or dicts; return plain dicts."""
    return [s if isinstance(s, Mapping) else s.to_dict() for s in spans]


# -- tree building ---------------------------------------------------------


def _index(spans: Sequence[Mapping[str, Any]]
           ) -> Tuple[List[Mapping[str, Any]],
                      Dict[Any, List[Mapping[str, Any]]]]:
    """Roots and a parent_id → children map for ONE trace's spans.

    A span whose parent is absent (never traced, or dropped by
    sampling/eviction) roots its own subtree rather than vanishing.
    """
    ids = {s["span_id"] for s in spans}
    roots: List[Mapping[str, Any]] = []
    children: Dict[Any, List[Mapping[str, Any]]] = {}
    for s in spans:
        parent = s.get("parent_id")
        if parent is None or parent not in ids:
            roots.append(s)
        else:
            children.setdefault(parent, []).append(s)
    return roots, children


def group_by_trace(spans: Sequence[Mapping[str, Any]]
                   ) -> Dict[Any, List[Mapping[str, Any]]]:
    by_trace: Dict[Any, List[Mapping[str, Any]]] = {}
    for s in spans:
        by_trace.setdefault(s.get("trace_id"), []).append(s)
    return by_trace


# -- the backward walk -----------------------------------------------------


def critical_segments(root: Mapping[str, Any],
                      children: Dict[Any, List[Mapping[str, Any]]]
                      ) -> List[Dict[str, Any]]:
    """Non-overlapping path segments tiling *root*'s duration.

    Each segment is ``{span_id, name, start, end, seconds, depth}``
    charging ``[start, end)`` of simulated time to one span.  Segments
    come back start-ordered and sum exactly to the root duration.
    """
    segments: List[Dict[str, Any]] = []

    def charge(span: Mapping[str, Any], start: float, end: float,
               depth: int) -> None:
        if end - start > EPSILON:
            segments.append({
                "span_id": span["span_id"], "name": span["name"],
                "start": start, "end": end, "seconds": end - start,
                "depth": depth,
            })

    def walk(span: Mapping[str, Any], clip_end: float,
             depth: int) -> None:
        frontier = min(_end(span), clip_end)
        kids = sorted(children.get(span["span_id"], ()),
                      key=lambda c: (_end(c), c["span_id"]),
                      reverse=True)
        for child in kids:
            if child["start"] >= frontier - EPSILON:
                continue  # fully shadowed by a later-finishing sibling
            child_end = min(_end(child), frontier)
            # the gap after the child is the parent's own blocking work
            charge(span, child_end, frontier, depth)
            walk(child, child_end, depth + 1)
            frontier = child["start"]
            if frontier <= span["start"] + EPSILON:
                break
        charge(span, span["start"], max(frontier, span["start"]), depth)

    walk(root, _end(root), 0)
    segments.reverse()  # emitted end-first; callers read start-ordered
    return segments


def _end(span: Mapping[str, Any]) -> float:
    return span["end"]


# -- derived per-span quantities -------------------------------------------


def self_times(spans: Sequence[Mapping[str, Any]],
               children: Dict[Any, List[Mapping[str, Any]]]
               ) -> Dict[Any, float]:
    """duration − union of child intervals (clipped), per span id."""
    out: Dict[Any, float] = {}
    for s in spans:
        intervals = sorted(
            (max(c["start"], s["start"]), min(_end(c), _end(s)))
            for c in children.get(s["span_id"], ()))
        covered = 0.0
        cur_start: Optional[float] = None
        cur_end = 0.0
        for start, end in intervals:
            if end <= start:
                continue
            if cur_start is None or start > cur_end:
                if cur_start is not None:
                    covered += cur_end - cur_start
                cur_start, cur_end = start, end
            else:
                cur_end = max(cur_end, end)
        if cur_start is not None:
            covered += cur_end - cur_start
        out[s["span_id"]] = max(0.0, (_end(s) - s["start"]) - covered)
    return out


def slacks(spans: Sequence[Mapping[str, Any]]) -> Dict[Any, float]:
    """``parent.end − span.end`` clamped ≥ 0; 0 for roots/orphans."""
    by_id = {s["span_id"]: s for s in spans}
    out: Dict[Any, float] = {}
    for s in spans:
        parent = by_id.get(s.get("parent_id"))
        out[s["span_id"]] = max(0.0, _end(parent) - _end(s)) \
            if parent is not None else 0.0
    return out


# -- per-trace analysis ----------------------------------------------------


def analyze_trace(trace_spans: Sequence[Any]) -> Dict[str, Any]:
    """Full critical-path analysis of ONE trace's spans.

    Returns ``{trace_id, root, duration, segments, path_span_ids,
    self_time, slack, by_component, by_kind}``.  A trace fragmented by
    sampling has several roots; the longest root anchors the path and
    the others are listed in ``other_roots``.
    """
    spans = normalize_spans(trace_spans)
    if not spans:
        raise ValueError("analyze_trace needs at least one span")
    roots, children = _index(spans)
    root = max(roots, key=lambda s: (_end(s) - s["start"], -s["span_id"]))
    segments = critical_segments(root, children)
    result = {
        "trace_id": root.get("trace_id"),
        "root": root["name"],
        "root_span_id": root["span_id"],
        "duration": _end(root) - root["start"],
        "segments": segments,
        "path_span_ids": sorted({seg["span_id"] for seg in segments}),
        "self_time": self_times(spans, children),
        "slack": slacks(spans),
        "by_component": _aggregate(segments, component_of),
        "by_kind": _aggregate(segments, kind_of),
    }
    if len(roots) > 1:
        result["other_roots"] = [
            {"span_id": r["span_id"], "name": r["name"],
             "duration": _end(r) - r["start"]}
            for r in roots if r is not root]
    return result


def _aggregate(segments: Sequence[Mapping[str, Any]], key_fn
               ) -> Dict[str, Dict[str, Any]]:
    total = sum(seg["seconds"] for seg in segments)
    out: Dict[str, Dict[str, Any]] = {}
    for seg in segments:
        row = out.setdefault(key_fn(seg["name"]),
                             {"seconds": 0.0, "segments": 0})
        row["seconds"] += seg["seconds"]
        row["segments"] += 1
    for row in out.values():
        row["share"] = row["seconds"] / total if total > 0 else 0.0
    return out


# -- whole-archive attribution ---------------------------------------------


def attribution(all_spans: Sequence[Any],
                trace_ids: Optional[Sequence[Any]] = None
                ) -> Dict[str, Any]:
    """Critical-path attribution aggregated across traces.

    Every trace (or just *trace_ids*) contributes its path segments;
    shares are of the summed path seconds.  This is the compact block
    an archive's ``fin`` summary embeds and the ``repro.obs diff``
    attribution section compares across runs.
    """
    spans = normalize_spans(all_spans)
    by_trace = group_by_trace(spans)
    if trace_ids is not None:
        wanted = set(trace_ids)
        by_trace = {t: g for t, g in by_trace.items() if t in wanted}
    segments: List[Dict[str, Any]] = []
    total_root_seconds = 0.0
    for group in by_trace.values():
        analysis = analyze_trace(group)
        segments.extend(analysis["segments"])
        total_root_seconds += analysis["duration"]
    return {
        "traces": len(by_trace),
        "path_seconds": sum(seg["seconds"] for seg in segments),
        "root_seconds": total_root_seconds,
        "by_component": _aggregate(segments, component_of),
        "by_kind": _aggregate(segments, kind_of),
    }


def tail_trace_ids(all_spans: Sequence[Any],
                   quantile: float = 0.99) -> List[Any]:
    """Traces whose root duration is at/above the given quantile.

    Nearest-rank over the per-trace root durations, so at least one
    trace — the slowest — is always selected.  These are the
    exemplars a diagnosis should read first: the tail is where an SLO
    dies, and the median trace rarely explains it.
    """
    if not 0.0 <= quantile <= 1.0:
        raise ValueError("quantile must be in [0, 1]")
    spans = normalize_spans(all_spans)
    durations: List[Tuple[float, Any]] = []
    for trace_id, group in group_by_trace(spans).items():
        roots, _ = _index(group)
        dur = max(_end(r) - r["start"] for r in roots)
        durations.append((dur, trace_id))
    if not durations:
        return []
    durations.sort(key=lambda pair: pair[0])
    idx = max(0, math.ceil(quantile * len(durations)) - 1)
    threshold = durations[idx][0]
    return [trace_id for dur, trace_id in durations
            if dur >= threshold]


def select_traces(all_spans: Sequence[Any], *,
                  trace_id: Optional[Any] = None,
                  tail: bool = False,
                  quantile: float = 0.99) -> List[Any]:
    """Which traces should a rendering show?  One explicit id, the
    tail exemplars, or (default) the single longest-rooted trace."""
    spans = normalize_spans(all_spans)
    if trace_id is not None:
        if not any(s.get("trace_id") == trace_id for s in spans):
            raise ValueError(f"trace {trace_id!r} not in this archive")
        return [trace_id]
    if tail:
        return tail_trace_ids(spans, quantile)
    return tail_trace_ids(spans, 1.0)[-1:]


# -- rendering -------------------------------------------------------------


def _fmt_seconds(value: float) -> str:
    if value >= 1.0:
        return f"{value:.3f}s"
    if value >= 1e-3:
        return f"{value * 1e3:.2f}ms"
    return f"{value * 1e6:.1f}us"


def render_critical_path(trace_spans: Sequence[Any]) -> str:
    """One trace's path as an indented table: step, path time (the
    blocking seconds the step charges), self-time, and slack."""
    analysis = analyze_trace(trace_spans)
    spans = normalize_spans(trace_spans)
    names = {s["span_id"]: s["name"] for s in spans}
    lines = [f"critical path · trace {analysis['trace_id']} · root "
             f"{analysis['root']} · {_fmt_seconds(analysis['duration'])}",
             f"  {'step':<44}{'path':>10}{'self':>10}{'slack':>10}",
             "  " + "-" * 74]
    # merge consecutive segments of the same span into one step
    steps: List[Dict[str, Any]] = []
    for seg in analysis["segments"]:
        if steps and steps[-1]["span_id"] == seg["span_id"]:
            steps[-1]["seconds"] += seg["seconds"]
        else:
            steps.append(dict(seg))
    for step in steps:
        sid = step["span_id"]
        indent = "  " * step["depth"]
        label = (indent + names.get(sid, "?"))[:44]
        lines.append(
            f"  {label:<44}"
            f"{_fmt_seconds(step['seconds']):>10}"
            f"{_fmt_seconds(analysis['self_time'].get(sid, 0.0)):>10}"
            f"{_fmt_seconds(analysis['slack'].get(sid, 0.0)):>10}")
    off_path = [s for s in spans
                if s["span_id"] not in set(analysis["path_span_ids"])]
    if off_path:
        worst = max(off_path,
                    key=lambda s: analysis["self_time"].get(s["span_id"], 0.0))
        lines.append(
            f"  ({len(off_path)} spans off the path; largest self-time "
            f"{worst['name']} "
            f"{_fmt_seconds(analysis['self_time'].get(worst['span_id'], 0.0))}"
            f", slack "
            f"{_fmt_seconds(analysis['slack'].get(worst['span_id'], 0.0))})")
    if "other_roots" in analysis:
        lines.append(f"  ({len(analysis['other_roots'])} orphaned "
                     f"subtrees analysed separately)")
    return "\n".join(lines)


def render_attribution(all_spans: Sequence[Any], *,
                       trace_ids: Optional[Sequence[Any]] = None,
                       top: int = 10) -> str:
    """Attribution tables (by component, by span kind) for an archive."""
    attr = attribution(all_spans, trace_ids)
    if not attr["traces"]:
        return "(no spans to attribute)"
    lines = [f"critical-path attribution · {attr['traces']} traces · "
             f"{_fmt_seconds(attr['path_seconds'])} on path"]
    for title, table in (("component", attr["by_component"]),
                         ("span kind", attr["by_kind"])):
        lines.append(f"  {'by ' + title:<36}{'seconds':>12}{'share':>8}"
                     f"{'segs':>7}")
        lines.append("  " + "-" * 63)
        ranked = sorted(table.items(),
                        key=lambda kv: kv[1]["seconds"], reverse=True)
        for key, row in ranked[:top]:
            lines.append(f"  {key:<36}"
                         f"{_fmt_seconds(row['seconds']):>12}"
                         f"{row['share'] * 100:>7.1f}%"
                         f"{row['segments']:>7}")
    return "\n".join(lines)
