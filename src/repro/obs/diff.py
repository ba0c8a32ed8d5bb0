"""Differential run comparison: what changed between two archives?

``bench_gate`` can say *that* ``events_run`` drifted; this module
says *why* — which span kinds got slower, which SLOs flipped, where
the critical path moved, and whose traffic share shifted.  It
compares two archived runs end to end and emits one ranked
attribution table plus a machine-readable ``diff_*.json``, so every
regression arrives with a layer-level explanation.

Either side is an :class:`~repro.obs.sink.Archive` — a run's
``obs_<name>.jsonl`` — or a ``BENCH_<scenario>.json`` bench-gate
baseline (scalar metric vector, no spans), which :func:`baseline`
turns into one.

Sections degrade gracefully: a side missing spans still diffs
metrics and the bench vector.  Every section is **deterministic**
(metrics registry, span kinds, SLO verdicts, critical-path
attribution, ledger) except the bench vector's wall-clock metrics;
only deterministic changes count toward
``deterministic_delta_count``, which is the CI determinism smoke's
verdict — two same-seed runs must report zero.
"""

from __future__ import annotations

import dataclasses
import json
import os
from typing import Any, Dict, List, Mapping, Optional, Sequence

from repro.obs import critical
from repro.obs.accounting import FIELDS
from repro.obs.metrics import MetricsRegistry
from repro.obs.report import fmt_seconds
from repro.obs.sink import Archive, load_archive

__all__ = ["baseline", "diff_runs", "load_side", "render_diff_report",
           "write_diff"]

#: bench-vector metrics that are reproducible given the seed; of the
#: rest, ``obs_overhead_pct`` is hardware and ``events_per_sim_sec`` is
#: derived from the first two
BENCH_DETERMINISTIC = ("events_run", "sim_time", "peak_queue_depth",
                      "peak_link_queue", "peak_player_buffer")

#: changes smaller than this (absolute) are float noise, not deltas
EPSILON = 1e-9


def baseline(path: str, fill: Optional[Archive] = None) -> Archive:
    """A ``BENCH_<scenario>.json`` baseline as an :class:`Archive`.

    Its metric vector becomes ``summary["bench"]``; every other
    section comes from *fill* (the previous gate run's archive) when
    given.
    """
    with open(path) as fh:
        payload = json.load(fh)
    base = fill or Archive(path=path, name="", meta={}, summary={},
                           complete=True)
    return dataclasses.replace(
        base, path=path, name=payload.get("scenario", ""),
        summary={**base.summary,
                 "bench": dict(payload.get("metrics", {}))})


def load_side(path: str) -> Archive:
    """One side of a diff: a ``BENCH_*.json`` baseline or an archive."""
    return baseline(path) if path.endswith(".json") else load_archive(path)


def _kinds(archive: Archive) -> Dict[str, Any]:
    return (archive.accounting or {}).get("kinds") or {}


def _critical_attribution(archive: Archive) -> Optional[Dict[str, Any]]:
    """Prefer recomputing from spans; fall back to the compact block
    the ``fin`` summary embeds."""
    if archive.spans:
        return critical.attribution(archive.spans)
    return archive.summary.get("critical")


# -- section diffs ---------------------------------------------------------


def _span_kind_stats(spans: Sequence[Mapping[str, Any]]
                     ) -> Dict[str, Dict[str, float]]:
    durations: Dict[str, List[float]] = {}
    for s in spans:
        durations.setdefault(critical.kind_of(s["name"]), []).append(
            s["end"] - s["start"])
    out: Dict[str, Dict[str, float]] = {}
    for kind, durs in durations.items():
        durs.sort()
        n = len(durs)
        out[kind] = {
            "count": n,
            "total": sum(durs),
            "mean": sum(durs) / n,
            "p50": durs[max(0, (n + 1) // 2 - 1)],
            "p99": durs[max(0, -(-99 * n // 100) - 1)],
        }
    return out


def _diff_span_kinds(a: Archive, b: Archive
                     ) -> List[Dict[str, Any]]:
    sa, sb = _span_kind_stats(a.spans), _span_kind_stats(b.spans)
    rows = []
    for kind in sorted(set(sa) | set(sb)):
        before, after = sa.get(kind), sb.get(kind)
        row: Dict[str, Any] = {"kind": kind, "before": before,
                               "after": after}
        if before is None or after is None:
            row["only"] = "after" if before is None else "before"
            present = after or before or {}
            row["delta_total"] = (present.get("total", 0.0)
                                  * (1 if before is None else -1))
        else:
            row["delta_total"] = after["total"] - before["total"]
            row["delta"] = {stat: after[stat] - before[stat]
                            for stat in ("count", "mean", "p50", "p99")}
        rows.append(row)
    rows.sort(key=lambda r: abs(r["delta_total"]), reverse=True)
    return rows


def _slo_results(archive: Archive) -> Dict[str, bool]:
    slo = archive.summary.get("slo") or {}
    return {r["name"]: bool(r["ok"]) for r in slo.get("results", [])}


def _diff_slo(a: Archive, b: Archive) -> Dict[str, Any]:
    ra, rb = _slo_results(a), _slo_results(b)
    transitions = []
    for name in sorted(set(ra) | set(rb)):
        va, vb = ra.get(name), rb.get(name)
        if va != vb:
            transitions.append({"name": name, "before": va, "after": vb})
    verdict_a = (a.summary.get("slo") or {}).get("verdict")
    verdict_b = (b.summary.get("slo") or {}).get("verdict")
    return {
        "verdict_before": verdict_a,
        "verdict_after": verdict_b,
        "verdict_changed": verdict_a != verdict_b,
        "transitions": transitions,
    }


def _diff_critical(a: Archive, b: Archive) -> List[Dict[str, Any]]:
    ca, cb = _critical_attribution(a), _critical_attribution(b)
    table_a = (ca or {}).get("by_component", {})
    table_b = (cb or {}).get("by_component", {})
    rows = []
    for comp in sorted(set(table_a) | set(table_b)):
        ra = table_a.get(comp, {"seconds": 0.0, "share": 0.0})
        rb = table_b.get(comp, {"seconds": 0.0, "share": 0.0})
        rows.append({
            "component": comp,
            "before_seconds": ra["seconds"], "after_seconds": rb["seconds"],
            "delta_seconds": rb["seconds"] - ra["seconds"],
            "before_share": ra["share"], "after_share": rb["share"],
            "delta_share": rb["share"] - ra["share"],
        })
    rows.sort(key=lambda r: abs(r["delta_seconds"]), reverse=True)
    return rows


#: ledger rows a diff lists, largest ``bytes_sent`` movement first
LEDGER_TOP = 8

#: the numbers of a ledger row; a row moved when any of them did
LEDGER_NUMBERS = FIELDS + ("share", "bits_per_sec")


def _diff_ledger(a: Archive, b: Archive) -> List[Dict[str, Any]]:
    """The ledger rows that moved in any number, across kinds, ranked
    by their ``bytes_sent`` movement."""
    rows = []
    kinds_a = _kinds(a)
    kinds_b = _kinds(b)
    for kind in sorted(set(kinds_a) | set(kinds_b)):
        acc_a = {r["key"]: r for r in kinds_a.get(kind, [])}
        acc_b = {r["key"]: r for r in kinds_b.get(kind, [])}
        for key in sorted(set(acc_a) | set(acc_b)):
            ra = acc_a.get(key, {})
            rb = acc_b.get(key, {})
            if key in acc_a and key in acc_b and all(
                    abs(rb.get(f, 0) - ra.get(f, 0)) <= EPSILON
                    for f in LEDGER_NUMBERS):
                continue
            ba = ra.get("bytes_sent", 0)
            bb = rb.get("bytes_sent", 0)
            row = {"kind": kind, "key": key, "before_bytes": ba,
                   "after_bytes": bb, "delta_bytes": bb - ba}
            if key not in acc_a:
                row["only"] = "after"
            elif key not in acc_b:
                row["only"] = "before"
            rows.append(row)
    rows.sort(key=lambda r: abs(r["delta_bytes"]), reverse=True)
    return rows


def _diff_bench(a: Archive, b: Archive) -> List[Dict[str, Any]]:
    va = a.summary.get("bench") or {}
    vb = b.summary.get("bench") or {}
    rows = []
    for metric in sorted(set(va) | set(vb)):
        mb, mc = va.get(metric), vb.get(metric)
        rows.append({
            "metric": metric, "before": mb, "after": mc,
            "delta": (mc or 0) - (mb or 0),
            "deterministic": metric in BENCH_DETERMINISTIC,
        })
    return rows


# -- the top-level diff ----------------------------------------------------


def diff_runs(a: Archive, b: Archive, *,
              top: int = 10) -> Dict[str, Any]:
    """Compare two archives end to end.

    Returns a JSON-stable payload whose ``attribution`` section is one
    ranked table of time-attributed movements (span kinds by Δ total
    seconds, critical-path components by Δ path seconds) — the "what
    explains the regression" answer, largest mover first.
    """
    metrics_delta = MetricsRegistry.delta(a.metrics, b.metrics) \
        if (a.metrics or b.metrics) else {}
    moved = {key: row for key, row in metrics_delta.items()
             if abs(row["delta"]) > EPSILON or "only" in row}
    span_kinds = _diff_span_kinds(a, b)
    slo = _diff_slo(a, b)
    crit = _diff_critical(a, b)
    ledger = _diff_ledger(a, b)
    bench = _diff_bench(a, b)

    attribution: List[Dict[str, Any]] = []
    for row in span_kinds:
        attribution.append({
            "source": "span-kind", "key": row["kind"],
            "delta_seconds": row["delta_total"],
            "detail": f"count {_count(row, 'before')} -> "
                      f"{_count(row, 'after')}",
        })
    for row in crit:
        attribution.append({
            "source": "critical-path", "key": row["component"],
            "delta_seconds": row["delta_seconds"],
            "detail": f"share {row['before_share'] * 100:.1f}% -> "
                      f"{row['after_share'] * 100:.1f}%",
        })
    attribution.sort(key=lambda r: abs(r["delta_seconds"]), reverse=True)
    attribution = attribution[:3 * top]

    deterministic = (
        len(moved)
        + sum(1 for r in span_kinds
              if abs(r["delta_total"]) > EPSILON or "only" in r)
        + len(slo["transitions"])
        + (1 if slo["verdict_changed"] else 0)
        + sum(1 for r in crit if abs(r["delta_seconds"]) > EPSILON)
        + len(ledger)
        + sum(1 for r in bench
              if r["deterministic"] and abs(r["delta"]) > EPSILON)
    )
    return {
        "runs": {"before": {"path": a.path, "name": a.name},
                 "after": {"path": b.path, "name": b.name}},
        "bench": bench,
        "metrics": moved,
        "span_kinds": span_kinds,
        "slo": slo,
        "critical": crit,
        "ledger": ledger[:LEDGER_TOP],
        "attribution": attribution,
        "deterministic_delta_count": deterministic,
    }


def _count(row: Mapping[str, Any], side: str) -> Any:
    stats = row.get(side)
    return stats["count"] if stats else "-"


# -- rendering -------------------------------------------------------------


def _fmt(value: Any) -> str:
    if value is None:
        return "-"
    if isinstance(value, float):
        return f"{value:.4g}"
    return str(value)


def render_attribution_table(payload: Mapping[str, Any], *,
                             top: int = 10) -> str:
    """The ranked table alone — what bench_gate prints on failure."""
    rows = payload["attribution"][:top]
    if not rows:
        return "(no attribution rows — neither run carried spans)"
    lines = [f"ranked attribution (largest movers, "
             f"{'Δ':>1} seconds of blocking/cumulative time):",
             f"  {'#':>2} {'source':<14}{'where':<40}{'Δ seconds':>12}"
             f"  detail",
             "  " + "-" * 92]
    for i, row in enumerate(rows, 1):
        sign = "+" if row["delta_seconds"] >= 0 else "-"
        lines.append(
            f"  {i:>2} {row['source']:<14}{row['key'][:39]:<40}"
            f"{sign}{fmt_seconds(abs(row['delta_seconds'])):>11}"
            f"  {row['detail']}")
    return "\n".join(lines)


def render_instrument_movers(payload: Mapping[str, Any], *,
                             top: int = 10) -> str:
    """The largest per-instrument metric movements, largest first —
    also what bench_gate prints against the previous run."""
    moved = payload["metrics"]
    if not moved:
        return "  (no instrument moved)"
    lines = [f"  top instrument movements ({len(moved)} instruments moved):"]
    ranked = sorted(moved.items(),
                    key=lambda kv: abs(kv[1]["delta"]), reverse=True)
    for key, row in ranked[:top]:
        tag = f"  [{row['only']} only]" if "only" in row else ""
        lines.append(f"    {key:<52} {row['before']:>10.4g} -> "
                     f"{row['after']:>10.4g}  ({row['delta']:+.4g}){tag}")
    return "\n".join(lines)


def render_diff_report(payload: Mapping[str, Any], *,
                       top: int = 10) -> str:
    """Full human-readable diff: header, bench vector, attribution,
    SLO transitions, metric movers, ledger movements."""
    runs = payload["runs"]
    lines = [f"== diff: {runs['before']['name'] or runs['before']['path']}"
             f" -> {runs['after']['name'] or runs['after']['path']} ==",
             f"   before: {runs['before']['path']}",
             f"   after:  {runs['after']['path']}", ""]
    bench = [r for r in payload["bench"]
             if r["before"] is not None or r["after"] is not None]
    if bench:
        lines.append(f"  {'bench metric':<24}{'before':>14}{'after':>14}"
                     f"{'delta':>12}  class")
        lines.append("  " + "-" * 72)
        for r in bench:
            klass = "deterministic" if r["deterministic"] else "wall"
            lines.append(f"  {r['metric']:<24}{_fmt(r['before']):>14}"
                         f"{_fmt(r['after']):>14}{r['delta']:>+12.4g}"
                         f"  {klass}")
        lines.append("")
    lines.append(render_attribution_table(payload, top=top))
    slo = payload["slo"]
    if slo["transitions"] or slo["verdict_changed"]:
        lines.append("")
        lines.append(f"  SLO verdict: {slo['verdict_before']} -> "
                     f"{slo['verdict_after']}")
        for t in slo["transitions"]:
            fmt_v = lambda v: {True: "PASS", False: "FAIL",  # noqa: E731
                               None: "absent"}[v]
            lines.append(f"    {t['name']}: {fmt_v(t['before'])} -> "
                         f"{fmt_v(t['after'])}")
    if payload["metrics"]:
        lines.append("")
        lines.append(render_instrument_movers(payload, top=top))
    if payload["ledger"]:
        lines.append("")
        lines.append("  top ledger movements (ranked by bytes sent):")
        for row in payload["ledger"]:
            tag = f"  [{row['only']} only]" if "only" in row else ""
            lines.append(f"    {row['kind']}/{row['key']:<30} "
                         f"{row['before_bytes']:>12} -> "
                         f"{row['after_bytes']:>12}  "
                         f"({row['delta_bytes']:+d}){tag}")
    lines.append("")
    n = payload["deterministic_delta_count"]
    lines.append(f"  deterministic deltas: {n}"
                 + ("  (runs are equivalent modulo wall clock)"
                    if n == 0 else ""))
    return "\n".join(lines)


def write_diff(payload: Mapping[str, Any], out_dir: str,
               name: str) -> str:
    """Write the machine-readable ``diff_<name>.json``; returns path."""
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, f"diff_{name}.json")
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return path
