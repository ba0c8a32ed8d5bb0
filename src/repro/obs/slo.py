"""Service-level objectives evaluated against a metrics report.

An :class:`Slo` is a declarative threshold on one statistic of one
metric — "connection RTT p99 stays under 250 ms", "link drop rate
stays under 1%" — the QoS-contract framing the thesis inherits from
its ATM service classes, applied to the whole teaching session.

Evaluation works on the plain-dict report produced by
:meth:`~repro.obs.metrics.MetricsRegistry.report` (not on live
instruments), so the same :class:`SloMonitor` judges a running
:class:`~repro.core.system.MitsSystem` snapshot and a
run archive a benchmark wrote last week.

An SLO whose metric recorded no samples is *skipped* rather than
failed: a scenario with no video player shouldn't fail the pre-roll
objective.  Skipped results count as passing but are flagged so the
CLI can render them distinctly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

__all__ = ["DEFAULT_SLOS", "DEGRADATION_METRICS", "Slo", "SloMonitor",
           "SloResult", "judge_report"]

#: statistics summed across instrument entries (counters / totals)
_SUM_STATS = ("value", "count", "sum")


@dataclass(frozen=True)
class Slo:
    """One declarative threshold.

    ``stat`` picks the field of the metric snapshot to judge: a
    histogram statistic (``p50``/``p99``/``mean``/``min``/``max``) is
    compared entry-by-entry and the *worst* instrument decides;
    ``value``/``count``/``sum`` are summed across entries.  With
    ``per`` set, the SLO is a ratio: summed numerator over the summed
    ``value`` of the ``(component, metric)`` denominator.
    """

    name: str
    component: str
    metric: str
    stat: str = "p99"
    threshold: float = 0.0
    op: str = "<="
    per: Optional[Tuple[str, str]] = None
    description: str = ""

    def __post_init__(self) -> None:
        if self.op not in ("<=", ">="):
            raise ValueError(f"unsupported SLO op {self.op!r}")


@dataclass
class SloResult:
    """Verdict for one SLO against one report."""

    slo: Slo
    observed: Optional[float]
    ok: bool
    skipped: bool = False

    def to_dict(self) -> Dict[str, Any]:
        return {
            "name": self.slo.name,
            "component": self.slo.component,
            "metric": self.slo.metric,
            "stat": self.slo.stat,
            "op": self.slo.op,
            "threshold": self.slo.threshold,
            "observed": self.observed,
            "ok": self.ok,
            "skipped": self.skipped,
            "description": self.slo.description,
        }


#: default objectives for a MITS deployment, thresholds sized to the
#: thesis's interactive-response and video-QoS targets
DEFAULT_SLOS: Tuple[Slo, ...] = (
    Slo("rpc-rtt-p99", "connection", "rtt_seconds", stat="p99",
        threshold=0.25,
        description="transport round-trip p99 stays interactive"),
    Slo("frame-lateness-p99", "player", "frame_lateness_seconds",
        stat="p99", threshold=0.1,
        description="video frames arrive within 100 ms of deadline"),
    Slo("cell-drop-rate", "link", "drops_total", stat="value",
        threshold=0.01, per=("link", "cells_transmitted"),
        description="cells dropped per cell transmitted stays under 1%"),
    Slo("preroll-p99", "player", "startup_delay_seconds", stat="p99",
        threshold=2.0,
        description="playback starts within 2 s of the first frame"),
)

#: counters whose presence marks a run that *survived with
#: degradation*: the recovery machinery (retries, reconnects, playout
#: concealment, bitrate downgrades) had to fire to keep the session
#: alive.  A passing run with any of these non-zero is judged
#: "degraded", not "ok" — the distinction a chaos report cares about.
DEGRADATION_METRICS: Tuple[Tuple[str, str], ...] = (
    ("rpc", "retries"),
    ("connection", "reconnects"),
    ("player", "frames_concealed"),
    ("player", "degradations"),
    ("streaming", "degradations"),
)


def _entries(report: Mapping[str, Any], component: str,
             metric: str) -> List[Dict[str, Any]]:
    return list(report.get(component, {}).get(metric, []))


def _sum_values(entries: List[Dict[str, Any]], stat: str) -> Optional[float]:
    values = [e[stat] for e in entries if e.get(stat) is not None]
    if not values:
        return None
    return float(sum(values))


class SloMonitor:
    """Evaluates a set of SLOs against metrics reports."""

    def __init__(self, slos: Optional[Sequence[Slo]] = None) -> None:
        self.slos: Tuple[Slo, ...] = tuple(slos) if slos is not None \
            else DEFAULT_SLOS

    def evaluate(self, report: Mapping[str, Any]) -> List[SloResult]:
        """Judge every SLO against a ``MetricsRegistry.report()`` dict."""
        return [self._evaluate_one(slo, report) for slo in self.slos]

    def evaluate_registry(self, registry: Any) -> List[SloResult]:
        return self.evaluate(registry.report())

    def summary(self, report: Mapping[str, Any], *,
                watchdog_alerts: Optional[Sequence[Mapping[str, Any]]] = None
                ) -> Dict[str, Any]:
        """JSON-stable pass/fail summary for snapshots and dumps.

        ``verdict`` is three-valued: ``"failed"`` when an SLO is
        violated, ``"degraded"`` when all SLOs hold but recovery
        machinery fired (see :data:`DEGRADATION_METRICS`), ``"ok"``
        for a clean run.  Watchdog alerts (see
        :class:`~repro.obs.watchdog.Watchdog`) also demote an ``"ok"``
        run to ``"degraded"`` — an anomaly detector firing means the
        session was not clean, even if every SLO held.
        """
        results = self.evaluate(report)
        passed = all(r.ok for r in results)
        degradations = self.degradations(report)
        verdict = "failed" if not passed \
            else ("degraded" if degradations or watchdog_alerts else "ok")
        out = {
            "pass": passed,
            "verdict": verdict,
            "degradations": degradations,
            "results": [r.to_dict() for r in results],
        }
        if watchdog_alerts is not None:
            out["watchdog_alerts"] = len(watchdog_alerts)
        return out

    @staticmethod
    def degradations(report: Mapping[str, Any]) -> Dict[str, float]:
        """Non-zero recovery counters, keyed ``component.metric``."""
        out: Dict[str, float] = {}
        for component, metric in DEGRADATION_METRICS:
            total = _sum_values(_entries(report, component, metric),
                                "value")
            if total:
                out[f"{component}.{metric}"] = total
        return out

    def _evaluate_one(self, slo: Slo, report: Mapping[str, Any]) -> SloResult:
        observed = self._observe(slo, report)
        if observed is None:
            return SloResult(slo=slo, observed=None, ok=True, skipped=True)
        ok = observed <= slo.threshold if slo.op == "<=" \
            else observed >= slo.threshold
        return SloResult(slo=slo, observed=observed, ok=ok)

    def _observe(self, slo: Slo,
                 report: Mapping[str, Any]) -> Optional[float]:
        entries = _entries(report, slo.component, slo.metric)
        if not entries:
            return None
        if slo.per is not None:
            numerator = _sum_values(entries, slo.stat)
            denominator = _sum_values(
                _entries(report, slo.per[0], slo.per[1]), "value")
            if numerator is None or not denominator:
                return None
            return numerator / denominator
        if slo.stat in _SUM_STATS:
            return _sum_values(entries, slo.stat)
        # distribution statistic: judge by the worst instrument, and
        # ignore instruments that recorded nothing
        values = [
            e[slo.stat] for e in entries
            if e.get(slo.stat) is not None and e.get("count", 0) > 0
        ]
        if not values:
            return None
        return float(max(values) if slo.op == "<=" else min(values))


def judge_report(report: Mapping[str, Any], *,
                 watchdog_alerts: Optional[Sequence[Mapping[str, Any]]]
                 = None) -> Dict[str, Any]:
    """Judge the default SLO set over any metrics report.

    The merge path's entry point: shard SLO verdicts are never
    combined — a fleet is judged only over the merged registry.
    """
    return SloMonitor().summary(report, watchdog_alerts=watchdog_alerts)
