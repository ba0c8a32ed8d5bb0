"""Anomaly watchdogs, judged from a run's archived telemetry.

A conservation audit proves the counters are *consistent*; the
watchdog notices when a consistent system is nonetheless *wedged* — a
queue that holds cells but never transmits, a stream that went silent
mid-playout, a drop rate that keeps climbing, a playout clock frozen
past the skip grace.  Detectors are declarative (:class:`Detector`
rows naming a severity, the series they read of one link or player,
and a predicate over those series' points), and :func:`judge` runs
them over :attr:`~repro.obs.sink.Archive.timeseries`: the watchdog
reads the facts the archive already holds, tick by tick, and keeps no
copy of them while the run goes.  A run without an archive has no
ticks, so it is never judged.

:func:`~repro.obs.sink.load_archive` judges an archive whose ``meta``
asks for it (``MitsSystem(watchdog=True)``, the default) and folds the
alerts into the loaded SLO verdict: a run with watchdog alerts is at
best *degraded*, never *ok*.  Alert thresholds are deliberately set
above anything the recovery machinery resolves on its own (the
clock-stall limit exceeds the player's skip grace), so a clean run —
and a chaos run that recovered — stays quiet.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

__all__ = ["DEFAULT_DETECTORS", "Detector", "judge"]

#: ticks a non-empty queue may hold still before ``stuck_queue``
STUCK_WINDOW = 8
#: ticks a started stream may go without arrivals (``silent_stream``)
SILENT_WINDOW = 12
#: ticks of strictly rising drops before ``rising_drop_rate``
DROP_WINDOW = 4
#: seconds a playout stall may last (``clock_stall``); above the
#: player's skip grace, so a stall the player resolves stays quiet
STALL_LIMIT = 3.0

#: one entity's readings at one tick, in :attr:`Detector.series` order
Point = Tuple[Any, ...]


@dataclass(frozen=True)
class Detector:
    """One anomaly: the ``series`` it reads of each ``component``
    entity (a link or a player, named by the label of the same name),
    and ``check(points, i)``, the alert's attributes when the condition
    holds at tick *i* of one entity's points, else None."""

    name: str
    severity: str
    description: str
    component: str
    series: Tuple[str, ...]
    check: Callable[[Sequence[Point], int], Optional[Dict[str, Any]]]


def _stuck_queue(points: Sequence[Point], i: int) -> Optional[Dict[str, Any]]:
    n = STUCK_WINDOW
    queued, transmitted = points[i]
    # cheap necessary conditions first: a queue that holds cells and
    # did not move since the last tick
    if i < n or queued <= 0 or points[i - 1][0] != queued:
        return None
    window = points[i - n:i + 1]
    if all(q == queued for q, _ in window) and window[0][1] == transmitted:
        return {"queued": queued, "ticks": n}
    return None


def _rising_drop_rate(points: Sequence[Point],
                      i: int) -> Optional[Dict[str, Any]]:
    n = DROP_WINDOW
    # cheap necessary condition first: drops rose since the last tick
    if i < n or points[i][0] <= points[i - 1][0]:
        return None
    drops = [p[0] for p in points[i - n:i + 1]]
    if all(b > a for a, b in zip(drops, drops[1:])):
        return {"drops": drops[-1] - drops[0], "ticks": n}
    return None


def _silent_stream(points: Sequence[Point],
                   i: int) -> Optional[Dict[str, Any]]:
    n = SILENT_WINDOW
    received, finished, stalled, buffered = points[i]
    # a stream has started once a frame arrived; a stall that begins at
    # the very tick reads 0 s and counts from the next one
    if finished or not received or i < n \
            or not (stalled > 0 or not buffered):
        return None
    if all(p[0] == received for p in points[i - n:i]):
        return {"frames_received": received, "ticks": n}
    return None


def _clock_stall(points: Sequence[Point], i: int) -> Optional[Dict[str, Any]]:
    stalled = points[i][0]
    if stalled > STALL_LIMIT:
        return {"stalled_for": stalled}
    return None


DEFAULT_DETECTORS: Tuple[Detector, ...] = (
    Detector("stuck_queue", "error",
             "link holds cells but transmits nothing", "link",
             ("queue_occupancy", "cells_transmitted"), _stuck_queue),
    Detector("silent_stream", "warning",
             "started stream with no arrivals and nothing to play",
             "player", ("frames_received", "finished", "stall_seconds",
                        "buffer_frames"), _silent_stream),
    Detector("rising_drop_rate", "warning",
             "link drop count climbing every sample", "link",
             ("drops_total",), _rising_drop_rate),
    Detector("clock_stall", "error",
             "playout stalled beyond the skip grace", "player",
             ("stall_seconds",), _clock_stall),
)


def judge(timeseries: Sequence[Any]) -> Dict[str, Any]:
    """Run :data:`DEFAULT_DETECTORS` over an archive's series.

    Every series of an entity has a point at every tick from the
    entity's first (the loader carries unchanged readings forward), so
    an entity's points are its series' values zipped.  An alert fires
    once per (detector, entity) episode: while the condition persists
    it stays active without re-alerting, and when it clears a later
    recurrence alerts again.  Alerts are ordered by time, then by
    detector, then by entity; ``active`` names the episodes still open
    at the last tick.
    """
    entities: Dict[Tuple[str, str], Dict[str, Any]] = {}
    for s in timeseries:
        entity = s.labels.get(s.component)
        if entity is not None and len(s.labels) == 1:
            entities.setdefault((s.component, entity), {})[s.name] = s
    found: List[Tuple[float, int, str, Dict[str, Any]]] = []
    active: List[str] = []
    for order, det in enumerate(DEFAULT_DETECTORS):
        for (component, entity), named in entities.items():
            if component != det.component \
                    or not all(name in named for name in det.series):
                continue
            columns = [named[name] for name in det.series]
            n = min(len(s) for s in columns)
            times = columns[0].times[len(columns[0]) - n:]
            points = list(zip(*(s.values[len(s) - n:] for s in columns)))
            firing = False
            for i, time in enumerate(times):
                attrs = det.check(points, i)
                if attrs is not None and not firing:
                    found.append((time, order, entity, {
                        "time": time, "detector": det.name,
                        "severity": det.severity, "entity": entity,
                        **attrs}))
                firing = attrs is not None
            if firing:
                active.append(f"{det.name}:{entity}")
    found.sort(key=lambda alert: alert[:3])
    return {
        "enabled": True,
        "detectors": [{"name": d.name, "severity": d.severity,
                       "description": d.description}
                      for d in DEFAULT_DETECTORS],
        "alerts": [alert for *_, alert in found],
        "active": sorted(active),
    }
