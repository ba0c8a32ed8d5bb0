"""Anomaly watchdogs evaluated on the telemetry tick.

A conservation audit proves the counters are *consistent*; the
watchdog notices when a consistent system is nonetheless *wedged* — a
queue that holds cells but never transmits, a stream that went silent
mid-playout, a drop rate that keeps climbing, a playout clock frozen
past the skip grace.  Detectors are declarative
(:class:`Detector` rows naming a severity and a predicate) and run
from the :class:`~repro.obs.timeseries.TelemetrySampler` tick, so
they cost nothing between samples and stay dormant with the sampler.

Each new alert is recorded as a severity-tagged FlightRecorder event
(``component="watchdog"``) and kept in :attr:`Watchdog.alerts`, which
the SLO verdict folds in: a run with watchdog alerts is at best
*degraded*, never *ok*.  Alert thresholds are deliberately set above
anything the recovery machinery resolves on its own (the default
clock-stall limit exceeds the player's skip grace), so a clean run —
and a chaos run that recovered — stays quiet.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Tuple

__all__ = ["Detector", "Watchdog", "DEFAULT_DETECTORS"]

#: ticks a non-empty queue may hold still before ``stuck_queue``
STUCK_WINDOW = 8
#: ticks a started stream may go without arrivals (``silent_stream``)
SILENT_WINDOW = 12
#: ticks of strictly rising drops before ``rising_drop_rate``
DROP_WINDOW = 4
#: seconds a playout stall may last (``clock_stall``); above the
#: player's skip grace, so a stall the player resolves stays quiet
STALL_LIMIT = 3.0

Firing = Tuple[str, Dict[str, Any]]  # (entity, alert attributes)


@dataclass(frozen=True)
class Detector:
    name: str
    severity: str
    description: str
    check: Callable[["Watchdog", float], List[Firing]]


def _stuck_queue(w: "Watchdog", now: float) -> List[Firing]:
    out: List[Firing] = []
    n = STUCK_WINDOW
    for label, (link, hist) in w._link_state.items():
        # cheap necessary conditions first: a queue that holds cells
        # and did not move since the last tick
        if len(hist) <= n or hist[-1][0] <= 0 \
                or hist[-1][0] != hist[-2][0]:
            continue
        window = list(hist)[-(n + 1):]
        queued = [s[0] for s in window]
        transmitted = [s[1] for s in window]
        if queued[0] > 0 and len(set(queued)) == 1 \
                and transmitted[-1] == transmitted[0]:
            out.append((label, {"queued": queued[-1],
                                "ticks": n}))
    return out


def _rising_drop_rate(w: "Watchdog", now: float) -> List[Firing]:
    out: List[Firing] = []
    n = DROP_WINDOW
    for label, (link, hist) in w._link_state.items():
        # cheap necessary condition first: drops rose since the last tick
        if len(hist) <= n or hist[-1][2] <= hist[-2][2]:
            continue
        drops = [s[2] for s in list(hist)[-(n + 1):]]
        if all(b > a for a, b in zip(drops, drops[1:])):
            out.append((label, {"drops": drops[-1] - drops[0],
                                "ticks": n}))
    return out


def _silent_stream(w: "Watchdog", now: float) -> List[Firing]:
    out: List[Firing] = []
    n = SILENT_WINDOW
    for name, (player, hist) in w._player_state.items():
        if player.finished or player._first_arrival is None:
            continue
        if len(hist) <= n:
            continue
        received = list(hist)[-(n + 1):]
        quiet = len(set(received)) == 1
        wedged = player._stall_started is not None or not player._buffer
        if quiet and wedged:
            out.append((name, {"frames_received": received[-1],
                               "ticks": n}))
    return out


def _clock_stall(w: "Watchdog", now: float) -> List[Firing]:
    out: List[Firing] = []
    for name, (player, _hist) in w._player_state.items():
        started = player._stall_started
        if started is not None and now - started > STALL_LIMIT:
            out.append((name, {"stalled_for": now - started,
                               "frame": player._next_frame}))
    return out


DEFAULT_DETECTORS: Tuple[Detector, ...] = (
    Detector("stuck_queue", "error",
             "link holds cells but transmits nothing", _stuck_queue),
    Detector("silent_stream", "warning",
             "started stream with no arrivals and nothing to play",
             _silent_stream),
    Detector("rising_drop_rate", "warning",
             "link drop count climbing every sample", _rising_drop_rate),
    Detector("clock_stall", "error",
             "playout stalled beyond the skip grace", _clock_stall),
)


class Watchdog:
    """Evaluates :data:`DEFAULT_DETECTORS` on each telemetry sample.

    An alert fires once per (detector, entity) episode: while the
    condition persists it stays active without re-alerting, and when
    it clears a later recurrence alerts again.
    """

    def __init__(self, sim, *, network: Optional[Any] = None) -> None:
        self.sim = sim
        self.network = network
        self.detectors = DEFAULT_DETECTORS
        self.alerts: List[Dict[str, Any]] = []
        self._active: set = set()
        self._last_tick: Optional[float] = None
        self._maxlen = max(STUCK_WINDOW, SILENT_WINDOW, DROP_WINDOW) + 1
        #: label -> (link, deque of (queued, transmitted, drops))
        self._link_state: Dict[str, Tuple[Any, deque]] = {}
        #: player name -> (player, deque of frames_received)
        self._player_state: Dict[str, Tuple[Any, deque]] = {}

    def attach(self, sampler) -> "Watchdog":
        sampler.add_listener(self.tick)
        return self

    # -- per-tick evaluation ---------------------------------------------

    def tick(self, now: float) -> None:
        if now == self._last_tick:
            # snapshot()/export flush re-samples at the same instant;
            # feeding the histories twice would shrink every window
            return
        self._last_tick = now
        self._observe()
        for det in self.detectors:
            firing = det.check(self, now)
            firing_keys = set()
            for entity, attrs in firing:
                key = (det.name, entity)
                firing_keys.add(key)
                if key in self._active:
                    continue
                self._active.add(key)
                alert = {"time": now, "detector": det.name,
                         "severity": det.severity, "entity": entity}
                alert.update(attrs)
                self.alerts.append(alert)
                self.sim.recorder.record("watchdog", det.name,
                                         severity=det.severity,
                                         entity=entity, **attrs)
            for key in [k for k in self._active
                        if k[0] == det.name and k not in firing_keys]:
                self._active.discard(key)

    def _observe(self) -> None:
        if self.network is not None:
            seen = set()
            for link in self.network.links.values():
                if id(link) in seen:
                    continue
                seen.add(id(link))
                state = self._link_state.get(link._label)
                if state is None:
                    state = (link, deque(maxlen=self._maxlen))
                    self._link_state[link._label] = state
                s = link.stats
                state[1].append((link.queue_length, s.transmitted,
                                 s.dropped_overflow + s.dropped_errors
                                 + s.dropped_down))
        for player in self.sim.entities.get("player", []):
            state = self._player_state.get(player.name)
            if state is None:
                state = (player, deque(maxlen=self._maxlen))
                self._player_state[player.name] = state
            state[1].append(player.stats.frames_received)

    # -- export ----------------------------------------------------------

    @property
    def active(self) -> List[str]:
        return sorted(f"{d}:{e}" for d, e in self._active)

    def snapshot(self) -> Dict[str, Any]:
        return {
            "enabled": True,
            "detectors": [{"name": d.name, "severity": d.severity,
                           "description": d.description}
                          for d in self.detectors],
            "alerts": list(self.alerts),
            "active": self.active,
        }
