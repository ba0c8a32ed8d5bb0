"""Overhead self-metering: what does the obs stack itself cost?

Observability is only trustworthy at scale if it can answer for its
own overhead.  An :class:`OverheadMeter` is a tiny meta-registry that
the instrumented collectors charge wall time and bytes to — the tracer
per finished span, the telemetry sampler per tick, the ledger and
auditor per snapshot/check, the streaming sink per flush (with the
bytes it wrote).  The result is an attribution table::

    component   seconds   calls   bytes
    tracer       0.0021    1840       0
    sampler      0.0048     181       0
    sink         0.0013       9   91233

plus ``obs_overhead_pct`` — metered obs seconds as a fraction of the
wall clock elapsed since the meter started — which ``python -m
repro.obs report`` prints in its health block and
``scripts/bench_gate.py`` gates (the gate additionally measures the
end-to-end obs-on vs obs-off wall delta, which catches costs the meter
cannot see from inside, like cache pressure).

Metering is coarse-grained by design: only O(ticks + spans + flushes)
``perf_counter`` pairs, never per-cell work, so the meter's own cost
stays far below what it measures.  A disabled meter is ``None`` at
every call site — the hot paths pay one identity test.
"""

from __future__ import annotations

import time as _time
from typing import Any, Dict

__all__ = ["OverheadMeter"]


class _ComponentCost:
    __slots__ = ("seconds", "calls", "nbytes")

    def __init__(self) -> None:
        self.seconds = 0.0
        self.calls = 0
        self.nbytes = 0


class OverheadMeter:
    """Attributes wall time and bytes to obs-stack components."""

    def __init__(self) -> None:
        self._clock = _time.perf_counter
        self._started = self._clock()
        self._costs: Dict[str, _ComponentCost] = {}

    def add(self, component: str, seconds: float, *,
            nbytes: int = 0) -> None:
        """Charge *seconds* (and optionally bytes) to *component*."""
        cost = self._costs.get(component)
        if cost is None:
            cost = self._costs[component] = _ComponentCost()
        cost.seconds += seconds
        cost.calls += 1
        cost.nbytes += nbytes

    def charge(self, component: str, t0: float, *, nbytes: int = 0) -> None:
        """Charge the time elapsed since *t0* (a ``clock()`` reading)."""
        self.add(component, self._clock() - t0, nbytes=nbytes)

    def now(self) -> float:
        """A clock reading to later hand to :meth:`charge`."""
        return self._clock()

    @property
    def obs_seconds(self) -> float:
        """Total metered obs wall time across all components."""
        return sum(c.seconds for c in self._costs.values())

    @property
    def obs_bytes(self) -> int:
        """Total bytes written by obs sinks."""
        return sum(c.nbytes for c in self._costs.values())

    def wall_seconds(self) -> float:
        """Wall clock elapsed since the meter was created."""
        return self._clock() - self._started

    def overhead_pct(self) -> float:
        """Metered obs seconds as a percentage of elapsed wall time."""
        wall = self.wall_seconds()
        return (self.obs_seconds / wall * 100.0) if wall > 0 else 0.0

    def report(self) -> Dict[str, Any]:
        """JSON-stable attribution table plus the headline percentage."""
        return {
            "obs_seconds": self.obs_seconds,
            "obs_bytes": self.obs_bytes,
            "wall_seconds": self.wall_seconds(),
            "obs_overhead_pct": self.overhead_pct(),
            "components": {
                name: {"seconds": c.seconds, "calls": c.calls,
                       "bytes": c.nbytes}
                for name, c in sorted(self._costs.items())
            },
        }
