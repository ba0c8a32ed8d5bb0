"""Event-loop profiler: where does a slow run spend its wall clock?

The simulator's event loop funnels every callback through
:meth:`Simulator._execute`; :class:`LoopProfiler` shadows that method
with a timing wrapper that attributes wall-clock cost to the callback's
qualified name.  It is the first tool in the reproduction that says
*where* a slow benchmark spends its time, not just that it was slow.

Zero overhead when disabled, by construction: nothing is wrapped until
:meth:`install` assigns the wrapper as an *instance* attribute shadowing
the class method.  The disabled path is the untouched class
``_execute`` — no flag check, no closure, no allocation per event
(``tests/obs/test_profiler.py`` pins this).  :meth:`uninstall` deletes
the shadow and the class method shows through again.

Per callsite the profiler tracks call count, cumulative time (the whole
callback, children included) and self time (cumulative minus time spent
in nested profiled executions — relevant when a callback re-enters the
loop via ``step()``-style helpers).  The report also carries the
sim-time-vs-wall-time ratio: how many simulated seconds one wall second
buys, the headline number for "as fast as the hardware allows".
"""

from __future__ import annotations

import functools
import time as _time
from typing import Any, Callable, Dict, List, Optional

__all__ = ["CallsiteStats", "LoopProfiler", "callsite_name"]


def callsite_name(cb: Any) -> str:
    """Best-effort qualified name for an event callback.

    ``functools.partial`` objects carry no ``__qualname__`` and would
    be billed to an opaque ``functools.partial(...)`` repr; decorated
    callables would be billed to the decorator's wrapper.  Unwrap both
    (partials via ``.func``, decorators via ``__wrapped__``) so cost
    lands on the function that actually ran.  A bare lambda keeps its
    own qualname — ``Foo.bar.<locals>.<lambda>`` still says where it
    was defined.
    """
    for _ in range(8):  # defensive bound on pathological wrap chains
        if isinstance(cb, functools.partial):
            cb = cb.func
            continue
        wrapped = getattr(cb, "__wrapped__", None)
        if wrapped is None:
            break
        cb = wrapped
    return getattr(cb, "__qualname__", None) or repr(cb)


class CallsiteStats:
    """Accumulated cost of one callback qualname."""

    __slots__ = ("callsite", "calls", "cum_seconds", "self_seconds")

    def __init__(self, callsite: str) -> None:
        self.callsite = callsite
        self.calls = 0
        self.cum_seconds = 0.0
        self.self_seconds = 0.0

    def to_dict(self) -> Dict[str, Any]:
        return {
            "callsite": self.callsite,
            "calls": self.calls,
            "cum_seconds": self.cum_seconds,
            "self_seconds": self.self_seconds,
            "mean_us": (self.cum_seconds / self.calls * 1e6)
            if self.calls else 0.0,
        }


class LoopProfiler:
    """Attributes event-loop wall time to callback qualnames."""

    def __init__(self, *, clock: Callable[[], float] =
                 _time.perf_counter) -> None:
        self._clock = clock
        self._sim = None
        self._orig_execute = None
        self._stats: Dict[str, CallsiteStats] = {}
        #: (callsite, start, child_seconds) frames for nested execution
        self._stack: List[list] = []
        self.events = 0
        self.wall_seconds = 0.0
        self.sim_seconds = 0.0
        self._wall_start: Optional[float] = None
        self._sim_start: Optional[float] = None

    @property
    def installed(self) -> bool:
        return self._sim is not None

    # -- install / uninstall ----------------------------------------------

    def install(self, sim) -> "LoopProfiler":
        """Shadow ``sim._execute`` with the timing wrapper."""
        if self._sim is not None:
            raise RuntimeError("profiler is already installed")
        self._sim = sim
        self._orig_execute = sim._execute  # bound class method
        self._wall_start = self._clock()
        self._sim_start = sim.now
        sim._execute = self._profiled_execute
        return self

    def uninstall(self) -> None:
        """Remove the shadow; the class ``_execute`` shows through."""
        sim = self._sim
        if sim is None:
            return
        self._flush_elapsed()
        sim.__dict__.pop("_execute", None)
        self._sim = None
        self._orig_execute = None
        self._wall_start = None
        self._sim_start = None

    def __enter__(self) -> "LoopProfiler":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.uninstall()

    def _flush_elapsed(self) -> None:
        if self._wall_start is not None:
            self.wall_seconds += self._clock() - self._wall_start
            self._wall_start = self._clock()
        if self._sim_start is not None and self._sim is not None:
            self.sim_seconds += self._sim.now - self._sim_start
            self._sim_start = self._sim.now

    # -- the hot wrapper ---------------------------------------------------

    def _profiled_execute(self, ev) -> None:
        callsite = callsite_name(ev.callback)
        sim = self._sim
        # cell-train handlers credit per-cell-equivalent events via
        # Simulator.charge_cells; bill them to this callsite so call
        # counts stay comparable with per-cell baselines
        base_extra = sim.event_extra
        frame = [callsite, self._clock(), 0.0]
        self._stack.append(frame)
        try:
            self._orig_execute(ev)
        finally:
            elapsed = self._clock() - frame[1]
            self._stack.pop()
            if self._stack:
                self._stack[-1][2] += elapsed
            stats = self._stats.get(callsite)
            if stats is None:
                stats = self._stats[callsite] = CallsiteStats(callsite)
            extra = sim.event_extra - base_extra
            if extra:
                sim.event_extra = base_extra
            stats.calls += 1 + extra
            stats.cum_seconds += elapsed
            stats.self_seconds += elapsed - frame[2]
            self.events += 1 + extra

    # -- reporting ---------------------------------------------------------

    def hotspots(self, top: int = 10) -> List[CallsiteStats]:
        """The *top* callsites by cumulative wall time."""
        ranked = sorted(self._stats.values(),
                        key=lambda s: s.cum_seconds, reverse=True)
        return ranked[:top] if top is not None else ranked

    def snapshot(self, top: int = 10) -> Dict[str, Any]:
        """JSON-stable report (embedded in ``MitsSystem.snapshot()``)."""
        self._flush_elapsed()
        ratio = (self.sim_seconds / self.wall_seconds) \
            if self.wall_seconds > 0 else None
        return {
            "enabled": self.installed or self.events > 0,
            "events": self.events,
            "wall_seconds": self.wall_seconds,
            "sim_seconds": self.sim_seconds,
            "sim_to_wall": ratio,
            "hotspots": [s.to_dict() for s in self.hotspots(top)],
        }
