"""The fault injector: a plan, armed against a live system.

:meth:`FaultInjector.attach` resolves the plan and schedules one
simulator event per fault.  Each injection gets a monotonically
increasing ``fault_id``, is recorded into the FlightRecorder (so a
post-mortem can line faults up with the retransmissions, stalls, and
retries they caused), and bumps the ``faults.injected`` counter the
SLO layer reads.  Transient faults schedule their own clearing.

Seeds for the per-fault RNGs (burst loss, jitter) are derived as
``plan.seed * 1000 + fault_id`` — stable across runs, distinct across
faults.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Union

from repro.faults.plan import FaultPlan, FaultSpec, resolve_plan
from repro.util.errors import ReproError

#: seconds past a fault's clearing time still counted as its window,
#: for aftershocks like delayed retransmissions
CORRELATE_SLACK = 0.5


class FaultError(ReproError):
    """A fault spec does not match the attached system."""


@dataclass
class InjectedFault:
    """Book-keeping for one executed injection."""

    fault_id: int
    spec: FaultSpec
    injected_at: float
    cleared_at: Optional[float] = None


class FaultInjector:
    """Drives one :class:`FaultPlan` against one ``MitsSystem``."""

    def __init__(self, plan: Union[str, FaultPlan], *,
                 seed: Optional[int] = None) -> None:
        resolved = resolve_plan(plan)
        if resolved is None:
            raise FaultError("fault injector needs a plan")
        if seed is not None:
            resolved = FaultPlan(name=resolved.name, seed=seed,
                                 faults=resolved.faults,
                                 random_faults=resolved.random_faults)
        self.plan = resolved
        self.injected: List[InjectedFault] = []
        self._ids = itertools.count(1)
        self._mits = None
        self._m_injected = None

    # -- arming ----------------------------------------------------------

    def attach(self, mits) -> "FaultInjector":
        """Schedule every fault in the plan on *mits*'s simulator."""
        if self._mits is not None:
            raise FaultError("injector already attached")
        self._mits = mits
        sim = mits.sim
        metrics = sim.metrics
        self._m_injected = metrics.counter("faults", "injected",
                                           plan=self.plan.name)
        for spec in self.plan.resolve():
            self._validate(spec)
            sim.schedule(max(0.0, spec.at - sim.now), self._inject, spec)
        sim.recorder.record("faults", "plan_armed", plan=self.plan.name,
                            seed=self.plan.seed,
                            faults=len(self.plan.resolve()))
        return self

    def _validate(self, spec: FaultSpec) -> None:
        net = self._mits.network
        if spec.kind in ("link_down", "burst_loss", "jitter"):
            if self._link_key(spec.target) not in net.links:
                raise FaultError(
                    f"fault targets unknown link {spec.target!r}")
        elif spec.kind == "switch_crash":
            if spec.target not in net.switches:
                raise FaultError(
                    f"fault targets unknown switch {spec.target!r}")
        elif spec.kind == "vc_teardown":
            src, dst = self._pair(spec.target)
            if src not in net.hosts or dst not in net.hosts:
                raise FaultError(
                    f"fault targets unknown host pair {spec.target!r}")
        elif spec.kind in ("server_stall", "server_slow"):
            self._processor(spec.target)

    @staticmethod
    def _pair(target: str) -> tuple:
        if "->" not in target:
            raise FaultError(
                f"target {target!r} must be of the form 'src->dst'")
        src, dst = target.split("->", 1)
        return src, dst

    def _link_key(self, target: str) -> tuple:
        return self._pair(target)

    def _processor(self, target: str):
        mits = self._mits
        if target == mits.database.host:
            return mits.database.processor
        raise FaultError(
            f"no shared processor at site {target!r} "
            f"(have: {mits.database.host!r})")

    # -- injection -------------------------------------------------------

    def _inject(self, spec: FaultSpec) -> None:
        sim = self._mits.sim
        fault_id = next(self._ids)
        record = InjectedFault(fault_id=fault_id, spec=spec,
                               injected_at=sim.now)
        self.injected.append(record)
        self._m_injected.inc()
        sim.recorder.record(
            "faults", "injected", severity="warning",
            fault_id=fault_id, fault=spec.kind, target=spec.target,
            duration=spec.duration)
        derived_seed = self.plan.seed * 1000 + fault_id
        clear = None
        net = self._mits.network
        if spec.kind == "link_down":
            link = net.links[self._link_key(spec.target)]
            link.set_down(True)
            clear = lambda: link.set_down(False)
        elif spec.kind == "burst_loss":
            link = net.links[self._link_key(spec.target)]
            previous = link.error_rate
            link.set_error_rate(spec.rate, seed=derived_seed)
            clear = lambda: link.set_error_rate(previous)
        elif spec.kind == "jitter":
            link = net.links[self._link_key(spec.target)]
            link.set_jitter(spec.jitter, seed=derived_seed)
            clear = lambda: link.set_jitter(0.0)
        elif spec.kind == "switch_crash":
            switch = net.switches[spec.target]
            switch.set_crashed(True)
            clear = lambda: switch.set_crashed(False)
        elif spec.kind == "vc_teardown":
            src, dst = self._pair(spec.target)
            for vc in net.vcs_between(src, dst):
                net.close_vc(vc)
        elif spec.kind == "server_stall":
            self._processor(spec.target).stall(spec.duration)
        elif spec.kind == "server_slow":
            proc = self._processor(spec.target)
            previous_factor = proc.slowdown
            proc.set_slowdown(spec.factor)
            clear = lambda: proc.set_slowdown(previous_factor)
        if clear is not None and spec.duration > 0:
            sim.schedule(spec.duration, self._clear, record, clear)

    def _clear(self, record: InjectedFault, clear) -> None:
        clear()
        record.cleared_at = self._mits.sim.now
        self._mits.sim.recorder.record(
            "faults", "cleared", fault_id=record.fault_id,
            fault=record.spec.kind, target=record.spec.target)

    # -- reporting -------------------------------------------------------

    def correlate(self) -> Dict[int, List[int]]:
        """Map each fault_id to the trace_ids active in its window.

        A trace is considered affected when the FlightRecorder holds an
        event carrying that trace_id between the injection time and
        the clearing time (plus :data:`CORRELATE_SLACK` for aftershocks
        like delayed retransmissions).
        """
        out: Dict[int, List[int]] = {}
        events = self._mits.sim.recorder.events
        for record in self.injected:
            start = record.injected_at
            end = (record.cleared_at
                   if record.cleared_at is not None
                   else record.injected_at + record.spec.duration
                   ) + CORRELATE_SLACK
            traces = sorted({
                e.trace_id for e in events
                if e.trace_id is not None and start <= e.time <= end})
            out[record.fault_id] = traces
        return out

    def snapshot(self) -> Dict[str, Any]:
        """JSON-stable summary for ``MitsSystem.snapshot()``."""
        return {
            "plan": self.plan.name,
            "seed": self.plan.seed,
            "injected": [
                {
                    "fault_id": r.fault_id,
                    "kind": r.spec.kind,
                    "target": r.spec.target,
                    "at": r.injected_at,
                    "cleared_at": r.cleared_at,
                }
                for r in self.injected
            ],
            "affected_traces": {
                str(fid): traces
                for fid, traces in self.correlate().items()
            },
        }
