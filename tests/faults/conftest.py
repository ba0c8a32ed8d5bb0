"""Shared harness for the chaos suite.

``run_course`` drives the full Course-On-Demand flow (publish a
course, enroll a student, enter the classroom, stream the intro
video) under a given fault plan with recovery on, returning every
handle a test needs to assert both halves: that the fault really
happened, and that the system recovered (possibly degraded).
"""

import os
from dataclasses import dataclass
from typing import List, Optional

import pytest

from repro.core.scenarios import _enroll, _publish_course, _stream_video
from repro.core.system import MitsSystem
from repro.faults import FaultInjector, FaultPlan
from repro.obs.audit import ConservationAuditor
from repro.streaming import VideoPlayer

#: the default chaos seed; CI exports CHAOS_SEED so a failure log
#: always names the seed to reproduce with
CHAOS_SEED = int(os.environ.get("CHAOS_SEED", "42"))


@dataclass
class ChaosRun:
    mits: MitsSystem
    player: VideoPlayer
    injector: FaultInjector
    #: results/errors of the post-fault control-plane queries
    results: List
    errors: List

    @property
    def recorder(self):
        return self.mits.sim.recorder

    def metric_total(self, component: str, name: str) -> float:
        report = self.mits.sim.metrics.report()
        return sum(e["value"]
                   for e in report.get(component, {}).get(name, []))

    def audit(self):
        """Conservation violations at the current instant (empty = clean)."""
        return ConservationAuditor(self.mits).check()


def run_course(plan: FaultPlan, *,
               fault_seed: Optional[int] = None,
               query_times=(10.5, 12.0, 14.5),
               horizon: float = 40.0,
               stream: Optional[str] = None) -> ChaosRun:
    mits = MitsSystem(topology="star", tracing=True, resilient=True,
                      stream=stream)
    _publish_course(mits)
    nav = _enroll(mits, "user1", "Chaos Student")
    nav.enter_classroom("D101", "dash-101")
    player = _stream_video(mits, "user1")
    injector = FaultInjector(plan, seed=fault_seed).attach(mits)
    mits.injector = injector
    results: List = []
    errors: List = []
    user = mits.users["user1"]
    for at in query_times:
        mits.sim.schedule(
            max(0.0, at - mits.sim.now),
            lambda: user.client.list_courses(
                on_result=results.append, on_error=errors.append))
    mits.sim.run(until=mits.sim.now + horizon)
    run = ChaosRun(mits=mits, player=player, injector=injector,
                   results=results, errors=errors)
    # the headline invariant of the chaos suite: whatever the fault
    # plan did, every layer's counters still balance at the end
    violations = run.audit()
    assert violations == [], \
        f"conservation violations after {plan.name}: " \
        + "; ".join(str(v) for v in violations)
    return run


def single_fault(kind: str, target: str, at: float = 6.0,
                 **extra) -> FaultPlan:
    from repro.faults.plan import FaultSpec
    return FaultPlan(name=f"one-{kind}", seed=CHAOS_SEED,
                     faults=[FaultSpec(at=at, kind=kind, target=target,
                                       **extra)])


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_makereport(item, call):
    """Stamp failing chaos tests with the seed to reproduce locally."""
    outcome = yield
    report = outcome.get_result()
    if report.when == "call" and report.failed:
        report.sections.append(
            ("chaos", f"reproduce with fault seed {CHAOS_SEED} "
                      f"(CHAOS_SEED env overrides in CI)"))
