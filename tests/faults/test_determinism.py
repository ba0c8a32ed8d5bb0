"""Determinism under injection: same plan + seed => identical runs.

The whole point of a *seeded* adversary is that any chaotic failure
is replayable.  These tests hold the strongest form of that claim:
two independent builds of the faulty scenario produce byte-identical
``snapshot()`` JSON — every metric, every FlightRecorder event, every
fault correlation.
"""

import json

import pytest

from repro.core.scenarios import build
from repro.faults import FaultPlan, RandomFaults
from repro.faults.plan import resolve_plan
from repro.obs.equivalence import canonical_form

from tests.faults.conftest import run_course, single_fault


def _snapshot_json(run) -> str:
    return json.dumps(run.mits.snapshot(), sort_keys=True)


class TestDeterminism:
    def test_faulty_classroom_snapshot_is_byte_identical(self):
        first = build("faulty-classroom")
        first.run_to_horizon()
        second = build("faulty-classroom")
        second.run_to_horizon()
        assert json.dumps(first.mits.snapshot(), sort_keys=True) \
            == json.dumps(second.mits.snapshot(), sort_keys=True)

    def test_single_fault_run_is_byte_identical(self):
        plan = single_fault("burst_loss", "sw0->user1",
                            at=6.0, duration=1.5, rate=0.05)
        a = run_course(plan)
        b = run_course(plan)
        assert _snapshot_json(a) == _snapshot_json(b)

    def test_fault_seed_changes_the_run(self):
        # a different plan seed re-seeds the burst-loss RNG, so the
        # set of lost cells — and everything downstream — differs
        plan = single_fault("burst_loss", "sw0->user1",
                            at=6.0, duration=1.5, rate=0.05)
        a = run_course(plan, fault_seed=1)
        b = run_course(plan, fault_seed=2)
        pa = a.mits.network.links[("sw0", "user1")].stats.dropped_errors
        pb = b.mits.network.links[("sw0", "user1")].stats.dropped_errors
        # both runs lost cells; identical loss *patterns* would make
        # the seeds indistinguishable, which the snapshots rule out
        assert pa > 0 and pb > 0
        assert _snapshot_json(a) != _snapshot_json(b)


@pytest.mark.parametrize("scenario", ["quickstart", "classroom"])
def test_recovery_is_idle_on_clean_runs(scenario):
    """With no fault, ``resilient`` changes nothing: no call times out,
    no circuit is lost and no frame goes missing, so reconnects,
    retries and concealment never fire."""
    snaps = []
    for resilient in (False, True):
        run = build(scenario, resilient=resilient)
        run.run_to_horizon()
        snaps.append(canonical_form(run.mits.snapshot()))
    assert snaps[0] == snaps[1]


class TestPlanResolution:
    def test_random_faults_expand_deterministically(self):
        plan = FaultPlan(name="p", seed=9, random_faults=[
            RandomFaults(kinds=("link_down", "burst_loss"),
                         targets=("sw0->user1", "user1->sw0"),
                         window=(1.0, 10.0), count=5)])
        assert plan.resolve() == plan.resolve()
        assert len(plan.resolve()) == 5
        assert [f.at for f in plan.resolve()] \
            == sorted(f.at for f in plan.resolve())

    def test_named_plans_resolve(self):
        plan = resolve_plan("classroom-chaos")
        assert plan.name == "classroom-chaos"
        kinds = {f.kind for f in plan.resolve()}
        # the flagship plan exercises every fault kind
        assert kinds == {"link_down", "burst_loss", "jitter",
                         "switch_crash", "vc_teardown",
                         "server_stall", "server_slow"}
