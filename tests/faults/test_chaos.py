"""Chaos suite: one scenario test per fault kind.

Each test injects one fault into the Course-On-Demand flow and
asserts (a) the fault demonstrably happened, (b) the flow still
completed — possibly degraded — and (c) the recovery machinery left
its fingerprints in metrics and the FlightRecorder.  A final pair of
tests proves that when recovery is exhausted the failure surfaces as
a structured error through ``on_error``, never as an exception out of
the simulator loop.
"""

import pytest

from repro.atm import ServiceCategory, Simulator, TrafficContract
from repro.atm.topology import star_campus
from repro.faults import FaultInjector, FaultPlan
from repro.faults.injector import FaultError
from repro.faults.plan import FaultSpec
from repro.transport.connection import MAX_RECONNECTS, connect_pair
from repro.transport.messages import Message, MessageType
from repro.transport.rpc import RETRIES, RpcError
from repro.util.errors import NetworkError

from tests.faults.conftest import run_course, single_fault


def _faults_recorded(run, kind):
    events = [e for e in run.recorder.by_kind("injected")
              if e.component == "faults" and e.attrs["fault"] == kind]
    assert events, f"no FlightRecorder entry for injected {kind}"
    assert all(e.attrs["fault_id"] >= 1 for e in events)
    return events


class TestLinkDown:
    def test_arq_rides_out_an_outage(self):
        run = run_course(single_fault("link_down", "user1->sw0",
                                      at=10.0, duration=0.2),
                         query_times=(10.05,))
        _faults_recorded(run, "link_down")
        link = run.mits.network.links[("user1", "sw0")]
        assert link.stats.dropped_down > 0
        assert not link.down  # cleared on schedule
        # the query issued mid-outage still completed: go-back-N
        # retransmitted what the dead link ate
        assert len(run.results) == 1 and not run.errors
        assert run.metric_total("connection", "retransmits") > 0
        assert run.recorder.by_kind("cleared")


class TestBurstLoss:
    def test_playout_survives_cell_loss(self):
        run = run_course(single_fault("burst_loss", "sw0->user1",
                                      at=6.0, duration=1.5, rate=0.05))
        _faults_recorded(run, "burst_loss")
        link = run.mits.network.links[("sw0", "user1")]
        assert link.stats.dropped_errors > 0
        assert link.error_rate == 0.0  # restored after the burst
        player = run.player
        # the stream finished; lost frames were concealed or skipped,
        # not silently corrupted
        assert player.finished
        assert player.stats.frames_played > 0
        lost = player.stats.frames_concealed + player.stats.frames_skipped
        assert lost > 0
        assert run.metric_total("player", "frames_concealed") \
            == player.stats.frames_concealed


class TestJitter:
    def test_preroll_absorbs_added_jitter(self):
        run = run_course(single_fault("jitter", "sw0->user1",
                                      at=6.0, duration=2.0, jitter=0.002))
        _faults_recorded(run, "jitter")
        assert run.player.finished
        # all queries fine: jitter delays, it does not destroy
        assert len(run.results) == 3 and not run.errors


class TestSwitchCrash:
    def test_fabric_blackout_is_retransmitted_through(self):
        run = run_course(single_fault("switch_crash", "sw0",
                                      at=10.0, duration=0.1),
                         query_times=(10.02,))
        _faults_recorded(run, "switch_crash")
        switch = run.mits.network.switches["sw0"]
        assert switch.stats.crash_dropped > 0
        assert not switch.crashed
        assert len(run.results) == 1 and not run.errors
        assert run.metric_total("connection", "retransmits") > 0


class TestVcTeardown:
    def test_connection_reestablishes(self):
        run = run_course(single_fault("vc_teardown", "user1->database",
                                      at=10.0),
                         query_times=(10.5,))
        _faults_recorded(run, "vc_teardown")
        # the control VC died; the auto-reconnect policy re-signalled
        # a replacement and the query completed over it
        assert run.metric_total("connection", "reconnects") >= 1
        assert run.recorder.by_kind("vc_lost")
        assert run.recorder.by_kind("reconnected")
        assert len(run.results) == 1 and not run.errors


class TestServerStall:
    def test_rpc_retries_carry_the_call(self):
        run = run_course(single_fault("server_stall", "database",
                                      at=10.0, duration=3.0),
                         query_times=(10.2,))
        _faults_recorded(run, "server_stall")
        # the stall outlives the 2 s retrying timeout: the first
        # attempt dies, a backed-off retry completes
        assert run.metric_total("rpc", "retries") >= 1
        assert run.recorder.by_kind("retry")
        assert len(run.results) == 1 and not run.errors


class TestServerSlow:
    def test_slowdown_degrades_but_serves(self):
        run = run_course(single_fault("server_slow", "database",
                                      at=10.0, duration=5.0, factor=8.0),
                         query_times=(10.5, 12.0))
        _faults_recorded(run, "server_slow")
        proc = run.mits.database.processor
        assert proc.slowdown == 1.0  # restored
        assert len(run.results) == 2 and not run.errors


class TestVerdicts:
    def test_survived_run_is_judged_degraded_not_failed(self):
        run = run_course(single_fault("server_stall", "database",
                                      at=10.0, duration=3.0),
                         query_times=(10.2,))
        summary = run.mits.snapshot()["slo"]
        assert summary["verdict"] == "degraded"
        assert summary["pass"] is True
        assert summary["degradations"]

    def test_clean_run_is_judged_ok(self):
        run = run_course(FaultPlan(name="empty", seed=1))
        summary = run.mits.snapshot()["slo"]
        assert summary["verdict"] == "ok"
        assert summary["degradations"] == {}


class TestExhaustedRecovery:
    """When recovery runs out, errors are structured — never raised
    out of the event loop."""

    def test_rpc_retries_exhausted_surface_via_on_error(self):
        # a stall far longer than (1 + 4 retries) x 2 s + backoff
        # (at most 2.25 s), about 12 s in all
        run = run_course(single_fault("server_stall", "database",
                                      at=10.0, duration=30.0),
                         query_times=(10.2,), horizon=60.0)
        assert not run.results
        assert len(run.errors) == 1
        error = run.errors[0]
        assert isinstance(error, RpcError)
        assert "timed out" in str(error)
        assert run.metric_total("rpc", "retries") == RETRIES
        assert run.metric_total("rpc", "retries_exhausted") == 1
        assert run.recorder.by_kind("retries_exhausted")

    def test_reconnect_budget_exhausted_surfaces_via_on_error(self):
        sim = Simulator()
        net, _ = star_campus(sim, ["a", "b"])
        contract = TrafficContract(ServiceCategory.UBR, pcr=366e3)
        ca, cb = connect_pair(sim, net, "a", "b", contract,
                              auto_reconnect=True)
        errors = []
        delivered = []
        ca.on_error = errors.append
        cb.on_message = delivered.append
        ca.send(Message(type=MessageType.DATA, body=b"hello"))
        sim.run(until=1.0)
        assert not errors  # healthy circuit: nothing to recover from
        # every loss up to the budget is re-signalled and the message
        # sent into it still arrives; the loss after that gives up
        for loss in range(1, MAX_RECONNECTS + 2):
            for vc in net.vcs_between("a", "b"):
                net.close_vc(vc)
            ca.send(Message(type=MessageType.DATA, body=b"loss %d" % loss))
            sim.run(until=sim.now + 1.0)
            if loss <= MAX_RECONNECTS:
                assert not errors
                assert ca.stats.reconnects == loss
                assert delivered[-1].body == b"loss %d" % loss
        assert len(errors) == 1
        assert isinstance(errors[0], NetworkError)
        assert "gave up" in str(errors[0])
        assert ca.closed and ca.last_error is errors[0]


class TestInjectorValidation:
    def test_unknown_link_is_rejected_at_attach(self):
        from repro.core.system import MitsSystem
        mits = MitsSystem(topology="star")
        plan = FaultPlan(name="bad", faults=[
            FaultSpec(at=1.0, kind="link_down", target="nowhere->sw0")])
        with pytest.raises(FaultError):
            FaultInjector(plan).attach(mits)

    def test_unknown_kind_is_rejected_at_spec(self):
        with pytest.raises(ValueError):
            FaultSpec(at=1.0, kind="meteor_strike", target="sw0")


class TestConservation:
    """The headline cross-check: after the full chaos plan, every
    layer's counters balance (``run_course`` asserts this for every
    test in the suite; this one exercises the whole classroom-chaos
    plan and inspects the audit result directly)."""

    def test_full_chaos_plan_conserves_every_layer(self):
        from repro.faults import PLANS
        run = run_course(PLANS["classroom-chaos"](), horizon=40.0)
        violations = run.audit()
        assert violations == []
        # the plan really did something: drops happened and recovery
        # fired, yet the books still balance
        assert run.metric_total("link", "drops_total") > 0

    def test_each_fault_kind_conserves(self):
        plans = [
            single_fault("link_down", "database->sw0", duration=2.0),
            single_fault("burst_loss", "database->sw0", duration=3.0,
                         rate=0.2),
            single_fault("switch_crash", "sw0", duration=1.0),
            single_fault("vc_teardown", "database->user1"),
            single_fault("server_stall", "database", duration=2.0),
        ]
        for plan in plans:
            run = run_course(plan)  # run_course asserts a clean audit
            assert run.audit() == []
