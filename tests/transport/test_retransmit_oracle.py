"""The transport resends only what was lost.

Two oracles for the retransmit timer and the gap resend:

* a path that drops no cell retransmits nothing — every named scenario
  (faulty-classroom with its fault plan emptied) and the set-up and
  measured phases of every perfbench workload;
* one frame lost mid-window is resent as soon as a later frame
  reveals the gap, before the retransmit timer could fire, and the
  peer still receives every message exactly once, in order.
"""

import pytest

from perfbench.workloads import WORKLOADS, make_inputs
from repro.atm import ServiceCategory, Simulator, TrafficContract
from repro.atm.topology import star_campus
from repro.core.scenarios import SCENARIOS, build
from repro.faults import FaultPlan
from repro.transport.connection import RTO_MIN, connect_pair
from repro.transport.messages import Message, MessageType


def resent_and_dropped(mits):
    """(messages retransmitted, cells dropped anywhere) so far."""
    sim = mits.sim
    resent = sum(c.stats.retransmitted
                 for c in sim.entities.get("connection", []))
    net = mits.network
    dropped = sum(
        l.stats.dropped_overflow + l.stats.dropped_errors
        + l.stats.dropped_down + l.stats.dropped_no_sink
        for l in net.links.values()) + sum(
        s.stats.unroutable + s.stats.policed_dropped + s.stats.crash_dropped
        for s in net.switches.values())
    return resent, dropped


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_clean_scenario_retransmits_nothing(name):
    faults = FaultPlan(name="none") if name == "faulty-classroom" else None
    run = build(name, faults=faults)
    run.run_to_horizon()
    assert resent_and_dropped(run.mits) == (0, 0)


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_clean_workload_retransmits_nothing(workload, tmp_path):
    unit = WORKLOADS[workload](make_inputs(workload, 1), str(tmp_path))
    unit.setup()
    assert resent_and_dropped(unit.mits) == (0, 0), "set-up"
    unit.measure()
    assert resent_and_dropped(unit.mits) == (0, 0), "measured phase"


def test_frame_lost_mid_window_is_resent_before_the_timer():
    sim = Simulator()
    net, _ = star_campus(sim, ["a", "b"])
    # 4,000 cells/s: each 2,000-byte message (42 cells) takes ~10.5 ms
    # to leave the shaper, so six queued frames depart one by one
    contract = TrafficContract(ServiceCategory.UBR, pcr=4000)
    ca, cb = connect_pair(sim, net, "a", "b", contract)
    got = []
    cb.on_message = lambda m: got.append(m.body)
    bodies = [bytes([i]) * 2000 for i in range(6)]
    for body in bodies:
        ca.send(Message(type=MessageType.DATA, body=body))
    # the uplink goes down inside the second frame's departure window
    # (~10.5-21 ms) and back up before the third frame starts; the
    # lost frame's last cell has left the shaper by 22 ms (86 cells)
    lost_departure = 0.022
    uplink = net.links[("a", "sw0")]
    sim.schedule_at(0.013, uplink.set_down, True)
    sim.schedule_at(0.017, uplink.set_down, False)
    sim.run(until=2.0)

    assert uplink.stats.dropped_down > 0
    assert got == bodies
    assert cb.stats.delivered == len(bodies)
    resends = sim.recorder.by_kind("retransmit")
    assert resends
    # the third frame's arrival reveals the gap: the resend leaves
    # well before the lost frame's timer (departure + RTO_MIN) could
    # fire, and no timeout ever fires
    assert resends[0].time < lost_departure + RTO_MIN
    assert {e.attrs["retry"] for e in resends} == {0}
    assert [e.attrs["seq"] for e in resends] == [1, 2, 3, 4, 5]
