"""Tests for the conservation auditor (repro.obs.audit)."""

from types import SimpleNamespace

import pytest

from repro.atm import ServiceCategory, Simulator, TrafficContract
from repro.atm.cell import Cell, CellHeader
from repro.atm.link import Link
from repro.atm.switch import Switch
from repro.atm.topology import star_campus
from repro.obs.audit import ConservationAuditor, Violation


def _network(links=(), switches=()):
    """A network holding only the given bare components."""
    return SimpleNamespace(links=dict(enumerate(links)),
                           switches={sw.name: sw for sw in switches},
                           hosts={}, vcs={})


def _system(sim, network=None):
    """The ``.sim``/``.network`` pair a MitsSystem hands the auditor."""
    return SimpleNamespace(sim=sim, network=network or _network())


def _drive_traffic(sim, net, n=3):
    """Open a VC and push a few PDUs end to end."""
    contract = TrafficContract(ServiceCategory.UBR, pcr=366e3)
    got = []
    vc = net.open_vc("a", "b", contract,
                     lambda payload, info: got.append(payload))
    for i in range(n):
        vc.send(bytes(48) + bytes([i]))
    sim.run(until=5.0)
    return vc, got


class TestAuditorConstruction:
    def test_requires_a_simulator(self):
        with pytest.raises(TypeError):
            ConservationAuditor()

    def test_accepts_a_system_duck(self):
        sim = Simulator()
        net, _ = star_campus(sim, ["a", "b"])

        class Duck:
            pass

        duck = Duck()
        duck.sim, duck.network = sim, net
        auditor = ConservationAuditor(duck)
        assert auditor.check() == []
        assert auditor.checks > 0


class TestCleanNetworkAudits:
    def test_fresh_network_is_clean(self):
        sim = Simulator()
        net, _ = star_campus(sim, ["a", "b", "c"])
        assert ConservationAuditor(_system(sim, net)).check() == []

    def test_network_with_traffic_is_clean(self):
        sim = Simulator()
        net, _ = star_campus(sim, ["a", "b"])
        _, got = _drive_traffic(sim, net)
        assert got, "traffic never arrived — fixture is broken"
        auditor = ConservationAuditor(_system(sim, net))
        assert auditor.check() == []

    def test_closed_vc_leaves_no_orphan_routes(self):
        sim = Simulator()
        net, _ = star_campus(sim, ["a", "b"])
        vc, _ = _drive_traffic(sim, net)
        net.close_vc(vc)
        assert ConservationAuditor(_system(sim, net)).check() == []

    def test_report_shape(self):
        sim = Simulator()
        net, _ = star_campus(sim, ["a", "b"])
        report = ConservationAuditor(_system(sim, net)).report()
        assert report["ok"] is True
        assert report["checks"] > 0
        assert report["violations"] == []


class TestCorruptedCountersAreFlagged:
    """The negative half of the acceptance criterion: a deliberately
    broken counter is caught, named, and quantified."""

    def test_link_counter_corruption(self):
        sim = Simulator()
        net, _ = star_campus(sim, ["a", "b"])
        _drive_traffic(sim, net)
        link = net.links[("a", "sw0")]
        link.stats.transmitted += 5  # cells out of thin air
        violations = ConservationAuditor(_system(sim, net)).check()
        assert violations
        broken = [v for v in violations if v.entity == link._label]
        assert broken, f"wrong entity blamed: {violations}"
        v = broken[0]
        assert v.component == "link"
        assert v.invariant == "buffer_conservation"
        assert v.actual == v.expected + 5

    def test_switch_counter_corruption(self):
        sim = Simulator()
        net, _ = star_campus(sim, ["a", "b"])
        _drive_traffic(sim, net)
        sw = net.switches["sw0"]
        sw.stats.received -= 2
        violations = ConservationAuditor(_system(sim, net)).check()
        names = {(v.component, v.invariant) for v in violations}
        assert ("switch", "receive_conservation") in names
        v = [x for x in violations
             if x.invariant == "receive_conservation"][0]
        assert v.entity == "sw0"
        assert v.expected == v.actual - 2

    def test_player_cursor_corruption(self):
        from repro.streaming.player import VideoPlayer
        sim = Simulator()
        player = VideoPlayer(sim, name="p1")
        player.stats.frames_played += 1  # played a frame never received
        violations = ConservationAuditor(_system(sim)).check()
        invariants = {v.invariant for v in violations}
        assert "cursor_conservation" in invariants
        assert "arrival_conservation" in invariants

    def test_missing_route_is_flagged(self):
        sim = Simulator()
        net, _ = star_campus(sim, ["a", "b"])
        vc, _ = _drive_traffic(sim, net)
        sw = net.switches["sw0"]
        key = next(iter(sw._table))
        del sw._table[key]
        violations = ConservationAuditor(_system(sim, net)).check()
        assert any(v.invariant == "missing_route" for v in violations)

    def test_violation_str_names_the_law(self):
        v = Violation("link", "a->sw0", "buffer_conservation", 10, 12,
                      detail="why")
        text = str(v)
        assert "a->sw0" in text and "buffer_conservation" in text
        assert "10" in text and "12" in text


class TestBareComponentAudit:
    """Unit-level audit of components outside a real network."""

    def test_bare_link(self):
        sim = Simulator()
        link = Link(sim, rate_bps=424e3, name="x->y")
        auditor = ConservationAuditor(_system(sim, _network(links=[link])))
        assert auditor.check() == []
        link.stats.enqueued += 1
        assert auditor.check() != []

    def test_bare_switch(self):
        sim = Simulator()
        sw = Switch(sim, "swX")
        auditor = ConservationAuditor(_system(sim, _network(switches=[sw])))
        assert auditor.check() == []
        sw.stats.unroutable += 1
        violations = auditor.check()
        assert violations[0].invariant == "receive_conservation"


class TestMirrorWiring:
    """Each metrics_mirror_* check compares a stats field with the value
    the registry exports, so a read-through counter wired to the wrong
    field is caught and named."""

    def test_miswired_read_through_is_flagged(self):
        sim = Simulator()
        link = Link(sim, rate_bps=424e3, name="x->y")
        link.sink_train = lambda train: None
        counter = sim.metrics.get("link", "cells_transmitted", link="x->y")
        counter.sources[:] = [(link.stats, "enqueued")]
        for i in range(3):
            link.enqueue(Cell(header=CellHeader(vpi=0, vci=32),
                              payload=bytes(48), seqno=i))
        violations = ConservationAuditor(_system(sim, _network(links=[link]))).check()
        assert [(v.entity, v.invariant, v.expected, v.actual)
                for v in violations] == \
            [("x->y", "metrics_mirror_transmitted", 0, 3)]


class TestScenarioAudit:
    """The positive half of the acceptance criterion, in-suite: the
    quickstart scenario audits clean at its horizon (classroom and
    faulty-classroom are covered by the chaos suite and CI)."""

    def test_quickstart_is_clean(self):
        from repro.core.scenarios import build
        run = build("quickstart", accounting=True)
        run.run_to_horizon()
        auditor = ConservationAuditor(run.mits)
        assert auditor.check() == []
        assert auditor.checks > 100
