"""Integration tests for VC setup, routing, admission, and delivery."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.atm import Simulator, TrafficContract, ServiceCategory
from repro.atm.network import AtmNetwork
from repro.atm.topology import star_campus, ocrinet_like
from repro.util.errors import NetworkError


def ubr(pcr=1e5):
    return TrafficContract(ServiceCategory.UBR, pcr=pcr)


class TestTopologyBuilders:
    def test_star_requires_two_hosts(self):
        with pytest.raises(ValueError):
            star_campus(Simulator(), ["solo"])

    def test_ocrinet_shape(self):
        sim = Simulator()
        net, spec = ocrinet_like(sim, extra_users=3)
        assert len(net.switches) == 5
        assert "user4" in net.hosts and "user6" in net.hosts
        assert spec.name == "ocrinet"

    def test_duplicate_node_rejected(self):
        sim = Simulator()
        net = AtmNetwork(sim)
        net.add_switch("a")
        with pytest.raises(ValueError):
            net.add_switch("a")
        net.add_host("h", "a")
        with pytest.raises(ValueError):
            net.add_host("h", "a")


class TestRouting:
    def test_shortest_path_star(self):
        sim = Simulator()
        net, _ = star_campus(sim, ["a", "b", "c"])
        assert net.shortest_path("a", "b") == ["a", "sw0", "b"]

    def test_no_route_through_host(self):
        sim = Simulator()
        net, _ = star_campus(sim, ["a", "b", "c"])
        path = net.shortest_path("a", "c")
        assert "b" not in path

    def test_unreachable_raises(self):
        sim = Simulator()
        net = AtmNetwork(sim)
        net.add_switch("s1")
        net.add_switch("s2")  # not trunked
        net.add_host("a", "s1")
        net.add_host("b", "s2")
        with pytest.raises(NetworkError):
            net.shortest_path("a", "b")

    def test_wan_prefers_chord(self):
        sim = Simulator()
        net, _ = ocrinet_like(sim)
        # facilitator (crc) to production (ottawa-u): chord is direct
        path = net.shortest_path("facilitator", "production")
        assert path == ["facilitator", "crc", "ottawa-u", "production"]


class TestVcLifecycle:
    def test_end_to_end_delivery(self):
        sim = Simulator()
        net, _ = star_campus(sim, ["a", "b"])
        got = []
        vc = net.open_vc("a", "b", ubr(), lambda p, i: got.append((p, i)))
        payload = b"MHEG object payload" * 40
        vc.send(payload)
        sim.run(until=1.0)
        assert [p for p, _ in got] == [payload]
        info = got[0][1]
        assert info.delay > 0
        assert info.hops == 1

    def test_multiple_pdus_ordered(self):
        sim = Simulator()
        net, _ = star_campus(sim, ["a", "b"])
        got = []
        vc = net.open_vc("a", "b", ubr(), lambda p, i: got.append(p))
        for i in range(5):
            vc.send(f"pdu-{i}".encode())
        sim.run(until=1.0)
        assert got == [f"pdu-{i}".encode() for i in range(5)]

    def test_vc_stats(self):
        sim = Simulator()
        net, _ = star_campus(sim, ["a", "b"])
        vc = net.open_vc("a", "b", ubr(), lambda p, i: None)
        vc.send(bytes(1000))
        sim.run(until=1.0)
        assert vc.stats.pdus_sent == 1
        assert vc.stats.pdus_delivered == 1
        assert vc.stats.bytes_delivered == 1000
        assert len(vc.stats.delays) == 1

    def test_closed_vc_rejects_send(self):
        sim = Simulator()
        net, _ = star_campus(sim, ["a", "b"])
        vc = net.open_vc("a", "b", ubr(), lambda p, i: None)
        net.close_vc(vc)
        with pytest.raises(NetworkError):
            vc.send(b"late")

    def test_close_releases_bandwidth(self):
        sim = Simulator()
        net, _ = star_campus(sim, ["a", "b"])
        contract = TrafficContract(ServiceCategory.CBR, pcr=200000)
        vc = net.open_vc("a", "b", contract, lambda p, i: None)
        up = net.links[("a", "sw0")]
        assert up.reserved_bps > 0
        net.close_vc(vc)
        assert up.reserved_bps == 0.0

    def test_admission_control_rejects_oversubscription(self):
        sim = Simulator()
        net, _ = star_campus(sim, ["a", "b"], access_bps=10e6)
        big = TrafficContract(ServiceCategory.CBR, pcr=20000)  # 8.5 Mb/s
        net.open_vc("a", "b", big, lambda p, i: None)
        with pytest.raises(NetworkError):
            net.open_vc("a", "b", big, lambda p, i: None)

    def test_ubr_never_rejected_by_admission(self):
        sim = Simulator()
        net, _ = star_campus(sim, ["a", "b"], access_bps=1e6)
        for _ in range(20):
            net.open_vc("a", "b", ubr(pcr=1e6), lambda p, i: None)

    def test_duplex_channel(self):
        sim = Simulator()
        net, _ = star_campus(sim, ["client", "server"])
        at_a, at_b = [], []
        ch = net.open_duplex("client", "server", ubr(),
                             lambda p, i: at_a.append(p),
                             lambda p, i: at_b.append(p))
        ch.endpoint("client").send(b"request")
        sim.run(until=0.5)
        assert at_b == [b"request"]
        ch.endpoint("server").send(b"response")
        sim.run(until=1.0)
        assert at_a == [b"response"]

    def test_duplex_unknown_endpoint(self):
        sim = Simulator()
        net, _ = star_campus(sim, ["client", "server", "other"])
        ch = net.open_duplex("client", "server", ubr(),
                             lambda p, i: None, lambda p, i: None)
        with pytest.raises(NetworkError):
            ch.endpoint("other")


class TestSendTimeLeakRegression:
    """Host._send_times leaked one entry per PDU whose last cell was
    dropped; entries must be evicted on VC close and the map bounded."""

    def test_close_vc_evicts_in_flight_send_times(self):
        sim = Simulator()
        net, _ = star_campus(sim, ["a", "b"])
        vc = net.open_vc("a", "b", ubr(), lambda p, i: None)
        for _ in range(5):
            vc.send(bytes(100))
        host = net.hosts["a"]
        assert len(host._send_times) == 5  # nothing delivered yet
        net.close_vc(vc)
        assert len(host._send_times) == 0

    def test_lossy_link_does_not_grow_map_unbounded(self, monkeypatch):
        import repro.atm.network as network_mod
        monkeypatch.setattr(network_mod, "SEND_TIME_CAP", 16)
        sim = Simulator()
        net, _ = star_campus(sim, ["a", "b"])
        # lose every cell: no PDU ever delivers, so no entry is popped
        net.links[("a", "sw0")].set_error_rate(0.999999, seed=7)
        vc = net.open_vc("a", "b", ubr(pcr=1e6), lambda p, i: None)
        host = net.hosts["a"]
        for _ in range(100):
            vc.send(bytes(40))
            sim.run(until=sim.now + 0.01)
        assert len(host._send_times) <= 16

    def test_delay_samples_are_bounded(self):
        from repro.atm.network import DELAY_SAMPLE_CAP
        sim = Simulator()
        net, _ = star_campus(sim, ["a", "b"])
        vc = net.open_vc("a", "b", ubr(pcr=1e7), lambda p, i: None)
        assert vc.stats.delays.maxlen == DELAY_SAMPLE_CAP


class TestCloseReopen:
    def test_close_then_reopen_fully_releases_resources(self):
        sim = Simulator()
        net, _ = star_campus(sim, ["a", "b"], access_bps=10e6)
        contract = TrafficContract(ServiceCategory.CBR, pcr=20000)  # 8.5 Mb/s
        vc = net.open_vc("a", "b", contract, lambda p, i: None)
        sw = net.switches["sw0"]
        assert len(sw._table) == 1
        net.close_vc(vc)
        # bandwidth and label-table entries are fully released ...
        assert all(link.reserved_bps == 0.0 for link in net.links.values())
        assert len(sw._table) == 0
        assert vc.last_vci not in net.hosts["b"]._rx
        # ... so an identical contract admits again, and delivers
        got = []
        vc2 = net.open_vc("a", "b", contract, lambda p, i: got.append(p))
        vc2.send(bytes(500))
        sim.run(until=1.0)
        assert got == [bytes(500)]

    def test_close_is_idempotent(self):
        sim = Simulator()
        net, _ = star_campus(sim, ["a", "b"])
        vc = net.open_vc("a", "b", ubr(), lambda p, i: None)
        net.close_vc(vc)
        net.close_vc(vc)  # second close is a no-op, not an error


class TestVcMetrics:
    def test_delay_histogram_populated(self):
        sim = Simulator()
        net, _ = star_campus(sim, ["a", "b"])
        vc = net.open_vc("a", "b", ubr(), lambda p, i: None)
        vc.send(bytes(1000))
        sim.run(until=1.0)
        assert vc.delay_hist.count == 1
        assert vc.delay_hist.mean > 0
        rep = sim.metrics.report()
        assert rep["vc"]["pdu_delay_seconds"][0]["count"] == 1

    def test_link_drop_counters(self):
        sim = Simulator()
        net, _ = star_campus(sim, ["a", "b"], buffer_cells=4)
        vc = net.open_vc("a", "b", ubr(pcr=1e9), lambda p, i: None)
        vc.send(bytes(40000))  # floods the 4-cell buffer instantly
        sim.run(until=1.0)
        drops = sim.metrics.find("link", "drops_total")
        assert sum(c.value for c in drops.values()) > 0


class TestWanDelivery:
    def test_delivery_across_ring(self):
        sim = Simulator()
        net, _ = ocrinet_like(sim)
        got = []
        vc = net.open_vc("database", "user1",
                         TrafficContract(ServiceCategory.NRT_VBR, pcr=40000,
                                         scr=20000, mbs=200),
                         lambda p, i: got.append(i))
        vc.send(bytes(30000))
        sim.run(until=5.0)
        assert len(got) == 1
        assert got[0].hops == 2  # ottawa-u, bnr

    def test_concurrent_vcs_all_deliver(self):
        sim = Simulator()
        net, _ = ocrinet_like(sim, extra_users=4)
        counts = {}
        users = ["user1", "user2", "user3", "user4", "user5"]
        for u in users:
            def handler(p, i, u=u):
                counts[u] = counts.get(u, 0) + 1
            vc = net.open_vc("database", u,
                             TrafficContract(ServiceCategory.NRT_VBR, pcr=30000,
                                             scr=10000, mbs=100),
                             handler)
            for _ in range(3):
                vc.send(bytes(5000))
        sim.run(until=10.0)
        assert all(counts[u] == 3 for u in users)

    @given(size=st.integers(1, 20000))
    @settings(max_examples=20, deadline=None)
    def test_arbitrary_payload_sizes_roundtrip(self, size):
        sim = Simulator()
        net, _ = star_campus(sim, ["a", "b"])
        got = []
        vc = net.open_vc("a", "b", ubr(pcr=1e6), lambda p, i: got.append(p))
        payload = bytes(i % 251 for i in range(size))
        vc.send(payload)
        sim.run(until=5.0)
        assert got == [payload]
