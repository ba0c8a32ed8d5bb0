"""Failure injection: ARQ and RPC behaviour under random cell loss."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.atm import ServiceCategory, Simulator, TrafficContract
from repro.atm.topology import star_campus
from repro.transport.connection import connect_pair
from repro.transport.messages import Message, MessageType
from repro.transport.rpc import RpcClient, RpcServer, SharedProcessor


def lossy_pair(error_rate, seed=1):
    """One lossy hop on the forward path.

    With ~15-cell frames, per-cell loss p gives per-attempt frame
    success (1-p)^15 — at p=0.05 that is ~46%, so a bounded retry
    budget recovers with overwhelming probability.  Loss on *both*
    hops at high p would push per-attempt success low enough that any
    finite retry bound becomes a coin flip; that regime is a link
    outage, not congestion, and is out of scope for the ARQ.
    """
    sim = Simulator()
    net, _ = star_campus(sim, ["a", "b"])
    net.links[("sw0", "b")].set_error_rate(error_rate, seed)
    contract = TrafficContract(ServiceCategory.UBR, pcr=366e3)
    ca, cb = connect_pair(sim, net, "a", "b", contract)
    return sim, net, ca, cb


class TestArqUnderLoss:
    @given(rate=st.floats(0.005, 0.06), seed=st.integers(0, 100))
    @settings(max_examples=15, deadline=None)
    def test_all_messages_delivered_in_order(self, rate, seed):
        sim, net, ca, cb = lossy_pair(rate, seed)
        got = []
        cb.on_message = lambda m: got.append(m.body)
        payloads = [bytes([i]) * 700 for i in range(15)]
        for p in payloads:
            ca.send(Message(type=MessageType.DATA, body=p))
        sim.run(until=60.0)
        assert got == payloads

    def test_loss_actually_happened(self):
        sim, net, ca, cb = lossy_pair(0.05)
        cb.on_message = lambda m: None
        for i in range(20):
            ca.send(Message(type=MessageType.DATA, body=bytes(600)))
        sim.run(until=60.0)
        dropped = net.links[("sw0", "b")].stats.dropped_errors
        assert dropped > 0
        assert ca.stats.retransmitted > 0
        assert cb.stats.delivered == 20

    def test_rpc_survives_lossy_path(self):
        sim, net, ca, cb = lossy_pair(0.03)
        client = RpcClient(sim, ca)
        server = RpcServer(sim, cb)
        server.register("double", lambda p: p * 2)
        results = []
        for i in range(10):
            client.call("double", i, on_result=results.append)
        sim.run(until=60.0)
        assert sorted(results) == [i * 2 for i in range(10)]

    def test_rpc_retry_leaves_a_held_request_to_go_back_n(self):
        """A timed-out call whose request the connection still holds is
        not sent again: go-back-N already resends it until it is acked.
        Ten 2000-byte calls at 5% cell loss: retrying completes at least
        as many calls as not retrying, with no extra transport resends
        (a second copy of every held request once made it 5 of 10
        completed with 2,424 resends, against 7 of 10 with 206)."""
        outcomes = {}
        for retry in (False, True):
            sim, net, ca, cb = lossy_pair(0.05, seed=3)
            server = RpcServer(sim, cb)
            server.register("echo", lambda p: p)
            client = RpcClient(sim, ca, retry=retry)
            done = []
            for _ in range(10):
                client.call("echo", "x" * 2000, on_result=done.append)
            sim.run(until=60.0)
            outcomes[retry] = (len(done), ca.stats.sent,
                               ca.stats.retransmitted)
        (done_plain, sent_plain, resent_plain) = outcomes[False]
        (done_retry, sent_retry, resent_retry) = outcomes[True]
        assert done_retry >= done_plain
        assert (sent_retry, resent_retry) == (sent_plain, resent_plain)

    def test_error_rate_validation(self):
        sim, net, ca, cb = lossy_pair(0.0)
        with pytest.raises(ValueError):
            net.links[("a", "sw0")].set_error_rate(1.0)


class TestSharedProcessor:
    def test_requests_serialise_on_one_cpu(self):
        sim = Simulator()
        net, _ = star_campus(sim, ["c1", "c2", "server"])
        contract = TrafficContract(ServiceCategory.UBR, pcr=366e3)
        cpu = SharedProcessor(sim, service_time=0.05)
        done_at = {}
        clients = []
        for name in ("c1", "c2"):
            cc, cs = connect_pair(sim, net, name, "server", contract)
            server = RpcServer(sim, cs, processor=cpu)
            server.register("work", lambda p: "ok")
            clients.append((name, RpcClient(sim, cc)))
        for name, client in clients:
            client.call("work", on_result=lambda r, n=name:
                        done_at.__setitem__(n, sim.now))
        sim.run(until=5.0)
        # both served, but the second waited for the first's CPU slot
        assert set(done_at) == {"c1", "c2"}
        gap = abs(done_at["c1"] - done_at["c2"])
        assert gap >= 0.045
        assert cpu.jobs_done == 2

    def test_processor_utilization_tracked(self):
        sim = Simulator()
        cpu = SharedProcessor(sim, service_time=0.1)
        for _ in range(3):
            cpu.submit(lambda: None)
        sim.run()
        assert cpu.jobs_done == 3
        assert cpu.busy_time == pytest.approx(0.3)
