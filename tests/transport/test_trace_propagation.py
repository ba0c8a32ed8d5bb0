"""Trace-context propagation across the transport, including loss.

The trace identity minted at the RPC client must survive the full
journey: header encode/decode, fragmentation and reassembly, and —
critically — a drop-and-retransmit cycle on a lossy link.  The
retransmission itself must surface in the flight recorder correlated
to the originating request's trace.
"""

from repro.atm import ServiceCategory, Simulator, TrafficContract
from repro.atm.topology import star_campus
from repro.transport.connection import connect_pair
from repro.transport.messages import Message, MessageType
from repro.transport.rpc import RpcClient, RpcServer


def lossy_pair(error_rate, seed=1):
    sim = Simulator()
    net, _ = star_campus(sim, ["a", "b"])
    if error_rate:
        net.links[("sw0", "b")].set_error_rate(error_rate, seed)
    contract = TrafficContract(ServiceCategory.UBR, pcr=366e3)
    ca, cb = connect_pair(sim, net, "a", "b", contract)
    return sim, net, ca, cb


class TestWireFormat:
    def test_trace_fields_roundtrip_through_the_header(self):
        msg = Message(type=MessageType.DATA, body=b"payload",
                      trace_id=0xDEADBEEF01, span_id=0x42)
        decoded = Message.decode(msg.encode())
        assert decoded.trace_id == 0xDEADBEEF01
        assert decoded.span_id == 0x42
        assert decoded.body == b"payload"

    def test_default_is_untraced(self):
        decoded = Message.decode(
            Message(type=MessageType.DATA, body=b"x").encode())
        assert decoded.trace_id == 0
        assert decoded.span_id == 0


class TestEndToEnd:
    def test_server_span_joins_the_client_trace(self):
        sim, net, ca, cb = lossy_pair(0.0)
        sim.tracer.enabled = True
        server = RpcServer(sim, cb)
        server.register("echo", lambda p: p)
        client = RpcClient(sim, ca)
        results = []
        with sim.tracer.span("test.request") as root:
            client.call("echo", "hi", on_result=results.append)
        sim.run(until=10.0)
        assert results == ["hi"]
        [client_span] = [s for s in sim.tracer.spans
                         if s.name == "rpc.client:echo"]
        [server_span] = [s for s in sim.tracer.spans
                         if s.name == "rpc.server:echo"]
        assert client_span.trace_id == root.trace_id
        assert client_span.parent_id == root.span_id
        assert server_span.trace_id == root.trace_id
        assert server_span.parent_id == client_span.span_id

    def test_fragmented_message_keeps_its_trace_id(self):
        sim, net, ca, cb = lossy_pair(0.0)
        got = []
        cb.on_message = got.append
        # well beyond one fragment, so reassembly must restore the ids
        ca.send(Message(type=MessageType.DATA, body=bytes(40_000),
                        trace_id=77, span_id=5))
        sim.run(until=10.0)
        [msg] = got
        assert len(msg.body) == 40_000
        assert msg.trace_id == 77
        assert msg.span_id == 5


class TestLossyPropagation:
    def test_retransmitted_pdu_keeps_trace_and_is_recorded(self):
        """A dropped-then-retransmitted PDU stays in its trace, and the
        retransmit flight event carries the originating trace_id."""
        sim, net, ca, cb = lossy_pair(0.05, seed=3)
        sim.tracer.enabled = True
        server = RpcServer(sim, cb)
        server.register("echo", lambda p: p)
        client = RpcClient(sim, ca)
        results = []
        with sim.tracer.span("test.request") as root:
            # 500-byte bodies (11 cells) at 5% cell loss: frames drop
            # and are resent, yet every call completes inside the RPC
            # TIMEOUT (by ~2.4 s)
            for i in range(10):
                client.call("echo", "x" * 500, on_result=results.append)
        sim.run(until=60.0)
        assert len(results) == 10

        # loss actually happened and the ARQ recovered
        assert net.links[("sw0", "b")].stats.dropped_errors > 0
        assert ca.stats.retransmitted > 0

        retransmits = sim.recorder.by_kind("retransmit")
        assert retransmits, "no retransmit events in the flight recorder"
        traced = [e for e in retransmits
                  if e.trace_id == root.trace_id]
        assert traced, "retransmit events lost their trace correlation"
        for ev in traced:
            assert ev.severity == "warning"
            assert "seq" in ev.attrs

        # despite the loss, every server span still joined the trace
        server_spans = [s for s in sim.tracer.spans
                        if s.name == "rpc.server:echo"]
        assert len(server_spans) == 10
        client_ids = {s.span_id for s in sim.tracer.spans
                      if s.name == "rpc.client:echo"}
        for s in server_spans:
            assert s.trace_id == root.trace_id
            assert s.parent_id in client_ids
