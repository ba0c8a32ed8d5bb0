"""Tests for the reliable connection (ARQ) over the simulated network."""

import pytest

from repro.atm import Simulator, TrafficContract, ServiceCategory
from repro.atm.topology import star_campus
from repro.transport.connection import (
    MAX_FRAGMENT_BODY, RTO_MAX, RTO_MIN, Connection, connect_pair,
)
from repro.transport.messages import FLAG_MORE_FRAGMENTS, Message, MessageType
from repro.util.errors import DecodingError, NetworkError


def setup_pair(loss_buffer=None, access_bps=155.52e6, oversubscribe=1.0):
    sim = Simulator()
    net, _ = star_campus(sim, ["a", "b"], access_bps=access_bps,
                         buffer_cells=loss_buffer or 1024)
    contract = TrafficContract(ServiceCategory.UBR,
                               pcr=oversubscribe * access_bps / 424)
    ca, cb = connect_pair(sim, net, "a", "b", contract)
    return sim, net, ca, cb


class TestMessageFraming:
    def test_roundtrip(self):
        msg = Message(type=MessageType.REQUEST, seq=7, ack=3, corr_id=12,
                      body=b"payload")
        back = Message.decode(msg.encode())
        assert back == msg

    def test_bad_magic(self):
        with pytest.raises(DecodingError):
            Message.decode(b"XX" + bytes(18))

    def test_truncated(self):
        with pytest.raises(DecodingError):
            Message.decode(b"MB\x00")

    def test_body_length_mismatch(self):
        raw = Message(type=MessageType.DATA, body=b"abc").encode()
        with pytest.raises(DecodingError):
            Message.decode(raw + b"extra")


class TestReliableDelivery:
    def test_in_order_delivery(self):
        sim, net, ca, cb = setup_pair()
        got = []
        cb.on_message = lambda m: got.append(m.body)
        for i in range(10):
            ca.send(Message(type=MessageType.DATA, body=f"m{i}".encode()))
        sim.run(until=2.0)
        assert got == [f"m{i}".encode() for i in range(10)]

    def test_bidirectional(self):
        sim, net, ca, cb = setup_pair()
        at_a, at_b = [], []
        ca.on_message = lambda m: at_a.append(m.body)
        cb.on_message = lambda m: at_b.append(m.body)
        ca.send(Message(type=MessageType.DATA, body=b"ping"))
        cb.send(Message(type=MessageType.DATA, body=b"pong"))
        sim.run(until=2.0)
        assert at_b == [b"ping"] and at_a == [b"pong"]

    def test_window_backlog_drains(self):
        sim, net, ca, cb = setup_pair()
        got = []
        cb.on_message = lambda m: got.append(m.seq)
        for i in range(100):  # far beyond the window of 32
            ca.send(Message(type=MessageType.DATA, body=b"x"))
        sim.run(until=5.0)
        assert len(got) == 100
        assert got == sorted(got)

    def test_survives_cell_loss(self):
        # a mildly oversubscribed access link with a small buffer forces
        # overflow drops; ARQ must recover every message
        sim, net, ca, cb = setup_pair(loss_buffer=16, oversubscribe=1.1)
        got = []
        cb.on_message = lambda m: got.append(m.body)
        payloads = [bytes([i]) * 300 for i in range(30)]
        for p in payloads:
            ca.send(Message(type=MessageType.DATA, body=p))
        sim.run(until=30.0)
        assert got == payloads
        down = net.links[("sw0", "b")]
        # the test is only meaningful if losses actually happened
        assert (net.links[("a", "sw0")].stats.dropped_overflow
                + down.stats.dropped_overflow
                + ca.stats.retransmitted) > 0

    def test_closed_connection_rejects_send(self):
        sim, net, ca, cb = setup_pair()
        ca.close()
        with pytest.raises(NetworkError):
            ca.send(Message(type=MessageType.DATA, body=b"x"))

    def test_stats_track_delivery(self):
        sim, net, ca, cb = setup_pair()
        cb.on_message = lambda m: None
        ca.send(Message(type=MessageType.DATA, body=b"x"))
        sim.run(until=1.0)
        assert ca.stats.sent == 1
        assert cb.stats.delivered == 1
        assert cb.stats.acks_sent >= 1


class TestFragmentation:
    def test_large_body_reassembled(self):
        sim, net, ca, cb = setup_pair()
        got = []
        cb.on_message = lambda m: got.append(m)
        big = bytes(range(256)) * 700  # ~180 KB, > MAX_FRAGMENT_BODY
        assert len(big) > MAX_FRAGMENT_BODY
        ca.send(Message(type=MessageType.RESPONSE, corr_id=5, body=big))
        sim.run(until=5.0)
        assert len(got) == 1
        assert got[0].body == big
        assert got[0].corr_id == 5
        assert got[0].type is MessageType.RESPONSE

    def test_exact_boundary_not_fragmented(self):
        sim, net, ca, cb = setup_pair()
        got = []
        cb.on_message = lambda m: got.append(m.body)
        body = bytes(MAX_FRAGMENT_BODY)
        ca.send(Message(type=MessageType.DATA, body=body))
        sim.run(until=5.0)
        assert got == [body]

    def test_small_messages_after_large(self):
        sim, net, ca, cb = setup_pair()
        got = []
        cb.on_message = lambda m: got.append(m.body)
        big = bytes(MAX_FRAGMENT_BODY * 2 + 17)
        ca.send(Message(type=MessageType.DATA, body=big))
        ca.send(Message(type=MessageType.DATA, body=b"small"))
        sim.run(until=5.0)
        assert got == [big, b"small"]


class TestCloseStateRegression:
    """close() left _reassembly populated: a reused callback path or a
    late-arriving fragment could splice stale bytes into a later
    message."""

    def test_close_clears_reassembly(self):
        sim, net, ca, cb = setup_pair()
        cb.on_message = lambda m: None
        # deliver only the first fragment of a large message, then close
        big = bytes(MAX_FRAGMENT_BODY * 2)
        ca.send(Message(type=MessageType.DATA, body=big))
        sim.run(max_events=400)  # partial delivery
        cb.close()
        assert cb._reassembly == []
        assert cb._retries == {}
        assert cb._in_flight == {}

    def test_stale_fragments_not_spliced_after_close(self):
        sim, net, ca, cb = setup_pair()
        got = []
        cb.on_message = lambda m: got.append(m.body)
        frag = Message(type=MessageType.DATA, body=b"stale-prefix",
                       flags=FLAG_MORE_FRAGMENTS)
        frag.seq = cb._recv_next
        cb.handle_pdu(frag.encode(), None)
        assert cb._reassembly  # half-reassembled
        cb.close()
        # reuse the receive path (as a pooled callback would)
        cb.closed = False
        tail = Message(type=MessageType.DATA, body=b"fresh")
        tail.seq = cb._recv_next
        cb.handle_pdu(tail.encode(), None)
        sim.run(until=1.0)
        assert got == [b"fresh"]  # no b"stale-prefix" spliced in


class TestMaxRetriesErrorPath:
    """Retry exhaustion must tear the connection down and report via
    on_error instead of raising out of the simulator loop."""

    def _dead_peer_pair(self):
        sim = Simulator()
        net, _ = star_campus(sim, ["a", "b"])
        # sever the path: every cell vanishes on the access link
        net.links[("a", "sw0")].set_error_rate(0.999999, seed=3)
        contract = TrafficContract(ServiceCategory.UBR, pcr=1e6)
        ca, cb = connect_pair(sim, net, "a", "b", contract)
        return sim, ca

    def test_on_error_invoked_with_teardown_complete(self):
        sim, ca = self._dead_peer_pair()
        errors = []
        ca.max_retries = 2
        ca.on_error = errors.append
        ca.send(Message(type=MessageType.DATA, body=b"into the void"))
        sim.run(until=60.0)  # never raises out of the loop
        assert len(errors) == 1
        assert isinstance(errors[0], NetworkError)
        assert ca.closed
        assert ca._in_flight == {}
        assert ca._timer is None
        assert ca.stats.failed == 1

    def test_without_callback_failure_is_recorded_not_raised(self):
        sim, ca = self._dead_peer_pair()
        ca.max_retries = 2
        ca.send(Message(type=MessageType.DATA, body=b"x"))
        sim.run(until=60.0)  # must not raise
        assert ca.closed
        assert isinstance(ca.last_error, NetworkError)


class TestTransportMetrics:
    def test_rtt_and_retransmit_metrics(self):
        sim, net, ca, cb = setup_pair()
        cb.on_message = lambda m: None
        for i in range(5):
            ca.send(Message(type=MessageType.DATA, body=b"m%d" % i))
        sim.run(until=2.0)
        assert ca._m_rtt.count >= 1
        assert ca._m_rtt.mean > 0
        assert ca._m_window.max >= 1
        rep = sim.metrics.report()
        assert "connection" in rep
        assert "retransmits" in rep["connection"]


    def test_rtt_histogram_samples_every_acked_message(self):
        """The histogram is what the application waits, so a message
        that needed a resend is sampled too (only the RTO estimator
        skips it, by Karn's rule)."""
        sim, net, ca, cb = setup_pair(loss_buffer=16, oversubscribe=1.1)
        cb.on_message = lambda m: None
        for i in range(30):
            ca.send(Message(type=MessageType.DATA, body=bytes([i]) * 300))
        sim.run(until=30.0)
        assert ca.stats.retransmitted > 0
        assert ca.stats.acked == 30
        assert ca._m_rtt.count == ca.stats.acked


class TestAdaptiveRto:
    """Jacobson RTO: the timeout learns the path instead of firing a
    fixed 50 ms timer into an 86 ms serialisation delay."""

    def test_first_sample_seeds_estimators(self):
        sim, net, ca, cb = setup_pair()
        ca._observe_rtt(0.1)
        assert ca._srtt == pytest.approx(0.1)
        assert ca._rttvar == pytest.approx(0.05)
        # SRTT + 4*RTTVAR = 0.3, above the 50 ms floor
        assert ca.rto == pytest.approx(0.3)

    def test_rto_clamped_to_floor_and_ceiling(self):
        sim, net, ca, cb = setup_pair()
        ca._observe_rtt(1e-6)
        assert ca.rto == RTO_MIN
        cb._observe_rtt(10.0)
        assert cb.rto == RTO_MAX

    def test_smoothing_converges_toward_samples(self):
        sim, net, ca, cb = setup_pair()
        for _ in range(50):
            ca._observe_rtt(0.2)
        assert ca._srtt == pytest.approx(0.2, rel=1e-3)
        # variance decays on a steady path; RTO approaches SRTT
        assert ca.rto < 0.25

    @staticmethod
    def _two_batches(ca, cb, sim):
        cb.on_message = lambda m: None
        for i in range(6):
            ca.send(Message(type=MessageType.DATA, body=bytes(16384)))
        sim.run(until=10.0)
        assert ca.stats.acked == 6
        early = ca.stats.retransmitted
        for i in range(6):
            ca.send(Message(type=MessageType.DATA, body=bytes(16384)))
        sim.run(until=20.0)
        assert ca.stats.acked == 12
        return early

    def test_slow_path_stops_retransmitting_after_learning(self):
        """On a slow access link the shaper paces each 16 KB message
        over ~90 ms, but the timer runs from the last cell's departure,
        so the sender's own queue never fires it: no batch retransmits,
        and the RTO learns a path with nothing queued after departure."""
        sim, net, ca, cb = setup_pair(access_bps=1.5e6)
        early = self._two_batches(ca, cb, sim)
        assert early == 0
        assert ca.stats.retransmitted == 0

    def test_queued_path_stops_retransmitting_after_learning(self):
        """A VC shaped at 4x its access link: cells queue in the link
        AFTER they leave the shaper, so the departure-based timer fires
        on the first flights.  Once samples land, the RTO covers that
        queueing and the second batch resends nothing.  The buffer
        holds a whole batch, so every resend here is spurious."""
        sim, net, ca, cb = setup_pair(4096, access_bps=1.5e6,
                                      oversubscribe=4.0)
        early = self._two_batches(ca, cb, sim)
        assert early > 0
        assert ca.stats.retransmitted == early
        assert ca.rto > 0.05

    def test_overflowing_path_still_learns_the_rto(self):
        """The same 4x VC into the default 1,024-cell buffer: the queue
        after departure overflows and frames are really lost, in both
        batches, yet every message arrives and the RTO still learns
        the post-departure delay."""
        sim, net, ca, cb = setup_pair(access_bps=1.5e6, oversubscribe=4.0)
        self._two_batches(ca, cb, sim)
        assert sum(l.stats.dropped_overflow for l in net.links.values())
        assert ca.rto > 0.05

    def test_backoff_doubles_timer_and_resets_on_progress(self):
        sim, net, ca, cb = setup_pair()
        ca._backoff = 3
        ca._in_flight[0] = Message(type=MessageType.DATA, seq=0,
                                   body=b"x")
        ca._sent_at[0] = sim.now
        ca._arm_timer()
        # 0.05 * 2**3 = 0.4, under the 2 s ceiling
        assert ca._timer.time == pytest.approx(sim.now + 0.4)
        ca._process_ack(1)
        assert ca._backoff == 0

    def test_ack_of_retransmitted_segment_keeps_backoff(self):
        """Karn companion rule: a retransmitted segment's ack yields
        no sample, so it must not relax the backed-off timer either —
        that combination is what starves the estimator."""
        sim, net, ca, cb = setup_pair()
        ca._backoff = 2
        ca._in_flight[0] = Message(type=MessageType.DATA, seq=0,
                                   body=b"x")
        ca._sent_at[0] = sim.now
        ca._resent.add(0)  # the segment was retransmitted
        ca._process_ack(1)
        assert ca._backoff == 2
        assert ca._srtt is None

    def test_backoff_exponent_is_capped(self):
        """A fully-retransmitted window yields no Karn samples, so the
        backoff could ratchet forever; the exponent cap bounds the
        timer at 8x the adaptive RTO."""
        sim, net, ca, cb = setup_pair()
        ca._backoff = 30
        ca._in_flight[0] = Message(type=MessageType.DATA, seq=0,
                                   body=b"x")
        ca._arm_timer()
        assert ca._timer.time == pytest.approx(
            sim.now + ca.rto * 2 ** Connection.BACKOFF_CAP)

    def test_backed_off_timer_never_exceeds_rto_max(self):
        sim, net, ca, cb = setup_pair()
        ca._observe_rtt(10.0)  # clamps rto to RTO_MAX
        ca._backoff = 2
        ca._in_flight[0] = Message(type=MessageType.DATA, seq=0,
                                   body=b"x")
        ca._arm_timer()
        assert ca._timer.time == pytest.approx(sim.now + RTO_MAX)

    def test_rto_gauge_exported(self):
        sim, net, ca, cb = setup_pair()
        rows = sim.metrics.report()["connection"]["rto_seconds"]
        assert {r["value"] for r in rows} == {0.05}
