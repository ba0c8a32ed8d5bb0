"""Reliable ordered message delivery over a lossy duplex VC.

AAL5 gives loss *detection* (a dropped cell fails the frame CRC) but
no recovery, so the connection implements a go-back-N sliding-window
ARQ:

* every DATA-bearing message carries a sequence number; the receiver
  delivers in order and discards out-of-order arrivals (go-back-N);
* every message (including bare ACKs) carries the cumulative ack —
  the next in-order sequence the receiver expects;
* unacked messages are retransmitted after a timeout, with the window
  bounding how much may be in flight.

The retransmit timer measures the path, not the sender's own queue
(Jacobson, SIGCOMM 1988; RFC 6298): the VC reports when a frame's
last cell leaves its shaper, and the timer for the oldest unacked
message runs from that departure.  A 20 KB upload shaped under the
control contract takes ~50 ms just to leave the host; a timer started
at the send call fired into that queue and resent the *entire*
go-back-N window as duplicate cells.  The timeout adapts: each
new-transmission ack contributes a departure-to-ack RTT sample to
smoothed estimators (``SRTT``/``RTTVAR``), the timeout is
``SRTT + 4*RTTVAR`` clamped to ``[RTO_MIN, RTO_MAX]``, and consecutive
timeouts back the timer off exponentially until an ack makes forward
progress.  Retransmitted segments never yield samples (Karn's rule),
so a resent message can't poison the estimate with an ambiguous ack.
The ``rtt_seconds`` histogram keeps what the application waits, send
call to ack, for every acked message, resent ones included.

A VC never reorders, so a bare ack that repeats the base while frames
are in flight means a frame was lost: the window is resent at once,
once per loss episode (RFC 6582's ``recover``) and without backoff,
rather than after the timer (see DESIGN.md "Case study: the
``Connection._on_timeout`` outlier").

Applications set a connection's ``on_message`` callback and call
:meth:`Connection.send`; everything below that — segmentation,
retransmission, ordering — is invisible, which is exactly the
"transparency for end users" the thesis's client-server section asks
the distribution platform to provide.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Callable, Deque, Dict, Optional, Set

from repro.atm.network import DeliveryInfo, DuplexEndpoint
from repro.atm.simulator import Event, Simulator
from repro.transport.messages import FLAG_MORE_FRAGMENTS, Message, MessageType
from repro.util.errors import DecodingError, NetworkError

#: largest message body carried in a single AAL5 frame; bigger bodies
#: are fragmented (AAL5 caps the CPCS payload at 65535 octets and the
#: message header takes 36)
MAX_FRAGMENT_BODY = 32768
#: floor of the adaptive retransmit timeout, and the RTO before the
#: first RTT sample (s)
RTO_MIN = 0.05
#: ceiling of the adaptive retransmit timeout, backoff included (s)
RTO_MAX = 2.0
#: go-back-N send window, in messages
WINDOW = 32
#: consecutive timeouts before the peer is declared unreachable
MAX_RETRIES = 30
#: with ``auto_reconnect``: replacement circuits a pair signals before
#: it gives up, and the wait before each
MAX_RECONNECTS = 8
RECONNECT_DELAY = 0.05


@dataclass
class ConnectionStats:
    sent: int = 0
    retransmitted: int = 0
    delivered: int = 0
    out_of_order_dropped: int = 0
    decode_errors: int = 0
    acks_sent: int = 0
    failed: int = 0
    send_failures: int = 0
    reconnects: int = 0
    #: sequence numbers cumulatively acked by the peer
    acked: int = 0
    #: backlog + in-flight messages discarded when close() ran
    flushed: int = 0


class Connection:
    """One reliable endpoint.  Create one at each end of a duplex VC."""

    def __init__(self, sim: Simulator, endpoint: DuplexEndpoint, *,
                 name: str = "") -> None:
        self.sim = sim
        self.endpoint = endpoint
        self.rto = RTO_MIN
        self.max_retries = MAX_RETRIES
        #: Jacobson estimators; None until the first RTT sample lands
        self._srtt: Optional[float] = None
        self._rttvar = 0.0
        #: consecutive timeouts without ack progress (exponent of the
        #: backoff applied on top of the adaptive RTO)
        self._backoff = 0
        #: set by the application (or the RPC layer) after construction
        self.on_message: Optional[Callable[[Message], None]] = None
        #: invoked (instead of raising out of the event loop) when the
        #: peer is declared unreachable after max_retries timeouts
        self.on_error: Optional[Callable[[Exception], None]] = None
        #: invoked (once per outage) when the underlying VC refuses a
        #: send — the hook a reconnect policy hangs off (see
        #: :func:`connect_pair`'s ``auto_reconnect``)
        self.on_transport_lost: Optional[Callable[["Connection"], None]] = None
        self.name = name
        self.stats = ConnectionStats()
        self.closed = False
        #: set while the underlying VC is torn down; cleared by rebind
        self.transport_lost = False
        #: set when the connection was torn down by a retry exhaustion
        self.last_error: Optional[Exception] = None

        self._next_seq = 0          # next sequence number to assign
        self._send_base = 0         # oldest unacked sequence
        self._recv_next = 0         # next expected sequence
        self._backlog: Deque[Message] = deque()   # waiting for window space
        self._in_flight: Dict[int, Message] = {}
        self._retries: Dict[int, int] = {}
        #: send-call time of each in-flight message
        self._sent_at: Dict[int, float] = {}
        #: in-flight messages resent at least once (Karn: no RTT sample)
        self._resent: Set[int] = set()
        #: when each in-flight message's latest copy left the shaper
        self._departed: Dict[int, float] = {}
        #: the cumulative ack that ends the last gap resend's episode;
        #: only a repeated ack beyond it starts another
        self._recover = -1
        self._timer: Optional[Event] = None
        self._reassembly: list = []
        metrics = sim.metrics
        label = name or f"conn@{id(self):x}"
        metrics.read_through("connection", "retransmits", self.stats,
                             "retransmitted", conn=label)
        metrics.read_through("connection", "failures", self.stats, "failed",
                             conn=label)
        self._m_rtt = metrics.histogram("connection", "rtt_seconds",
                                        conn=label)
        self._m_window = metrics.gauge("connection", "window_occupancy",
                                       conn=label)
        metrics.read_through("connection", "reconnects", self.stats,
                             "reconnects", conn=label)
        self._m_rto = metrics.gauge("connection", "rto_seconds",
                                    conn=label)
        self._m_rto.set(self.rto)
        self._label = label
        sim.register_entity("connection", self)
        # wire receive side: the caller must route incoming AAL5 PDUs
        # (for the VC underlying this endpoint) to handle_pdu.

    # -- sending ---------------------------------------------------------

    def send(self, msg: Message) -> int:
        """Queue *msg* for reliable in-order delivery to the peer, and
        return the sequence number of its last fragment.

        Bodies larger than one AAL5 frame are fragmented transparently;
        the receiving connection reassembles before delivering.
        """
        if self.closed:
            raise NetworkError(f"connection {self.name} is closed")
        if len(msg.body) > MAX_FRAGMENT_BODY:
            body = msg.body
            offsets = range(0, len(body), MAX_FRAGMENT_BODY)
            last = len(body) - (len(body) % MAX_FRAGMENT_BODY or MAX_FRAGMENT_BODY)
            for off in offsets:
                frag = Message(
                    type=msg.type, corr_id=msg.corr_id,
                    trace_id=msg.trace_id, span_id=msg.span_id,
                    body=body[off:off + MAX_FRAGMENT_BODY],
                    flags=msg.flags | (FLAG_MORE_FRAGMENTS if off < last else 0))
                self._enqueue(frag)
        else:
            self._enqueue(msg)
        return self._next_seq - 1

    def holds(self, seq: int) -> bool:
        """True while message *seq* waits for window space or is in
        flight: go-back-N sends it, and resends it, until it is acked."""
        return seq in self._in_flight or bool(
            self._backlog and self._backlog[0].seq <= seq)

    def _enqueue(self, msg: Message) -> None:
        msg.seq = self._next_seq
        self._next_seq += 1
        self._backlog.append(msg)
        self._pump()

    def _pump(self) -> None:
        while self._backlog and len(self._in_flight) < WINDOW:
            msg = self._backlog.popleft()
            self._transmit(msg)

    def _transmit(self, msg: Message) -> None:
        msg.ack = self._recv_next
        self._in_flight[msg.seq] = msg
        self._retries.setdefault(msg.seq, 0)
        self._sent_at[msg.seq] = self.sim.now
        self._m_window.set(len(self._in_flight))
        data = msg.encode()
        if msg.trace_id and self.sim.ledger.enabled:
            self.sim.ledger.trace_sent(msg.trace_id, len(data))
        self._departed[msg.seq] = self._raw_send(data)
        self.stats.sent += 1
        self._arm_timer()

    def _raw_send(self, data: bytes) -> float:
        """Push bytes at the VC, absorbing a torn-down circuit.

        Returns when the frame's last cell leaves the sender's shaper.
        A closed VC must not unwind the simulator loop (the retransmit
        timer sends from inside it); instead the loss is recorded once
        and ``on_transport_lost`` is scheduled so a reconnect policy
        can re-establish the circuit.  Un-sent messages stay in flight
        and ride the go-back-N timer onto the replacement VC; a refused
        frame never leaves, so its timer runs from the failed attempt.
        """
        try:
            return self.endpoint.send(data)
        except NetworkError:
            self.stats.send_failures += 1
            if not self.transport_lost:
                self.transport_lost = True
                self.sim.recorder.record(
                    "transport", "vc_lost", severity="warning",
                    conn=self.name)
                if self.on_transport_lost is not None:
                    self.sim.schedule(0.0, self.on_transport_lost, self)
            return self.sim.now

    def rebind(self, endpoint: DuplexEndpoint) -> None:
        """Attach this connection to a freshly-opened duplex endpoint.

        ARQ state (sequence numbers, in-flight messages, the receive
        cursor) is preserved: the peer's connection keeps its state
        too, so in-flight messages are simply retransmitted over the
        new circuit and delivery stays exactly-once in-order.
        """
        self.endpoint = endpoint
        self.transport_lost = False
        self.closed = False
        self.stats.reconnects += 1
        self.sim.recorder.record("transport", "reconnected",
                                 conn=self.name)
        if self._timer is not None:
            self._timer.cancel()
            self._timer = None
        # the replacement circuit may have a different path; keep the
        # smoothed estimate but drop the outage's accumulated backoff
        self._backoff = 0
        if self._in_flight:
            # resend immediately rather than waiting out the RTO
            self.sim.schedule(0.0, self._on_timeout)
        self._pump()

    def _observe_rtt(self, sample: float) -> None:
        """Fold one new-transmission RTT sample into the adaptive RTO.

        Standard Jacobson smoothing (RFC 6298 §2): first sample seeds
        ``SRTT = R``, ``RTTVAR = R/2``; later samples blend with gains
        1/8 and 1/4.  The timeout is ``SRTT + 4*RTTVAR`` clamped to
        ``[RTO_MIN, RTO_MAX]`` so a quiet path can never drop the
        timer below the floor nor a congested one push it past the
        ceiling.
        """
        if self._srtt is None:
            self._srtt = sample
            self._rttvar = sample / 2.0
        else:
            self._rttvar = 0.75 * self._rttvar + 0.25 * abs(
                self._srtt - sample)
            self._srtt = 0.875 * self._srtt + 0.125 * sample
        self.rto = min(max(self._srtt + 4.0 * self._rttvar,
                           RTO_MIN), RTO_MAX)
        self._m_rto.set(self.rto)

    #: cap on the backoff exponent: the timer never exceeds 8× the
    #: adaptive RTO.  Karn's rule means a fully-retransmitted window
    #: yields no samples, so an unbounded backoff would ratchet to
    #: RTO_MAX and crawl through recovery on a genuinely lossy path.
    BACKOFF_CAP = 3

    def _arm_timer(self) -> None:
        if self._timer is None and self._in_flight:
            exponent = min(self._backoff, self.BACKOFF_CAP)
            timeout = min(self.rto * (2 ** exponent), RTO_MAX)
            # the timer covers the path, not the sender's own shaper:
            # it runs from when the head frame's last cell departs
            now = self.sim.now
            start = max(now, self._departed.get(min(self._in_flight), now))
            self._timer = self.sim.schedule_at(start + timeout,
                                               self._on_timeout)

    def _on_timeout(self) -> None:
        self._timer = None
        if not self._in_flight or self.closed:
            return
        # go-back-N: resend everything still in flight, oldest first.
        # Only the head-of-line message is charged a retry — the rest
        # are retransmitted because of it, not through their own fault.
        base = min(self._in_flight)
        self._retries[base] = self._retries.get(base, 0) + 1
        if self._retries[base] > self.max_retries:
            # tear down fully, then report through the error callback:
            # raising here would unwind the simulator loop and leave
            # the connection half-torn-down (timer armed, state stale)
            error = NetworkError(
                f"connection {self.name}: message seq={base} exceeded "
                f"{self.max_retries} retries; peer unreachable")
            head = self._in_flight.get(base)
            self.sim.recorder.record(
                "transport", "connection_failed", severity="error",
                trace_id=(head.trace_id or None) if head else None,
                conn=self.name, seq=base, retries=self.max_retries)
            self.close()
            self.last_error = error
            self.stats.failed += 1
            if self.on_error is not None:
                self.on_error(error)
            return
        self._resend_window()
        # exponential backoff: each consecutive timeout doubles the
        # timer (capped at RTO_MAX) until an ack makes progress
        self._backoff += 1
        self._arm_timer()

    def _resend_window(self) -> None:
        """Go-back-N: resend everything still in flight, oldest first."""
        recorder = self.sim.recorder
        retry = self._retries.get(min(self._in_flight), 0)
        for seq in sorted(self._in_flight):
            msg = self._in_flight[seq]
            msg.ack = self._recv_next
            # Karn's rule: a retransmitted segment yields no RTT sample
            self._resent.add(seq)
            recorder.record("transport", "retransmit", severity="warning",
                            trace_id=msg.trace_id or None, conn=self.name,
                            seq=seq, retry=retry)
            self._departed[seq] = self._raw_send(msg.encode())
            self.stats.retransmitted += 1

    def _resend_on_gap(self) -> None:
        """A bare ack repeated the base while frames are in flight.

        The peer acks every frame it receives and a VC never reorders,
        so the repeat answers a frame that arrived behind a lost one
        (the caller checks that the head's latest copy has left the
        shaper: an ack before that cannot be about it).  Resend the
        window at once instead of waiting out the timer, with no
        backoff.  One resend per loss episode (RFC 6582's
        ``recover``): acks up to the end of this window may echo
        frames that were already in flight behind the loss.
        """
        self._recover = max(self._in_flight) + 1
        if self._timer is not None:
            self._timer.cancel()
            self._timer = None
        self._resend_window()
        self._arm_timer()

    # -- receiving -------------------------------------------------------

    def handle_pdu(self, payload: bytes, info: DeliveryInfo) -> None:
        """Entry point for AAL5 PDUs arriving on the underlying VC."""
        try:
            msg = Message.decode(payload)
        except DecodingError:
            self.stats.decode_errors += 1
            return
        repeated = msg.ack == self._send_base
        self._process_ack(msg.ack)
        if msg.type is MessageType.ACK:
            if (repeated and self._in_flight and msg.ack > self._recover
                    and self.sim.now > self._departed[msg.ack]):
                self._resend_on_gap()
            return
        if msg.seq == self._recv_next:
            self._recv_next += 1
            self.stats.delivered += 1
            self._send_ack()
            self._deliver(msg)
        elif msg.seq < self._recv_next:
            # duplicate of something already delivered: re-ack
            self._send_ack()
        else:
            # gap: go-back-N receivers drop and re-assert the cumulative ack
            self.stats.out_of_order_dropped += 1
            self._send_ack()

    def _process_ack(self, ack: int) -> None:
        advanced = False
        now = self.sim.now
        for seq in [s for s in self._in_flight if s < ack]:
            del self._in_flight[seq]
            self.stats.acked += 1
            self._retries.pop(seq, None)
            sent_at = self._sent_at.pop(seq)
            departed = self._departed.pop(seq, sent_at)
            # the histogram is what the application waits (send call
            # -> ack); the estimator samples only the path (last-cell
            # departure -> ack), as its timer runs
            self._m_rtt.observe(now - sent_at)
            if seq in self._resent:
                self._resent.discard(seq)
            else:
                self._observe_rtt(now - departed)
                # a measurable (never-retransmitted) segment made it:
                # the backed-off timer may relax to the adaptive RTO.
                # Acks of retransmitted segments do NOT clear the
                # backoff (RFC 6298 §5.7) — with Karn discarding their
                # samples, that would re-arm a known-too-short timer
                # and starve the estimator forever.
                self._backoff = 0
            advanced = True
        self._m_window.set(len(self._in_flight))
        if ack > self._send_base:
            self._send_base = ack
        if advanced:
            if self._timer is not None:
                self._timer.cancel()
                self._timer = None
            self._arm_timer()
            self._pump()

    def _deliver(self, msg: Message) -> None:
        """Reassemble fragments; hand complete messages to the app."""
        if msg.more_fragments:
            self._reassembly.append(msg.body)
            return
        if self._reassembly:
            self._reassembly.append(msg.body)
            msg = Message(type=msg.type, seq=msg.seq, ack=msg.ack,
                          corr_id=msg.corr_id,
                          trace_id=msg.trace_id, span_id=msg.span_id,
                          body=b"".join(self._reassembly))
            self._reassembly = []
        if msg.trace_id and self.sim.ledger.enabled:
            self.sim.ledger.trace_delivered(msg.trace_id, len(msg.body))
        if self.on_message is not None:
            self.on_message(msg)

    def _send_ack(self) -> None:
        self._raw_send(
            Message(type=MessageType.ACK, ack=self._recv_next).encode())
        self.stats.acks_sent += 1

    # -- teardown --------------------------------------------------------

    def close(self) -> None:
        self.closed = True
        if self._timer is not None:
            self._timer.cancel()
            self._timer = None
        self.stats.flushed += len(self._backlog) + len(self._in_flight)
        self._backlog.clear()
        self._in_flight.clear()
        self._retries.clear()
        self._sent_at.clear()
        self._resent.clear()
        self._departed.clear()
        # a half-reassembled fragment chain must not splice stale bytes
        # into a message delivered after reuse of the receive path
        self._reassembly = []
        self._m_window.set(0)


def connect_pair(sim: Simulator, network, a: str, b: str, contract, *,
                 auto_reconnect: bool = False
                 ) -> tuple[Connection, Connection]:
    """Open a duplex VC between hosts *a* and *b* and wrap both ends in
    connections, fully wired.  Returns (conn_at_a, conn_at_b).

    With ``auto_reconnect`` the pair re-establishes itself after a VC
    teardown: the first failed send on either end schedules (after
    :data:`RECONNECT_DELAY`) a full teardown of the old channel and the
    signalling of a replacement, onto which both connections carry
    their ARQ state — in-flight messages are retransmitted, nothing is
    delivered twice or out of order.  After :data:`MAX_RECONNECTS`
    attempts the pair gives up and reports through ``on_error``.
    """
    holder: dict = {}

    def handler_a(payload: bytes, info: DeliveryInfo) -> None:
        holder["a"].handle_pdu(payload, info)

    def handler_b(payload: bytes, info: DeliveryInfo) -> None:
        holder["b"].handle_pdu(payload, info)

    channel = network.open_duplex(a, b, contract, handler_a, handler_b)
    holder["a"] = Connection(sim, channel.endpoint(a), name=f"{a}->{b}")
    holder["b"] = Connection(sim, channel.endpoint(b), name=f"{b}->{a}")
    if auto_reconnect:
        state = {"channel": channel, "attempts": 0, "pending": False}

        def on_lost(_conn: Connection) -> None:
            # one re-establishment per outage, even when both ends
            # notice the teardown in the same RTO window
            if state["pending"]:
                return
            state["pending"] = True
            sim.schedule(RECONNECT_DELAY, reopen)

        def reopen() -> None:
            state["pending"] = False
            ca, cb = holder["a"], holder["b"]
            if state["attempts"] >= MAX_RECONNECTS:
                error = NetworkError(
                    f"connection {a}<->{b}: gave up after "
                    f"{MAX_RECONNECTS} reconnect attempts")
                for conn in (ca, cb):
                    conn.close()
                    conn.last_error = error
                    conn.stats.failed += 1
                    if conn.on_error is not None:
                        conn.on_error(error)
                return
            state["attempts"] += 1
            # release the surviving half of the old channel before
            # re-signalling, or admission control double-counts it
            old = state["channel"]
            network.close_vc(old.forward)
            network.close_vc(old.backward)
            try:
                fresh = network.open_duplex(a, b, contract,
                                            handler_a, handler_b)
            except NetworkError:
                state["pending"] = True
                sim.schedule(RECONNECT_DELAY, reopen)
                return
            state["channel"] = fresh
            ca.rebind(fresh.endpoint(a))
            cb.rebind(fresh.endpoint(b))

        holder["a"].on_transport_lost = on_lost
        holder["b"].on_transport_lost = on_lost
    return holder["a"], holder["b"]
