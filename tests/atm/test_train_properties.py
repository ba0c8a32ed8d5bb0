"""Property-based differential tests for cell-train forwarding.

Hypothesis drives random traffic shapes — payload sizes from one cell
to multi-train frames, bursty and sparse send gaps, one VC or several
contending for the same uplink — through the simulator and through the
independent per-cell model in :mod:`tests.atm.reference`, and asserts
the simulator reproduces the model *exactly*:

* every delivered PDU: same bytes, same order, same delivery time,
  same end-to-end delay, same hop count;
* per-VC attribution: pdus/bytes sent and delivered, delay samples;
* link counters at both hops (enqueued/transmitted/delivered, busy
  time, queue residency, no drops) and switch counters
  (received/switched/emitted);
* cell count implied by the AAL5 segmentation.

The interesting machinery under test is the horizon rule: whether a
burst is committed whole, split at the event horizon and continued, or
deferred entirely, must never change any observable number — only the
event count.  The closed-loop property fans one host out to several
destinations whose replies trigger the next request, so trains of
different VCs share the source's uplink and reply trains converge on
its downlink while host reactions keep adding traffic; the budget
test pins how few events such an uplink needs.
"""

import math

from hypothesis import given, settings, strategies as st

from repro.atm.qos import ServiceCategory, TrafficContract
from repro.atm.simulator import Simulator
from repro.atm.switch import SWITCHING_DELAY
from repro.atm.topology import star_campus

from tests.atm.reference import RefModel

#: sparse pacing like the deployment's control-plane contract: one
#: cell per 125 us at most, while a cell takes 2.7 us on the wire
_SPARSE = TrafficContract(ServiceCategory.NRT_VBR, pcr=8_000, scr=2_000,
                          mbs=400)

# payloads: empty frames are rejected by AAL5, so start at 1 byte; cap
# at ~4 trains worth so a single example stays fast
_payloads = st.lists(st.integers(min_value=1, max_value=2000),
                     min_size=1, max_size=8)

# inter-send gaps in seconds: 0 (back-to-back, trains overlap in the
# shaper) through a few cell times to "idle line" spacing
_gaps = st.lists(st.floats(min_value=0.0, max_value=0.01,
                           allow_nan=False, allow_infinity=False),
                 min_size=1, max_size=8)

_CONTRACT = TrafficContract(ServiceCategory.UBR, pcr=366e3)


def _schedule(sizes, gaps, n_vcs, at, send):
    """Book `len(sizes)` sends round-robin over *n_vcs* VCs; returns
    the last send time."""
    t = 0.0
    for i, size in enumerate(sizes):
        t += gaps[i % len(gaps)]
        payload = bytes((i + j) % 251 for j in range(size))
        at(t, send, i % n_vcs, payload)
    return t


def _drive(sizes, gaps, n_vcs=1):
    """The simulator: hosts a and b on a one-switch star."""
    sim = Simulator()
    net, _spec = star_campus(sim, ["a", "b"])
    delivered = []
    vcs = []
    for v in range(n_vcs):
        def on_pdu(payload, info, v=v):
            delivered.append((v, payload, info.delay, info.delivered_at,
                              info.hops))
        vcs.append(net.open_vc("a", "b", _CONTRACT, on_pdu))
    t = _schedule(sizes, gaps, n_vcs, sim.schedule_at,
                  lambda v, payload: vcs[v].send(payload))
    sim.run(until=t + 30.0)
    return net, vcs, delivered


def _reference(net, sizes, gaps, n_vcs=1):
    """The reference model with the simulator's link and fabric
    parameters."""
    up = net.links[("a", "sw0")]
    model = RefModel(rate_bps=up.rate_bps, prop_delay=up.prop_delay,
                     switching_delay=SWITCHING_DELAY)
    for _ in range(n_vcs):
        model.open_vc(_CONTRACT)
    t = _schedule(sizes, gaps, n_vcs, model.at, model.send)
    model.run(until=t + 30.0)
    return model


def _assert_matches_reference(sizes, gaps, n_vcs=1):
    net, vcs, got = _drive(sizes, gaps, n_vcs)
    model = _reference(net, sizes, gaps, n_vcs)

    # every PDU arrived, in the same order, with identical bytes,
    # timestamps, delays and hop counts
    assert got == model.delivered
    assert len(got) == len(sizes)

    # per-VC attribution
    for v, vc in enumerate(vcs):
        mine = [d for d in model.delivered if d[0] == v]
        sent = [size for i, size in enumerate(sizes) if i % n_vcs == v]
        assert vc.stats.pdus_sent == len(sent)
        assert vc.stats.bytes_sent == sum(sent)
        assert vc.stats.pdus_delivered == len(mine)
        assert vc.stats.bytes_delivered == sum(len(d[1]) for d in mine)
        assert list(vc.stats.delays) == [d[2] for d in mine]

    # per-hop link and switch counters
    expected_cells = sum((size + 8 + 47) // 48 for size in sizes)
    for key, ref in ((("a", "sw0"), model.uplink),
                     (("sw0", "b"), model.downlink)):
        stats = net.links[key].stats
        assert stats.enqueued == ref.enqueued == expected_cells, key
        assert stats.transmitted == ref.transmitted, key
        assert stats.delivered == ref.transmitted, key
        assert stats.dropped_overflow == stats.dropped_errors == 0, key
        assert math.isclose(stats.busy_time, ref.busy_time,
                            rel_tol=1e-12, abs_tol=1e-15), key
        assert math.isclose(net.links[key].residency_seconds,
                            ref.residency, rel_tol=1e-9,
                            abs_tol=1e-15), key
    sw = net.switches["sw0"].stats
    assert sw.received == model.switch_received
    assert sw.switched == sw.emitted == model.switch_emitted
    assert sw.policed_dropped == sw.policed_tagged == 0


class TestTrainEquivalenceProperties:
    @settings(max_examples=25, deadline=None)
    @given(sizes=_payloads, gaps=_gaps)
    def test_single_vc_any_burst_shape(self, sizes, gaps):
        """Random sizes × gaps: splits, merges and deferrals at the
        horizon never change an observable number."""
        _assert_matches_reference(sizes, gaps)

    @settings(max_examples=15, deadline=None)
    @given(sizes=_payloads, gaps=_gaps,
           n_vcs=st.integers(min_value=2, max_value=3))
    def test_contending_vcs_interleave_identically(self, sizes, gaps,
                                                   n_vcs):
        """Multiple shaped VCs share the uplink: the horizon rule must
        reproduce the per-cell interleaving on the wire, not serialize
        whole trains."""
        _assert_matches_reference(sizes, gaps, n_vcs=n_vcs)

    @settings(max_examples=10, deadline=None)
    @given(size=st.integers(min_value=1, max_value=30000))
    def test_single_frame_any_size(self, size):
        """One frame, from a single cell to hundreds of cells spanning
        several trains."""
        _assert_matches_reference([size], [0.0])


class _ClosedLoop:
    """Host ``a`` asks each destination ``d<k>`` for *rounds* replies,
    one at a time: VC ``2k`` carries requests to ``d<k>``, VC ``2k+1``
    its replies, and each delivery triggers the next send."""

    def __init__(self, n, rounds, req_sizes, rep_sizes, send):
        self.rounds = rounds
        self.sizes = (req_sizes, rep_sizes)
        self.send = send
        self.asked = [0] * n

    def payload(self, k, reply):
        sizes = self.sizes[reply]
        r = self.asked[k]
        size = sizes[(k + r) % len(sizes)]
        return bytes((7 * k + 13 * r + 3 * reply + j) % 251
                     for j in range(size))

    def start(self, k):
        self.send(2 * k, self.payload(k, 0))

    def react(self, vc, payload):
        k, reply = divmod(vc, 2)
        if not reply:
            self.send(vc + 1, self.payload(k, 1))
            return
        self.asked[k] += 1
        if self.asked[k] < self.rounds:
            self.send(vc - 1, self.payload(k, 0))


def _loop_hosts(n):
    return ["a"] + [f"d{k}" for k in range(n)]


def _drive_loop(n, rounds, req_sizes, rep_sizes, offsets):
    sim = Simulator()
    net, _spec = star_campus(sim, _loop_hosts(n))
    delivered = []
    vcs = []
    loop = _ClosedLoop(n, rounds, req_sizes, rep_sizes,
                       lambda vc, payload: vcs[vc].send(payload))

    def handler(vc):
        def on_pdu(payload, info):
            delivered.append((vc, payload, info.delay, info.delivered_at,
                              info.hops))
            loop.react(vc, payload)
        return on_pdu
    for k in range(n):
        vcs.append(net.open_vc("a", f"d{k}", _SPARSE, handler(2 * k)))
        vcs.append(net.open_vc(f"d{k}", "a", _SPARSE, handler(2 * k + 1)))
    for k in range(n):
        sim.schedule_at(offsets[k % len(offsets)], loop.start, k)
    sim.run(until=max(offsets) + 30.0)
    return net, delivered


def _reference_loop(net, n, rounds, req_sizes, rep_sizes, offsets):
    up = net.links[("a", "sw0")]
    model = RefModel(rate_bps=up.rate_bps, prop_delay=up.prop_delay,
                     switching_delay=SWITCHING_DELAY,
                     hosts=_loop_hosts(n))
    loop = _ClosedLoop(n, rounds, req_sizes, rep_sizes, model.send)
    model.react = loop.react
    for k in range(n):
        model.open_vc(_SPARSE, "a", f"d{k}")
        model.open_vc(_SPARSE, f"d{k}", "a")
    for k in range(n):
        model.at(offsets[k % len(offsets)], loop.start, k)
    model.run(until=max(offsets) + 30.0)
    return model


class TestClosedLoopFanOut:
    @settings(max_examples=20, deadline=None)
    @given(n=st.integers(min_value=3, max_value=4),
           rounds=st.integers(min_value=1, max_value=3),
           req_sizes=st.lists(st.integers(min_value=1, max_value=1200),
                              min_size=1, max_size=4),
           rep_sizes=st.lists(st.integers(min_value=1, max_value=1200),
                              min_size=1, max_size=4),
           offsets=st.lists(st.floats(min_value=0.0, max_value=0.003,
                                      allow_nan=False,
                                      allow_infinity=False),
                            min_size=1, max_size=4))
    def test_replies_trigger_the_next_request(self, n, rounds, req_sizes,
                                              rep_sizes, offsets):
        """Concurrent trains on one uplink and converging replies on its
        downlink, each delivery feeding the loop: every delivery, delay
        and per-hop counter equals the per-cell model's."""
        net, got = _drive_loop(n, rounds, req_sizes, rep_sizes, offsets)
        model = _reference_loop(net, n, rounds, req_sizes, rep_sizes,
                                offsets)
        assert got == model.delivered
        assert len(got) == 2 * n * rounds
        for key, ref in model.links.items():
            stats = net.links[key].stats
            assert stats.enqueued == ref.enqueued, key
            assert stats.transmitted == stats.delivered \
                == ref.transmitted, key
            assert stats.drops_total == 0, key
            assert math.isclose(stats.busy_time, ref.busy_time,
                                rel_tol=1e-12, abs_tol=1e-15), key
        sw = net.switches["sw0"].stats
        assert sw.received == model.switch_received
        assert sw.switched == sw.emitted == model.switch_emitted


class TestSharedUplinkBudget:
    def test_concurrent_trains_commit_together(self):
        """Four sparsely paced VCs leave one host for four destinations
        at once.  Each VC leaves a 125 us gap between its cells, so an
        uplink that commits one VC's train only up to the next event
        anywhere cuts every frame into one-cell pieces (about five
        events per cell).  A per-link horizon lets the uplink commit
        the concurrent trains together."""
        sim = Simulator()
        hosts = ["db"] + [f"user{k}" for k in range(4)]
        net, _spec = star_campus(sim, hosts)
        got = []
        vcs = [net.open_vc("db", host, _SPARSE,
                           lambda payload, info: got.append(payload))
               for host in hosts[1:]]
        frames = 6
        for f in range(frames):
            for k, vc in enumerate(vcs):
                # 19-cell frames, staggered so the VCs interleave
                sim.schedule_at(0.01 * f + 1e-5 * k, vc.send,
                                bytes([f, k]) * 450)
        sim.run(until=1.0)
        assert len(got) == frames * len(vcs)
        cells = sum(link.stats.transmitted
                    for link in net.links.values())
        executed = sim.events_run - sim.event_extra
        assert cells == 2 * 19 * frames * len(vcs)
        assert executed / len(got) < 20, (executed, len(got))
