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
  time, no drops) and switch counters (received/switched/emitted);
* cell count implied by the AAL5 segmentation.

The interesting machinery under test is the horizon rule: whether a
burst is committed whole, split at the event horizon and continued, or
deferred entirely, must never change any observable number — only the
event count.
"""

import math

from hypothesis import given, settings, strategies as st

from repro.atm.qos import ServiceCategory, TrafficContract
from repro.atm.simulator import Simulator
from repro.atm.topology import star_campus

from tests.atm.reference import RefModel

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
                     switching_delay=net.switches["sw0"].switching_delay)
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
