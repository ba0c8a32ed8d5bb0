"""Tests for links and switches.

Links hand their far end cell trains; ``times`` carry each cell's
arrival instant.  A cell from the per-cell queue arrives as a one-cell
``per_cell`` train in an event of its own, and switch tests inject
cells that way, as an upstream link delivers them.
"""

from types import SimpleNamespace

import pytest

from repro.atm.cell import Cell, CellHeader
from repro.atm.link import Link
from repro.atm.qos import ServiceCategory, TrafficContract, UsageParameterControl
from repro.atm.simulator import Simulator
from repro.atm.switch import SWITCHING_DELAY, Switch, VcTableEntry
from repro.atm.train import CellTrain
from repro.obs.audit import ConservationAuditor


def make_cell(vci=32, clp=0, seqno=0):
    return Cell(header=CellHeader(vpi=0, vci=vci, clp=clp),
                payload=bytes(48), seqno=seqno)


def collect(out):
    """A train sink appending ``(cell, arrival time)`` pairs to *out*."""
    return lambda train: out.extend(zip(train.cells, train.times))


def audit(sim, links=(), switches=()):
    """Violations of the link and switch laws on bare components (their
    hand-installed routes belong to no VC, so the route laws do not
    apply to them)."""
    network = SimpleNamespace(links=dict(enumerate(links)),
                              switches={sw.name: sw for sw in switches},
                              hosts={}, vcs={})
    found = ConservationAuditor(SimpleNamespace(sim=sim,
                                                network=network)).check()
    return [v for v in found if v.invariant != "orphan_route"]


def arrive(sim, sw, cell, at=0.0, port="west"):
    """Deliver *cell* to *sw* on *port* at time *at*, as a link would."""
    sim.schedule_at(at, sw.receive_train,
                    CellTrain([cell], ServiceCategory.UBR, [at],
                              per_cell=True), port)


class TestLink:
    def test_serialization_and_propagation_delay(self):
        sim = Simulator()
        arrivals = []
        link = Link(sim, rate_bps=424e3, prop_delay=0.5)  # 1 ms/cell
        link.sink_train = collect(arrivals)
        link.enqueue(make_cell())
        sim.run()
        assert [t for _c, t in arrivals] == [pytest.approx(0.001 + 0.5)]

    def test_cells_serialize_back_to_back(self):
        sim = Simulator()
        arrivals = []
        link = Link(sim, rate_bps=424e3, prop_delay=0.0)
        link.sink_train = collect(arrivals)
        for i in range(3):
            link.enqueue(make_cell(seqno=i))
        sim.run()
        assert [t for _c, t in arrivals] == \
            [pytest.approx(0.001 * (i + 1)) for i in range(3)]

    def test_buffer_overflow_drops(self):
        sim = Simulator()
        link = Link(sim, rate_bps=424e3, buffer_cells=4)
        link.sink_train = lambda t: None
        accepted = sum(link.enqueue(make_cell(seqno=i)) for i in range(10))
        # 1 in flight + 4 buffered
        assert accepted == 5
        assert link.stats.dropped_overflow == 5

    def test_priority_order(self):
        sim = Simulator()
        order = []
        link = Link(sim, rate_bps=424e3)
        link.sink_train = lambda t: order.extend(c.seqno for c in t.cells)
        # enqueue UBR first, then CBR while the first cell transmits
        link.enqueue(make_cell(seqno=0), ServiceCategory.UBR)   # in flight
        link.enqueue(make_cell(seqno=1), ServiceCategory.UBR)
        link.enqueue(make_cell(seqno=2), ServiceCategory.CBR)
        sim.run()
        assert order == [0, 2, 1]

    def test_overflow_sheds_lower_priority_for_cbr(self):
        sim = Simulator()
        link = Link(sim, rate_bps=424e3, buffer_cells=2)
        link.sink_train = lambda t: None
        link.enqueue(make_cell(seqno=0), ServiceCategory.UBR)  # in flight
        link.enqueue(make_cell(seqno=1), ServiceCategory.UBR)
        link.enqueue(make_cell(seqno=2), ServiceCategory.UBR)  # buffer full
        assert link.enqueue(make_cell(seqno=3), ServiceCategory.CBR) is True
        assert link.stats.dropped_overflow == 1

    def test_clp_tagged_shed_first(self):
        sim = Simulator()
        delivered = []
        link = Link(sim, rate_bps=424e3, buffer_cells=2)
        link.sink_train = \
            lambda t: delivered.extend(c.seqno for c in t.cells)
        link.enqueue(make_cell(seqno=0), ServiceCategory.UBR)          # in flight
        link.enqueue(make_cell(seqno=1, clp=0), ServiceCategory.UBR)
        link.enqueue(make_cell(seqno=2, clp=1), ServiceCategory.UBR)   # tagged
        link.enqueue(make_cell(seqno=3), ServiceCategory.CBR)          # displaces
        sim.run()
        assert 2 not in delivered
        assert 1 in delivered

    def test_validation(self):
        sim = Simulator()
        with pytest.raises(ValueError):
            Link(sim, rate_bps=0)
        with pytest.raises(ValueError):
            Link(sim, rate_bps=1e6, buffer_cells=0)

    def test_utilization(self):
        sim = Simulator()
        link = Link(sim, rate_bps=424e3, prop_delay=0.0)
        link.sink_train = lambda t: None
        link.enqueue(make_cell())
        sim.run(until=0.002)
        # the transmitter's busy time: one 424-bit cell at 424 kbit/s
        assert link.stats.busy_time == pytest.approx(0.001)

    def test_error_rate_enabled_after_clean_construction(self):
        # regression: a link constructed without loss had no
        # _error_rng, so enabling loss later silently dropped nothing
        sim = Simulator()
        delivered = []
        link = Link(sim, rate_bps=424e3, prop_delay=0.0)
        link.sink_train = \
            lambda t: delivered.extend(c.seqno for c in t.cells)
        link.set_error_rate(0.5, seed=7)
        assert link._error_rng is not None
        for i in range(200):
            sim.schedule(i * 0.01, link.enqueue, make_cell(seqno=i))
        sim.run()
        assert link.stats.dropped_errors > 0
        assert len(delivered) == 200 - link.stats.dropped_errors

    def test_error_rate_without_seed_arms_rng(self):
        # the fault injector restores a link's rate with no seed; that
        # path must arm (and then keep) the loss RNG too
        sim = Simulator()
        link = Link(sim, rate_bps=424e3)
        link.sink_train = lambda t: None
        link.set_error_rate(0.25)
        rng = link._error_rng
        assert rng is not None
        assert link.error_rate == 0.25
        link.set_error_rate(0.5)
        assert link._error_rng is rng
        with pytest.raises(AttributeError):
            link.error_rate = 0.1       # set_error_rate is the only way in

    def test_error_rate_reseeds_only_with_a_seed(self):
        def losses(link):
            return [link._error_rng.random() for _ in range(3)]

        sim = Simulator()
        a, b = Link(sim, rate_bps=424e3), Link(sim, rate_bps=424e3)
        a.set_error_rate(0.5, seed=9)
        b.set_error_rate(0.5, seed=9)
        assert losses(a) == losses(b)
        a.set_error_rate(0.0, seed=3)
        assert a._error_rng is None and a.error_rate == 0.0
        a.set_error_rate(0.1)
        b.set_error_rate(0.1, seed=3)
        assert losses(a) == losses(b)
        with pytest.raises(ValueError):
            a.set_error_rate(1.0, seed=4)
        assert a._error_seed == 3


class TestSwitch:
    def _wired(self, sim):
        sw = Switch(sim, "sw")
        out = Link(sim, rate_bps=424e3, prop_delay=0.0)
        delivered = []
        out.sink_train = lambda t: delivered.extend(t.cells)
        sw.attach_output("east", out)
        return sw, delivered

    def test_label_swap(self):
        sim = Simulator()
        sw, delivered = self._wired(sim)
        sw.install_route("west", 0, 32, VcTableEntry("east", 0, 77))
        arrive(sim, sw, make_cell(vci=32))
        sim.run()
        assert len(delivered) == 1
        assert delivered[0].header.vci == 77
        assert delivered[0].hops == 1

    def test_unroutable_dropped(self):
        sim = Simulator()
        sw, delivered = self._wired(sim)
        arrive(sim, sw, make_cell(vci=99))
        sim.run()
        assert delivered == []
        assert sw.stats.unroutable == 1

    def test_duplicate_route_rejected(self):
        sim = Simulator()
        sw, _ = self._wired(sim)
        sw.install_route("west", 0, 32, VcTableEntry("east", 0, 77))
        with pytest.raises(ValueError):
            sw.install_route("west", 0, 32, VcTableEntry("east", 0, 78))

    def test_route_to_unknown_port_rejected(self):
        sim = Simulator()
        sw, _ = self._wired(sim)
        with pytest.raises(ValueError):
            sw.install_route("west", 0, 32, VcTableEntry("nowhere", 0, 77))

    def test_upc_drop_at_ingress(self):
        sim = Simulator()
        sw, delivered = self._wired(sim)
        contract = TrafficContract(ServiceCategory.CBR, pcr=100, cdvt=0.0)
        sw.install_route("west", 0, 32,
                         VcTableEntry("east", 0, 77,
                                      upc=UsageParameterControl(contract)))
        arrive(sim, sw, make_cell(vci=32))
        arrive(sim, sw, make_cell(vci=32))  # same instant: PCR violation
        sim.run()
        assert len(delivered) == 1
        assert sw.stats.policed_dropped == 1

    def test_upc_tagging_sets_clp(self):
        sim = Simulator()
        sw, delivered = self._wired(sim)
        contract = TrafficContract(ServiceCategory.RT_VBR, pcr=1e6, scr=100,
                                   mbs=1, cdvt=0.0)
        sw.install_route("west", 0, 32,
                         VcTableEntry("east", 0, 77,
                                      upc=UsageParameterControl(contract)))
        arrive(sim, sw, make_cell(vci=32))
        arrive(sim, sw, make_cell(vci=32), at=0.0001)
        sim.run()
        assert len(delivered) == 2
        assert delivered[0].header.clp == 0
        assert delivered[1].header.clp == 1

    def test_upc_verdicts_inside_one_train(self):
        """A three-cell train whose tail breaks the SCR: the head
        passes, the tail is tagged, and every survivor keeps its own
        CLP mark and its own fabric-exit time on the way out."""
        sim = Simulator()
        sw = Switch(sim, "sw")
        out = Link(sim, rate_bps=424e3, prop_delay=0.0)  # 1 ms/cell
        arrivals = []
        out.sink_train = collect(arrivals)
        sw.attach_output("east", out)
        contract = TrafficContract(ServiceCategory.RT_VBR, pcr=1e6, scr=100,
                                   mbs=1, cdvt=0.0)
        sw.install_route("west", 0, 32,
                         VcTableEntry("east", 0, 77,
                                      upc=UsageParameterControl(contract)))
        cells = [make_cell(vci=32, seqno=i) for i in range(3)]
        sw.receive_train(CellTrain(cells, ServiceCategory.RT_VBR,
                                   [0.0, 0.0001, 0.0002]), "west")
        sim.run()
        assert [c.seqno for c, _t in arrivals] == [0, 1, 2]
        assert [c.header.clp for c, _t in arrivals] == [0, 1, 1]
        assert {c.header.vci for c, _t in arrivals} == {77}
        # the head exits the fabric at SWITCHING_DELAY, then the three
        # go back to back on the wire
        assert [t for _c, t in arrivals] == \
            [pytest.approx(SWITCHING_DELAY + 0.001),
             pytest.approx(SWITCHING_DELAY + 0.002),
             pytest.approx(SWITCHING_DELAY + 0.003)]
        assert sw.stats.policed_tagged == 2
        assert audit(sim, switches=[sw]) == []

    def test_remove_route(self):
        sim = Simulator()
        sw, delivered = self._wired(sim)
        sw.install_route("west", 0, 32, VcTableEntry("east", 0, 77))
        sw.remove_route("west", 0, 32)
        arrive(sim, sw, make_cell(vci=32))
        sim.run()
        assert delivered == []


class TestUnroutableObservability:
    """An unroutable cell must be counted AND leave a flight-recorder
    event naming the label that had no route (regression: the drop
    used to be a bare counter bump, invisible in trace dumps)."""

    def test_unroutable_records_event_with_labels(self):
        sim = Simulator()
        sw = Switch(sim, "sw")
        arrive(sim, sw, make_cell(vci=99))
        sim.run()
        assert sw.stats.unroutable == 1
        events = sim.recorder.by_kind("unroutable_cell")
        assert len(events) == 1
        event = events[0]
        assert event.severity == "warning"
        assert event.attrs["switch"] == "sw"
        assert event.attrs["in_port"] == "west"
        assert event.attrs["vpi"] == 0
        assert event.attrs["vci"] == 99

    def test_unroutable_counter_mirrors_stats(self):
        sim = Simulator()
        sw = Switch(sim, "sw")
        for vci in (99, 100, 101):
            arrive(sim, sw, make_cell(vci=vci))
        sim.run()
        assert sw.stats.unroutable == 3
        report = sim.metrics.report()["switch"]
        assert report["cells_unroutable"] == [
            {"labels": {"switch": "sw"}, "type": "counter", "value": 3}]
        assert report["cells_received"][0]["value"] == 3


class TestConservationCounters:
    """The sub-counters the conservation audit balances against."""

    def test_link_buffer_and_wire_conservation(self):
        sim = Simulator()
        delivered = []
        link = Link(sim, rate_bps=424e3, prop_delay=0.0)
        link.sink_train = collect(delivered)
        for i in range(4):
            link.enqueue(make_cell(seqno=i))
        # mid-flight the books must still balance (in_service term)
        assert link.in_service == 1
        assert audit(sim, links=[link]) == []
        sim.run()
        assert len(delivered) == 4
        assert link.stats.delivered == 4
        assert audit(sim, links=[link]) == []

    def test_unsinked_link_counts_no_sink_drops(self):
        sim = Simulator()
        link = Link(sim, rate_bps=424e3, prop_delay=0.0)
        link.enqueue(make_cell())
        sim.run()
        assert link.stats.dropped_no_sink == 1
        assert audit(sim, links=[link]) == []

    def test_switch_receive_conservation(self):
        sim = Simulator()
        sw, delivered = TestSwitch()._wired(sim)
        sw.install_route("west", 0, 32, VcTableEntry("east", 0, 77))
        arrive(sim, sw, make_cell(vci=32))
        arrive(sim, sw, make_cell(vci=99))  # unroutable
        sim.run()
        assert len(delivered) == 1
        assert sw.stats.received == 2
        assert sw.stats.emitted == 1
        assert audit(sim, switches=[sw]) == []


class TestPerCellArrivals:
    """A cell that leaves a link's queue reaches the far end in an
    event at its arrival instant, not when its transmission ends."""

    def _feed(self, sim, link, sw, port="west"):
        seen = []

        def sink(train):
            seen.extend((c.seqno, sim.now) for c in train.cells)
            sw.receive_train(train, port)
        link.sink_train = sink
        return seen

    def test_switch_state_is_read_at_arrival(self):
        """The crash starts after the cell has left the wire's near
        end but before it arrives: the crashed switch must drop it."""
        sim = Simulator()
        sw, delivered = TestSwitch()._wired(sim)
        sw.install_route("west", 0, 32, VcTableEntry("east", 0, 77))
        up = Link(sim, rate_bps=424e3, prop_delay=0.5)  # 1 ms/cell
        seen = self._feed(sim, up, sw)
        up.enqueue(make_cell(vci=32))
        sim.schedule_at(0.2, sw.set_crashed, True)
        sim.run()
        assert seen == [(0, pytest.approx(0.501))]
        assert sw.stats.crash_dropped == 1
        assert delivered == []

    def test_jitter_reordering_survives_the_next_hop(self):
        """Jitter on a link into a switch reorders cells; the switch
        forwards them in the order they arrive, as a per-cell hop
        would, so the reordering reaches the next receiver."""
        sim = Simulator()
        sw = Switch(sim, "sw")
        out = Link(sim, rate_bps=424e3, prop_delay=0.0)
        departed = []
        out.sink_train = lambda t: departed.extend(c.seqno for c in t.cells)
        sw.attach_output("east", out)
        sw.install_route("west", 0, 32, VcTableEntry("east", 0, 77))
        up = Link(sim, rate_bps=424e3, prop_delay=1e-4)
        up.set_jitter(0.005, seed=3)
        seen = self._feed(sim, up, sw)
        for i in range(6):
            up.enqueue(make_cell(vci=32, seqno=i))
        sim.run()
        arrival_order = [seqno for seqno, _t in seen]
        assert arrival_order != sorted(arrival_order), "no reordering"
        assert [t for _s, t in seen] == sorted(t for _s, t in seen)
        assert departed == arrival_order

