"""Network assembly: hosts, virtual-circuit setup, routing, admission.

:class:`AtmNetwork` owns the node graph (hosts + switches + links),
computes routes (Dijkstra over link delay), performs connection
admission control against reserved bandwidth, installs per-hop VC
table entries, and hands applications a :class:`VirtualCircuit` with
AAL5 send/receive endpoints and contract-conformant shaping.

VCs are unidirectional like real ATM connections;
:meth:`AtmNetwork.open_duplex` opens a symmetric pair, which is what
the transport layer (Fig 3.5's client–server model) builds on.
"""

from __future__ import annotations

import heapq
import itertools
from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Deque, Dict, List, Optional, Tuple

from repro.atm.aal5 import Aal5Receiver, Aal5Sender, parse_cpcs_pdu
from repro.atm.cell import Cell
from repro.atm.link import Link
from repro.atm.train import CellTrain
from repro.atm.qos import (
    LeakyBucketShaper,
    TrafficContract,
    UsageParameterControl,
)
from repro.atm.simulator import Simulator
from repro.atm.switch import SWITCHING_DELAY, Switch, VcTableEntry
from repro.util.errors import DecodingError, NetworkError

#: how many raw per-PDU delay samples a VC keeps (the full
#: distribution lives in the bounded metrics histogram)
DELAY_SAMPLE_CAP = 1024

#: cap on outstanding send-time entries per host; beyond this the
#: oldest entries are evicted (their PDUs report NaN delay instead of
#: leaking memory forever on lossy links)
SEND_TIME_CAP = 8192

#: connection admission: reserved effective bandwidth may fill at most
#: this fraction of any link on a VC's route
ADMISSION_UTILIZATION = 0.9

#: output buffer of each switch-to-switch trunk link, in cells
TRUNK_BUFFER_CELLS = 2048

#: propagation delay of a host's access link (one way, ~1 km of fibre)
ACCESS_PROP_DELAY = 5e-6


class SwitchPortSink:
    """Link sink delivering trains into one switch input port.

    A callable object instead of a per-link lambda: it has a real
    qualname in tracebacks and traced runs, and the hot path avoids a
    closure-cell dereference per delivered train.
    """

    __slots__ = ("switch", "port")

    def __init__(self, switch: Switch, port: str) -> None:
        self.switch = switch
        self.port = port

    def receive_train(self, train: CellTrain) -> None:
        self.switch.receive_train(train, self.port)


@dataclass
class VcStats:
    pdus_sent: int = 0
    pdus_delivered: int = 0
    bytes_sent: int = 0
    bytes_delivered: int = 0
    #: most recent per-PDU end-to-end delays (send call -> last cell
    #: delivered); bounded — the histogram keeps the full distribution
    delays: Deque[float] = field(
        default_factory=lambda: deque(maxlen=DELAY_SAMPLE_CAP))


class VirtualCircuit:
    """One direction of an established connection."""

    def __init__(self, vc_id: int, src: "Host", dst: "Host",
                 contract: TrafficContract, path: List[str],
                 first_vci: int, last_vci: int) -> None:
        self.vc_id = vc_id
        self.src = src
        self.dst = dst
        self.contract = contract
        self.path = path          # node names, src..dst
        #: the links along path, set by AtmNetwork.open_vc
        self.links: Tuple[Link, ...] = ()
        self.first_vci = first_vci
        self.last_vci = last_vci
        self.sender = Aal5Sender(vpi=0, vci=first_vci)
        #: the far end's reassembler, set by Host._bind_receive
        self.receiver: Optional[Aal5Receiver] = None
        self.shaper = LeakyBucketShaper(contract)
        self.stats = VcStats()
        self.open = True
        metrics = src.sim.metrics
        route = f"{src.name}->{dst.name}"
        self.delay_hist = metrics.histogram("vc", "pdu_delay_seconds",
                                            vc=vc_id, route=route)
        metrics.read_through("vc", "pdus_sent", self.stats, "pdus_sent",
                             vc=vc_id, route=route)
        metrics.read_through("vc", "pdus_delivered", self.stats,
                             "pdus_delivered", vc=vc_id, route=route)
        src.sim.ledger.track("vc", str(vc_id), self, note=route)

    def send(self, payload: bytes) -> float:
        """Segment *payload* and inject its cells, paced by the shaper.

        Returns the time the frame's last cell leaves the shaper.
        """
        if not self.open:
            raise NetworkError(f"VC {self.vc_id} is closed")
        return self.src._transmit(self, payload)


class Host:
    """Network endpoint.  One access link pair to its attachment switch."""

    def __init__(self, sim: Simulator, name: str) -> None:
        self.sim = sim
        self.name = name
        self.uplink: Optional[Link] = None          # host -> switch
        self.attached_switch: Optional[Switch] = None
        # receive side: vci -> (reassembler, handler, vc)
        self._rx: Dict[int, Tuple[Aal5Receiver, Callable, VirtualCircuit]] = {}
        self._send_times: Dict[Tuple[int, int], float] = {}
        sim.ledger.track("site", name, self)
        #: cells that arrived for a VCI with no receive binding (the
        #: VC was closed, or the label was never ours)
        self.unbound_cells = 0
        sim.metrics.read_through("host", "cells_unbound", self,
                                 "unbound_cells", host=name)

    def _note_send_time(self, vc_id: int, seqno: int, now: float) -> None:
        # bound the in-flight map: a PDU whose last cell is dropped
        # never gets popped on delivery, so on lossy links the oldest
        # entries must be evicted (their delay is reported as NaN)
        while len(self._send_times) >= SEND_TIME_CAP:
            self._send_times.pop(next(iter(self._send_times)))
            self.sim.metrics.counter("host", "send_times_evicted",
                                     host=self.name).inc()
        self._send_times[(vc_id, seqno)] = now

    def _transmit(self, vc: VirtualCircuit, payload: bytes) -> float:
        now = self.sim.now
        cells, pdu = vc.sender.segment_train(payload, created_at=now)
        vc.stats.pdus_sent += 1
        vc.stats.bytes_sent += len(payload)
        self._note_send_time(vc.vc_id, cells[-1].seqno, now)
        # one shaper call per cell gives each its departure time; the
        # whole burst becomes ONE commit at its first departure
        next_departure = vc.shaper.next_departure
        times = [next_departure(now) for _ in cells]
        self.uplink.hold(CellTrain(cells, vc.contract.category, times, pdu,
                                   route=vc.links))
        return times[-1]

    def _bind_receive(self, vci: int, vc: VirtualCircuit,
                      handler: Callable[[bytes, "DeliveryInfo"], None]) -> None:
        def on_pdu(payload: bytes, last_cell: Cell) -> None:
            send_time = vc.src._send_times.pop((vc.vc_id, last_cell.seqno), None)
            delay = self.sim.now - send_time if send_time is not None else float("nan")
            vc.stats.pdus_delivered += 1
            vc.stats.bytes_delivered += len(payload)
            vc.stats.delays.append(delay)
            vc.delay_hist.observe(delay)  # NaN (evicted send time) ignored
            handler(payload, DeliveryInfo(vc=vc, delay=delay,
                                          delivered_at=self.sim.now,
                                          hops=last_cell.hops))
        vc.receiver = Aal5Receiver(on_pdu)
        self._rx[vci] = (vc.receiver, handler, vc)

    def receive_train(self, train: CellTrain) -> None:
        """The sink of the host's downlink: one lookup per burst.

        PDU completion is deferred to the LAST cell's arrival time, so
        delivery timestamps, delays and histograms are those of the
        cell that completes the frame.  A ``per_cell`` train already
        runs at its cell's arrival and is reassembled at once.
        """
        cells = train.cells
        n = len(cells)
        entry = self._rx.get(cells[0].header.vci)
        if entry is None:
            self.unbound_cells += n
            if not train.per_cell:
                self.sim.charge_cells(n)
            return
        if train.per_cell:
            for c in cells:
                entry[0].receive(c)
            return
        sim = self.sim
        t_last = train.times[-1]
        if t_last < sim.now:
            t_last = sim.now
        if train.route is None or train.final:
            # the last cell can make this host act, which can reach
            # every link
            sim.schedule_at(t_last, self._finalize_train, entry[0], train)
        else:
            # a piece without its frame's last cell only buffers in the
            # receiver, so it can reach no link
            sim.schedule_piece(t_last, None, self._finalize_train,
                               entry[0], train)
        # n per-cell arrival events, minus the finalize event booked
        sim.charge_cells(n - 1)

    def _finalize_train(self, rx: Aal5Receiver, train: CellTrain) -> None:
        """Reassemble a train at its last cell's arrival time."""
        cells = train.cells
        n = len(cells)
        cur = self._rx.get(cells[0].header.vci)
        if cur is None or cur[0] is not rx:
            # VC torn down between delivery and finalization
            self.unbound_cells += n
            return
        last = cells[-1]
        if rx._buffer or not last.header.is_last_of_frame:
            # a partial frame is pending (one-cell trains, or residue
            # of a fault window) — feed the cells one by one
            for c in cells:
                rx.receive(c)
            return
        # fast reassembly: the train IS one whole frame and the buffer
        # is empty; counters move exactly as n receive() calls would
        rx.cells_received += n
        pdu = train.pdu
        if pdu is None:
            pdu = b"".join(c.payload for c in cells)
        try:
            payload = parse_cpcs_pdu(pdu)
        except DecodingError:
            rx.cells_discarded += n
            rx.pdus_corrupted += 1
            return
        rx.cells_delivered += n
        rx.pdus_delivered += 1
        rx._on_pdu(payload, last)


@dataclass
class DeliveryInfo:
    """Metadata handed to receive handlers with each delivered PDU."""

    vc: VirtualCircuit
    delay: float
    delivered_at: float
    hops: int


class DuplexChannel:
    """A symmetric pair of VCs between two hosts."""

    def __init__(self, forward: VirtualCircuit, backward: VirtualCircuit) -> None:
        self.forward = forward
        self.backward = backward

    def endpoint(self, host_name: str) -> "DuplexEndpoint":
        if self.forward.src.name == host_name:
            return DuplexEndpoint(send_vc=self.forward, recv_vc=self.backward)
        if self.backward.src.name == host_name:
            return DuplexEndpoint(send_vc=self.backward, recv_vc=self.forward)
        raise NetworkError(f"host {host_name} is not an endpoint of this channel")


@dataclass
class DuplexEndpoint:
    send_vc: VirtualCircuit
    recv_vc: VirtualCircuit

    def send(self, payload: bytes) -> float:
        return self.send_vc.send(payload)


class AtmNetwork:
    """The assembled network: topology + signalling + admission."""

    def __init__(self, sim: Simulator, *, police: bool = True) -> None:
        self.sim = sim
        self.police = police
        self.hosts: Dict[str, Host] = {}
        self.switches: Dict[str, Switch] = {}
        #: directed adjacency: (from, to) -> Link
        self.links: Dict[Tuple[str, str], Link] = {}
        self._vc_counter = itertools.count(1)
        # next free VCI per (switch, out_port); VCIs < 32 are reserved
        self._vci_alloc: Dict[Tuple[str, str], itertools.count] = {}
        #: every currently-open VC by id — fault injection tears
        #: circuits down by route, so the network must know its VCs
        self.vcs: Dict[int, VirtualCircuit] = {}

    # -- topology construction ------------------------------------------

    def add_switch(self, name: str) -> Switch:
        if name in self.switches or name in self.hosts:
            raise ValueError(f"duplicate node name {name!r}")
        sw = Switch(self.sim, name)
        self.switches[name] = sw
        return sw

    def add_host(self, name: str, switch_name: str, *, rate_bps: float = 155.52e6,
                 buffer_cells: int = 1024) -> Host:
        if name in self.switches or name in self.hosts:
            raise ValueError(f"duplicate node name {name!r}")
        if switch_name not in self.switches:
            raise NetworkError(f"unknown switch {switch_name!r}")
        host = Host(self.sim, name)
        sw = self.switches[switch_name]
        up = Link(self.sim, rate_bps, ACCESS_PROP_DELAY, buffer_cells,
                  name=f"{name}->{switch_name}")
        down = Link(self.sim, rate_bps, ACCESS_PROP_DELAY, buffer_cells,
                    name=f"{switch_name}->{name}")
        up.sink_train = SwitchPortSink(sw, name).receive_train
        up.fabric_delay = SWITCHING_DELAY
        down.sink_train = host.receive_train
        host.uplink = up
        host.attached_switch = sw
        sw.attach_output(name, down)
        self.links[(name, switch_name)] = up
        self.links[(switch_name, name)] = down
        self.hosts[name] = host
        return host

    def add_trunk(self, a: str, b: str, *, rate_bps: float = 155.52e6,
                  prop_delay: float = 5e-5) -> None:
        """Bidirectional switch-to-switch trunk (two simplex links)."""
        for src, dst in ((a, b), (b, a)):
            if src not in self.switches or dst not in self.switches:
                raise NetworkError(f"trunk endpoints must be switches: {src}, {dst}")
            link = Link(self.sim, rate_bps, prop_delay, TRUNK_BUFFER_CELLS,
                        name=f"{src}->{dst}")
            link.sink_train = SwitchPortSink(self.switches[dst],
                                             src).receive_train
            link.fabric_delay = SWITCHING_DELAY
            self.switches[src].attach_output(dst, link)
            self.links[(src, dst)] = link

    # -- routing ----------------------------------------------------------

    def _neighbors(self, node: str) -> List[str]:
        return [dst for (src, dst) in self.links if src == node]

    def shortest_path(self, src: str, dst: str) -> List[str]:
        """Dijkstra over per-hop latency (propagation + one cell time)."""
        dist: Dict[str, float] = {src: 0.0}
        prev: Dict[str, str] = {}
        heap: List[Tuple[float, str]] = [(0.0, src)]
        visited = set()
        while heap:
            d, node = heapq.heappop(heap)
            if node in visited:
                continue
            visited.add(node)
            if node == dst:
                break
            for nxt in self._neighbors(node):
                # hosts only terminate circuits; never route through one
                if nxt in self.hosts and nxt != dst:
                    continue
                link = self.links[(node, nxt)]
                nd = d + link.prop_delay + link.cell_time
                if nd < dist.get(nxt, float("inf")):
                    dist[nxt] = nd
                    prev[nxt] = node
                    heapq.heappush(heap, (nd, nxt))
        if dst not in dist:
            raise NetworkError(f"no route from {src} to {dst}")
        path = [dst]
        while path[-1] != src:
            path.append(prev[path[-1]])
        path.reverse()
        return path

    # -- signalling / admission -------------------------------------------

    def _alloc_vci(self, switch: str, out_port: str) -> int:
        key = (switch, out_port)
        if key not in self._vci_alloc:
            self._vci_alloc[key] = itertools.count(32)
        return next(self._vci_alloc[key])

    def open_vc(self, src: str, dst: str, contract: TrafficContract,
                handler: Callable[[bytes, DeliveryInfo], None]
                ) -> VirtualCircuit:
        """Set up a unidirectional VC src->dst, or raise NetworkError.

        Performs admission control along the route: the contract's
        effective bandwidth must fit within ``ADMISSION_UTILIZATION``
        of every link's remaining capacity.
        """
        if src not in self.hosts or dst not in self.hosts:
            raise NetworkError("VC endpoints must be hosts")
        path = self.shortest_path(src, dst)
        eff_bw = contract.effective_bandwidth_bps()
        hop_links = [self.links[(path[i], path[i + 1])] for i in range(len(path) - 1)]
        for link in hop_links:
            if link.reserved_bps + eff_bw > link.rate_bps * ADMISSION_UTILIZATION:
                raise NetworkError(
                    f"admission control rejected VC {src}->{dst}: link "
                    f"{link.name} has {link.rate_bps * ADMISSION_UTILIZATION - link.reserved_bps:.0f} "
                    f"bps free, contract needs {eff_bw:.0f} bps"
                )
        for link in hop_links:
            link.reserved_bps += eff_bw

        vc_id = next(self._vc_counter)
        # allocate the label used on each hop's outgoing link
        first_vci = self._alloc_vci(src, path[1])
        in_vci = first_vci
        in_port = src
        for i in range(1, len(path) - 1):
            sw_name = path[i]
            out_port = path[i + 1]
            out_vci = self._alloc_vci(sw_name, out_port)
            upc = None
            if self.police and i == 1:
                upc = UsageParameterControl(contract)
            self.switches[sw_name].install_route(
                in_port, 0, in_vci,
                VcTableEntry(out_port=out_port, out_vpi=0, out_vci=out_vci,
                             category=contract.category, upc=upc))
            in_port = sw_name
            in_vci = out_vci

        vc = VirtualCircuit(vc_id, self.hosts[src], self.hosts[dst],
                            contract, path, first_vci, last_vci=in_vci)
        vc.links = tuple(hop_links)
        self.hosts[dst]._bind_receive(in_vci, vc, handler)
        self.vcs[vc_id] = vc
        return vc

    def vcs_between(self, src: str, dst: str) -> List[VirtualCircuit]:
        """Open VCs from host *src* to host *dst*, oldest first."""
        return [vc for _, vc in sorted(self.vcs.items())
                if vc.open and vc.src.name == src and vc.dst.name == dst]

    def open_duplex(self, a: str, b: str, contract: TrafficContract,
                    handler_a: Callable[[bytes, DeliveryInfo], None],
                    handler_b: Callable[[bytes, DeliveryInfo], None]
                    ) -> DuplexChannel:
        """Open a symmetric VC pair; *handler_a* receives b->a traffic.

        Duplex pairs carry the request/response transport under RPC.
        """
        fwd = self.open_vc(a, b, contract, handler_b)
        try:
            bwd = self.open_vc(b, a, contract, handler_a)
        except NetworkError:
            self.close_vc(fwd)
            raise
        return DuplexChannel(forward=fwd, backward=bwd)

    def close_vc(self, vc: VirtualCircuit) -> None:
        """Tear down a VC: release labels, bandwidth, and bindings."""
        if not vc.open:
            return
        vc.open = False
        self.vcs.pop(vc.vc_id, None)
        self.sim.recorder.record(
            "atm", "vc_close", vc=vc.vc_id,
            route=f"{vc.path[0]}->{vc.path[-1]}")
        eff_bw = vc.contract.effective_bandwidth_bps()
        in_vci = vc.first_vci
        in_port = vc.path[0]
        for i in range(1, len(vc.path) - 1):
            sw_name = vc.path[i]
            sw = self.switches[sw_name]
            entry = sw._table.get((in_port, 0, in_vci))
            sw.remove_route(in_port, 0, in_vci)
            if entry is None:
                break
            in_port = sw_name
            in_vci = entry.out_vci
        for i in range(len(vc.path) - 1):
            link = self.links[(vc.path[i], vc.path[i + 1])]
            link.reserved_bps = max(0.0, link.reserved_bps - eff_bw)
        vc.dst._rx.pop(vc.last_vci, None)
        # drop in-flight send-time entries: PDUs whose last cell was
        # lost would otherwise leak one entry each, forever
        src_host = vc.src
        for key in [k for k in src_host._send_times if k[0] == vc.vc_id]:
            del src_host._send_times[key]
