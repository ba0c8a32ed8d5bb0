"""Output-buffered ATM switches.

A switch owns a set of named ports.  Each port has an outgoing
:class:`~repro.atm.link.Link`; incoming cell trains are delivered by
the upstream link together with the port they arrived on.  Forwarding
is a VP/VC table lookup keyed on ``(in_port, vpi, vci)``; the entry
gives the output port and the relabelled VPI/VCI — the classic ATM
label swap.  Cells with no table entry are counted and discarded, as
real switches do.  The fabric traversal is a fixed delay added to each
cell's arrival time before the train is offered to the output link.

Ingress policing (UPC) can be installed per connection on the port
where a host attaches; non-conforming cells are tagged or dropped
before they consume trunk capacity.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.atm.cell import Cell, CellHeader
from repro.atm.link import Link
from repro.atm.qos import ServiceCategory, UsageParameterControl
from repro.atm.simulator import Simulator
from repro.atm.train import CellTrain


@dataclass
class VcTableEntry:
    out_port: str
    out_vpi: int
    out_vci: int
    category: ServiceCategory = ServiceCategory.UBR
    upc: Optional[UsageParameterControl] = None


@dataclass
class SwitchStats:
    switched: int = 0
    unroutable: int = 0
    policed_dropped: int = 0
    policed_tagged: int = 0
    crash_dropped: int = 0
    #: every cell handed to receive_train(), before any fate is decided
    received: int = 0
    #: switched cells offered to an output link after the fabric delay
    emitted: int = 0


#: fabric transit time of one cell, input port to output link
SWITCHING_DELAY = 4e-6


class Switch:
    """A label-swapping, output-buffered cell switch."""

    def __init__(self, sim: Simulator, name: str) -> None:
        self.sim = sim
        self.name = name
        self._out_links: Dict[str, Link] = {}
        self._table: Dict[Tuple[str, int, int], VcTableEntry] = {}
        #: the same table flattened per input port and keyed on the
        #: packed label ``(vpi << 16) | vci`` — one small-int dict hit
        #: on the forwarding fast path instead of a 3-tuple hash
        self._routes: Dict[str, Dict[int, VcTableEntry]] = {}
        #: fault injection: while crashed the fabric eats every cell
        #: (the VC table survives the crash — restart is silent)
        self._crashed = False
        self.stats = SwitchStats()
        for metric, field in (("cells_received", "received"),
                              ("cells_switched", "switched"),
                              ("cells_unroutable", "unroutable"),
                              ("policed_dropped", "policed_dropped"),
                              ("policed_tagged", "policed_tagged"),
                              ("crash_dropped", "crash_dropped")):
            sim.metrics.read_through("switch", metric, self.stats, field,
                                     switch=name)

    def attach_output(self, port: str, link: Link) -> None:
        """Wire the outgoing link for *port* (port names = neighbour node)."""
        if port in self._out_links:
            raise ValueError(f"switch {self.name}: port {port} already wired")
        self._out_links[port] = link

    def install_route(self, in_port: str, in_vpi: int, in_vci: int,
                      entry: VcTableEntry) -> None:
        key = (in_port, in_vpi, in_vci)
        if key in self._table:
            raise ValueError(
                f"switch {self.name}: VC ({in_port},{in_vpi},{in_vci}) already in use"
            )
        if entry.out_port not in self._out_links:
            raise ValueError(
                f"switch {self.name}: unknown output port {entry.out_port!r}"
            )
        self._table[key] = entry
        self._routes.setdefault(in_port, {})[(in_vpi << 16) | in_vci] = entry

    def remove_route(self, in_port: str, in_vpi: int, in_vci: int) -> None:
        self._table.pop((in_port, in_vpi, in_vci), None)
        port_routes = self._routes.get(in_port)
        if port_routes is not None:
            port_routes.pop((in_vpi << 16) | in_vci, None)

    @property
    def crashed(self) -> bool:
        return self._crashed

    def set_crashed(self, crashed: bool) -> None:
        """Crash (or restart) the switch — driven by fault injection.

        A crashed switch drops every arriving cell; its VC table is
        kept, so a restart restores forwarding without re-signalling.
        """
        self._crashed = crashed

    def receive_train(self, train: CellTrain, in_port: str) -> None:
        """Train arrival from the upstream link on *in_port*.

        Processes the whole burst in one callback: one route lookup,
        per-cell policing with exact arrival times, and an in-place
        label swap (a train owns its cells).  A conforming burst is
        handed to the output link inline, with per-cell fabric-exit
        times.  A cell that arrived on its own (a ``per_cell`` train)
        and the survivors of a policing verdict re-enter the output
        link's per-cell queue at their fabric exit instead, where
        buffer admission and priority see every cell.
        """
        cells = train.cells
        n = len(cells)
        sim = self.sim
        # a burst bills its n per-cell arrival events here; a per-cell
        # train arrives in an event of its own
        arrivals = 0 if train.per_cell else n
        self.stats.received += n
        if self._crashed:
            self.stats.crash_dropped += n
            sim.charge_cells(arrivals)
            return
        hdr = cells[0].header
        port_routes = self._routes.get(in_port)
        entry = port_routes.get((hdr.vpi << 16) | hdr.vci) \
            if port_routes is not None else None
        if entry is None:
            self.stats.unroutable += n
            record = sim.recorder.record
            for c in cells:
                record("atm", "unroutable_cell", severity="warning",
                       switch=self.name, in_port=in_port,
                       vpi=c.header.vpi, vci=c.header.vci)
            sim.charge_cells(arrivals)
            return
        out = self._out_links[entry.out_port]
        times = train.times
        if entry.upc is not None:
            police = entry.upc.police
            for i in range(n):
                verdict = police(times[i])
                if verdict != "pass":
                    out.expand_train(
                        self._police_split(train, entry, i, verdict))
                    sim.charge_cells(arrivals)
                    return
        # all conforming: relabel in place.  Trains are built by the
        # AAL5 sender, so body cells share one header shape and only
        # the last differs (AAL-indicate bit); two shared header
        # objects replace n per-cell copies.
        last = cells[-1]
        first_hdr = cells[0].header
        body_hdr = CellHeader._unchecked(entry.out_vpi, entry.out_vci,
                                         first_hdr.pti, first_hdr.clp,
                                         first_hdr.gfc)
        last_hdr = CellHeader._unchecked(entry.out_vpi, entry.out_vci,
                                         last.header.pti, last.header.clp,
                                         last.header.gfc)
        for c in cells:
            c.header = body_hdr
            c.hops += 1
        last.header = last_hdr
        self.stats.switched += n
        # fabric traversal folded into arithmetic: exit times become
        # the departures offered to the output link
        self.stats.emitted += n
        delay = SWITCHING_DELAY
        for i in range(n):
            times[i] = times[i] + delay
        if train.per_cell:
            # the enqueue event is the cell's fabric exit
            out.expand_train(train)
            return
        # a fabric exit enqueues onto the output link inline, so the
        # forwarded train stops billing enqueues; the charge covers
        # each cell's arrival and fabric-exit events
        train.charged = False
        train.hop += 1
        out.enqueue_train(train)
        sim.charge_cells(2 * n)

    def _police_split(self, train: CellTrain, entry: VcTableEntry,
                      idx: int, verdict: str) -> CellTrain:
        """At least one cell of the train failed policing.

        Cells before *idx* already passed, *idx* carries *verdict*, the
        rest are policed here in arrival order.  Dropped cells leave
        the train; tagged ones get CLP=1.  Returns the relabelled
        survivors with their fabric-exit times.
        """
        police = entry.upc.police
        delay = SWITCHING_DELAY
        kept: List[Cell] = []
        exits: List[float] = []
        for i, (cell, t) in enumerate(zip(train.cells, train.times)):
            if i < idx:
                v = "pass"
            elif i == idx:
                v = verdict
            else:
                v = police(t)
            if v == "drop":
                self.stats.policed_dropped += 1
                continue
            h = cell.header
            clp = h.clp
            if v == "tag":
                self.stats.policed_tagged += 1
                clp = 1
            cell.header = CellHeader._unchecked(entry.out_vpi, entry.out_vci,
                                                h.pti, clp, h.gfc)
            cell.hops += 1
            kept.append(cell)
            exits.append(t + delay)
        self.stats.switched += len(kept)
        self.stats.emitted += len(kept)
        return CellTrain(kept, train.category, exits)
