"""Cell trains: one AAL5 frame's cells batched into one unit of work.

An event loop that schedules every cell at every stage books ~6
events per cell (enqueue, finish, deliver at each hop); a 342-cell
courseware PDU would cost ~2k events.  A :class:`CellTrain` carries
the whole frame's contiguous cells plus a parallel list of per-cell
times, so each pipeline stage (link transmitter, switch fabric,
receiving host) handles the burst in ONE scheduled callback while
still computing every per-cell timestamp and counter.

The times list is mutated in place as the train moves:

========================  =========================================
stage                     ``times[i]`` holds
========================  =========================================
host commit               per-cell shaper departure ``d_i``
after link commit         per-cell far-end arrival ``f_i + prop``
after switch relabel      per-cell fabric exit ``a_i + sw_delay``
                          (= departure offered to the next link)
========================  =========================================

A train booked by a host carries its VC's ``route`` (the links from
the sending host to the receiving one) and its ``hop`` on it, which
is how a pending piece tells the links downstream when it can reach
them (DESIGN.md "The horizon rule").

A link commits a train arithmetically when no other traffic can
interleave with it; otherwise (armed loss/jitter RNGs, a busy or
backlogged transmitter) it *expands* the train into its per-cell
priority queue.  Cells leave that queue as one-cell ``per_cell``
trains, each handed over at its own arrival instant, and stay in the
per-cell queues at later hops.  A switch that drops or tags cells
under policing queues the survivors per cell too.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro.atm.cell import Cell
from repro.atm.qos import ServiceCategory

__all__ = ["CellTrain"]


class CellTrain:
    """A contiguous burst of cells from one AAL5 CPCS-PDU.

    ``pdu`` optionally keeps the sender-side CPCS-PDU bytes so the
    receiving host can reassemble without re-joining 48-octet slices
    (the payload bytes are immutable end to end; only headers are
    relabelled in flight).
    """

    __slots__ = ("cells", "category", "times", "pdu", "charged",
                 "per_cell", "route", "hop", "final")

    def __init__(self, cells: List[Cell], category: ServiceCategory,
                 times: List[float], pdu: Optional[bytes] = None, *,
                 charged: bool = True, per_cell: bool = False,
                 route: Optional[Tuple] = None, hop: int = 0) -> None:
        self.cells = cells
        self.category = category
        self.times = times
        self.pdu = pdu
        #: whether link commits bill per-cell enqueue equivalents to the
        #: event loop: True for host-committed trains (one scheduled
        #: enqueue per cell), False once a switch forwards the train (a
        #: fabric exit enqueues inline, in the same event)
        self.charged = charged
        #: one cell delivered in an arrival event of its own (it left a
        #: link's per-cell queue, or jitter split it off a burst): the
        #: receiver handles it as that event and the next hop queues
        #: it per cell
        self.per_cell = per_cell
        #: the VC's links, sending host to receiving host, and the
        #: index of the one the train is on; None for a train that did
        #: not come from a host's sender, whose pieces are treated as
        #: able to reach every link
        self.route = route
        self.hop = hop
        #: a routed train that carries its frame's last cell: its
        #: arrival can make the receiving host act
        self.final = route is not None and cells[-1].header.is_last_of_frame

    def split(self, k: int) -> "CellTrain":
        """Keep the first *k* cells; return the rest as a new train
        on the same route and hop.  The kept prefix drops the CPCS-PDU
        bytes: it is no longer a whole frame."""
        rest = CellTrain(self.cells[k:], self.category, self.times[k:],
                         self.pdu, charged=self.charged, route=self.route,
                         hop=self.hop)
        del self.cells[k:]
        del self.times[k:]
        self.pdu = None
        self.final = False
        return rest

    def __len__(self) -> int:
        return len(self.cells)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        head = self.cells[0].header if self.cells else None
        return (f"CellTrain(n={len(self.cells)}, vci="
                f"{head.vci if head else '?'}, "
                f"category={self.category.name})")
