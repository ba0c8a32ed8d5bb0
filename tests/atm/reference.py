"""Minimal per-cell reference model of hosts around one switch.

The differential properties in ``test_train_properties.py`` judge the
simulator's cell-train forwarding against this model rather than
against another mode of the simulator itself.  It shares no
forwarding code with :mod:`repro.atm`: every cell is its own event at
every stage, exactly as a textbook output-buffered ATM path would run.

* the sending host segments each PDU into ``ceil((len + 8) / 48)``
  cells and paces them with the VC's :class:`LeakyBucketShaper`;
* each link is a per-category FIFO (lower category value served
  first) feeding one serializer, ``CELL_BITS / rate`` per cell, then a
  fixed propagation delay;
* the switch adds a fixed fabric delay and relabels (one hop), sending
  each cell to the downlink of its VC's destination;
* the receiving host reassembles AAL5 frames: a PDU is delivered when
  its last cell arrives, and the optional ``react`` hook sees it then,
  so a delivery can trigger the next send (a closed loop).

No policing, no faults, no buffer overflow and no observability —
the properties drive traffic that never needs them.  Floats are formed
with the same operations an event-per-cell loop uses (``now + delay``
at the moment an event is booked), so results compare exactly.
"""

from __future__ import annotations

import heapq
import itertools
from collections import deque
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.atm.aal5 import TRAILER_SIZE
from repro.atm.cell import CELL_SIZE, PAYLOAD_SIZE
from repro.atm.qos import LeakyBucketShaper, ServiceCategory, TrafficContract

CELL_BITS = CELL_SIZE * 8


class RefLink:
    """One simplex link: per-category FIFO + serializer + propagation."""

    def __init__(self, model: "RefModel", rate_bps: float, prop_delay: float,
                 sink: Callable[[tuple], None]) -> None:
        self.model = model
        self.tx = CELL_BITS / rate_bps
        self.prop_delay = prop_delay
        self.sink = sink
        self.queues = [deque() for _ in ServiceCategory]
        self.busy = False
        self.enqueued = 0
        self.transmitted = 0
        self.busy_time = 0.0
        #: each cell's wait from its enqueue to its service start, summed
        self.residency = 0.0

    def enqueue(self, cell: tuple, category: ServiceCategory) -> None:
        self.enqueued += 1
        self.queues[category].append((cell, self.model.now))
        if not self.busy:
            self._start()

    def _start(self) -> None:
        for q in self.queues:
            if q:
                cell, enqueued_at = q.popleft()
                self.residency += self.model.now - enqueued_at
                break
        else:
            self.busy = False
            return
        self.busy = True
        self.busy_time += self.tx
        self.model.after(self.tx, self._finish, cell)

    def _finish(self, cell: tuple) -> None:
        self.transmitted += 1
        self.model.after(self.prop_delay, self.sink, cell)
        self._start()


class RefModel:
    """Star of *hosts* around one switch ``sw0``.

    Cells are tuples ``(vc, last, hops)``; VCs are numbered in
    :meth:`open_vc` order from 0.  ``links[(x, y)]`` is the link from
    node *x* to node *y*; ``uplink`` and ``downlink`` name ``a -> sw0``
    and ``sw0 -> b``.
    """

    def __init__(self, *, rate_bps: float, prop_delay: float,
                 switching_delay: float,
                 hosts: Sequence[str] = ("a", "b")) -> None:
        self.now = 0.0
        self._queue: List[tuple] = []
        self._seq = itertools.count()
        self.switching_delay = switching_delay
        self.links: Dict[Tuple[str, str], RefLink] = {}
        for host in hosts:
            self.links[(host, "sw0")] = RefLink(self, rate_bps, prop_delay,
                                                self._switch_in)
            self.links[("sw0", host)] = RefLink(self, rate_bps, prop_delay,
                                                self._host_in)
        self.uplink = self.links.get(("a", "sw0"))
        self.downlink = self.links.get(("sw0", "b"))
        self.switch_received = 0
        self.switch_emitted = 0
        #: per VC: (category, shaper, source host, destination host)
        self._vcs: List[Tuple[ServiceCategory, LeakyBucketShaper, str,
                              str]] = []
        #: per VC: (send time, payload, cell count) of PDUs in flight,
        #: oldest first
        self._in_flight: List[deque] = []
        #: per VC: cells of the frame being reassembled
        self._partial: List[int] = []
        #: (vc, payload, delay, delivered_at, hops) in delivery order
        self.delivered: List[tuple] = []
        #: called as ``react(vc, payload)`` after each delivery
        self.react: Optional[Callable[[int, bytes], None]] = None

    # -- event loop -------------------------------------------------------

    def at(self, time: float, fn: Callable, *args) -> None:
        heapq.heappush(self._queue, (time, next(self._seq), fn, args))

    def after(self, delay: float, fn: Callable, *args) -> None:
        self.at(self.now + delay, fn, *args)

    def run(self, until: float) -> None:
        while self._queue and self._queue[0][0] <= until:
            time, _seq, fn, args = heapq.heappop(self._queue)
            self.now = time
            fn(*args)
        self.now = until

    # -- hosts and switch -------------------------------------------------

    def open_vc(self, contract: TrafficContract, src: str = "a",
                dst: str = "b") -> int:
        self._vcs.append((contract.category, LeakyBucketShaper(contract),
                          src, dst))
        self._in_flight.append(deque())
        self._partial.append(0)
        return len(self._vcs) - 1

    def send(self, vc: int, payload: bytes) -> None:
        """Segment and pace one PDU from the VC's source host."""
        category, shaper, src, _dst = self._vcs[vc]
        n = -(-(len(payload) + TRAILER_SIZE) // PAYLOAD_SIZE)
        now = self.now
        self._in_flight[vc].append((now, payload, n))
        uplink = self.links[(src, "sw0")]
        for i in range(n):
            self.at(shaper.next_departure(now), uplink.enqueue,
                    (vc, i == n - 1, 0), category)

    def _switch_in(self, cell: tuple) -> None:
        self.switch_received += 1
        vc, last, hops = cell
        self.after(self.switching_delay, self._switch_out,
                   (vc, last, hops + 1))

    def _switch_out(self, cell: tuple) -> None:
        self.switch_emitted += 1
        category, _shaper, _src, dst = self._vcs[cell[0]]
        self.links[("sw0", dst)].enqueue(cell, category)

    def _host_in(self, cell: tuple) -> None:
        vc, last, hops = cell
        self._partial[vc] += 1
        if not last:
            return
        sent_at, payload, n = self._in_flight[vc].popleft()
        assert self._partial[vc] == n, "frame reassembled from wrong cells"
        self._partial[vc] = 0
        self.delivered.append((vc, payload, self.now - sent_at, self.now,
                               hops))
        if self.react is not None:
            self.react(vc, payload)
