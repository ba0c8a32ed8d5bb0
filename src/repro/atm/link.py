"""Transmission links.

A :class:`Link` is a unidirectional transmission line with a fixed
bit rate, a propagation delay, and a finite output buffer organised as
per-service-category priority queues (CBR drains before rt-VBR, etc.;
within a category, CLP=1 cells are dropped first under overflow).

Serialization time per cell is ``424 bits / rate``; cells arrive at
the attached sink one propagation delay after transmission completes.

Cells reach the link as :class:`~repro.atm.train.CellTrain` bursts.
A burst the transmitter can serve without contention is committed
arithmetically (:meth:`Link.enqueue_train`); anything else is expanded
into the per-cell priority queue, which is the contention model.
Either way the far end receives trains through the link's single
train sink: a committed burst in one call, and each cell that left the
queue as a one-cell ``per_cell`` train at its own arrival instant.
"""

from __future__ import annotations

import random
from collections import deque
from dataclasses import dataclass
from typing import Callable, Deque, List, Optional, Tuple

from repro.atm.cell import Cell, CELL_SIZE
from repro.atm.qos import ServiceCategory
from repro.atm.simulator import Simulator
from repro.atm.train import CellTrain
from repro.obs.accounting import NULL_ACCOUNT

CELL_BITS = CELL_SIZE * 8


@dataclass
class LinkStats:
    enqueued: int = 0
    transmitted: int = 0
    dropped_overflow: int = 0
    dropped_errors: int = 0
    dropped_down: int = 0
    busy_time: float = 0.0
    #: subset of dropped_overflow: buffered cells displaced by a
    #: higher-priority arrival (the arrival itself was accepted)
    dropped_shed: int = 0
    #: subset of dropped_down: cells lost mid-flight when the link
    #: went down during their serialization (vs. dropped on arrival)
    dropped_down_wire: int = 0
    #: transmitted cells handed to the sink (scheduled for delivery)
    delivered: int = 0
    #: transmitted cells with no sink attached to receive them
    dropped_no_sink: int = 0

    @property
    def drops_total(self) -> int:
        """Every cell this link lost, whatever the reason."""
        return (self.dropped_overflow + self.dropped_errors
                + self.dropped_down + self.dropped_no_sink)


class Link:
    """Unidirectional cell pipe with priority queueing.

    The *sink_train* is any callable taking one :class:`CellTrain`
    whose ``times`` hold the per-cell far-end arrival instants.  It is
    called at the first cell's arrival: for a committed burst, once
    for the whole burst; for a cell from the queue (or one that jitter
    split off a burst), once per cell, in an event of its own.
    """

    def __init__(self, sim: Simulator, rate_bps: float, prop_delay: float = 1e-5,
                 buffer_cells: int = 512, name: str = "") -> None:
        if rate_bps <= 0:
            raise ValueError("link rate must be positive")
        if buffer_cells < 1:
            raise ValueError("link buffer must hold at least one cell")
        self.sim = sim
        self.rate_bps = rate_bps
        self.prop_delay = prop_delay
        self.buffer_cells = buffer_cells
        self.name = name
        #: fault injection: probability a transmitted cell is lost on
        #: the wire (seeded, so experiments are reproducible); set only
        #: through :meth:`set_error_rate`, which creates the RNG
        self._error_seed = 0
        self._error_rng: Optional[random.Random] = None
        self._error_rate = 0.0
        #: fault injection: link outage — while down, arriving and
        #: in-flight cells are lost and the transmitter is parked
        self._down = False
        #: outage edges, for deciding the fate of train cells whose
        #: serialization window a transition bisected: time of the
        #: current outage's onset, and the last closed (down, up) span
        self._down_since = 0.0
        self._last_outage: Optional[Tuple[float, float]] = None
        #: fault injection: extra per-cell propagation jitter, uniform
        #: in [0, _jitter) seconds (seeded); can reorder cells, which
        #: the AAL5 CRC turns into detected frame loss upstream
        self._jitter = 0.0
        self._jitter_rng: Optional[random.Random] = None
        #: the far end; when absent, transmitted cells are counted as
        #: ``dropped_no_sink``
        self.sink_train: Optional[Callable[[CellTrain], None]] = None
        #: per-category FIFO of (cell, category, enqueue_time); the
        #: timestamp feeds queue-residency accounting in the ledger
        self._queues: List[Deque[Tuple[Cell, ServiceCategory, float]]] = [
            deque() for _ in ServiceCategory
        ]
        self._queued = 0
        self._busy = False
        #: transmitter clock: the time the serializer frees up, shared
        #: by the per-cell queue and the arithmetic train commits so
        #: the two can interleave without overbooking link capacity
        self._free_at = 0.0
        #: cells committed to the transmitter as trains and not yet
        #: finished — counted by ``in_service`` so buffer conservation
        #: holds at every event boundary
        self._train_inflight = 0
        #: service-start times of committed train cells that have not
        #: started yet — replays the queue-occupancy gauge excursions
        #: (each queued cell visits the queue between its arrival and
        #: its service start)
        self._future_starts: Deque[float] = deque()
        self.stats = LinkStats()
        #: bandwidth reserved by connection admission (bits/s)
        self.reserved_bps = 0.0
        metrics = sim.metrics
        label = name or f"link@{id(self):x}"
        stats = self.stats
        metrics.read_through("link", "cells_enqueued", stats, "enqueued",
                             link=label)
        metrics.read_through("link", "cells_transmitted", stats,
                             "transmitted", link=label)
        metrics.read_through("link", "drops_total", stats, "drops_total",
                             link=label)
        self._m_occupancy = metrics.gauge("link", "queue_occupancy", link=label)
        self._metrics = metrics
        self._label = label
        self.acct = sim.ledger.account("link", label)

    @property
    def error_rate(self) -> float:
        """Probability a transmitted cell is lost on the wire."""
        return self._error_rate

    def set_error_rate(self, rate: float, seed: Optional[int] = None) -> None:
        """Enable (or change) seeded random cell loss on this link.

        With *seed* given the loss RNG is re-seeded; otherwise an
        existing RNG (or the last seed given, 0 at first) is kept so
        adjusting the rate mid-run stays reproducible.
        """
        if not 0.0 <= rate < 1.0:
            raise ValueError("error_rate must be in [0, 1)")
        if seed is not None:
            self._error_seed = seed
            self._error_rng = None
        if rate > 0 and self._error_rng is None:
            self._error_rng = random.Random(self._error_seed)
        self._error_rate = rate

    # -- fault hooks (driven by repro.faults.FaultInjector) --------------

    @property
    def down(self) -> bool:
        return self._down

    def set_down(self, down: bool) -> None:
        """Take the link out of (or back into) service.

        While down, arriving cells are dropped and the transmitter is
        parked; cells already buffered resume transmission when the
        link comes back up.
        """
        if down == self._down:
            return
        self._down = down
        if down:
            self._down_since = self.sim.now
        else:
            self._last_outage = (self._down_since, self.sim.now)
            if not self._busy and self._queued:
                self._start_transmission()

    def set_jitter(self, jitter: float, seed: int = 0) -> None:
        """Add (or clear) seeded uniform propagation jitter."""
        if jitter < 0:
            raise ValueError("jitter must be >= 0")
        self._jitter = jitter
        self._jitter_rng = random.Random(seed) if jitter > 0 else None

    @property
    def cell_time(self) -> float:
        """Serialization time of one cell on this link."""
        return CELL_BITS / self.rate_bps

    @property
    def queue_length(self) -> int:
        return self._queued

    @property
    def in_service(self) -> int:
        """Cells committed to the transmitter and not yet finished:
        1 while a queued cell is serializing, plus every cell of any
        train in arithmetic flight."""
        return (1 if self._busy else 0) + self._train_inflight

    def enqueue(self, cell: Cell, category: ServiceCategory = ServiceCategory.UBR) -> bool:
        """Offer a cell for transmission.  Returns False when dropped.

        On overflow the link first tries to shed a buffered CLP=1 cell
        of the lowest-priority non-empty class; if none exists and the
        arriving cell itself is the lowest class, the arrival is lost.
        """
        if self._down:
            self.stats.dropped_down += 1
            self._count_drop("link_down", category.name)
            return False
        if self._queued >= self.buffer_cells:
            if not self._shed_low_priority(category):
                self.stats.dropped_overflow += 1
                self._count_drop("overflow", category.name)
                return False
        self._queues[category].append((cell, category, self.sim.now))
        self._queued += 1
        self.stats.enqueued += 1
        self._m_occupancy.set(self._queued)
        if not self._busy:
            self._start_transmission()
        return True

    def _count_drop(self, reason: str, category: str) -> None:
        self.acct.drop()
        self._metrics.counter("link", "drops", link=self._label,
                              reason=reason, category=category).inc()
        self.sim.recorder.record("atm", "cell_drop", severity="warning",
                                 link=self._label, reason=reason,
                                 category=category)

    def _shed_low_priority(self, arriving: ServiceCategory) -> bool:
        """Try to make room for an *arriving*-class cell by dropping a
        lower-priority buffered cell (CLP=1 preferred).  Returns True
        if room was made."""
        for cat in sorted(ServiceCategory, reverse=True):
            if cat <= arriving:
                break
            q = self._queues[cat]
            if q:
                # prefer a tagged cell if one is buffered
                for i, (c, _, _t) in enumerate(q):
                    if c.header.clp == 1:
                        del q[i]
                        break
                else:
                    q.pop()
                self._queued -= 1
                self.stats.dropped_overflow += 1
                self.stats.dropped_shed += 1
                self._count_drop("shed", cat.name)
                self._m_occupancy.set(self._queued)
                return True
        return False

    def _start_transmission(self) -> None:
        if self._down:
            self._busy = False
            return
        for q in self._queues:
            if q:
                cell, cat, enq_time = q.popleft()
                self._queued -= 1
                self.acct.dwell(self.sim.now - enq_time)
                self._m_occupancy.set(self._queued)
                break
        else:
            self._busy = False
            return
        self._busy = True
        tx = self.cell_time
        self.stats.busy_time += tx
        # serialize after any train still arithmetically in flight;
        # with no train in flight _free_at <= now and this is now + tx
        start = self._free_at
        now = self.sim.now
        if start < now:
            start = now
        self._free_at = start + tx
        self.sim.schedule_at(start + tx, self._finish_transmission, cell,
                             cat)

    def _finish_transmission(self, cell: Cell,
                             category: ServiceCategory) -> None:
        self.stats.transmitted += 1
        if self._down:
            # went down mid-transmission: the cell is lost on the wire
            self.stats.dropped_down += 1
            self.stats.dropped_down_wire += 1
            self._count_drop("link_down", "any")
        elif self._error_rng is not None and \
                self._error_rng.random() < self._error_rate:
            self.stats.dropped_errors += 1
            self._count_drop("error", "any")
        elif self.sink_train is not None:
            self.stats.delivered += 1
            delay = self.prop_delay
            if self._jitter_rng is not None:
                delay += self._jitter_rng.uniform(0.0, self._jitter)
            self._deliver_cell(cell, category, self.sim.now + delay)
        else:
            self.stats.dropped_no_sink += 1
            self._count_drop("no_sink", "any")
        self._start_transmission()

    # -- cell trains -----------------------------------------------------

    def commit_train(self, train: CellTrain) -> None:
        """Scheduled entry point for a train commit (first departure due)."""
        self.enqueue_train(train)

    def enqueue_train(self, train: CellTrain) -> int:
        """Offer a whole train to the transmitter.

        Returns the number of cells committed arithmetically (0 when
        the train was expanded into the per-cell queue).

        The arithmetic commit is taken only when it is provably what
        the per-cell queue would do: transmitter idle or train-only
        backlog, no armed loss/error/jitter RNG (those draw once per
        transmitted cell — the stream must be preserved), a sink, and
        room in the buffer.  Everything else is expanded: ``enqueue``
        is scheduled per cell at its exact departure time.

        **Horizon rule.**  Every pending event fires at some time
        ``H`` or later, and an event at time ``t`` can only create new
        departures at ``t`` or later, so departures *strictly before*
        ``H`` are final: no cross-traffic can still slip between them,
        and the wire schedule computed here is exactly what the
        per-cell queue would have produced.  Cells due at or after
        ``H`` are split off and re-committed when their time comes —
        by then any interleaving traffic has committed ahead of them.
        """
        cells = train.cells
        n = len(cells)
        if (self._down or self._busy or self._queued
                or self._error_rng is not None
                or self._jitter_rng is not None
                or self.sink_train is None
                or n + self._train_inflight > self.buffer_cells):
            self.expand_train(train)
            return 0
        sim = self.sim
        times = train.times
        horizon = sim._next_event_time()
        if horizon is not None and times[n - 1] >= horizon:
            now = sim.now
            # a departure is safe if it precedes every pending event
            # (nothing can still commit ahead of it) or is already due
            # (this commit is the earliest event, so any same-time
            # rival enqueues after us, as per-cell enqueues would)
            k = 0
            while k < n and (times[k] < horizon or times[k] <= now):
                k += 1
            if k == 0:
                # inline-forwarded train whose first departure lies at
                # or beyond the next pending event: cross-traffic with
                # earlier departures may still commit — wait until due.
                # The deferral keeps this event's seq: among equal
                # timestamps the per-cell enqueues it stands for are
                # sequenced with THIS commit attempt, so a rival
                # scheduled later must not overtake it
                sim.reschedule_at(times[0], sim.current_seq,
                                  self.commit_train, train)
                return 0
            if k < n:
                rest = CellTrain(cells[k:], train.category, times[k:],
                                 train.pdu, charged=train.charged)
                del cells[k:]
                del times[k:]
                train.pdu = None
                sim.reschedule_at(rest.times[0], sim.current_seq,
                                  self.commit_train, rest)
                n = k
        tx = self.cell_time
        prop = self.prop_delay
        stats = self.stats
        stats.enqueued += n
        acct = self.acct
        ledger_on = acct is not NULL_ACCOUNT
        free = self._free_at
        fs = self._future_starts
        occ_max = 0
        for i in range(n):
            d = times[i]
            start = free if free > d else d
            if ledger_on:
                acct.dwell(start - d)
            free = start + tx
            times[i] = free + prop
            while fs and fs[0] <= d:
                fs.popleft()
            fs.append(start)
            if len(fs) > occ_max:
                occ_max = len(fs)
        stats.busy_time += tx * n
        self._free_at = free
        self._train_inflight += n
        # a queued cell walks through the queue between arrival and
        # service start; replay the same gauge excursion (peak depth
        # seen, then drained) so snapshots match the per-cell queue
        self._m_occupancy.set(occ_max)
        self._m_occupancy.set(0)
        sim.schedule_at(times[0], self._deliver_train, train)
        if train.charged:
            sim.charge_cells(n - 1)
        return n

    def expand_train(self, train: CellTrain) -> None:
        """Offer each cell of *train* to the per-cell queue: one
        ``enqueue`` event per cell at its own departure time."""
        sim = self.sim
        now = sim.now
        enqueue = self.enqueue
        cat = train.category
        cells = train.cells
        times = train.times
        for i in range(len(cells)):
            t = times[i]
            sim.schedule_at(t if t > now else now, enqueue, cells[i], cat)

    def _deliver_train(self, train: CellTrain) -> None:
        """Fires at the train's first far-end arrival (``times`` holds
        arrivals).  Resolves the wire fate of every cell whose finish
        precedes the next pending event — by the horizon rule nothing
        can change link state before then — and hands the survivors to
        the train sink in one call.  Cells finishing at or beyond the
        horizon are re-delivered when their arrival comes round, so a
        fault or error-RNG arming event never bisects a decided batch.
        """
        sim = self.sim
        times = train.times
        cells = train.cells
        n = len(cells)
        prop = self.prop_delay
        horizon = sim._next_event_time()
        if n > 1 and horizon is not None and times[n - 1] - prop >= horizon:
            now = sim.now
            k = 1
            while k < n and (times[k] - prop < horizon
                             or times[k] - prop <= now):
                k += 1
            rest = CellTrain(cells[k:], train.category, times[k:],
                             train.pdu, charged=train.charged)
            del cells[k:]
            del times[k:]
            train.pdu = None
            # re-delivery inherits this event's seq for the same reason
            # commit continuations do: the per-cell finish events for
            # the remaining cells are sequenced with this delivery
            sim.reschedule_at(rest.times[0], sim.current_seq,
                              self._deliver_train, rest)
            n = k
        self._train_inflight -= n
        stats = self.stats
        stats.transmitted += n
        sim.charge_cells(n - 1)
        outage = self._last_outage
        if not self._down and (outage is None or outage[1] <= times[0] - prop):
            if self._jitter_rng is None and self._error_rng is None:
                stats.delivered += n
                self.sink_train(train)
                return
        self._deliver_slow(train)

    def _deliver_slow(self, train: CellTrain) -> None:
        """Per-cell fate for a delivery window a fault event touched:
        an outage edge, or an error/jitter RNG armed mid-flight.  Each
        cell is judged by the link state at its own finish instant,
        exactly as ``_finish_transmission`` judges a queued cell."""
        stats = self.stats
        prop = self.prop_delay
        down_since = self._down_since
        outage = self._last_outage
        err_rng = self._error_rng
        err_rate = self._error_rate
        jit_rng = self._jitter_rng
        survivors = []
        surv_times = []
        for cell, arr in zip(train.cells, train.times):
            finish = arr - prop
            if (self._down and finish > down_since) or \
                    (outage is not None
                     and outage[0] < finish <= outage[1]):
                stats.dropped_down += 1
                stats.dropped_down_wire += 1
                self._count_drop("link_down", "any")
            elif err_rng is not None and err_rng.random() < err_rate:
                stats.dropped_errors += 1
                self._count_drop("error", "any")
            elif jit_rng is not None:
                # jitter can reorder cells: each arrives on its own
                stats.delivered += 1
                self._deliver_cell(
                    cell, train.category,
                    finish + (prop + jit_rng.uniform(0.0, self._jitter)))
            else:
                stats.delivered += 1
                survivors.append(cell)
                surv_times.append(arr)
        if survivors:
            self.sink_train(CellTrain(
                survivors, train.category, surv_times,
                train.pdu if len(survivors) == len(train.cells) else None,
                charged=train.charged))

    def _deliver_cell(self, cell: Cell, category: ServiceCategory,
                      arrival: float) -> None:
        """Book one cell's arrival at the far end as an event of its
        own, so the receiver meets it in the state of that instant."""
        self.sim.schedule_at(arrival, self.sink_train,
                             CellTrain([cell], category, [arrival],
                                       per_cell=True))
