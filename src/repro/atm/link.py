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
from bisect import bisect_left, bisect_right
from collections import deque
from dataclasses import dataclass
from itertools import chain
from operator import itemgetter
from typing import Callable, Deque, Dict, List, Optional, Tuple

from repro.atm.cell import Cell, CELL_SIZE
from repro.atm.qos import ServiceCategory
from repro.atm.simulator import Event, Simulator, file_entry
from repro.atm.train import CellTrain

CELL_BITS = CELL_SIZE * 8

#: sort keys of a commit batch entry (first departure, seq, train)
_by_departure = itemgetter(0, 1)
_by_seq = itemgetter(1)


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
        self._tx = CELL_BITS / rate_bps
        self.prop_delay = prop_delay
        #: fabric delay of the switch this link feeds (0 into a host),
        #: for bounding when a train can reach the next link
        self.fabric_delay = 0.0
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
        #: timestamp feeds ``residency_seconds``
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
        #: trains waiting for their commit, each with its pending
        #: commit event; any commit here merges them
        self._held: Dict[CellTrain, Event] = {}
        #: heap of (time, seq, event): pending train pieces upstream
        #: whose route continues here, by the earliest time each can
        #: put a cell on this link
        self._reach: List[Tuple[float, int, Event]] = []
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
        #: seconds cells spent queued before their service start,
        #: summed over every cell (the ledger's link residency)
        self.residency_seconds = 0.0
        sim.ledger.track("link", label, self)

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
        return self._tx

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
                self.residency_seconds += self.sim.now - enq_time
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

    def hold(self, train: CellTrain, seq: Optional[int] = None) -> None:
        """Hold a train for commit: its commit is booked at its first
        departure (inheriting *seq* unless None), and any commit on
        this link before then merges it."""
        self._held[train] = self.sim.schedule_piece(
            train.times[0], seq, self.commit_train, train, link=self,
            departures=True)

    def file_piece(self, ev: Event, departures: bool) -> None:
        """File the pending piece ``ev.args[0]`` of a train on this
        link: on each link further down its route, from the earliest
        time its first cell can get there, and, when it carries its
        frame's last cell, on every link from the earliest time that
        cell can reach the host.  The bounds repeat the additions the
        cells' own times go through, so float rounding can never put
        a bound past them."""
        train = ev.args[0]
        if train.route is None:
            # not from a host's sender: it may reach any link
            file_entry(self.sim._outside, (ev.time, ev.seq, ev))
            return
        first = train.times[0]
        last = train.times[-1]
        if departures:
            first = (first + self._tx) + self.prop_delay
            last = (last + self._tx) + self.prop_delay
        link = self
        # a tie-break of its own: a held remainder keeps its train's
        # seq and last cell, so (time, seq) would tie with the dead
        # entry it replaces and fall through to comparing events
        seq = next(self.sim._index_seq)
        for nxt in train.route[train.hop + 1:]:
            fabric = link.fabric_delay
            first = first + fabric
            file_entry(nxt._reach, (first, seq, ev))
            first = (first + nxt._tx) + nxt.prop_delay
            last = ((last + fabric) + nxt._tx) + nxt.prop_delay
            link = nxt
        if train.final:
            file_entry(self.sim._finals, (last, seq, ev))

    def _final_reach(self, train: CellTrain) -> float:
        """Earliest time the last cell of a train waiting on this link
        can reach its host (computed as in :meth:`file_piece`)."""
        t = (train.times[-1] + self._tx) + self.prop_delay
        link = self
        for nxt in train.route[train.hop + 1:]:
            t = ((t + link.fabric_delay) + nxt._tx) + nxt.prop_delay
            link = nxt
        return t

    def commit_train(self, train: CellTrain) -> None:
        """Scheduled entry point for a train commit (first departure due)."""
        self.enqueue_train(train)

    def enqueue_train(self, train: CellTrain) -> int:
        """Offer a whole train to the transmitter, and commit with it
        every train this link holds.

        Returns the number of cells committed arithmetically (0 when
        the train was expanded into the per-cell queue or deferred).

        The arithmetic commit is taken only when it is provably what
        the per-cell queue would do: transmitter idle or train-only
        backlog, no armed loss/error/jitter RNG (those draw once per
        transmitted cell — the stream must be preserved), a sink, and
        room in the buffer.  Everything else is expanded: ``enqueue``
        is scheduled per cell at its exact departure time.

        **Horizon rule.**  No pending event can put a cell on this
        link before its horizon ``H`` (:meth:`Simulator.horizon`), so
        departures strictly before ``H`` are final, and so are this
        train's departures already due.  The trains this link holds
        are folded in: every cell before ``H`` is served in the order
        the per-cell enqueues would run, by departure time and then by
        the seq each train's commit event carries.  Cells due at or
        after ``H`` stay held and are committed when their time comes.
        """
        held = self._held
        held.pop(train, None)
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
        now = sim.now
        seq = sim.current_seq
        times = train.times
        horizon = sim.horizon(self._reach)
        merge = [(t, ev) for t, ev in held.items() if t.times[0] < horizon]
        if merge:
            if n + self._train_inflight + sum(
                    len(t.cells) for t in held) > self.buffer_cells:
                # near a full buffer each train is checked at its own
                # commit, so the held ones stay pending commits here
                for t, _ev in merge:
                    if t.times[0] < horizon:
                        horizon = t.times[0]
                merge = ()
            elif train.final:
                # the running event no longer stands in the final
                # index, but its last cell still bounds the others
                reach = self._final_reach(train)
                if reach < horizon:
                    horizon = reach
        k = bisect_left(times, horizon)
        if k < n and times[k] <= now:
            k = bisect_right(times, now)
        if k < n:
            self.hold(train.split(k) if k else train, seq)
        batch = [(times[0], seq, train)] if k else []
        for t, ev in merge:
            m = bisect_left(t.times, horizon)
            if m:
                ev.cancel()
                del held[t]
                if m < len(t.cells):
                    self.hold(t.split(m), ev.seq)
                batch.append((t.times[0], ev.seq, t))
        if not batch:
            return 0
        if len(batch) == 1:
            flat = batch[0][2].times
            order = range(len(flat))
        else:
            # the order the per-cell enqueues would run in: laid out by
            # seq, a stable sort on departure breaks ties by seq
            pieces = [t.times for _d, _s, t in sorted(batch, key=_by_seq)]
            flat = list(chain.from_iterable(pieces))
            order = sorted(range(len(flat)), key=flat.__getitem__)
        # serve the cells in that order, FIFO behind everything
        # committed before; each departure becomes its far-end arrival
        tx = self._tx
        prop = self.prop_delay
        free = self._free_at
        residency = self.residency_seconds
        fs = self._future_starts
        occ_max = 0
        for i in order:
            d = flat[i]
            start = free if free > d else d
            residency += start - d
            free = start + tx
            flat[i] = free + prop
            while fs and fs[0] <= d:
                fs.popleft()
            fs.append(start)
            if len(fs) > occ_max:
                occ_max = len(fs)
        total = len(flat)
        stats = self.stats
        stats.enqueued += total
        self._free_at = free
        self.residency_seconds = residency
        self._train_inflight += total
        # a queued cell walks through the queue between arrival and
        # service start; replay the same gauge excursion (peak depth
        # seen, then drained) so snapshots match the per-cell queue
        self._m_occupancy.set(occ_max)
        self._m_occupancy.set(0)
        if len(batch) > 1:
            i = 0
            for tm in pieces:
                tm[:] = flat[i:i + len(tm)]
                i += len(tm)
            batch.sort(key=_by_departure)
        for _d, s, t in batch:
            stats.busy_time += tx * len(t.times)
            self.sim.schedule_piece(t.times[0], s, self._deliver_train, t,
                                    link=self, departures=False)
        if train.charged:
            sim.charge_cells(total - 1)
        return total

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
        precedes the horizon of a delivery — the next event outside the
        train path or final piece, since only those can change link or
        sink state — and hands the survivors to the train sink in one
        call.  Cells finishing at or beyond it are re-delivered when
        their arrival comes round, so a fault or error-RNG arming event
        never bisects a decided batch.
        """
        sim = self.sim
        times = train.times
        cells = train.cells
        n = len(cells)
        prop = self.prop_delay
        if n > 1:
            horizon = sim.horizon(())
            if times[n - 1] - prop >= horizon:
                now = sim.now
                k = 1
                while k < n and (times[k] - prop < horizon
                                 or times[k] - prop <= now):
                    k += 1
                if k < n:
                    # re-delivery inherits this event's seq for the
                    # same reason commit continuations do: the per-cell
                    # finish events for the remaining cells are
                    # sequenced with this delivery
                    rest = train.split(k)
                    sim.schedule_piece(rest.times[0], sim.current_seq,
                                       self._deliver_train, rest,
                                       link=self, departures=False)
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
                charged=train.charged, route=train.route, hop=train.hop))

    def _deliver_cell(self, cell: Cell, category: ServiceCategory,
                      arrival: float) -> None:
        """Book one cell's arrival at the far end as an event of its
        own, so the receiver meets it in the state of that instant."""
        self.sim.schedule_at(arrival, self.sink_train,
                             CellTrain([cell], category, [arrival],
                                       per_cell=True))
