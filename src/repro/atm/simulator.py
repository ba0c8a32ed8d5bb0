"""Discrete-event simulation kernel.

A single :class:`Simulator` instance owns simulated time for one MITS
deployment.  Components schedule callbacks at absolute or relative
times; the kernel pops them in time order (FIFO among equal
timestamps) and runs them.  Long-running behaviours can be written as
generator :class:`Process` objects that ``yield`` delays.

The kernel is deliberately minimal — no real-time pacing, no threads —
so experiments are deterministic and fast: a full courseware download
over a simulated 155 Mb/s OC-3 link is just a few thousand events.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass, field
from typing import Any, Callable, Generator, Optional, Tuple

from repro.obs.accounting import Ledger
from repro.obs.events import FlightRecorder
from repro.obs.metrics import MetricsRegistry
from repro.obs.tracing import Tracer


INF = float("inf")


@dataclass(order=True, slots=True)
class Event:
    """A scheduled callback.  Ordered by (time, seq) for determinism."""

    time: float
    seq: int
    callback: Callable[..., Any] = field(compare=False)
    args: tuple = field(compare=False, default=())
    #: the event will not fire (any more): cancelled, or already run.
    #: The kernel's side indices drop such entries lazily.
    cancelled: bool = field(compare=False, default=False)

    def cancel(self) -> None:
        """Prevent the event from firing (it stays in the heap as a no-op)."""
        self.cancelled = True


def _top(heap: list) -> float:
    """Time of the first live entry of a heap of ``(time, _, event)``,
    dropping dead ones."""
    while heap and heap[0][2].cancelled:
        heapq.heappop(heap)
    return heap[0][0] if heap else INF


def file_entry(index: list, entry: Tuple[float, int, Event]) -> None:
    """Add ``(time, tie-break, event)`` to a side index.  Dead entries
    at its top go first, so they do not pile up."""
    while index and index[0][2].cancelled:
        heapq.heappop(index)
    heapq.heappush(index, entry)


class Simulator:
    """Event-queue simulator with deterministic tie-breaking."""

    def __init__(self, *, ledger: Optional[Ledger] = None) -> None:
        #: heap of (time, seq, event): ordering is a C-level tuple
        #: compare, and only an inherited-seq tie reaches the Event
        self._queue: list[tuple[float, int, Event]] = []
        self._seq = itertools.count()
        self._now = 0.0
        self._events_run = 0
        self._events_scheduled = 0
        #: shared observability: every component attached to this
        #: simulator records into the same registry/tracer/recorder
        self.metrics = MetricsRegistry()
        self.tracer = Tracer(clock=lambda: self._now)
        self.recorder = FlightRecorder(clock=lambda: self._now)
        #: per-entity accounting; disabled by default, so components
        #: register nothing and no trace is tallied (see obs/accounting)
        self.ledger = ledger if ledger is not None else Ledger(enabled=False)
        #: stateful endpoints (connections, players, ...) register here
        #: so the ConservationAuditor can find them without a topology
        self.entities: dict[str, list] = {}
        #: a TelemetrySampler attached via its start(); schedule() wakes
        #: it from dormancy when new work arrives (see obs/timeseries)
        self._sampler: Optional[Any] = None
        #: per-cell-equivalent events credited so far via charge_cells()
        #: — lets train handlers (one event for a whole cell train) keep
        #: events_run at one-event-per-cell scale, while
        #: ``events_run - event_extra`` stays the callbacks executed
        self.event_extra = 0
        #: heap seq of the event currently executing — the tie-break
        #: identity train continuations inherit via reschedule_at()
        self.current_seq: Optional[int] = None
        #: side indices for link horizons (DESIGN.md "The horizon
        #: rule"), heaps of (time, tie-break, event): the pending events
        #: outside the train path at their own times, and the pending
        #: train pieces that carry a frame's last cell at the earliest
        #: time that cell can reach its host.  Links keep the third
        #: kind, the pieces routed to them.
        self._outside: list[tuple[float, int, Event]] = []
        self._finals: list[tuple[float, int, Event]] = []
        self._index_seq = itertools.count()
        #: set by schedule_piece(): the next push is a train piece,
        #: which its booking site files instead of ``_outside``
        self._piece_next = False
        #: events booked outside run(), as (event, link, departures)
        #: with link None for ``_outside``: only a run's horizons read
        #: the indices, so they are filed when the next run() starts,
        #: if still pending
        self._unfiled: list[tuple[Event, Any, bool]] = []
        #: the running run()'s until (INF without one); None outside
        #: run(), so a step() commits no further than the next event
        self._until: Optional[float] = None
        self.metrics.read_through("simulator", "events_run", self,
                                  "_events_run")
        self.metrics.read_through("simulator", "events_scheduled", self,
                                  "_events_scheduled")
        self._m_depth = self.metrics.gauge("simulator", "queue_depth")

    def register_entity(self, kind: str, obj: Any) -> None:
        """Expose *obj* (a connection, player, ...) to the auditor."""
        self.entities.setdefault(kind, []).append(obj)

    @property
    def now(self) -> float:
        """Current simulated time in seconds."""
        return self._now

    @property
    def events_run(self) -> int:
        """Total number of events executed so far (for diagnostics)."""
        return self._events_run

    def schedule(self, delay: float, callback: Callable[..., Any], *args: Any) -> Event:
        """Schedule *callback(*args)* to run *delay* seconds from now."""
        if delay < 0:
            raise ValueError(f"cannot schedule into the past (delay={delay})")
        return self._push(self._now + delay, next(self._seq), callback, args)

    def schedule_at(self, time: float, callback: Callable[..., Any], *args: Any) -> Event:
        """Schedule *callback* at absolute simulated *time*.

        The event fires at exactly *time* — not ``now + (time - now)``,
        whose round-trip through float subtraction can land one ULP
        off.  Cell trains rely on this: arithmetic cell times and event
        timestamps must be the same floats, or a train would deliver
        one ULP away from the per-cell queue.
        """
        if time < self._now:
            self._piece_next = False
            raise ValueError(
                f"cannot schedule into the past (time={time}, now={self._now})")
        return self._push(time, next(self._seq), callback, args)

    def reschedule_at(self, time: float, seq: Optional[int],
                      callback: Callable[..., Any], *args: Any) -> Event:
        """Schedule *callback* at *time*, inheriting tie-break *seq*.

        A link re-schedules the un-final remainder of a cell train as
        a continuation event.  Among equal timestamps the heap breaks
        ties by seq, and the per-cell events a continuation stands
        for are sequenced when the train was
        first scheduled — so the continuation must compete with that
        original seq, not a fresh one, or a rival train scheduled
        after it (higher seq) but due at the same instant would
        overtake cells it should queue behind.  ``seq=None`` falls
        back to a fresh sequence number.
        """
        if seq is None:
            return self.schedule_at(time, callback, *args)
        if time < self._now:
            self._piece_next = False
            raise ValueError(
                f"cannot schedule into the past (time={time}, now={self._now})")
        return self._push(time, seq, callback, args)

    def schedule_piece(self, time: float, seq: Optional[int],
                       callback: Callable[..., Any], *args: Any,
                       link: Any = None, departures: bool = False) -> Event:
        """Schedule a train-piece event (a commit, delivery or
        reassembly of part of a cell train) at *time*, inheriting *seq*
        as :meth:`reschedule_at` does.

        It goes through ``schedule_at``/``reschedule_at`` like any
        event, but stays out of the index of events that can reach
        every link.  With *link*, the piece ``args[0]`` is a train on
        that link, which files it where it can put a cell
        (``Link.file_piece``): now, or, outside run(), when the next
        run() starts.  Without, it reaches no link.
        """
        self._piece_next = True
        if seq is None:
            ev = self.schedule_at(time, callback, *args)
        else:
            ev = self.reschedule_at(time, seq, callback, *args)
        if link is not None:
            if self._until is None:
                self._unfiled.append((ev, link, departures))
            else:
                link.file_piece(ev, departures)
        return ev

    def _file_unfiled(self) -> None:
        """File what was booked outside run() and is still pending."""
        outside = self._outside
        for ev, link, departures in self._unfiled:
            if ev.cancelled:
                continue
            if link is None:
                file_entry(outside, (ev.time, ev.seq, ev))
            else:
                link.file_piece(ev, departures)
        self._unfiled.clear()

    def horizon(self, reach: list) -> float:
        """Earliest time a pending event can put a cell on the link
        whose reach index is *reach* (``()`` for a delivery, which only
        events outside the train path and final pieces can touch).

        The lookahead stops at the ``until`` of the running ``run``
        call: from there on, and under ``step()``, the horizon is the
        next event of any kind, so the state a run or step leaves
        behind does not depend on how far links looked ahead.
        """
        until = self._until
        if until is None:
            return _top(self._queue)
        h = _top(self._outside)
        t = _top(self._finals)
        if t < h:
            h = t
        if reach:
            t = _top(reach)
            if t < h:
                h = t
        if h > until:
            # every index entry is pending, so the next event is no
            # later than h
            nxt = _top(self._queue)
            h = nxt if nxt > until else until
        return h

    def _push(self, time: float, seq: int, callback: Callable[..., Any],
              args: tuple) -> Event:
        ev = Event(time, seq, callback, args)
        entry = (time, seq, ev)
        heapq.heappush(self._queue, entry)
        if self._piece_next:
            self._piece_next = False
        elif self._until is None:
            unfiled = self._unfiled
            if len(unfiled) > len(self._queue) + 32:
                # a live entry is pending in the queue, so most of
                # these are dead: drop them all at once
                unfiled[:] = [u for u in unfiled if not u[0].cancelled]
            unfiled.append((ev, None, False))
        else:
            file_entry(self._outside, entry)
        self._events_scheduled += 1
        self._m_depth.set(len(self._queue))
        sampler = self._sampler
        if sampler is not None and sampler.dormant:
            sampler.wake()
        return ev

    def charge_cells(self, extra: int) -> None:
        """Credit *extra* per-cell-equivalent events to the running event.

        Train handlers process a whole cell train in one callback;
        charging the equivalent one-event-per-cell count keeps
        ``events_run`` (and everything derived from it: bench vectors,
        the perf floor) a per-cell measure of simulated work,
        independent of how cells were batched.  ``event_extra``
        accumulates the credits, so ``events_run - event_extra`` is
        the number of callbacks actually executed.
        """
        if extra <= 0:
            return
        self._events_run += extra
        self.event_extra += extra

    def run(self, until: Optional[float] = None, max_events: Optional[int] = None) -> float:
        """Run events in order.

        Stops when the queue drains, when the next event lies beyond
        *until*, or after *max_events* events.  Returns the simulated
        time reached.  When stopping at *until*, the clock is advanced
        to exactly *until* so back-to-back ``run`` calls compose — but
        only when no runnable event remains at or before *until*: if
        the *max_events* budget stops us mid-timeline, the clock stays
        at the last executed event so a subsequent ``run`` resumes
        without ever moving time backwards.  An *until* already in the
        past runs nothing and leaves the clock where it is.
        """
        if until is not None and until < self._now:
            return self._now
        count = 0
        queue = self._queue
        outer = self._until
        self._until = INF if until is None else until
        if self._unfiled:
            self._file_unfiled()
        try:
            while queue:
                ev = queue[0][2]
                if ev.cancelled:
                    heapq.heappop(queue)
                    self._m_depth.set(len(queue))
                    continue
                if until is not None and ev.time > until:
                    self._now = until
                    return self._now
                heapq.heappop(queue)
                self._now = ev.time
                self.current_seq = ev.seq
                ev.cancelled = True
                self._execute(ev)
                count += 1
                if max_events is not None and count >= max_events:
                    break
        finally:
            self._until = outer
        if until is not None and self._now < until:
            nxt = self._next_event_time()
            if nxt is None or nxt > until:
                self._now = until
        return self._now

    def _execute(self, ev: Event) -> None:
        ev.callback(*ev.args)
        # a run event can wait in a side index until its entry is
        # dropped: let go of the cell train it carried
        ev.args = ()
        self._events_run += 1
        self._m_depth.set(len(self._queue))

    def _next_event_time(self) -> Optional[float]:
        """Timestamp of the next runnable event (cancelled ones are
        lazily discarded), or None when the queue is effectively empty."""
        queue = self._queue
        while queue and queue[0][2].cancelled:
            heapq.heappop(queue)
        self._m_depth.set(len(queue))
        return queue[0][0] if queue else None

    def step(self) -> bool:
        """Run exactly one event.  Returns False if the queue is empty."""
        while self._queue:
            ev = heapq.heappop(self._queue)[2]
            if ev.cancelled:
                continue
            self._now = ev.time
            self.current_seq = ev.seq
            ev.cancelled = True
            self._execute(ev)
            return True
        return False

    def pending(self) -> int:
        """Number of not-yet-cancelled events in the queue."""
        return sum(1 for _, _, ev in self._queue if not ev.cancelled)

    def spawn(self, generator: Generator[float, None, None]) -> "Process":
        """Start a generator-based process; it runs its first segment now."""
        proc = Process(self, generator)
        proc._advance()
        return proc


class Process:
    """Generator-driven process.

    The generator yields the number of simulated seconds to sleep
    before its next segment runs.  Returning (StopIteration) ends the
    process.  ``kill()`` stops it between segments.
    """

    def __init__(self, sim: Simulator, generator: Generator[float, None, None]) -> None:
        self._sim = sim
        self._gen = generator
        self._alive = True
        self._pending_event: Optional[Event] = None

    @property
    def alive(self) -> bool:
        return self._alive

    def kill(self) -> None:
        """Terminate the process; its pending wakeup (if any) is cancelled."""
        self._alive = False
        if self._pending_event is not None:
            self._pending_event.cancel()
            self._pending_event = None

    def _advance(self) -> None:
        if not self._alive:
            return
        try:
            delay = next(self._gen)
        except StopIteration:
            self._alive = False
            self._pending_event = None
            return
        self._pending_event = self._sim.schedule(delay, self._advance)
