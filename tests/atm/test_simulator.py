"""Tests for the discrete-event kernel."""

import types

import pytest

from repro.atm.simulator import Simulator


class TestScheduling:
    def test_events_run_in_time_order(self):
        sim = Simulator()
        order = []
        sim.schedule(2.0, order.append, "b")
        sim.schedule(1.0, order.append, "a")
        sim.schedule(3.0, order.append, "c")
        sim.run()
        assert order == ["a", "b", "c"]

    def test_fifo_among_equal_timestamps(self):
        sim = Simulator()
        order = []
        for tag in range(5):
            sim.schedule(1.0, order.append, tag)
        sim.run()
        assert order == [0, 1, 2, 3, 4]

    def test_now_advances_to_event_time(self):
        sim = Simulator()
        seen = []
        sim.schedule(1.5, lambda: seen.append(sim.now))
        sim.run()
        assert seen == [1.5]

    def test_negative_delay_rejected(self):
        sim = Simulator()
        with pytest.raises(ValueError):
            sim.schedule(-0.1, lambda: None)

    def test_run_until_stops_before_future_events(self):
        sim = Simulator()
        fired = []
        sim.schedule(5.0, fired.append, 1)
        end = sim.run(until=1.0)
        assert fired == [] and end == 1.0 and sim.now == 1.0
        sim.run(until=10.0)
        assert fired == [1]

    def test_run_until_advances_clock_even_when_idle(self):
        sim = Simulator()
        sim.run(until=7.0)
        assert sim.now == 7.0

    def test_run_until_in_the_past_leaves_the_clock(self):
        sim = Simulator()
        fired = []
        sim.schedule(5.0, fired.append, "late")
        sim.run(until=3.0)
        assert sim.run(until=1.0) == 3.0 and sim.now == 3.0
        sim.schedule(0.5, lambda: fired.append(sim.now))
        sim.run()
        assert fired == [3.5, "late"]

    def test_cancelled_event_does_not_fire(self):
        sim = Simulator()
        fired = []
        ev = sim.schedule(1.0, fired.append, 1)
        ev.cancel()
        sim.run()
        assert fired == []

    def test_events_scheduled_during_run(self):
        sim = Simulator()
        order = []

        def first():
            order.append("first")
            sim.schedule(1.0, order.append, "second")

        sim.schedule(1.0, first)
        sim.run()
        assert order == ["first", "second"]

    def test_schedule_at_absolute_time(self):
        sim = Simulator()
        sim.schedule(1.0, lambda: None)
        sim.run()
        seen = []
        sim.schedule_at(3.0, lambda: seen.append(sim.now))
        sim.run()
        assert seen == [3.0]

    def test_step_runs_single_event(self):
        sim = Simulator()
        fired = []
        sim.schedule(1.0, fired.append, 1)
        sim.schedule(2.0, fired.append, 2)
        assert sim.step() is True
        assert fired == [1]
        assert sim.step() is True
        assert sim.step() is False

    def test_max_events_bound(self):
        sim = Simulator()
        fired = []
        for i in range(10):
            sim.schedule(float(i), fired.append, i)
        sim.run(max_events=3)
        assert fired == [0, 1, 2]


class TestMaxEventsClockRegression:
    """run(until, max_events) must not jump the clock over queued
    events: doing so made a follow-up run() execute them with time
    moving backwards."""

    def test_clock_stays_at_last_executed_event(self):
        sim = Simulator()
        for t in (1.0, 2.0, 3.0):
            sim.schedule(t, lambda: None)
        sim.run(until=10.0, max_events=1)
        assert sim.now == 1.0  # not fast-forwarded to 10.0

    def test_time_never_moves_backwards_across_runs(self):
        sim = Simulator()
        seen = []
        for t in (1.0, 2.0, 3.0):
            sim.schedule(t, lambda: seen.append(sim.now))
        sim.run(until=10.0, max_events=1)
        sim.run(until=10.0)
        assert seen == [1.0, 2.0, 3.0]
        assert seen == sorted(seen)
        assert sim.now == 10.0

    def test_fast_forward_when_remaining_events_beyond_until(self):
        sim = Simulator()
        sim.schedule(1.0, lambda: None)
        sim.schedule(50.0, lambda: None)
        # budget stops us after the 1.0 event; the only survivor is at
        # 50.0 > until, so composing runs may still advance to until
        sim.run(until=10.0, max_events=1)
        assert sim.now == 10.0

    def test_fast_forward_ignores_cancelled_events(self):
        sim = Simulator()
        sim.schedule(1.0, lambda: None)
        ev = sim.schedule(5.0, lambda: None)
        ev.cancel()
        sim.run(until=10.0, max_events=1)
        assert sim.now == 10.0


class TestEventCounts:
    @pytest.mark.parametrize("drive", ["run", "step"])
    def test_charged_cells_keep_the_executed_identity(self, drive):
        """Batched handlers process a whole cell train in one callback
        and bill the per-cell equivalents via charge_cells:
        ``events_run`` counts callbacks plus charges, and
        ``events_run - event_extra`` is the callbacks executed."""
        sim = Simulator()
        charges = [4, 0, 7, 1]
        for i, k in enumerate(charges):
            sim.schedule(float(i), sim.charge_cells, k)
        sim.schedule(9.0, lambda: None)
        if drive == "run":
            sim.run()
        else:
            while sim.step():
                pass
        executed = len(charges) + 1
        assert sim.events_run == executed + sum(charges) == 17
        assert sim.event_extra == sum(charges)
        assert sim.events_run - sim.event_extra == executed


class TestDispatch:
    def test_execute_has_no_timing_branch(self):
        """Every event runs through the plain class method: no clock
        reads and no nested code objects (closures would mean a
        per-event allocation).  Wall time is measured from outside."""
        code = Simulator._execute.__code__
        assert not any(isinstance(c, types.CodeType)
                       for c in code.co_consts)
        assert not {"perf_counter", "time", "_time"} & set(code.co_names)
        sim = Simulator()
        sim.schedule(0.0, lambda: None)
        sim.run()
        assert "_execute" not in sim.__dict__


class TestCurrentSeq:
    """``current_seq`` is the tie-break identity a train continuation
    inherits through ``reschedule_at``; it must name the event that is
    executing, whichever of run() or step() drove it."""

    def test_step_sets_the_running_events_seq(self):
        sim = Simulator()
        sim.schedule(0.0, lambda: None)
        sim.run()
        seen = []
        ev = sim.schedule(1.0, lambda: seen.append(sim.current_seq))
        assert sim.step()
        assert seen == [ev.seq] == [1]

    def test_run_sets_the_running_events_seq(self):
        sim = Simulator()
        seen = []
        events = [sim.schedule(0.5, lambda: seen.append(sim.current_seq))
                  for _ in range(3)]
        sim.run()
        assert seen == [ev.seq for ev in events]

    def test_continuation_under_step_keeps_its_place(self):
        """A continuation rescheduled from a stepped event competes
        with that event's seq, not with a seq left over from an
        earlier run(): a rival sequenced before the original event and
        due at the same instant still goes first."""
        sim = Simulator()
        sim.schedule(0.0, lambda: None)
        sim.run()
        order = []

        def head():
            order.append("head")
            sim.reschedule_at(2.0, sim.current_seq, order.append, "tail")

        sim.schedule(2.0, order.append, "rival")
        sim.schedule(1.0, head)
        while sim.step():
            pass
        assert order == ["head", "rival", "tail"]


class TestInheritedSeqTie:
    """Two continuations can inherit the same seq at the same time, so
    their heap entries tie on (time, seq); the tie falls through to
    the events, which compare equal, and never to the callbacks."""

    @staticmethod
    def drive(mode):
        sim = Simulator()
        order = []

        def head():
            seq = sim.current_seq
            sim.reschedule_at(2.0, seq, order.append, "first")
            sim.reschedule_at(2.0, seq, order.append, "second")

        sim.schedule(2.0, order.append, "early rival")
        sim.schedule(1.0, head)
        sim.schedule(2.0, order.append, "late rival")
        if mode == "run":
            sim.run()
        else:
            while sim.step():
                pass
        return order

    @pytest.mark.parametrize("mode", ["run", "step"])
    def test_tied_entries_fire_in_insertion_order(self, mode):
        assert self.drive(mode) == ["early rival", "first", "second",
                                    "late rival"]

    def test_run_and_step_agree(self):
        assert self.drive("run") == self.drive("step")


class TestProcess:
    def test_process_yields_delays(self):
        sim = Simulator()
        times = []

        def proc():
            times.append(sim.now)
            yield 1.0
            times.append(sim.now)
            yield 2.0
            times.append(sim.now)

        sim.spawn(proc())
        sim.run()
        assert times == [0.0, 1.0, 3.0]

    def test_process_kill_stops_it(self):
        sim = Simulator()
        ticks = []

        def proc():
            while True:
                ticks.append(sim.now)
                yield 1.0

        p = sim.spawn(proc())
        sim.run(until=2.5)
        p.kill()
        sim.run(until=10.0)
        assert p.alive is False
        assert len(ticks) == 3  # t=0, 1, 2

    def test_process_finishes_naturally(self):
        sim = Simulator()

        def proc():
            yield 1.0

        p = sim.spawn(proc())
        assert p.alive
        sim.run()
        assert not p.alive
