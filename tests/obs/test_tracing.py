"""Tests for the span tracer."""

from repro.atm.simulator import Simulator
from repro.obs import TraceContext, Tracer
from repro.obs.tracing import MAX_SPANS, NULL_SPAN


def _enabled(clock):
    """A tracer switched on, as MitsSystem(tracing=True) does."""
    tr = Tracer(clock=clock)
    tr.enabled = True
    return tr


class TestDisabled:
    def test_disabled_returns_shared_null_span(self):
        tr = Tracer(clock=lambda: 0.0)
        assert tr.span("x") is NULL_SPAN
        assert tr.span("y") is NULL_SPAN
        with tr.span("z", a=1) as sp:
            sp.set(b=2)
        assert tr.spans == []


class TestSpans:
    def test_span_records_simulated_interval(self):
        sim = Simulator()
        tr = _enabled(lambda: sim.now)
        sp = tr.span("download", course="B101")
        sim.schedule(2.5, sp.end)
        sim.run()
        [rec] = tr.spans
        assert rec.name == "download"
        assert rec.start == 0.0
        assert rec.end == 2.5
        assert rec.duration == 2.5
        assert rec.attrs == {"course": "B101"}

    def test_nesting_assigns_parents(self):
        t = [0.0]
        tr = _enabled(lambda: t[0])
        with tr.span("outer") as outer:
            t[0] = 1.0
            with tr.span("inner"):
                t[0] = 2.0
        inner_rec, outer_rec = tr.spans
        assert inner_rec.name == "inner"
        assert inner_rec.parent_id == outer.span_id
        assert outer_rec.parent_id is None

    def test_context_manager_records_error(self):
        tr = _enabled(lambda: 0.0)
        try:
            with tr.span("boom"):
                raise ValueError("x")
        except ValueError:
            pass
        [rec] = tr.spans
        assert rec.attrs["error"] == "ValueError"

    def test_double_end_is_idempotent(self):
        tr = _enabled(lambda: 0.0)
        sp = tr.span("once")
        sp.end()
        sp.end()
        assert len(tr.spans) == 1

    def test_bounded_with_drop_count(self):
        tr = _enabled(lambda: 0.0)
        for i in range(MAX_SPANS + 15):
            tr.span(f"s{i}").end()
        assert len(tr.spans) == MAX_SPANS
        assert tr.dropped == 15
        assert tr.spans[0].name == "s15"

    def test_aggregate_groups_by_name(self):
        t = [0.0]
        tr = _enabled(lambda: t[0])
        for dur in (1.0, 3.0):
            sp = tr.span("load")
            t[0] += dur
            sp.end()
        agg = tr.aggregate()
        assert agg["load"]["count"] == 2
        assert agg["load"]["total"] == 4.0
        assert agg["load"]["max"] == 3.0


class TestTraceContext:
    def test_disabled_span_carries_no_context(self):
        tr = Tracer(clock=lambda: 0.0)
        assert tr.span("x").context is None

    def test_roots_mint_distinct_trace_ids(self):
        tr = _enabled(lambda: 0.0)
        a, b = tr.span("a"), tr.span("b")
        assert a.trace_id != b.trace_id
        assert a.parent_id is None and b.parent_id is None

    def test_children_inherit_the_trace_id(self):
        tr = _enabled(lambda: 0.0)
        with tr.span("root") as root:
            child = tr.span("child")
        assert child.trace_id == root.trace_id
        assert child.parent_id == root.span_id

    def test_explicit_parent_beats_ambient_context(self):
        tr = _enabled(lambda: 0.0)
        other = tr.span("other")
        with tr.span("ambient"):
            token = tr.attach(other.context)
            child = tr.span("a")
            tr.detach(token)
        assert child.parent_id == other.span_id
        assert child.trace_id == other.trace_id

    def test_attach_token_restores_displaced_context(self):
        tr = _enabled(lambda: 0.0)
        first = TraceContext(trace_id=7, span_id=1)
        second = TraceContext(trace_id=7, span_id=2)
        assert tr.current is None
        token1 = tr.attach(first)
        token2 = tr.attach(second)
        assert tr.current is second
        tr.detach(token2)
        assert tr.current is first
        tr.detach(token1)
        assert tr.current is None

    def test_bare_span_leaves_ambient_context_untouched(self):
        tr = _enabled(lambda: 0.0)
        with tr.span("root") as root:
            sp = tr.span("bare")
            assert tr.current == root.context
            sp.end()
            assert tr.current == root.context


class TestInterleavedCallbacks:
    def test_interleaved_closes_keep_correct_parents(self):
        """Regression: spans opened by interleaved simulator callbacks
        must all parent to the ambient root, regardless of the order in
        which they end.  The old stack-based tracer re-parented later
        spans onto whichever unfinished span happened to sit on top."""
        tr = _enabled(lambda: 0.0)
        with tr.span("root") as root:
            a = tr.span("cb-a")       # callback A starts work
            b = tr.span("cb-b")       # callback B starts before A ends
            a.end()                   # A finishes first
            c = tr.span("cb-c")       # C opens after the out-of-order end
            b.end()
            c.end()
        recs = {r.name: r for r in tr.spans}
        for name in ("cb-a", "cb-b", "cb-c"):
            assert recs[name].parent_id == root.span_id, name
            assert recs[name].trace_id == root.trace_id, name

    def test_resumed_context_parents_across_a_gap(self):
        """A callback scheduled for later re-attaches the issuing
        context, so work done there joins the original trace."""
        sim = Simulator()
        tr = sim.tracer
        tr.enabled = True
        with tr.span("request") as req:
            saved = req.context

        def later():
            token = tr.attach(saved)
            try:
                tr.span("continuation").end()
            finally:
                tr.detach(token)

        sim.schedule(1.0, later)
        # an unrelated root span opened in between must not capture it
        with tr.span("unrelated"):
            pass
        sim.run()
        [cont] = [s for s in tr.spans if s.name == "continuation"]
        assert cont.trace_id == req.trace_id
        assert cont.parent_id == req.span_id


class TestAggregates:
    def test_aggregate_has_quantiles_and_mean(self):
        t = [0.0]
        tr = _enabled(lambda: t[0])
        for dur in (1.0, 2.0, 3.0, 4.0):
            sp = tr.span("load")
            t[0] += dur
            sp.end()
        agg = tr.aggregate()["load"]
        assert agg["count"] == 4
        assert agg["min"] == 1.0
        assert agg["max"] == 4.0
        assert agg["mean"] == 2.5
        assert agg["p50"] == 2.0
        assert agg["p99"] == 4.0

    def test_single_sample_quantiles(self):
        t = [0.0]
        tr = _enabled(lambda: t[0])
        sp = tr.span("one")
        t[0] = 0.5
        sp.end()
        agg = tr.aggregate()["one"]
        assert agg["p50"] == agg["p99"] == agg["min"] == agg["max"] == 0.5


class TestSimulatorIntegration:
    def test_simulator_owns_a_tracer(self):
        sim = Simulator()
        assert sim.tracer.enabled is False
        sim.tracer.enabled = True
        sp = sim.tracer.span("tick")
        sim.schedule(1.0, sp.end)
        sim.run()
        [tick] = sim.tracer.spans
        assert tick.name == "tick" and tick.duration == 1.0
