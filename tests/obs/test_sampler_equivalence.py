"""The telemetry sampler against the one-append-per-tick reference in
``reference_sampler.py``: for any interleaving of registrations,
updates, ticks, same-instant flushes and extra read-through sources,
the archive's ``series`` and delta ``telemetry`` records, decoded tick
by tick by the loader's decoder, give the reference's rows.  Without a
sink the sampler reads nothing and streams nothing."""

from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs.metrics import MetricsRegistry
from repro.obs.timeseries import TelemetrySampler

from tests.obs.archives import Decoded
from tests.obs.reference_sampler import ReferenceSampler


class _Stats:
    def __init__(self):
        self.count = 0


_OPS = st.one_of(
    st.tuples(st.just("counter"), st.integers(0, 2), st.integers(0, 5)),
    st.tuples(st.just("gauge"), st.integers(0, 1),
              st.one_of(st.floats(-4, 4, allow_nan=False),
                        st.integers(-2, 2))),
    st.tuples(st.just("hist"), st.integers(0, 1),
              st.floats(1e-7, 70.0, allow_nan=False)),
    st.tuples(st.just("read_through"), st.integers(0, 2),
              st.integers(0, 3)),
    st.tuples(st.just("bump"), st.integers(0, 2), st.integers(-2, 9)),
    st.tuples(st.just("advance"),
              st.sampled_from([0.0, 0.25, 0.5, 1.0, 3.0])),
    st.just(("sample",)),
    st.just(("sample",)),
)

#: ring size for the reference, which compares only the rows it returns
_REFERENCE_CAPACITY = 4


def _run(ops, sink):
    registry = MetricsRegistry()
    sim = SimpleNamespace(now=0.0, metrics=registry)
    sampler = TelemetrySampler(sim)
    reference = ReferenceSampler(registry, _REFERENCE_CAPACITY)
    want = []
    decoded = Decoded(sampler) if sink else None
    stats = [_Stats() for _ in range(3)]
    for op in ops:
        kind = op[0]
        if kind == "counter":
            registry.counter("work", f"c{op[1]}").value += op[2]
        elif kind == "gauge":
            registry.gauge("work", "level", slot=op[1]).set(op[2])
        elif kind == "hist":
            registry.histogram("work", "latency", slot=op[1]).observe(op[2])
        elif kind == "read_through":
            # a repeat registration adds another source to the same key
            registry.read_through("link", "cells", stats[op[2] % 3],
                                  "count", link=op[1])
        elif kind == "bump":
            stats[op[1]].count += op[2]  # may move backwards
        elif kind == "advance":
            sim.now += op[1]
        elif kind == "sample":
            sampler.sample()
            rows = reference.sample(sim.now)
            if sink:
                want.append((sim.now, rows))
    return sampler, decoded.ticks if sink else [], want


@settings(max_examples=300, deadline=None)
@given(ops=st.lists(_OPS, max_size=80))
def test_archive_rows_match_the_reference(ops):
    _, got, want = _run(ops, True)
    # repr, so that 0 and 0.0, or 0.0 and -0.0, count as different
    assert repr(got) == repr(want)


@pytest.mark.parametrize("ops", [
    # the p99 moves between ticks
    [("hist", 0, 1e-6), ("sample",), ("advance", 1.0), ("hist", 0, 50.0),
     ("hist", 0, 60.0), ("sample",), ("advance", 1.0), ("sample",)],
    # a second source joins a read-through mid-run
    [("read_through", 0, 0), ("bump", 0, 3), ("sample",), ("advance", 1.0),
     ("read_through", 0, 1), ("bump", 1, 4), ("sample",)],
    # equal readings of another type or sign are changes
    [("gauge", 0, 0), ("sample",), ("advance", 1.0), ("gauge", 0, 0.0),
     ("sample",), ("advance", 1.0), ("gauge", 0, -0.0), ("sample",),
     ("advance", 1.0), ("sample",)],
], ids=["p99-moves", "second-source", "zero-types"])
@pytest.mark.parametrize("sink", [False, True])
def test_rewrites_match_the_reference(ops, sink):
    sampler, got, want = _run(ops, sink)
    assert repr(got) == repr(want)
    if not sink:
        # nothing streamed, and nothing was read to stream
        assert got == [] and sampler._columns == ()


def test_flush_after_new_registrations_keeps_the_first_reading():
    """A same-instant flush records only series new since the tick;
    the next rate is taken from the first reading, not the flush's."""
    ops = [("counter", 0, 1), ("sample",), ("counter", 0, 4),
           ("counter", 1, 2), ("sample",), ("advance", 1.0),
           ("counter", 0, 3), ("sample",)]
    _, got, want = _run(ops, True)
    assert repr(got) == repr(want)
    rates = [row[5] for _, rows in got for row in rows
             if row[:2] == ["work", "c0"]]
    assert rates == [0.0, 7.0]
