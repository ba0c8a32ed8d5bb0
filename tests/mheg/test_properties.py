"""Property-based tests on MHEG engine and codec invariants."""

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.atm.simulator import Simulator
from repro.mheg import (
    ActionVerb, AudioContentClass, CompositeClass, ElementaryAction,
    MhegCodec, MhegEngine,
)
from repro.mheg.asn1 import parse_value
from repro.mheg.identifiers import MhegIdentifier, ref
from repro.mheg.runtime import RtState, _ALLOWED
from repro.util.errors import DecodingError, EncodingError, PresentationError

APP = "prop"


def mid(n):
    return MhegIdentifier(APP, n)


PRESENTATION_VERBS = [ActionVerb.RUN, ActionVerb.STOP, ActionVerb.PAUSE,
                      ActionVerb.RESUME, ActionVerb.DELETE]


class TestStateMachineInvariants:
    @given(st.lists(st.sampled_from(PRESENTATION_VERBS), min_size=1,
                    max_size=25),
           st.lists(st.floats(0.0, 3.0), min_size=0, max_size=25))
    @settings(max_examples=60, deadline=None)
    def test_random_action_sequences_never_corrupt_state(self, verbs,
                                                         advances):
        """Any sequence of presentation verbs leaves the run-time
        object in a legal state and every recorded transition is one
        the life-cycle allows."""
        engine = MhegEngine(Simulator())
        engine.store(AudioContentClass(
            identifier=mid(1), content_hook="SPCM", data=b"x",
            original_duration=1.0))
        rt = engine.new_runtime(ref(APP, 1))
        advances = iter(advances)
        for verb in verbs:
            try:
                engine.apply(ElementaryAction(verb, rt.reference))
            except PresentationError:
                pass  # rejecting an illegal request is fine
            try:
                engine.sim.run(until=engine.sim.now + next(advances))
            except StopIteration:
                pass
            if rt.state is RtState.DELETED:
                break
        # every state-change event respects the transition table
        for event in engine.events:
            if event.attribute == "state" and event.old is not None:
                assert (event.old, event.new) in {
                    (a, b) for (a, b) in _ALLOWED}

    @given(st.integers(1, 6), st.floats(0.1, 2.0))
    @settings(max_examples=30, deadline=None)
    def test_composite_children_all_stop_eventually(self, n_children,
                                                    duration):
        """A chained composite of timed children always terminates,
        with children run exactly once, in order."""
        engine = MhegEngine(Simulator())
        refs = []
        for i in range(n_children):
            engine.store(AudioContentClass(
                identifier=mid(i), content_hook="SPCM", data=b"x",
                original_duration=duration))
            refs.append(ref(APP, i))
        engine.store(CompositeClass(
            identifier=mid(100), components=refs,
            sync_spec={"kind": "chained",
                       "targets": [str(r) for r in refs]}))
        rt = engine.new_runtime(ref(APP, 100))
        engine.run(rt)
        engine.sim.run(until=duration * n_children + 1.0)
        assert rt.state is RtState.STOPPED
        starts = [e.source for e in engine.events
                  if e.attribute == "presentation" and e.new == "running"
                  and e.source != rt.ref_str]
        assert starts == [f"{APP}/{i}#1" for i in range(n_children)]

    @given(st.lists(st.tuples(st.floats(0.0, 5.0), st.floats(0.2, 2.0)),
                    min_size=1, max_size=6))
    @settings(max_examples=30, deadline=None)
    def test_elementary_sync_matches_static_timeline(self, slots):
        """At every probe instant, the running children of an
        elementary composite are exactly those whose [start, end)
        covers the instant."""
        engine = MhegEngine(Simulator())
        entries = []
        refs = []
        for i, (start, duration) in enumerate(slots):
            engine.store(AudioContentClass(
                identifier=mid(i), content_hook="SPCM", data=b"x",
                original_duration=duration))
            refs.append(ref(APP, i))
            entries.append({"target": f"{APP}/{i}", "time": start})
        engine.store(CompositeClass(
            identifier=mid(100), components=refs,
            sync_spec={"kind": "elementary", "entries": entries}))
        rt = engine.new_runtime(ref(APP, 100))
        engine.run(rt)
        horizon = max(s + d for s, d in slots) + 0.5
        probe = 0.05
        while probe < horizon:
            engine.sim.run(until=probe)
            expected = {i for i, (s, d) in enumerate(slots)
                        if s <= probe + 1e-9 and probe < s + d - 1e-9}
            running = {int(str(r.reference.identifier).split("/")[1])
                       for r in engine.runtimes()
                       if r.state is RtState.RUNNING
                       and r.reference.identifier.number < 100}
            assert running == expected, f"at t={probe}"
            probe += 0.4


class TestCodecFuzz:
    @given(st.binary(max_size=300))
    @settings(max_examples=200)
    def test_random_bytes_never_crash_value_parser(self, data):
        """Garbage input raises DecodingError, never anything else."""
        try:
            parse_value(data, 0)
        except DecodingError:
            pass

    @given(st.binary(max_size=300))
    @settings(max_examples=200)
    def test_random_bytes_never_crash_object_decoder(self, data):
        codec = MhegCodec()
        try:
            codec.decode(data)
        except (DecodingError, EncodingError):
            pass

    @given(st.binary(min_size=1, max_size=200), st.integers(0, 199),
           st.integers(0, 7))
    @settings(max_examples=150)
    def test_bitflip_on_valid_object_never_crashes(self, payload, pos, bit):
        codec = MhegCodec()
        obj = AudioContentClass(identifier=mid(1), content_hook="SPCM",
                                data=payload)
        clean = bytearray(codec.encode(obj))
        clean[pos % len(clean)] ^= 1 << bit
        try:
            codec.decode(bytes(clean))
        except (DecodingError, EncodingError):
            pass
