"""Advanced MHEG behaviour: value-triggered links, multiple channels,
and an MHEG-native quiz built only from standard classes."""

import pytest

from repro.atm.simulator import Simulator
from repro.mheg import (
    ActionClass, ActionVerb, CompositeClass, ElementaryAction,
    GenericValueClass, ImageContentClass, LinkClass, MhegEngine,
    TextContentClass,
)
from repro.mheg.classes.behavior import ConditionKind, LinkCondition
from repro.mheg.identifiers import MhegIdentifier, ref
from repro.mheg.runtime import RtState

APP = "adv"


def mid(n):
    return MhegIdentifier(APP, n)


def text(n, label=b"t", selectable=False):
    return TextContentClass(
        identifier=mid(n), content_hook="STXT", data=label,
        presentation={"selectable": selectable})


class TestValueTriggeredLinks:
    def test_link_fires_on_value_change(self):
        engine = MhegEngine(Simulator())
        engine.store(GenericValueClass(identifier=mid(1), value=0))
        engine.store(text(2))
        counter = engine.new_runtime(ref(APP, 1))
        target = engine.new_runtime(ref(APP, 2))
        engine.store(LinkClass(
            identifier=mid(10),
            trigger_conditions=[LinkCondition(
                ConditionKind.TRIGGER, ref(APP, 1), "value", "==", 3)],
            effect=ActionClass(identifier=mid(11), actions=[
                ElementaryAction(ActionVerb.RUN, ref(APP, 2))])))
        engine.arm_link(ref(APP, 10))
        for value in (1, 2):
            engine.apply(ElementaryAction(
                ActionVerb.SET_VALUE, counter.reference,
                parameters={"value": value}))
            assert target.state is RtState.INACTIVE
        engine.apply(ElementaryAction(ActionVerb.SET_VALUE,
                                      counter.reference,
                                      parameters={"value": 3}))
        assert target.state is RtState.RUNNING

    def test_ordering_comparisons_on_values(self):
        engine = MhegEngine(Simulator())
        engine.store(GenericValueClass(identifier=mid(1), value=0))
        engine.store(text(2))
        counter = engine.new_runtime(ref(APP, 1))
        target = engine.new_runtime(ref(APP, 2))
        engine.store(LinkClass(
            identifier=mid(10),
            trigger_conditions=[LinkCondition(
                ConditionKind.TRIGGER, ref(APP, 1), "value", ">=", 10)],
            effect=ActionClass(identifier=mid(11), actions=[
                ElementaryAction(ActionVerb.RUN, ref(APP, 2))])))
        engine.arm_link(ref(APP, 10))
        engine.apply(ElementaryAction(ActionVerb.SET_VALUE,
                                      counter.reference,
                                      parameters={"value": 12}))
        assert target.state is RtState.RUNNING


class TestMultiplexedStreamControl:
    """'Turn audio on and off in an MPEG system stream' (§4.4.1)."""

    def _mux_engine(self):
        from repro.mheg import MultiplexedContentClass
        from repro.mheg.classes.content import StreamDescription
        engine = MhegEngine(Simulator())
        engine.store(MultiplexedContentClass(
            identifier=mid(1), content_hook="SMPG", data=b"av",
            streams=[StreamDescription(1, "video", 1.5e6),
                     StreamDescription(2, "audio", 64e3)]))
        return engine, engine.new_runtime(ref(APP, 1))

    def test_streams_enabled_by_default(self):
        engine, rt = self._mux_engine()
        assert rt.stream_enabled == {1: True, 2: True}

    def test_disable_and_reenable_audio(self):
        engine, rt = self._mux_engine()
        engine.apply(ElementaryAction(
            ActionVerb.SET_VOLUME, rt.reference,
            parameters={"stream_id": 2, "value": 0}))
        assert rt.stream_enabled == {1: True, 2: False}
        engine.apply(ElementaryAction(
            ActionVerb.SET_VOLUME, rt.reference,
            parameters={"stream_id": 2, "value": 80}))
        assert rt.stream_enabled[2] is True
        # overall volume untouched by per-stream control
        assert rt.volume is None

    def test_unknown_stream_rejected(self):
        from repro.util.errors import PresentationError
        engine, rt = self._mux_engine()
        with pytest.raises(PresentationError):
            engine.apply(ElementaryAction(
                ActionVerb.SET_VOLUME, rt.reference,
                parameters={"stream_id": 9, "value": 0}))


class TestMhegNativeQuiz:
    """The Fig 4.3b question loop built purely from MHEG objects: two
    answer buttons, a score value, right/wrong feedback texts."""

    def build(self, engine):
        engine.store(text(1, b"What is the ATM cell size?"))
        engine.store(text(2, b"53 bytes", selectable=True))   # correct
        engine.store(text(3, b"64 bytes", selectable=True))   # wrong
        engine.store(text(4, b"Right!"))
        engine.store(text(5, b"Try again"))
        engine.store(GenericValueClass(identifier=mid(6), value=0))
        # correct answer: show feedback and bump the score
        engine.store(LinkClass(
            identifier=mid(10),
            trigger_conditions=[LinkCondition(
                ConditionKind.TRIGGER, ref(APP, 2), "selected", "==",
                True)],
            effect=ActionClass(identifier=mid(11), actions=[
                ElementaryAction(ActionVerb.RUN, ref(APP, 4)),
                ElementaryAction(ActionVerb.SET_VALUE, ref(APP, 6),
                                 parameters={"value": 1})])))
        # wrong answer: show retry text
        engine.store(LinkClass(
            identifier=mid(12),
            trigger_conditions=[LinkCondition(
                ConditionKind.TRIGGER, ref(APP, 3), "selected", "==",
                True)],
            effect=ActionClass(identifier=mid(13), actions=[
                ElementaryAction(ActionVerb.RUN, ref(APP, 5))])))
        quiz = CompositeClass(
            identifier=mid(20),
            components=[ref(APP, i) for i in (1, 2, 3, 4, 5, 6)],
            links=[ref(APP, 10), ref(APP, 12)],
            sync_spec={"kind": "elementary", "entries": [
                {"target": f"{APP}/1", "time": 0.0},
                {"target": f"{APP}/2", "time": 0.0},
                {"target": f"{APP}/3", "time": 0.0}]})
        engine.store(quiz)
        return engine.new_runtime(ref(APP, 20))

    def test_wrong_then_right(self):
        engine = MhegEngine(Simulator())
        rt = self.build(engine)
        engine.run(rt)
        wrong = engine.runtime(ref(APP, 3, 1))
        right = engine.runtime(ref(APP, 2, 1))
        score = engine.runtime(ref(APP, 6, 1))
        engine.select(wrong)
        assert engine.runtime(ref(APP, 5, 1)).state is RtState.RUNNING
        assert score.value == 0
        engine.select(right)
        assert engine.runtime(ref(APP, 4, 1)).state is RtState.RUNNING
        assert score.value == 1

    def test_quiz_survives_interchange(self):
        """The whole quiz round-trips as one container and still works."""
        from repro.mheg import ContainerClass, MhegCodec
        build_engine = MhegEngine(Simulator())
        self.build(build_engine)
        # effects are inline in the links, so only the stored objects
        # (contents, value, links, composite) enter the container
        objects = [build_engine.get(ref(APP, i))
                   for i in (1, 2, 3, 4, 5, 6, 10, 12, 20)]
        container = ContainerClass(identifier=mid(99), objects=objects)
        blob = MhegCodec().encode(container)

        engine = MhegEngine(Simulator())
        engine.receive(blob)
        rt = engine.new_runtime(ref(APP, 20))
        engine.run(rt)
        engine.select(engine.runtime(ref(APP, 2, 1)))
        assert engine.runtime(ref(APP, 6, 1)).value == 1
