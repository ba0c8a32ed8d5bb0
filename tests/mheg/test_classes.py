"""Tests for the MHEG class library (Fig 4.5)."""

import pytest

from repro.mheg.classes import (
    ActionClass, ActionVerb, CompositeClass, ContainerClass, ContentClass,
    DescriptorClass, ElementaryAction, GenericValueClass, LinkClass,
    LinkCondition, MultiplexedContentClass, ScriptClass, Socket, SocketKind,
    StreamDescription, class_registry,
)
from repro.mheg.classes.base import MHEG_STANDARD_ID
from repro.mheg.classes.behavior import ConditionKind
from repro.mheg.classes.interchange import ResourceRequirement
from repro.mheg.identifiers import MhegIdentifier, ref
from repro.util.errors import EncodingError


def mid(n):
    return MhegIdentifier("test", n)


class TestBase:
    def test_standard_id_is_19(self):
        obj = GenericValueClass(identifier=mid(1), value=5)
        assert obj.standard_id == MHEG_STANDARD_ID == 19

    def test_registry_contains_the_eight_plus_extensions(self):
        names = set(class_registry())
        for required in ("ContentClass", "MultiplexedContentClass",
                         "CompositeClass", "LinkClass", "ActionClass",
                         "ScriptClass", "DescriptorClass", "ContainerClass",
                         "VideoContentClass", "GenericValueClass"):
            assert required in names


class TestContent:
    def test_exactly_one_storage_scheme(self):
        both = ContentClass(identifier=mid(1), content_hook="SIMG",
                            data=b"x", content_ref="y")
        with pytest.raises(EncodingError):
            both.validate()
        neither = ContentClass(identifier=mid(2), content_hook="SIMG")
        with pytest.raises(EncodingError):
            neither.validate()

    def test_hook_required(self):
        obj = ContentClass(identifier=mid(1), data=b"x")
        with pytest.raises(EncodingError):
            obj.validate()

    def test_included_vs_referenced(self):
        inc = ContentClass(identifier=mid(1), content_hook="SIMG", data=b"abc")
        ref_ = ContentClass(identifier=mid(2), content_hook="SIMG",
                            content_ref="img-1")
        inc.validate()
        ref_.validate()
        both = ContentClass(identifier=mid(3), content_hook="SIMG",
                            data=b"abc", content_ref="img-1")
        with pytest.raises(EncodingError):
            both.validate()

    def test_multiplexed_needs_streams(self):
        obj = MultiplexedContentClass(identifier=mid(1), content_hook="SMPG",
                                      data=b"x")
        with pytest.raises(EncodingError):
            obj.validate()

    def test_multiplexed_duplicate_stream_ids(self):
        obj = MultiplexedContentClass(
            identifier=mid(1), content_hook="SMPG", data=b"x",
            streams=[StreamDescription(1, "video"),
                     StreamDescription(1, "audio")])
        with pytest.raises(EncodingError):
            obj.validate()

    def test_multiplexed_stream_lookup(self):
        obj = MultiplexedContentClass(
            identifier=mid(1), content_hook="SMPG", data=b"x",
            streams=[StreamDescription(1, "video", 1e6),
                     StreamDescription(2, "audio", 64e3)])
        assert obj.stream(2).media_kind == "audio"
        with pytest.raises(KeyError):
            obj.stream(9)


class TestActions:
    def test_parallel_schedule_uses_delays(self):
        act = ActionClass(identifier=mid(1), mode="parallel", actions=[
            ElementaryAction(ActionVerb.RUN, ref("t", 1), delay=1.0),
            ElementaryAction(ActionVerb.RUN, ref("t", 2), delay=0.5),
        ])
        assert [t for t, _ in act.schedule()] == [1.0, 0.5]

    def test_serial_schedule_accumulates(self):
        act = ActionClass(identifier=mid(1), mode="serial", actions=[
            ElementaryAction(ActionVerb.RUN, ref("t", 1), delay=1.0),
            ElementaryAction(ActionVerb.STOP, ref("t", 1), delay=2.0),
        ])
        assert [t for t, _ in act.schedule()] == [1.0, 3.0]

    def test_validation(self):
        with pytest.raises(EncodingError):
            ActionClass(identifier=mid(1), actions=[]).validate()
        with pytest.raises(EncodingError):
            ActionClass(identifier=mid(1), mode="sideways", actions=[
                ElementaryAction(ActionVerb.RUN, ref("t", 1))]).validate()
        with pytest.raises(ValueError):
            ElementaryAction(ActionVerb.RUN, ref("t", 1), delay=-1)


class TestConditions:
    def test_comparisons(self):
        c = LinkCondition(ConditionKind.TRIGGER, ref("t", 1), "value", ">", 5)
        assert c.evaluate(6) and not c.evaluate(5)
        eq = LinkCondition(ConditionKind.TRIGGER, ref("t", 1), "state",
                           "==", "running")
        assert eq.evaluate("running") and not eq.evaluate("stopped")

    def test_none_observed_fails_ordering(self):
        c = LinkCondition(ConditionKind.ADDITIONAL, ref("t", 1), "value", "<", 5)
        assert not c.evaluate(None)

    def test_bad_comparison_rejected(self):
        with pytest.raises(ValueError):
            LinkCondition(ConditionKind.TRIGGER, ref("t", 1), "value", "~", 5)


class TestLinks:
    def _action(self):
        return ActionClass(identifier=mid(99), actions=[
            ElementaryAction(ActionVerb.RUN, ref("t", 2))])

    def test_valid_link(self):
        link = LinkClass(identifier=mid(1), trigger_conditions=[
            LinkCondition(ConditionKind.TRIGGER, ref("t", 1), "selected",
                          "==", True)], effect=self._action())
        link.validate()
        assert link.sources() == [ref("t", 1)]

    def test_needs_trigger(self):
        link = LinkClass(identifier=mid(1), effect=self._action())
        with pytest.raises(EncodingError):
            link.validate()

    def test_effect_xor_effect_ref(self):
        trig = [LinkCondition(ConditionKind.TRIGGER, ref("t", 1), "selected",
                              "==", True)]
        with pytest.raises(EncodingError):
            LinkClass(identifier=mid(1), trigger_conditions=trig).validate()
        with pytest.raises(EncodingError):
            LinkClass(identifier=mid(1), trigger_conditions=trig,
                      effect=self._action(), effect_ref=ref("t", 9)).validate()

    def test_condition_kind_enforced(self):
        trig = LinkCondition(ConditionKind.ADDITIONAL, ref("t", 1),
                             "selected", "==", True)
        link = LinkClass(identifier=mid(1), trigger_conditions=[trig],
                         effect=self._action())
        with pytest.raises(EncodingError):
            link.validate()


class TestComposite:
    def test_socket_rules(self):
        with pytest.raises(ValueError):
            Socket(name="s", kind=SocketKind.EMPTY, plugged=ref("t", 1))
        with pytest.raises(ValueError):
            Socket(name="s", kind=SocketKind.PRESENTABLE)
        Socket(name="s", kind=SocketKind.PRESENTABLE, plugged=ref("t", 1))

    def test_socket_must_plug_component(self):
        comp = CompositeClass(identifier=mid(1), components=[ref("t", 1)],
                              sockets=[Socket("s", SocketKind.PRESENTABLE,
                                              ref("t", 99))])
        with pytest.raises(EncodingError):
            comp.validate()

    def test_duplicate_components_rejected(self):
        comp = CompositeClass(identifier=mid(1),
                              components=[ref("t", 1), ref("t", 1)])
        with pytest.raises(EncodingError):
            comp.validate()

    def test_layout_keys_checked(self):
        comp = CompositeClass(identifier=mid(1), components=[ref("t", 1)],
                              layout={"t/9": {"position": [0, 0]}})
        with pytest.raises(EncodingError):
            comp.validate()

    def test_socket_lookup(self):
        comp = CompositeClass(identifier=mid(1), components=[ref("t", 1)],
                              sockets=[Socket("main", SocketKind.PRESENTABLE,
                                              ref("t", 1))])
        assert comp.socket("main").plugged == ref("t", 1)
        with pytest.raises(KeyError):
            comp.socket("absent")


class TestContainerAndDescriptor:
    def test_container_finds_objects(self):
        inner = GenericValueClass(identifier=mid(5), value=1)
        cont = ContainerClass(identifier=mid(1), objects=[inner])
        assert cont.find(ref("test", 5)) is inner
        assert cont.manifest() == ["test/5"]

    def test_container_rejects_duplicates(self):
        a = GenericValueClass(identifier=mid(5), value=1)
        cont = ContainerClass(identifier=mid(1), objects=[a, a])
        with pytest.raises(EncodingError):
            cont.validate()

    def test_descriptor_negotiation(self):
        desc = DescriptorClass(
            identifier=mid(1), described=[ref("t", 1)],
            requirements=[ResourceRequirement("SMPG", peak_bitrate_bps=2e6)],
            total_size=10_000)
        ok, problems = desc.check_capabilities(
            {"decoders": ["SMPG", "SIMG"], "bandwidth_bps": 10e6,
             "storage_bytes": 1 << 20})
        assert ok and problems == []

    def test_descriptor_detects_missing_decoder(self):
        desc = DescriptorClass(identifier=mid(1), described=[ref("t", 1)],
                               requirements=[ResourceRequirement("SMPG")])
        ok, problems = desc.check_capabilities({"decoders": ["SIMG"]})
        assert not ok and "missing decoder SMPG" in problems

    def test_descriptor_detects_bandwidth_and_storage(self):
        desc = DescriptorClass(
            identifier=mid(1), described=[ref("t", 1)],
            requirements=[ResourceRequirement("SMPG", peak_bitrate_bps=5e6)],
            total_size=100)
        ok, problems = desc.check_capabilities(
            {"decoders": ["SMPG"], "bandwidth_bps": 1e6, "storage_bytes": 10})
        assert not ok and len(problems) == 2

    def test_empty_descriptor_invalid(self):
        with pytest.raises(EncodingError):
            DescriptorClass(identifier=mid(1)).validate()


class TestScript:
    def test_valid_script_parses(self):
        script = ScriptClass(identifier=mid(1), source="""
            # create and run a video
            new video course/1 as 1 on main
            run course/1#1
            wait 2.0
            set course/1#1 volume 50
            stop course/1#1
        """)
        statements = script.parse()
        assert [s.verb for s in statements] == ["new", "run", "wait", "set",
                                                "stop"]

    def test_unknown_statement_rejected(self):
        script = ScriptClass(identifier=mid(1), source="explode course/1")
        with pytest.raises(EncodingError):
            script.validate()

    def test_bad_wait_rejected(self):
        script = ScriptClass(identifier=mid(1), source="wait never")
        with pytest.raises(EncodingError):
            script.validate()

    def test_bad_reference_rejected(self):
        script = ScriptClass(identifier=mid(1), source="run notaref")
        with pytest.raises(EncodingError):
            script.validate()

    def test_malformed_new_rejected(self):
        script = ScriptClass(identifier=mid(1),
                             source="new video course/1 at 1 on main")
        with pytest.raises(EncodingError):
            script.validate()

    def test_unknown_language_rejected(self):
        script = ScriptClass(identifier=mid(1), language="tcl", source="")
        with pytest.raises(EncodingError):
            script.validate()
