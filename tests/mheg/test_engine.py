"""Tests for the MHEG engine: lifecycle, actions, links, scripts."""

import pytest

from repro.atm.simulator import Simulator
from repro.mheg import (
    ActionClass, ActionVerb, AudioContentClass, CompositeClass,
    ContainerClass, DescriptorClass, ElementaryAction, GenericValueClass,
    ImageContentClass, LinkClass, MhegCodec, MhegEngine, ScriptClass,
)
from repro.mheg.classes.behavior import ConditionKind, LinkCondition
from repro.mheg.classes.composite import Socket, SocketKind
from repro.mheg.classes.interchange import ResourceRequirement
from repro.mheg.identifiers import MhegIdentifier, ref
from repro.mheg.runtime import RtState
from repro.util.errors import PresentationError

APP = "t"


def mid(n):
    return MhegIdentifier(APP, n)


def image(n, **kw):
    return ImageContentClass(identifier=mid(n), content_hook="SIMG",
                             data=b"img", **kw)


def audio(n, duration=2.0):
    return AudioContentClass(identifier=mid(n), content_hook="SPCM",
                             data=b"pcm", original_duration=duration)


class TestObjectStore:
    def test_receive_decodes_and_stores(self):
        eng = MhegEngine(Simulator())
        data = MhegCodec().encode(image(1))
        obj = eng.receive(data)
        assert eng.knows(ref(APP, 1))
        assert eng.get(ref(APP, 1)) == obj

    def test_container_unpacked(self):
        eng = MhegEngine(Simulator())
        cont = ContainerClass(identifier=mid(9),
                              objects=[image(1), audio(2)])
        eng.receive(MhegCodec().encode(cont))
        assert eng.knows(ref(APP, 1)) and eng.knows(ref(APP, 2))
        assert eng.knows(ref(APP, 9))

    def test_unknown_object_raises(self):
        with pytest.raises(PresentationError):
            MhegEngine(Simulator()).get(ref(APP, 404))

    def test_reencode_equivalent(self):
        eng = MhegEngine(Simulator())
        eng.store(image(1))
        again = MhegCodec().decode(eng.encode(ref(APP, 1)))
        assert again == eng.get(ref(APP, 1))


class TestPreparation:
    def test_prepare_included_content(self):
        eng = MhegEngine(Simulator())
        eng.store(image(1))
        eng.prepare(ref(APP, 1))
        assert any(e.attribute == "prepared" and e.new for e in eng.events)
        assert eng.content_bytes(ref(APP, 1)) == b"img"

    def test_prepare_referenced_content_uses_resolver(self):
        eng = MhegEngine(Simulator())
        eng.store(ImageContentClass(identifier=mid(1), content_hook="SIMG",
                                    content_ref="img-key"))
        eng.content_resolver = lambda key: f"fetched:{key}".encode()
        eng.prepare(ref(APP, 1))
        assert eng.content_bytes(ref(APP, 1)) == b"fetched:img-key"

    def test_prepare_referenced_without_resolver_fails(self):
        eng = MhegEngine(Simulator())
        eng.store(ImageContentClass(identifier=mid(1), content_hook="SIMG",
                                    content_ref="img-key"))
        with pytest.raises(PresentationError):
            eng.prepare(ref(APP, 1))

    def test_unprepared_referenced_content_bytes_fails(self):
        eng = MhegEngine(Simulator())
        eng.store(ImageContentClass(identifier=mid(1), content_hook="SIMG",
                                    content_ref="k"))
        with pytest.raises(PresentationError):
            eng.content_bytes(ref(APP, 1))

    def test_destroy_removes(self):
        eng = MhegEngine(Simulator())
        eng.store(image(1))
        eng.prepare(ref(APP, 1))
        eng.destroy(ref(APP, 1))
        assert not eng.knows(ref(APP, 1))

    def test_negotiation(self):
        eng = MhegEngine(Simulator())
        desc = DescriptorClass(identifier=mid(1), described=[ref(APP, 2)],
                               requirements=[ResourceRequirement("SMPG")])
        ok, _ = eng.negotiate(desc)
        assert ok
        desc2 = DescriptorClass(identifier=mid(2), described=[ref(APP, 2)],
                                requirements=[ResourceRequirement("H261")])
        ok2, problems = eng.negotiate(desc2)
        assert not ok2 and problems


class TestRuntimeLifecycle:
    def test_new_creates_inactive_instance(self):
        eng = MhegEngine(Simulator())
        eng.store(image(1))
        rt = eng.new_runtime(ref(APP, 1))
        assert rt.state is RtState.INACTIVE
        assert rt.reference.rt_tag == 1

    def test_multiple_instances_of_one_model(self):
        eng = MhegEngine(Simulator())
        eng.store(image(1))
        a = eng.new_runtime(ref(APP, 1))
        b = eng.new_runtime(ref(APP, 1))
        assert a.reference != b.reference
        # "the activation of a runtime-object does not affect the model"
        eng.run(a)
        assert b.state is RtState.INACTIVE

    def test_explicit_rt_tag(self):
        eng = MhegEngine(Simulator())
        eng.store(image(1))
        rt = eng.new_runtime(ref(APP, 1), rt_tag=7)
        assert rt.ref_str == "t/1#7"
        with pytest.raises(PresentationError):
            eng.new_runtime(ref(APP, 1), rt_tag=7)

    def test_run_stop_cycle_and_channel(self):
        eng = MhegEngine(Simulator())
        eng.store(image(1))
        rt = eng.new_runtime(ref(APP, 1))
        eng.run(rt)
        assert rt.state is RtState.RUNNING
        assert rt.ref_str in eng.channels["main"].presented
        eng.stop(rt)
        assert rt.state is RtState.STOPPED
        assert rt.ref_str not in eng.channels["main"].presented

    def test_unknown_channel_rejected(self):
        eng = MhegEngine(Simulator())
        eng.store(image(1))
        with pytest.raises(PresentationError):
            eng.new_runtime(ref(APP, 1), channel="nowhere")

    def test_auto_stop_after_duration(self):
        eng = MhegEngine(Simulator())
        eng.store(audio(1, duration=2.0))
        rt = eng.new_runtime(ref(APP, 1))
        eng.run(rt)
        eng.sim.run(until=1.9)
        assert rt.state is RtState.RUNNING
        eng.sim.run(until=2.1)
        assert rt.state is RtState.STOPPED

    def test_speed_scales_duration(self):
        eng = MhegEngine(Simulator())
        eng.store(audio(1, duration=2.0))
        rt = eng.new_runtime(ref(APP, 1))
        rt.speed = 2.0
        eng.run(rt)
        eng.sim.run(until=1.1)
        assert rt.state is RtState.STOPPED

    def test_pause_resume_preserves_remaining_time(self):
        eng = MhegEngine(Simulator())
        eng.store(audio(1, duration=2.0))
        rt = eng.new_runtime(ref(APP, 1))
        eng.run(rt)
        eng.sim.run(until=1.0)
        eng.pause(rt)
        eng.sim.run(until=5.0)  # long pause; no auto-stop may fire
        assert rt.state is RtState.PAUSED
        eng.resume(rt)
        eng.sim.run(until=5.5)
        assert rt.state is RtState.RUNNING
        eng.sim.run(until=6.1)  # 1 second of playback left after resume at t=5
        assert rt.state is RtState.STOPPED

    def test_delete_removes_instance(self):
        eng = MhegEngine(Simulator())
        eng.store(image(1))
        rt = eng.new_runtime(ref(APP, 1))
        eng.apply(ElementaryAction(ActionVerb.DELETE, ref(APP, 1, 1)))
        assert rt.state is RtState.DELETED
        with pytest.raises(PresentationError):
            eng.runtime(ref(APP, 1, 1))

    def test_sim_attached_engine_uses_simulated_time(self):
        sim = Simulator()
        eng = MhegEngine(sim)
        eng.store(audio(1, duration=2.0))
        rt = eng.new_runtime(ref(APP, 1))
        eng.run(rt)
        sim.run(until=3.0)
        assert rt.state is RtState.STOPPED
        assert rt.stopped_at == 2.0

    def test_link_has_no_runtime_form(self):
        eng = MhegEngine(Simulator())
        act = ActionClass(identifier=mid(5), actions=[
            ElementaryAction(ActionVerb.RUN, ref(APP, 1))])
        eng.store(act)
        with pytest.raises(PresentationError):
            eng.new_runtime(ref(APP, 5))


class TestRenditionAndValues:
    def test_set_position_size_volume_speed(self):
        eng = MhegEngine(Simulator())
        eng.store(image(1))
        rt = eng.new_runtime(ref(APP, 1))
        eng.apply(ElementaryAction(ActionVerb.SET_POSITION, rt.reference,
                                   parameters={"value": [10, 20]}))
        eng.apply(ElementaryAction(ActionVerb.SET_SIZE, rt.reference,
                                   parameters={"value": [320, 240]}))
        eng.apply(ElementaryAction(ActionVerb.SET_VOLUME, rt.reference,
                                   parameters={"value": 55}))
        eng.apply(ElementaryAction(ActionVerb.SET_SPEED, rt.reference,
                                   parameters={"value": 1.5}))
        assert rt.position == [10, 20] and rt.size == [320, 240]
        assert rt.volume == 55 and rt.speed == 1.5

    def test_invalid_speed_rejected(self):
        eng = MhegEngine(Simulator())
        eng.store(image(1))
        rt = eng.new_runtime(ref(APP, 1))
        with pytest.raises(PresentationError):
            eng.apply(ElementaryAction(ActionVerb.SET_SPEED, rt.reference,
                                       parameters={"value": 0}))

    def test_generic_value_runtime_copy(self):
        eng = MhegEngine(Simulator())
        eng.store(GenericValueClass(identifier=mid(1), value=10))
        rt = eng.new_runtime(ref(APP, 1))
        eng.apply(ElementaryAction(ActionVerb.SET_VALUE, rt.reference,
                                   parameters={"value": 99}))
        assert rt.value == 99
        # model unchanged
        assert eng.get(ref(APP, 1)).value == 10

    def test_presentation_defaults_from_model(self):
        eng = MhegEngine(Simulator())
        eng.store(ImageContentClass(
            identifier=mid(1), content_hook="SIMG", data=b"x",
            presentation={"position": [5, 6], "size": [100, 50]}))
        rt = eng.new_runtime(ref(APP, 1))
        assert rt.position == [5, 6] and rt.size == [100, 50]


class TestInteractionAndLinks:
    def _selectable_button(self, eng, n=1):
        eng.store(image(n))
        rt = eng.new_runtime(ref(APP, n))
        rt.selectable = True
        return rt

    def test_select_requires_selectable(self):
        eng = MhegEngine(Simulator())
        eng.store(image(1))
        rt = eng.new_runtime(ref(APP, 1))
        with pytest.raises(PresentationError):
            eng.select(rt)

    def test_link_fires_on_selection(self):
        eng = MhegEngine(Simulator())
        button = self._selectable_button(eng, 1)
        eng.store(image(2))
        target = eng.new_runtime(ref(APP, 2))
        link = LinkClass(
            identifier=mid(10),
            trigger_conditions=[LinkCondition(
                ConditionKind.TRIGGER, ref(APP, 1), "selected", "==", True)],
            effect=ActionClass(identifier=mid(11), actions=[
                ElementaryAction(ActionVerb.RUN, ref(APP, 2))]))
        eng.store(link)
        eng.arm_link(ref(APP, 10))
        eng.select(button)
        assert target.state is RtState.RUNNING

    def test_additional_condition_gates_firing(self):
        eng = MhegEngine(Simulator())
        button = self._selectable_button(eng, 1)
        eng.store(image(2))
        target = eng.new_runtime(ref(APP, 2))
        eng.store(image(3))
        gate = eng.new_runtime(ref(APP, 3))
        link = LinkClass(
            identifier=mid(10),
            trigger_conditions=[LinkCondition(
                ConditionKind.TRIGGER, ref(APP, 1), "selected", "==", True)],
            additional_conditions=[LinkCondition(
                ConditionKind.ADDITIONAL, gate.reference, "presentation",
                "==", "running")],
            effect=ActionClass(identifier=mid(11), actions=[
                ElementaryAction(ActionVerb.RUN, ref(APP, 2))]))
        eng.store(link)
        eng.arm_link(ref(APP, 10))
        eng.select(button)                       # gate not running yet
        assert target.state is RtState.INACTIVE
        eng.run(gate)
        eng.select(button)
        assert target.state is RtState.RUNNING

    def test_once_link_disarms(self):
        eng = MhegEngine(Simulator())
        button = self._selectable_button(eng, 1)
        eng.store(GenericValueClass(identifier=mid(2), value=0))
        counter = eng.new_runtime(ref(APP, 2))
        link = LinkClass(
            identifier=mid(10),
            trigger_conditions=[LinkCondition(
                ConditionKind.TRIGGER, ref(APP, 1), "selected", "==", True)],
            effect=ActionClass(identifier=mid(11), actions=[
                ElementaryAction(ActionVerb.SET_VALUE, ref(APP, 2),
                                 parameters={"value": 1})]),
            once=True)
        eng.store(link)
        eng.arm_link(ref(APP, 10))
        eng.select(button)
        counter.value = 0  # reset manually
        eng.select(button)  # disarmed: must not fire again
        assert counter.value == 0

    def test_effect_ref_resolved_from_store(self):
        eng = MhegEngine(Simulator())
        button = self._selectable_button(eng, 1)
        eng.store(image(2))
        target = eng.new_runtime(ref(APP, 2))
        eng.store(ActionClass(identifier=mid(11), actions=[
            ElementaryAction(ActionVerb.RUN, ref(APP, 2))]))
        link = LinkClass(
            identifier=mid(10),
            trigger_conditions=[LinkCondition(
                ConditionKind.TRIGGER, ref(APP, 1), "selected", "==", True)],
            effect_ref=ref(APP, 11))
        eng.store(link)
        eng.arm_link(ref(APP, 10))
        eng.select(button)
        assert target.state is RtState.RUNNING

    def test_delayed_actions_schedule(self):
        eng = MhegEngine(Simulator())
        eng.store(image(1))
        rt = eng.new_runtime(ref(APP, 1))
        act = ActionClass(identifier=mid(5), actions=[
            ElementaryAction(ActionVerb.RUN, rt.reference, delay=1.0)])
        eng.execute_action(act)
        assert rt.state is RtState.INACTIVE
        eng.sim.run(until=1.5)
        assert rt.state is RtState.RUNNING

    def test_disarm_link(self):
        eng = MhegEngine(Simulator())
        button = self._selectable_button(eng, 1)
        eng.store(image(2))
        target = eng.new_runtime(ref(APP, 2))
        link = LinkClass(
            identifier=mid(10),
            trigger_conditions=[LinkCondition(
                ConditionKind.TRIGGER, ref(APP, 1), "selected", "==", True)],
            effect=ActionClass(identifier=mid(11), actions=[
                ElementaryAction(ActionVerb.RUN, ref(APP, 2))]))
        eng.store(link)
        eng.arm_link(ref(APP, 10))
        eng.disarm_link(ref(APP, 10))
        eng.select(button)
        assert target.state is RtState.INACTIVE


class TestComposites:
    def _scene(self, eng, sync_spec=None, n0=1):
        eng.store(audio(n0, duration=1.0))
        eng.store(audio(n0 + 1, duration=1.0))
        comp = CompositeClass(
            identifier=mid(n0 + 10),
            components=[ref(APP, n0), ref(APP, n0 + 1)],
            sync_spec=sync_spec)
        eng.store(comp)
        return eng.new_runtime(ref(APP, n0 + 10))

    def test_new_composite_instantiates_children(self):
        eng = MhegEngine(Simulator())
        rt = self._scene(eng)
        children = eng.children_of(rt)
        assert set(children) == {"t/1", "t/2"}

    def test_default_serial_playback(self):
        eng = MhegEngine(Simulator())
        rt = self._scene(eng)
        eng.run(rt)
        first = eng.runtime(ref(APP, 1, 1))
        second = eng.runtime(ref(APP, 2, 1))
        assert first.state is RtState.RUNNING
        assert second.state is RtState.INACTIVE
        eng.sim.run(until=1.5)   # first auto-stops at t=1 -> chain runs second
        assert first.state is RtState.STOPPED
        assert second.state is RtState.RUNNING

    def test_atomic_parallel(self):
        eng = MhegEngine(Simulator())
        rt = self._scene(eng, {"kind": "atomic", "mode": "parallel",
                               "first": "t/1", "second": "t/2"})
        eng.run(rt)
        assert eng.runtime(ref(APP, 1, 1)).state is RtState.RUNNING
        assert eng.runtime(ref(APP, 2, 1)).state is RtState.RUNNING

    def test_elementary_timeline(self):
        eng = MhegEngine(Simulator())
        rt = self._scene(eng, {"kind": "elementary", "entries": [
            {"target": "t/1", "time": 0.0},
            {"target": "t/2", "time": 2.0}]})
        eng.run(rt)
        assert eng.runtime(ref(APP, 1, 1)).state is RtState.RUNNING
        assert eng.runtime(ref(APP, 2, 1)).state is RtState.INACTIVE
        eng.sim.run(until=2.5)
        assert eng.runtime(ref(APP, 2, 1)).state is RtState.RUNNING

    def test_cyclic_repeats(self):
        eng = MhegEngine(Simulator())
        eng.store(audio(1, duration=0.3))
        comp = CompositeClass(identifier=mid(10), components=[ref(APP, 1)],
                              sync_spec={"kind": "cyclic", "target": "t/1",
                                         "period": 1.0, "repetitions": 3})
        eng.store(comp)
        rt = eng.new_runtime(ref(APP, 10))
        eng.run(rt)
        eng.sim.run(until=5.0)
        child_ref = eng.children_of(rt)["t/1"]
        runs = [e for e in eng.events
                if e.source == child_ref and e.attribute == "presentation"
                and e.new == "running"]
        assert len(runs) == 3

    def test_stop_composite_stops_children_and_disarms(self):
        eng = MhegEngine(Simulator())
        rt = self._scene(eng, {"kind": "atomic", "mode": "parallel",
                               "first": "t/1", "second": "t/2"})
        eng.run(rt)
        eng.stop(rt)
        assert eng.runtime(ref(APP, 1, 1)).state is RtState.STOPPED
        assert eng.runtime(ref(APP, 2, 1)).state is RtState.STOPPED

    def test_stopped_composite_cancels_pending_schedule(self):
        eng = MhegEngine(Simulator())
        rt = self._scene(eng, {"kind": "elementary", "entries": [
            {"target": "t/1", "time": 0.0},
            {"target": "t/2", "time": 2.0}]})
        eng.run(rt)
        eng.sim.run(until=0.5)
        eng.stop(rt)
        eng.sim.run(until=3.0)
        assert eng.runtime(ref(APP, 2, 1)).state is RtState.INACTIVE

    def test_layout_applied_to_children(self):
        """Spatial synchronisation: the composite's layout overrides the
        children's own presentation geometry (Fig 4.4 layout structure)."""
        eng = MhegEngine(Simulator())
        eng.store(image(1))
        eng.store(image(2))
        comp = CompositeClass(
            identifier=mid(10), components=[ref(APP, 1), ref(APP, 2)],
            layout={"t/1": {"position": [50, 60], "size": [320, 240]},
                    "t/2": {"position": [400, 60]}})
        eng.store(comp)
        rt = eng.new_runtime(ref(APP, 10))
        first = eng.runtime(ref(APP, 1, 1))
        second = eng.runtime(ref(APP, 2, 1))
        assert first.position == [50, 60] and first.size == [320, 240]
        assert second.position == [400, 60]

    def test_sockets_plugged_at_instantiation(self):
        eng = MhegEngine(Simulator())
        eng.store(image(1))
        comp = CompositeClass(
            identifier=mid(10), components=[ref(APP, 1)],
            sockets=[Socket("pic", SocketKind.PRESENTABLE, ref(APP, 1)),
                     Socket("spare", SocketKind.EMPTY)])
        eng.store(comp)
        rt = eng.new_runtime(ref(APP, 10))
        assert rt.plugged["pic"] == "t/1#1"
        assert rt.plugged["spare"] is None

    def test_delete_composite_deletes_children(self):
        eng = MhegEngine(Simulator())
        rt = self._scene(eng)
        eng.apply(ElementaryAction(ActionVerb.DELETE, rt.reference))
        with pytest.raises(PresentationError):
            eng.runtime(ref(APP, 1, 1))


class TestScripts:
    def test_script_drives_presentation(self):
        eng = MhegEngine(Simulator())
        eng.store(image(1))
        script = ScriptClass(identifier=mid(5), source="""
            new image t/1 as 9 on main
            run t/1#9
            wait 1.0
            set t/1#9 position 30,40
            stop t/1#9
        """)
        eng.store(script)
        rt_script = eng.new_runtime(ref(APP, 5))
        eng.run(rt_script)
        presented = eng.runtime(ref(APP, 1, 9))
        assert presented.state is RtState.RUNNING
        eng.sim.run(until=1.5)
        assert presented.state is RtState.STOPPED
        assert presented.position == [30, 40]

    def test_deactivate_stops_script(self):
        eng = MhegEngine(Simulator())
        eng.store(image(1))
        script = ScriptClass(identifier=mid(5), source="""
            new image t/1 as 9 on main
            wait 5.0
            run t/1#9
        """)
        eng.store(script)
        rt_script = eng.new_runtime(ref(APP, 5))
        eng.run(rt_script)
        eng.sim.run(until=1.0)
        eng.deactivate_script(rt_script)
        eng.sim.run(until=10.0)
        assert eng.runtime(ref(APP, 1, 9)).state is RtState.INACTIVE

    def test_script_completion_emits_done(self):
        eng = MhegEngine(Simulator())
        script = ScriptClass(identifier=mid(5), source="wait 0.5")
        eng.store(script)
        rt = eng.new_runtime(ref(APP, 5))
        eng.run(rt)
        eng.sim.run(until=1.0)
        done = [e for e in eng.events if e.attribute == "activation"
                and e.new == "done"]
        assert len(done) == 1


class TestEventLog:
    def test_events_recorded_with_time(self):
        eng = MhegEngine(Simulator())
        eng.store(audio(1, duration=1.0))
        rt = eng.new_runtime(ref(APP, 1))
        eng.run(rt)
        eng.sim.run(until=2.0)
        stops = [e for e in eng.events if e.attribute == "presentation"
                 and e.new == "not-running"]
        assert stops and stops[0].time == pytest.approx(1.0)
