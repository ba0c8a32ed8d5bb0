"""E2.5-E2.6: MHEG synchronisation mechanisms.

Fig 2.5 — application-level synchronisation via a script object;
Fig 2.6 — atomic and elementary spatial-temporal synchronisation,
plus cyclic/chained and the conditional form ("when the audio has
finished, display the image").
"""

import pytest

from repro.atm.simulator import Simulator
from repro.mheg import (
    AudioContentClass, CompositeClass, ContainerClass, ImageContentClass,
    MhegCodec, MhegEngine, ScriptClass,
)
from repro.mheg.identifiers import MhegIdentifier, ref
from repro.mheg.runtime import RtState
from repro.mheg.sync import when_stops_run

APP = "sync"


def mid(n):
    return MhegIdentifier(APP, n)


def engine_with(objects):
    engine = MhegEngine(Simulator())
    for obj in objects:
        engine.store(obj)
    return engine


def audio(n, duration=1.0):
    return AudioContentClass(identifier=mid(n), content_hook="SPCM",
                             data=b"a", original_duration=duration)


def image(n):
    return ImageContentClass(identifier=mid(n), content_hook="SIMG",
                             data=b"i")


def test_application_script_sync(benchmark):
    """E2.5 / Fig 2.5: a script object orchestrates component objects
    through the engine's interface."""
    script = ScriptClass(identifier=mid(10), source="""
        new audio sync/1 as 1 on main
        new image sync/2 as 1 on main
        run sync/1#1
        wait 1.0
        run sync/2#1
        wait 0.5
        stop sync/2#1
        stop sync/1#1
    """)

    def run():
        engine = engine_with([audio(1, duration=9.0), image(2), script])
        rt = engine.new_runtime(ref(APP, 10))
        engine.run(rt)
        engine.sim.run(until=0.5)
        mid_state = engine.runtime(ref(APP, 2, 1)).state
        engine.sim.run(until=2.0)
        return engine, mid_state

    engine, mid_state = benchmark(run)
    assert mid_state is RtState.INACTIVE          # image waits for t=1.0
    assert engine.runtime(ref(APP, 1, 1)).state is RtState.STOPPED
    assert engine.runtime(ref(APP, 2, 1)).state is RtState.STOPPED


def test_atomic_elementary(benchmark):
    """E2.6 / Fig 2.6: atomic serial/parallel and elementary (T1, T2)."""

    def run():
        results = {}
        # atomic serial: B after A
        engine = engine_with([audio(1), audio(2), CompositeClass(
            identifier=mid(20), components=[ref(APP, 1), ref(APP, 2)],
            sync_spec={"kind": "atomic", "mode": "serial",
                       "first": f"{APP}/1", "second": f"{APP}/2"})])
        engine.run(engine.new_runtime(ref(APP, 20)))
        results["serial_b_at_0.5"] = engine.runtime(ref(APP, 2, 1)).state
        engine.sim.run(until=1.5)
        results["serial_b_at_1.5"] = engine.runtime(ref(APP, 2, 1)).state

        # atomic parallel: A with B
        engine2 = engine_with([audio(1), audio(2), CompositeClass(
            identifier=mid(20), components=[ref(APP, 1), ref(APP, 2)],
            sync_spec={"kind": "atomic", "mode": "parallel",
                       "first": f"{APP}/1", "second": f"{APP}/2"})])
        engine2.run(engine2.new_runtime(ref(APP, 20)))
        results["parallel_both"] = (
            engine2.runtime(ref(APP, 1, 1)).state,
            engine2.runtime(ref(APP, 2, 1)).state)

        # elementary: T1=0, T2=2.5
        engine3 = engine_with([audio(1), audio(2), CompositeClass(
            identifier=mid(20), components=[ref(APP, 1), ref(APP, 2)],
            sync_spec={"kind": "elementary", "entries": [
                {"target": f"{APP}/1", "time": 0.0},
                {"target": f"{APP}/2", "time": 2.5}]})])
        engine3.run(engine3.new_runtime(ref(APP, 20)))
        engine3.sim.run(until=2.0)
        results["elementary_b_at_2"] = engine3.runtime(ref(APP, 2, 1)).state
        engine3.sim.run(until=3.0)
        results["elementary_b_at_3"] = engine3.runtime(ref(APP, 2, 1)).state
        return results

    results = benchmark(run)
    assert results["serial_b_at_0.5"] is RtState.INACTIVE
    assert results["serial_b_at_1.5"] is RtState.RUNNING
    assert results["parallel_both"] == (RtState.RUNNING, RtState.RUNNING)
    assert results["elementary_b_at_2"] is RtState.INACTIVE
    assert results["elementary_b_at_3"] is RtState.RUNNING


def test_cyclic_and_chained(benchmark):
    """Fig 2.6 continued: cyclic (clock-tick) and chained sync."""

    def run():
        engine = engine_with([audio(1, duration=0.2), CompositeClass(
            identifier=mid(20), components=[ref(APP, 1)],
            sync_spec={"kind": "cyclic", "target": f"{APP}/1",
                       "period": 0.5, "repetitions": 4})])
        rt = engine.new_runtime(ref(APP, 20))
        engine.run(rt)
        engine.sim.run(until=5.0)
        child = engine.children_of(rt)[f"{APP}/1"]
        cycles = sum(1 for e in engine.events
                     if e.source == child and e.attribute == "presentation"
                     and e.new == "running")

        engine2 = engine_with([audio(1, 0.3), audio(2, 0.3), audio(3, 0.3),
                               CompositeClass(
            identifier=mid(20),
            components=[ref(APP, 1), ref(APP, 2), ref(APP, 3)],
            sync_spec={"kind": "chained",
                       "targets": [f"{APP}/1", f"{APP}/2", f"{APP}/3"]})])
        rt2 = engine2.new_runtime(ref(APP, 20))
        engine2.run(rt2)
        engine2.sim.run(until=2.0)
        order = [e.source for e in engine2.events
                 if e.attribute == "presentation" and e.new == "running"
                 and not e.source.startswith(f"{APP}/20")]
        return cycles, order, rt2.state

    cycles, order, final = benchmark(run)
    assert cycles == 4
    assert order == [f"{APP}/1#1", f"{APP}/2#1", f"{APP}/3#1"]
    assert final is RtState.STOPPED  # chain completion ends the composite


def test_conditional_sync(benchmark):
    """§2.2.2.3: 'when the audio has finished, display the image'."""
    link = when_stops_run(APP, 30, ref(APP, 1), ref(APP, 2))

    def run():
        engine = engine_with([audio(1, duration=1.0), image(2), link,
                              CompositeClass(
            identifier=mid(20), components=[ref(APP, 1), ref(APP, 2)],
            links=[ref(APP, 30)],
            sync_spec={"kind": "elementary", "entries": [
                {"target": f"{APP}/1", "time": 0.0}]})])
        engine.run(engine.new_runtime(ref(APP, 20)))
        engine.sim.run(until=2.0)
        return engine

    engine = benchmark(run)
    assert engine.runtime(ref(APP, 1, 1)).state is RtState.STOPPED
    assert engine.runtime(ref(APP, 2, 1)).state is RtState.RUNNING
    assert engine.stats["links_fired"] >= 1
