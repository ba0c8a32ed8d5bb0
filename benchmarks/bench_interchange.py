"""E2.7-E2.9: the interchange stack.

Fig 2.7 — the A/S/M/C/OPE level stack; Fig 2.8 — containers as the
interchange packing tool; Fig 2.9 — engine-to-engine interchange
(encode at A, transfer, decode at B).
"""

import pytest

from repro.atm import ServiceCategory, Simulator, TrafficContract
from repro.atm.topology import star_campus
from repro.mheg import (
    AudioContentClass, ContainerClass, ImageContentClass, MhegCodec,
    MhegEngine, ScriptClass, TextContentClass,
)
from repro.mheg.identifiers import MhegIdentifier, ref
from repro.transport.connection import connect_pair
from repro.transport.messages import Message, MessageType

APP = "ix"


def mid(n):
    return MhegIdentifier(APP, n)


def sample_container(n_contents=10, content_bytes=500):
    objects = []
    for i in range(n_contents):
        objects.append(TextContentClass(
            identifier=mid(i), content_hook="STXT",
            data=bytes(content_bytes)))
    objects.append(ScriptClass(identifier=mid(100),
                               source=f"run {APP}/0#1"))
    return ContainerClass(identifier=mid(999), objects=objects)


def test_level_stack(benchmark):
    """E2.7 / Fig 2.7: each level is distinct and composable — the
    script (S) level rides inside the MHEG (M) level, which carries
    non-MHEG content (C) opaquely, framed by the protocol (OPE)."""
    codec = MhegCodec()
    cont = sample_container()

    def run():
        blob = codec.encode(cont)                       # M level
        frame = Message(type=MessageType.DATA, body=blob)  # OPE level
        wire = frame.encode()
        back = Message.decode(wire)
        obj = codec.decode(back.body)
        return wire, obj

    wire, obj = benchmark(run)
    # the C level (content data) is opaque bytes inside M
    assert obj.objects[0].data == bytes(500)
    # the S level survives interchange and still parses
    script = obj.objects[-1]
    assert script.parse()[0].verb == "run"
    benchmark.extra_info["wire_bytes"] = len(wire)


def test_container_packing(benchmark):
    """E2.8 / Fig 2.8: container size and per-object overhead as the
    population grows; receivers unpack every carried object."""
    codec = MhegCodec()
    sizes = {}
    for n in (1, 10, 50):
        sizes[n] = len(codec.encode(sample_container(n_contents=n)))

    blob = codec.encode(sample_container(n_contents=50))

    def unpack():
        engine = MhegEngine(Simulator())
        engine.receive(blob)
        return engine

    engine = benchmark(unpack)
    assert len(engine.stored_ids()) == 52  # 50 + script + container
    per_object = (sizes[50] - sizes[1]) / 49
    benchmark.extra_info["container_bytes"] = sizes
    benchmark.extra_info["marginal_bytes_per_object"] = round(per_object)
    # packing overhead is linear and modest relative to content
    assert per_object < 2 * 500


def test_engine_to_engine(benchmark):
    """E2.9 / Fig 2.9: system A encodes, the ATM network carries, and
    system B decodes into its own internal form."""
    cont = sample_container(n_contents=5)

    def run():
        sim = Simulator()
        net, _ = star_campus(sim, ["site-a", "site-b"])
        contract = TrafficContract(ServiceCategory.NRT_VBR, pcr=100000,
                                   scr=50000, mbs=300)
        conn_a, conn_b = connect_pair(sim, net, "site-a", "site-b",
                                      contract)
        engine_a = MhegEngine(sim, name="A")
        engine_b = MhegEngine(sim, name="B")
        engine_a.store(cont)

        received = []
        conn_b.on_message = lambda msg: received.append(
            engine_b.receive(msg.body))
        blob = engine_a.encode(ref(APP, 999))
        conn_a.send(Message(type=MessageType.DATA, body=blob))
        sim.run(until=5.0)
        return engine_b, received

    engine_b, received = benchmark(run)
    assert received and engine_b.knows(ref(APP, 0))
    # B's internal form equals A's (the codec is lossless both ways)
    assert engine_b.get(ref(APP, 0)) == cont.objects[0]
