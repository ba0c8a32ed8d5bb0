"""E2.4: the MHEG object life cycle (Fig 2.4).

Form (a) interchange bytes -> form (b) engine-internal objects ->
form (c) run-time objects, and back out: rt deletion, model destroy.
The benchmark measures a full cycle; assertions pin the semantics the
figure prescribes (model reuse, rt independence).
"""

import pytest

from repro.atm.simulator import Simulator
from repro.mheg import (
    AudioContentClass, ContainerClass, MhegCodec, MhegEngine,
)
from repro.mheg.identifiers import MhegIdentifier, ref
from repro.mheg.runtime import RtState


def make_blob(n_objects: int = 20) -> bytes:
    objects = [
        AudioContentClass(identifier=MhegIdentifier("lc", i),
                          content_hook="SPCM", data=bytes(200),
                          original_duration=1.0)
        for i in range(n_objects)]
    cont = ContainerClass(identifier=MhegIdentifier("lc", 999),
                          objects=objects)
    return MhegCodec().encode(cont)


def test_full_lifecycle(benchmark):
    blob = make_blob()

    def cycle():
        engine = MhegEngine(Simulator())
        engine.receive(blob)                      # (a) -> (b)
        rt = engine.new_runtime(ref("lc", 0))     # (b) -> (c)
        engine.run(rt)
        engine.sim.run(until=2.0)                 # auto-stop at 1.0
        engine.delete_runtime(rt)                 # (c) removed
        engine.destroy(ref("lc", 0))              # (b) removed
        return engine

    engine = benchmark(cycle)
    assert not engine.knows(ref("lc", 0))


def test_runtime_copies_do_not_affect_model(benchmark):
    """Reuse: many rt copies of one model object, run independently."""
    blob = make_blob(1)

    def run():
        engine = MhegEngine(Simulator())
        engine.receive(blob)
        rts = [engine.new_runtime(ref("lc", 0)) for _ in range(50)]
        for rt in rts[::2]:
            engine.run(rt)
        return engine, rts

    engine, rts = benchmark(run)
    assert sum(1 for rt in rts if rt.state is RtState.RUNNING) == 25
    assert sum(1 for rt in rts if rt.state is RtState.INACTIVE) == 25
    # the model object is untouched by any of it
    assert engine.get(ref("lc", 0)).original_duration == 1.0


def test_decode_scaling(benchmark):
    """(a)->(b) cost grows linearly with container population."""
    sizes = [5, 20, 80]
    blobs = {n: make_blob(n) for n in sizes}

    def decode_all():
        out = []
        for n in sizes:
            engine = MhegEngine(Simulator())
            engine.receive(blobs[n])
            out.append(len(engine.stored_ids()))
        return out

    counts = benchmark(decode_all)
    assert counts == [6, 21, 81]  # objects + the container itself
    benchmark.extra_info["bytes_per_object"] = round(
        len(blobs[80]) / 80, 1)
