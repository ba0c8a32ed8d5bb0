"""E4.5-E4.6: the MHEG class library and the courseware class library.

Fig 4.5 — every class in the basic library instantiates, validates,
and survives both interchange notations; Fig 4.6 — the courseware
templates (Interactive / Output / Hyperobject) expand into working
MHEG object graphs.
"""

import pytest

from repro.atm.simulator import Simulator
from repro.authoring.courseware import (
    Button, EntryField, Hyperobject, Menu, OutputObject,
)
from repro.authoring.editor import CoursewareEditor
from repro.mheg import MhegCodec, MhegEngine
from repro.mheg.classes import class_registry
from repro.mheg.runtime import RtState

# reuse the representative instances from the codec test suite
import sys
sys.path.insert(0, "tests")
from mheg.test_codec import sample_objects  # noqa: E402


def test_mheg_class_library(benchmark):
    """E4.5: one of each class, both notations, byte-size census."""
    codec = MhegCodec()
    objects = sample_objects()

    def roundtrip_all():
        out = {}
        for obj in objects:
            blob = codec.encode(obj)
            assert codec.decode(blob) == obj
            assert codec.from_sgml(codec.to_sgml(obj)) == obj
            out[type(obj).__name__] = len(blob)
        return out

    sizes = benchmark(roundtrip_all)
    benchmark.extra_info["asn1_bytes_per_class"] = sizes
    # the registry covers the eight standard classes plus extensions
    assert len(class_registry()) >= 13
    # descriptors are tiny relative to content-bearing objects
    assert sizes["DescriptorClass"] < sizes["ImageContentClass"] + 1000


def test_courseware_library(benchmark):
    """E4.6: template expansion into presentable object graphs."""

    def expand_all():
        editor = CoursewareEditor("cwlib")
        alloc = editor._alloc
        expansions = [
            Button(name="ok", label="OK").to_mheg(alloc),
            Menu(name="menu", entries=["a", "b", "c"]).to_mheg(alloc),
            EntryField(name="name", prompt="Name:").to_mheg(alloc),
            OutputObject(name="clip", kind="video",
                         content_ref="v1").to_mheg(alloc),
            Hyperobject(
                name="hyper",
                inputs=[Button(name="play", label="Play")],
                outputs=[OutputObject(name="movie", kind="video",
                                      content_ref="v1")],
                links={"play": "movie"}).to_mheg(alloc),
        ]
        return expansions

    expansions = benchmark(expand_all)
    counts = {i: len(e.objects) for i, e in enumerate(expansions)}
    benchmark.extra_info["objects_per_template"] = counts
    # hyperobject graph actually runs: click -> linked output presents
    engine = MhegEngine(Simulator())
    engine.content_resolver = lambda key: b"x"
    hyper = expansions[-1]
    for obj in hyper.objects:
        engine.store(obj)
    rt = engine.new_runtime(hyper.main)
    engine.run(rt)
    play = next(r for r in engine.runtimes()
                if r.model.info.name == "play")
    movie = next(r for r in engine.runtimes()
                 if r.model.info.name == "movie")
    engine.select(play)
    assert movie.state is RtState.RUNNING
