"""Byte goldens for the ASN.1 BER interchange encoder.

``MhegCodec.encode`` output is what the database stores and the
network carries, so any encoder rewrite must emit the same bytes.  The
sha256 of each encoded unit below was recorded with the Tlv-tree
encoder that preceded the one-pass one.  Re-record
(``PYTHONPATH=src python -m tests.mheg.test_encode_goldens``) only for
an intended wire-format change.
"""

import hashlib

import pytest

from repro.authoring import (
    CoursewareEditor, InteractiveDocument, Scene, SceneObject, Section,
    TimelineEntry,
)
from repro.mheg import (
    ActionClass, ActionVerb, CompositeClass, ContainerClass,
    DescriptorClass, ElementaryAction, GenericValueClass, ImageContentClass,
    LinkClass, MhegCodec, MultiplexedContentClass, ScriptClass, Socket,
    SocketKind,
)
from repro.mheg.classes.base import ClassId
from repro.mheg.classes.behavior import ConditionKind, LinkCondition
from repro.mheg.classes.content import StreamDescription
from repro.mheg.classes.interchange import ResourceRequirement
from repro.mheg.identifiers import MhegIdentifier, ref


def mid(n):
    return MhegIdentifier("gold", n)


def golden_objects():
    """One object per ClassId, plus a compiled multi-scene document.

    The payloads reach long-form lengths (one- and three-octet), big
    and negative integers, floats, empty lists and dicts.
    """
    content = ImageContentClass(
        identifier=mid(1), content_hook="SIMG",
        data=bytes(range(256)) * 2 + b"\x00" * 44,
        original_size=[640, 480],
        presentation={"position": [-3, 2**70], "scale": 0.75, "tags": [],
                      "extra": {}, "visible": True, "note": None})
    value = GenericValueClass(
        identifier=mid(2),
        value={"big": -2**65, "blob": b"\xab" * 70000, "text": "é" * 200})
    mux = MultiplexedContentClass(
        identifier=mid(3), content_hook="SMPG", content_ref="movie-9",
        streams=[StreamDescription(1, "video", 1.5e6),
                 StreamDescription(2, "audio", 64e3)])
    composite = CompositeClass(
        identifier=mid(4), components=[ref("gold", 1), ref("gold", 3)],
        sockets=[Socket("pic", SocketKind.PRESENTABLE, ref("gold", 1))],
        links=[ref("gold", 5)],
        sync_spec={"kind": "atomic", "mode": "serial",
                   "first": "gold/1", "second": "gold/3"},
        layout={"gold/1": {"position": [0, 0], "size": [320, 240]}})
    link = LinkClass(
        identifier=mid(5),
        trigger_conditions=[LinkCondition(ConditionKind.TRIGGER,
                                          ref("gold", 1), "selected", "==",
                                          True)],
        additional_conditions=[LinkCondition(ConditionKind.ADDITIONAL,
                                             ref("gold", 3), "presentation",
                                             "==", "running")],
        effect_ref=ref("gold", 6), once=True)
    action = ActionClass(identifier=mid(6), mode="parallel", actions=[
        ElementaryAction(ActionVerb.RUN, ref("gold", 3, 1), delay=0.25),
        ElementaryAction(ActionVerb.SET_VOLUME, ref("gold", 3, 1),
                         parameters={"value": 60})])
    script = ScriptClass(identifier=mid(7),
                         source="new video gold/3 as 1 on main\n" * 8)
    descriptor = DescriptorClass(
        identifier=mid(8), described=[ref("gold", 4)],
        requirements=[ResourceRequirement("SIMG", storage_bytes=4096),
                      ResourceRequirement("SMPG", storage_bytes=2**40)],
        readme="needs image and video decoders", total_size=2**40 + 4096)
    container = ContainerClass(
        identifier=mid(9), objects=[content, mux, link, action])
    objects = {ClassId.CONTENT: content, ClassId.MULTIPLEXED_CONTENT: mux,
               ClassId.COMPOSITE: composite, ClassId.LINK: link,
               ClassId.ACTION: action, ClassId.SCRIPT: script,
               ClassId.DESCRIPTOR: descriptor, ClassId.CONTAINER: container}
    out = {cid.name: obj for cid, obj in objects.items()}
    out["GENERIC_VALUE"] = value
    out["IMD"] = CoursewareEditor("gold").compile_imd(imd()).container
    return out


def imd():
    doc = InteractiveDocument("gold", title="Golden course")
    intro = Scene(name="intro", objects=[
        SceneObject(name="clip", kind="video", content_ref="vid-1"),
        SceneObject(name="caption", kind="text", content_ref="txt-1"),
        SceneObject(name="skip", kind="choice", label="Skip")])
    intro.timeline.add(TimelineEntry("clip", 0.0, 2.0))
    intro.timeline.add(TimelineEntry("caption", 0.5, 1.0,
                                     preempted_by="skip",
                                     preempt_next="clip"))
    intro.behavior.when_selected("skip", ("stop", "clip"))
    lab = Scene(name="lab", objects=[
        SceneObject(name="diagram", kind="image", content_ref="img-1"),
        SceneObject(name="done", kind="choice", label="Done")])
    lab.timeline.add(TimelineEntry("diagram", 0.0, 4.0))
    lab.behavior.when_selected("done", ("stop", "diagram"))
    quiz = Scene(name="quiz", objects=[
        SceneObject(name="question", kind="text", content_ref="txt-2")])
    quiz.timeline.add(TimelineEntry("question", 0.0, 3.0))
    doc.add_section(Section(name="s1", scenes=[intro, lab]))
    doc.add_section(Section(name="s2", scenes=[quiz]))
    return doc


def digests():
    codec = MhegCodec()
    return {name: hashlib.sha256(codec.encode(obj)).hexdigest()
            for name, obj in golden_objects().items()}


GOLDEN = {
    'CONTENT': 'eb9fbc27a0a0fe78fb0e9ad19c53b82eb4d7ea1508fef9ee4aa0ddbb1ce5c385',
    'MULTIPLEXED_CONTENT': 'cfd00a3b88350fa30a35937adbe796fa6b4574c3c26300a5590a0d98bb089f94',
    'COMPOSITE': '500761d355ca07ad2f208fd62c35f38d982cb3ae0b7e7d8a0f157e0f4e3c1e68',
    'LINK': '146c9480039ad495c1fb85b4c2747458a27ac215c56e82e51af7757766b811d0',
    'ACTION': 'ba4cc8039fba1bd362020e4692c08890f836c6386c980f55493075d51c2c391c',
    'SCRIPT': 'f73b1398061fcbff732ec2bc14182aa19aeda1fd68d4c95a8ae2da4776aa1737',
    'DESCRIPTOR': '9a65978b979d7930fdaf5c168b45220809500aaad0fd887129e973915ac777a4',
    'CONTAINER': 'f038a7db63354acc5d35874382e28473a03b49bbd134952ead9348a7968fa8bf',
    'GENERIC_VALUE': '5d5336e191d7c945aa408a6c2c1d0078fc20442633eaa91c623950ac55d06ded',
    'IMD': 'fb3e5544f2aed4fe063b9ef48d4dc4e58bbc9787db98626cf8801bcaf68a772d',
}


def test_every_class_covered():
    assert set(ClassId.__members__) <= set(GOLDEN)


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_encode_matches_golden(name):
    assert digests()[name] == GOLDEN[name]


if __name__ == "__main__":
    for name, digest in digests().items():
        print(f"    {name!r}: {digest!r},")
