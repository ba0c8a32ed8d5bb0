"""The object-walk BER encoder against the plain-tree formula.

``MhegCodec.encode`` writes BER straight from the object graph.  Its
bytes must be those of the formula it replaced: the APPLICATION
wrapper around ``asn1.encode_value(to_plain(obj))``.  That formula
survives here as the oracle, run over the golden objects, every
document the perfbench workloads compile, random object graphs, and
inputs that either path must refuse with ``EncodingError``.
"""

import enum

import pytest
from hypothesis import given, settings, strategies as st

from perfbench.workloads import WORKLOADS, make_inputs
from repro.mheg import (
    ActionClass, ActionVerb, ContainerClass, ElementaryAction,
    GenericValueClass, MhegCodec, Socket, SocketKind,
)
from repro.mheg import asn1
from repro.mheg.classes.base import ObjectInfo
from repro.mheg.classes.content import StreamDescription
from repro.mheg.classes.interchange import ResourceRequirement
from repro.mheg.codec import to_plain
from repro.mheg.identifiers import MhegIdentifier, ref
from repro.util.errors import EncodingError
from tests.mheg.test_encode_goldens import golden_objects

codec = MhegCodec()


def reference_encode(obj):
    """The plain-tree formula: to_plain, the value layer, the wrapper."""
    body = asn1.encode_value(to_plain(obj))
    return (asn1._encode_identifier(asn1.APPLICATION, int(obj.class_id),
                                    True)
            + asn1._encode_length(len(body)) + body)


def outcome(encode, obj):
    """The bytes *encode* makes of *obj*, or EncodingError if it
    refuses it."""
    try:
        return encode(obj)
    except EncodingError:
        return EncodingError


def mid(n):
    return MhegIdentifier("eq", n)


@pytest.mark.parametrize("name", sorted(golden_objects()))
def test_golden_objects(name):
    obj = golden_objects()[name]
    assert codec.encode(obj) == reference_encode(obj)


def compiled_documents(workload, seed, out_dir):
    """Every object the workload's inputs and set-up encode."""
    seen = []
    encode = MhegCodec.encode

    def spy(self, obj):
        seen.append(obj)
        return encode(self, obj)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(MhegCodec, "encode", spy)
        inputs = make_inputs(workload, seed)
        if workload == "lecture":
            WORKLOADS[workload](inputs, out_dir, obs=False).setup()
    return seen


@pytest.mark.parametrize("seed", [1, 201])
@pytest.mark.parametrize("workload", ["lecture", "catalog", "publish"])
def test_workload_documents(workload, seed, tmp_path):
    documents = compiled_documents(workload, seed, str(tmp_path))
    assert documents
    for obj in documents:
        assert codec.encode(obj) == reference_encode(obj)


# -- random object graphs --------------------------------------------------

class Level(enum.IntEnum):
    LOW = 1
    HIGH = 300


class Label(str, enum.Enum):
    A = "alpha"


scalars = (st.none() | st.booleans() | st.integers()
           | st.integers(-2**300, 2**300) | st.floats()
           | st.text(max_size=20) | st.binary(max_size=40)
           | st.sampled_from([Level.LOW, Level.HIGH, Label.A]))
references = st.builds(ref, st.sampled_from(["eq", "other"]),
                       st.integers(0, 10**6),
                       st.none() | st.integers(0, 99))
identifiers = st.builds(MhegIdentifier, st.just("eq"),
                        st.integers(0, 10**6))
value_types = (
    st.builds(StreamDescription, st.integers(0, 99), st.text(max_size=8),
              st.floats(0, 1e7))
    | st.builds(ResourceRequirement, st.text(min_size=1, max_size=8),
                st.floats(0, 1e7), st.integers(0, 2**40))
    | st.builds(Socket, st.text(min_size=1, max_size=8),
                st.just(SocketKind.PRESENTABLE), references)
    | st.builds(ElementaryAction, st.sampled_from(list(ActionVerb)),
                references,
                st.dictionaries(st.text(max_size=6), scalars, max_size=3),
                st.floats(0, 10)))
infos = st.builds(ObjectInfo, name=st.text(max_size=10),
                  keywords=st.lists(st.text(max_size=6), max_size=3),
                  version=st.sampled_from(["1", "2"]))


def generic(value, number, info):
    return GenericValueClass(identifier=mid(number), info=info, value=value)


graph_values = st.recursive(
    scalars | references | identifiers | value_types,
    lambda children: (
        st.lists(children, max_size=4)
        | st.tuples(children, children)
        | st.dictionaries(st.text(max_size=8), children, max_size=4)
        | st.builds(generic, children, st.integers(0, 10**4), infos)),
    max_leaves=30)
objects = (st.builds(generic, graph_values, st.integers(0, 10**4), infos)
           | st.builds(lambda values, info: ContainerClass(
               identifier=mid(10**5), info=info,
               objects=[generic(v, n, ObjectInfo())
                        for n, v in enumerate(values)]),
               st.lists(graph_values, max_size=4), infos))


@settings(deadline=None, max_examples=300)
@given(objects)
def test_random_graphs(obj):
    assert outcome(codec.encode, obj) == outcome(reference_encode, obj)


# -- inputs either path must refuse ------------------------------------------

def nested_lists(depth):
    value = "leaf"
    for _ in range(depth):
        value = [value]
    return value


def nested_dicts(depth):
    value = 0
    for _ in range(depth):
        value = {"k": value}
    return value


def nested_objects(depth):
    obj = generic("leaf", 0, ObjectInfo())
    for n in range(1, depth):
        obj = generic({"inner": obj}, n, ObjectInfo())
    return obj


def deep_parameters(depth):
    """An action whose parameters nest *depth* deep: a to_value()
    payload, which only the BER depth limit bounds."""
    return ActionClass(identifier=mid(1), actions=[ElementaryAction(
        ActionVerb.SET_VOLUME, ref("eq", 2), parameters=nested_dicts(depth))])


def deep_keywords(depth):
    return generic(1, 1, ObjectInfo(keywords=[nested_lists(depth)]))


@pytest.mark.parametrize("depth", range(20, 41))
@pytest.mark.parametrize("build", [
    lambda d: generic(nested_lists(d), 1, ObjectInfo()),
    lambda d: generic(nested_dicts(d), 1, ObjectInfo()),
    nested_objects, deep_parameters, deep_keywords,
], ids=["lists", "dicts", "objects", "parameters", "keywords"])
def test_deep_graphs(build, depth):
    obj = build(depth)
    assert outcome(codec.encode, obj) == outcome(reference_encode, obj)


def test_depth_limits_are_reached():
    """The sweep above crosses both limits: some depths encode, some
    are refused."""
    for build in (nested_lists, nested_dicts):
        results = {outcome(codec.encode, generic(build(d), 1, ObjectInfo()))
                   is EncodingError for d in range(20, 41)}
        assert results == {False, True}
    results = {outcome(codec.encode, deep_parameters(d)) is EncodingError
               for d in range(20, 41)}
    assert results == {False, True}


class Foreign:
    pass


def foreign_socket():
    class Socket:  # shares only its name with the value type
        pass
    return Socket()


@pytest.mark.parametrize("obj", [
    generic({1: "x"}, 1, ObjectInfo()),
    generic([{"ok": 1}, {(1, 2): "x"}], 1, ObjectInfo()),
    generic({"x": Foreign()}, 1, ObjectInfo()),
    generic({"x": {1, 2}}, 1, ObjectInfo()),
    generic([bytearray(b"x")], 1, ObjectInfo()),
    generic({"x": foreign_socket()}, 1, ObjectInfo()),
    ActionClass(identifier=mid(1), actions=[ElementaryAction(
        ActionVerb.RUN, ref("eq", 2), parameters={"x": object()})]),
    ContainerClass(identifier=mid(1), objects=[
        generic(1, 2, ObjectInfo()), ActionClass(identifier=mid(3))]),
    generic({"inner": ActionClass(identifier=mid(3), mode="sideways",
                                  actions=[ElementaryAction(
                                      ActionVerb.RUN, ref("eq", 2))])},
            1, ObjectInfo()),
], ids=["int-key", "tuple-key", "foreign", "set", "bytearray",
        "named-socket", "foreign-parameter", "invalid-member",
        "invalid-nested"])
def test_refused_by_both(obj):
    with pytest.raises(EncodingError):
        codec.encode(obj)
    with pytest.raises(EncodingError):
        reference_encode(obj)


def test_class_named_like_a_value_type_is_foreign():
    """Value types are picked by class, not by class name: a payload
    class named ``Socket`` is refused like any other foreign class
    instead of reaching ``.to_value()``."""
    obj = generic({"x": foreign_socket()}, 1, ObjectInfo())
    with pytest.raises(EncodingError, match="cannot interchange value of "
                                            "type Socket"):
        codec.encode(obj)
    with pytest.raises(EncodingError, match="cannot interchange value of "
                                            "type Socket"):
        codec.to_sgml(obj)
