"""MHEG object interchange codec (Fig 2.9).

"MHEG object is only coded at the interchange point between the using
applications.  The MHEG encoder converts the internal format used in A
to the MHEG format, while the MHEG decoder decodes the MHEG object to
its own internal format."

Two notations, as in the standard: **ASN.1 BER** (the primary, via
:mod:`repro.mheg.asn1`) and an **SGML-like textual form**.  Both map
the object graph to the same neutral tree of dicts, lists and scalars,
so they are exactly equivalent and round-trip through each other.
The SGML form and the BER decoder go through that tree as
:func:`to_plain` / :func:`from_plain` build it.  The BER encoder, the
interchange hot path, writes the tree's bytes straight from the
objects in one walk (:func:`_write_object`) and builds no tree; its
output is byte for byte ``asn1.encode_value(to_plain(obj))``.
"""

from __future__ import annotations

import base64
import re
from typing import Any, Dict, List, Tuple, Type

from repro.mheg import asn1
from repro.mheg.classes.base import MhObject, ObjectInfo, lookup_class
from repro.mheg.classes.behavior import ElementaryAction, LinkCondition
from repro.mheg.classes.composite import Socket
from repro.mheg.classes.content import StreamDescription
from repro.mheg.classes.interchange import ResourceRequirement
from repro.mheg.identifiers import MhegIdentifier, ObjectReference
from repro.util.errors import DecodingError, EncodingError

#: dataclasses that serialise via to_value()/from_value(), by class: a
#: payload class that merely shares one's name is not one of them
_VALUE_TYPES: Dict[Type, str] = {
    cls: cls.__name__ for cls in (ElementaryAction, LinkCondition, Socket,
                                  StreamDescription, ResourceRequirement)}
#: the same, by the ``__kind__`` name they interchange under
_VALUE_KINDS: Dict[str, Type] = {
    name: cls for cls, name in _VALUE_TYPES.items()}

#: object-graph depth past which a graph is refused either way
_GRAPH_DEPTH = 24


# -- object <-> plain tree ----------------------------------------------------

def _plain_value(value: Any, depth: int = 0) -> Any:
    if depth > _GRAPH_DEPTH:
        raise EncodingError("object graph nests too deeply")
    if isinstance(value, MhObject):
        return to_plain(value, depth + 1)
    if isinstance(value, (ObjectReference, MhegIdentifier)):
        return {"__ref__": str(value)}
    kind = _VALUE_TYPES.get(type(value))
    if kind is not None:
        return {"__kind__": kind, "v": value.to_value()}
    if isinstance(value, dict):
        out = {}
        for k, v in value.items():
            if not isinstance(k, str):
                raise EncodingError("interchange dict keys must be str")
            out[k] = _plain_value(v, depth + 1)
        return out
    if isinstance(value, (list, tuple)):
        return [_plain_value(v, depth + 1) for v in value]
    if value is None or isinstance(value, (bool, int, float, str, bytes)):
        return value
    raise EncodingError(
        f"cannot interchange value of type {type(value).__name__}")


def _from_plain_value(value: Any, depth: int = 0) -> Any:
    if depth > _GRAPH_DEPTH:
        raise DecodingError("interchanged value nests too deeply")
    if isinstance(value, dict):
        if "__mheg__" in value:
            return from_plain(value, depth + 1)
        if "__ref__" in value:
            return ObjectReference.parse(value["__ref__"])
        if "__kind__" in value:
            cls = _VALUE_KINDS.get(value["__kind__"])
            if cls is None:
                raise DecodingError(
                    f"unknown value kind {value['__kind__']!r}")
            return cls.from_value(value["v"])
        return {k: _from_plain_value(v, depth + 1) for k, v in value.items()}
    if isinstance(value, list):
        return [_from_plain_value(v, depth + 1) for v in value]
    return value


def to_plain(obj: MhObject, depth: int = 0) -> Dict[str, Any]:
    """Convert an object (graph) to the neutral interchange tree."""
    obj.validate()
    out = {
        "__mheg__": obj.type_name(),
        "standard": obj.standard_id,
        "class": int(obj.class_id),
        "id": str(obj.identifier),
        "fields": {name: _plain_value(v, depth + 1)
                   for name, v in obj.interchange_fields().items()},
    }
    info = obj.info.to_value()
    if info:
        out["info"] = info
    return out


def from_plain(plain: Dict[str, Any], depth: int = 0) -> MhObject:
    """Inverse of :func:`to_plain`; validates the rebuilt object."""
    try:
        type_name = plain["__mheg__"]
        identifier = MhegIdentifier.parse(plain["id"])
        info = ObjectInfo.from_value(plain.get("info", {}))
        raw_fields = plain.get("fields", {})
    except (KeyError, ValueError, TypeError) as exc:
        raise DecodingError(f"malformed interchanged object: {exc}") from exc
    cls = lookup_class(type_name)
    if plain.get("class") != int(cls.CLASS_ID):
        raise DecodingError(
            f"{type_name}: class id mismatch "
            f"({plain.get('class')} != {int(cls.CLASS_ID)})")
    kwargs = {}
    for name in cls.FIELDS:
        if name in raw_fields:
            kwargs[name] = _from_plain_value(raw_fields[name], depth + 1)
    try:
        obj = cls(identifier=identifier, info=info, **kwargs)
    except TypeError as exc:
        raise DecodingError(f"{type_name}: bad field set: {exc}") from exc
    obj.validate()
    return obj


# -- object graph -> BER, in one walk ----------------------------------------
# The bytes are those of asn1.encode_value(to_plain(obj)), written from
# the objects themselves.  *depth* is the graph depth _plain_value would
# see, so both limits fall where they did: a graph value sits one level
# deeper in BER than in the graph, and to_value()/info payloads go to
# the plain-value layer at the BER depth they would have reached there.
# Only bytes that depend on a class alone are cached; anything keyed by
# payload data would grow with the documents.

_UTF8, _INTEGER = asn1.TAG_UTF8STRING, asn1.TAG_INTEGER
_SEQUENCE, _DICT = asn1.ID_SEQUENCE, asn1.ID_DICT

_REF_KEY = asn1.encode_value("__ref__")
_FIELDS_KEY = asn1.encode_value("fields")
_INFO_KEY = asn1.encode_value("info")
#: value class -> the constant opening of its {"__kind__", "v"} frame
_KIND_HEADS: Dict[Type, bytes] = {
    cls: b"".join(map(asn1.encode_value, ("__kind__", name, "v")))
    for cls, name in _VALUE_TYPES.items()}
#: MhObject class -> (its frame up to the "id" key, FIELDS name -> key)
_CLASS_HEADS: Dict[Type, Tuple[bytes, Dict[str, bytes]]] = {}


def _class_head(obj: MhObject) -> Tuple[bytes, Dict[str, bytes]]:
    cls = type(obj)
    head = b"".join(map(asn1.encode_value, (
        "__mheg__", obj.type_name(), "standard", obj.standard_id,
        "class", int(obj.class_id), "id")))
    keys = {name: asn1.encode_value(name) for name in cls.FIELDS}
    _CLASS_HEADS[cls] = head, keys
    return head, keys


def _write_object(obj: MhObject, out: List[bytes], depth: int) -> int:
    """Append the BER of *obj*'s frame to *out*; return its size.

    *obj* is validated before any of its bytes are written.  Like
    :func:`asn1._encode_into`, a frame reserves a slot in *out* for its
    header and fills it in once its children are written.
    """
    obj.validate()
    head, keys = _CLASS_HEADS.get(type(obj)) or _class_head(obj)
    slot = len(out)
    out.append(b"")
    ident = str(obj.identifier).encode("utf-8")
    n = len(ident)
    ident_header = asn1._header(_UTF8, n)
    out += (head, ident_header, ident, _FIELDS_KEY)
    fields_slot = len(out)
    out.append(b"")
    fields = 0
    for name, value in obj.interchange_fields().items():
        key = keys[name]
        out.append(key)
        fields += len(key) + _write(value, out, depth + 2)
    fields_header = out[fields_slot] = asn1._header(_DICT, fields)
    size = (len(head) + len(ident_header) + n + len(_FIELDS_KEY)
            + len(fields_header) + fields)
    info = obj.info.to_value()
    if info:
        out.append(_INFO_KEY)
        size += len(_INFO_KEY) + asn1._encode_into(info, out, depth + 2)
    header = out[slot] = asn1._header(_DICT, size)
    return len(header) + size


def _write(value: Any, out: List[bytes], depth: int) -> int:
    """Append the BER of graph value *value* to *out*; return its size.

    The types most of a document is made of come first, by exact type;
    the rest follow :func:`_plain_value`'s order.
    """
    if depth > _GRAPH_DEPTH:
        raise EncodingError("object graph nests too deeply")
    t = type(value)
    if t is str:
        body = value.encode("utf-8")
        n = len(body)
        header = asn1._header(_UTF8, n)
        out.append(header)
        out.append(body)
        return len(header) + n
    if t is int:
        n = ((value if value >= 0 else ~value).bit_length() + 8) // 8
        header = asn1._header(_INTEGER, n)
        out.append(header)
        out.append(value.to_bytes(n, "big", signed=True))
        return len(header) + n
    if isinstance(value, dict):
        slot = len(out)
        out.append(b"")
        size = 0
        for k, v in value.items():
            if not isinstance(k, str):
                raise EncodingError("interchange dict keys must be str")
            key = k.encode("utf-8")
            n = len(key)
            header = asn1._header(_UTF8, n)
            out.append(header)
            out.append(key)
            size += len(header) + n + _write(v, out, depth + 1)
        header = out[slot] = asn1._header(_DICT, size)
        return len(header) + size
    if isinstance(value, (list, tuple)):
        slot = len(out)
        out.append(b"")
        size = 0
        for item in value:
            size += _write(item, out, depth + 1)
        header = out[slot] = asn1._header(_SEQUENCE, size)
        return len(header) + size
    if isinstance(value, MhObject):
        return _write_object(value, out, depth)
    if isinstance(value, (ObjectReference, MhegIdentifier)):
        # {"__ref__": str(value)}
        body = str(value).encode("utf-8")
        n = len(body)
        header = asn1._header(_UTF8, n)
        size = len(_REF_KEY) + len(header) + n
        frame = asn1._header(_DICT, size)
        out += (frame, _REF_KEY, header, body)
        return len(frame) + size
    head = _KIND_HEADS.get(t)
    if head is not None:
        # {"__kind__": name, "v": value.to_value()}
        slot = len(out)
        out.append(b"")
        out.append(head)
        size = len(head) + asn1._encode_into(value.to_value(), out,
                                             depth + 2)
        header = out[slot] = asn1._header(_DICT, size)
        return len(header) + size
    if value is None or isinstance(value, (bool, int, float, str, bytes)):
        return asn1._encode_into(value, out, depth + 1)
    raise EncodingError(f"cannot interchange value of type {t.__name__}")


# -- SGML-like textual notation ----------------------------------------------
# <mheg type="ContentClass" id="app/1"> <num n="19"/> ... </mheg> would be
# heavy; we emit a compact element-per-node form that an SGML-era tool
# would recognise, with explicit types so parsing is unambiguous.

_ESCAPES = {"&": "&amp;", "<": "&lt;", ">": "&gt;", '"': "&quot;"}
_UNESCAPES = {v: k for k, v in _ESCAPES.items()}


def _escape(text: str) -> str:
    for raw, esc in _ESCAPES.items():
        text = text.replace(raw, esc)
    return text


def _unescape(text: str) -> str:
    text = text.replace("&lt;", "<").replace("&gt;", ">") \
               .replace("&quot;", '"')
    return text.replace("&amp;", "&")


def _sgml_node(value: Any, out: List[str], indent: int) -> None:
    pad = "  " * indent
    if value is None:
        out.append(f"{pad}<null/>")
    elif value is True or value is False:
        out.append(f"{pad}<bool v=\"{'true' if value else 'false'}\"/>")
    elif isinstance(value, int):
        out.append(f'{pad}<int v="{value}"/>')
    elif isinstance(value, float):
        out.append(f'{pad}<real v="{value!r}"/>')
    elif isinstance(value, str):
        out.append(f'{pad}<str v="{_escape(value)}"/>')
    elif isinstance(value, bytes):
        out.append(f'{pad}<data v="{base64.b64encode(value).decode()}"/>')
    elif isinstance(value, list):
        out.append(f"{pad}<list>")
        for item in value:
            _sgml_node(item, out, indent + 1)
        out.append(f"{pad}</list>")
    elif isinstance(value, dict):
        out.append(f"{pad}<map>")
        for k, v in value.items():
            out.append(f'{pad}  <entry key="{_escape(k)}">')
            _sgml_node(v, out, indent + 2)
            out.append(f"{pad}  </entry>")
        out.append(f"{pad}</map>")
    else:
        raise EncodingError(f"cannot SGML-encode {type(value).__name__}")


_TOKEN_RE = re.compile(
    r"<(null|bool|int|real|str|data)\s*(?:v=\"([^\"]*)\")?\s*/>"
    r"|<(list|map)>|</(list|map)>"
    r"|<entry key=\"([^\"]*)\">|</entry>")


def _parse_sgml_nodes(text: str):
    """Tokenise and parse the node grammar; returns the root value."""
    pos = 0
    stack: List[Any] = []
    root_holder: List[Any] = []

    def emit(value: Any) -> None:
        if not stack:
            root_holder.append(value)
        else:
            top = stack[-1]
            if isinstance(top, list):
                top.append(value)
            else:  # (dict, pending_key)
                container, key = top
                if key[0] is None:
                    raise DecodingError("value outside <entry> in <map>")
                container[key[0]] = value
                key[0] = None

    for match in _TOKEN_RE.finditer(text):
        leaf, leaf_v, open_tag, close_tag, entry_key = (
            match.group(1), match.group(2), match.group(3),
            match.group(4), match.group(5))
        if leaf:
            v = leaf_v if leaf_v is not None else ""
            if leaf == "null":
                emit(None)
            elif leaf == "bool":
                emit(v == "true")
            elif leaf == "int":
                emit(int(v))
            elif leaf == "real":
                emit(float(v))
            elif leaf == "str":
                emit(_unescape(v))
            elif leaf == "data":
                try:
                    emit(base64.b64decode(v, validate=True))
                except Exception as exc:
                    raise DecodingError(f"bad base64 data: {exc}") from exc
        elif open_tag == "list":
            stack.append([])
        elif open_tag == "map":
            stack.append(({}, [None]))
        elif close_tag == "list":
            if not stack or not isinstance(stack[-1], list):
                raise DecodingError("mismatched </list>")
            emit(stack.pop())
        elif close_tag == "map":
            if not stack or isinstance(stack[-1], list):
                raise DecodingError("mismatched </map>")
            container, _ = stack.pop()
            emit(container)
        elif entry_key is not None:
            if not stack or isinstance(stack[-1], list):
                raise DecodingError("<entry> outside <map>")
            stack[-1][1][0] = _unescape(entry_key)
        # </entry> needs no action
    if stack:
        raise DecodingError("unclosed SGML container")
    if len(root_holder) != 1:
        raise DecodingError(
            f"expected exactly one root value, got {len(root_holder)}")
    return root_holder[0]


class MhegCodec:
    """Encoder/decoder between internal objects and interchange forms."""

    def encode(self, obj: MhObject) -> bytes:
        """Object -> ASN.1 BER bytes (the form (a) interchange unit)."""
        out = [b""]
        size = _write_object(obj, out, -1)
        out[0] = (asn1._encode_identifier(asn1.APPLICATION,
                                          int(obj.class_id), True)
                  + asn1._encode_length(size))
        return b"".join(out)

    def decode(self, data: bytes) -> MhObject:
        """ASN.1 BER bytes -> internal object (form (b))."""
        if not data:
            raise DecodingError("empty MHEG interchange unit")
        if data[0] >> 6 != asn1.APPLICATION:
            raise DecodingError("MHEG objects are application-tagged")
        outer_tag = data[0] & 0x1F
        # skip the outer identifier+length, then one-pass parse the body
        _cls, _num, _constructed, header_end = \
            asn1._decode_identifier(data, 0)
        length, body_start = asn1._decode_length(data, header_end)
        if body_start + length != len(data):
            raise DecodingError("MHEG wrapper length mismatch")
        plain, end = asn1.parse_value(data, body_start)
        if end != len(data):
            raise DecodingError("MHEG wrapper must hold one value")
        obj = from_plain(plain)
        if int(obj.class_id) != outer_tag:
            raise DecodingError(
                f"outer class tag {outer_tag} does not match object class "
                f"{int(obj.class_id)}")
        return obj

    def to_sgml(self, obj: MhObject) -> str:
        """Object -> SGML-like textual notation."""
        plain = to_plain(obj)
        out: List[str] = [f'<mheg type="{obj.type_name()}">']
        _sgml_node(plain, out, 1)
        out.append("</mheg>")
        return "\n".join(out)

    def from_sgml(self, text: str) -> MhObject:
        match = re.search(r'<mheg type="[^"]*">(.*)</mheg>', text, re.DOTALL)
        if not match:
            raise DecodingError("not an MHEG SGML document")
        plain = _parse_sgml_nodes(match.group(1))
        return from_plain(plain)
