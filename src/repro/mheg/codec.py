"""MHEG object interchange codec (Fig 2.9).

"MHEG object is only coded at the interchange point between the using
applications.  The MHEG encoder converts the internal format used in A
to the MHEG format, while the MHEG decoder decodes the MHEG object to
its own internal format."

Two notations, as in the standard: **ASN.1 BER** (the primary, via
:mod:`repro.mheg.asn1`) and an **SGML-like textual form**.  Both paths
share one intermediate representation — a plain tree of dicts, lists,
and scalars produced by :func:`to_plain` — so they are exactly
equivalent and round-trip through each other.
"""

from __future__ import annotations

import base64
import re
from typing import Any, Dict, List, Type

from repro.mheg import asn1
from repro.mheg.classes.base import MhObject, ObjectInfo, lookup_class
from repro.mheg.classes.behavior import ElementaryAction, LinkCondition
from repro.mheg.classes.composite import Socket
from repro.mheg.classes.content import StreamDescription
from repro.mheg.classes.interchange import ResourceRequirement
from repro.mheg.identifiers import MhegIdentifier, ObjectReference
from repro.util.errors import DecodingError, EncodingError

#: dataclasses that serialise via to_value()/from_value()
_VALUE_TYPES: Dict[str, Type] = {
    "ElementaryAction": ElementaryAction,
    "LinkCondition": LinkCondition,
    "Socket": Socket,
    "StreamDescription": StreamDescription,
    "ResourceRequirement": ResourceRequirement,
}


# -- object <-> plain tree ----------------------------------------------------

def _plain_value(value: Any, depth: int = 0) -> Any:
    if depth > 24:
        raise EncodingError("object graph nests too deeply")
    if isinstance(value, MhObject):
        return to_plain(value, depth + 1)
    if isinstance(value, ObjectReference):
        return {"__ref__": str(value)}
    if isinstance(value, MhegIdentifier):
        return {"__ref__": str(value)}
    type_name = type(value).__name__
    if type_name in _VALUE_TYPES:
        return {"__kind__": type_name, "v": value.to_value()}
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
        f"cannot interchange value of type {type_name}")


def _from_plain_value(value: Any, depth: int = 0) -> Any:
    if depth > 24:
        raise DecodingError("interchanged value nests too deeply")
    if isinstance(value, dict):
        if "__mheg__" in value:
            return from_plain(value, depth + 1)
        if "__ref__" in value:
            return ObjectReference.parse(value["__ref__"])
        if "__kind__" in value:
            cls = _VALUE_TYPES.get(value["__kind__"])
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
        body = asn1.encode_value(to_plain(obj))
        return (asn1._encode_identifier(asn1.APPLICATION, int(obj.class_id),
                                        True)
                + asn1._encode_length(len(body)) + body)

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
