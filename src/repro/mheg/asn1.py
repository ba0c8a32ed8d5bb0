"""ASN.1 Basic Encoding Rules, from scratch.

MHEG part 1 specifies ASN.1 as the primary interchange notation.  This
module implements the subset of BER the codec needs, honestly:

* identifier octets with class bits, constructed bit, and high tag
  numbers (> 30) in base-128 continuation form;
* definite lengths in short and long form;
* universal types BOOLEAN, INTEGER, OCTET STRING, NULL, REAL (ISO 6093
  NR3 character form), UTF8String, SEQUENCE;
* constructed application-class elements, which the MHEG codec uses
  to tag classes, and context [0] for str-keyed dicts.

One value layer applies those rules.  :func:`encode_value` /
:func:`parse_value` map plain Python values (None, bool, int, float,
str, bytes, list, str-keyed dict) to self-describing BER, which is what
MHEG attribute bodies use.  Both directions run in one pass over the
bytes and build no element tree.  The tests check the encoder byte for
byte against an independent recursive encoder
(``tests/mheg/reference_ber.py``).

:class:`~repro.mheg.codec.MhegCodec` decodes through
:func:`parse_value`.  Its encoder builds no plain value for
:func:`encode_value`: it walks the object graph and writes the same
elements itself, inside an application-class wrapper, with the
identifier, length and header helpers and the ``ID_*`` octets below.
It hands payloads that are already plain values (a value type's
``to_value()``, an object's ``info``) to :func:`_encode_into`.
"""

from __future__ import annotations

from typing import Any, List, Tuple

from repro.util.errors import DecodingError, EncodingError

# tag classes
UNIVERSAL = 0
APPLICATION = 1
CONTEXT = 2

# universal tag numbers used here
TAG_BOOLEAN = 1
TAG_INTEGER = 2
TAG_OCTET_STRING = 4
TAG_NULL = 5
TAG_REAL = 9
TAG_UTF8STRING = 12
TAG_SEQUENCE = 16

#: identifier octets of the constructed elements the value layer writes
ID_SEQUENCE = 0x20 | TAG_SEQUENCE
ID_DICT = (CONTEXT << 6) | 0x20


# -- identifier and length octets ------------------------------------------

def _encode_identifier(tag_class: int, number: int, constructed: bool) -> bytes:
    if not 0 <= tag_class <= 3:
        raise EncodingError(f"bad tag class {tag_class}")
    if number < 0:
        raise EncodingError(f"bad tag number {number}")
    first = (tag_class << 6) | (0x20 if constructed else 0)
    if number < 31:
        return bytes([first | number])
    # high tag number: 0x1F then base-128, MSB-first, high bit = continue
    out = [first | 0x1F]
    septets = []
    n = number
    while True:
        septets.append(n & 0x7F)
        n >>= 7
        if n == 0:
            break
    for i, sep in enumerate(reversed(septets)):
        out.append(sep | (0x80 if i < len(septets) - 1 else 0))
    return bytes(out)


def _encode_length(length: int) -> bytes:
    if length < 0x80:
        return bytes([length])
    raw = length.to_bytes((length.bit_length() + 7) // 8, "big")
    if len(raw) > 126:
        raise EncodingError("BER length too large")
    return bytes([0x80 | len(raw)]) + raw


def _decode_identifier(data: bytes, pos: int) -> Tuple[int, int, bool, int]:
    if pos >= len(data):
        raise DecodingError("truncated BER identifier")
    first = data[pos]
    pos += 1
    tag_class = first >> 6
    constructed = bool(first & 0x20)
    number = first & 0x1F
    if number == 0x1F:
        number = 0
        while True:
            if pos >= len(data):
                raise DecodingError("truncated high tag number")
            octet = data[pos]
            pos += 1
            number = (number << 7) | (octet & 0x7F)
            if not octet & 0x80:
                break
            if number > 2**28:
                raise DecodingError("tag number unreasonably large")
    return tag_class, number, constructed, pos


def _decode_length(data: bytes, pos: int) -> Tuple[int, int]:
    if pos >= len(data):
        raise DecodingError("truncated BER length")
    first = data[pos]
    pos += 1
    if first < 0x80:
        return first, pos
    nbytes = first & 0x7F
    if nbytes == 0:
        raise DecodingError("indefinite lengths are not supported")
    if pos + nbytes > len(data):
        raise DecodingError("truncated long-form length")
    return int.from_bytes(data[pos:pos + nbytes], "big"), pos + nbytes


# -- generic python-value mapping --------------------------------------------
# lists encode as SEQUENCE; dicts as context[0] holding alternating
# UTF8String key and value elements, so key order round-trips.

_MAX_DEPTH = 32


def _header(tag: int, length: int) -> bytes:
    """Identifier octet *tag* (a tag number below 31, so one octet)
    plus the definite length."""
    if length < 0x80:
        return bytes((tag, length))
    return bytes((tag,)) + _encode_length(length)


def _encode_into(value: Any, out: List[bytes], depth: int) -> int:
    """Append the BER encoding of *value* to *out*; return its size.

    One pass, no element tree: a SEQUENCE or dict reserves a slot in *out*
    for its header and fills it in once its children are written.
    """
    if depth > _MAX_DEPTH:
        raise EncodingError("value nests too deeply for BER encoding")
    if value is None:  # universal primitives: the tag number is the octet
        out.append(b"\x05\x00")
        return 2
    if value is True or value is False:
        out.append(b"\x01\x01\xff" if value else b"\x01\x01\x00")
        return 3
    if isinstance(value, int):
        # X.690 §8.3.2 minimal two's complement: the magnitude (of
        # ~value = -value-1 when negative, so -128 fits one octet) plus
        # a sign bit
        n = ((value if value >= 0 else ~value).bit_length() + 8) // 8
        content = value.to_bytes(n, "big", signed=True)
        tag = TAG_INTEGER
    elif isinstance(value, float):
        # ISO 6093 NR3 character representation (BER base-10 form 3)
        content = b"\x03" + repr(float(value)).encode("ascii")
        tag = TAG_REAL
    elif isinstance(value, str):
        content = value.encode("utf-8")
        tag = TAG_UTF8STRING
    elif isinstance(value, (bytes, bytearray, memoryview)):
        content = bytes(value)
        tag = TAG_OCTET_STRING
    elif isinstance(value, (list, tuple)):
        slot = len(out)
        out.append(b"")
        size = 0
        for item in value:
            size += _encode_into(item, out, depth + 1)
        header = out[slot] = _header(ID_SEQUENCE, size)
        return len(header) + size
    elif isinstance(value, dict):
        # alternating key/value children (no per-entry wrapper): dict
        # entries dominate MHEG object graphs, so the flat layout
        # roughly halves the element count on the wire; the context[0]
        # tag distinguishes a dict from a list
        slot = len(out)
        out.append(b"")
        size = 0
        for k, v in value.items():
            if not isinstance(k, str):
                raise EncodingError("dict keys must be str for BER encoding")
            key = k.encode("utf-8")
            key_header = _header(TAG_UTF8STRING, len(key))
            out.append(key_header)
            out.append(key)
            size += len(key_header) + len(key) + \
                _encode_into(v, out, depth + 1)
        header = out[slot] = _header(ID_DICT, size)
        return len(header) + size
    else:
        raise EncodingError(f"cannot BER-encode {type(value).__name__}")
    header = _header(tag, len(content))
    out.append(header)
    out.append(content)
    return len(header) + len(content)


def encode_value(value: Any) -> bytes:
    """Encode a Python value as self-describing BER bytes."""
    out: List[bytes] = []
    _encode_into(value, out, 0)
    return b"".join(out)


def parse_value(data: bytes, pos: int, depth: int = 0) -> Tuple[Any, int]:
    """One-pass BER -> Python value parser (no intermediate TLV tree).

    Inverse of :func:`encode_value`, with the framing checks of
    :func:`_decode_identifier` and :func:`_decode_length` inlined —
    this is the path every MHEG object decode takes, so it is
    deliberately hand-tuned.
    """
    if depth > _MAX_DEPTH:
        raise DecodingError("BER value nests too deeply")
    try:
        first = data[pos]
    except IndexError:
        raise DecodingError("truncated BER identifier") from None
    pos += 1
    tag_class = first >> 6
    number = first & 0x1F
    if number == 0x1F:
        number = 0
        while True:
            if pos >= len(data):
                raise DecodingError("truncated high tag number")
            octet = data[pos]
            pos += 1
            number = (number << 7) | (octet & 0x7F)
            if not octet & 0x80:
                break
            if number > 2**28:
                raise DecodingError("tag number unreasonably large")
    try:
        lbyte = data[pos]
    except IndexError:
        raise DecodingError("truncated BER length") from None
    pos += 1
    if lbyte < 0x80:
        length = lbyte
    else:
        nbytes = lbyte & 0x7F
        if nbytes == 0:
            raise DecodingError("indefinite lengths are not supported")
        if pos + nbytes > len(data):
            raise DecodingError("truncated long-form length")
        length = int.from_bytes(data[pos:pos + nbytes], "big")
        pos += nbytes
    end = pos + length
    if end > len(data):
        raise DecodingError("BER content truncated")

    if tag_class == UNIVERSAL:
        if number == TAG_UTF8STRING:
            try:
                return data[pos:end].decode("utf-8"), end
            except UnicodeDecodeError as exc:
                raise DecodingError(
                    f"invalid utf-8 in UTF8String: {exc}") from exc
        if number == TAG_INTEGER:
            if pos == end:
                raise DecodingError("INTEGER with empty content")
            return int.from_bytes(data[pos:end], "big", signed=True), end
        if number == TAG_OCTET_STRING:
            return data[pos:end], end
        if number == TAG_NULL:
            return None, end
        if number == TAG_BOOLEAN:
            if end - pos != 1:
                raise DecodingError("BOOLEAN must be one octet")
            return data[pos] != 0, end
        if number == TAG_REAL:
            if pos == end:
                return 0.0, end
            if data[pos] != 0x03:
                raise DecodingError(
                    "only NR3 character-form REAL is supported")
            try:
                return float(data[pos + 1:end].decode("ascii")), end
            except (UnicodeDecodeError, ValueError) as exc:
                raise DecodingError(f"malformed REAL: {exc}") from exc
        if number == TAG_SEQUENCE:
            items = []
            append = items.append
            while pos < end:
                item, pos = parse_value(data, pos, depth + 1)
                append(item)
            if pos != end:
                raise DecodingError("SEQUENCE overruns its length")
            return items, end
        raise DecodingError(f"unsupported universal tag {number}")
    if tag_class == CONTEXT and number == 0:
        result = {}
        while pos < end:
            key, pos = parse_value(data, pos, depth + 1)
            if not isinstance(key, str):
                raise DecodingError("dict key is not a UTF8String")
            if pos >= end:
                raise DecodingError("malformed dict: odd child count")
            value, pos = parse_value(data, pos, depth + 1)
            result[key] = value
        if pos != end:
            raise DecodingError("dict overruns its length")
        return result, end
    raise DecodingError(
        f"unexpected tag class {tag_class} in value position")
