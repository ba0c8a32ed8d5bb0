"""Minimal reference BER encoder for the MHEG value mapping.

``test_asn1.py`` judges the one-pass encoder and parser in
:mod:`repro.mheg.asn1` against this model.  It shares no code with
:mod:`repro`: every element is built recursively by plain
concatenation of identifier, length and content octets, the way a
textbook BER encoder (ITU-T X.690 §8) writes it.

* identifier: class in bits 8–7, constructed bit 6, tag numbers above
  30 as ``0x1F`` then base-128 septets, most significant first;
* length: definite, short form below 128, else ``0x80 | n`` then *n*
  big-endian octets;
* None → NULL, bool → BOOLEAN (``ff``/``00``), int → minimal two's complement
  INTEGER, float → REAL in NR3 character form (``03`` then
  ``repr``), str → UTF8String, bytes → OCTET STRING, list → SEQUENCE,
  dict → constructed context [0] holding alternating key and value
  elements.
"""

from __future__ import annotations

UNIVERSAL, CONTEXT = 0, 2  # tag classes


def reference_identifier(tag_class: int, number: int,
                         constructed: bool) -> bytes:
    first = tag_class * 64 + (32 if constructed else 0)
    if number <= 30:
        return bytes([first + number])
    septets = []
    while True:
        septets.insert(0, number % 128)
        number //= 128
        if number == 0:
            break
    return bytes([first + 31] + [s + 128 for s in septets[:-1]]
                 + [septets[-1]])


def reference_length(length: int) -> bytes:
    if length <= 127:
        return bytes([length])
    octets = []
    while length:
        octets.insert(0, length % 256)
        length //= 256
    return bytes([128 + len(octets)] + octets)


def _element(tag_class: int, number: int, constructed: bool,
             content: bytes) -> bytes:
    return (reference_identifier(tag_class, number, constructed)
            + reference_length(len(content)) + content)


def _integer_content(value: int) -> bytes:
    # X.690 §8.3.2: the fewest octets whose two's-complement range
    # [-2**(8n-1), 2**(8n-1)) holds the value
    size = 1
    while not -(1 << (8 * size - 1)) <= value < (1 << (8 * size - 1)):
        size += 1
    return (value % (1 << (8 * size))).to_bytes(size, "big")


def reference_encode(value) -> bytes:
    if value is None:
        return _element(UNIVERSAL, 5, False, b"")
    if value is True or value is False:
        return _element(UNIVERSAL, 1, False, b"\xff" if value else b"\x00")
    if isinstance(value, int):
        return _element(UNIVERSAL, 2, False, _integer_content(value))
    if isinstance(value, float):
        return _element(UNIVERSAL, 9, False,
                        b"\x03" + repr(value).encode("ascii"))
    if isinstance(value, str):
        return _element(UNIVERSAL, 12, False, value.encode("utf-8"))
    if isinstance(value, bytes):
        return _element(UNIVERSAL, 4, False, value)
    if isinstance(value, list):
        return _element(UNIVERSAL, 16, True,
                        b"".join(reference_encode(v) for v in value))
    if isinstance(value, dict):
        content = b""
        for key, item in value.items():
            content += reference_encode(key) + reference_encode(item)
        return _element(CONTEXT, 0, True, content)
    raise TypeError(f"no BER mapping for {type(value).__name__}")
