"""Tests for the BER encoder/decoder."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.mheg import GenericValueClass, MhegCodec
from repro.mheg.identifiers import MhegIdentifier
from repro.mheg.asn1 import (
    APPLICATION, CONTEXT, UNIVERSAL, _decode_identifier, _decode_length,
    _encode_identifier, _encode_length, encode_value, parse_value,
)
from repro.util.errors import DecodingError, EncodingError

from tests.mheg.reference_ber import (
    reference_encode, reference_identifier, reference_length,
)


def decode_value(data):
    """Parse the one BER value that fills *data*, as ``MhegCodec.decode``
    parses a unit's body."""
    value, end = parse_value(data, 0)
    assert end == len(data), f"{len(data) - end} bytes after the value"
    return value


class TestIdentifierOctets:
    def test_low_tag_roundtrip(self):
        octets = _encode_identifier(UNIVERSAL, 2, False)
        assert octets == b"\x02"
        assert _decode_identifier(octets, 0) == (UNIVERSAL, 2, False, 1)

    def test_high_tag_number(self):
        for number in (30, 31, 127, 128, 1234, 2**21):
            octets = _encode_identifier(CONTEXT, number, True)
            assert octets == reference_identifier(CONTEXT, number, True)
            assert _decode_identifier(octets, 0) == \
                (CONTEXT, number, True, len(octets))

    def test_tag_classes_preserved(self):
        for klass in (UNIVERSAL, APPLICATION, CONTEXT, 3):
            octets = _encode_identifier(klass, 7, False)
            assert _decode_identifier(octets, 0)[0] == klass

    def test_bad_class_rejected(self):
        with pytest.raises(EncodingError):
            _encode_identifier(4, 1, False)

    def test_truncated_high_tag_rejected(self):
        with pytest.raises(DecodingError, match="truncated high tag"):
            _decode_identifier(b"\x1f\x81", 0)


class TestLengths:
    def test_short_form(self):
        data = encode_value(b"x" * 127)
        assert data[1] == 127

    def test_long_form(self):
        data = encode_value(b"x" * 300)
        assert data[1] == 0x82  # two length octets follow
        assert len(decode_value(data)) == 300

    @pytest.mark.parametrize("length", [0, 127, 128, 255, 256, 65535, 65536])
    def test_forms_around_boundaries(self, length):
        octets = _encode_length(length)
        assert octets == reference_length(length)
        assert _decode_length(octets, 0) == (length, len(octets))
        data = encode_value(b"x" * length)
        assert data[1:1 + len(octets)] == octets
        assert decode_value(data) == b"x" * length

    def test_truncated_content_rejected(self):
        data = encode_value(b"hello")
        with pytest.raises(DecodingError, match="content truncated"):
            decode_value(data[:-2])

    def test_truncated_long_form_rejected(self):
        data = encode_value(b"x" * 65536)
        with pytest.raises(DecodingError, match="truncated long-form"):
            decode_value(data[:3])

    def test_trailing_bytes_rejected(self):
        unit = MhegCodec().encode(
            GenericValueClass(identifier=MhegIdentifier("t", 1), value=42))
        with pytest.raises(DecodingError, match="MHEG wrapper"):
            MhegCodec().decode(unit + b"\x00")

    def test_indefinite_length_rejected(self):
        with pytest.raises(DecodingError, match="indefinite"):
            decode_value(b"\x30\x80\x00\x00")


class TestPrimitives:
    @pytest.mark.parametrize("value", [0, 1, -1, 127, 128, -128, -129,
                                       -32768, -2**23, -2**31, -2**63,
                                       2**40, -(2**40)])
    def test_integer_roundtrip(self, value):
        data = encode_value(value)
        assert data == reference_encode(value)
        assert decode_value(data) == value

    @pytest.mark.parametrize("hexed, value", [
        ("020180", -128), ("02028000", -32768), ("020480000000", -2**31),
        ("0209008000000000000000", 2**63),
        # the one-octet-wider form units carried before the encoder
        # wrote the X.690 minimum; stored units must still load
        ("0202ff80", -128),
    ])
    def test_integer_decode(self, hexed, value):
        assert decode_value(bytes.fromhex(hexed)) == value

    def test_boolean(self):
        for v in (True, False):
            assert decode_value(encode_value(v)) is v

    def test_real_nr3(self):
        for v in (0.0, 1.5, -3.25, 1e-9, 2.5e17):
            data = encode_value(v)
            assert data[2] == 0x03  # NR3 character form
            assert decode_value(data) == v

    def test_utf8(self):
        s = "café 中文 — MHEG"
        assert decode_value(encode_value(s)) == s

    def test_null(self):
        assert encode_value(None) == b"\x05\x00"
        assert decode_value(b"\x05\x00") is None

    def test_type_mismatch_raises(self):
        # BIT STRING, and an application-class element, have no place
        # in the value mapping
        with pytest.raises(DecodingError, match="unsupported universal"):
            decode_value(b"\x03\x01\x00")
        with pytest.raises(DecodingError, match="unexpected tag class"):
            decode_value(b"\x61\x00")


class TestConstructed:
    def test_nested_sequences(self):
        value = [1, ["inner"], b"data"]
        back = decode_value(encode_value(value))
        assert len(back) == 3 and back[1][0] == "inner"

    def test_application_wrapper(self):
        obj = GenericValueClass(identifier=MhegIdentifier("t", 1), value=42)
        data = MhegCodec().encode(obj)
        klass, number, constructed, _ = _decode_identifier(data, 0)
        assert (klass, number, constructed) == \
            (APPLICATION, int(obj.class_id), True)
        assert MhegCodec().decode(data).value == 42

    def test_missing_child_reported(self):
        # a dict whose last key has no value element
        data = reference_encode({"a": 1})
        key_only = bytes([data[0], 3]) + data[2:5]
        with pytest.raises(DecodingError, match="odd child count"):
            decode_value(key_only)


class TestValueMapping:
    CASES = [None, True, False, 0, -5, 2**64, 3.25, "", "text", b"",
             b"\x00\xff", [], [1, "two", None], {"a": 1, "b": [True]},
             {"nested": {"deep": b"bytes"}}]

    @pytest.mark.parametrize("value", CASES, ids=repr)
    def test_roundtrip(self, value):
        assert decode_value(encode_value(value)) == value

    def test_dict_key_order_preserved(self):
        value = {"z": 1, "a": 2, "m": 3}
        assert list(decode_value(encode_value(value))) == ["z", "a", "m"]

    def test_non_str_key_rejected(self):
        with pytest.raises(EncodingError):
            encode_value({1: "x"})

    def test_unsupported_type_rejected(self):
        with pytest.raises(EncodingError):
            encode_value(object())

    def test_depth_guard(self):
        v = []
        for _ in range(40):
            v = [v]
        with pytest.raises(EncodingError):
            encode_value(v)

    #: element sizes around the short/long length-form boundaries
    SIZES = st.sampled_from([127, 128, 255, 256, 65535, 65536, 70001])

    ber_values = st.recursive(
        st.none() | st.booleans() | st.just([]) | st.just({}) |
        st.integers() | st.integers(-2**300, 2**300) |
        st.floats(allow_nan=False, allow_infinity=False) |
        st.text(max_size=20) | st.binary(max_size=40) |
        st.builds(lambda n, ch: ch * n, SIZES,
                  st.characters(codec="utf-8")) |
        st.builds(lambda n, b: b * n, SIZES,
                  st.binary(min_size=1, max_size=1)),
        lambda children: st.lists(children, max_size=4) |
        st.dictionaries(st.text(max_size=6), children, max_size=4),
        max_leaves=20)

    @settings(deadline=None)
    @given(ber_values)
    def test_roundtrip_property(self, value):
        assert decode_value(encode_value(value)) == value

    @settings(deadline=None)
    @given(ber_values)
    def test_bytes_match_tlv_layer(self, value):
        """The one-pass value encoder emits exactly the bytes of the
        textbook tag-length-value encoder in ``reference_ber``, and the
        parser reads those bytes back to the value."""
        reference = reference_encode(value)
        assert encode_value(value) == reference
        assert decode_value(reference) == value


class TestHugeTagNumber:
    """A high tag number that never ends must fail as DecodingError,
    not as whatever building its error message would raise."""

    BAD = b"\x1f" + b"\xff" * 60000 + b"\x7f\x00"

    def test_decode_value(self):
        with pytest.raises(DecodingError, match="unreasonably large"):
            decode_value(self.BAD)

    def test_decode_identifier(self):
        with pytest.raises(DecodingError, match="unreasonably large"):
            _decode_identifier(self.BAD, 0)

    def test_mheg_codec(self):
        length = len(self.BAD).to_bytes(3, "big")
        unit = b"\x61\x83" + length + self.BAD
        with pytest.raises(DecodingError, match="unreasonably large"):
            MhegCodec().decode(unit)
