"""Tests for the BER encoder/decoder."""

import math

import pytest
from hypothesis import given, settings, strategies as st

from repro.mheg import MhegCodec, asn1
from repro.mheg.asn1 import (
    APPLICATION, CONTEXT, UNIVERSAL, Tlv, application, ber_integer,
    ber_octets, ber_sequence, ber_utf8, context, decode_tlv_exact,
    decode_value, encode_tlv, encode_value,
)
from repro.util.errors import DecodingError, EncodingError


class TestIdentifierOctets:
    def test_low_tag_roundtrip(self):
        tlv = Tlv(UNIVERSAL, 2, False, content=b"\x05")
        back = decode_tlv_exact(encode_tlv(tlv))
        assert (back.tag_class, back.number, back.constructed) == (UNIVERSAL, 2, False)

    def test_high_tag_number(self):
        tlv = Tlv(CONTEXT, 1234, True, children=[ber_integer(1)])
        back = decode_tlv_exact(encode_tlv(tlv))
        assert back.number == 1234 and back.tag_class == CONTEXT

    def test_tag_classes_preserved(self):
        for klass in (UNIVERSAL, APPLICATION, CONTEXT, 3):
            tlv = Tlv(klass, 7, False, content=b"x")
            assert decode_tlv_exact(encode_tlv(tlv)).tag_class == klass

    def test_bad_class_rejected(self):
        with pytest.raises(EncodingError):
            encode_tlv(Tlv(4, 1, False))


class TestLengths:
    def test_short_form(self):
        data = encode_tlv(ber_octets(b"x" * 127))
        assert data[1] == 127

    def test_long_form(self):
        data = encode_tlv(ber_octets(b"x" * 300))
        assert data[1] == 0x82  # two length octets follow
        back = decode_tlv_exact(data)
        assert len(back.content) == 300

    def test_truncated_content_rejected(self):
        data = encode_tlv(ber_octets(b"hello"))
        with pytest.raises(DecodingError):
            decode_tlv_exact(data[:-2])

    def test_trailing_bytes_rejected(self):
        data = encode_tlv(ber_octets(b"hello"))
        with pytest.raises(DecodingError):
            decode_tlv_exact(data + b"\x00")

    def test_indefinite_length_rejected(self):
        with pytest.raises(DecodingError):
            decode_tlv_exact(b"\x30\x80\x00\x00")


class TestPrimitives:
    @pytest.mark.parametrize("value", [0, 1, -1, 127, 128, -128, -129,
                                       2**40, -(2**40)])
    def test_integer_roundtrip(self, value):
        assert asn1.read_integer(decode_tlv_exact(
            encode_tlv(ber_integer(value)))) == value

    def test_boolean(self):
        for v in (True, False):
            assert asn1.read_boolean(decode_tlv_exact(
                encode_tlv(asn1.ber_boolean(v)))) is v

    def test_real_nr3(self):
        for v in (0.0, 1.5, -3.25, 1e-9, 2.5e17):
            tlv = decode_tlv_exact(encode_tlv(asn1.ber_real(v)))
            assert asn1.read_real(tlv) == v

    def test_utf8(self):
        s = "café 中文 — MHEG"
        assert asn1.read_utf8(decode_tlv_exact(
            encode_tlv(ber_utf8(s)))) == s

    def test_null(self):
        tlv = decode_tlv_exact(encode_tlv(asn1.ber_null()))
        assert tlv.number == asn1.TAG_NULL and tlv.content == b""

    def test_type_mismatch_raises(self):
        tlv = decode_tlv_exact(encode_tlv(ber_integer(5)))
        with pytest.raises(DecodingError):
            asn1.read_utf8(tlv)


class TestConstructed:
    def test_nested_sequences(self):
        tlv = ber_sequence([ber_integer(1),
                            ber_sequence([ber_utf8("inner")]),
                            ber_octets(b"data")])
        back = decode_tlv_exact(encode_tlv(tlv))
        assert len(back.children) == 3
        assert asn1.read_utf8(back.child(1).child(0)) == "inner"

    def test_application_wrapper(self):
        tlv = application(8, [ber_integer(42)])
        back = decode_tlv_exact(encode_tlv(tlv))
        assert back.tag_class == APPLICATION and back.number == 8

    def test_missing_child_reported(self):
        back = decode_tlv_exact(encode_tlv(ber_sequence([])))
        with pytest.raises(DecodingError):
            back.child(0)


def reference_tlv(value):
    """The value mapping as a Tlv tree, built from the raw TLV layer."""
    if value is None:
        return asn1.ber_null()
    if value is True or value is False:
        return asn1.ber_boolean(value)
    if isinstance(value, int):
        return ber_integer(value)
    if isinstance(value, float):
        return asn1.ber_real(value)
    if isinstance(value, str):
        return ber_utf8(value)
    if isinstance(value, bytes):
        return ber_octets(value)
    if isinstance(value, list):
        return ber_sequence([reference_tlv(v) for v in value])
    entries = []
    for k, v in value.items():
        entries += [ber_utf8(k), reference_tlv(v)]
    return context(0, entries)


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
        equivalent Tlv tree run through encode_tlv."""
        assert encode_value(value) == encode_tlv(reference_tlv(value))


class TestHugeTagNumber:
    """A high tag number that never ends must fail as DecodingError,
    not as whatever building its error message would raise."""

    BAD = b"\x1f" + b"\xff" * 60000 + b"\x7f\x00"

    def test_decode_value(self):
        with pytest.raises(DecodingError, match="unreasonably large"):
            decode_value(self.BAD)

    def test_decode_tlv(self):
        with pytest.raises(DecodingError, match="unreasonably large"):
            decode_tlv_exact(self.BAD)

    def test_mheg_codec(self):
        length = len(self.BAD).to_bytes(3, "big")
        unit = b"\x61\x83" + length + self.BAD
        with pytest.raises(DecodingError, match="unreasonably large"):
            MhegCodec().decode(unit)
