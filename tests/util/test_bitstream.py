"""Tests for the bit-level reader/writer."""

import pytest
from hypothesis import given, strategies as st

from repro.util.bitstream import BitReader, BitWriter
from repro.util.errors import DecodingError


class TestBitWriter:
    def test_single_bits_msb_first(self):
        w = BitWriter()
        w.write(1, 1)
        w.write(0, 1)
        w.write(1, 1)
        assert w.getvalue() == bytes([0b10100000])

    def test_multibyte_value(self):
        w = BitWriter()
        w.write(0xABCD, 16)
        assert w.getvalue() == b"\xab\xcd"

    def test_value_too_large_rejected(self):
        w = BitWriter()
        with pytest.raises(ValueError):
            w.write(4, 2)

    def test_negative_rejected(self):
        w = BitWriter()
        with pytest.raises(ValueError):
            w.write(-1, 4)

    def test_len_counts_bits(self):
        w = BitWriter()
        w.write(0b101, 3)
        assert len(w) == 3
        w.write(0, 8)
        assert len(w) == 11


class TestBitReader:
    def test_reads_msb_first(self):
        r = BitReader(bytes([0b10100000]))
        assert r.read(1) == 1
        assert r.read(1) == 0
        assert r.read(1) == 1

    def test_exhaustion_raises(self):
        r = BitReader(b"\x00")
        r.read(8)
        with pytest.raises(DecodingError):
            r.read(1)


class TestRoundTrip:
    @given(st.lists(st.tuples(st.integers(0, 2**20), st.integers(1, 24)),
                    max_size=40))
    def test_write_read_roundtrip(self, fields):
        w = BitWriter()
        expected = []
        for value, width in fields:
            value &= (1 << width) - 1
            w.write(value, width)
            expected.append((value, width))
        r = BitReader(w.getvalue())
        for value, width in expected:
            assert r.read(width) == value
