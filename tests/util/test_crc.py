"""Tests for the CRC generators."""

import pytest
from hypothesis import given, strategies as st

from repro.util.crc import crc8_hec, crc32_aal5


def reference_crc32(data, reg=0xFFFFFFFF):
    """Bit-at-a-time reflected CRC-32 (IEEE 802.3), the AAL5 oracle."""
    for byte in data:
        reg ^= byte
        for _ in range(8):
            reg = (reg >> 1) ^ (0xEDB88320 if reg & 1 else 0)
    return reg


class TestHec:
    def test_requires_four_octets(self):
        with pytest.raises(ValueError):
            crc8_hec(b"\x00\x00\x00")
        with pytest.raises(ValueError):
            crc8_hec(b"\x00" * 5)

    def test_deterministic(self):
        assert crc8_hec(b"\x00\x00\x00\x00") == crc8_hec(b"\x00\x00\x00\x00")

    def test_zero_header_is_coset(self):
        # CRC-8 of all-zero input is 0, so the HEC is exactly the coset.
        assert crc8_hec(b"\x00\x00\x00\x00") == 0x55

    def test_distinguishes_headers(self):
        a = crc8_hec(b"\x00\x00\x00\x01")
        b = crc8_hec(b"\x00\x00\x00\x02")
        assert a != b

    @given(st.binary(min_size=4, max_size=4), st.integers(0, 31))
    def test_detects_single_bit_errors(self, header, bitpos):
        """Any single-bit flip in the protected octets changes the HEC."""
        flipped = bytearray(header)
        flipped[bitpos // 8] ^= 1 << (bitpos % 8)
        assert crc8_hec(header) != crc8_hec(bytes(flipped))

    @given(st.binary(min_size=4, max_size=4))
    def test_output_is_a_byte(self, header):
        assert 0 <= crc8_hec(header) <= 0xFF


class TestCrc32:
    def test_known_vector(self):
        # standard CRC-32 check value: "123456789" -> 0xCBF43926, the
        # complement of the returned register
        assert crc32_aal5(b"123456789") ^ 0xFFFFFFFF == 0xCBF43926

    def test_empty(self):
        assert crc32_aal5(b"") ^ 0xFFFFFFFF == 0x00000000

    @given(st.binary(max_size=4096), st.integers(0, 0xFFFFFFFF),
           st.data())
    def test_incremental_equals_oneshot(self, data, reg, draw):
        split = draw.draw(st.integers(0, len(data)))
        running = crc32_aal5(data[split:], crc32_aal5(data[:split], reg))
        assert running == crc32_aal5(data, reg)

    @given(st.binary(min_size=1, max_size=200))
    def test_detects_truncation(self, data):
        assert crc32_aal5(data) != crc32_aal5(data[:-1])

    @given(st.binary(max_size=4096), st.integers(0, 0xFFFFFFFF))
    def test_matches_bitwise_reference(self, data, reg):
        assert crc32_aal5(data, reg) == reference_crc32(data, reg)
