"""Tests for ATM cell encoding."""

import pytest
from hypothesis import given, strategies as st

from repro.atm.cell import (
    Cell, CellHeader, CELL_SIZE, HEADER_SIZE, PAYLOAD_SIZE,
    PTI_USER_0, PTI_USER_LAST, PTI_OAM_SEGMENT,
)
from repro.util.errors import DecodingError


class TestCellHeader:
    def test_encode_length(self):
        hdr = CellHeader(vpi=1, vci=100)
        assert len(hdr.encode()) == HEADER_SIZE

    def test_roundtrip(self):
        hdr = CellHeader(vpi=7, vci=12345, pti=PTI_USER_LAST, clp=1, gfc=3)
        assert CellHeader.decode(hdr.encode()) == hdr

    def test_hec_detects_corruption(self):
        raw = bytearray(CellHeader(vpi=1, vci=2).encode())
        raw[1] ^= 0x10
        with pytest.raises(DecodingError):
            CellHeader.decode(bytes(raw))

    def test_field_ranges_validated(self):
        with pytest.raises(ValueError):
            CellHeader(vpi=256, vci=0)
        with pytest.raises(ValueError):
            CellHeader(vpi=0, vci=70000)
        with pytest.raises(ValueError):
            CellHeader(vpi=0, vci=0, pti=8)
        with pytest.raises(ValueError):
            CellHeader(vpi=0, vci=0, clp=2)

    def test_last_of_frame_flag(self):
        assert CellHeader(vpi=0, vci=32, pti=PTI_USER_LAST).is_last_of_frame
        assert not CellHeader(vpi=0, vci=32, pti=PTI_USER_0).is_last_of_frame
        # OAM cells are never frame boundaries even with bit 0 set
        assert not CellHeader(vpi=0, vci=32, pti=PTI_OAM_SEGMENT | 1).is_last_of_frame

    @given(st.integers(0, 255), st.integers(0, 65535),
           st.integers(0, 7), st.integers(0, 1))
    def test_roundtrip_property(self, vpi, vci, pti, clp):
        hdr = CellHeader(vpi=vpi, vci=vci, pti=pti, clp=clp)
        assert CellHeader.decode(hdr.encode()) == hdr


class TestCell:
    def test_payload_size_enforced(self):
        with pytest.raises(ValueError):
            Cell(header=CellHeader(vpi=0, vci=32), payload=b"short")

    def test_wire_roundtrip(self):
        cell = Cell(header=CellHeader(vpi=3, vci=99), payload=bytes(range(48)))
        wire = cell.encode()
        assert len(wire) == CELL_SIZE
        back = Cell.decode(wire)
        assert back.header == cell.header
        assert back.payload == cell.payload

    def test_decode_rejects_wrong_size(self):
        with pytest.raises(DecodingError):
            Cell.decode(bytes(52))
