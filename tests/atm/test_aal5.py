"""Tests for AAL5 segmentation and reassembly."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.atm.aal5 import (
    Aal5Receiver, Aal5Sender, build_cpcs_pdu, parse_cpcs_pdu, segment_pdu,
    TRAILER_SIZE, MAX_CPCS_PAYLOAD,
)
from repro.atm.cell import PAYLOAD_SIZE
from repro.util.errors import DecodingError


class TestCpcsFraming:
    def test_pdu_is_multiple_of_48(self):
        for n in (0, 1, 39, 40, 41, 47, 48, 100, 1000):
            assert len(build_cpcs_pdu(bytes(n))) % PAYLOAD_SIZE == 0

    def test_roundtrip_exact(self):
        payload = b"courseware object" * 11
        assert parse_cpcs_pdu(build_cpcs_pdu(payload)) == payload

    def test_empty_payload(self):
        assert parse_cpcs_pdu(build_cpcs_pdu(b"")) == b""

    def test_oversize_rejected(self):
        with pytest.raises(ValueError):
            build_cpcs_pdu(bytes(MAX_CPCS_PAYLOAD + 1))

    def test_corruption_detected(self):
        pdu = bytearray(build_cpcs_pdu(b"x" * 100))
        pdu[10] ^= 0xFF
        with pytest.raises(DecodingError):
            parse_cpcs_pdu(bytes(pdu))

    def test_bad_length_rejected(self):
        with pytest.raises(DecodingError):
            parse_cpcs_pdu(bytes(47))

    @given(st.binary(max_size=4096))
    @settings(max_examples=50)
    def test_roundtrip_property(self, payload):
        assert parse_cpcs_pdu(build_cpcs_pdu(payload)) == payload


class TestSegmentation:
    def test_last_cell_marked(self):
        cells = segment_pdu(bytes(100), vpi=0, vci=32)
        assert all(not c.header.is_last_of_frame for c in cells[:-1])
        assert cells[-1].header.is_last_of_frame

    def test_cell_count(self):
        # 100 bytes payload + 8 trailer = 108 -> pads to 144 = 3 cells
        assert len(segment_pdu(bytes(100), vpi=0, vci=32)) == 3

    def test_sequence_numbers_monotone(self):
        sender = Aal5Sender(vpi=0, vci=32)
        a = sender.segment_train(bytes(200))[0]
        b = sender.segment_train(bytes(200))[0]
        seqs = [c.seqno for c in a + b]
        assert seqs == list(range(len(seqs)))

    def test_train_pdu_is_the_cells_payload(self):
        sender = Aal5Sender(vpi=0, vci=32)
        cells, pdu = sender.segment_train(bytes(range(200)))
        assert pdu == b"".join(c.payload for c in cells)
        assert [c.header for c in cells] == \
            [c.header for c in segment_pdu(bytes(range(200)), vpi=0, vci=32)]
        assert (sender.pdus_sent, sender.cells_sent) == (1, len(cells))


def reassemble(cells):
    """Helper: run cells through a receiver, return delivered payloads."""
    out = []
    rx = Aal5Receiver(lambda payload, cell: out.append(payload))
    for c in cells:
        rx.receive(c)
    return out, rx


class TestReassembly:
    def test_roundtrip(self):
        payload = bytes(range(256)) * 7
        out, rx = reassemble(segment_pdu(payload, vpi=0, vci=32))
        assert out == [payload]
        assert rx.pdus_corrupted == 0

    def test_back_to_back_frames(self):
        sender = Aal5Sender(vpi=0, vci=32)
        cells = (sender.segment_train(b"frame-one" * 20)[0]
                 + sender.segment_train(b"frame-two" * 3)[0])
        out, _ = reassemble(cells)
        assert out == [b"frame-one" * 20, b"frame-two" * 3]

    def test_lost_middle_cell_detected_not_delivered(self):
        cells = segment_pdu(bytes(500), vpi=0, vci=32)
        del cells[2]
        out, rx = reassemble(cells)
        assert out == []
        assert rx.pdus_corrupted == 1

    def test_lost_last_cell_merges_frames_and_fails_crc(self):
        sender = Aal5Sender(vpi=0, vci=32)
        first = sender.segment_train(bytes(100))[0]
        second = sender.segment_train(bytes(100))[0]
        cells = first[:-1] + second  # final cell of frame 1 lost
        out, rx = reassemble(cells)
        assert out == []
        assert rx.pdus_corrupted == 1

    def test_recovers_after_corrupted_frame(self):
        sender = Aal5Sender(vpi=0, vci=32)
        bad = sender.segment_train(bytes(500))[0]
        del bad[1]
        good = sender.segment_train(b"still works")[0]
        out, rx = reassemble(bad + good)
        assert out == [b"still works"]
        assert rx.pdus_corrupted == 1

    def test_runaway_partial_frame_is_bounded(self):
        # never-ending frame (no last-cell marker) must not buffer forever
        sender = Aal5Sender(vpi=0, vci=32)
        cells = []
        for _ in range(3):
            frame = sender.segment_train(bytes(PAYLOAD_SIZE * 1300))[0]
            cells.extend(frame[:-1])  # drop every final cell
        out, rx = reassemble(cells)
        assert out == []
        assert rx.pdus_corrupted >= 1

    @given(st.binary(min_size=1, max_size=2000), st.data())
    @settings(max_examples=50)
    def test_any_single_cell_loss_is_detected(self, payload, data):
        """Property: dropping any one cell never yields a wrong payload —
        either nothing is delivered or (never) the exact payload."""
        cells = segment_pdu(payload, vpi=0, vci=32)
        idx = data.draw(st.integers(0, len(cells) - 1))
        del cells[idx]
        out, rx = reassemble(cells)
        assert out == []  # one frame, one loss -> no delivery
        assert rx.pdus_corrupted <= 1
