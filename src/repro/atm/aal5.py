"""AAL5 segmentation and reassembly.

AAL5 (ITU-T I.363.5) is how MITS moves variable-length messages —
encoded MHEG objects, database requests, media frames — over the
fixed-size cell network.  A CPCS-PDU is::

    payload | pad (0..47) | CPCS-UU (1) | CPI (1) | length (2) | CRC-32 (4)

padded so the whole PDU is a multiple of 48 octets, then cut into
48-octet cell payloads.  The final cell is marked with the
AAL-indicate bit in the PTI.  The receiver accumulates payloads until
it sees the marker, then validates length and CRC; any lost cell makes
the CRC fail, so corruption is detected, never silent.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from typing import Callable, List

from repro.atm.cell import Cell, CellHeader, PAYLOAD_SIZE, PTI_USER_0, PTI_USER_LAST
from repro.util.crc import crc32_aal5
from repro.util.errors import DecodingError

TRAILER_SIZE = 8
MAX_CPCS_PAYLOAD = 65535


@dataclass
class CpcsTrailer:
    """Decoded AAL5 CPCS-PDU trailer."""

    cpcs_uu: int
    cpi: int
    length: int
    crc: int

    def encode(self) -> bytes:
        return struct.pack(">BBHI", self.cpcs_uu, self.cpi, self.length, self.crc)

    @classmethod
    def decode(cls, data: bytes) -> "CpcsTrailer":
        if len(data) != TRAILER_SIZE:
            raise DecodingError("AAL5 trailer must be 8 octets")
        uu, cpi, length, crc = struct.unpack(">BBHI", data)
        return cls(cpcs_uu=uu, cpi=cpi, length=length, crc=crc)


def build_cpcs_pdu(payload: bytes) -> bytes:
    """Frame *payload* into a complete CPCS-PDU (pad + trailer + CRC);
    the CPCS-UU and CPI octets are zero."""
    if len(payload) > MAX_CPCS_PAYLOAD:
        raise ValueError(
            f"AAL5 payload limited to {MAX_CPCS_PAYLOAD} octets, got {len(payload)}"
        )
    pad_len = (-(len(payload) + TRAILER_SIZE)) % PAYLOAD_SIZE
    body = payload + bytes(pad_len)
    head = struct.pack(">BBH", 0, 0, len(payload))
    reg = crc32_aal5(body)
    reg = crc32_aal5(head, reg)
    crc = reg ^ 0xFFFFFFFF
    return body + head + struct.pack(">I", crc)


def parse_cpcs_pdu(pdu: bytes) -> bytes:
    """Validate a reassembled CPCS-PDU and return the original payload."""
    if len(pdu) % PAYLOAD_SIZE != 0 or len(pdu) < PAYLOAD_SIZE:
        raise DecodingError(
            f"CPCS-PDU length {len(pdu)} is not a positive multiple of 48"
        )
    expected = crc32_aal5(pdu[:-4]) ^ 0xFFFFFFFF
    received = struct.unpack(">I", pdu[-4:])[0]
    if expected != received:
        raise DecodingError("AAL5 CRC-32 failure (cell loss or corruption)")
    trailer = CpcsTrailer.decode(pdu[-TRAILER_SIZE:])
    if trailer.length > len(pdu) - TRAILER_SIZE:
        raise DecodingError(
            f"AAL5 length field {trailer.length} exceeds PDU capacity"
        )
    return pdu[: trailer.length]


def _cut_cells(pdu: bytes, vpi: int, vci: int, created_at: float,
               first_seqno: int) -> List[Cell]:
    """Cut a framed CPCS-PDU into 48-octet CLP=0 cells; the last carries
    ``PTI_USER_LAST``, all others ``PTI_USER_0``."""
    last = len(pdu) // PAYLOAD_SIZE - 1
    return [Cell(header=CellHeader(vpi=vpi, vci=vci,
                                   pti=PTI_USER_LAST if i == last
                                   else PTI_USER_0),
                 payload=pdu[i * PAYLOAD_SIZE:(i + 1) * PAYLOAD_SIZE],
                 created_at=created_at, seqno=first_seqno + i)
            for i in range(last + 1)]


def segment_pdu(payload: bytes, vpi: int, vci: int, *,
                first_seqno: int = 0) -> List[Cell]:
    """Segment *payload* into a list of ATM cells (AAL5 framing applied).

    The last cell carries ``PTI_USER_LAST``; all others ``PTI_USER_0``.
    """
    return _cut_cells(build_cpcs_pdu(payload), vpi, vci, 0.0, first_seqno)


class Aal5Sender:
    """Stateful per-VC segmenter that assigns monotone cell sequence numbers."""

    def __init__(self, vpi: int, vci: int) -> None:
        self.vpi = vpi
        self.vci = vci
        self._next_seqno = 0
        self.pdus_sent = 0
        self.cells_sent = 0

    def segment_train(self, payload: bytes,
                      created_at: float = 0.0) -> "tuple[List[Cell], bytes]":
        """Segment *payload*; return its cells and the CPCS-PDU bytes.

        Cell sequence numbers continue from the previous frame.  The
        PDU rides on the cell train so the receiving host can
        reassemble without re-joining the 48-octet payload slices.
        """
        pdu = build_cpcs_pdu(payload)
        cells = _cut_cells(pdu, self.vpi, self.vci, created_at,
                           self._next_seqno)
        self._next_seqno += len(cells)
        self.pdus_sent += 1
        self.cells_sent += len(cells)
        return cells, pdu


class Aal5Receiver:
    """Per-VC reassembler.

    Feed cells with :meth:`receive`; complete, valid PDUs are handed to
    *on_pdu* (payload bytes, last-cell arrival context).  PDUs whose
    CRC fails (cell loss upstream) are counted and dropped, matching
    AAL5 semantics — recovery is the job of the layer above.
    """

    #: guard against unbounded buffering when the final cell of a frame
    #: was lost: once a partial frame exceeds this many cells it is
    #: discarded together with the frame that follows it.
    MAX_FRAME_CELLS = (MAX_CPCS_PAYLOAD + TRAILER_SIZE) // PAYLOAD_SIZE + 2

    def __init__(self, on_pdu: Callable[[bytes, Cell], None]) -> None:
        self._on_pdu = on_pdu
        self._buffer: List[bytes] = []
        self.pdus_delivered = 0
        self.pdus_corrupted = 0
        self.cells_received = 0
        #: cell conservation: every received cell either ends up in a
        #: delivered PDU, is discarded with a corrupt/runaway frame,
        #: or still sits in the partial-frame buffer
        self.cells_delivered = 0
        self.cells_discarded = 0

    @property
    def cells_buffered(self) -> int:
        return len(self._buffer)

    def receive(self, cell: Cell) -> None:
        self.cells_received += 1
        self._buffer.append(cell.payload)
        if len(self._buffer) > self.MAX_FRAME_CELLS:
            # runaway partial frame: drop it (equivalent to a timeout)
            self.cells_discarded += len(self._buffer)
            self._buffer.clear()
            self.pdus_corrupted += 1
            return
        if cell.header.is_last_of_frame:
            ncells = len(self._buffer)
            pdu = b"".join(self._buffer)
            self._buffer.clear()
            try:
                payload = parse_cpcs_pdu(pdu)
            except DecodingError:
                self.cells_discarded += ncells
                self.pdus_corrupted += 1
                return
            self.cells_delivered += ncells
            self.pdus_delivered += 1
            self._on_pdu(payload, cell)
