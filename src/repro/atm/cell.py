"""ATM cells.

An ATM cell is 53 octets: a 5-octet header and a 48-octet payload.
We implement the UNI header layout (ITU-T I.361):

======  ====  =========================================
field   bits  meaning
======  ====  =========================================
GFC      4    generic flow control (unused, 0)
VPI      8    virtual path identifier
VCI     16    virtual channel identifier
PTI      3    payload type; bit 0 of PTI marks the last
              cell of an AAL5 CPCS-PDU, bit 2 marks OAM
CLP      1    cell loss priority (1 = drop first)
HEC      8    header error control, CRC-8 over octets 1-4
======  ====  =========================================

Cells carry their payload as ``bytes`` and a few simulation-only
annotations (origin timestamp, sequence number) that a real wire would
not carry; those never enter the encoded form.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.util.bitstream import BitReader, BitWriter
from repro.util.crc import crc8_hec
from repro.util.errors import DecodingError

CELL_SIZE = 53
HEADER_SIZE = 5
PAYLOAD_SIZE = 48

#: PTI values (3 bits).  Bit 0 = AAL-indicate (last cell of an AAL5
#: frame); bit 1 = explicit forward congestion indication; bit 2 = OAM.
PTI_USER_0 = 0b000
PTI_USER_LAST = 0b001
PTI_USER_CONGESTION = 0b010
PTI_OAM_SEGMENT = 0b100

MAX_VPI = 0xFF
MAX_VCI = 0xFFFF


@dataclass(slots=True)
class CellHeader:
    """Decoded 5-octet UNI cell header."""

    vpi: int
    vci: int
    pti: int = PTI_USER_0
    clp: int = 0
    gfc: int = 0

    @classmethod
    def _unchecked(cls, vpi: int, vci: int, pti: int, clp: int,
                   gfc: int) -> "CellHeader":
        """Construct without range validation — switching fast path.

        Only for fields copied from an already-validated header or a
        VC table entry; skips ``__post_init__`` and its five range
        checks per relabelled cell.
        """
        hdr = cls.__new__(cls)
        hdr.vpi = vpi
        hdr.vci = vci
        hdr.pti = pti
        hdr.clp = clp
        hdr.gfc = gfc
        return hdr

    def __post_init__(self) -> None:
        if not 0 <= self.vpi <= MAX_VPI:
            raise ValueError(f"VPI out of range: {self.vpi}")
        if not 0 <= self.vci <= MAX_VCI:
            raise ValueError(f"VCI out of range: {self.vci}")
        if not 0 <= self.pti <= 0b111:
            raise ValueError(f"PTI out of range: {self.pti}")
        if self.clp not in (0, 1):
            raise ValueError(f"CLP must be 0 or 1: {self.clp}")
        if not 0 <= self.gfc <= 0xF:
            raise ValueError(f"GFC out of range: {self.gfc}")

    @property
    def is_last_of_frame(self) -> bool:
        """True when PTI marks this as the final cell of an AAL5 PDU."""
        return bool(self.pti & 0b001) and not (self.pti & 0b100)

    def encode(self) -> bytes:
        """Render the 5-octet header including the computed HEC."""
        w = BitWriter()
        w.write(self.gfc, 4)
        w.write(self.vpi, 8)
        w.write(self.vci, 16)
        w.write(self.pti, 3)
        w.write(self.clp, 1)
        first4 = w.getvalue()
        return first4 + bytes([crc8_hec(first4)])

    @classmethod
    def decode(cls, data: bytes) -> "CellHeader":
        """Parse a 5-octet header, verifying the HEC."""
        if len(data) != HEADER_SIZE:
            raise DecodingError(f"cell header must be 5 octets, got {len(data)}")
        if crc8_hec(data[:4]) != data[4]:
            raise DecodingError("cell header HEC mismatch (corrupted header)")
        r = BitReader(data)
        gfc = r.read(4)
        vpi = r.read(8)
        vci = r.read(16)
        pti = r.read(3)
        clp = r.read(1)
        return cls(vpi=vpi, vci=vci, pti=pti, clp=clp, gfc=gfc)


@dataclass(slots=True)
class Cell:
    """A 53-octet ATM cell plus simulation bookkeeping."""

    header: CellHeader
    payload: bytes
    #: simulated time the cell entered the network (for delay stats)
    created_at: float = 0.0
    #: per-VC sequence number assigned by the sender (loss diagnostics)
    seqno: int = 0
    #: hop count, incremented at each switch traversal
    hops: int = field(default=0, compare=False)

    def __post_init__(self) -> None:
        if len(self.payload) != PAYLOAD_SIZE:
            raise ValueError(
                f"ATM cell payload must be exactly {PAYLOAD_SIZE} octets, "
                f"got {len(self.payload)}"
            )

    def encode(self) -> bytes:
        """The 53 octets as they would appear on the wire."""
        return self.header.encode() + self.payload

    @classmethod
    def decode(cls, data: bytes) -> "Cell":
        if len(data) != CELL_SIZE:
            raise DecodingError(f"ATM cell must be 53 octets, got {len(data)}")
        return cls(header=CellHeader.decode(data[:HEADER_SIZE]),
                   payload=data[HEADER_SIZE:])
