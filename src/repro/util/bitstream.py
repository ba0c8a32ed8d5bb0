"""Bit-level reader/writer.

The ATM cell header packs fields at sub-byte granularity (GFC is 4
bits, VPI 8, VCI 16, PTI 3, CLP 1) and the synthetic media codecs use
variable-length codes, so both need a small big-endian bit stream.
"""

from __future__ import annotations

from repro.util.errors import DecodingError


class BitWriter:
    """Accumulates bits most-significant-first and renders them to bytes."""

    def __init__(self) -> None:
        self._bytes = bytearray()
        self._acc = 0    # bits not yet in a whole byte, right-aligned
        self._nacc = 0   # how many (0..7)

    def __len__(self) -> int:
        """Total number of bits written so far."""
        return len(self._bytes) * 8 + self._nacc

    def write(self, value: int, nbits: int) -> None:
        """Append the *nbits* low-order bits of *value*, MSB first."""
        if nbits < 0:
            raise ValueError("nbits must be non-negative")
        if value < 0 or (nbits < value.bit_length()):
            raise ValueError(f"value {value} does not fit in {nbits} bits")
        acc = (self._acc << nbits) | value
        nacc = self._nacc + nbits
        whole = nacc >> 3
        if whole:
            nacc &= 7
            self._bytes += (acc >> nacc).to_bytes(whole, "big")
            acc &= (1 << nacc) - 1
        self._acc, self._nacc = acc, nacc

    def getvalue(self) -> bytes:
        """Return the written bits as bytes (zero-padded to a boundary)."""
        if self._nacc:
            return bytes(self._bytes) + bytes(
                [self._acc << (8 - self._nacc)])
        return bytes(self._bytes)


class BitReader:
    """Reads bits most-significant-first from a byte string."""

    def __init__(self, data: bytes) -> None:
        self._data = data
        self._pos = 0  # absolute bit position

    @property
    def bits_remaining(self) -> int:
        return len(self._data) * 8 - self._pos

    def read(self, nbits: int) -> int:
        """Read *nbits* bits as an unsigned integer."""
        if nbits < 0:
            raise ValueError("nbits must be non-negative")
        if nbits > self.bits_remaining:
            raise DecodingError(
                f"bit stream exhausted: wanted {nbits} bits, "
                f"have {self.bits_remaining}"
            )
        pos = self._pos
        end = pos + nbits
        self._pos = end
        window = int.from_bytes(self._data[pos >> 3:(end + 7) >> 3], "big")
        return (window >> (-end & 7)) & ((1 << nbits) - 1)
