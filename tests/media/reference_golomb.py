"""Bit-at-a-time reference for the SIMG/SMPG entropy coder.

The property tests in ``test_golomb_properties.py`` judge
:func:`repro.media.image._encode_blocks` and ``_decode_blocks`` against
this model.  It shares no code with :mod:`repro.media` or
:mod:`repro.util.bitstream`: a bit stream is a list of 0/1 ints,
written and read one bit at a time, as exp-Golomb codes are specified
(ITU-T H.264 §9.1).

The block syntax it models: each quantised 8x8 block is scanned in
JPEG zigzag order.  Every nonzero coefficient is coded as ``ue(run)
se(level)``, where *run* counts the zeros since the previous nonzero.
A run of 63 or more is first shortened by ``ue(62) se(0)`` pairs, so
that ``ue(63)`` stays free to mark the end of the block.
"""

from __future__ import annotations

from typing import List, Sequence

#: ISO/IEC 10918-1 Figure A.6: raster index of each zigzag position
ZIGZAG = (
    0, 1, 8, 16, 9, 2, 3, 10, 17, 24, 32, 25, 18, 11, 4, 5,
    12, 19, 26, 33, 40, 48, 41, 34, 27, 20, 13, 6, 7, 14, 21, 28,
    35, 42, 49, 56, 57, 50, 43, 36, 29, 22, 15, 23, 30, 37, 44, 51,
    58, 59, 52, 45, 38, 31, 39, 46, 53, 60, 61, 54, 47, 55, 62, 63,
)
EOB = 63
MAX_ZEROS = 40


class Bits:
    """A list of bits with a read cursor."""

    def __init__(self, data: bytes = b"") -> None:
        self.bits: List[int] = [(byte >> (7 - k)) & 1
                                for byte in data for k in range(8)]
        self.pos = 0

    def put(self, value: int, nbits: int) -> None:
        for k in range(nbits - 1, -1, -1):
            self.bits.append((value >> k) & 1)

    def get(self) -> int:
        if self.pos >= len(self.bits):
            raise ValueError("exhausted")
        self.pos += 1
        return self.bits[self.pos - 1]

    def to_bytes(self) -> bytes:
        padded = self.bits + [0] * (-len(self.bits) % 8)
        return bytes(sum(bit << (7 - k) for k, bit in enumerate(padded[i:i + 8]))
                     for i in range(0, len(padded), 8))


def put_ue(out: Bits, v: int) -> None:
    n = v + 1
    out.put(0, n.bit_length() - 1)
    out.put(n, n.bit_length())


def put_se(out: Bits, v: int) -> None:
    put_ue(out, 2 * v - 1 if v > 0 else -2 * v)


def get_ue(src: Bits) -> int:
    zeros = 0
    while src.get() == 0:
        zeros += 1
        if zeros > MAX_ZEROS:
            raise ValueError("malformed")
    n = 1
    for _ in range(zeros):
        n = (n << 1) | src.get()
    return n - 1


def get_se(src: Bits) -> int:
    u = get_ue(src)
    return (u + 1) // 2 if u % 2 else -(u // 2)


def encode_blocks(blocks: Sequence[Sequence[int]]) -> bytes:
    """Code raster-order 64-coefficient blocks; zero-padded to bytes."""
    out = Bits()
    for block in blocks:
        prev = -1
        for pos in range(64):
            level = int(block[ZIGZAG[pos]])
            if level == 0:
                continue
            run = pos - prev - 1
            while run >= EOB:
                put_ue(out, EOB - 1)
                put_se(out, 0)
                run -= EOB - 1
            put_ue(out, run)
            put_se(out, level)
            prev = pos
        put_ue(out, EOB)
    return out.to_bytes()


def decode_blocks(data: bytes, nblocks: int) -> List[List[int]]:
    """Inverse of :func:`encode_blocks` for well-formed input."""
    src = Bits(data)
    blocks = []
    for _ in range(nblocks):
        block = [0] * 64
        pos = 0
        while True:
            run = get_ue(src)
            if run == EOB:
                break
            level = get_se(src)
            pos += run
            if level:
                block[ZIGZAG[pos]] = level
                pos += 1
        blocks.append(block)
    return blocks
