"""JPEG-like still-image codec.

The real pipeline the thesis relied on (JPEG) is reproduced in
miniature: 8x8 block DCT, luminance-table quantisation with a quality
knob, zigzag scan, and run-length + exponential-Golomb entropy
coding.  Output size therefore responds to image content and quality
the way JPEG's does, which is what the storage and streaming
experiments need; only the Huffman tables are simplified.

Images are 2-D ``uint8`` arrays (grayscale).  Multi-band content can
be encoded band by band.
"""

from __future__ import annotations

import struct
from typing import List, Tuple

import numpy as np
import scipy.fft

from repro.util.bitstream import BitWriter
from repro.util.errors import DecodingError, EncodingError

_MAGIC = b"SIMG"

#: ISO/IEC 10918-1 Annex K luminance quantisation table
_QUANT_BASE = np.array([
    [16, 11, 10, 16, 24, 40, 51, 61],
    [12, 12, 14, 19, 26, 58, 60, 55],
    [14, 13, 16, 24, 40, 57, 69, 56],
    [14, 17, 22, 29, 51, 87, 80, 62],
    [18, 22, 37, 56, 68, 109, 103, 77],
    [24, 35, 55, 64, 81, 104, 113, 92],
    [49, 64, 78, 87, 103, 121, 120, 101],
    [72, 92, 95, 98, 112, 100, 103, 99],
], dtype=np.float64)


def _zigzag_order() -> np.ndarray:
    """Flat indices of an 8x8 block in zigzag scan order."""
    idx = sorted(((r + c, (c if (r + c) % 2 == 0 else r), r, c)
                  for r in range(8) for c in range(8)))
    return np.array([r * 8 + c for (_, _, r, c) in idx], dtype=np.int64)


_ZIGZAG = _zigzag_order()
_ZIGZAG_LIST = _ZIGZAG.tolist()


def quant_table(quality: int) -> np.ndarray:
    """Scale the base table by a 1..100 quality factor (libjpeg rule)."""
    if not 1 <= quality <= 100:
        raise EncodingError(f"quality must be in 1..100, got {quality}")
    scale = 5000 / quality if quality < 50 else 200 - 2 * quality
    q = np.floor((_QUANT_BASE * scale + 50) / 100)
    return np.clip(q, 1, 255)


_EOB_RUN = 63  # run value reserved as end-of-block marker
_MAX_ZEROS = 40  # longest exp-Golomb prefix a decoder accepts

#: ue(run) codewords for every run a block can hold, as (value, bits):
#: ue(v) is v + 1 written in 2 * bitlen(v + 1) - 1 bits (H.264 §9.1)
_RUN_CODES = [(run + 1, 2 * (run + 1).bit_length() - 1) for run in range(64)]
_EOB_CODE, _EOB_BITS = _RUN_CODES[_EOB_RUN]
#: ue(62) se(0) as one codeword (se(0) is the single bit 1): shortens
#: a zero run by 62 so that ue(63) stays the end-of-block marker
_SPLIT_CODE = (_RUN_CODES[_EOB_RUN - 1][0] << 1) | 1
_SPLIT_BITS = _RUN_CODES[_EOB_RUN - 1][1] + 1


def _blockify(plane: np.ndarray) -> np.ndarray:
    """(H, W) -> (H*W/64, 8, 8) in raster block order."""
    H, W = plane.shape
    return (plane.reshape(H // 8, 8, W // 8, 8)
            .transpose(0, 2, 1, 3).reshape(-1, 8, 8))


def _unblockify(blocks: np.ndarray, H: int, W: int) -> np.ndarray:
    return (blocks.reshape(H // 8, W // 8, 8, 8)
            .transpose(0, 2, 1, 3).reshape(H, W))


def _quantise(plane: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Quantised DCT coefficients (N, 64) of a float plane."""
    coeffs = scipy.fft.dctn(_blockify(plane), axes=(1, 2), norm="ortho")
    return np.round(coeffs / q).astype(np.int32).reshape(-1, 64)


def _reconstruct(quantised: np.ndarray, q: np.ndarray,
                 H: int, W: int) -> np.ndarray:
    """The float plane a decoder rebuilds from quantised coefficients;
    an encoder's closed-loop reference is the same call."""
    coeffs = (quantised * q.reshape(-1)).reshape(-1, 8, 8)
    return _unblockify(
        scipy.fft.idctn(coeffs, axes=(1, 2), norm="ortho"), H, W)


def _encode_blocks(blocks: np.ndarray, w: BitWriter) -> None:
    """Entropy-code quantised coefficient blocks (N, 64) in zigzag order.

    Each nonzero coefficient is ``ue(run) se(level)``, *run* counting
    the zeros since the previous nonzero of its block, and ``ue(63)``
    ends the block.  Codewords are shifted whole into an int, and each
    block reaches the writer as one write.
    """
    zz = blocks[:, _ZIGZAG]
    rows, cols = np.nonzero(zz)
    levels = zz[rows, cols].tolist()
    cols = cols.tolist()
    start = 0
    for end in np.cumsum(np.count_nonzero(zz, axis=1)).tolist():
        acc, nbits, prev = 0, 0, -1
        for j in range(start, end):
            i = cols[j]
            run = i - prev - 1
            prev = i
            while run >= _EOB_RUN:
                acc = (acc << _SPLIT_BITS) | _SPLIT_CODE
                nbits += _SPLIT_BITS
                run -= _EOB_RUN - 1
            code, size = _RUN_CODES[run]
            level = levels[j]
            # se(level) is ue(2*level - 1) for level > 0, else ue(-2*level)
            n = 2 * level if level > 0 else 1 - 2 * level
            lsize = 2 * n.bit_length() - 1
            acc = (((acc << size) | code) << lsize) | n
            nbits += size + lsize
        w.write((acc << _EOB_BITS) | _EOB_CODE, nbits + _EOB_BITS)
        start = end


def _read_ue(bits: str, pos: int) -> Tuple[int, int]:
    """Decode the ue(v) codeword at *pos* of a '0'/'1' string; returns
    (v, position after it)."""
    one = bits.find("1", pos, pos + _MAX_ZEROS + 1)
    if one < 0:
        if len(bits) - pos > _MAX_ZEROS:
            raise DecodingError("malformed exp-Golomb code")
        raise DecodingError("bit stream exhausted inside exp-Golomb code")
    end = 2 * one - pos + 1
    if end > len(bits):
        raise DecodingError("bit stream exhausted inside exp-Golomb code")
    return int(bits[one:end], 2) - 1, end


def _decode_blocks(data: bytes, nblocks: int) -> np.ndarray:
    """Inverse of :func:`_encode_blocks`: (nblocks, 64) float64."""
    bits = bin(int.from_bytes(b"\x01" + data, "big"))[3:]
    index: List[int] = []
    values: List[int] = []
    pos = 0
    for b in range(nblocks):
        base = 64 * b
        k = 0
        while True:
            run, pos = _read_ue(bits, pos)
            if run == _EOB_RUN:
                break
            u, pos = _read_ue(bits, pos)
            level = (u + 1) >> 1 if u & 1 else -(u >> 1)
            k += run
            if level:
                if k > 63:
                    raise DecodingError("coefficient index out of block")
                index.append(base + _ZIGZAG_LIST[k])
                values.append(level)
                k += 1
            # level == 0 encodes a split long zero-run; k advanced only
        if k > 64:
            raise DecodingError("block overrun")
    blocks = np.zeros(nblocks * 64, dtype=np.float64)
    blocks[index] = values
    return blocks.reshape(nblocks, 64)


class ImageCodec:
    """Encode/decode grayscale images."""

    coding_method = "SIMG"

    def __init__(self, quality: int = 75) -> None:
        self.quality = quality

    def encode(self, image: np.ndarray) -> bytes:
        if image.ndim != 2:
            raise EncodingError("ImageCodec takes 2-D grayscale arrays")
        if image.dtype != np.uint8:
            raise EncodingError("ImageCodec takes uint8 arrays")
        h, w = image.shape
        if h == 0 or w == 0:
            raise EncodingError("image must be non-empty")
        padded = np.pad(image.astype(np.float64) - 128.0,
                        ((0, (-h) % 8), (0, (-w) % 8)), mode="edge")
        quantised = _quantise(padded, quant_table(self.quality))
        out = BitWriter()
        _encode_blocks(quantised, out)
        header = _MAGIC + struct.pack(">HHB", h, w, self.quality)
        return header + out.getvalue()

    def decode(self, data: bytes) -> np.ndarray:
        if data[:4] != _MAGIC:
            raise DecodingError("not an SIMG payload")
        if len(data) < 9:
            raise DecodingError("truncated SIMG header")
        h, w, quality = struct.unpack_from(">HHB", data, 4)
        H, W = h + ((-h) % 8), w + ((-w) % 8)
        nblocks = (H // 8) * (W // 8)
        quantised = _decode_blocks(data[9:], nblocks)
        padded = _reconstruct(quantised, quant_table(quality), H, W)
        return np.clip(np.round(padded + 128.0), 0, 255).astype(np.uint8)[:h, :w]
