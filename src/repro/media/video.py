"""MPEG-like video sequence codec.

Reproduces the structure that matters for delivery experiments: a
group-of-pictures (GOP) layout where intra (I) frames are coded like
JPEG stills and predicted (P) frames code only the quantised DCT of
the difference from the previous *reconstructed* frame.  As in real
MPEG, I frames are several times larger than P frames, so streaming a
sequence produces bursty, variable-bit-rate traffic — the workload
ATM's rt-VBR class exists for.

The encoded stream is framed so a server can send it frame by frame:
:class:`VideoStream` iterates (timestamp, frame bytes) pairs without
decoding pixels.
"""

from __future__ import annotations

import struct
from typing import Iterator, List, Tuple

import numpy as np

from repro.media.image import (_decode_blocks, _encode_blocks, _quantise,
                               _reconstruct, quant_table)
from repro.util.bitstream import BitWriter
from repro.util.errors import DecodingError, EncodingError

_MAGIC = b"SMPG"
_HEADER = struct.Struct(">HHHfB")
#: magic, header fields and the quality octet
_HEADER_SIZE = 4 + _HEADER.size + 1
_FRAME = struct.Struct(">BI")  # frame kind, payload size
_FRAME_I = 0
_FRAME_P = 1


class VideoCodec:
    """Encode/decode grayscale frame sequences (T, H, W) uint8."""

    coding_method = "SMPG"

    def __init__(self, quality: int = 60, gop: int = 12,
                 frame_rate: float = 25.0) -> None:
        if gop < 1:
            raise EncodingError("GOP length must be >= 1")
        self.quality = quality
        self.gop = gop
        self.frame_rate = frame_rate

    # -- encoding ---------------------------------------------------------

    def _code_plane(self, plane: np.ndarray,
                    q: np.ndarray) -> Tuple[bytes, np.ndarray]:
        """Code one plane: the payload, and the plane a decoder rebuilds
        from it (the closed-loop reference)."""
        quantised = _quantise(plane, q)
        w = BitWriter()
        _encode_blocks(quantised, w)
        return w.getvalue(), _reconstruct(quantised, q, *plane.shape)

    def encode(self, frames: np.ndarray) -> bytes:
        if frames.ndim != 3:
            raise EncodingError("VideoCodec takes (T, H, W) arrays")
        if frames.dtype != np.uint8:
            raise EncodingError("VideoCodec takes uint8 arrays")
        T, h, w = frames.shape
        if T == 0:
            raise EncodingError("empty sequence")
        if h % 8 or w % 8:
            raise EncodingError("frame dimensions must be multiples of 8")
        q = quant_table(self.quality)
        parts: List[bytes] = []
        reference = None
        for t in range(T):
            plane = frames[t].astype(np.float64) - 128.0
            if t % self.gop == 0 or reference is None:
                kind = _FRAME_I
                payload, reference = self._code_plane(plane, q)
            else:
                kind = _FRAME_P
                payload, residual = self._code_plane(plane - reference, q)
                reference = reference + residual
            parts.append(_FRAME.pack(kind, len(payload)) + payload)
        header = _MAGIC + _HEADER.pack(T, h, w, self.frame_rate, self.gop)
        return header + struct.pack(">B", self.quality) + b"".join(parts)

    # -- decoding ---------------------------------------------------------

    @staticmethod
    def parse_header(data: bytes) -> Tuple[int, int, int, float, int, int]:
        """(frames, height, width, frame_rate, gop, quality)."""
        if data[:4] != _MAGIC:
            raise DecodingError("not an SMPG payload")
        if len(data) < _HEADER_SIZE:
            raise DecodingError("truncated SMPG header")
        T, h, w, rate, gop = _HEADER.unpack_from(data, 4)
        return T, h, w, rate, gop, data[_HEADER_SIZE - 1]

    def decode(self, data: bytes) -> np.ndarray:
        T, h, w, rate, gop, quality = self.parse_header(data)
        q = quant_table(quality)
        nblocks = (h // 8) * (w // 8)
        pos = _HEADER_SIZE
        out = np.empty((T, h, w), dtype=np.uint8)
        reference = None
        for t in range(T):
            kind, size = _frame_header(data, pos)
            pos += _FRAME.size
            payload = data[pos:pos + size]
            if len(payload) != size:
                raise DecodingError("truncated video frame")
            pos += size
            plane = _reconstruct(_decode_blocks(payload, nblocks), q, h, w)
            if kind == _FRAME_I:
                recon = plane
            elif kind == _FRAME_P:
                if reference is None:
                    raise DecodingError("P frame with no reference")
                recon = reference + plane
            else:
                raise DecodingError(f"unknown frame kind {kind}")
            reference = recon
            out[t] = np.clip(np.round(recon + 128.0), 0, 255).astype(np.uint8)
        return out


def _frame_header(data: bytes, pos: int) -> Tuple[int, int]:
    """(kind, payload size) of the frame header at *pos*."""
    if pos + _FRAME.size > len(data):
        raise DecodingError("truncated video frame header")
    return _FRAME.unpack_from(data, pos)


class VideoStream:
    """Frame-granular access to an encoded sequence, for streaming."""

    def __init__(self, data: bytes) -> None:
        (self.frames, self.height, self.width, self.frame_rate,
         self.gop, self.quality) = VideoCodec.parse_header(data)
        self._data = data
        self._offsets: List[Tuple[int, int, int]] = []  # (kind, start, size)
        pos = _HEADER_SIZE
        for _ in range(self.frames):
            kind, size = _frame_header(data, pos)
            self._offsets.append((kind, pos, _FRAME.size + size))
            pos += _FRAME.size + size
        if pos > len(data):
            raise DecodingError("truncated video frame")
        if pos != len(data):
            raise DecodingError("trailing bytes after last frame")

    @property
    def duration(self) -> float:
        return self.frames / self.frame_rate

    def frame_bytes(self, index: int) -> bytes:
        kind, start, size = self._offsets[index]
        return self._data[start:start + size]

    def __iter__(self) -> Iterator[Tuple[float, bytes]]:
        """Yield (presentation timestamp, frame bytes)."""
        for i in range(self.frames):
            yield i / self.frame_rate, self.frame_bytes(i)

    def peak_to_mean_ratio(self) -> float:
        """Burstiness of the encoded stream (drives VBR contracts)."""
        sizes = np.array([s for (_, _, s) in self._offsets], dtype=float)
        return float(sizes.max() / sizes.mean())
