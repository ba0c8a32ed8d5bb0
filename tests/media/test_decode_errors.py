"""Malformed SIMG/SMPG payloads raise DecodingError.

Each payload is built from a good encoding or bit by bit with the
reference coder, so the error is the only thing wrong with it.
"""

import struct

import numpy as np
import pytest

from repro.media.image import ImageCodec
from repro.media.production import MediaProductionCenter
from repro.media.video import VideoCodec, VideoStream
from repro.util.errors import DecodingError
from tests.media import reference_golomb as ref


def simg(height, width, bits):
    """An SIMG payload: header for *height* x *width*, then *bits*."""
    return b"SIMG" + struct.pack(">HHB", height, width, 75) + bits.to_bytes()


def one_block(*codes):
    """Bits of ``(ue, se)`` pairs followed by end-of-block."""
    bits = ref.Bits()
    for run, level in codes:
        ref.put_ue(bits, run)
        ref.put_se(bits, level)
    ref.put_ue(bits, ref.EOB)
    return bits


def test_well_formed_payload_decodes():
    out = ImageCodec().decode(simg(8, 8, one_block((0, 4), (62, -1))))
    assert out.shape == (8, 8)


def test_simg_truncated_mid_plane():
    data = MediaProductionCenter().produce_image("card").data
    with pytest.raises(DecodingError, match="exhausted"):
        ImageCodec().decode(data[:len(data) // 2])


@pytest.mark.parametrize("zeros", [41, 64])
def test_prefix_longer_than_forty_zeros(zeros):
    # the long code is a level: read as a number it would decode cleanly
    bits = ref.Bits()
    ref.put_ue(bits, 0)
    bits.put(0, zeros)
    bits.put(1, 1)
    bits.put(0, zeros)
    ref.put_ue(bits, ref.EOB)
    with pytest.raises(DecodingError, match="malformed"):
        ImageCodec().decode(simg(8, 8, bits))


def test_stream_ends_inside_a_prefix():
    bits = one_block((0, 3))
    bits.put(0, 20)                     # second block: 20 zeros, then EOF
    with pytest.raises(DecodingError, match="exhausted"):
        ImageCodec().decode(simg(8, 16, bits))


def test_run_past_coefficient_63():
    with pytest.raises(DecodingError, match="out of block"):
        ImageCodec().decode(simg(8, 8, one_block((60, 1), (10, 1))))


def test_zero_runs_overrun_the_block():
    # two split runs of 62 move past coefficient 64 with no level coded
    with pytest.raises(DecodingError, match="overrun"):
        ImageCodec().decode(simg(8, 8, one_block((62, 0), (62, 0))))


def test_video_frame_payload_cut_short():
    frames = np.full((3, 16, 16), 128, dtype=np.uint8)
    frames[1, 4:12, 4:12] = 250
    data = VideoCodec(gop=2).encode(frames)
    VideoCodec().decode(data)
    with pytest.raises(DecodingError, match="truncated"):
        VideoCodec().decode(data[:-1])



def three_frame_clip():
    frames = np.full((3, 16, 16), 128, dtype=np.uint8)
    frames[1, 4:12, 4:12] = 250
    return VideoCodec(gop=2).encode(frames)


CLIP = three_frame_clip()
#: magic, frames/height/width/rate/GOP and the quality octet
SMPG_HEADER = 4 + struct.calcsize(">HHHfB") + 1
#: the second frame's 5-octet header follows the first frame's payload
SECOND_FRAME = SMPG_HEADER + 5 + struct.unpack_from(">I", CLIP,
                                                     SMPG_HEADER + 1)[0]


@pytest.mark.parametrize("entry, payload", [
    pytest.param(ImageCodec().decode, b"SIMG", id="simg-magic-only"),
    pytest.param(ImageCodec().decode, b"SIMG\x00\x08", id="simg-header"),
    pytest.param(VideoCodec.parse_header, CLIP[:10],
                 id="smpg-header-fields"),
    pytest.param(VideoCodec.parse_header, CLIP[:SMPG_HEADER - 1],
                 id="smpg-quality-octet"),
    pytest.param(VideoCodec().decode, CLIP[:SMPG_HEADER + 2],
                 id="smpg-decode-first-frame-header"),
    pytest.param(VideoCodec().decode, CLIP[:SECOND_FRAME + 3],
                 id="smpg-decode-second-frame-header"),
    pytest.param(VideoStream, CLIP[:12], id="smpg-stream-header-fields"),
    pytest.param(VideoStream, CLIP[:SMPG_HEADER + 2],
                 id="smpg-stream-first-frame-header"),
    pytest.param(VideoStream, CLIP[:-1], id="smpg-stream-last-frame-payload"),
])
def test_payload_cut_inside_a_header(entry, payload):
    with pytest.raises(DecodingError, match="truncated"):
        entry(payload)
