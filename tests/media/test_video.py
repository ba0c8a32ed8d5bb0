"""Tests for the MPEG-like video codec and streaming wrapper."""

import numpy as np
import pytest

from tests.media.test_image import psnr
from repro.media.production import MediaProductionCenter
from repro.media.video import VideoCodec, VideoStream
from repro.util.errors import DecodingError, EncodingError


def moving_sequence(T=12, h=32, w=32, seed=0):
    rng = np.random.default_rng(seed)
    yy, xx = np.mgrid[0:h, 0:w]
    frames = np.empty((T, h, w), dtype=np.uint8)
    for t in range(T):
        img = 128 + 64 * np.sin((xx + 2 * t) / 5.0) + rng.normal(0, 1, (h, w))
        frames[t] = np.clip(img, 0, 255).astype(np.uint8)
    return frames


class TestVideoCodec:
    def test_roundtrip_shape(self):
        frames = moving_sequence()
        out = VideoCodec().decode(VideoCodec().encode(frames))
        assert out.shape == frames.shape and out.dtype == np.uint8

    def test_reconstruction_quality(self):
        frames = moving_sequence()
        codec = VideoCodec(quality=85, gop=6)
        out = codec.decode(codec.encode(frames))
        for t in range(len(frames)):
            assert psnr(frames[t], out[t]) > 28

    def test_static_sequence_p_frames_tiny(self):
        frames = np.repeat(moving_sequence(T=1), 12, axis=0)
        codec = VideoCodec(quality=60, gop=12)
        stream = VideoStream(codec.encode(frames))
        frames = [stream.frame_bytes(i) for i in range(stream.frames)]
        # a frame starts with its kind octet: 0 = I, 1 = P
        assert [f[0] for f in frames] == [0] + [1] * 11
        # P frames of a static scene are near-empty (EOB-per-block floor)
        assert all(len(f) < len(frames[0]) / 2 for f in frames[1:])
        assert all(len(f) < 64 for f in frames[1:])

    def test_gop_structure(self):
        frames = moving_sequence(T=10)
        stream = VideoStream(VideoCodec(gop=4).encode(frames))
        kinds = ["IP"[stream.frame_bytes(i)[0]] for i in range(stream.frames)]
        assert kinds == ["I", "P", "P", "P"] * 2 + ["I", "P"]

    def test_input_validation(self):
        codec = VideoCodec()
        with pytest.raises(EncodingError):
            codec.encode(np.zeros((4, 4), dtype=np.uint8))
        with pytest.raises(EncodingError):
            codec.encode(np.zeros((2, 10, 10), dtype=np.uint8))  # not /8
        with pytest.raises(EncodingError):
            codec.encode(np.zeros((0, 8, 8), dtype=np.uint8))
        with pytest.raises(EncodingError):
            VideoCodec(gop=0)

    def test_rejects_alien_payload(self):
        with pytest.raises(DecodingError):
            VideoCodec().decode(b"NOPEnope")


class TestVideoStream:
    def test_frame_iteration_timestamps(self):
        frames = moving_sequence(T=5)
        stream = VideoStream(VideoCodec(frame_rate=10.0).encode(frames))
        stamps = [ts for ts, _ in stream]
        assert stamps == pytest.approx([0.0, 0.1, 0.2, 0.3, 0.4])

    def test_duration(self):
        frames = moving_sequence(T=10)
        stream = VideoStream(VideoCodec(frame_rate=5.0).encode(frames))
        assert stream.duration == pytest.approx(2.0)

    def test_frames_concatenate_to_whole(self):
        frames = moving_sequence(T=6)
        data = VideoCodec().encode(frames)
        stream = VideoStream(data)
        header_len = len(data) - sum(len(stream.frame_bytes(i))
                                     for i in range(stream.frames))
        joined = data[:header_len] + b"".join(
            stream.frame_bytes(i) for i in range(stream.frames))
        assert joined == data

    def test_truncated_stream_rejected(self):
        data = VideoCodec().encode(moving_sequence(T=3))
        with pytest.raises(DecodingError):
            VideoStream(data + b"x")

    def test_burstiness_of_produced_video(self):
        pc = MediaProductionCenter()
        vid = pc.produce_video("clip", seconds=2.0, gop=10)
        stream = VideoStream(vid.data)
        assert stream.peak_to_mean_ratio() > 1.05
