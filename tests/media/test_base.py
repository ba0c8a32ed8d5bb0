"""Unit tests for the MediaObject carrier."""

import pytest

from repro.media.base import MediaObject, MediaType


def video_obj(frames=20, rate=10.0, size=1000):
    return MediaObject(name="v", media_type=MediaType.VIDEO,
                       coding_method="SMPG", data=bytes(size),
                       attributes={"frames": frames, "frame_rate": rate})


class TestMediaObject:
    def test_needs_name(self):
        with pytest.raises(ValueError):
            MediaObject(name="", media_type=MediaType.TEXT,
                        coding_method="STXT", data=b"x")

    def test_video_duration_and_bitrate(self):
        obj = video_obj(frames=20, rate=10.0, size=1000)
        assert obj.duration == pytest.approx(2.0)
        assert obj.bitrate_bps() == pytest.approx(4000.0)

    def test_audio_duration(self):
        obj = MediaObject(name="a", media_type=MediaType.AUDIO,
                          coding_method="SPCM", data=bytes(100),
                          attributes={"sample_rate": 8000,
                                      "samples": 4000})
        assert obj.duration == pytest.approx(0.5)

    def test_midi_duration_from_attribute(self):
        obj = MediaObject(name="m", media_type=MediaType.MIDI,
                          coding_method="SMID", data=b"x",
                          attributes={"duration": 7.5})
        assert obj.duration == 7.5

    def test_static_media_no_duration(self):
        obj = MediaObject(name="i", media_type=MediaType.IMAGE,
                          coding_method="SIMG", data=b"x",
                          attributes={"width": 8, "height": 8})
        assert obj.duration is None
        assert obj.bitrate_bps() is None

    def test_describe(self):
        obj = video_obj()
        assert obj.media_type.value == "video"
        assert obj.size == 1000
        assert obj.duration == pytest.approx(2.0)
