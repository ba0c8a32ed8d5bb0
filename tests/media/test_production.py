"""Tests for the media production center."""

import numpy as np
import pytest

from repro.media import (
    AudioCodec, MediaProductionCenter, MediaType, TextCodec,
    VideoCodec, VideoStream,
)
from repro.media.image import ImageCodec
from repro.media.text import extract_links


class TestDeterminism:
    def test_same_seed_same_bytes(self):
        a = MediaProductionCenter(seed=7).produce_video("x", seconds=0.5)
        b = MediaProductionCenter(seed=7).produce_video("x", seconds=0.5)
        assert a.data == b.data

    def test_different_seed_different_bytes(self):
        a = MediaProductionCenter(seed=1).produce_video("x", seconds=0.5)
        b = MediaProductionCenter(seed=2).produce_video("x", seconds=0.5)
        assert a.data != b.data

    def test_different_names_different_content(self):
        pc = MediaProductionCenter()
        assert pc.produce_image("a").data != pc.produce_image("b").data


class TestProducedAssets:
    def test_video_decodable_with_advertised_attributes(self):
        pc = MediaProductionCenter()
        obj = pc.produce_video("clip", seconds=1.0, width=64, height=48,
                               frame_rate=10.0)
        frames = VideoCodec().decode(obj.data)
        assert frames.shape == (10, 48, 64)
        assert obj.duration == pytest.approx(1.0)
        assert obj.bitrate_bps() > 0

    def test_image_decodable(self):
        pc = MediaProductionCenter()
        obj = pc.produce_image("card", width=80, height=64)
        img = ImageCodec().decode(obj.data)
        assert img.shape == (64, 80)
        assert obj.media_type is MediaType.IMAGE

    @pytest.mark.parametrize("width,height", [(102, 70), (101, 69), (3, 5)])
    def test_image_sides_not_divisible_by_four(self, width, height):
        # the noise patch fills the last quarter of rows and columns
        obj = MediaProductionCenter().produce_image(
            "card", width=width, height=height)
        assert ImageCodec().decode(obj.data).shape == (height, width)

    def test_audio_decodable(self):
        pc = MediaProductionCenter()
        obj = pc.produce_audio("speech", seconds=0.5)
        samples = AudioCodec().decode(obj.data)
        assert len(samples) == 4000
        assert obj.duration == pytest.approx(0.5)

    def test_text_has_structure_and_links(self):
        pc = MediaProductionCenter()
        obj = pc.produce_text("lecture", sections=4,
                              link_targets=["atm-cells", "atm-qos"])
        text = TextCodec().decode(obj.data)
        assert sum(line.startswith("== ") for line in text.splitlines()) == 4
        targets = {t for t, _ in extract_links(text)}
        assert targets <= {"atm-cells", "atm-qos"}

    def test_catalog_accumulates(self):
        pc = MediaProductionCenter()
        pc.produce_image("a")
        pc.produce_text("b")
        assert set(pc.catalog) == {"a", "b"}

    def test_describe_includes_basics(self):
        pc = MediaProductionCenter()
        video = pc.produce_video("v", seconds=0.5)
        assert video.media_type.value == "video"
        assert video.size > 0
        assert video.attributes["frame_rate"] == 10.0
