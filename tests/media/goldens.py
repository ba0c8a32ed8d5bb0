"""Byte goldens that pin the SIMG and SMPG codecs.

Each case is one encoded payload.  Its golden is the sha256 of the
payload bytes and the sha256 of the ``uint8`` pixels that ``decode``
returns for it, so a change to the encoder, the entropy coder or the
decoder shows up as a moved digest.  The goldens were recorded from
the codec that decoded its own bitstream to get the closed-loop
reference frame and wrote exp-Golomb codes one bit at a time.

Cases:

* ``smpg/s<seed>-q<quality>-g<gop>`` — a 12-frame 64x64 clip from a
  seeded :class:`MediaProductionCenter`, over content seeds {1, 7, 1996},
  quality {10, 60, 95} and GOP {1, 4, 10}.  GOP 4 and 10 code P frames,
  so the digests pin the encoder's reference frame: an encoder whose
  reference drifts from the decoder's codes different differences;
* ``smpg/wide`` — an 80x48 clip, so blocks are not square in number;
* ``smpg/lecture-video`` — the clip the perfbench ``lecture`` workload
  makes (name and length read from ``perfbench.workloads``, default
  seed);
* ``simg/produced-<w>x<h>`` — test-card images whose sizes need edge
  padding to whole 8x8 blocks;
* ``simg/noise-<w>x<h>-q<quality>`` — seeded noise through
  :class:`ImageCodec` directly, down to a single pixel;
* ``simg/publish-s<seed>-<i>`` — the default-seeded images the
  perfbench ``publish`` workload makes at seeds 1 and 201.

Re-record with ``PYTHONPATH=src python -m tests.media.goldens`` from
the repository root.  Only do that for a change that is meant to move
the coded bytes (a new bitstream format, a fixed codec bug), and say
which digests moved and why in the change log.
"""

from __future__ import annotations

import hashlib
import json
import os
from typing import Callable, Dict, Tuple

import numpy as np

from repro.media.image import ImageCodec
from repro.media.production import MediaProductionCenter
from repro.media.video import VideoCodec

GOLDENS_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                            "goldens.json")

SEEDS = (1, 7, 1996)
QUALITIES = (10, 60, 95)
GOPS = (1, 4, 10)

PUBLISH_SEEDS = (1, 201)

Case = Callable[[], Tuple[object, bytes]]


def _clip(seed: int, **kwargs) -> Case:
    def make() -> Tuple[object, bytes]:
        clip = MediaProductionCenter(seed).produce_video(
            "golden-clip", seconds=1.2, **kwargs)
        return VideoCodec(), clip.data
    return make


def _lecture(name: str, seconds: float) -> Case:
    def make() -> Tuple[object, bytes]:
        clip = MediaProductionCenter().produce_video(name, seconds=seconds)
        return VideoCodec(), clip.data
    return make


def _produced(width: int, height: int) -> Case:
    def make() -> Tuple[object, bytes]:
        img = MediaProductionCenter().produce_image(
            "golden-card", width=width, height=height)
        return ImageCodec(), img.data
    return make


def _noise(width: int, height: int, quality: int) -> Case:
    def make() -> Tuple[object, bytes]:
        rng = np.random.default_rng([width, height, quality])
        img = rng.integers(0, 256, (height, width), dtype=np.uint8)
        return ImageCodec(), ImageCodec(quality=quality).encode(img)
    return make


def _publish(name: str) -> Case:
    def make() -> Tuple[object, bytes]:
        return ImageCodec(), MediaProductionCenter().produce_image(name).data
    return make


def cases() -> Dict[str, Case]:
    """Every golden case by name, each a zero-argument maker that
    returns ``(codec to decode with, encoded payload)``."""
    from perfbench.workloads import (LECTURE_VIDEO, LECTURE_VIDEO_SECONDS,
                                     make_inputs)

    out: Dict[str, Case] = {}
    for seed in SEEDS:
        for quality in QUALITIES:
            for gop in GOPS:
                out[f"smpg/s{seed}-q{quality}-g{gop}"] = _clip(
                    seed, quality=quality, gop=gop)
    out["smpg/wide"] = _clip(1, width=80, height=48, gop=4)
    # the clip perfbench's lecture workload streams
    out["smpg/lecture-video"] = _lecture(LECTURE_VIDEO, LECTURE_VIDEO_SECONDS)
    for width, height in ((100, 68), (36, 20)):
        out[f"simg/produced-{width}x{height}"] = _produced(width, height)
    for width, height, quality in ((1, 1, 75), (21, 13, 10), (102, 70, 95),
                                   (64, 64, 50)):
        out[f"simg/noise-{width}x{height}-q{quality}"] = _noise(
            width, height, quality)
    for seed in PUBLISH_SEEDS:
        for i, name in enumerate(make_inputs("publish", seed)["images"]):
            out[f"simg/publish-s{seed}-{i}"] = _publish(name)
    return out


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def measure(make: Case) -> Dict[str, str]:
    """The golden record of one case: payload and decoded-pixel digests."""
    codec, data = make()
    pixels = codec.decode(data)
    return {"bytes": sha256(data), "decoded": sha256(pixels.tobytes())}


def load() -> Dict[str, Dict[str, str]]:
    with open(GOLDENS_PATH) as fh:
        return json.load(fh)


def record() -> Dict[str, Dict[str, str]]:
    return {name: measure(make) for name, make in cases().items()}


if __name__ == "__main__":
    with open(GOLDENS_PATH, "w") as fh:
        json.dump(record(), fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {GOLDENS_PATH}")
