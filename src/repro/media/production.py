"""The media production center (Fig 3.1, §3.4.1).

"By using video and audio capturing devices such as video cameras,
microphones, and PC-VCRs, the media production server provides all the
data needed for the creation of a multimedia courseware."  We have no
cameras, so the center *synthesises* deterministic content instead:
seeded procedural video (moving gradients and objects so the P-frame
predictor has realistic work), multi-tone audio, procedural lecture
text, and test-card images.  Determinism matters: every experiment
regenerates byte-identical media from a seed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

import numpy as np

from repro.media.audio import AudioCodec
from repro.media.base import MediaObject, MediaType
from repro.media.image import ImageCodec
from repro.media.text import TextCodec
from repro.media.video import VideoCodec

_WORDS = (
    "asynchronous transfer mode cell switching virtual circuit broadband "
    "network multimedia courseware object synchronisation interactive "
    "presentation learning knowledge student teacher architecture database "
    "retrieval composite link action descriptor container scenario channel "
    "quality service bandwidth latency stream video audio authoring engine"
).split()

#: pixels per frame the synthetic scene drifts by
_MOTION = 2.0
#: synthetic speech-band audio: sample rate and companding law
_AUDIO_RATE = 8000
_AUDIO_COMPANDING = "ulaw"
#: JPEG-style quality of a synthetic test card
_IMAGE_QUALITY = 75


class MediaProductionCenter:
    """Deterministic synthetic capture devices plus a local catalog."""

    def __init__(self, seed: int = 1996) -> None:
        self.seed = seed
        self.catalog: Dict[str, MediaObject] = {}

    def _rng(self, name: str) -> np.random.Generator:
        # each asset gets its own stream derived from (seed, name)
        return np.random.default_rng(
            [self.seed, *(ord(c) for c in name)])

    def _register(self, obj: MediaObject) -> MediaObject:
        self.catalog[obj.name] = obj
        return obj

    # -- video -------------------------------------------------------------

    def produce_video(self, name: str, *, seconds: float = 2.0,
                      width: int = 64, height: int = 64,
                      frame_rate: float = 10.0, quality: int = 60,
                      gop: int = 10) -> MediaObject:
        """A moving-scene clip: drifting gradient background plus two
        moving bright squares, with mild sensor noise."""
        rng = self._rng(name)
        T = max(1, int(round(seconds * frame_rate)))
        yy, xx = np.mgrid[0:height, 0:width]
        frames = np.empty((T, height, width), dtype=np.uint8)
        cx, cy = rng.uniform(8, width - 8), rng.uniform(8, height - 8)
        vx, vy = rng.uniform(-_MOTION, _MOTION, 2)
        for t in range(T):
            base = (96 + 48 * np.sin((xx + _MOTION * t) / 11.0)
                    + 32 * np.cos((yy - _MOTION * t) / 7.0))
            frame = base + rng.normal(0, 2.0, (height, width))
            px = int(cx + vx * t) % (width - 8)
            py = int(cy + vy * t) % (height - 8)
            frame[py:py + 8, px:px + 8] = 230
            frame[(py + 20) % (height - 8):(py + 20) % (height - 8) + 6,
                  (px + 30) % (width - 8):(px + 30) % (width - 8) + 6] = 20
            frames[t] = np.clip(frame, 0, 255).astype(np.uint8)
        codec = VideoCodec(quality=quality, gop=gop, frame_rate=frame_rate)
        data = codec.encode(frames)
        return self._register(MediaObject(
            name=name, media_type=MediaType.VIDEO,
            coding_method=codec.coding_method, data=data,
            attributes={"width": width, "height": height,
                        "frame_rate": frame_rate, "frames": T,
                        "quality": quality, "gop": gop}))

    # -- image --------------------------------------------------------------

    def produce_image(self, name: str, *, width: int = 128,
                      height: int = 96) -> MediaObject:
        """A test-card image: gradients, bars, and a noise patch."""
        rng = self._rng(name)
        yy, xx = np.mgrid[0:height, 0:width]
        img = (xx * 255.0 / max(1, width - 1)
               + 64 * np.sin(yy / 6.0)) / 1.5
        img[height // 3: height // 3 + 10] = \
            (xx[height // 3: height // 3 + 10] // 16 % 2) * 255
        patch = rng.integers(0, 255, (height // 4, width // 4))
        img[height - height // 4:, width - width // 4:] = patch
        arr = np.clip(img, 0, 255).astype(np.uint8)
        codec = ImageCodec(quality=_IMAGE_QUALITY)
        return self._register(MediaObject(
            name=name, media_type=MediaType.IMAGE,
            coding_method=codec.coding_method, data=codec.encode(arr),
            attributes={"width": width, "height": height,
                        "quality": _IMAGE_QUALITY}))

    # -- audio ----------------------------------------------------------------

    def produce_audio(self, name: str, *, seconds: float = 2.0) -> MediaObject:
        """Speech-band audio: three drifting tones with an envelope."""
        rng = self._rng(name)
        n = int(seconds * _AUDIO_RATE)
        t = np.arange(n) / _AUDIO_RATE
        freqs = rng.uniform(200, 1200, 3)
        sig = sum(np.sin(2 * np.pi * (f + 20 * np.sin(t)) * t) / 3
                  for f in freqs)
        envelope = 0.5 + 0.5 * np.sin(2 * np.pi * t / max(seconds, 1e-9))
        samples = np.round(sig * envelope * 20000).astype(np.int16)
        codec = AudioCodec(sample_rate=_AUDIO_RATE,
                           companding=_AUDIO_COMPANDING)
        return self._register(MediaObject(
            name=name, media_type=MediaType.AUDIO,
            coding_method=codec.coding_method, data=codec.encode(samples),
            attributes={"sample_rate": _AUDIO_RATE, "samples": n,
                        "companding": _AUDIO_COMPANDING}))

    # -- text -------------------------------------------------------------------

    def produce_text(self, name: str, *, sections: int = 3,
                     link_targets: Optional[List[str]] = None) -> MediaObject:
        """Procedural lecture text with headings and inline links."""
        rng = self._rng(name)
        parts: List[str] = []
        targets = list(link_targets or [])
        for s in range(sections):
            title = " ".join(rng.choice(_WORDS, 3)).title()
            parts.append(f"== {title} ==")
            for _ in range(5):  # sentences per section
                words = list(rng.choice(_WORDS, int(rng.integers(8, 16))))
                if targets and rng.random() < 0.4:
                    target = targets[int(rng.integers(0, len(targets)))]
                    words[rng.integers(0, len(words))] = \
                        f"[[{target}|{target.replace('-', ' ')}]]"
                sentence = " ".join(words).capitalize() + "."
                parts.append(sentence)
            parts.append("")
        text = "\n".join(parts)
        codec = TextCodec()
        return self._register(MediaObject(
            name=name, media_type=MediaType.TEXT,
            coding_method=codec.coding_method, data=codec.encode(text),
            attributes={"sections": sections, "characters": len(text)}))
