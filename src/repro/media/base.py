"""Media object carrier.

A :class:`MediaObject` is the unit the media production center emits,
the content database stores, and an MHEG content object references:
an opaque encoded payload plus the presentation attributes the MHEG
content class wants (coding method, original size/duration, etc.).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Any, Dict, Optional


class MediaType(enum.Enum):
    TEXT = "text"
    IMAGE = "image"
    GRAPHICS = "graphics"
    AUDIO = "audio"
    VIDEO = "video"
    MIDI = "midi"


@dataclass
class MediaObject:
    """An encoded mono-media object.

    *attributes* carries type-specific presentation parameters — for a
    video: ``width``, ``height``, ``frame_rate``, ``frames``; for
    audio: ``sample_rate``, ``samples``; for an image: ``width``,
    ``height``.  Durations are derivable and exposed via
    :attr:`duration`.
    """

    name: str
    media_type: MediaType
    coding_method: str
    data: bytes
    attributes: Dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("media object needs a non-empty name")

    @property
    def size(self) -> int:
        """Encoded size in bytes."""
        return len(self.data)

    @property
    def duration(self) -> Optional[float]:
        """Playback duration in seconds for time-based media, else None."""
        a = self.attributes
        if self.media_type is MediaType.VIDEO and a.get("frame_rate"):
            return a.get("frames", 0) / a["frame_rate"]
        if self.media_type is MediaType.AUDIO and a.get("sample_rate"):
            return a.get("samples", 0) / a["sample_rate"]
        if self.media_type is MediaType.MIDI:
            return a.get("duration")
        return None

    def bitrate_bps(self) -> Optional[float]:
        """Average encoded bitrate for continuous media, else None."""
        d = self.duration
        if d is None or d <= 0:
            return None
        return self.size * 8 / d

