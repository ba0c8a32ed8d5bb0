"""Content classes (Fig 4.5b).

The content class "contains or refers to the media objects with a
parameter set specifying characteristics for content presentation".
Two storage schemes exist (§3.4.2): content *included* as binary data
inside the object, or content *referenced* by a key into the content
database — MITS chooses the latter for reusability and on-demand
transfer, and the ablation benchmark EX.2 measures exactly this
trade-off, so both are implemented.

Subclasses follow the thesis's library: media data (video, audio,
image, text, graphics), non-media data (executables, foreign
documents), generic values, and multiplexed content with per-stream
descriptions.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, ClassVar, Dict, List, Optional, Tuple

from repro.mheg.classes.base import ClassId, MhObject, register_class
from repro.util.errors import EncodingError


@register_class
@dataclass
class ContentClass(MhObject):
    """A mono-media content object.

    Exactly one of *data* (included content) and *content_ref*
    (reference into the content database) must be set.
    """

    CLASS_ID: ClassVar[ClassId] = ClassId.CONTENT
    FIELDS: ClassVar[Tuple[str, ...]] = (
        "content_hook", "data", "content_ref", "original_size",
        "original_duration", "original_volume", "presentation",
    )

    #: identification of the coding method (e.g. "SMPG", "SIMG")
    content_hook: str = ""
    #: included content data (scheme 1)
    data: Optional[bytes] = None
    #: reference into the content database (scheme 2)
    content_ref: Optional[str] = None
    #: original size in generic units: (width, height) or byte count
    original_size: Optional[List[int]] = None
    #: original duration in seconds for continuous media
    original_duration: Optional[float] = None
    #: original volume 0..100 for audible media
    original_volume: Optional[int] = None
    #: presentation parameter set (position, size on screen, speed...)
    presentation: Dict[str, Any] = field(default_factory=dict)

    def validate(self) -> None:
        if (self.data is None) == (self.content_ref is None):
            raise EncodingError(
                f"{self}: exactly one of included data and content_ref "
                "must be set")
        if not self.content_hook:
            raise EncodingError(f"{self}: content_hook (coding method) required")


@register_class
@dataclass
class VideoContentClass(ContentClass):
    media_kind: ClassVar[str] = "video"


@register_class
@dataclass
class AudioContentClass(ContentClass):
    media_kind: ClassVar[str] = "audio"


@register_class
@dataclass
class ImageContentClass(ContentClass):
    media_kind: ClassVar[str] = "image"


@register_class
@dataclass
class TextContentClass(ContentClass):
    media_kind: ClassVar[str] = "text"


@register_class
@dataclass
class GraphicsContentClass(ContentClass):
    media_kind: ClassVar[str] = "graphics"


@register_class
@dataclass
class NonMediaDataClass(ContentClass):
    """Executables or documents coded in other formats (HyTime, ODA)."""

    FIELDS: ClassVar[Tuple[str, ...]] = ContentClass.FIELDS + ("data_format",)

    #: e.g. "hytime", "executable"
    data_format: str = ""

    def validate(self) -> None:
        super().validate()
        if not self.data_format:
            raise EncodingError(f"{self}: data_format required")


@register_class
@dataclass
class GenericValueClass(MhObject):
    """A value stored for comparison, assignment, or presentation."""

    CLASS_ID: ClassVar[ClassId] = ClassId.CONTENT
    FIELDS: ClassVar[Tuple[str, ...]] = ("value",)

    value: Any = None


@dataclass
class StreamDescription:
    """One stream inside a multiplexed content object."""

    stream_id: int
    media_kind: str
    rate_bps: float = 0.0

    def to_value(self) -> Dict[str, Any]:
        return {"stream_id": self.stream_id, "media_kind": self.media_kind,
                "rate_bps": self.rate_bps}

    @classmethod
    def from_value(cls, value: Dict[str, Any]) -> "StreamDescription":
        return cls(stream_id=int(value["stream_id"]),
                   media_kind=str(value["media_kind"]),
                   rate_bps=float(value.get("rate_bps", 0.0)))


@register_class
@dataclass
class MultiplexedContentClass(ContentClass):
    """Content with multiple interleaved streams; the stream identifier
    can control single streams (e.g. turn audio off in a system stream)."""

    CLASS_ID: ClassVar[ClassId] = ClassId.MULTIPLEXED_CONTENT
    FIELDS: ClassVar[Tuple[str, ...]] = ContentClass.FIELDS + ("streams",)

    streams: List[StreamDescription] = field(default_factory=list)

    def validate(self) -> None:
        super().validate()
        if not self.streams:
            raise EncodingError(f"{self}: multiplexed content needs streams")
        ids = [s.stream_id for s in self.streams]
        if len(set(ids)) != len(ids):
            raise EncodingError(f"{self}: duplicate stream ids")

    def stream(self, stream_id: int) -> StreamDescription:
        for s in self.streams:
            if s.stream_id == stream_id:
                return s
        raise KeyError(f"no stream {stream_id} in {self}")
