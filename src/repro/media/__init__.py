"""Media substrate: content types, synthetic codecs, production center.

The thesis's media production center "captures information from the
real world and codes them into different media objects such as text,
image, audio, and video" (§3.2) using MPEG, JPEG, WAV hardware codecs.
We have no capture hardware, so this subpackage provides:

* :mod:`repro.media.base` — the :class:`MediaObject` carrier every
  other subsystem passes around (typed payload + presentation
  attributes, exactly what an MHEG content object references);
* :mod:`repro.media.image` — a JPEG-like still codec (8x8 block DCT,
  quantisation, zigzag run-length, bit-packed entropy code);
* :mod:`repro.media.video` — an MPEG-like sequence codec (GOP
  structure with intra and predicted frames) whose per-frame sizes
  give realistic VBR traffic;
* :mod:`repro.media.audio` — 16-bit PCM with G.711 µ-law companding,
  plus a MIDI-like event-list format;
* :mod:`repro.media.text` — plain and lightly marked-up text;
* :mod:`repro.media.production` — the deterministic media production
  center that synthesises test content for every experiment.
"""

from repro.media.base import MediaObject, MediaType
from repro.media.image import ImageCodec
from repro.media.video import VideoCodec, VideoStream
from repro.media.audio import (
    AudioCodec, MidiCodec, MidiEvent, mu_law_compress, mu_law_expand,
)
from repro.media.text import TextCodec
from repro.media.production import MediaProductionCenter

__all__ = [
    "MediaObject",
    "MediaType",
    "ImageCodec",
    "VideoCodec",
    "VideoStream",
    "AudioCodec",
    "MidiCodec",
    "MidiEvent",
    "mu_law_compress",
    "mu_law_expand",
    "TextCodec",
    "MediaProductionCenter",
]
