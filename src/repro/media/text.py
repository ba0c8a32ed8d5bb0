"""Text media objects.

Plain UTF-8 text with an optional lightweight markup the navigator's
library browser understands: ``[[target|label]]`` inline links (the
hypertext primitive of §4.3).
"""

from __future__ import annotations

import re
import struct
from dataclasses import dataclass
from typing import List, Tuple

from repro.util.errors import DecodingError

_MAGIC = b"STXT"
_LINK_RE = re.compile(r"\[\[([^|\]]+)\|([^\]]+)\]\]")


class TextCodec:
    """Length-prefixed UTF-8 with a format tag."""

    coding_method = "STXT"

    def encode(self, text: str) -> bytes:
        body = text.encode("utf-8")
        return _MAGIC + struct.pack(">I", len(body)) + body

    def decode(self, data: bytes) -> str:
        if data[:4] != _MAGIC:
            raise DecodingError("not an STXT payload")
        (n,) = struct.unpack_from(">I", data, 4)
        body = data[8:]
        if len(body) != n:
            raise DecodingError("truncated text payload")
        return body.decode("utf-8")


def extract_links(text: str) -> List[Tuple[str, str]]:
    """All ``[[target|label]]`` links as (target, label) pairs."""
    return _LINK_RE.findall(text)
