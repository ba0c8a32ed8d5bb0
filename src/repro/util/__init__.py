"""Shared low-level utilities for the MITS reproduction.

This subpackage holds the pieces every substrate needs: CRC generators
(ATM AAL5 uses CRC-32, the cell header HEC uses CRC-8), a bit-level
reader/writer used by the cell header and the media codecs, and the
common exception hierarchy.
"""

from repro.util.crc import crc8_hec, crc32_aal5
from repro.util.bitstream import BitReader, BitWriter
from repro.util.errors import (
    ReproError,
    EncodingError,
    DecodingError,
    NetworkError,
    DatabaseError,
    AuthoringError,
    PresentationError,
)

__all__ = [
    "crc8_hec",
    "crc32_aal5",
    "BitReader",
    "BitWriter",
    "ReproError",
    "EncodingError",
    "DecodingError",
    "NetworkError",
    "DatabaseError",
    "AuthoringError",
    "PresentationError",
]
