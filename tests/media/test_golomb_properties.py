"""The SIMG/SMPG entropy coder against a bit-at-a-time reference.

Random quantised blocks must code to the same bytes through
``_encode_blocks`` as through :mod:`tests.media.reference_golomb`, and
decode back exactly through both decoders.
"""

import numpy as np
from hypothesis import example, given, settings, strategies as st

from repro.media.image import _ZIGZAG, _decode_blocks, _encode_blocks
from repro.util.bitstream import BitWriter
from tests.media import reference_golomb as ref

INT32_MIN, INT32_MAX = -2**31, 2**31 - 1

levels = st.one_of(st.integers(-3, 3), st.integers(-300, 300),
                   st.integers(INT32_MIN, INT32_MAX))
#: a block as {zigzag position: level}; few entries, so long zero runs
#: (and the run-of-63 split) come up often
block = st.dictionaries(st.integers(0, 63), levels, max_size=12)


def as_array(blocks):
    out = np.zeros((len(blocks), 64), dtype=np.int32)
    for b, coded in enumerate(blocks):
        for pos, level in coded.items():
            out[b, _ZIGZAG[pos]] = level
    return out


@settings(max_examples=300, deadline=None)
@given(st.lists(block, min_size=1, max_size=6))
@example([{}])
@example([{63: 1}])                               # run 63: one split
@example([{63: INT32_MIN}, {0: INT32_MAX}])       # widest levels
@example([{0: 5}, {}, {63: -1, 62: 2}, {40: 0}])  # empty and zero-level blocks
def test_encoder_matches_reference_and_round_trips(blocks):
    quantised = as_array(blocks)
    w = BitWriter()
    _encode_blocks(quantised, w)
    data = w.getvalue()
    assert data == ref.encode_blocks(quantised.tolist())
    assert len(w) <= 8 * len(data) < len(w) + 8
    assert np.array_equal(_decode_blocks(data, len(blocks)), quantised)
    assert ref.decode_blocks(data, len(blocks)) == quantised.tolist()


def test_reference_zigzag_is_the_codecs():
    assert tuple(_ZIGZAG.tolist()) == ref.ZIGZAG
