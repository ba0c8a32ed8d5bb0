"""Property-based tests: the codec layers never corrupt silently.

Two invariants, driven by hypothesis:

* ``wire.py``: ``load_value(dump_value(v)) == v`` for every encodable
  value, and truncating or bit-flipping an encoding raises
  ``DecodingError`` or decodes to a *different* value — it never
  round-trips to the original by accident without an error.
* ``aal5.py``: a PDU segmented into cells and reassembled intact
  yields the original payload; any random pattern of cell loss or
  reordering either still yields the exact payload (nothing lost from
  *this* frame) or is counted as corrupted — the receiver never hands
  up altered bytes.
"""

import math

from hypothesis import example, given, settings, strategies as st

from repro.atm.aal5 import Aal5Receiver, segment_pdu
from repro.transport.wire import dump_value, load_value
from repro.util.errors import DecodingError

# -- strategies -----------------------------------------------------------

# floats must survive equality comparison after a round trip: NaN is
# excluded (NaN != NaN); signed zero and infinities round-trip fine
_scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-(2 ** 128), max_value=2 ** 128),
    st.floats(allow_nan=False),
    st.binary(max_size=200),
    st.text(max_size=100),
)

# tuples are deliberately excluded: the wire format encodes them as
# lists, so they do not round-trip to the same python type
_values = st.recursive(
    _scalars,
    lambda children: st.one_of(
        st.lists(children, max_size=5),
        st.dictionaries(st.text(max_size=20), children, max_size=5)),
    max_leaves=25)


def _eq_allowing_nan(a, b):
    """Structural equality that treats NaN as equal to itself — a
    bitflip can turn an encoded inf/float into NaN (possibly nested in
    a container), and ``nan != nan`` would wrongly fail the re-encode
    round-trip check."""
    if isinstance(a, float) and isinstance(b, float):
        return (math.isnan(a) and math.isnan(b)) or a == b
    if isinstance(a, list) and isinstance(b, list):
        return len(a) == len(b) and all(map(_eq_allowing_nan, a, b))
    if isinstance(a, dict) and isinstance(b, dict):
        return a.keys() == b.keys() and all(
            _eq_allowing_nan(v, b[k]) for k, v in a.items())
    return a == b


class TestWireRoundTrip:
    @given(value=_values)
    @settings(max_examples=150, deadline=None)
    def test_round_trip_is_identity(self, value):
        assert load_value(dump_value(value)) == value

    @given(value=_values, cut=st.integers(min_value=0, max_value=10))
    @settings(max_examples=100, deadline=None)
    def test_truncation_never_round_trips_silently(self, value, cut):
        encoded = dump_value(value)
        if cut == 0 or cut > len(encoded):
            return
        truncated = encoded[:-cut]
        try:
            decoded = load_value(truncated)
        except DecodingError:
            return  # structured error: the good outcome
        # decoding succeeded on a prefix: it must not silently equal
        # the original value (possible only if it differs)
        assert decoded != value

    @given(value=_values, pos=st.integers(min_value=0),
           bit=st.integers(min_value=0, max_value=7))
    @settings(max_examples=100, deadline=None)
    def test_bitflip_fails_structurally_or_decodes(self, value, pos, bit):
        """A corrupted encoding must either decode cleanly (to *some*
        value the codec can re-encode) or raise DecodingError — never
        leak a struct.error / UnicodeDecodeError / MemoryError from a
        hostile length field."""
        encoded = bytearray(dump_value(value))
        pos %= len(encoded)
        encoded[pos] ^= 1 << bit
        try:
            decoded = load_value(bytes(encoded))
        except DecodingError:
            return  # the structured outcome
        # decoded to a value: the codec must stand behind it
        assert _eq_allowing_nan(load_value(dump_value(decoded)), decoded)


def _reassemble(cells):
    """Feed *cells* to a receiver; return (delivered, corrupted)."""
    delivered = []
    rx = Aal5Receiver(lambda payload, last: delivered.append(payload))
    for cell in cells:
        rx.receive(cell)
    return delivered, rx.pdus_corrupted


class TestAal5UnderLossAndReorder:
    @given(payload=st.binary(min_size=0, max_size=2000))
    @settings(max_examples=100, deadline=None)
    def test_intact_cells_round_trip(self, payload):
        cells = segment_pdu(payload, vpi=1, vci=32)
        delivered, corrupted = _reassemble(cells)
        assert delivered == [payload]
        assert corrupted == 0

    @given(payload=st.binary(min_size=1, max_size=2000),
           data=st.data())
    @settings(max_examples=100, deadline=None)
    def test_cell_loss_is_detected_never_silent(self, payload, data):
        cells = segment_pdu(payload, vpi=1, vci=32)
        keep = data.draw(st.lists(st.booleans(), min_size=len(cells),
                                  max_size=len(cells)))
        survivors = [c for c, k in zip(cells, keep) if k]
        delivered, corrupted = _reassemble(survivors)
        if len(survivors) == len(cells):
            assert delivered == [payload] and corrupted == 0
        else:
            # something was lost: either nothing is delivered (the
            # frame died) or... nothing.  Corrupted bytes must never
            # surface as a delivered payload.
            assert delivered in ([], [payload])
            if delivered == [payload]:
                # only possible if the loss hit nothing load-bearing —
                # AAL5 has no such bytes, so loss always shows up
                assert False, "cell loss went undetected"
            if survivors and survivors[-1].header.is_last_of_frame:
                assert corrupted == 1

    @given(payload=st.binary(min_size=1, max_size=2000),
           seed=st.integers(min_value=0, max_value=2 ** 16))
    @settings(max_examples=100, deadline=None)
    def test_reordering_is_detected_never_silent(self, payload, seed):
        import random as _random
        cells = segment_pdu(payload, vpi=1, vci=32)
        shuffled = list(cells)
        _random.Random(seed).shuffle(shuffled)
        delivered, corrupted = _reassemble(shuffled)
        if shuffled == cells:
            assert delivered == [payload]
        else:
            # a reordered frame may still pass the CRC only when the
            # reorder is an identity on payload bytes AND keeps the
            # last-of-frame cell last; any delivered payload must be
            # byte-identical to the original, never a scramble
            for got in delivered:
                assert got == payload

    @given(payloads=st.lists(st.binary(min_size=1, max_size=500),
                             min_size=2, max_size=4),
           drop_index=st.integers(min_value=0))
    @settings(max_examples=50, deadline=None)
    def test_loss_in_one_frame_does_not_poison_the_next(
            self, payloads, drop_index):
        all_cells = []
        frames = [segment_pdu(p, vpi=1, vci=32) for p in payloads]
        # drop the *last* cell of one frame that has a successor: the
        # classic poison case, where the next frame's cells splice onto
        # the orphan (a dropped last frame has nothing to splice onto;
        # see the test below)
        victim = drop_index % (len(frames) - 1)
        for i, cells in enumerate(frames):
            all_cells.extend(cells[:-1] if i == victim else cells)
        delivered, corrupted = _reassemble(all_cells)
        # every *delivered* payload is byte-identical to an original
        for got in delivered:
            assert got in payloads
        if len(frames[victim]) > 1:
            # orphan cells splice onto the next frame: that merged
            # frame must die detected, not deliver a hybrid
            assert corrupted >= 1
            assert payloads[victim] not in delivered \
                or payloads.count(payloads[victim]) > 1
        else:
            # a single-cell frame vanishes wholesale: nothing is left
            # behind to poison the following frames
            assert corrupted == 0
            assert len(delivered) == len(payloads) - 1

    @given(payloads=st.lists(st.binary(min_size=1, max_size=500),
                             min_size=1, max_size=4),
           drop_index=st.integers(min_value=0))
    @example(payloads=[b"\x00", bytes(41)], drop_index=1)
    @settings(max_examples=50, deadline=None)
    def test_loss_in_the_last_frame_delivers_no_hybrid(
            self, payloads, drop_index):
        frames = [segment_pdu(p, vpi=1, vci=32) for p in payloads]
        # lose one cell of the last frame; drop_index picks which, and
        # losing its last cell leaves orphans with no next frame
        last = list(frames[-1])
        del last[drop_index % len(last)]
        all_cells = [c for cells in frames[:-1] for c in cells] + last
        delivered, _ = _reassemble(all_cells)
        for got in delivered:
            assert got in payloads
        # the earlier frames all arrive, and the damaged one never does
        assert delivered == payloads[:-1]
