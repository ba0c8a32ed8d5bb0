"""Tests for audio, MIDI, and text codecs."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.media.audio import (
    AudioCodec, MidiCodec, MidiEvent, mu_law_compress, mu_law_expand,
)
from repro.media.text import TextCodec, extract_links
from repro.util.errors import DecodingError, EncodingError


def tone(seconds=0.5, rate=8000, freq=440.0, amp=20000):
    t = np.arange(int(seconds * rate)) / rate
    return np.round(amp * np.sin(2 * np.pi * freq * t)).astype(np.int16)


class TestMuLaw:
    def test_roundtrip_snr(self):
        samples = tone()
        back = mu_law_expand(mu_law_compress(samples))
        noise = (samples.astype(float) - back.astype(float))
        snr = 10 * np.log10((samples.astype(float) ** 2).mean()
                            / max((noise ** 2).mean(), 1e-12))
        assert snr > 25  # G.711-ish quality

    def test_silence_stays_quiet(self):
        silence = np.zeros(100, dtype=np.int16)
        back = mu_law_expand(mu_law_compress(silence))
        assert np.abs(back).max() < 300

    def test_dtype_enforced(self):
        with pytest.raises(EncodingError):
            mu_law_compress(np.zeros(4, dtype=np.float64))
        with pytest.raises(DecodingError):
            mu_law_expand(np.zeros(4, dtype=np.int16))

    @given(st.integers(-32768, 32767))
    def test_monotone(self, x):
        """Companding preserves sign and approximate ordering."""
        a = mu_law_compress(np.array([x], dtype=np.int16))[0]
        b = mu_law_compress(np.array([min(32767, x + 2000)], dtype=np.int16))[0]
        assert b >= a


class TestAudioCodec:
    def test_ulaw_roundtrip_half_size(self):
        samples = tone(seconds=1.0)
        ulaw = AudioCodec(companding="ulaw").encode(samples)
        linear = AudioCodec(companding="linear").encode(samples)
        assert len(ulaw) < len(linear) * 0.55
        assert len(AudioCodec().decode(ulaw)) == len(samples)

    def test_linear_roundtrip_exact(self):
        samples = tone()
        back = AudioCodec(companding="linear").decode(
            AudioCodec(companding="linear").encode(samples))
        assert np.array_equal(back, samples)

    def test_bad_companding(self):
        with pytest.raises(EncodingError):
            AudioCodec(companding="alaw")

    def test_input_validation(self):
        with pytest.raises(EncodingError):
            AudioCodec().encode(np.zeros((2, 2), dtype=np.int16))

    def test_truncation_detected(self):
        data = AudioCodec().encode(tone())
        with pytest.raises(DecodingError):
            AudioCodec().decode(data[:-5])


class TestMidi:
    def test_roundtrip(self):
        events = [MidiEvent(0.0, 0.5, 60, 100), MidiEvent(0.5, 0.25, 64, 90)]
        back = MidiCodec().decode(MidiCodec().encode(events))
        assert back == events

    def test_events_sorted_on_encode(self):
        events = [MidiEvent(1.0, 0.5, 60, 100), MidiEvent(0.0, 0.5, 64, 90)]
        back = MidiCodec().decode(MidiCodec().encode(events))
        assert back[0].time == 0.0

    def test_validation(self):
        with pytest.raises(ValueError):
            MidiEvent(0.0, 0.5, 200, 100)
        with pytest.raises(ValueError):
            MidiEvent(0.0, 0.0, 60, 100)
        with pytest.raises(ValueError):
            MidiEvent(-1.0, 0.5, 60, 100)

    def test_render_produces_audio(self):
        events = [MidiEvent(0.0, 0.5, 69, 127)]  # A440
        pcm = MidiCodec.render(events, sample_rate=8000)
        assert len(pcm) >= 4000
        assert np.abs(pcm).max() > 10000

    def test_render_empty(self):
        assert len(MidiCodec.render([])) == 0

    def test_size_independent_of_duration(self):
        short = MidiCodec().encode([MidiEvent(0.0, 0.1, 60, 64)])
        long = MidiCodec().encode([MidiEvent(0.0, 3600.0, 60, 64)])
        assert len(short) == len(long)


class TestText:
    def test_roundtrip_unicode(self):
        text = "== Début ==\nvoilà [[atm-course|le cours ATM]] 中文"
        assert TextCodec().decode(TextCodec().encode(text)) == text

    def test_extract_links(self):
        text = "see [[a|first]] and [[b-c|second link]]"
        assert extract_links(text) == [("a", "first"), ("b-c", "second link")]

    def test_truncation_detected(self):
        data = TextCodec().encode("hello world")
        with pytest.raises(DecodingError):
            TextCodec().decode(data[:-2])
