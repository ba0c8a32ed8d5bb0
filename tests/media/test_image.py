"""Tests for the JPEG-like image codec."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis import HealthCheck

from repro.media.image import ImageCodec, quant_table
from repro.util.errors import DecodingError, EncodingError


def psnr(original: np.ndarray, reconstructed: np.ndarray) -> float:
    """Peak signal-to-noise ratio in dB (infinite for identical images)."""
    if original.shape != reconstructed.shape:
        raise ValueError("shape mismatch")
    mse = np.mean((original.astype(np.float64)
                   - reconstructed.astype(np.float64)) ** 2)
    if mse == 0:
        return float("inf")
    return 10.0 * np.log10(255.0 ** 2 / mse)


def smooth_image(shape, seed=0):
    """Smooth random field: compressible, like natural image content."""
    rng = np.random.default_rng(seed)
    base = rng.normal(0, 1, shape)
    img = np.cumsum(np.cumsum(base, axis=0), axis=1)
    img = (img - img.min()) / max(np.ptp(img), 1e-9) * 255
    return img.astype(np.uint8)


class TestQuantTable:
    def test_quality_bounds(self):
        with pytest.raises(EncodingError):
            quant_table(0)
        with pytest.raises(EncodingError):
            quant_table(101)

    def test_higher_quality_finer_steps(self):
        assert quant_table(90).sum() < quant_table(30).sum()

    def test_values_in_byte_range(self):
        for q in (1, 50, 100):
            table = quant_table(q)
            assert table.min() >= 1 and table.max() <= 255


class TestImageCodec:
    def test_roundtrip_shape_and_dtype(self):
        img = smooth_image((64, 64))
        out = ImageCodec().decode(ImageCodec().encode(img))
        assert out.shape == img.shape and out.dtype == np.uint8

    def test_non_multiple_of_8_dimensions(self):
        img = smooth_image((50, 37))
        out = ImageCodec().decode(ImageCodec(quality=90).encode(img))
        assert out.shape == (50, 37)

    def test_high_quality_high_fidelity(self):
        img = smooth_image((64, 64))
        out = ImageCodec(quality=95).decode(ImageCodec(quality=95).encode(img))
        assert psnr(img, out) > 35

    def test_quality_tradeoff(self):
        img = smooth_image((64, 64))
        hi = ImageCodec(quality=90).encode(img)
        lo = ImageCodec(quality=10).encode(img)
        assert len(lo) < len(hi)
        assert psnr(img, ImageCodec().decode(lo)) < psnr(img, ImageCodec().decode(hi))

    def test_compresses_smooth_content(self):
        img = smooth_image((128, 128))
        enc = ImageCodec(quality=75).encode(img)
        assert len(enc) < img.size / 4

    def test_flat_image_tiny(self):
        img = np.full((64, 64), 128, dtype=np.uint8)
        enc = ImageCodec().encode(img)
        out = ImageCodec().decode(enc)
        assert len(enc) < 200
        assert np.all(out == 128)

    def test_rejects_bad_inputs(self):
        codec = ImageCodec()
        with pytest.raises(EncodingError):
            codec.encode(np.zeros((4, 4, 3), dtype=np.uint8))
        with pytest.raises(EncodingError):
            codec.encode(np.zeros((4, 4), dtype=np.float64))
        with pytest.raises(EncodingError):
            codec.encode(np.zeros((0, 8), dtype=np.uint8))

    def test_rejects_alien_payload(self):
        with pytest.raises(DecodingError):
            ImageCodec().decode(b"JUNKJUNKJUNK")

    @given(seed=st.integers(0, 2**16), h=st.integers(8, 40), w=st.integers(8, 40),
           quality=st.integers(20, 95))
    @settings(max_examples=25, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_roundtrip_never_crashes_and_bounds_error(self, seed, h, w, quality):
        img = smooth_image((h, w), seed=seed)
        out = ImageCodec(quality=quality).decode(ImageCodec(quality=quality).encode(img))
        assert out.shape == img.shape
        # even at low quality the reconstruction stays in range and sane
        assert psnr(img, out) > 15


class TestPsnr:
    def test_identical_is_infinite(self):
        img = smooth_image((16, 16))
        assert psnr(img, img) == float("inf")

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            psnr(np.zeros((4, 4)), np.zeros((8, 8)))
