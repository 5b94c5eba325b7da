"""Tests for the public array-level API."""

from __future__ import annotations

import numpy as np
import pytest

import repro
from repro.errors import UnsupportedDtypeError


class TestCompressDecompress:
    def test_f32_default_is_ratio_codec(self, smooth_f32):
        blob = repro.compress(smooth_f32)
        assert repro.inspect(blob).codec_id == repro.get_codec("spratio").codec_id

    def test_f64_default_is_ratio_codec(self, smooth_f64):
        blob = repro.compress(smooth_f64)
        assert repro.inspect(blob).codec_id == repro.get_codec("dpratio").codec_id

    def test_mode_speed(self, smooth_f32):
        blob = repro.compress(smooth_f32, mode="speed")
        assert repro.inspect(blob).codec_id == repro.get_codec("spspeed").codec_id

    @pytest.mark.parametrize("codec", ["spspeed", "spratio"])
    def test_f32_roundtrip(self, codec, smooth_f32):
        back = repro.decompress(repro.compress(smooth_f32, codec))
        assert back.dtype == np.float32
        assert np.array_equal(back, smooth_f32)

    @pytest.mark.parametrize("codec", ["dpspeed", "dpratio"])
    def test_f64_roundtrip(self, codec, smooth_f64):
        back = repro.decompress(repro.compress(smooth_f64, codec))
        assert back.dtype == np.float64
        assert np.array_equal(back, smooth_f64)

    def test_shape_preserved(self, rng):
        field = rng.normal(size=(16, 8, 4)).astype(np.float32)
        back = repro.decompress(repro.compress(field))
        assert back.shape == (16, 8, 4)
        assert np.array_equal(back, field)

    def test_special_values_bit_exact(self, special_f32, special_f64):
        for arr in (special_f32, special_f64):
            back = repro.decompress(repro.compress(arr))
            # NaN != NaN, so compare bit patterns.
            assert back.tobytes() == arr.tobytes()

    def test_nan_payloads_preserved(self):
        # Two NaNs with different payloads must stay distinct.
        words = np.array([0x7FC00001, 0x7FC00002], dtype=np.uint32)
        arr = words.view(np.float32)
        back = repro.decompress(repro.compress(arr))
        assert back.view(np.uint32).tolist() == words.tolist()

    def test_bytes_input_needs_codec(self):
        with pytest.raises(UnsupportedDtypeError):
            repro.compress(b"12345678")

    def test_bytes_input_roundtrip(self):
        data = bytes(range(256)) * 64
        blob = repro.compress(data, "spspeed")
        assert repro.decompress(blob) == data

    def test_rejects_integer_arrays(self):
        with pytest.raises(UnsupportedDtypeError):
            repro.compress(np.arange(10))

    def test_noncontiguous_input(self, rng):
        base = rng.normal(size=(100, 2)).astype(np.float32)
        view = base[:, 0]
        back = repro.decompress(repro.compress(view))
        assert np.array_equal(back, view)

    def test_empty_array(self):
        arr = np.zeros(0, dtype=np.float32)
        back = repro.decompress(repro.compress(arr))
        assert back.size == 0 and back.dtype == np.float32


class TestInspect:
    def test_reports_ratio(self, smooth_f32):
        blob = repro.compress(smooth_f32)
        info = repro.inspect(blob)
        assert info.original_len == smooth_f32.nbytes
        assert info.ratio > 1.0

    def test_available_codecs(self):
        assert repro.available_codecs() == [
            "dpratio", "dpspeed", "spratio", "spspeed"
        ]


class TestCrossCodecSafety:
    def test_container_knows_its_codec(self, smooth_f32, smooth_f64):
        # A blob produced by one codec decodes with the right pipeline
        # even if the caller guessed wrong: the codec id is authoritative.
        blob = repro.compress(smooth_f32, "spspeed")
        back = repro.decompress(blob)
        assert np.array_equal(back, smooth_f32)
