"""Unit tests for the recursive bitmap compressor shared by RZE/RAZE/RARE."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.errors import CorruptDataError
from repro.stages._bitmap import (
    _check_bitmap_pad,
    compress_bitmap,
    decompress_bitmap,
    forward_fill,
)
from repro.stages._frame import Reader


def roundtrip(bits: np.ndarray, max_levels: int = 3) -> np.ndarray:
    payload = compress_bitmap(bits, max_levels)
    return decompress_bitmap(Reader(payload), len(bits)), payload


class TestBitmapCompression:
    @pytest.mark.parametrize("n", [0, 1, 7, 8, 63, 64, 1000, 16384, 40_000])
    def test_roundtrip_random(self, n, rng):
        bits = rng.random(n) < 0.3
        back, _ = roundtrip(bits)
        assert np.array_equal(back, bits)

    def test_all_zero_bitmap_is_tiny(self):
        bits = np.zeros(16384, dtype=bool)
        back, payload = roundtrip(bits)
        assert np.array_equal(back, bits)
        # 16384 bits -> 2048 -> 256 -> 32 bits: final level is 4 bytes.
        assert len(payload) < 32

    def test_all_one_bitmap_is_tiny(self):
        bits = np.ones(16384, dtype=bool)
        back, payload = roundtrip(bits)
        assert np.array_equal(back, bits)
        assert len(payload) < 32

    def test_front_zero_back_one_pattern(self):
        # The shape the paper says RZE bitmaps typically have.
        bits = np.concatenate([np.zeros(12000, dtype=bool), np.ones(4384, dtype=bool)])
        back, payload = roundtrip(bits)
        assert np.array_equal(back, bits)
        assert len(payload) < 40

    def test_recursion_depth_matches_paper(self):
        # 16384-bit bitmap: 3 levels reduce the stored bitmap to 32 bits.
        bits = np.zeros(16384, dtype=bool)
        payload = compress_bitmap(bits)
        levels = payload[0]
        assert levels == 3

    def test_incompressible_bitmap_still_roundtrips(self, rng):
        bits = rng.random(16384) < 0.5
        back, _ = roundtrip(bits)
        assert np.array_equal(back, bits)

    def test_zero_levels(self, rng):
        bits = rng.random(100) < 0.5
        back, _ = roundtrip(bits, max_levels=0)
        assert np.array_equal(back, bits)


class TestPadValidation:
    """Set padding bits in any packed level are corruption, not noise."""

    def test_final_level_pad_bit_rejected(self, rng):
        # 100 bits, no recursion: 13 packed bytes, 4 pad bits at the end.
        bits = rng.random(100) < 0.5
        payload = bytearray(compress_bitmap(bits, max_levels=0))
        payload[-1] |= 0x01
        with pytest.raises(CorruptDataError):
            decompress_bitmap(Reader(bytes(payload)), 100)

    def test_recursed_level_pad_bit_rejected(self):
        # 1000 zero bits, one level: the stored innermost bitmap is the
        # 16-byte mask level (125 used bits, 3 pad bits), at bytes 1..16
        # right after the level-count byte.
        bits = np.zeros(1000, dtype=bool)
        payload = compress_bitmap(bits, max_levels=1)
        assert payload[0] == 1
        damaged = bytearray(payload)
        damaged[16] |= 0x01  # final byte of the stored mask level
        with pytest.raises(CorruptDataError):
            decompress_bitmap(Reader(bytes(damaged)), 1000)

    def test_byte_aligned_bitmap_has_no_pad(self, rng):
        bits = rng.random(128) < 0.5
        back, _ = roundtrip(bits, max_levels=0)
        assert np.array_equal(back, bits)


def _reference_forward_fill(mask: np.ndarray, kept: np.ndarray) -> np.ndarray:
    """The boolean-mask forward fill that :func:`forward_fill` replaced,
    kept as its oracle."""
    counts = np.cumsum(mask)
    if counts.size and counts[-1] != len(kept):
        raise CorruptDataError("bitmap level kept-byte count mismatch")
    out = np.zeros(len(mask), dtype=kept.dtype)
    has_prior = counts > 0
    out[has_prior] = kept[counts[has_prior] - 1]
    return out


def _reference_decompress_bitmap(reader: Reader, bit_count: int) -> np.ndarray:
    """:func:`decompress_bitmap` as it was before the cumsum-and-take fill
    and ``unpackbits(count=)``: slices after a full unpack."""
    levels = reader.u8()
    if levels > 8:
        raise CorruptDataError(f"implausible bitmap recursion depth {levels}")
    sizes = [(bit_count + 7) // 8]
    for _ in range(levels):
        sizes.append((sizes[-1] + 7) // 8)
    level = np.frombuffer(reader.raw(sizes[-1]), dtype=np.uint8)
    for depth in range(levels - 1, -1, -1):
        n_kept = reader.u32()
        kept = np.frombuffer(reader.raw(n_kept), dtype=np.uint8)
        _check_bitmap_pad(level, sizes[depth])
        mask = np.unpackbits(level)[: sizes[depth]].view(np.bool_)
        level = _reference_forward_fill(mask, kept)
    _check_bitmap_pad(level, bit_count)
    return np.unpackbits(level)[:bit_count].view(np.bool_)


def _layout(payload: bytes, bit_count: int) -> tuple[int, int, list[int]]:
    """``(levels, final level size, offset of each kept count)`` of a
    :func:`compress_bitmap` payload, innermost level first."""
    levels = payload[0]
    size = (bit_count + 7) // 8
    for _ in range(levels):
        size = (size + 7) // 8
    pos, counts = 1 + size, []
    for _ in range(levels):
        counts.append(pos)
        pos += 4 + int.from_bytes(payload[pos : pos + 4], "little")
    assert pos == len(payload)
    return levels, size, counts


def _decode_both(payload: bytes, bit_count: int):
    """Both implementations' result, or the exception type each raised."""
    results = []
    for decode in (decompress_bitmap, _reference_decompress_bitmap):
        try:
            results.append(decode(Reader(payload), bit_count))
        except Exception as exc:  # the type is the verdict
            results.append(type(exc))
    return results


@st.composite
def _bitmaps(draw):
    """0-40,000 bits: uniform noise of any density, or runs of one value
    (the mostly-0-then-mostly-1 shape the levels are built for)."""
    n = draw(st.integers(0, 40_000))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        bits = rng.random(n) < draw(st.sampled_from([0.0, 0.001, 0.3, 0.5, 0.999, 1.0]))
    else:
        flips = rng.random(n) < draw(st.sampled_from([0.0005, 0.01, 0.1]))
        bits = (np.cumsum(flips) & 1).astype(bool)
    return bits, draw(st.integers(0, 3))


class TestReferenceParity:
    """The cumsum-and-take decode agrees with the boolean-mask one on
    every bitmap, and both reject every corruption kind."""

    @settings(max_examples=150, deadline=None)
    @given(case=_bitmaps())
    def test_same_bits(self, case):
        bits, max_levels = case
        payload = compress_bitmap(bits, max_levels)
        new, old = _decode_both(payload, len(bits))
        assert np.array_equal(new, old) and np.array_equal(new, bits)

    @settings(max_examples=100, deadline=None)
    @given(n=st.integers(0, 5_000), p=st.sampled_from([0.0, 0.01, 0.5, 1.0]),
           dtype=st.sampled_from(["<u1", "<u4", "<u8"]), seed=st.integers(0, 2**32 - 1))
    def test_fill_of_any_word_size(self, n, p, dtype, seed):
        # RARE fills its 32/64-bit top pieces with the same routine.
        rng = np.random.default_rng(seed)
        mask = rng.random(n) < p
        kept = rng.integers(0, np.iinfo(dtype).max, int(mask.sum()), dtype=dtype,
                            endpoint=True)
        got = forward_fill(mask, kept)
        assert got.dtype == kept.dtype
        assert np.array_equal(got, _reference_forward_fill(mask, kept))

    @settings(max_examples=150, deadline=None)
    @given(case=_bitmaps(), delta=st.sampled_from([-1, 1]), data=st.data())
    def test_kept_count_off_by_one(self, case, delta, data):
        bits, max_levels = case
        payload = compress_bitmap(bits, max_levels)
        _, _, counts = _layout(payload, len(bits))
        assume(counts)
        at = data.draw(st.sampled_from(counts))
        n_kept = int.from_bytes(payload[at : at + 4], "little") + delta
        assume(n_kept >= 0)
        damaged = payload[:at] + n_kept.to_bytes(4, "little") + payload[at + 4 :]
        assert _decode_both(damaged, len(bits)) == [CorruptDataError] * 2

    @settings(max_examples=150, deadline=None)
    @given(case=_bitmaps())
    def test_set_pad_bit(self, case):
        bits, max_levels = case
        payload = compress_bitmap(bits, max_levels)
        levels, size, _ = _layout(payload, len(bits))
        used = len(bits)
        for _ in range(levels):
            used = (used + 7) // 8
        assume(size * 8 > used)  # the stored level has padding bits
        damaged = bytearray(payload)
        damaged[size] |= 0x01  # the lowest padding bit of its last byte
        assert _decode_both(bytes(damaged), len(bits)) == [CorruptDataError] * 2

    @settings(max_examples=150, deadline=None)
    @given(case=_bitmaps(), data=st.data())
    def test_truncated_level(self, case, data):
        bits, max_levels = case
        payload = compress_bitmap(bits, max_levels)
        assume(len(payload) > 1)
        cut = data.draw(st.integers(1, len(payload) - 1))
        assert _decode_both(payload[:cut], len(bits)) == [CorruptDataError] * 2
