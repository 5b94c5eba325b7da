"""Unit tests for the FCM global stage."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import CorruptDataError
from repro.stages import FCMStage
from repro.stages.fcm import _context_hash


def split_arrays(stage: FCMStage, data: bytes) -> tuple[np.ndarray, np.ndarray]:
    """Decode an FCM payload's two scalar arrays for white-box assertions."""
    values, distances, tail = FCMStage.split_payload(stage.encode(data))
    assert tail == data[len(values) * 8 :]
    return values, distances


class TestFCM:
    def test_roundtrip_random(self, rng):
        words = rng.integers(0, 1 << 63, size=5000, dtype=np.uint64)
        stage = FCMStage()
        assert stage.decode(stage.encode(words.tobytes())) == words.tobytes()

    def test_roundtrip_with_tail(self, rng):
        data = rng.integers(0, 256, size=8005, dtype=np.uint8).tobytes()
        stage = FCMStage()
        assert stage.decode(stage.encode(data)) == data

    def test_output_doubles_the_data(self, rng):
        words = rng.integers(0, 1 << 63, size=1000, dtype=np.uint64)
        encoded = FCMStage().encode(words.tobytes())
        assert len(encoded) == 2 * len(words.tobytes()) + 9  # 9-byte trailer

    def test_arrays_stay_word_aligned(self, rng):
        # The downstream DIFFMS stage reads the payload as 64-bit words;
        # a misaligned frame would silently wreck its effectiveness.
        words = rng.integers(0, 1 << 63, size=64, dtype=np.uint64)
        encoded = FCMStage().encode(words.tobytes())
        values = np.frombuffer(encoded, dtype="<u8", count=64)
        assert np.array_equal(values, FCMStage.split_payload(encoded)[0])

    def test_repeating_pattern_matches(self, rng):
        # A periodic signal repeats both values and contexts, so most
        # positions after the first period must become matches.
        period = rng.integers(0, 1 << 60, size=64, dtype=np.uint64)
        words = np.tile(period, 50)
        values, distances = split_arrays(FCMStage(), words.tobytes())
        match_fraction = float((distances > 0).mean())
        assert match_fraction > 0.9
        assert np.all(values[distances > 0] == 0)

    def test_matches_point_at_equal_values(self):
        period = np.arange(16, dtype=np.uint64) + 100
        words = np.tile(period, 20)
        values, distances = split_arrays(FCMStage(), words.tobytes())
        idx = np.nonzero(distances > 0)[0]
        sources = idx - distances[idx].astype(np.int64)
        assert np.all(sources >= 0)
        assert np.array_equal(words[idx], words[sources])

    def test_unique_values_yield_no_matches(self, rng):
        words = np.arange(1000, dtype=np.uint64) * np.uint64(0x10000000001)
        values, distances = split_arrays(FCMStage(), words.tobytes())
        assert np.all(distances == 0)
        assert np.array_equal(values, words)

    def test_constant_input_chains_decode(self):
        # All-equal values create long match chains; pointer doubling must
        # resolve them without quadratic blowup.
        words = np.full(20000, 0x3FF0000000000000, dtype=np.uint64)
        stage = FCMStage()
        assert stage.decode(stage.encode(words.tobytes())) == words.tobytes()

    def test_zero_values_are_unambiguous(self):
        # A literal 0.0 double stores 0 in the value array with distance 0;
        # the decoder must reproduce it.
        words = np.array([0, 0, 5, 0, 5], dtype=np.uint64)
        stage = FCMStage()
        assert stage.decode(stage.encode(words.tobytes())) == words.tobytes()

    def test_empty(self):
        stage = FCMStage()
        assert stage.decode(stage.encode(b"")) == b""

    def test_corrupt_forward_distance_rejected(self):
        stage = FCMStage()
        words = np.arange(10, dtype=np.uint64)
        encoded = bytearray(stage.encode(words.tobytes()))
        # Distance array starts right after the 80-byte value array;
        # point element 0 forward (beyond its own index).
        encoded[80] = 200
        with pytest.raises(CorruptDataError):
            stage.decode(bytes(encoded))

    def test_truncated_payload_rejected(self):
        stage = FCMStage()
        encoded = stage.encode(np.arange(10, dtype=np.uint64).tobytes())
        with pytest.raises(CorruptDataError):
            stage.decode(encoded[:-1])

    def test_match_window_validation(self):
        with pytest.raises(ValueError):
            FCMStage(match_window=0)


def _reference_find_matches(
    words: np.ndarray, match_window: int, hash_fn
) -> tuple[np.ndarray, np.ndarray]:
    """The original finder: a stable argsort of the context hashes.

    Kept as the oracle the packed-key value sort must reproduce exactly.
    """
    n = len(words)
    values = words.copy()
    distances = np.zeros(n, dtype=np.uint64)
    if n == 0:
        return values, distances
    hashes = hash_fn(words)
    order = np.argsort(hashes, kind="stable")  # ties keep index order
    sorted_hashes = hashes[order]
    sorted_words = words[order]
    matched = np.zeros(n, dtype=bool)
    match_source = np.zeros(n, dtype=np.int64)
    for offset in range(1, match_window + 1):
        same = (sorted_hashes[offset:] == sorted_hashes[:-offset]) & (
            sorted_words[offset:] == sorted_words[:-offset]
        )
        fresh = same & ~matched[offset:]
        matched[offset:] |= fresh
        idx = np.nonzero(fresh)[0] + offset
        match_source[idx] = order[idx - offset]
    matched_positions = order[matched]
    sources = match_source[matched]
    values[matched_positions] = 0
    distances[matched_positions] = (matched_positions - sources).astype(np.uint64)
    return values, distances


def _prior(words: np.ndarray, lag: int) -> np.ndarray:
    out = np.zeros(len(words), dtype=np.uint64)
    out[lag:] = words[: len(words) - lag]
    return out


#: Hash functions chosen to stress the packed-key sort's fix-up path.
ADVERSARIAL_HASHES = {
    "context": _context_hash,
    # One group holding every position: pure index order.
    "all-equal": lambda w: np.zeros(len(w), dtype=np.uint64),
    # Distinct hashes below any packing shift: one group, many descents.
    "low-bits-only": lambda w: _prior(w, 1) % np.uint64(4),
    # Many high-bit groups, each mixing several low-bit hashes.
    "high-collisions": lambda w: (_prior(w, 1) % np.uint64(7)) << np.uint64(40)
    | (_prior(w, 2) % np.uint64(3)),
    # Top bit set, so the packed key's high part is near overflow.
    "top-bit": lambda w: (_prior(w, 1) % np.uint64(5))
    | np.uint64(1 << 63),
}


def _assert_same_as_reference(words, match_window, hash_fn):
    stage = FCMStage(match_window=match_window, hash_fn=hash_fn)
    encoded = stage.encode(words.tobytes())
    values, distances, _ = FCMStage.split_payload(encoded)
    ref_values, ref_distances = _reference_find_matches(words, match_window, hash_fn)
    assert np.array_equal(values, ref_values)
    assert np.array_equal(distances, ref_distances)
    assert stage.decode(encoded) == words.tobytes()


SIZES = sorted({1, 2, 3} | {(1 << k) + d for k in (4, 8, 11) for d in (-1, 0, 1)})


class TestPackedSortMatchesStableArgsort:
    """The packed-key finder against the stable-argsort reference."""

    @pytest.mark.parametrize("hash_name", sorted(ADVERSARIAL_HASHES))
    @pytest.mark.parametrize("n", SIZES)
    def test_sizes_windows_and_hashes(self, n, hash_name):
        rng = np.random.default_rng(n)
        # A small alphabet, so values and contexts repeat often.
        words = rng.integers(0, 6, size=n).astype(np.uint64)
        for match_window in range(1, 9):
            _assert_same_as_reference(
                words, match_window, ADVERSARIAL_HASHES[hash_name]
            )

    @given(
        st.lists(
            st.one_of(
                st.integers(min_value=0, max_value=3),
                st.integers(min_value=0, max_value=(1 << 64) - 1),
            ),
            max_size=300,
        ),
        st.integers(min_value=1, max_value=8),
        st.sampled_from(sorted(ADVERSARIAL_HASHES)),
    )
    @settings(max_examples=80, deadline=None)
    def test_drawn_words(self, xs, match_window, hash_name):
        words = np.array(xs, dtype=np.uint64)
        _assert_same_as_reference(words, match_window, ADVERSARIAL_HASHES[hash_name])

    @given(
        st.lists(st.integers(min_value=0, max_value=(1 << 64) - 1), max_size=300),
        st.integers(min_value=1, max_value=8),
        st.data(),
    )
    @settings(max_examples=60, deadline=None)
    def test_drawn_hashes(self, xs, match_window, data):
        words = np.array(xs, dtype=np.uint64) % np.uint64(3)
        # Few distinct hash values spread over the whole 64-bit range,
        # so groups collide in their high bits or not at random.
        palette = data.draw(
            st.lists(st.integers(min_value=0, max_value=(1 << 64) - 1),
                     min_size=1, max_size=6)
        )
        picks = data.draw(
            st.lists(st.integers(min_value=0, max_value=len(palette) - 1),
                     min_size=len(words), max_size=len(words))
        )
        hashes = np.array([palette[i] for i in picks], dtype=np.uint64)
        _assert_same_as_reference(words, match_window, lambda _w: hashes)
