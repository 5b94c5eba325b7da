"""FCM: the Finite Context Method transformation (first stage of DPratio).

Paper §3.2, Figure 6.  FPC-style hash-table prediction is untenable on a
GPU (two tables per thread), so the paper replaces it with a sort-based
equivalent: for every input word, form the pair ``(hash of the 3 prior
words, index)`` and sort the pairs.  Pairs with equal hashes — i.e. equal
recent contexts — become adjacent, with indices in increasing order.  A
pair *matches* when one of the 4 preceding pairs in sorted order has the
same hash **and** refers to the same word value.

The output is two scalar arrays in original input order, concatenated:

* the *value* array — the input word where no match was found, else 0;
* the *distance* array — 0 where no match, else the (positive) distance
  back to the matched occurrence.

Together they double the data volume but are far more compressible: half
the entries are zero and repeated doubles become small integer distances.

Unlike every other stage, FCM is global — it runs over the whole input
before chunking (paper §3: "Except for FCM, all stages ... operate on
chunks of 16 kilobytes").

Decoding follows match chains with pointer doubling — the parallel
union-find "find" the paper describes: each element either holds its
value or points ``distance`` positions back; repeatedly replacing every
pointer by its target's pointer resolves all chains in O(log n) sweeps.
"""

from __future__ import annotations

import numpy as np

from repro.bitpack import words_from_bytes, words_to_bytes
from repro.errors import CorruptDataError
from repro.stages import ByteLike, Stage

#: How many preceding sorted pairs are inspected for a match (paper: 4).
MATCH_WINDOW = 4

_MIX1 = np.uint64(0x9E3779B97F4A7C15)
_MIX2 = np.uint64(0xC2B2AE3D27D4EB4F)
_MIX3 = np.uint64(0x165667B19E3779F9)


def _context_hash(words: np.ndarray) -> np.ndarray:
    """64-bit hash of the three words preceding each position (0-padded)."""
    n = len(words)
    h = np.zeros(n, dtype=np.uint64)
    scratch = np.empty(n, dtype=np.uint64)
    # A missing prior word is 0 and contributes 0 * MIX = 0, so each term
    # is XOR-ed in only where its prior exists.
    np.multiply(words[:-1], _MIX1, out=h[1:])
    for lag, mix in ((2, _MIX2), (3, _MIX3)):
        np.multiply(words[:-lag], mix, out=scratch[lag:])
        h[lag:] ^= scratch[lag:]
    # Final avalanche so nearby contexts do not collide systematically.
    np.right_shift(h, np.uint64(29), out=scratch)
    h ^= scratch
    h *= _MIX1
    np.right_shift(h, np.uint64(32), out=scratch)
    h ^= scratch
    return h


def _stable_hash_order(hashes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(order, hashes[order])`` with ``order`` the stable argsort of ``hashes``.

    numpy's stable sort of 64-bit keys is a timsort; a plain value sort is
    many times faster.  So the index rides in the low ``b`` bits of one
    packed key, ``(hash >> b) << b | index``, and the keys get a value
    sort: equal high bits order by index, exactly as a stable sort orders
    equal hashes.  The packed order differs from the stable one only
    where distinct hashes share their high bits; such a group shows up as
    a descent in the gathered hashes and is re-sorted stably on its own.
    """
    n = len(hashes)
    b = np.uint64((n - 1).bit_length())
    key = hashes >> b
    key <<= b
    key |= np.arange(n, dtype=np.uint64)
    key.sort()
    key &= (np.uint64(1) << b) - np.uint64(1)
    order = key.view(np.int64)
    sorted_hashes = hashes[order]
    descents = np.flatnonzero(sorted_hashes[1:] < sorted_hashes[:-1])
    if len(descents):
        high = sorted_hashes >> b
        group = np.zeros(n, dtype=np.int64)
        np.cumsum(high[1:] != high[:-1], out=group[1:])
        sel = np.flatnonzero(np.isin(group, group[descents]))
        # Groups sit in ascending high-bit order, so one stable sort over
        # all affected positions keeps every group inside its own span.
        fix = np.argsort(sorted_hashes[sel], kind="stable")
        order[sel] = order[sel[fix]]
        sorted_hashes[sel] = sorted_hashes[sel[fix]]
    return order, sorted_hashes


def _resolve_chains(dist: np.ndarray, damaged: np.ndarray | None = None) -> np.ndarray:
    """Chain root of every position, by pointer doubling.

    ``dist`` holds in-range backward distances (0 = own root).  When
    ``damaged`` is given it is OR-ed along the chains in place, so a
    position ends up damaged if anything on its chain was.  Each sweep
    runs only over the positions whose parent is not yet a root: a
    position leaves once its parent is one, after taking the root's
    damage, so the work shrinks as the chains resolve.
    """
    parent = np.arange(len(dist), dtype=np.int64)
    parent -= dist
    live = np.flatnonzero(dist)
    while len(live):
        up = parent[live]
        if damaged is not None:
            damaged[live] |= damaged[up]
        upper = parent[up]
        parent[live] = upper
        live = live[upper != up]
    return parent


class FCMStage(Stage):
    """Sort-based repeated-value detection for double-precision words."""

    name = "fcm"
    word_bits = 64

    def __init__(self, match_window: int = MATCH_WINDOW, hash_fn=None) -> None:
        """``hash_fn`` maps the word array to per-position uint64 context
        hashes; injectable so the paper's Figure 6 worked example (which
        uses simplified hashes) can be tested verbatim."""
        if match_window < 1:
            raise ValueError("match window must be at least 1")
        self.match_window = match_window
        self.hash_fn = hash_fn or _context_hash

    def encode(self, data: ByteLike) -> bytes:
        # The frame metadata lives in a TRAILER, not a header: the output
        # feeds the chunked DIFFMS stage, and a leading header would shift
        # every 64-bit word off its natural alignment inside the chunks.
        words, tail = words_from_bytes(data, 64)
        n = len(words)
        trailer = tail + bytes([len(tail)]) + n.to_bytes(8, "little")
        out = np.empty(16 * n + len(trailer), dtype=np.uint8)
        # The match finder writes straight into the output buffer.
        self._find_matches(
            words, out[: 8 * n].view("<u8"), out[8 * n : 16 * n].view("<u8")
        )
        out[16 * n :] = np.frombuffer(trailer, dtype=np.uint8)
        return out.tobytes()

    @staticmethod
    def split_payload(payload: bytes) -> tuple[np.ndarray, np.ndarray, bytes]:
        """Parse an encoded payload into (values, distances, tail).

        Shared by the decoder and by white-box tests.
        """
        if len(payload) < 9:
            raise CorruptDataError("FCM payload shorter than its trailer")
        n = int.from_bytes(payload[-8:], "little")
        tail_len = payload[-9]
        expected = 16 * n + tail_len + 9
        if len(payload) != expected:
            raise CorruptDataError(
                f"FCM payload length {len(payload)} does not match trailer "
                f"(expected {expected})"
            )
        values = np.frombuffer(payload, dtype="<u8", count=n)
        distances = np.frombuffer(payload, dtype="<u8", count=n, offset=8 * n)
        tail = payload[16 * n : 16 * n + tail_len]
        return values, distances, tail

    def _find_matches(
        self, words: np.ndarray, values: np.ndarray, distances: np.ndarray
    ) -> None:
        """Fill ``values`` and ``distances`` (length ``len(words)``) in place."""
        values[:] = words
        distances[:] = 0
        n = len(words)
        if n < 2:
            return  # a match needs an earlier word
        order, sorted_hashes = _stable_hash_order(self.hash_fn(words))
        # Sorted positions that share their predecessor's hash: the only
        # places a match can occur.  Equal hashes are contiguous, so the
        # set shrinks as the offset grows, and a matched position leaves.
        cand = np.flatnonzero(sorted_hashes[1:] == sorted_hashes[:-1]) + 1
        for offset in range(1, self.match_window + 1):
            if offset > 1:
                cand = cand[np.searchsorted(cand, offset):]
                cand = cand[sorted_hashes[cand - offset] == sorted_hashes[cand]]
            if not len(cand):
                break
            pos = order[cand]
            src = order[cand - offset]
            hit = words[pos] == words[src]
            pos = pos[hit]
            values[pos] = 0
            distances[pos] = pos - src[hit]
            cand = cand[~hit]

    def decode(self, data: ByteLike) -> bytes:
        values, distances, tail = self.split_payload(data)
        n = len(values)
        if n == 0:
            return bytes(tail)
        # One unsigned compare bounds every distance: a value that would be
        # negative as int64 is above any index as uint64.
        if np.any(distances > np.arange(n, dtype=np.uint64)):
            raise CorruptDataError("FCM distance points before the start of the data")
        if not distances.any():
            # No matches recorded — every word is its own root, so the
            # pointer-doubling sweep would be an identity walk.
            words = values
        else:
            words = values[_resolve_chains(distances.view(np.int64))]
        return words_to_bytes(np.ascontiguousarray(words, dtype="<u8"), tail)

    def max_encoded_len(self, input_len: int) -> int:
        # encode emits 16*n + tail + 9 bytes for 8*n + tail input bytes,
        # so the output never exceeds twice the input plus the trailer.
        return 2 * input_len + 9

    def decode_salvage(
        self, data: ByteLike, damaged_ranges
    ) -> tuple[bytes, tuple[tuple[int, int], ...]]:
        """Damage-aware inverse: track corruption through the match chains.

        ``damaged_ranges`` marks zero-filled spans of the encoded payload.
        A word is untrustworthy when its value/distance entries overlap a
        damaged span *or* its match chain passes through such a word —
        damage only propagates forward (distances point backward), so
        everything whose chain avoids the zero-filled spans is recovered
        bit-exactly.  The damage mask rides the same pointer-doubling
        sweep the normal decode uses.
        """
        values, distances, tail = self.split_payload(data)
        n = len(values)
        mask = np.zeros(len(data), dtype=bool)
        for start, end in damaged_ranges:
            mask[max(0, int(start)) : max(0, int(end))] = True
        if mask[16 * n :].any():
            # Tail or trailer damaged: the framing itself cannot be
            # trusted even though it happened to parse.
            raise CorruptDataError("FCM tail/trailer overlaps a damaged range")
        if n == 0:
            return bytes(tail), ()
        damaged = (
            mask[: 8 * n].reshape(n, 8).any(axis=1)
            | mask[8 * n : 16 * n].reshape(n, 8).any(axis=1)
        )
        dist = distances.astype(np.int64)
        bad = (dist < 0) | (dist > np.arange(n))
        if bad.any():
            # Zero-filled entries decode as distance 0, so out-of-range
            # distances are undetected corruption: taint, don't abort.
            damaged |= bad
            dist = np.where(bad, 0, dist)
        words = values[_resolve_chains(dist, damaged)]
        out = words_to_bytes(np.ascontiguousarray(words, dtype="<u8"), tail)
        # Collapse consecutive damaged words into byte ranges.
        idx = np.nonzero(damaged)[0]
        ranges: list[tuple[int, int]] = []
        if len(idx):
            breaks = np.nonzero(np.diff(idx) > 1)[0]
            starts = np.concatenate(([0], breaks + 1))
            ends = np.concatenate((breaks, [len(idx) - 1]))
            ranges = [
                (int(idx[s]) * 8, (int(idx[e]) + 1) * 8)
                for s, e in zip(starts, ends)
            ]
        return out, tuple(ranges)
