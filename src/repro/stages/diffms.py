"""DIFFMS: modular difference coding + magnitude-sign conversion.

The first stage of SPspeed, SPratio, and DPspeed and the second stage of
DPratio (paper §3.1, Figure 2).  Each IEEE-754 word is treated as an
unsigned integer; the difference to the preceding word (modulo 2^w) turns
clustered exponents into values near zero, and the magnitude-sign
(zigzag) conversion folds negative differences into small positive words
with many leading zero bits.

The first word of each chunk is kept as-is (as if 0 preceded it), so
chunks stay independently decodable.  The transformation is length
preserving; trailing bytes that do not fill a word pass through.
"""

from __future__ import annotations

import numpy as np

from repro.bitpack import words_from_bytes, words_to_bytes, zigzag_decode, zigzag_encode
from repro.stages import ByteLike, Stage
from repro.stages._batch import length_groups, stack_rows


class DiffMS(Stage):
    """Difference coding with representation change, at 32- or 64-bit grain."""

    name = "diffms"

    def __init__(self, word_bits: int = 32) -> None:
        if word_bits not in (32, 64):
            raise ValueError("DIFFMS operates at 32- or 64-bit granularity")
        self.word_bits = word_bits

    def encode(self, data: ByteLike) -> bytes:
        words, tail = words_from_bytes(data, self.word_bits)
        prev = np.empty_like(words)
        if len(words):
            prev[0] = 0
            prev[1:] = words[:-1]
        diff = words - prev  # unsigned wraparound == difference mod 2^w
        return words_to_bytes(zigzag_encode(diff, self.word_bits), tail)

    def decode(self, data: ByteLike) -> bytes:
        coded, tail = words_from_bytes(data, self.word_bits)
        diff = zigzag_decode(coded, self.word_bits)
        # The running sum inverts difference coding; uint cumsum wraps mod 2^w.
        words = np.cumsum(diff, dtype=diff.dtype)
        return words_to_bytes(words, tail)

    # -- batched execution ------------------------------------------------

    def encode_batch(self, chunks: list) -> list[bytes]:
        out: list[bytes | None] = [None] * len(chunks)
        for length, indices in length_groups(chunks).items():
            if len(indices) < 2 or length == 0 or length % (self.word_bits // 8):
                for i in indices:
                    out[i] = self.encode(chunks[i])
                continue
            words = stack_rows(chunks, indices, length).view(
                np.dtype(f"<u{self.word_bits // 8}")
            )
            prev = np.empty_like(words)
            prev[:, 0] = 0
            prev[:, 1:] = words[:, :-1]
            coded = zigzag_encode(words - prev, self.word_bits)
            blob = coded.tobytes()
            for row, i in enumerate(indices):
                out[i] = blob[row * length : (row + 1) * length]
        return out

    def decode_batch(self, payloads: list) -> list[bytes]:
        out: list[bytes | None] = [None] * len(payloads)
        for length, indices in length_groups(payloads).items():
            if len(indices) < 2 or length == 0 or length % (self.word_bits // 8):
                for i in indices:
                    out[i] = self.decode(payloads[i])
                continue
            words = stack_rows(payloads, indices, length).view(
                np.dtype(f"<u{self.word_bits // 8}")
            )
            # Decode in place, about 64 K words at a time, so the
            # temporaries stay cache-sized instead of block-sized.
            one = words.dtype.type(1)
            step = max(1, (1 << 16) // words.shape[1])
            for lo in range(0, len(words), step):
                rows = words[lo : lo + step]
                sign = rows & one
                np.negative(sign, out=sign)  # -(ms & 1): all ones or zero
                np.right_shift(rows, one, out=rows)
                np.bitwise_xor(rows, sign, out=rows)
                np.cumsum(rows, axis=1, dtype=rows.dtype, out=rows)
            blob = words.tobytes()
            for row, i in enumerate(indices):
                out[i] = blob[row * length : (row + 1) * length]
        return out
