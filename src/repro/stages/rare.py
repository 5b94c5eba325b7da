"""RARE: Repeated Adaptive Repetition Elimination (fourth stage of DPratio).

Paper §3.2: identical mechanics to RAZE, except the predicate is not
"the top-``k`` bits are all zero" but "the top-``k`` bits equal those of
the *prior* value".  RAZE's output tends to contain runs of identical
most-significant bit patterns, which this stage removes.  The adaptive
``k`` comes from a histogram of leading-*common*-bit counts; the value
preceding a chunk is taken to be 0.
"""

from __future__ import annotations

import struct

import numpy as np

from repro.bitpack import (
    count_leading_zeros,
    leading_common_bits,
    pack_words,
    packed_size_bytes,
    unpack_words,
    words_from_bytes,
    words_to_bytes,
)
from repro.errors import CorruptDataError
from repro.stages import ByteLike
from repro.stages._adaptive import (
    SplitStage,
    choose_k,
    choose_k_rows,
    decode_split_rows,
    encode_split_rows,
    raw_rows,
    read_split_row,
)
from repro.stages._batch import bounds
from repro.stages._bitmap import compress_bitmap, decompress_bitmap, forward_fill
from repro.stages._frame import Reader, Writer


class RARE(SplitStage):
    """Adaptive top-``k`` repetition elimination at 32- or 64-bit grain."""

    name = "rare"

    def __init__(self, word_bits: int = 64) -> None:
        if word_bits not in (32, 64):
            raise ValueError("RARE operates at 32- or 64-bit granularity")
        self.word_bits = word_bits

    def encode(self, data: ByteLike) -> bytes:
        words, tail = words_from_bytes(data, self.word_bits)
        wb = self.word_bits
        common = leading_common_bits(words, wb)
        k = choose_k(common, len(words), wb)
        writer = Writer()
        writer.u32(len(words))
        writer.u8(len(tail))
        writer.raw(tail)
        writer.u8(k)
        if k == 0:
            writer.raw(words_to_bytes(words))
            return writer.getvalue()
        # The top piece must be stored when it differs from the prior one.
        kept_mask = common < k
        tops = (words >> (wb - k))[kept_mask]
        if k == wb:
            bottoms = np.zeros_like(words)
        else:
            bottoms = words & words.dtype.type((1 << (wb - k)) - 1)
        writer.u32(int(kept_mask.sum()))
        writer.raw(compress_bitmap(kept_mask))
        writer.raw(pack_words(tops, k, wb))
        writer.raw(pack_words(bottoms, wb - k, wb))
        return writer.getvalue()

    def decode(self, data: ByteLike) -> bytes:
        reader = Reader(data)
        n = reader.u32()
        tail = reader.raw(reader.u8())
        k = reader.u8()
        wb = self.word_bits
        if k > wb:
            raise CorruptDataError(f"RARE split {k} exceeds word size")
        dtype = np.dtype(f"<u{wb // 8}")
        if k == 0:
            words = np.frombuffer(reader.raw(n * dtype.itemsize), dtype=dtype)
            reader.expect_exhausted()
            return words_to_bytes(words, tail)
        n_kept = reader.u32()
        kept_mask = decompress_bitmap(reader, n)
        if np.count_nonzero(kept_mask) != n_kept:
            raise CorruptDataError("RARE bitmap population mismatch")
        tops = unpack_words(reader.raw(packed_size_bytes(n_kept, k)), n_kept, k, wb)
        bottoms = unpack_words(reader.raw(packed_size_bytes(n, wb - k)), n, wb - k, wb)
        reader.expect_exhausted()
        # An unkept top piece repeats the previous value's top piece; the
        # piece before the chunk is 0.
        words = (forward_fill(kept_mask, tops) << (wb - k)) | bottoms
        return words_to_bytes(words, tail)

    # -- batched execution ------------------------------------------------
    # Plan keys are the splits ``k``.

    def _plan_rows(self, words: np.ndarray, counts: np.ndarray):
        wb = self.word_bits
        # Leading bits shared with the prior value, which is 0 at each row start.
        change = np.empty_like(words)
        np.bitwise_xor(words[1:], words[:-1], out=change[1:])
        starts = bounds(counts)[:-1][counts > 0]
        change[starts] = words[starts]
        common = count_leading_zeros(change, wb)
        return choose_k_rows(common, counts, wb)[0], common

    def _encode_rows(self, keys, words, common, counts) -> list[tuple]:
        split = int(np.searchsorted(keys, 1))
        at = int(counts[:split].sum())
        out = [(b"\0", row) for row in raw_rows(words[:at], counts[:split])]
        ks = keys[split:]
        rows = encode_split_rows(words[at:], common[at:], counts[split:], ks, self.word_bits)
        return out + [(struct.pack("<B", k), *row) for k, row in zip(ks.tolist(), rows)]

    def _parse_body(self, buf, pos: int, n: int):
        wb = self.word_bits
        k = buf[pos]
        if k > wb:
            raise CorruptDataError(f"RARE split {k} exceeds word size")
        if k == 0:
            end = pos + 1 + n * wb // 8
            return 0, buf[pos + 1 : end], end
        return (k, *read_split_row(buf, pos + 1, n, k, wb))

    def _decode_rows(self, keys, pieces, counts) -> np.ndarray:
        split = int(np.searchsorted(keys, 1))
        at = int(counts[:split].sum())
        out = np.empty(int(counts.sum()), dtype=f"<u{self.word_bits // 8}")
        out[:at] = np.frombuffer(b"".join(pieces[:split]), dtype=out.dtype)
        decode_split_rows(pieces[split:], counts[split:], keys[split:], self.word_bits,
                          repeat=True, out=out[at:])
        return out
