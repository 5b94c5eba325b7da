"""RAZE: Repeated Adaptive Zero Elimination (third stage of DPratio).

Paper §3.2, Figure 7.  Double-precision values tend to carry random bits
in their least-significant positions, which plain RZE cannot compress.
RAZE therefore splits each word into a top-``k`` piece and a bottom
``w-k`` piece, applies zero elimination only to the top pieces, and
stores the bottoms verbatim.  The *adaptive* part — the key innovation —
picks the optimal split per chunk from a leading-zero histogram (see
:mod:`repro.stages._adaptive`); the chosen split is recorded in the
output so the decompressor needs no histogram.

The paper's prose leaves one detail open: whether the "RZE applied to
the top ``k`` bits" eliminates whole all-zero top *pieces* (one bitmap
bit per value) or zero *bytes* within the top pieces (one bitmap bit per
byte, like SPratio's RZE).  The two behave differently — per-value wins
on smooth data (cheaper bitmap), per-byte wins when zeros hide inside
pieces (e.g. quantised instrument data).  We implement both and let the
encoder pick the smaller per chunk, recording the mode in one byte:

* mode 0 — bit-granular ``k`` (0..w), per-value bitmap, tops packed at
  ``k`` bits;
* mode 1 — byte-granular split (``kb`` top bytes), per-byte bitmap over
  the top-byte stream, bottom bytes stored verbatim.

Both bitmaps are compressed with the repeated repeating-byte elimination
of :mod:`repro.stages._bitmap`.
"""

from __future__ import annotations

import struct

import numpy as np

from repro.bitpack import (
    count_leading_zeros,
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
    eliminated_counts,
    encode_split_rows,
    raw_rows,
    read_split_row,
)
from repro.stages._batch import bounds, row_sums, runs
from repro.stages._bitmap import (
    compress_bitmap,
    compress_bitmap_rows,
    decompress_bitmap,
    decompress_bitmap_rows,
    read_bitmap,
)
from repro.stages._frame import Reader, Writer

MODE_BIT_K = 0
MODE_BYTE_K = 1


class RAZE(SplitStage):
    """Adaptive top-``k`` zero elimination at 32- or 64-bit granularity."""

    name = "raze"

    def __init__(self, word_bits: int = 64) -> None:
        if word_bits not in (32, 64):
            raise ValueError("RAZE operates at 32- or 64-bit granularity")
        self.word_bits = word_bits

    # -- encoding ---------------------------------------------------------

    def encode(self, data: ByteLike) -> bytes:
        words, tail = words_from_bytes(data, self.word_bits)
        writer = Writer()
        writer.u32(len(words))
        writer.u8(len(tail))
        writer.raw(tail)
        if len(words) == 0:
            writer.u8(MODE_BIT_K)
            writer.u8(0)
            return writer.getvalue()
        bit_k, bit_cost = self._plan_bit_mode(words)
        byte_k, byte_cost = self._plan_byte_mode(words)
        if byte_cost < bit_cost:
            self._encode_byte_mode(words, byte_k, writer)
        else:
            self._encode_bit_mode(words, bit_k, writer)
        return writer.getvalue()

    def _plan_bit_mode(self, words: np.ndarray) -> tuple[int, float]:
        wb = self.word_bits
        n = len(words)
        leading = count_leading_zeros(words, wb)
        k = choose_k(leading, n, wb)
        if k == 0:
            return 0, float(n * wb)
        counts = eliminated_counts(leading, wb)
        cost_bits = n + (n - int(counts[k])) * k + n * (wb - k)
        return k, float(cost_bits)

    def _plan_byte_mode(self, words: np.ndarray) -> tuple[int, float]:
        word_bytes = self.word_bits // 8
        n = len(words)
        rows = self._byte_rows(words)
        zero_per_plane = (rows == 0).sum(axis=0)  # zeros at each byte position
        best_kb, best_cost = 0, float(n * self.word_bits)
        zeros = 0
        for kb in range(1, word_bytes + 1):
            zeros += int(zero_per_plane[kb - 1])
            top_bytes = n * kb
            # bitmap (1 bit/byte) + surviving top bytes + raw bottom bytes
            cost_bits = top_bytes + (top_bytes - zeros) * 8 + n * (self.word_bits - kb * 8)
            if cost_bits < best_cost:
                best_kb, best_cost = kb, float(cost_bits)
        return best_kb, best_cost

    def _byte_rows(self, words: np.ndarray) -> np.ndarray:
        """Big-endian (n, word_bytes) byte matrix: column 0 = most significant."""
        be = words.astype(words.dtype.newbyteorder(">"), copy=False)
        return be.view(np.uint8).reshape(len(words), self.word_bits // 8)

    def _encode_bit_mode(self, words: np.ndarray, k: int, writer: Writer) -> None:
        wb = self.word_bits
        writer.u8(MODE_BIT_K)
        writer.u8(k)
        if k == 0:
            writer.raw(words_to_bytes(words))
            return
        leading = count_leading_zeros(words, wb)
        kept_mask = leading < k
        tops = (words >> (wb - k))[kept_mask]
        if k == wb:
            bottoms = np.zeros_like(words)
        else:
            bottoms = words & words.dtype.type((1 << (wb - k)) - 1)
        writer.u32(int(kept_mask.sum()))
        writer.raw(compress_bitmap(kept_mask))
        writer.raw(pack_words(tops, k, wb))
        writer.raw(pack_words(bottoms, wb - k, wb))

    def _encode_byte_mode(self, words: np.ndarray, kb: int, writer: Writer) -> None:
        writer.u8(MODE_BYTE_K)
        writer.u8(kb)
        rows = self._byte_rows(words)
        top = rows[:, :kb].reshape(-1)
        bottom = rows[:, kb:].reshape(-1)
        mask = top != 0
        writer.u32(int(mask.sum()))
        writer.raw(compress_bitmap(mask))
        writer.raw(top[mask].tobytes())
        writer.raw(bottom.tobytes())

    # -- decoding ---------------------------------------------------------

    def decode(self, data: ByteLike) -> bytes:
        reader = Reader(data)
        n = reader.u32()
        tail = reader.raw(reader.u8())
        mode = reader.u8()
        if n == 0:
            if mode == MODE_BIT_K:
                reader.u8()
            reader.expect_exhausted()
            return bytes(tail)
        if mode == MODE_BIT_K:
            words = self._decode_bit_mode(reader, n)
        elif mode == MODE_BYTE_K:
            words = self._decode_byte_mode(reader, n)
        else:
            raise CorruptDataError(f"unknown RAZE mode {mode}")
        reader.expect_exhausted()
        return words_to_bytes(words, tail)

    def _decode_bit_mode(self, reader: Reader, n: int) -> np.ndarray:
        wb = self.word_bits
        k = reader.u8()
        if k > wb:
            raise CorruptDataError(f"RAZE split {k} exceeds word size")
        dtype = np.dtype(f"<u{wb // 8}")
        if k == 0:
            return np.frombuffer(reader.raw(n * dtype.itemsize), dtype=dtype)
        n_kept = reader.u32()
        kept_mask = decompress_bitmap(reader, n)
        if np.count_nonzero(kept_mask) != n_kept:
            raise CorruptDataError("RAZE bitmap population mismatch")
        tops = unpack_words(reader.raw(packed_size_bytes(n_kept, k)), n_kept, k, wb)
        bottoms = unpack_words(reader.raw(packed_size_bytes(n, wb - k)), n, wb - k, wb)
        tops_full = np.zeros(n, dtype=dtype)
        tops_full[kept_mask] = tops
        return (tops_full << (wb - k)) | bottoms

    def _decode_byte_mode(self, reader: Reader, n: int) -> np.ndarray:
        word_bytes = self.word_bits // 8
        kb = reader.u8()
        if not 1 <= kb <= word_bytes:
            raise CorruptDataError(f"RAZE byte split {kb} out of range")
        n_kept = reader.u32()
        mask = decompress_bitmap(reader, n * kb)
        if np.count_nonzero(mask) != n_kept:
            raise CorruptDataError("RAZE bitmap population mismatch")
        nonzero = np.frombuffer(reader.raw(n_kept), dtype=np.uint8)
        bottom = np.frombuffer(reader.raw(n * (word_bytes - kb)), dtype=np.uint8)
        top = np.zeros(n * kb, dtype=np.uint8)
        top[mask] = nonzero
        rows = np.empty((n, word_bytes), dtype=np.uint8)
        rows[:, :kb] = top.reshape(n, kb)
        rows[:, kb:] = bottom.reshape(n, word_bytes - kb)
        be = rows.reshape(-1).view(np.dtype(f">u{word_bytes}"))
        return be.astype(np.dtype(f"<u{word_bytes}"))

    # -- batched execution ------------------------------------------------
    # Plan keys: a bit-mode split is its ``k`` (0..w), a byte-mode split
    # of ``kb`` top bytes is ``w + kb``.

    def _plan_rows(self, words: np.ndarray, counts: np.ndarray):
        wb = self.word_bits
        leading = count_leading_zeros(words, wb)
        bit_k, bit_cost = choose_k_rows(leading, counts, wb)
        byte_k, byte_cost = self._plan_byte_rows(words, counts)
        return np.where(byte_cost < bit_cost, wb + byte_k, bit_k), leading

    def _plan_byte_rows(self, words: np.ndarray, counts: np.ndarray):
        """Per-row :meth:`_plan_byte_mode`: ``(kb, cost)`` arrays."""
        wb = self.word_bits
        n = counts[:, None]
        kbs = np.arange(1, wb // 8 + 1, dtype=np.int64)
        top_bytes = n * kbs
        zeros = np.cumsum(_zero_planes(words, counts), axis=1)
        costs = top_bytes + (top_bytes - zeros) * 8 + n * (wb - kbs * 8)
        best = np.argmin(costs, axis=1)
        cost = costs[np.arange(len(counts)), best]
        enabled = cost < counts * wb
        return np.where(enabled, best + 1, 0), np.where(enabled, cost, counts * wb)

    def _encode_rows(self, keys, words, leading, counts) -> list[tuple]:
        wb = self.word_bits
        split, byte = np.searchsorted(keys, [1, wb + 1]).tolist()
        at = bounds(counts)
        raw = struct.pack("<BB", MODE_BIT_K, 0)
        out = [(raw, row) for row in raw_rows(words[: at[split]], counts[:split])]
        ks = keys[split:byte]
        rows = encode_split_rows(words[at[split] : at[byte]], leading[at[split] : at[byte]],
                                 counts[split:byte], ks, wb)
        out += [(struct.pack("<BB", MODE_BIT_K, k), *row) for k, row in zip(ks.tolist(), rows)]
        return out + self._encode_byte_rows(words[at[byte] :], counts[byte:], keys[byte:] - wb)

    def _encode_byte_rows(self, words, counts, kbs) -> list[tuple]:
        """Byte-granular split of ragged rows, row ``r`` at ``kbs[r]`` top bytes."""
        if not len(counts):
            return []
        word_bytes = self.word_bits // 8
        be = words.astype(words.dtype.newbyteorder(">")).view(np.uint8)
        be = be.reshape(len(words), word_bytes)
        at = bounds(counts).tolist()
        top = np.concatenate([be[at[lo] : at[hi], :kb].reshape(-1) for kb, lo, hi in runs(kbs)])
        bottom = memoryview(b"".join(be[at[lo] : at[hi], kb:].tobytes() for kb, lo, hi in runs(kbs)))
        mask = top != 0
        kept_counts = row_sums(mask, counts * kbs)
        bitmaps = compress_bitmap_rows(mask, counts * kbs)
        nonzero = memoryview(top[mask])
        kept_at = bounds(kept_counts).tolist()
        bottom_at = bounds(counts * (word_bytes - kbs)).tolist()
        return [
            (struct.pack("<BBI", MODE_BYTE_K, kb, kept_at[r + 1] - kept_at[r]), bitmaps[r],
             nonzero[kept_at[r] : kept_at[r + 1]], bottom[bottom_at[r] : bottom_at[r + 1]])
            for r, kb in enumerate(kbs.tolist())
        ]

    def _parse_body(self, buf, pos: int, n: int):
        wb = self.word_bits
        mode, k = buf[pos], buf[pos + 1]
        pos += 2
        if mode == MODE_BIT_K and k <= wb:
            if k == 0:
                end = pos + n * wb // 8
                return 0, buf[pos:end], end
            return (k, *read_split_row(buf, pos, n, k, wb))
        if mode == MODE_BYTE_K and 1 <= k <= wb // 8:
            (n_kept,) = struct.unpack_from("<I", buf, pos)
            bitmap, pos = read_bitmap(buf, pos + 4, n * k)
            end = pos + n_kept + n * (wb // 8 - k)
            pieces = (n_kept, bitmap, buf[pos : pos + n_kept], buf[pos + n_kept : end])
            return wb + k, pieces, end
        raise CorruptDataError(f"invalid RAZE mode {mode} with split {k}")

    def _decode_rows(self, keys, pieces, counts) -> np.ndarray:
        wb = self.word_bits
        word_bytes = wb // 8
        split, byte = np.searchsorted(keys, [1, wb + 1]).tolist()
        at = bounds(counts).tolist()
        out = np.empty(at[-1], dtype=f"<u{word_bytes}")
        out[: at[split]] = np.frombuffer(b"".join(pieces[:split]), dtype=out.dtype)
        decode_split_rows(pieces[split:byte], counts[split:byte], keys[split:byte], wb,
                          repeat=False, out=out[at[split] : at[byte]])
        rows, counts, kbs = pieces[byte:], counts[byte:], keys[byte:] - wb
        n_kept = np.array([row[0] for row in rows], dtype=np.int64)
        mask = decompress_bitmap_rows([row[1] for row in rows], counts * kbs)
        if np.any(row_sums(mask, counts * kbs) != n_kept):
            raise CorruptDataError("RAZE bitmap population mismatch")
        top = np.zeros(len(mask), dtype=np.uint8)
        top[mask] = np.frombuffer(b"".join(row[2] for row in rows), dtype=np.uint8)
        bottom = np.frombuffer(b"".join(row[3] for row in rows), dtype=np.uint8)
        be = np.empty((at[-1] - at[byte], word_bytes), dtype=np.uint8)
        value_at = bounds(counts).tolist()
        top_at, bottom_at = bounds(counts * kbs).tolist(), bounds(counts * (word_bytes - kbs)).tolist()
        for kb, lo, hi in runs(kbs):
            rows_be = be[value_at[lo] : value_at[hi]]
            rows_be[:, :kb] = top[top_at[lo] : top_at[hi]].reshape(-1, kb)
            rows_be[:, kb:] = bottom[bottom_at[lo] : bottom_at[hi]].reshape(len(rows_be), -1)
        out[at[byte] :] = be.reshape(-1).view(f">u{word_bytes}")
        return out


def _zero_planes(words: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Per row, how many of its words have a zero byte at each big-endian
    byte position (column 0 is the most significant byte)."""
    word_bytes = words.dtype.itemsize
    out = np.zeros((len(counts), word_bytes), dtype=np.int64)
    live = counts > 0
    if not live.any():
        return out
    starts = bounds(counts)[:-1][live]
    zeros = words.view(np.uint8) == 0
    if counts.max() >= 1 << 16:
        out[live] = np.add.reduceat(zeros.reshape(-1, word_bytes), starts, axis=0, dtype=np.int64)
        return out[:, ::-1]
    # Sum the 0/1 flags as 16-bit lanes of two masked word sums, one over
    # the even and one over the odd bytes: under 2**16 words a row, no lane
    # carries into the next.
    flags, dt = zeros.view(words.dtype), words.dtype.type
    mask = dt(0x00FF00FF00FF00FF & ((1 << 8 * word_bytes) - 1))
    for odd in (0, 1):
        sums = np.add.reduceat((flags >> dt(8 * odd)) & mask, starts)
        for lane in range(word_bytes // 2):
            out[live, 2 * lane + odd] = (sums >> dt(16 * lane)) & dt(0xFFFF)
    return out[:, ::-1]
