"""Adaptive top-``k`` selection shared by the RAZE and RARE stages.

Paper §3.2, Figure 7: rather than trying all 64 splits by brute force,
the stage builds a histogram of per-value leading-zero (RAZE) or
leading-common-bit (RARE) counts.  A suffix sum over the bins yields, for
every candidate ``k``, how many values have their entire top-``k`` piece
eliminated — because every value with ``m`` qualifying leading bits also
qualifies for ``m-1``, ``m-2``, ...  From those counts a closed-form
compressed size is computed for each ``k`` and the minimum is selected.

The size model matches the stage's actual output layout: one bitmap bit
per value, ``k`` bits for every value whose top piece must be kept, and
``word_bits - k`` bottom bits for every value.  ``k == 0`` disables the
split (the stage stores plain words).

Both stages also share their batched execution, :class:`SplitStage`.
"""

from __future__ import annotations

import struct

import numpy as np

from repro.bitpack import backend as _backend
from repro.bitpack import packed_size_bytes
from repro.errors import CorruptDataError
from repro.stages import Stage
from repro.stages import _batch
from repro.stages._batch import (
    bounds,
    join_words,
    pack_rows,
    row_sums,
    runs,
    slices,
    unpack_rows,
)
from repro.stages._bitmap import compress_bitmap_rows, decompress_bitmap_rows, read_bitmap

#: The header every RAZE and RARE payload starts with: word count, tail
#: length (the tail bytes follow).
_HEAD = struct.Struct("<IB")
_U32 = struct.Struct("<I")


def eliminated_counts(leading: np.ndarray, word_bits: int) -> np.ndarray:
    """``counts[k]`` = number of values whose top-``k`` piece is eliminated.

    ``leading`` holds per-value leading-zero (RAZE) or leading-common-bit
    (RARE) counts.  A value with ``m`` such bits is eliminated for every
    ``k <= m``, so ``counts`` is the suffix sum of the histogram.
    """
    hist = np.bincount(np.asarray(leading, dtype=np.int64), minlength=word_bits + 1)
    return np.cumsum(hist[::-1])[::-1]


def choose_k(leading: np.ndarray, n: int, word_bits: int) -> int:
    """The ``k`` minimising the modelled compressed size of the chunk."""
    if n == 0:
        return 0
    counts = eliminated_counts(leading, word_bits)
    ks = np.arange(1, word_bits + 1, dtype=np.int64)
    # bitmap (n bits) + kept top pieces (k bits each) + all bottom pieces.
    cost = n + (n - counts[1:]) * ks + n * (word_bits - ks)
    cost_disabled = n * word_bits
    best = int(np.argmin(cost))
    if cost[best] >= cost_disabled:
        return 0
    return best + 1


def choose_k_rows(
    leading: np.ndarray, counts: np.ndarray, word_bits: int
) -> tuple[np.ndarray, np.ndarray]:
    """Per-row :func:`choose_k` over ragged rows, plus the chosen ``k``'s cost.

    ``leading`` holds every row's per-value counts back to back,
    ``counts[r]`` of them for row ``r``.  Returns ``(k, cost)`` arrays
    over the rows; ``cost`` is the same number the serial planner reports
    (``n * word_bits`` when ``k == 0``), so mode selection against other
    plans stays bit-for-bit identical.  Dispatches to the active kernel
    backend.
    """
    return _backend.kernel("choose_k_rows")(leading, counts, word_bits)


def _choose_k_rows_numpy(
    leading: np.ndarray, counts: np.ndarray, word_bits: int
) -> tuple[np.ndarray, np.ndarray]:
    """The numpy reference: one ``bincount`` over (row, count) pairs gives
    every row's histogram, then the cost model runs with each row's ``n``."""
    counts = np.asarray(counts, dtype=np.int64)
    n_rows = len(counts)
    bins = word_bits + 1
    key = np.repeat(np.arange(n_rows, dtype=np.int64) * bins, counts)
    key += leading
    hist = np.bincount(key, minlength=n_rows * bins).reshape(n_rows, bins)
    eliminated = np.cumsum(hist[:, ::-1], axis=1)[:, ::-1]
    n = counts[:, None]
    ks = np.arange(1, bins, dtype=np.int64)
    cost = n + (n - eliminated[:, 1:]) * ks + n * (word_bits - ks)
    cost_disabled = counts * word_bits
    best = np.argmin(cost, axis=1)
    best_cost = cost[np.arange(n_rows), best]
    disabled = best_cost >= cost_disabled
    return np.where(disabled, 0, best + 1), np.where(disabled, cost_disabled, best_cost)


def encode_split_rows(
    words: np.ndarray, qualifying: np.ndarray, counts: np.ndarray, ks: np.ndarray,
    word_bits: int,
) -> list[tuple]:
    """Split-code ragged rows, row ``r`` at ``1 <= ks[r] <= word_bits``.

    With ``ks`` ascending, a top is stored where its ``qualifying`` count (leading zeros for
    RAZE, leading bits shared with the prior value for RARE) is below
    ``k``.  Returns per row the pieces after the split byte: kept count,
    compressed bitmap, packed tops, packed bottoms.  The bitmaps take one
    call, the tops and bottoms one pack call per distinct ``k``.
    """
    dt = words.dtype.type
    at = bounds(counts).tolist()
    kept = np.empty(len(words), dtype=bool)
    for k, lo, hi in runs(ks):
        np.less(qualifying[at[lo] : at[hi]], k, out=kept[at[lo] : at[hi]])
    kept_counts = row_sums(kept, counts)
    bitmaps = compress_bitmap_rows(kept, counts)
    pieces = []
    for k, lo, hi in runs(ks):
        run = words[at[lo] : at[hi]]
        tops = run[kept[at[lo] : at[hi]]] >> dt(word_bits - k)
        t, t_at = pack_rows(tops, kept_counts[lo:hi], k, word_bits)
        if k < word_bits:
            low = run & dt((1 << (word_bits - k)) - 1)
            b, b_at = pack_rows(low, counts[lo:hi], word_bits - k, word_bits)
        else:
            b, b_at = memoryview(b""), [0] * (hi - lo)
        pieces += [
            (_U32.pack(c), bitmaps[lo + j], t[t_at[j] : t_at[j] + (c * k + 7) // 8],
             b[b_at[j] : b_at[j] + (n * (word_bits - k) + 7) // 8])
            for j, (c, n) in enumerate(zip(kept_counts[lo:hi].tolist(), counts[lo:hi].tolist()))
        ]
    return pieces


def read_split_row(buf, pos: int, n: int, k: int, word_bits: int) -> tuple[tuple, int]:
    """Locate the pieces of one row written by :func:`encode_split_rows`
    at ``buf[pos:]``; returns them and the end position."""
    (n_kept,) = _U32.unpack_from(buf, pos)
    bitmap, pos = read_bitmap(buf, pos + 4, n)
    mid = pos + packed_size_bytes(n_kept, k)
    end = mid + packed_size_bytes(n, word_bits - k)
    return (n_kept, bitmap, buf[pos:mid], buf[mid:end]), end


def decode_split_rows(
    rows: list, counts: np.ndarray, ks: np.ndarray, word_bits: int, repeat: bool,
    out: np.ndarray,
) -> None:
    """Inverse of :func:`encode_split_rows` over :func:`read_split_row`
    pieces, into ``out``.  An eliminated top is 0 (RAZE) or, with
    ``repeat``, the row's last stored top (RARE; 0 before the first)."""
    n_kept = np.array([row[0] for row in rows], dtype=np.int64)
    kept = decompress_bitmap_rows([row[1] for row in rows], counts)
    if np.any(row_sums(kept, counts) != n_kept):
        raise CorruptDataError("bitmap population mismatch")
    at = bounds(counts).tolist()
    for k, lo, hi in runs(ks):
        tops = unpack_rows([row[2] for row in rows[lo:hi]], n_kept[lo:hi], k, word_bits)
        run_kept, run = kept[at[lo] : at[hi]], out[at[lo] : at[hi]]
        if repeat:
            # Each row's tops behind a 0, indexed by a running count that
            # steps once more at each row start (see decompress_bitmap_rows).
            step = run_kept.astype(np.uint8)
            step[bounds(counts[lo:hi])[:-1]] += 1
            ext = np.insert(tops, bounds(n_kept[lo:hi])[:-1], 0)
            np.take(ext, np.cumsum(step) - 1, out=run)
        else:
            run[:] = 0
            run[run_kept] = tops
        if k < word_bits:
            run <<= run.dtype.type(word_bits - k)
            run |= unpack_rows([row[3] for row in rows[lo:hi]], counts[lo:hi],
                               word_bits - k, word_bits)


class SplitStage(Stage):
    """Batched execution shared by RAZE and RARE.

    A block runs in slices of about :data:`~repro.stages._batch.SLICE_BYTES`
    input bytes, each one flat word array plus row counts; a slice of
    fewer than :data:`~repro.stages._batch.MIN_BATCH_ROWS` rows runs per
    chunk.  The subclass plans every row at once as an integer *key*
    (``_plan_rows``); rows ordered by key make each mode (raw, bit split,
    byte split) and each split in it a contiguous run, which
    ``_encode_rows``/``_decode_rows`` code with one call per mode and one
    pack/unpack per split.  Decode locates each payload's pieces by
    offset arithmetic (``_parse_body``) and checks its end once; a
    malformed payload fails the whole batch.
    """

    def encode_batch(self, chunks: list) -> list[bytes]:
        out: list[bytes] = []
        for lo, hi in slices([len(chunk) for chunk in chunks]):
            out += self._encode_slice(chunks[lo:hi])
        return out

    def _encode_slice(self, chunks: list) -> list[bytes]:
        if len(chunks) < _batch.MIN_BATCH_ROWS:
            return [self.encode(chunk) for chunk in chunks]
        words, counts, tails = join_words(chunks, self.word_bits // 8)
        keys, qualifying = self._plan_rows(words, counts)
        order = np.argsort(keys, kind="stable")
        rows, at = order.tolist(), bounds(counts).tolist()
        spans = [(at[r], at[r + 1]) for r in rows]  # the rows, ordered by key
        bodies = self._encode_rows(
            keys[order], np.concatenate([words[a:b] for a, b in spans]),
            np.concatenate([qualifying[a:b] for a, b in spans]), counts[order],
        )
        n = counts.tolist()
        out: list[bytes | None] = [None] * len(chunks)
        for r, body in zip(rows, bodies):
            out[r] = b"".join((_HEAD.pack(n[r], len(tails[r])), tails[r], *body))
        return out

    def decode_batch(self, payloads: list) -> list[bytes]:
        word_bytes = self.word_bits // 8
        sizes = [_HEAD.unpack_from(payload)[0] * word_bytes for payload in payloads]
        out: list[bytes] = []
        for lo, hi in slices(sizes):
            out += self._decode_slice(payloads[lo:hi])
        return out

    def _decode_slice(self, payloads: list) -> list[bytes]:
        if len(payloads) < _batch.MIN_BATCH_ROWS:
            return [self.decode(payload) for payload in payloads]
        out: list[bytes | None] = [None] * len(payloads)
        parsed = []
        for i, payload in enumerate(payloads):
            buf = memoryview(payload)
            n, tail_len = _HEAD.unpack_from(buf)
            if n == 0:
                out[i] = self.decode(payload)
                continue
            key, pieces, end = self._parse_body(buf, 5 + tail_len, n)
            if end != len(buf):
                raise CorruptDataError(f"{self.name} payload length does not match its header")
            parsed.append((key, i, n, buf[5 : 5 + tail_len], pieces))
        parsed.sort(key=lambda row: row[0])
        keys = np.array([row[0] for row in parsed], dtype=np.int64)
        counts = np.array([row[2] for row in parsed], dtype=np.int64)
        words = self._decode_rows(keys, [row[4] for row in parsed], counts)
        data = memoryview(words).cast("B")
        at = bounds(counts * (self.word_bits // 8)).tolist()
        for j, (_, i, _, tail, _) in enumerate(parsed):
            out[i] = b"".join((data[at[j] : at[j + 1]], tail))
        return out


def raw_rows(words: np.ndarray, counts: np.ndarray) -> list[memoryview]:
    """Each row's words as a byte view (the stages' ``k == 0`` layout)."""
    data = memoryview(words).cast("B")
    at = bounds(counts * words.dtype.itemsize).tolist()
    return [data[a:b] for a, b in zip(at[:-1], at[1:])]
