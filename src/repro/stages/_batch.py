"""Shared plumbing for the stages' batched execution paths.

Fixed-length stages (DIFFMS, BIT, MPLG) stack equal-length chunks into an
``(n_chunks, words_per_chunk)`` grid; their chunks of another length run
the per-chunk code.  The variable-length stages (RZE, RAZE, RARE) see a
different length in almost every chunk, so a block's chunks become
*ragged rows*: one flat array plus per-row element counts, whose prefix
sums are the row windows (paper §3.1), and every kernel runs once over
the flat array.  Batching never changes wire bytes.
"""

from __future__ import annotations

import numpy as np

from repro.bitpack import pack_words, unpack_words
from repro.errors import CorruptDataError

#: Input bytes one ragged kernel pass covers, about: a block can be a
#: serial call's whole input, and every flat temporary scales with it.
SLICE_BYTES = 2 << 20

#: A slice of fewer rows than this runs the per-chunk code: there the
#: ragged kernels' fixed cost per call exceeds what they save.
MIN_BATCH_ROWS = 8

_ZERO_PAD = bytes(56)  # re-pads a packed row: at most 7 values of 64 bits


def length_groups(chunks) -> dict[int, list[int]]:
    """Chunk positions grouped by byte length, preserving input order."""
    groups: dict[int, list[int]] = {}
    for i, chunk in enumerate(chunks):
        groups.setdefault(len(chunk), []).append(i)
    return groups


def stack_rows(chunks, indices: list[int], length: int) -> np.ndarray:
    """Copy the selected equal-length chunks into a ``(len(indices), length)``
    uint8 grid (one contiguous buffer the 2D kernels can view as words)."""
    rows = np.empty((len(indices), length), dtype=np.uint8)
    for row, i in enumerate(indices):
        rows[row] = np.frombuffer(chunks[i], dtype=np.uint8)
    return rows


def slices(sizes, limit: int = SLICE_BYTES) -> list[tuple[int, int]]:
    """Consecutive ``(lo, hi)`` row ranges of about equal total size, as
    few as keep each near ``limit`` (a slice can overshoot by one row)."""
    total = sum(sizes)
    parts = max(1, -(-total // limit))
    out: list[tuple[int, int]] = []
    lo = acc = 0
    for i, size in enumerate(sizes):
        acc += size
        if acc * parts >= (len(out) + 1) * total and len(out) + 1 < parts:
            out.append((lo, i + 1))
            lo = i + 1
    if lo < len(sizes):
        out.append((lo, len(sizes)))
    return out


def bounds(counts: np.ndarray) -> np.ndarray:
    """Row windows of a ragged array: ``bounds[r]:bounds[r + 1]`` is row ``r``."""
    out = np.zeros(len(counts) + 1, dtype=np.int64)
    np.cumsum(counts, out=out[1:])
    return out


def join_words(chunks, word_bytes: int):
    """``(words, counts, tails)``: the chunks' whole words as one flat
    little-endian array, each row's word count and its trailing bytes."""
    views = [memoryview(chunk).cast("B") for chunk in chunks]
    counts = np.array([len(v) // word_bytes for v in views], dtype=np.int64)
    ends = (counts * word_bytes).tolist()
    body = b"".join(v[:end] for v, end in zip(views, ends))
    tails = [bytes(v[end:]) for v, end in zip(views, ends)]
    words = np.frombuffer(body, dtype=np.dtype(f"<u{word_bytes}"))
    return words, counts, tails


def row_sums(flags: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Per-row number of set ``flags`` (empty rows sum to 0)."""
    out = np.zeros(len(counts), dtype=np.int64)
    live = counts > 0
    if live.any():
        # The narrowest accumulator that cannot overflow is the fastest.
        dtype = np.uint16 if counts.max() < 1 << 16 else np.int64
        starts = bounds(counts)[:-1][live]
        out[live] = np.add.reduceat(flags.view(np.uint8), starts, dtype=dtype)
    return out


def runs(keys: np.ndarray):
    """``(key, lo, hi)`` of each run of equal consecutive values."""
    if not len(keys):
        return []
    edges = (np.flatnonzero(np.diff(keys)) + 1).tolist()
    return zip(keys[[0] + edges].tolist(), [0] + edges, edges + [len(keys)])


def spread(starts: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Positions ``starts[r] + 0 .. counts[r] - 1`` of every row."""
    return np.repeat(starts - bounds(counts)[:-1], counts) + np.arange(int(counts.sum()))


def _resize_rows(flat: np.ndarray, old: np.ndarray, new: np.ndarray) -> np.ndarray:
    """Rows of ``old[r]`` elements as rows of ``new[r]``, cut (of zeros only)
    or zero-filled, by 2-D copies per run of equal rows or one scatter."""
    keep = np.minimum(old, new)
    blocks, src, dst = list(runs(keep)), bounds(old), bounds(new)
    out = np.zeros(int(dst[-1]), dtype=flat.dtype)
    if len(blocks) > 16:
        if flat[spread(src[:-1] + keep, old - keep)].any():
            raise CorruptDataError("nonzero padding bits in a packed row")
        out[spread(dst[:-1], keep)] = flat[spread(src[:-1], keep)]
        return out
    for k, lo, hi in blocks:
        rows = flat[src[lo] : src[hi]].reshape(hi - lo, int(old[lo]))
        if rows[:, k:].any():
            raise CorruptDataError("nonzero padding bits in a packed row")
        out[dst[lo] : dst[hi]].reshape(hi - lo, int(new[lo]))[:, :k] = rows[:, :k]
    return out


def pad_rows(flat: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """``flat`` with each row zero-padded to a multiple of 8 elements, so it
    starts on a byte; not the last, as packing zero-fills the final byte."""
    if not np.any(counts[:-1] & 7):
        return flat
    return _resize_rows(flat, counts, (counts + 7) & ~7)


def trim_rows(flat: np.ndarray, lengths: np.ndarray, used: np.ndarray) -> np.ndarray:
    """``flat`` cut to the first ``used[r]`` of each row's ``lengths[r]``
    elements; raises if a cut element (a row's padding) is set."""
    return flat if np.array_equal(lengths, used) else _resize_rows(flat, lengths, used)


def pack_rows(values: np.ndarray, counts: np.ndarray, width: int, word_bits: int):
    """Pack every row at ``width`` bits with one :func:`pack_words` call:
    padded to 8 values, a row starts on a byte and its first
    ``packed_size_bytes`` bytes are what packing it alone gives.  Returns
    the stream and each row's offset."""
    stream = pack_words(pad_rows(values, counts), width, word_bits)
    return memoryview(stream), (bounds((counts + 7) & ~7)[:-1] * width // 8).tolist()


def unpack_rows(raws: list, counts: np.ndarray, width: int, word_bits: int) -> np.ndarray:
    """Inverse of :func:`pack_rows` over each row's packed bytes, with one
    :func:`unpack_words` call; a set pad bit in any row raises."""
    padded = (counts + 7) & ~7
    pad = (padded * width // 8 - (counts * width + 7) // 8).tolist()
    parts = []
    for raw, p in zip(raws, pad):
        parts += (raw, _ZERO_PAD[:p])
    values = unpack_words(b"".join(parts), int(padded.sum()), width, word_bits)
    return trim_rows(values, padded, counts)

