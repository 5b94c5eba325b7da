"""Recursive bitmap compression shared by the RZE, RAZE, and RARE stages.

RZE's bitmap "typically starts with mostly '0' bits and ends with mostly
'1' bits" (paper §3.2), so its packed byte form contains long runs of
repeating bytes.  The paper compresses it by *repeated repeating-byte
elimination*: build a second bitmap marking which bytes differ from their
predecessor, keep only the differing bytes, and recurse on the second
bitmap.  A 16384-bit bitmap shrinks 16384 -> 2048 -> 256 -> 32 bits over
three levels; only the final 32 bits and the non-repeating bytes of each
level are emitted.

The functions here implement that scheme for bitmaps of any length (the
final chunk of an input can be short).  Recursion stops after
``max_levels`` rounds or once the bitmap fits in four bytes.
"""

from __future__ import annotations

import struct

import numpy as np

from repro.errors import CorruptDataError
from repro.stages._batch import bounds, pad_rows, row_sums, spread, trim_rows
from repro.stages._frame import Reader, Writer

MAX_LEVELS = 3

_U32 = struct.Struct("<I")
_ZERO = np.zeros(1, dtype=np.uint8)


def _repeat_mask(level_bytes: np.ndarray) -> np.ndarray:
    """Boolean mask: True where a byte differs from its predecessor.

    The byte before position 0 is defined to be 0, so a leading zero byte
    counts as repeating and is dropped (and regenerated on decode).
    """
    prev = np.empty_like(level_bytes)
    prev[0] = 0
    prev[1:] = level_bytes[:-1]
    return level_bytes != prev


def forward_fill(mask: np.ndarray, kept: np.ndarray) -> np.ndarray:
    """Rebuild a level: positions with mask take the next kept value,
    other positions repeat the previous reconstructed value (initially 0).

    Behind a 0, the value before the level, each kept value runs from its
    set bit up to the next one: one ``repeat`` of that 0-prefixed table
    over the run lengths.  (A running ``cumsum`` of the bits indexing the
    table gives the same values; on a 4096-byte level the accumulate alone
    costs more than the whole fill.)  ``kept`` may be any unsigned dtype.
    """
    starts = mask.nonzero()[0]
    if len(mask) and len(starts) != len(kept):
        raise CorruptDataError("bitmap level kept-byte count mismatch")
    edges = np.empty(len(starts) + 2, dtype=np.intp)
    edges[0] = 0
    edges[-1] = len(mask)
    edges[1:-1] = starts
    return np.concatenate((_ZERO, kept)).repeat(edges[1:] - edges[:-1])


def _check_bitmap_pad(level: np.ndarray, used_bits: int) -> None:
    """Reject nonzero padding bits in the final byte of a packed bitmap.

    :func:`compress_bitmap` zero-pads every level (``np.packbits``), so a
    set padding bit can only come from corruption — and would otherwise be
    silently discarded by the ``[:used_bits]`` slice on decode.
    """
    pad_bits = len(level) * 8 - used_bits
    if pad_bits and int(level[-1]) & ((1 << pad_bits) - 1):
        raise CorruptDataError(
            f"nonzero padding bits in packed bitmap level ({used_bits} bits used)"
        )


def compress_bitmap(bits: np.ndarray, max_levels: int = MAX_LEVELS) -> bytes:
    """Compress a boolean bit array via repeated repeating-byte elimination.

    Returns a self-describing payload (the original bit count is *not*
    stored and must be supplied to :func:`decompress_bitmap`).
    """
    level = np.packbits(bits)
    kept_per_level: list[np.ndarray] = []
    levels = 0
    while levels < max_levels and len(level) > 4:
        mask = _repeat_mask(level)
        kept_per_level.append(level[mask])
        level = np.packbits(mask)
        levels += 1
    writer = Writer()
    writer.u8(levels)
    writer.raw(level.tobytes())  # length is derivable from the bit count
    for kept in reversed(kept_per_level):
        writer.u32(len(kept))
        writer.raw(kept.tobytes())
    return writer.getvalue()


def decompress_bitmap(reader: Reader, bit_count: int) -> np.ndarray:
    """Inverse of :func:`compress_bitmap`; reads from ``reader`` in place.

    Returns a boolean array of exactly ``bit_count`` elements.
    """
    levels = reader.u8()
    if levels > 8:
        raise CorruptDataError(f"implausible bitmap recursion depth {levels}")
    # Sizes of the packed byte arrays at each level, outermost first.
    sizes = [(bit_count + 7) // 8]
    for _ in range(levels):
        sizes.append((sizes[-1] + 7) // 8)
    level = np.frombuffer(reader.raw(sizes[-1]), dtype=np.uint8)
    for depth in range(levels - 1, -1, -1):
        n_kept = reader.u32()
        kept = np.frombuffer(reader.raw(n_kept), dtype=np.uint8)
        _check_bitmap_pad(level, sizes[depth])
        mask = np.unpackbits(level, count=sizes[depth]).view(np.bool_)
        level = forward_fill(mask, kept)
    _check_bitmap_pad(level, bit_count)
    return np.unpackbits(level, count=bit_count).view(np.bool_)


def read_bitmap(buf, pos: int, bit_count: int) -> tuple[tuple, int]:
    """``((depth, final level, kept bytes per level, innermost first),
    end)`` of the bitmap at ``buf[pos:]``.  Pieces past the end of ``buf``
    come back short: the caller checks where its payload ends."""
    depth = buf[pos]
    if depth > 8:
        raise CorruptDataError(f"implausible bitmap recursion depth {depth}")
    size = (bit_count + 7) // 8
    for _ in range(depth):
        size = (size + 7) // 8
    pos += 1 + size
    final = buf[pos - size : pos]
    kept = []
    for _ in range(depth):
        (n_kept,) = _U32.unpack_from(buf, pos)
        pos += 4 + n_kept
        kept.append(buf[pos - n_kept : pos])
    return (depth, final, kept), pos


def _unpack_rows(level: np.ndarray, sizes: np.ndarray, used: np.ndarray) -> np.ndarray:
    """Each row's packed bytes as bits, cut to ``used[r]`` bits; raises
    where a row's padding bits are set, like :func:`_check_bitmap_pad`."""
    return trim_rows(np.unpackbits(level).view(np.bool_), sizes * 8, used)


def _active(active, level, sizes) -> np.ndarray:
    """The rows of ``level`` where ``active``."""
    return level if active.all() else level[np.repeat(active, sizes)]


def _merge_rows(active, new, sizes, level, old_sizes) -> np.ndarray:
    """Rows of ``new`` where ``active``, else the rows of ``level``."""
    if active.all():
        return new
    out = np.empty(int(sizes.sum()), dtype=np.uint8)
    take = np.repeat(active, sizes)
    out[take] = new
    out[~take] = level[~np.repeat(active, old_sizes)]
    return out


def compress_bitmap_rows(
    bits: np.ndarray, counts: np.ndarray, max_levels: int = MAX_LEVELS
) -> list[bytes]:
    """Per-row :func:`compress_bitmap` of ragged rows of bits.

    Each level of every row is one ``packbits`` and one repeat-mask pass
    over the flat array.  A row recurses while its level is longer than
    four bytes, so rows of different bit counts stop at different depths;
    a stopped row passes through the later levels unchanged.
    """
    level = np.packbits(pad_rows(bits, counts))
    sizes = (counts + 7) // 8
    depth = np.zeros(len(counts), dtype=np.int64)
    steps = []
    for _ in range(max_levels):
        active = sizes > 4
        if not active.any():
            break
        cur_sizes = sizes[active]
        cur = _active(active, level, sizes)
        prev = np.empty_like(cur)
        prev[1:] = cur[:-1]
        prev[bounds(cur_sizes)[:-1]] = 0  # the byte before each row is 0
        mask = cur != prev
        steps.append((active, row_sums(mask, cur_sizes), cur[mask]))
        new_sizes = np.where(active, (sizes + 7) // 8, sizes)
        packed = np.packbits(pad_rows(mask, cur_sizes))
        level = _merge_rows(active, packed, new_sizes, level, sizes)
        sizes = new_sizes
        depth += active
    # Lay every row's payload out in one buffer: depth, final level, then
    # each level's kept count and bytes, innermost level first.
    lengths = 1 + sizes
    for active, kept_counts, _ in steps:
        lengths[active] += 4 + kept_counts
    at = bounds(lengths)
    out = np.empty(at[-1], dtype=np.uint8)
    out[at[:-1]] = depth
    cursor = at[:-1] + 1
    out[spread(cursor, sizes)] = level
    cursor += sizes
    for active, kept_counts, kept in reversed(steps):
        head = cursor[active]
        out[(head[:, None] + np.arange(4)).reshape(-1)] = kept_counts.astype("<u4").view(np.uint8)
        out[spread(head + 4, kept_counts)] = kept
        cursor[active] = head + 4 + kept_counts
    view, at = memoryview(out), at.tolist()
    return [view[a:b] for a, b in zip(at[:-1], at[1:])]



def decompress_bitmap_rows(parsed: list, counts: np.ndarray) -> np.ndarray:
    """Per-row :func:`decompress_bitmap` of :func:`read_bitmap` pieces,
    as flat ragged rows of bits.  Level ``j`` runs over the rows deeper
    than ``j`` in one pass; every per-row check (pad bits, kept-byte
    counts) holds, so a batch with a bad row raises.
    """
    depth = np.array([p[0] for p in parsed], dtype=np.int64)
    size_at = [(counts + 7) // 8]
    for _ in range(int(depth.max(initial=0))):
        size_at.append((size_at[-1] + 7) // 8)
    sizes = np.choose(depth, size_at)
    level = np.frombuffer(b"".join(p[1] for p in parsed), dtype=np.uint8)
    for j in range(len(size_at) - 2, -1, -1):
        active = depth > j
        rows = np.flatnonzero(active).tolist()
        target = size_at[j][active]
        mask = _unpack_rows(_active(active, level, sizes), sizes[active], target)
        pieces = [parsed[r][2][parsed[r][0] - 1 - j] for r in rows]
        n_kept = np.array([len(piece) for piece in pieces], dtype=np.int64)
        if np.any((row_sums(mask, target) != n_kept) & (target > 0)):
            raise CorruptDataError("bitmap level kept-byte count mismatch")
        # A set bit takes the row's next kept byte, a clear one repeats the
        # previous byte: a running count indexes each row's kept bytes
        # behind a 0, the byte before the row.  The count steps once more
        # at each row start, onto that row's 0.
        lead = [piece for piece, size in zip(pieces, target.tolist()) if size]
        kept = np.frombuffer(
            b"".join(part for piece in lead for part in (b"\0", piece)), dtype=np.uint8
        )
        step = mask.astype(np.uint8)
        step[bounds(target)[:-1][target > 0]] += 1
        filled = kept[np.cumsum(step) - 1]
        new_sizes = np.where(active, size_at[j], sizes)
        level = _merge_rows(active, filled, new_sizes, level, sizes)
        sizes = new_sizes
    return _unpack_rows(level, sizes, counts)
