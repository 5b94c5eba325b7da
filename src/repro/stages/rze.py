"""RZE: Repeated Zero Elimination, the final stage of SPratio.

Paper §3.2, Figure 5.  Operating at byte granularity (to maximise the
chance of finding zeros), RZE builds a bitmap with one bit per input
byte — set when the byte is nonzero — removes all zero bytes, and emits
the nonzero bytes plus the bitmap.  The "repeated" part is the paper's
enhancement: the bitmap itself is compressed by up to three rounds of
repeating-byte elimination (see :mod:`repro.stages._bitmap`), shrinking
the 16384-bit chunk bitmap to 32 bits plus the non-repeating bytes.
"""

from __future__ import annotations

import struct

import numpy as np

from repro.errors import CorruptDataError
from repro.stages import ByteLike, Stage
from repro.stages import _batch
from repro.stages._batch import bounds, row_sums, slices
from repro.stages._bitmap import (
    MAX_LEVELS,
    compress_bitmap,
    compress_bitmap_rows,
    decompress_bitmap,
    decompress_bitmap_rows,
    read_bitmap,
)
from repro.stages._frame import Reader, Writer

_HEAD = struct.Struct("<II")
_PAD = bytes(8)


class RZE(Stage):
    """Byte-granular zero elimination with recursively compressed bitmap."""

    name = "rze"
    word_bits = 8

    def __init__(self, bitmap_levels: int = MAX_LEVELS) -> None:
        self.bitmap_levels = bitmap_levels

    def encode(self, data: ByteLike) -> bytes:
        buf = np.frombuffer(data, dtype=np.uint8)
        nonzero_mask = buf != 0
        nonzero = buf[nonzero_mask]
        writer = Writer()
        writer.u32(len(buf))
        writer.u32(len(nonzero))
        writer.raw(nonzero.tobytes())
        writer.raw(compress_bitmap(nonzero_mask, self.bitmap_levels))
        return writer.getvalue()

    def decode(self, data: ByteLike) -> bytes:
        reader = Reader(data)
        n = reader.u32()
        n_nonzero = reader.u32()
        nonzero = np.frombuffer(reader.raw(n_nonzero), dtype=np.uint8)
        mask = decompress_bitmap(reader, n)
        reader.expect_exhausted()
        if int(mask.sum()) != n_nonzero:
            raise CorruptDataError("RZE bitmap population mismatch")
        out = np.zeros(n, dtype=np.uint8)
        out[mask] = nonzero
        return out.tobytes()

    # -- batched execution ------------------------------------------------

    def encode_batch(self, chunks: list) -> list[bytes]:
        out: list[bytes] = []
        for lo, hi in slices([len(chunk) for chunk in chunks]):
            if hi - lo < _batch.MIN_BATCH_ROWS:
                out += [self.encode(chunk) for chunk in chunks[lo:hi]]
                continue
            # Rows zero-padded to whole bitmap bytes: a zero byte adds
            # nothing to the nonzero bytes or the bitmap's bytes.
            rows = [memoryview(chunk).cast("B") for chunk in chunks[lo:hi]]
            pieces = (piece for row in rows for piece in (row, _PAD[: -len(row) & 7]))
            data = np.frombuffer(b"".join(pieces), dtype=np.uint8)
            lengths = [len(row) for row in rows]
            padded = (np.array(lengths, dtype=np.int64) + 7) & ~7
            mask = data != 0
            at = bounds(row_sums(mask, padded)).tolist()
            nonzero = memoryview(data[mask])
            bitmaps = compress_bitmap_rows(mask, padded, self.bitmap_levels)
            for r, n in enumerate(lengths):
                head = _HEAD.pack(n, at[r + 1] - at[r])
                out.append(b"".join((head, nonzero[at[r] : at[r + 1]], bitmaps[r])))
        return out

    def decode_batch(self, payloads: list) -> list[bytes]:
        out: list[bytes] = []
        for lo, hi in slices([_HEAD.unpack_from(payload)[0] for payload in payloads]):
            if hi - lo < _batch.MIN_BATCH_ROWS:
                out += [self.decode(payload) for payload in payloads[lo:hi]]
                continue
            lengths = np.zeros(hi - lo, dtype=np.int64)
            nonzero, bitmaps = [], []
            for r, payload in enumerate(payloads[lo:hi]):
                buf = memoryview(payload)
                n, n_nonzero = _HEAD.unpack_from(buf)
                bitmap, end = read_bitmap(buf, 8 + n_nonzero, n)
                if end != len(buf):
                    raise CorruptDataError("RZE payload length does not match its header")
                lengths[r] = n
                nonzero.append(buf[8 : 8 + n_nonzero])
                bitmaps.append(bitmap)
            mask = decompress_bitmap_rows(bitmaps, lengths)
            populations = np.array([len(piece) for piece in nonzero], dtype=np.int64)
            if np.any(row_sums(mask, lengths) != populations):
                raise CorruptDataError("RZE bitmap population mismatch")
            data = np.zeros(len(mask), dtype=np.uint8)
            data[mask] = np.frombuffer(b"".join(nonzero), dtype=np.uint8)
            blob = data.tobytes()
            at = bounds(lengths).tolist()
            out += [blob[a:b] for a, b in zip(at[:-1], at[1:])]
        return out
