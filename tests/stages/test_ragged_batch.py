"""Ragged-row batched RAZE, RARE and RZE against their per-chunk paths.

The batched stages turn a block of chunks of any byte length into one
flat array plus row counts (``repro.stages._batch``).  Every test here
holds the batched path to the per-chunk ``encode``/``decode`` (and the
per-row bitmap and pack kernels) byte for byte, on blocks that mix every
awkward length: 0-17 bytes, 2**k +- 1 words, restart-FCM chunks of
32,777 bytes, and every tail of 0-7 bytes.
"""

from __future__ import annotations

import struct

import numpy as np
import pytest

from repro.bitpack import pack_words, packed_size_bytes, unpack_words
from repro.core import container as fmt
from repro.core._procwork import FOREIGN_ERRORS
from repro.core.codecs import get_codec
from repro.core.compressor import compress_bytes, decompress_bytes
from repro.datasets import dp_suite
from repro.errors import CorruptDataError, ReproError
from repro.stages import RARE, RAZE, RZE, _batch
from repro.stages._batch import pack_rows, slices, unpack_rows
from repro.stages._bitmap import (
    compress_bitmap,
    compress_bitmap_rows,
    decompress_bitmap,
    decompress_bitmap_rows,
    read_bitmap,
)
from repro.stages._frame import Reader

BATCH_ERRORS = (ReproError,) + FOREIGN_ERRORS


@pytest.fixture
def every_slice_batched(monkeypatch):
    """Run the ragged kernels on slices of any row count (RAZE and RARE
    code slices of fewer than ``MIN_BATCH_ROWS`` rows per chunk)."""
    monkeypatch.setattr(_batch, "MIN_BATCH_ROWS", 1)


def _lengths(word_bits: int) -> list[int]:
    """Byte lengths of one block: 0-17, 2**k +- 1 words with a tail, and
    a restart-FCM chunk."""
    word_bytes = word_bits // 8
    out = list(range(18)) + [32_777]
    for e in (3, 7, 11):
        out += [((1 << e) + d) * word_bytes + (e + d) % word_bytes for d in (-1, 1)]
    return out


def _words_for_split(rng, n: int, word_bits: int, k: int, stage) -> np.ndarray:
    """``n`` words on which ``stage`` plans the bit-granular split ``k``."""
    dtype = np.dtype(f"<u{word_bits // 8}")
    rand = rng.integers(0, 1 << 63, n, dtype=np.uint64)
    if k == 0:
        return (rand ^ (rand << np.uint64(1))).astype(dtype) | dtype.type(1 << (word_bits - 1))
    if k == word_bits:
        const = 0 if isinstance(stage, RAZE) else 0x5A5A5A5A
        return np.full(n, const, dtype=dtype)
    low = (rand.astype(dtype) >> dtype.type(k)) & dtype.type((1 << (word_bits - k - 1)) - 1)
    if isinstance(stage, RAZE):
        # Exactly k leading zeros in every word.
        return low | dtype.type(1 << (word_bits - k - 1))
    # RARE: the top k bits repeat, the next one alternates.
    top = dtype.type((1 << (word_bits - 1)) | (0x2D2D2D2D2D2D2D2D >> (64 - word_bits)))
    top = (top >> dtype.type(word_bits - k)) << dtype.type(word_bits - k)
    flip = (np.arange(n) & 1).astype(dtype) << dtype.type(word_bits - k - 1)
    return top | flip | low


def _chunk(rng, length: int, word_bits: int, k: int, stage) -> bytes:
    n = length // (word_bits // 8)
    tail = rng.integers(0, 256, length % (word_bits // 8), dtype=np.uint8)
    return _words_for_split(rng, n, word_bits, k, stage).tobytes() + tail.tobytes()


def _quantised_chunk(rng, length: int) -> bytes:
    """Bytes with zeros inside the words: RAZE's byte-granular mode."""
    data = rng.integers(0, 256, length, dtype=np.uint8)
    data[rng.random(length) < 0.6] = 0
    return data.tobytes()


def _split_of(stage, payload: bytes) -> tuple[int, int]:
    """The ``(mode, k)`` a payload was coded with (RARE has mode 0)."""
    pos = 5 + payload[4]
    if isinstance(stage, RAZE):
        return payload[pos], payload[pos + 1]
    return 0, payload[pos]


def _assert_batch_matches(stage, chunks: list) -> list[bytes]:
    payloads = [stage.encode(chunk) for chunk in chunks]
    assert stage.encode_batch(chunks) == payloads
    assert stage.decode_batch(payloads) == [bytes(chunk) for chunk in chunks]
    return payloads


@pytest.mark.usefixtures("every_slice_batched")
@pytest.mark.parametrize("word_bits", [32, 64])
@pytest.mark.parametrize("stage_cls", [RAZE, RARE])
class TestSplitStageBatch:
    def test_every_split_matches_per_chunk(self, stage_cls, word_bits, rng):
        """k = 1 is never planned: its modelled cost is never below the
        unsplit one.  Every other k from 0 to w is, in both stages."""
        stage = stage_cls(word_bits)
        seen = set()
        for k in [0] + list(range(2, word_bits + 1)):
            chunks = [_chunk(rng, n, word_bits, k, stage) for n in _lengths(word_bits)]
            for payload in _assert_batch_matches(stage, chunks):
                if struct.unpack_from("<I", payload)[0] >= 2:
                    seen.add(_split_of(stage, payload))
        assert {k for mode, k in seen if mode == 0} == {0} | set(range(2, word_bits + 1))
        if stage_cls is RAZE:
            quantised = [_quantised_chunk(rng, n) for n in _lengths(word_bits)]
            for payload in _assert_batch_matches(stage, quantised):
                seen.add(_split_of(stage, payload))
            assert any(mode == 1 for mode, _ in seen)

    def test_mixed_plans_in_one_block(self, stage_cls, word_bits, rng):
        stage = stage_cls(word_bits)
        lengths = _lengths(word_bits)
        chunks = [
            _chunk(rng, lengths[i % len(lengths)], word_bits, k, stage)
            for i, k in enumerate([0, 2, 9, word_bits - 1, word_bits, 5, 0, 17] * 3)
        ]
        chunks += [_quantised_chunk(rng, n) for n in (16384, 1003, 32_777)]
        chunks += [memoryview(_chunk(rng, 4096, word_bits, 3, stage))]
        _assert_batch_matches(stage, chunks)

    def test_row_of_2_16_words_or_more(self, stage_cls, word_bits, rng):
        # RAZE counts a row's zero bytes in 16-bit lanes below 2**16 words
        # and exactly past it; both must plan what the per-chunk path does.
        word_bytes = word_bits // 8
        big = np.zeros(((1 << 16) + 9, word_bytes), dtype=np.uint8)
        big[:, [0, -1]] = rng.integers(1, 256, (len(big), 2))  # zeros inside every word
        chunks = [big.tobytes() + b"\x07", _quantised_chunk(rng, 64), b"\x01\x02\x03"]
        payloads = _assert_batch_matches(stage_cls(word_bits), chunks)
        if stage_cls is RAZE:
            assert _split_of(RAZE(word_bits), payloads[0])[0] == 1  # byte mode

    def test_empty_block(self, stage_cls, word_bits):
        stage = stage_cls(word_bits)
        assert stage.encode_batch([]) == []
        assert stage.decode_batch([]) == []


def test_slices_are_balanced_and_cover_every_row():
    assert slices([]) == []
    assert slices([0, 0, 0], 10) == [(0, 3)]
    sizes = [16384] * 256 + [9]
    cuts = slices(sizes, 1 << 20)
    assert cuts[0][0] == 0 and cuts[-1][1] == len(sizes) and len(cuts) == 5
    assert all(a[1] == b[0] for a, b in zip(cuts, cuts[1:]))
    assert max(hi - lo for lo, hi in cuts) - min(hi - lo for lo, hi in cuts) <= 1


class TestRZEBatch:
    def test_ragged_lengths_match_per_chunk(self, rng):
        stage = RZE()
        chunks = [_quantised_chunk(rng, n) for n in _lengths(64) + [16384, 40_000]]
        chunks.append(bytes(16384))
        _assert_batch_matches(stage, chunks)

    @pytest.mark.parametrize("levels", [0, 1, 3])
    def test_bitmap_levels(self, levels, rng):
        stage = RZE(bitmap_levels=levels)
        _assert_batch_matches(stage, [_quantised_chunk(rng, n) for n in (9, 300, 16384)])


@pytest.mark.parametrize("word_bits", [32, 64])
class TestPackRows:
    def test_one_call_matches_per_row_packing(self, word_bits, rng):
        counts = np.array([0, 1, 7, 8, 9, 100, 0, 63, 2049], dtype=np.int64)
        values = rng.integers(0, 1 << 63, int(counts.sum()), dtype=np.uint64)
        values = values.astype(np.dtype(f"<u{word_bits // 8}"))
        bounds = np.concatenate(([0], np.cumsum(counts)))
        for width in range(word_bits + 1):
            part = values & values.dtype.type((1 << width) - 1)
            stream, offsets = pack_rows(part, counts, width, word_bits)
            raws = []
            for r, count in enumerate(counts.tolist()):
                row = part[bounds[r] : bounds[r + 1]]
                size = packed_size_bytes(count, width)
                assert bytes(stream[offsets[r] : offsets[r] + size]) == pack_words(row, width, word_bits)
                raws.append(stream[offsets[r] : offsets[r] + size])
            assert np.array_equal(unpack_rows(raws, counts, width, word_bits), part)

    @pytest.mark.parametrize("n_rows", [2, 40])  # runs of equal rows, or ragged
    def test_set_pad_bit_raises_like_per_row(self, word_bits, n_rows):
        counts = np.array([5 + r % 3 for r in range(n_rows)], dtype=np.int64)
        raws = [bytearray(packed_size_bytes(int(c), 3)) for c in counts]
        raws[1][-1] |= 1  # 6 values x 3 bits leave 6 pad bits
        with pytest.raises(CorruptDataError):
            unpack_words(bytes(raws[1]), int(counts[1]), 3, word_bits)
        with pytest.raises(CorruptDataError):
            unpack_rows([bytes(raw) for raw in raws], counts, 3, word_bits)


BIT_COUNTS = list(range(41)) + [255, 256, 257, 2047, 2048, 2049, 16384, 32776]


def _bits(rng, count: int, style: int) -> np.ndarray:
    if style == 0:
        return rng.random(count) < 0.5
    if style == 1:  # front zeros, back ones: the shape RZE sees
        bits = np.arange(count) >= rng.integers(0, count + 1)
        return bits ^ (rng.random(count) < 0.01)
    return np.zeros(count, dtype=bool) if style == 2 else np.ones(count, dtype=bool)


class TestBitmapRows:
    @pytest.mark.parametrize("max_levels", [0, 1, 3])
    def test_compress_matches_per_row(self, max_levels, rng):
        rows = [_bits(rng, count, i % 4) for i, count in enumerate(BIT_COUNTS * 2)]
        counts = np.array([len(row) for row in rows], dtype=np.int64)
        expected = [compress_bitmap(row, max_levels) for row in rows]
        assert compress_bitmap_rows(np.concatenate(rows), counts, max_levels) == expected
        # Rows of different bit counts reach different depths in one call.
        assert len({payload[0] for payload in expected}) == min(max_levels, 3) + 1

    def test_decompress_matches_per_row(self, rng):
        rows, payloads = [], []
        for i, count in enumerate(BIT_COUNTS * 2):
            rows.append(_bits(rng, count, i % 4))
            # Payloads of any depth up to the recursion cap are valid.
            payloads.append(compress_bitmap(rows[-1], i % 4))
        counts = np.array([len(row) for row in rows], dtype=np.int64)
        parsed = []
        for payload, count in zip(payloads, counts.tolist()):
            assert np.array_equal(decompress_bitmap(Reader(payload), count), rows[parsed.__len__()])
            pieces, end = read_bitmap(memoryview(payload), 0, count)
            assert end == len(payload)
            parsed.append(pieces)
        assert np.array_equal(decompress_bitmap_rows(parsed, counts), np.concatenate(rows))

    @pytest.mark.parametrize("damage", ["pad", "kept", "depth"])
    def test_bad_row_raises(self, damage, rng):
        rows = [_bits(rng, 40, 0), _bits(rng, 2049, 1), _bits(rng, 37, 0)]
        payloads = [bytearray(compress_bitmap(bits)) for bits in rows]
        bad = payloads[0]  # not the last row: its kept bytes have neighbours
        if damage == "pad":
            bad[1] |= 0x01  # 40 bits: 5 bytes, then a final byte with 3 pad bits
        elif damage == "kept":
            # One more kept byte than the level's mask selects, with the
            # count to match: only the count check can see it.
            count = struct.unpack_from("<I", bad, 2)[0]
            bad[2:] = struct.pack("<I", count + 1) + bad[6:] + b"\x55"
        else:
            bad[0] = 9
        counts = np.array([40, 2049, 37], dtype=np.int64)
        with pytest.raises(CorruptDataError):
            decompress_bitmap(Reader(bytes(bad)), 40)
        with pytest.raises(BATCH_ERRORS):
            parsed = [read_bitmap(memoryview(bytes(p)), 0, c)[0] for p, c in zip(payloads, counts.tolist())]
            decompress_bitmap_rows(parsed, counts)


def _split_offsets(payload: bytes, word_bits: int) -> dict:
    """Byte offsets inside a RARE payload with ``k > 0``."""
    n, tail_len = struct.unpack_from("<IB", payload)
    pos = 5 + tail_len
    k = payload[pos]
    n_kept = struct.unpack_from("<I", payload, pos + 1)[0]
    (depth, final, _), bitmap_end = read_bitmap(memoryview(payload), pos + 5, n)
    tops_end = bitmap_end + packed_size_bytes(n_kept, k)
    sizes = [n]
    for _ in range(depth + 1):
        sizes.append((sizes[-1] + 7) // 8)
    return {
        "n": n, "k": k, "n_kept": n_kept, "depth_at": pos + 5, "depth": depth,
        "first_count_at": pos + 6 + len(final), "tops_end": tops_end,
        "final_pad_bits": 8 * len(final) - sizes[depth],
    }


def _mutate(payload: bytes, damage: str, word_bits: int) -> bytes | None:
    """``payload`` with one field damaged, or None if it has no such field."""
    at = _split_offsets(payload, word_bits)
    out = bytearray(payload)
    if damage == "pad":
        if (at["n_kept"] * at["k"]) % 8:
            out[at["tops_end"] - 1] |= 1
        elif (at["n"] * (word_bits - at["k"])) % 8:
            out[-1] |= 1
        elif at["final_pad_bits"]:
            out[at["first_count_at"] - 1] |= 1  # the bitmap's final level
        else:
            return None
    elif damage == "kept":
        # One more kept byte than the bitmap level selects, count to match.
        if not at["depth"]:
            return None
        count = struct.unpack_from("<I", out, at["first_count_at"])[0]
        struct.pack_into("<I", out, at["first_count_at"], count + 1)
        end = at["first_count_at"] + 4 + count
        out[end:end] = b"\x55"
    elif damage == "depth":
        out[at["depth_at"]] = 9
    elif damage == "trailing":
        out.append(0)
    else:
        return bytes(out[:-1])
    return bytes(out)


DAMAGE = ["pad", "kept", "depth", "truncate", "trailing"]


def _corpus_field(name: str) -> bytes:
    """One 256 KiB corpus field (16 chunks) at the base grid, seed 0."""
    spec = next(f for d in dp_suite() for f in d.files if f.name == name)
    return spec.generator(np.random.default_rng(0), spec.grid_at(1)).tobytes()


class TestCorruptionParity:
    @pytest.mark.usefixtures("every_slice_batched")
    @pytest.mark.parametrize("damage", DAMAGE)
    def test_decode_batch_raises(self, damage, rng):
        stage = RARE(64)
        chunks = [_chunk(rng, 8 * n + 3, 64, 11, stage) for n in (2047, 100, 501)]
        payloads = [stage.encode(chunk) for chunk in chunks]
        bad = _mutate(payloads[1], damage, 64)
        with pytest.raises(CorruptDataError):
            stage.decode(bad)
        with pytest.raises(BATCH_ERRORS):
            stage.decode_batch([payloads[0], bad, payloads[2]])

    @pytest.fixture(params=["global", "restart"])
    def container(self, request):
        # A corpus field whose RARE payloads have splits, bitmap levels and
        # pad bits under both FCM framings; no CRC, so damage reaches RARE.
        return compress_bytes(_corpus_field("num/num_brain"), get_codec("dpratio"),
                              fcm=request.param, checksum=False, chunk_checksums=False)

    @staticmethod
    def _damaged(blob: bytes, damage: str) -> bytes:
        """``blob`` rebuilt with one chunk's RARE payload damaged."""
        info = fmt.inspect_container(blob)
        offsets = fmt.payload_offsets(info)
        payloads = [blob[o : o + s] for o, s in zip(offsets, info.chunk_sizes)]
        for i, payload in enumerate(payloads):
            if payload[0] != 1 or payload[6 + payload[5]] == 0:
                continue  # raw chunk, or RARE stored it unsplit
            bad = _mutate(payload[1:], damage, 64)
            if bad is not None:
                payloads[i] = payload[:1] + bad
                break
        else:
            pytest.skip(f"no chunk carries a {damage} field")
        indexed = info.index_out_lengths is not None
        return fmt.build_container(
            codec_id=info.codec_id, dtype_code=info.dtype_code,
            original_len=info.original_len, intermediate_len=info.intermediate_len,
            chunk_size=info.chunk_size, chunk_payloads=payloads, shape=info.shape,
            chunk_index=indexed, out_lengths=list(info.decoded_lengths()) if indexed else None,
            fcm_restart=info.fcm_restart,
        )

    @pytest.mark.parametrize("damage", DAMAGE)
    def test_strict_and_salvage_match_per_chunk(self, container, damage):
        bad = self._damaged(container, damage)
        errors = []
        for batch in (True, False):
            with pytest.raises(ReproError) as info:
                decompress_bytes(bad, batch=batch)
            errors.append((type(info.value), str(info.value)))
        assert errors[0] == errors[1]
        salvaged = [decompress_bytes(bad, batch=batch, errors="salvage") for batch in (True, False)]
        assert salvaged[0][0] == salvaged[1][0]
        assert salvaged[0][2] == salvaged[1][2]
        assert salvaged[0][2].failures


class TestBatchingIsReal:
    @pytest.mark.parametrize("fcm", ["global", "restart"])
    def test_per_chunk_paths_rarely_run(self, fcm, monkeypatch):
        calls = {"rows": 0, "per_chunk": 0}
        for cls in (RAZE, RARE):
            for name in ("encode", "decode"):
                original = getattr(cls, name)

                def spy(self, data, _original=original):
                    calls["per_chunk"] += 1
                    return _original(self, data)

                monkeypatch.setattr(cls, name, spy)
            for name in ("encode_batch", "decode_batch"):
                original = getattr(cls, name)

                def count(self, chunks, _original=original):
                    calls["rows"] += len(chunks)
                    return _original(self, chunks)

                monkeypatch.setattr(cls, name, count)
        field = _corpus_field("Miranda/miranda_density")
        blob = compress_bytes(field, get_codec("dpratio"), fcm=fcm, batch=True)
        data, _ = decompress_bytes(blob, batch=True)
        assert data == field
        # Both encode stages see every chunk; raw-stored chunks skip decode.
        assert calls["rows"] >= 2 * fmt.inspect_container(blob).n_chunks
        assert calls["per_chunk"] <= 0.05 * calls["rows"]
