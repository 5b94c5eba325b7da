"""Container v3: the explicit chunk index, FCM restart framing, concat.

The v3 index is *redundant by design* — its offsets must equal the
chunk-size prefix sums exactly — so these tests tamper with stored
indices byte-by-byte and assert the parser rejects every contradiction
(the same contract the ``index-*`` fuzz mutators probe statistically).
"""

from __future__ import annotations

import struct

import numpy as np
import pytest

from repro.core import container as fmt
from repro.core.chunking import CHUNK_SIZE
from repro.core.codecs import CODECS, get_codec
from repro.core.compressor import compress_bytes, decompress_bytes
from repro.errors import FormatError


def _walk(rng, codec, n_bytes: int = 100_000) -> bytes:
    n = n_bytes // codec.dtype.itemsize
    return np.cumsum(rng.normal(scale=0.01, size=n)).astype(codec.dtype).tobytes()


class TestRestartFraming:
    def test_restart_writes_v3_and_round_trips(self, rng):
        codec = get_codec("dpratio")
        data = _walk(rng, codec)
        blob = compress_bytes(data, codec, fcm="restart")
        info = fmt.inspect_container(blob)
        assert info.version == 3
        assert info.fcm_restart
        assert info.intermediate_len == info.original_len  # no global pass
        back, _ = decompress_bytes(blob)
        assert back == data

    def test_global_still_writes_legacy_versions(self, rng):
        codec = get_codec("dpratio")
        data = _walk(rng, codec)
        v2 = compress_bytes(data, codec, fcm="global")
        v1 = compress_bytes(data, codec, fcm="global",
                            checksum=False, chunk_checksums=False)
        assert fmt.inspect_container(v2).version == 2
        assert fmt.inspect_container(v1).version == 1
        assert decompress_bytes(v2)[0] == data
        assert decompress_bytes(v1)[0] == data

    def test_restart_is_a_no_op_for_codecs_without_fcm(self, rng):
        codec = get_codec("spratio")
        data = _walk(rng, codec)
        assert compress_bytes(data, codec, fcm="restart") == \
            compress_bytes(data, codec)

    @pytest.mark.parametrize("policy", ["serial", "threaded"])
    def test_restart_output_identical_under_every_policy(self, policy, rng):
        codec = get_codec("dpratio")
        data = _walk(rng, codec)
        serial = compress_bytes(data, codec, fcm="restart")
        assert compress_bytes(data, codec, fcm="restart", workers=3,
                              executor=policy) == serial
        back, _ = decompress_bytes(serial, workers=3, executor=policy)
        assert back == data

    def test_bad_fcm_value_rejected(self, rng):
        codec = get_codec("dpratio")
        with pytest.raises(ValueError, match="fcm"):
            compress_bytes(b"\0" * 64, codec, fcm="chunked")


def _index_tables(blob: bytes) -> tuple[int, int, int]:
    """(offset_table, length_table, n_chunks) of a v3 index blob."""
    info = fmt.inspect_container(blob)
    assert info.index_offsets is not None
    return (info.payload_offset - 12 * info.n_chunks,
            info.payload_offset - 4 * info.n_chunks,
            info.n_chunks)


class TestChunkIndexValidation:
    @pytest.fixture
    def indexed(self, rng):
        codec = get_codec("spratio")
        data = _walk(rng, codec)
        half = len(data) // 2
        blob = fmt.concat_containers([
            compress_bytes(data[:half], codec),
            compress_bytes(data[half:], codec),
        ])
        return data, blob

    def test_offsets_match_prefix_sums_from_header_alone(self, indexed):
        _, blob = indexed
        info = fmt.inspect_container(blob)
        running = info.payload_offset
        for i, offset in enumerate(fmt.payload_offsets(info)):
            assert offset == running
            running += info.chunk_sizes[i]
        assert sum(info.decoded_lengths()) == info.intermediate_len

    def test_offset_mismatch_rejected(self, indexed):
        _, blob = indexed
        offset_table, _, n = _index_tables(blob)
        buf = bytearray(blob)
        (current,) = struct.unpack_from("<Q", buf, offset_table + 8)
        struct.pack_into("<Q", buf, offset_table + 8, current + 1)
        with pytest.raises(FormatError, match="index"):
            fmt.inspect_container(bytes(buf))

    def test_overlapping_entries_rejected(self, indexed):
        _, blob = indexed
        offset_table, _, n = _index_tables(blob)
        assert n >= 3
        buf = bytearray(blob)
        (first,) = struct.unpack_from("<Q", buf, offset_table)
        struct.pack_into("<Q", buf, offset_table + 8, first)  # alias chunk 0
        with pytest.raises(FormatError, match="index"):
            fmt.inspect_container(bytes(buf))

    def test_zero_or_oversized_out_length_rejected(self, indexed):
        _, blob = indexed
        _, length_table, n = _index_tables(blob)
        for bad in (0, CHUNK_SIZE + 1):
            buf = bytearray(blob)
            struct.pack_into("<I", buf, length_table, bad)
            with pytest.raises(FormatError):
                fmt.inspect_container(bytes(buf))

    def test_out_length_sum_must_match_intermediate_len(self, indexed):
        _, blob = indexed
        _, length_table, n = _index_tables(blob)
        buf = bytearray(blob)
        (current,) = struct.unpack_from("<I", buf, length_table + 4)
        struct.pack_into("<I", buf, length_table + 4, current - 1)
        with pytest.raises(FormatError):
            fmt.inspect_container(bytes(buf))

    def test_index_flag_requires_v3(self, indexed):
        _, blob = indexed
        buf = bytearray(blob)
        buf[4] = 2  # version byte: demote to v2 while keeping the flag
        with pytest.raises(FormatError):
            fmt.inspect_container(bytes(buf))

    def test_build_index_requires_out_lengths(self):
        with pytest.raises(ValueError, match="out_length"):
            fmt.build_container(
                codec_id=1, dtype_code=fmt.DTYPE_F32, original_len=8,
                intermediate_len=8, chunk_size=CHUNK_SIZE,
                chunk_payloads=[b"\1" * 9], chunk_index=True,
            )


class TestConcat:
    @pytest.mark.parametrize("name", sorted(CODECS))
    def test_concat_round_trips_and_is_v3(self, name, rng):
        codec = get_codec(name)
        pieces = [_walk(rng, codec, n) for n in (50_000, 33_296, 16_384)]
        blobs = [compress_bytes(p, codec, fcm="restart") for p in pieces]
        merged = fmt.concat_containers(blobs)
        info = fmt.inspect_container(merged)
        assert info.version == 3
        assert info.index_offsets is not None
        assert info.chunk_crcs is not None
        assert info.checksum is None  # whole-input CRC cannot be combined
        back, _ = decompress_bytes(merged)
        assert back == b"".join(pieces)

    def test_payloads_copied_verbatim(self, rng):
        codec = get_codec("spratio")
        a, b = _walk(rng, codec, 40_000), _walk(rng, codec, 50_000)
        blob_a = compress_bytes(a, codec)
        blob_b = compress_bytes(b, codec)
        merged = fmt.concat_containers([blob_a, blob_b])
        info_a = fmt.inspect_container(blob_a)
        info_m = fmt.inspect_container(merged)
        first_payload = blob_a[info_a.payload_offset:]
        assert merged[info_m.payload_offset:
                      info_m.payload_offset + len(first_payload)] == \
            first_payload

    def test_ragged_interior_chunks_stay_addressable(self, rng):
        # A non-chunk-multiple first input leaves a short chunk in the
        # *middle* of the merged container; only the explicit index can
        # describe that geometry.
        codec = get_codec("spspeed")
        a, b = _walk(rng, codec, 20_000), _walk(rng, codec, 30_000)
        merged = fmt.concat_containers([
            compress_bytes(a, codec), compress_bytes(b, codec),
        ])
        info = fmt.inspect_container(merged)
        lengths = info.decoded_lengths()
        assert lengths[1] == 20_000 - CHUNK_SIZE  # ragged, not tail
        back, _ = decompress_bytes(merged)
        assert back == a + b

    def test_mixed_codecs_merge_to_v4(self, rng):
        # Mixed-codec inputs used to be rejected; the merge now emits a
        # v4 container whose per-chunk codec table records each member.
        data_a = _walk(rng, get_codec("spratio"))
        data_b = _walk(rng, get_codec("spspeed"))
        a = compress_bytes(data_a, get_codec("spratio"))
        b = compress_bytes(data_b, get_codec("spspeed"))
        merged = fmt.concat_containers([a, b])
        info = fmt.inspect_container(merged)
        assert info.version == 4
        assert info.chunk_codecs is not None
        n_a = fmt.inspect_container(a).n_chunks
        assert set(info.chunk_codecs[:n_a]) == {get_codec("spratio").codec_id}
        assert set(info.chunk_codecs[n_a:]) == {get_codec("spspeed").codec_id}
        back, _ = decompress_bytes(merged)
        assert back == data_a + data_b

    def test_cross_chunk_fcm_inputs_rejected(self, rng):
        codec = get_codec("dpratio")
        data = _walk(rng, codec)
        legacy = compress_bytes(data, codec, fcm="global")
        with pytest.raises(FormatError, match="cross-chunk|restart"):
            fmt.concat_containers([legacy, legacy])

    def test_raw_fallback_inputs_are_rechunked(self, rng):
        codec = get_codec("spratio")
        noise = rng.bytes(40_000)  # stays raw under every stage
        raw = compress_bytes(noise, codec)
        assert fmt.inspect_container(raw).raw_fallback
        merged = fmt.concat_containers([raw, raw])
        back, _ = decompress_bytes(merged)
        assert back == noise + noise

    def test_concat_of_concat_chains(self, rng):
        codec = get_codec("spratio")
        pieces = [_walk(rng, codec, 30_000) for _ in range(3)]
        blobs = [compress_bytes(p, codec) for p in pieces]
        once = fmt.concat_containers(blobs[:2])
        twice = fmt.concat_containers([once, blobs[2]])
        back, _ = decompress_bytes(twice)
        assert back == b"".join(pieces)

    def test_empty_and_single_inputs(self, rng):
        with pytest.raises(ValueError, match="at least one"):
            fmt.concat_containers([])
        codec = get_codec("spratio")
        data = _walk(rng, codec, 30_000)
        solo = fmt.concat_containers([compress_bytes(data, codec)])
        assert decompress_bytes(solo)[0] == data
