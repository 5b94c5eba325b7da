"""Container v4: the per-chunk codec table.

Validation must reject every malformed table before a single payload
byte is trusted; concat composes mixed inputs into a correct merged
table; salvage attributes each failure to the member codec that owns
the chunk; and the v4 bytes of files written by the retired adaptive
``auto`` codec are frozen by golden digests — those files must keep
decoding, so a change here means a new wire version, not an updated hash.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

import repro
from repro.cli import main
from repro.core import container as fmt
from repro.core.codecs import codec_by_id, get_codec
from repro.core.compressor import compress_bytes, decompress_bytes
from repro.errors import CorruptDataError, FormatError, ReproError, UnknownCodecError
from repro.fuzzing import (
    CODEC_TABLE_MUST_REJECT,
    FLAG_MUST_REJECT,
    mutate,
)

CHUNK = 8192
#: The v4 header id (``mixed``): ``concat`` writes it, and so did the
#: retired adaptive ``auto`` codec.
MIXED_ID = 5


def _auto_v4(data: bytes, table: tuple[int, ...], dtype_code: int) -> bytes:
    """The v4 container the retired ``auto`` codec wrote after choosing
    ``table``: each payload is its member pipeline's own encoding of one
    ``CHUNK``-byte chunk, under the mixed header id."""
    chunks = [data[i : i + CHUNK] for i in range(0, len(data), CHUNK)]
    assert len(chunks) == len(table)
    return fmt.build_container(
        codec_id=MIXED_ID, dtype_code=dtype_code, original_len=len(data),
        intermediate_len=len(data), chunk_size=CHUNK,
        chunk_payloads=[
            codec_by_id(cid).make_pipeline(fcm_restart=True).encode_chunk(chunk)
            for cid, chunk in zip(table, chunks)
        ],
        checksum=fmt.checksum_of(data), chunk_crcs=True, chunk_codecs=list(table),
    )


def _mixed_f32(seed: int = 0x4D495853) -> bytes:
    rng = np.random.default_rng(seed)
    smooth = np.cumsum(rng.normal(size=3 * CHUNK // 4)).astype("<f4")
    noisy = rng.random(3 * CHUNK // 4).astype("<f4")
    return np.concatenate([smooth, noisy]).tobytes()


def _mixed_v4_blob() -> tuple[bytes, bytes]:
    """A genuinely mixed v4 container built by concat, plus its data."""
    rng = np.random.default_rng(0xC4)
    a = np.cumsum(rng.normal(size=2 * CHUNK // 4)).astype("<f4").tobytes()
    b = rng.random(2 * CHUNK // 4).astype("<f4").tobytes()
    blob = fmt.concat_containers([
        compress_bytes(a, get_codec("spratio"), chunk_size=CHUNK,
                       dtype_code=fmt.DTYPE_F32, chunk_checksums=True),
        compress_bytes(b, get_codec("spspeed"), chunk_size=CHUNK,
                       dtype_code=fmt.DTYPE_F32, chunk_checksums=True),
    ])
    return blob, a + b


class TestBuildValidation:
    def test_table_length_must_match_chunks(self):
        with pytest.raises(ValueError, match="one codec id per chunk"):
            fmt.build_container(
                codec_id=5, dtype_code=fmt.DTYPE_F32, original_len=8,
                intermediate_len=8, chunk_size=8,
                chunk_payloads=[b"\x00ab"], chunk_codecs=[1, 2],
            )

    def test_table_excludes_container_restart_flag(self):
        with pytest.raises(ValueError, match="restart"):
            fmt.build_container(
                codec_id=5, dtype_code=fmt.DTYPE_F64, original_len=8,
                intermediate_len=8, chunk_size=8,
                chunk_payloads=[b"\x00ab"], chunk_codecs=[3],
                fcm_restart=True,
            )

    def test_version_is_4_with_table(self):
        blob = fmt.build_container(
            codec_id=5, dtype_code=fmt.DTYPE_F32, original_len=4,
            intermediate_len=4, chunk_size=4,
            chunk_payloads=[b"\x00abcd"], chunk_codecs=[1],
        )
        info = fmt.inspect_container(blob)
        assert info.version == fmt.VERSION_CHUNK_CODECS
        assert info.chunk_codecs == (1,)


class TestInspectValidation:
    def _v4(self) -> bytes:
        blob, _ = _mixed_v4_blob()
        return blob

    def test_unknown_member_id_rejected(self):
        buf = bytearray(self._v4())
        info = fmt.inspect_container(bytes(buf))
        table_at = info.payload_offset - info.n_chunks
        buf[table_at] = 0xEE
        with pytest.raises(FormatError, match="not a known fixed codec"):
            fmt.inspect_container(bytes(buf))

    def test_selector_id_in_table_rejected(self):
        # The mixed header id can never appear in the table: there is no
        # pipeline behind it.
        buf = bytearray(self._v4())
        info = fmt.inspect_container(bytes(buf))
        buf[info.payload_offset - 1] = MIXED_ID
        with pytest.raises(FormatError, match="not a known fixed codec"):
            fmt.inspect_container(bytes(buf))

    def test_restart_flag_with_table_rejected(self):
        buf = bytearray(self._v4())
        buf[7] |= fmt.FLAG_FCM_RESTART
        with pytest.raises(FormatError, match="restart"):
            fmt.inspect_container(bytes(buf))

    def test_intermediate_len_must_equal_original(self):
        buf = bytearray(self._v4())
        info = fmt.inspect_container(bytes(buf))
        # intermediate_len lives at offset 16 in the <4sBBBBQQII header.
        import struct

        struct.pack_into("<Q", buf, 16, info.original_len + 8)
        with pytest.raises(FormatError, match="intermediate length"):
            fmt.inspect_container(bytes(buf))

    def test_raw_fallback_with_table_flag_rejected(self):
        # What ``auto`` wrote on incompressible input: a v1 raw fallback
        # under the mixed header id.
        data = np.random.default_rng(1).bytes(64)
        raw = fmt.build_raw_container(codec_id=MIXED_ID, dtype_code=fmt.DTYPE_BYTES,
                                      data=data, checksum=fmt.checksum_of(data))
        info = fmt.inspect_container(raw)
        assert info.raw_fallback
        buf = bytearray(raw)
        buf[7] |= fmt.FLAG_CHUNK_CODECS
        # On the v1 raw container the flag is unknown; claiming version 4
        # instead trips the dedicated raw-fallback rule.  Both reject.
        with pytest.raises(FormatError, match="unknown flag"):
            fmt.inspect_container(bytes(buf))
        buf[4] = fmt.VERSION_CHUNK_CODECS
        with pytest.raises(FormatError, match="codec table"):
            fmt.inspect_container(bytes(buf))

    def test_mixed_header_without_table_rejected(self):
        # A container claiming the mixed header id but carrying chunks
        # and no table says nothing about how to decode them — and a
        # table under a fixed header codec contradicts it.
        blob = fmt.build_container(
            codec_id=get_codec("spspeed").codec_id, dtype_code=fmt.DTYPE_F32,
            original_len=8, intermediate_len=8, chunk_size=8,
            chunk_payloads=[b"\x00" * 4],
        )
        buf = bytearray(blob)
        buf[5] = MIXED_ID
        with pytest.raises(CorruptDataError, match="needs a per-chunk codec table"):
            decompress_bytes(bytes(buf))
        buf = bytearray(self._v4())
        buf[5] = get_codec("spratio").codec_id
        with pytest.raises(CorruptDataError, match="is not 'mixed'"):
            decompress_bytes(bytes(buf))

    def test_truncated_table_rejected(self):
        blob = self._v4()
        info = fmt.inspect_container(blob)
        # Drop the final payload byte: the table region then swallows a
        # payload byte and the total payload length no longer matches.
        with pytest.raises(FormatError):
            fmt.inspect_container(blob[:-1])
        # Drop a table byte from the middle instead.
        table_at = info.payload_offset - info.n_chunks
        mutant = blob[: table_at + 1] + blob[table_at + 2 :]
        with pytest.raises(FormatError):
            fmt.inspect_container(mutant)


class TestConcatComposition:
    def test_uniform_inputs_stay_v3(self):
        data = _mixed_f32()
        blobs = [
            compress_bytes(data[: len(data) // 2], get_codec("spratio"),
                           chunk_size=CHUNK, dtype_code=fmt.DTYPE_F32),
            compress_bytes(data[len(data) // 2 :], get_codec("spratio"),
                           chunk_size=CHUNK, dtype_code=fmt.DTYPE_F32),
        ]
        merged = fmt.concat_containers(blobs)
        info = fmt.inspect_container(merged)
        assert info.version == 3
        assert info.chunk_codecs is None
        assert decompress_bytes(merged)[0] == data

    def test_v4_input_composes_into_merged_table(self):
        mixed, mixed_data = _mixed_v4_blob()
        extra = np.random.default_rng(9).random(CHUNK // 4).astype("<f4")
        tail = compress_bytes(extra.tobytes(), get_codec("spspeed"),
                              chunk_size=CHUNK, dtype_code=fmt.DTYPE_F32)
        merged = fmt.concat_containers([mixed, tail])
        info = fmt.inspect_container(merged)
        assert info.version == fmt.VERSION_CHUNK_CODECS
        mixed_info = fmt.inspect_container(mixed)
        assert info.chunk_codecs[: mixed_info.n_chunks] == mixed_info.chunk_codecs
        assert all(
            cid == get_codec("spspeed").codec_id
            for cid in info.chunk_codecs[mixed_info.n_chunks :]
        )
        assert decompress_bytes(merged)[0] == mixed_data + extra.tobytes()

    def test_raw_fallback_selector_member_gets_fixed_id(self):
        # An old ``auto`` raw fallback: the table cannot carry the mixed
        # header id, so its chunks take the lowest fixed codec id.
        noise = np.random.default_rng(3).bytes(2 * CHUNK)
        raw = fmt.build_raw_container(codec_id=MIXED_ID, dtype_code=fmt.DTYPE_F32,
                                      data=noise, checksum=fmt.checksum_of(noise))
        assert fmt.inspect_container(raw).raw_fallback
        other = compress_bytes(_mixed_f32(), get_codec("spratio"),
                               chunk_size=CHUNK, dtype_code=fmt.DTYPE_F32)
        merged = fmt.concat_containers([raw, other])
        info = fmt.inspect_container(merged)
        assert info.version == fmt.VERSION_CHUNK_CODECS
        assert MIXED_ID not in info.chunk_codecs
        assert info.chunk_codecs[:2] == (get_codec("spspeed").codec_id,) * 2
        assert decompress_bytes(merged)[0] == noise + _mixed_f32()


class TestMixedSalvageAttribution:
    def test_failure_names_the_member_codec(self):
        blob, data = _mixed_v4_blob()
        info = fmt.inspect_container(blob)
        assert len(set(info.chunk_codecs)) > 1
        for target in range(info.n_chunks):
            start = info.payload_offset + sum(info.chunk_sizes[:target])
            buf = bytearray(blob)
            buf[start + info.chunk_sizes[target] // 2] ^= 0x10
            got, _, report = decompress_bytes(bytes(buf), errors="salvage")
            assert [f.index for f in report.failures] == [target]
            failure = report.failures[0]
            member = get_codec(
                "spratio" if info.chunk_codecs[target] == 2 else "spspeed"
            )
            assert failure.codec == member.name
            assert f"codec {member.name}" in str(failure)
            assert len(got) == len(data)

    def test_clean_mixed_salvage_reports_no_failures(self):
        blob, data = _mixed_v4_blob()
        got, _, report = decompress_bytes(blob, errors="salvage")
        assert got == data
        assert list(report.failures) == []
        assert report.chunks_recovered == report.n_chunks


class TestCodecTableFuzzRegression:
    """The targeted sweep from the fuzz harness, frozen as a test: every
    codec-table mutator that changes the blob must be rejected."""

    def _cases(self):
        mixed, _ = _mixed_v4_blob()
        auto = _auto_v4(_mixed_f32(), (2,) * 6, fmt.DTYPE_F32)
        return {"mixed-concat": mixed, "auto": auto}

    @pytest.mark.parametrize("mutator", sorted(CODEC_TABLE_MUST_REJECT))
    def test_table_mutators_rejected_on_v4(self, mutator):
        for label, blob in self._cases().items():
            for seed in range(10):
                rng = np.random.default_rng(seed)
                mutant = mutate(blob, mutator, rng)
                if mutant == blob:
                    continue
                with pytest.raises(ReproError):
                    decompress_bytes(mutant)

    @pytest.mark.parametrize("mutator", sorted(FLAG_MUST_REJECT))
    def test_flag_mutator_rejected_everywhere(self, mutator):
        # On v4 the cleared flag breaks geometry; on v1-v3 the set flag
        # is unknown for that version.  Both directions must reject.
        cases = self._cases()
        cases["plain-v1"] = compress_bytes(
            _mixed_f32(), get_codec("spratio"), chunk_size=CHUNK,
            dtype_code=fmt.DTYPE_F32,
        )
        for label, blob in cases.items():
            rng = np.random.default_rng(0)
            mutant = mutate(blob, mutator, rng)
            assert mutant != blob, label
            with pytest.raises(ReproError):
                decompress_bytes(mutant)


#: sha256 of the v4 containers the retired adaptive ``auto`` codec wrote
#: over the corpus below, recorded when it landed.  It routed every f32
#: chunk to SPratio (id 2) and every f64 chunk to DPspeed (id 3); the
#: ``mixed-f*/auto`` containers are rebuilt from those tables, and files
#: holding these bytes must keep decoding — a digest change means the
#: container writer changed, never a reason to update a hash.
GOLDEN_V4_SHA256 = {
    "mixed-f32/auto": "bd94b4e4d9ede28796013cfc546f735c37b5a18284033a9dac1bedfff2bfdd79",
    "mixed-f64/auto": "8e22ebe71038f2a4ad55da6019b720a89aa2a4de7beea0683b59ac8a2c3301fa",
    "concat/sp-mixed": "41b4abd4bf7188e57030106c6dd6a92d184a3a8779a16654433f32a27fb4d4e1",
}


def _v4_corpus():
    rng = np.random.default_rng(0x1DEA)
    f32 = np.concatenate([
        np.cumsum(rng.normal(size=3 * CHUNK // 4)).astype("<f4"),
        rng.random(3 * CHUNK // 4).astype("<f4"),
    ])
    f64 = np.concatenate([
        np.cumsum(rng.normal(size=2 * CHUNK // 8)).astype("<f8"),
        rng.random(2 * CHUNK // 8).astype("<f8"),
    ])
    return f32, f64


class TestGoldenV4Digests:
    def test_selector_containers_byte_identical(self):
        f32, f64 = _v4_corpus()
        seen = {}
        blob32 = _auto_v4(f32.tobytes(), (2,) * 6, fmt.DTYPE_F32)
        blob64 = _auto_v4(f64.tobytes(), (3,) * 4, fmt.DTYPE_F64)
        assert fmt.inspect_container(blob32).version == 4
        assert fmt.inspect_container(blob64).version == 4
        seen["mixed-f32/auto"] = hashlib.sha256(blob32).hexdigest()
        seen["mixed-f64/auto"] = hashlib.sha256(blob64).hexdigest()
        merged, _ = _mixed_v4_blob()
        seen["concat/sp-mixed"] = hashlib.sha256(merged).hexdigest()
        assert seen == GOLDEN_V4_SHA256

    def test_v4_corpus_round_trips(self):
        from repro.core.compressor import decompress_range_bytes

        f32, f64 = _v4_corpus()
        for arr, table, code in ((f32, (2,) * 6, fmt.DTYPE_F32),
                                 (f64, (3,) * 4, fmt.DTYPE_F64)):
            data = arr.tobytes()
            blob = _auto_v4(data, table, code)
            assert repro.inspect(blob).codec_id == MIXED_ID
            out, _ = decompress_bytes(blob)
            assert out == data
            for start, stop in ((16, 4096), (CHUNK - 3, 2 * CHUNK + 5),
                                (0, len(data))):
                window, _ = decompress_range_bytes(blob, start, stop)
                assert window == data[start:stop]


class TestRetiredAutoCodec:
    def test_auto_name_rejected(self, tmp_path, capsys):
        x = np.linspace(0.0, 1.0, 1024, dtype=np.float32)
        with pytest.raises(UnknownCodecError, match="dpratio, dpspeed, spratio, spspeed"):
            repro.compress(x, "auto")
        src = tmp_path / "x.f32"
        src.write_bytes(x.tobytes())
        assert main(["compress", str(src), str(tmp_path / "x.fprz"),
                     "--codec", "auto"]) == 1
        assert capsys.readouterr().err.startswith("error: ")
        assert not (tmp_path / "x.fprz").exists()
