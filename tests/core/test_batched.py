"""Batched (columnar) stage execution and its error semantics.

The batching contract is strict byte-identity: ``batch=True`` must
produce the same container bytes as the per-chunk loop for every codec
and every input geometry, and a batched or threaded decode must fail
with the serial error (type, message, lowest failing chunk).  These
tests sweep the geometry space — chunk counts 1/2/17/29, a
ragged final chunk, empty input — and pin the batch fallback of stages
without a 2D kernel to the per-chunk loop.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro.core import container as fmt
from repro.core.chunking import CHUNK_SIZE
from repro.core.codecs import CODECS, get_codec
from repro.core.compressor import compress_bytes, decompress_bytes
from repro.errors import ChecksumError, ReproError
from repro.stages import ByteShuffle, XorDelta


def _sample(rng, dtype, n) -> bytes:
    return np.cumsum(rng.normal(scale=0.01, size=n)).astype(dtype).tobytes()


def _geometry_bytes(codec, n_chunks: int, ragged: bool) -> int:
    """Input size spanning ``n_chunks`` chunks, optionally ragged."""
    size = n_chunks * CHUNK_SIZE
    if ragged:
        # Knock a partial word-count off the final chunk (but keep the
        # chunk non-empty), so the last chunk exercises tail handling.
        size -= 5 * codec.dtype.itemsize + 3
    return size


@pytest.mark.parametrize("name", sorted(CODECS))
class TestBatchedByteIdentity:
    """The tentpole invariant, swept over the geometry space."""

    # 29 sits above MPLG's _MIN_DECODE_GROUP so the sweep also covers
    # the grouped decode kernels, not just their small-batch fallback.
    @pytest.mark.parametrize("n_chunks", [1, 2, 17, 29])
    @pytest.mark.parametrize("ragged", [False, True])
    def test_batched_matches_serial_loop(self, name, n_chunks, ragged, rng):
        codec = get_codec(name)
        size = _geometry_bytes(codec, n_chunks, ragged)
        data = _sample(rng, codec.dtype, size // codec.dtype.itemsize)
        serial = compress_bytes(data, codec, batch=False)
        batched = compress_bytes(data, codec, batch=True)
        # Golden equality via digest (exact bytes, reported compactly).
        assert (
            hashlib.sha256(batched).hexdigest()
            == hashlib.sha256(serial).hexdigest()
        ), (name, n_chunks, ragged)
        # The chunk count follows the *intermediate* buffer (a global
        # stage may expand it), but it always covers the input.
        assert fmt.inspect_container(batched).n_chunks >= n_chunks
        for batch in (True, False):
            back, _ = decompress_bytes(batched, batch=batch)
            assert back == data, (name, n_chunks, ragged, batch)

    def test_empty_input(self, name, rng):
        codec = get_codec(name)
        serial = compress_bytes(b"", codec, batch=False)
        batched = compress_bytes(b"", codec, batch=True)
        assert batched == serial
        back, _ = decompress_bytes(batched, batch=True)
        assert back == b""

    def test_auto_batching_is_default(self, name, rng):
        """``batch=None`` (the default) batches multi-chunk inputs."""
        codec = get_codec(name)
        data = _sample(rng, codec.dtype, 3 * CHUNK_SIZE // codec.dtype.itemsize)
        assert compress_bytes(data, codec) == compress_bytes(
            data, codec, batch=True
        )


class TestBatchFallbackRegression:
    """A stage without a 2D kernel must batch via the per-chunk loop."""

    @pytest.mark.parametrize("stage_cls", [XorDelta, ByteShuffle])
    def test_default_encode_batch_is_the_loop(self, stage_cls, rng):
        stage = stage_cls(word_bits=32)
        chunks = [
            _sample(rng, np.float32, n) for n in (0, 17, 1024, 1024, 4096)
        ]
        encoded = stage.encode_batch(chunks)
        assert encoded == [stage.encode(c) for c in chunks]
        assert stage.decode_batch(encoded) == [
            stage.decode(p) for p in encoded
        ]


def _corrupt_chunk(blob: bytes, chunk_index: int) -> bytes:
    """Flip a payload byte inside one chunk of a v2 container."""
    info = fmt.inspect_container(blob)
    offset = info.payload_offset + sum(info.chunk_sizes[:chunk_index])
    mutated = bytearray(blob)
    mutated[offset + 2] ^= 0xFF
    return bytes(mutated)


class TestThreadedErrorSemantics:
    """Threaded decodes fail with the serial error: type, message, and
    the lowest failing chunk, however the blocks fall across threads."""

    @pytest.fixture
    def container(self, rng):
        codec = get_codec("spratio")
        data = _sample(rng, codec.dtype, 60_000)
        blob = compress_bytes(data, codec, checksum=False,
                              chunk_checksums=True)
        assert fmt.inspect_container(blob).n_chunks >= 4
        return blob

    def _error_of(self, blob, **kwargs):
        with pytest.raises(ReproError) as excinfo:
            decompress_bytes(blob, **kwargs)
        return type(excinfo.value), str(excinfo.value)

    @pytest.mark.parametrize("batch", [True, False])
    def test_same_error_as_serial(self, container, batch):
        bad = _corrupt_chunk(container, 2)
        serial = self._error_of(bad, executor="serial")
        assert self._error_of(bad, executor="threaded", workers=2,
                              batch=batch) == serial
        assert serial[0] is ChecksumError
        assert "chunk 2" in serial[1]

    @pytest.mark.parametrize("workers", [2, 3, 7])
    def test_lowest_failing_chunk_wins(self, container, workers):
        bad = _corrupt_chunk(_corrupt_chunk(container, 3), 1)
        serial = self._error_of(bad, executor="serial")
        assert "chunk 1" in serial[1]
        for batch in (True, False):
            assert self._error_of(bad, executor="threaded", workers=workers,
                                  batch=batch) == serial

    def test_batched_blocks_report_serial_errors(self, container):
        bad = _corrupt_chunk(container, 2)
        serial = self._error_of(bad, executor="serial", batch=False)
        assert self._error_of(bad, executor="serial", batch=True) == serial
        assert self._error_of(bad, executor="threaded", workers=3) == serial

    def test_salvage_works_under_threaded_executor(self, container):
        bad = _corrupt_chunk(container, 2)
        data, info, report = decompress_bytes(
            bad, executor="threaded", workers=2, errors="salvage"
        )
        assert [f.index for f in report.failures] == [2]
        assert report.damaged_ranges  # chunk 2 was zero-filled
        assert len(data) == info.original_len
