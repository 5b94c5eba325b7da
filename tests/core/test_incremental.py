"""The streamed compressor encodes through the engine's block job."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.codecs import get_codec
from repro.core.compressor import compress_bytes
from repro.core.incremental import StreamingCompressor
from repro.core.pipeline import Pipeline


@pytest.fixture
def calls(monkeypatch):
    """Counts of the pipeline's per-chunk and batched encode calls."""
    seen = {"encode_chunk": [], "encode_chunk_batch": []}
    for name, log in seen.items():
        original = getattr(Pipeline, name)

        def spy(self, chunks, *args, _original=original, _log=log, **kwargs):
            _log.append(len(chunks) if isinstance(chunks, list) else 1)
            return _original(self, chunks, *args, **kwargs)

        monkeypatch.setattr(Pipeline, name, spy)
    return seen


@pytest.mark.parametrize("codec_name", ["spratio", "dpratio"])
def test_a_feed_completing_four_chunks_makes_one_batched_call(codec_name, calls):
    codec = get_codec(codec_name)
    chunk_size = 4096
    rng = np.random.default_rng(11)
    per_chunk = chunk_size // codec.dtype.itemsize
    walk = np.cumsum(rng.normal(scale=0.01, size=4 * per_chunk + 100))
    data = np.round(walk, 3).astype(codec.dtype).tobytes()
    enc = StreamingCompressor(codec, total_len=len(data), chunk_size=chunk_size)
    fed = enc.feed(data)
    assert [index for index, _ in fed] == [0, 1, 2, 3]
    assert calls == {"encode_chunk": [], "encode_chunk_batch": [4]}
    assert enc.bytes_buffered == len(data) - 4 * chunk_size
    tail = enc.flush()
    assert [index for index, _ in tail] == [4]
    assert calls == {"encode_chunk": [1], "encode_chunk_batch": [4]}
    streamed = enc.prefix() + b"".join(p for _, p in fed + tail)
    assert streamed == compress_bytes(data, codec, chunk_size=chunk_size,
                                      fcm="restart")
