"""Cross-path differential oracle: every encode and decode path agrees.

One hypothesis draw is a case: dtype, element count (0 to ~6 chunks,
ragged tails included), chunk size, codec, FCM mode, the two checksum
flags, a data shape (smooth, incompressible, or half of each), a split
point and a few element slices.  The case is compressed through every
encode path and every container must equal the serial per-chunk
reference byte for byte; the reference container is then decoded
through every decode path and every result must equal the input.

The ``mixed`` codec stands for the v4 per-chunk codec table: its
reference is the ``concat`` of the speed codec's container over the
elements before the split point and the ratio codec's restart-framed
container over the rest.  Its halves' encode paths are the fixed
codecs' own, so it runs the decode paths only.

Fixed examples pin what a draw of at most 6 chunks cannot reach: more
chunks than the 7-worker schedule has threads, and a 29-chunk SPspeed
and DPspeed case whose batched serial decode runs MPLG's grouped kernel
(groups of at least ``_MIN_DECODE_GROUP`` = 24 equal-geometry chunks).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from hypothesis import example, given, settings, strategies as st

import repro
from repro.core import container as fmt
from repro.core.codecs import get_codec
from repro.core.compressor import (
    compress_bytes,
    decompress_bytes,
    decompress_range_bytes,
)
from repro.core.incremental import StreamingCompressor, StreamingDecompressor

CODECS = {
    np.float32: ("spspeed", "spratio", "mixed"),
    np.float64: ("dpspeed", "dpratio", "mixed"),
}
DTYPE_CODES = {np.float32: fmt.DTYPE_F32, np.float64: fmt.DTYPE_F64}
CHUNK_SIZES = (1024, 4096, 16384)
KINDS = ("smooth", "noise", "mixed")

#: Every encode/decode schedule compared to the reference: batched and
#: per-chunk blocks each under 2 and 3 threads, and more threads than
#: most draws have chunks.
SCHEDULES = (
    {"executor": "serial", "batch": True},
    {"executor": "threaded", "workers": 2, "batch": False},
    {"executor": "threaded", "workers": 2, "batch": True},
    {"executor": "threaded", "workers": 3, "batch": False},
    {"executor": "threaded", "workers": 3},
    {"executor": "threaded", "workers": 7},
)


@dataclass(frozen=True)
class Case:
    dtype: type
    codec: str
    chunk_size: int
    n_items: int
    kind: str
    seed: int
    fcm: str
    checksum: bool
    chunk_checksums: bool
    split: int
    slices: tuple[tuple[int, int], ...]

    def array(self) -> np.ndarray:
        rng = np.random.default_rng(self.seed)
        walk = np.cumsum(rng.normal(scale=0.01, size=self.n_items)).astype(self.dtype)
        noise = rng.integers(0, 256, size=walk.nbytes, dtype=np.uint8).view(self.dtype)
        if self.kind == "smooth":
            return walk
        if self.kind == "noise":
            return noise
        half = self.n_items // 2
        return np.concatenate([walk[:half], noise[half:]])

    @property
    def seekable(self) -> bool:
        """Chunks decode independently (no cross-chunk FCM state)."""
        return self.codec != "dpratio" or self.fcm == "restart"


@st.composite
def cases(draw) -> Case:
    dtype = draw(st.sampled_from(sorted(CODECS, key=lambda t: t.__name__)))
    chunk_size = draw(st.sampled_from(CHUNK_SIZES))
    per_chunk = chunk_size // np.dtype(dtype).itemsize
    full = draw(st.integers(0, 6))
    tail = draw(st.integers(0, per_chunk - 1)) if full else 0
    n = full * per_chunk - tail
    bounds = st.tuples(st.integers(0, n), st.integers(0, n)).map(sorted).map(tuple)
    return Case(
        dtype=dtype,
        codec=draw(st.sampled_from(CODECS[dtype])),
        chunk_size=chunk_size,
        n_items=n,
        kind=draw(st.sampled_from(KINDS)),
        seed=draw(st.integers(0, 2**16)),
        fcm=draw(st.sampled_from(("global", "restart"))),
        checksum=draw(st.booleans()),
        chunk_checksums=draw(st.booleans()),
        split=draw(st.integers(0, n)),
        slices=tuple(draw(st.lists(bounds, min_size=1, max_size=3))),
    )


def _fixed(codec: str, dtype, full_chunks: int = 4) -> Case:
    """A smooth case of ``full_chunks`` chunks plus a half chunk, with
    every flag on."""
    per_chunk = 4096 // np.dtype(dtype).itemsize
    n = full_chunks * per_chunk + per_chunk // 2
    return Case(dtype=dtype, codec=codec, chunk_size=4096, n_items=n,
                kind="smooth", seed=7, fcm="restart", checksum=True,
                chunk_checksums=True, split=n // 3,
                slices=((0, n), (per_chunk - 3, per_chunk + 5), (n - 1, n)))


def _compress(case: Case, data: bytes, codec: str | None = None,
              fcm: str | None = None, **kwargs) -> bytes:
    return compress_bytes(
        data, get_codec(codec or case.codec), chunk_size=case.chunk_size,
        dtype_code=DTYPE_CODES[case.dtype], shape=(len(data) // np.dtype(case.dtype).itemsize,),
        checksum=case.checksum, chunk_checksums=case.chunk_checksums,
        fcm=fcm or case.fcm, **kwargs,
    )


def _concat_halves(case: Case, data: bytes, first: str, second: str) -> bytes:
    """``concat`` of ``first``'s container over the elements before the
    split point and ``second``'s over the rest, both restart-framed."""
    split = case.split * np.dtype(case.dtype).itemsize
    return repro.concat([
        _compress(case, data[:split], codec=first, fcm="restart"),
        _compress(case, data[split:], codec=second, fcm="restart"),
    ])


def _reference(case: Case, data: bytes) -> bytes:
    if case.codec == "mixed":
        speed, ratio = CODECS[case.dtype][:2]
        return _concat_halves(case, data, speed, ratio)
    return _compress(case, data, executor="serial", batch=False)


def _streamed_encode(case: Case, data: bytes) -> bytes:
    enc = StreamingCompressor(
        get_codec(case.codec), total_len=len(data), chunk_size=case.chunk_size,
        dtype_code=DTYPE_CODES[case.dtype], shape=(case.n_items,),
        checksum=case.checksum, chunk_checksums=case.chunk_checksums,
    )
    payloads = []
    for pos in range(0, len(data), 3001):
        payloads += [p for _, p in enc.feed(data[pos : pos + 3001])]
    payloads += [p for _, p in enc.flush()]
    return enc.prefix() + b"".join(payloads)


def _streamed_decode(blob: bytes) -> bytes:
    dec = StreamingDecompressor(total_len=len(blob))
    out = []
    for pos in range(0, len(blob), 2999):
        out += [chunk for _, chunk in dec.feed(blob[pos : pos + 2999])]
    dec.finish()
    return b"".join(out)


def _check_encode_paths(case: Case, data: bytes, reference: bytes) -> None:
    for schedule in SCHEDULES:
        assert _compress(case, data, **schedule) == reference, schedule
    streamable = (case.seekable
                  and not fmt.inspect_container(reference).raw_fallback)
    if streamable:
        assert _streamed_encode(case, data) == reference


def _check_decode_paths(case: Case, array: np.ndarray, blob: bytes) -> None:
    data = array.tobytes()
    itemsize = array.itemsize
    for schedule in SCHEDULES:
        assert decompress_bytes(blob, **schedule)[0] == data, schedule
        got, _, report = decompress_bytes(blob, errors="salvage", **schedule)
        assert got == data and report.ok, schedule
        assert report.failures == () and report.damaged_ranges == ()
        for a, b in case.slices:
            part, _ = decompress_range_bytes(blob, a * itemsize, b * itemsize, **schedule)
            assert part == data[a * itemsize : b * itemsize], (schedule, a, b)
            part, _, report = decompress_range_bytes(
                blob, a * itemsize, b * itemsize, errors="salvage", **schedule)
            assert part == data[a * itemsize : b * itemsize] and report.ok
    assert np.array_equal(repro.decompress(blob), array, equal_nan=True)
    with repro.ContainerReader(blob) as reader:
        for a, b in case.slices:
            assert reader[a:b].tobytes() == data[a * itemsize : b * itemsize]
            assert repro.decompress_range(blob, a, b).tobytes() == reader.read(a, b).tobytes()
    if case.seekable:
        assert _streamed_decode(blob) == data
    if case.seekable and case.codec != "mixed":
        halves = _concat_halves(case, data, case.codec, case.codec)
        assert decompress_bytes(halves)[0] == data


@settings(max_examples=60, deadline=None)
@given(case=cases())
@example(case=_fixed("spspeed", np.float32))
@example(case=_fixed("spratio", np.float32))
@example(case=_fixed("dpspeed", np.float64))
@example(case=_fixed("dpratio", np.float64))
# Threaded decode of a v4 container with a DPratio member.
@example(case=_fixed("mixed", np.float64))
# 29 chunks: MPLG's grouped decode under the batched serial schedule.
@example(case=_fixed("spspeed", np.float32, full_chunks=28))
@example(case=_fixed("dpspeed", np.float64, full_chunks=28))
# Concat of two empty FCM containers must stay decodable.
@example(case=Case(dtype=np.float64, codec="dpratio", chunk_size=4096, n_items=0,
                   kind="smooth", seed=0, fcm="restart", checksum=True,
                   chunk_checksums=True, split=0, slices=((0, 0),)))
def test_every_path_agrees(case: Case) -> None:
    array = case.array()
    data = array.tobytes()
    reference = _reference(case, data)
    if case.codec != "mixed":
        _check_encode_paths(case, data, reference)
    _check_decode_paths(case, array, reference)
