"""Range decodes: byte-identity, O(range) chunk touch, salvage locality.

The contract under test (ISSUE 6 acceptance): ``decompress_range`` is
byte-identical to full-decompress-then-slice for every codec across the
boundary sweep, while decoding *only* the chunks overlapping the range —
asserted via trace chunk counts — and damage outside the range is never
even read.
"""

from __future__ import annotations

from bisect import bisect_right
from functools import lru_cache
from itertools import accumulate

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro.core import container as fmt
from repro.core.chunking import CHUNK_SIZE, chunk_count
from repro.core.codecs import CODECS, get_codec
from repro.core.compressor import (
    compress_bytes,
    decompress_bytes,
    decompress_range_bytes,
)
from repro.core.plan import ChunkJob, DecodePlan, RangePlan, plan_for_range
from repro.core.trace import TraceCollector
from repro.errors import BoundsError, CorruptDataError

#: kwargs that make each codec's containers chunk-independent (DPratio
#: needs restart framing; the others are seekable by construction).
SEEKABLE = {"dpratio": {"fcm": "restart"}}


def _sample(rng, codec, n_bytes: int = 160_000) -> bytes:
    n = n_bytes // codec.dtype.itemsize
    return np.cumsum(rng.normal(scale=0.01, size=n)).astype(codec.dtype).tobytes()


def _seekable_blob(rng, name: str, **kwargs) -> tuple[bytes, bytes]:
    codec = get_codec(name)
    data = _sample(rng, codec)
    merged = {**SEEKABLE.get(name, {}), **kwargs}
    return data, compress_bytes(data, codec, **merged)


#: The boundary sweep, as (start, stop) factories over ``n`` total bytes.
#: 160_000 B over 16_384 B chunks = 9 full chunks + a ragged tail.
SWEEP = {
    "empty": lambda n: (n // 2, n // 2),
    "single-byte": lambda n: (CHUNK_SIZE + 7, CHUNK_SIZE + 8),
    "within-chunk": lambda n: (100, 5_000),
    "chunk-aligned": lambda n: (CHUNK_SIZE, 2 * CHUNK_SIZE),
    "spanning-two": lambda n: (CHUNK_SIZE - 10, CHUNK_SIZE + 10),
    "spanning-many": lambda n: (CHUNK_SIZE // 2, 5 * CHUNK_SIZE + 3),
    "prefix": lambda n: (0, 3 * CHUNK_SIZE - 1),
    "suffix": lambda n: (n - 2 * CHUNK_SIZE - 5, n),
    "ragged-tail": lambda n: (n - 100, n),
    "full": lambda n: (0, n),
}


@pytest.mark.parametrize("name", sorted(CODECS))
class TestBoundarySweep:
    def test_byte_identity_vs_full_then_slice(self, name, rng):
        data, blob = _seekable_blob(rng, name)
        full, _ = decompress_bytes(blob)
        assert full == data
        for label, bounds in SWEEP.items():
            start, stop = bounds(len(data))
            got, _ = decompress_range_bytes(blob, start, stop)
            assert got == data[start:stop], f"{name}/{label}"

    def test_only_overlapping_chunks_decode(self, name, rng):
        data, blob = _seekable_blob(rng, name)
        info = fmt.inspect_container(blob)
        if info.raw_fallback:
            pytest.skip("raw containers slice the payload without decoding")
        n_chunks = chunk_count(len(data), CHUNK_SIZE)
        for label, bounds in SWEEP.items():
            start, stop = bounds(len(data))
            first = start // CHUNK_SIZE
            last = (stop - 1) // CHUNK_SIZE if stop > start else first - 1
            expected = list(range(first, min(last, n_chunks - 1) + 1))
            collector = TraceCollector()
            decompress_range_bytes(blob, start, stop, trace=collector,
                                   batch=False)
            assert collector.direction == "decompress-range"
            indices = [chunk.index for chunk in collector.chunks]
            assert indices == expected, f"{name}/{label}"


class TestSubsetPlans:
    def test_jobs_carry_global_indices(self, rng):
        data, blob = _seekable_blob(rng, "spratio")
        info = fmt.inspect_container(blob)
        plan = plan_for_range(info, 3 * CHUNK_SIZE + 1, 5 * CHUNK_SIZE + 1)
        assert [job.index for job in plan.plan.jobs] == [3, 4, 5]
        assert plan.aligned_start == 3 * CHUNK_SIZE
        assert plan.trim == (1, 2 * CHUNK_SIZE + 1)
        # Output offsets are plan-relative: a fresh buffer, not the file's.
        assert plan.plan.out_offsets[0] == 0

    def test_out_of_bounds_rejected(self, rng):
        data, blob = _seekable_blob(rng, "spspeed")
        info = fmt.inspect_container(blob)
        with pytest.raises(BoundsError):
            plan_for_range(info, 0, len(data) + 1)
        with pytest.raises(BoundsError):
            plan_for_range(info, -1, 10)
        with pytest.raises(BoundsError):
            plan_for_range(info, 10, 9)
        with pytest.raises(BoundsError):
            decompress_range_bytes(blob, 0, len(data) + 1)


def _reference_plan_for_range(info, start: int, stop: int) -> RangePlan:
    """The O(n) planner :func:`plan_for_range` replaced, kept as its
    oracle: prefix sums over every decoded length, and a walk over the
    chunk table for the payload offsets, on every call."""
    if not 0 <= start <= stop <= info.intermediate_len:
        raise BoundsError(f"range [{start}, {stop}) out of bounds")
    if info.chunk_size <= 0 and info.intermediate_len > 0:
        raise CorruptDataError("container header carries a zero chunk size")
    lengths = info.decoded_lengths()
    if len(lengths) != info.n_chunks:
        raise CorruptDataError("chunk count mismatch")
    starts = list(accumulate(lengths[:-1], initial=0)) if lengths else []
    if start == stop:
        empty = DecodePlan(jobs=(), out_offsets=(), out_lengths=(), out_len=0)
        return RangePlan(plan=empty, first_chunk=0,
                         aligned_start=start, start=start, stop=stop)
    lo = bisect_right(starts, start) - 1
    hi = bisect_right(starts, stop - 1)
    if info.index_offsets is not None:
        payload_starts = list(info.index_offsets)
    else:
        payload_starts, pos = [], info.payload_offset
        for size in info.chunk_sizes:
            payload_starts.append(pos)
            pos += size
    jobs = tuple(
        ChunkJob(index=i, offset=payload_starts[i], length=info.chunk_sizes[i])
        for i in range(lo, hi)
    )
    aligned_start = starts[lo]
    out_lengths = tuple(lengths[lo:hi])
    return RangePlan(
        plan=DecodePlan(
            jobs=jobs,
            out_offsets=tuple(starts[i] - aligned_start for i in range(lo, hi)),
            out_lengths=out_lengths,
            out_len=sum(out_lengths),
        ),
        first_chunk=lo,
        aligned_start=aligned_start,
        start=start,
        stop=stop,
    )


@lru_cache(maxsize=None)
def _plan_containers() -> dict[str, fmt.ContainerInfo]:
    """One parsed header per container geometry the planner serves."""
    rng = np.random.default_rng(2024)

    def walk(n: int, dtype) -> np.ndarray:
        return np.cumsum(rng.normal(scale=0.01, size=n)).astype(dtype)

    odd = [repro.compress(walk(n, np.float64), "dpratio", fcm="restart")
           for n in (5_003, 1, 2_049, 9_999)]
    mixed = [repro.compress(walk(7_001, np.float32), "spratio"),
             repro.compress(walk(3_333, np.float32), "spspeed"),
             repro.compress(walk(8_192, np.float32), "spratio")]
    blobs = {
        "uniform-v2": repro.compress(walk(41_000, np.float32), "spratio"),
        "restart-v3": repro.compress(walk(20_500, np.float64), "dpratio",
                                     fcm="restart"),
        "ragged-v3": repro.concat(odd),
        "mixed-v4": repro.concat(mixed),
    }
    infos = {kind: fmt.inspect_container(blob) for kind, blob in blobs.items()}
    assert [infos[k].version for k in blobs] == [2, 3, 3, 4]
    assert infos["ragged-v3"].index_out_lengths is not None
    assert len(set(infos["ragged-v3"].index_out_lengths[:-1])) > 1  # ragged
    return infos


class TestPlanMatchesReference:
    """:func:`plan_for_range` answers in O(1) from prefix sums cached on
    the parsed header; it must plan exactly what the O(n) walk planned."""

    @settings(max_examples=300, deadline=None)
    @given(kind=st.sampled_from(["uniform-v2", "restart-v3", "ragged-v3",
                                 "mixed-v4"]),
           shape=st.sampled_from(["empty", "single-byte", "boundary",
                                  "last-chunk", "any"]),
           data=st.data())
    def test_equal_plans(self, kind, shape, data):
        info = _plan_containers()[kind]
        n = info.intermediate_len
        edges = list(accumulate(info.decoded_lengths(), initial=0))
        if shape == "empty":
            start = stop = data.draw(st.integers(0, n))
        elif shape == "single-byte":
            start = data.draw(st.integers(0, n - 1))
            stop = start + 1
        elif shape == "boundary":
            start = data.draw(st.sampled_from(edges))
            stop = data.draw(st.sampled_from([e for e in edges if e >= start]))
        elif shape == "last-chunk":
            start = data.draw(st.integers(edges[-2], n))
            stop = data.draw(st.integers(start, n))
        else:
            start, stop = sorted(data.draw(st.lists(st.integers(0, n),
                                                    min_size=2, max_size=2)))
        assert plan_for_range(info, start, stop) == \
            _reference_plan_for_range(info, start, stop)

    @settings(max_examples=60, deadline=None)
    @given(kind=st.sampled_from(["uniform-v2", "restart-v3", "ragged-v3",
                                 "mixed-v4"]),
           data=st.data())
    def test_out_of_bounds_raises_in_both(self, kind, data):
        info = _plan_containers()[kind]
        n = info.intermediate_len
        start, stop = data.draw(st.sampled_from([
            (-1, 1), (0, n + 1), (n, n + 1), (5, 4), (n + 3, n + 3),
        ]))
        for planner in (plan_for_range, _reference_plan_for_range):
            with pytest.raises(BoundsError):
                planner(info, start, stop)

    def test_payload_offsets_read_the_cached_prefix(self):
        for info in _plan_containers().values():
            walk, pos = [], info.payload_offset
            for size in info.chunk_sizes:
                walk.append(pos)
                pos += size
            assert fmt.payload_offsets(info) == walk
            assert info.payload_bounds is info.payload_bounds  # computed once
            assert info.payload_bounds[-1] == info.total_len

    def test_zero_chunk_size_with_chunks_is_corrupt(self):
        blob = fmt.build_container(
            codec_id=get_codec("spspeed").codec_id, dtype_code=fmt.DTYPE_BYTES,
            original_len=0, intermediate_len=0, chunk_size=0,
            chunk_payloads=[b"\x00ab"],
        )
        info = fmt.inspect_container(blob)
        with pytest.raises(CorruptDataError, match="zero chunk size"):
            plan_for_range(info, 0, 0)
        with pytest.raises(CorruptDataError, match="zero chunk size"):
            repro.decompress(blob)

    def test_chunkless_header_with_decoded_bytes_is_corrupt(self):
        blob = fmt.build_container(
            codec_id=get_codec("spspeed").codec_id, dtype_code=fmt.DTYPE_BYTES,
            original_len=100, intermediate_len=100, chunk_size=CHUNK_SIZE,
            chunk_payloads=[],
        )
        with pytest.raises(CorruptDataError, match="chunk count mismatch"):
            decompress_range_bytes(blob, 10, 20)


class TestExecutorsOverRanges:
    @pytest.mark.parametrize("policy", ["threaded"])
    def test_policies_match_serial(self, policy, rng):
        data, blob = _seekable_blob(rng, "dpratio")
        start, stop = CHUNK_SIZE // 2, 7 * CHUNK_SIZE + 11
        serial, _ = decompress_range_bytes(blob, start, stop)
        parallel, _ = decompress_range_bytes(
            blob, start, stop, workers=3, executor=policy
        )
        assert parallel == serial == data[start:stop]


class TestLegacyFallback:
    def test_global_fcm_falls_back_to_full_decode(self, rng):
        codec = get_codec("dpratio")
        data = _sample(rng, codec)
        blob = compress_bytes(data, codec, fcm="global")
        assert fmt.inspect_container(blob).version <= 2
        start, stop = CHUNK_SIZE + 3, 4 * CHUNK_SIZE
        got, _ = decompress_range_bytes(blob, start, stop)
        assert got == data[start:stop]

    def test_raw_fallback_slices_payload(self, rng):
        data = rng.bytes(50_000)  # random bytes defeat every stage
        blob = compress_bytes(data, get_codec("spspeed"))
        assert fmt.inspect_container(blob).raw_fallback
        got, _ = decompress_range_bytes(blob, 1_000, 30_000)
        assert got == data[1_000:30_000]


def _flip_payload_byte(blob: bytes, chunk: int) -> bytes:
    """Flip one bit in the middle of ``chunk``'s payload window."""
    info = fmt.inspect_container(blob)
    offsets = fmt.payload_offsets(info)
    buf = bytearray(blob)
    buf[offsets[chunk] + info.chunk_sizes[chunk] // 2] ^= 0x40
    return bytes(buf)


@pytest.mark.parametrize("name", ["spratio", "dpratio"])
class TestSalvageLocality:
    def test_damage_outside_range_is_never_read(self, name, rng):
        data, blob = _seekable_blob(rng, name, chunk_checksums=True)
        damaged = _flip_payload_byte(blob, chunk=0)
        start, stop = 2 * CHUNK_SIZE, 4 * CHUNK_SIZE
        # Strict mode succeeds: chunk 0 is outside the plan entirely.
        got, _ = decompress_range_bytes(damaged, start, stop)
        assert got == data[start:stop]
        # And the trace proves the damaged chunk was never decoded.
        collector = TraceCollector()
        decompress_range_bytes(damaged, start, stop, trace=collector,
                               batch=False)
        assert [c.index for c in collector.chunks] == [2, 3]
        # Salvage agrees: nothing in the requested window is damaged.
        got, _, report = decompress_range_bytes(
            damaged, start, stop, errors="salvage"
        )
        assert report.ok and not report.failures
        assert got == data[start:stop]

    def test_damage_inside_range_zero_fills_only_its_chunk(self, name, rng):
        data, blob = _seekable_blob(rng, name, chunk_checksums=True)
        damaged = _flip_payload_byte(blob, chunk=3)
        start, stop = 2 * CHUNK_SIZE + 10, 5 * CHUNK_SIZE - 10
        got, _, report = decompress_range_bytes(
            damaged, start, stop, errors="salvage"
        )
        assert not report.ok
        assert [failure.index for failure in report.failures] == [3]
        # Damaged ranges are relative to the returned slice.
        lo = 3 * CHUNK_SIZE - start
        hi = 4 * CHUNK_SIZE - start
        assert list(report.damaged_ranges) == [(lo, hi)]
        assert got[lo:hi] == bytes(hi - lo)
        # Every byte outside the reported range is exact.
        want = data[start:stop]
        assert got[:lo] == want[:lo] and got[hi:] == want[hi:]

    def test_strict_mode_names_the_global_chunk(self, name, rng):
        data, blob = _seekable_blob(rng, name, chunk_checksums=True)
        damaged = _flip_payload_byte(blob, chunk=3)
        with pytest.raises(repro.ReproError, match="chunk 3"):
            decompress_range_bytes(damaged, 3 * CHUNK_SIZE,
                                   3 * CHUNK_SIZE + 100)


class TestElementAPI:
    def test_slice_semantics(self, smooth_f64):
        blob = repro.compress(smooth_f64, "dpratio", fcm="restart")
        n = smooth_f64.size
        for start, stop in [(None, None), (100, 9_000), (-500, None),
                            (None, -100), (8_000, 2_000), (0, 0)]:
            got = repro.decompress_range(blob, start, stop)
            assert np.array_equal(got, smooth_f64[start:stop])
            assert got.dtype == np.float64
        assert repro.decompress_range(blob, n + 50, n + 90).size == 0

    def test_result_is_flat_even_for_shaped_arrays(self, rng):
        field = rng.normal(size=(100, 80)).astype(np.float32)
        blob = repro.compress(field)
        got = repro.decompress_range(blob, 40, 240)
        assert got.ndim == 1
        assert np.array_equal(got, field.reshape(-1)[40:240])

    def test_bytes_in_bytes_out(self, rng):
        payload = rng.bytes(40_000)
        blob = repro.compress(payload, "spspeed")
        assert repro.decompress_range(blob, 5, 99) == payload[5:99]

    def test_salvage_returns_report(self, smooth_f32):
        blob = repro.compress(smooth_f32, "spratio")
        damaged = _flip_payload_byte(blob, chunk=1)
        # Chunk 1 holds elements 4096..8192 (16 KiB of f32).
        got, report = repro.decompress_range(
            blob=damaged, start=0, stop=5_000, errors="salvage"
        )
        assert not report.ok
        assert got.size == 5_000
