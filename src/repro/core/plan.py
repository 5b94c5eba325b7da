"""Chunk plans: precomputed jobs and prefix-sum offsets (paper §3.1).

A plan is the *static* half of the engine: given only lengths — never
the data — it derives every chunk's read position and, for decoding,
every chunk's write position.  This is the Python rendering of the
paper's observation that "no write positions need to be communicated as
the decompressed chunk sizes are known a priori": the prefix sums over
the chunk-length table ARE the schedule-independent read/write offsets,
so any executor policy can process the jobs in any order and land every
byte in the same place.

:func:`plan_encode` covers compression (equal-size chunks over the
intermediate buffer); :func:`plan_decode` covers decompression (payload
read offsets from the container's chunk table, output write offsets from
the a-priori chunk lengths); :func:`plan_for_range` covers *partial*
decompression — a subset plan holding only the chunks that overlap a
requested byte range, which the executors run unchanged because every
job already carries its own read window and relative write offset.

Subset jobs keep their **global** chunk index in ``ChunkJob.index`` even
though their list position is 0..k-1: error messages, CRC-table lookups,
and trace records must name the container's chunk, not the subset's.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass

from repro.core import container as fmt
from repro.core.chunking import CHUNK_SIZE, chunk_count, chunk_lengths, chunk_offsets
from repro.errors import BoundsError, CorruptDataError


@dataclass(frozen=True)
class ChunkJob:
    """One chunk's read window into its source buffer."""

    index: int
    offset: int
    length: int

    @property
    def end(self) -> int:
        return self.offset + self.length


@dataclass(frozen=True)
class EncodePlan:
    """Chunk jobs for compressing one intermediate buffer."""

    total_len: int
    chunk_size: int
    jobs: tuple[ChunkJob, ...]

    @property
    def n_chunks(self) -> int:
        return len(self.jobs)


@dataclass(frozen=True)
class DecodePlan:
    """Read jobs over a container's payload section plus write offsets.

    ``jobs[i]`` is chunk *i*'s compressed payload window inside the blob;
    ``out_offsets[i]``/``out_lengths[i]`` give where (and how much) the
    decoded chunk writes into the preallocated output buffer.
    """

    jobs: tuple[ChunkJob, ...]
    out_offsets: tuple[int, ...]
    out_lengths: tuple[int, ...]
    out_len: int

    @property
    def n_chunks(self) -> int:
        return len(self.jobs)


def plan_encode(total_len: int, chunk_size: int = CHUNK_SIZE) -> EncodePlan:
    """Plan the chunk jobs covering ``total_len`` input bytes."""
    lengths = chunk_lengths(total_len, chunk_size)
    offsets = chunk_offsets(total_len, chunk_size)
    jobs = tuple(
        ChunkJob(index=i, offset=off, length=n)
        for i, (off, n) in enumerate(zip(offsets, lengths))
    )
    return EncodePlan(total_len=total_len, chunk_size=chunk_size, jobs=jobs)


def _check_chunk_geometry(info: fmt.ContainerInfo) -> None:
    """Reject a non-raw container whose header cannot carry a chunk plan:
    chunks under a zero chunk size, or a chunk count its decoded
    geometry does not imply.  O(1): nothing is summed."""
    if info.raw_fallback:
        raise ValueError("raw-fallback containers have no chunk plan")
    if info.chunk_size <= 0 and (info.intermediate_len > 0 or info.n_chunks):
        raise CorruptDataError("container header carries a zero chunk size")
    if info.index_out_lengths is not None:
        implied = len(info.index_out_lengths)
    elif info.n_chunks == 0:
        implied = 0
    else:
        implied = chunk_count(info.intermediate_len, info.chunk_size)
    if implied != info.n_chunks:
        raise CorruptDataError(
            f"chunk count mismatch: header says {info.n_chunks}, "
            f"lengths imply {implied}"
        )


def plan_decode(info: fmt.ContainerInfo) -> DecodePlan:
    """Plan the chunk jobs for decoding a parsed (non-raw) container.

    Containers carrying the v3 explicit index may have ragged interior
    chunks; the write offsets are then the prefix sums of the stored
    decoded lengths rather than multiples of ``chunk_size``.
    """
    _check_chunk_geometry(info)
    bounds = info.payload_bounds.tolist()
    jobs = tuple(
        ChunkJob(index=i, offset=bounds[i], length=bounds[i + 1] - bounds[i])
        for i in range(info.n_chunks)
    )
    return DecodePlan(
        jobs=jobs,
        out_offsets=info.decoded_starts[:-1],
        out_lengths=info.decoded_lengths(),
        out_len=info.intermediate_len,
    )


@dataclass(frozen=True)
class RangePlan:
    """A subset :class:`DecodePlan` covering one requested byte range.

    ``plan`` holds only the chunks overlapping ``[start, stop)`` — jobs
    keep their global chunk index, write offsets are relative to a
    chunk-aligned output buffer of ``plan.out_len`` bytes that begins at
    intermediate offset ``aligned_start``.  ``trim`` is the slice of that
    buffer holding exactly the requested bytes.
    """

    plan: DecodePlan
    first_chunk: int
    aligned_start: int
    start: int
    stop: int

    @property
    def trim(self) -> tuple[int, int]:
        return (self.start - self.aligned_start, self.stop - self.aligned_start)


def plan_for_range(info: fmt.ContainerInfo, start: int, stop: int) -> RangePlan:
    """Plan the chunk jobs whose decoded bytes overlap ``[start, stop)``.

    Coordinates are intermediate-buffer offsets — identical to output
    offsets for every codec without cross-chunk FCM state.  The subset
    plan runs under any executor unchanged; chunks outside the range are
    never read, verified, or decoded.

    The cost is the overlapping chunks', not the container's: uniform
    geometry finds the chunk span by division, ragged (v3-indexed)
    geometry bisects the decoded-start prefix, and payload offsets come
    from the prefix cached on ``info`` (:attr:`ContainerInfo.payload_bounds`).
    """
    if not 0 <= start <= stop <= info.intermediate_len:
        raise BoundsError(
            f"range [{start}, {stop}) out of bounds for "
            f"{info.intermediate_len} decoded bytes"
        )
    _check_chunk_geometry(info)
    if start == stop:
        empty = DecodePlan(jobs=(), out_offsets=(), out_lengths=(), out_len=0)
        return RangePlan(plan=empty, first_chunk=0,
                         aligned_start=start, start=start, stop=stop)
    # First chunk whose window contains `start`; one past the last chunk
    # whose window intersects [start, stop).  `edges` holds the decoded
    # start of chunks lo..hi-1, then the end of chunk hi-1.
    if info.index_out_lengths is None:
        size = info.chunk_size
        lo, hi = start // size, (stop - 1) // size + 1
        if hi > info.n_chunks:  # a chunkless header declaring decoded bytes
            raise CorruptDataError(
                f"chunk count mismatch: header says {info.n_chunks}, "
                f"the range needs chunk {hi - 1}"
            )
        edges = [min(i * size, info.intermediate_len) for i in range(lo, hi + 1)]
    else:
        starts = info.decoded_starts
        lo = bisect_right(starts, start) - 1
        hi = bisect_right(starts, stop - 1)
        edges = starts[lo : hi + 1]
    bounds = info.payload_bounds[lo : hi + 1].tolist()
    jobs = tuple(
        ChunkJob(index=i, offset=bounds[k], length=bounds[k + 1] - bounds[k])
        for k, i in enumerate(range(lo, hi))
    )
    aligned_start = edges[0]
    return RangePlan(
        plan=DecodePlan(
            jobs=jobs,
            out_offsets=tuple(e - aligned_start for e in edges[:-1]),
            out_lengths=tuple(b - a for a, b in zip(edges, edges[1:])),
            out_len=edges[-1] - aligned_start,
        ),
        first_chunk=lo,
        aligned_start=aligned_start,
        start=start,
        stop=stop,
    )
