"""The compression engine: plan → execute → assemble over zero-copy chunk views.

``compress_bytes`` mirrors the structure of the paper's encoders, split
into the layers §3.1 implies:

* the **plan** (:mod:`repro.core.plan`) precomputes every chunk's read
  window from prefix sums over the chunk lengths — pure arithmetic, no
  data movement;
* the **executor** (:mod:`repro.core.executors`) decides *who* runs each
  block of chunks and *when* — serially, or through a dynamic worklist
  of threads (the paper's OpenMP loop).  Both run the same block job
  (:func:`~repro.core._procwork.encode_block` /
  :func:`~repro.core._procwork.decode_block`), and chunks are
  independent by construction, so the output bytes are identical under
  either policy and every worker count;
* **assembly** writes the container (or the decoded output) once, at
  the plan's prefix-sum offsets.

The hot path is zero-copy: block jobs read ``memoryview`` windows into
the intermediate buffer (no per-chunk slice copies), and the container /
output buffers are preallocated and filled at the plan's prefix-sum
offsets instead of ``b"".join``-ing pieces.

``decompress_bytes`` inverts the process: the size table's prefix sums
yield each chunk's read position, the a-priori chunk lengths yield each
chunk's *write* position ("No write positions need to be communicated as
the decompressed chunk sizes are known a priori", paper §3.1), chunks
decode independently under any executor, and the global stage's inverse
runs last.  ``decompress_range_bytes`` is the same decode over a subset
plan.

Corruption hardening
--------------------
Decoding is built so that a damaged container can only fail in
library-controlled ways:

* every declared length is bounds-checked before an allocation is sized
  from it (:func:`repro.core.container.inspect_container` plus the
  geometry checks here), so a flipped header bit cannot trigger an
  over-allocation;
* chunk payload CRCs (container v2) are verified before decode, so
  corruption is caught at the damaged chunk with its byte range;
* foreign exceptions escaping a stage on garbage input are translated to
  :class:`CorruptDataError` at the chunk boundary — callers only ever see
  :class:`~repro.errors.ReproError` subclasses (the invariant
  :mod:`repro.fuzzing` enforces);
* ``errors="salvage"`` is an error policy on the same decode: every
  chunk that still verifies is decoded, the ones that do not are
  zero-filled, and a :class:`~repro.core.salvage.SalvageReport` maps the
  untrusted byte ranges — one flipped bit costs one chunk, not the file.

Passing a :class:`~repro.core.trace.TraceCollector` as ``trace=``
records per-chunk instrumentation — stage timings, stage output sizes,
raw-fallback flags, worker assignment — without touching the untraced
fast path.

A whole-input raw fallback caps worst-case expansion at the container
header even for adversarial inputs; it is built lazily, only when the
compressed container failed to beat it.
"""

from __future__ import annotations

import time

from repro.core import container as fmt
from repro.core._procwork import FOREIGN_ERRORS, chunk_codec, decode_block, encode_block
from repro.core.chunking import CHUNK_RAW, CHUNK_SIZE
from repro.core.codecs import MIXED, Codec, codec_by_id
from repro.core.executors import Executor, resolve_executor, static_block_bounds
from repro.core.plan import plan_decode, plan_encode, plan_for_range
from repro.core.salvage import ChunkFailure, SalvageReport, merge_ranges
from repro.core.trace import BatchTrace, ChunkTrace, StageEvent, TraceCollector
from repro.errors import BoundsError, ChecksumError, CorruptDataError, ReproError


def _run_global_stage(
    stage, method: str, data, trace: TraceCollector | None
):
    """Run the whole-input stage (FCM), recording its trace event."""
    fn = getattr(stage, method)
    if trace is None:
        return fn(data)
    start = time.perf_counter()
    out = fn(data)
    trace.global_stage = StageEvent(stage.name, time.perf_counter() - start, len(out))
    return out


def _use_batch(batch: bool | None, n_chunks: int) -> bool:
    """Resolve the ``batch`` knob: default on whenever there is a batch."""
    if batch is None:
        return n_chunks >= 2
    return batch and n_chunks >= 2


def _blocks(plan, workers: int, batched: bool, info=None) -> list[tuple[int, int]]:
    """The plan's block list: one executor job per ``(lo, hi)`` block.

    Batched runs split the plan into at most ``workers`` contiguous
    blocks, so each job runs the stages' 2D kernels once; per-chunk runs
    make every chunk its own block, so the worklist claims chunk by
    chunk.  Mixed (v4) containers are split further where the per-chunk
    codec changes, so each block runs one pipeline.

    Ascending contiguity is a correctness property, not a convenience:
    the lowest failing *block* then contains the globally lowest failing
    *chunk*, preserving the executors' deterministic-error contract.
    """
    n = plan.n_chunks
    if not batched:
        return [(i, i + 1) for i in range(n)]
    bounds = static_block_bounds(n, min(workers, n))
    blocks = [
        (int(bounds[b]), int(bounds[b + 1]))
        for b in range(len(bounds) - 1)
        if bounds[b] < bounds[b + 1]
    ]
    codecs = None if info is None else info.chunk_codecs
    if codecs is None:
        return blocks
    split = []
    for lo, hi in blocks:
        s = lo
        for i in range(lo + 1, hi):
            if codecs[plan.jobs[i].index] != codecs[plan.jobs[s].index]:
                split.append((s, i))
                s = i
        split.append((s, hi))
    return split


def _pipeline_resolver(codec: Codec, info: fmt.ContainerInfo):
    """Per-worker ``global chunk index -> pipeline`` for decoding.

    Caches one pipeline per codec, built on first use — a mixed-codec
    container with zero chunks has no table and never asks for one.
    Call once per worker: pipelines are thread-local by the executor
    contract.
    """
    cache: dict[int, object] = {}

    def resolve(i: int):
        member, restart = chunk_codec(codec, info, i)
        pipeline = cache.get(member.codec_id)
        if pipeline is None:
            pipeline = cache[member.codec_id] = member.make_pipeline(restart)
        return pipeline

    return resolve


def _trace_block(trace: TraceCollector, worker: int, jobs, original_lens,
                 payloads, seconds: float, events: list, batched: bool) -> None:
    """Record one block job: a :class:`BatchTrace` when the batched
    kernels ran it, and one :class:`ChunkTrace` per chunk carrying the
    block time split evenly (per-stage events only for a lone chunk)."""
    n = len(jobs)
    if batched:
        trace.add_batch(BatchTrace(
            worker=worker, start=jobs[0].index, n_chunks=n, seconds=seconds,
            stages=tuple(events),
        ))
    stages = tuple(events) if n == 1 else ()
    for job, original_len, payload in zip(jobs, original_lens, payloads):
        trace.add(ChunkTrace(
            index=job.index,
            worker=worker,
            original_len=original_len,
            payload_len=len(payload),
            raw_fallback=len(payload) > 0 and payload[0] == CHUNK_RAW,
            seconds=seconds / n,
            stages=stages,
            batched=batched,
        ))


def _encode(engine: Executor, codec: Codec, restart: bool, plan, data,
            batch: bool | None, trace: TraceCollector | None) -> list[bytes]:
    """Compress every chunk of ``plan`` over ``data``; payloads in plan order."""
    batched = _use_batch(batch, plan.n_chunks)
    blocks = _blocks(plan, engine.workers, batched)
    view = memoryview(data)
    jobs = plan.jobs

    def make_worker(worker_id: int):
        pipeline = codec.make_pipeline(restart)

        def encode_job(b: int) -> list[bytes]:
            lo, hi = blocks[b]
            chunks = [view[job.offset : job.end] for job in jobs[lo:hi]]
            if trace is None:
                return encode_block(pipeline, chunks, batched)
            events: list[StageEvent] = []
            start = time.perf_counter()
            payloads = encode_block(pipeline, chunks, batched, events)
            _trace_block(trace, worker_id, jobs[lo:hi],
                         [job.length for job in jobs[lo:hi]], payloads,
                         time.perf_counter() - start, events,
                         batched and hi - lo >= 2)
            return payloads

        return encode_job

    per_block = engine.run(len(blocks), make_worker)
    return [payload for block in per_block for payload in block]


def compress_bytes(
    data: bytes,
    codec: Codec,
    *,
    chunk_size: int = CHUNK_SIZE,
    dtype_code: int | None = None,
    shape: tuple[int, ...] | None = None,
    workers: int = 1,
    checksum: bool = fmt.DEFAULT_CHECKSUM,
    chunk_checksums: bool = fmt.DEFAULT_CHUNK_CHECKSUMS,
    executor: str | Executor | None = None,
    trace: TraceCollector | None = None,
    batch: bool | None = None,
    fcm: str = "global",
) -> bytes:
    """Compress raw bytes with ``codec`` into a contiguous container.

    ``fcm`` selects how a codec's FCM stage runs (ignored for codecs
    without one): ``"global"`` (default) is the legacy serial whole-input
    pass with the v1/v2 cross-chunk layout — best ratio, because matches
    may reach arbitrarily far back; ``"restart"`` re-seeds the predictor
    at every chunk boundary and runs FCM *inside* the chunk pipeline —
    container v3, every chunk independently decodable and parallel
    under the threaded executor, :func:`decompress_range_bytes`
    O(range).  Restart caps the match distance at one chunk, so its
    ratio cost is data-dependent: ~1-2% on smooth fields, large on data
    whose repeats sit further back than ``chunk_size`` (measured numbers
    in ALGORITHMS.md).

    ``executor`` selects the scheduling policy (``"serial"``,
    ``"threaded"``, or a prebuilt
    :class:`~repro.core.executors.Executor`); when omitted, ``workers``
    picks serial (1) or the threaded worklist (>1).  ``batch`` controls
    columnar chunk batching — each worker runs whole *blocks* of chunks
    through the stages' 2D kernels instead of one chunk at a time; the
    default (``None``) batches whenever the input spans at least two
    chunks.  Batching never changes output bytes.  ``checksum``
    embeds a CRC32 of the original data (verified end to end on
    decompression) and ``chunk_checksums`` a CRC32 per chunk payload
    (container v2; localises corruption to one chunk and enables
    salvage-mode recovery); both default to the documented
    :data:`repro.core.container.DEFAULT_CHECKSUM` /
    :data:`~repro.core.container.DEFAULT_CHUNK_CHECKSUMS`.  ``trace``
    collects per-chunk instrumentation.

    Every chunk is encoded by ``codec``; mixed-codec (v4) containers
    come only from :func:`~repro.core.container.concat_containers`.
    """
    if fcm not in ("restart", "global"):
        raise ValueError(f"fcm must be 'restart' or 'global', not {fcm!r}")
    if dtype_code is None:
        dtype_code = {4: fmt.DTYPE_F32, 8: fmt.DTYPE_F64}.get(
            codec.dtype.itemsize, fmt.DTYPE_BYTES
        )
    crc = fmt.checksum_of(data) if checksum else None
    engine = resolve_executor(executor, workers)
    if trace is not None:
        trace.annotate(policy=engine.policy, workers=engine.workers,
                       direction="compress")
    restart = fcm == "restart" and codec.global_stage_factory is not None
    intermediate = data
    global_stage = None if restart else codec.make_global_stage()
    if global_stage is not None:
        intermediate = _run_global_stage(global_stage, "encode", data, trace)
    payloads = _encode(engine, codec, restart,
                       plan_encode(len(intermediate), chunk_size),
                       intermediate, batch, trace)
    blob = fmt.build_container(
        codec_id=codec.codec_id,
        dtype_code=dtype_code,
        original_len=len(data),
        intermediate_len=len(intermediate),
        chunk_size=chunk_size,
        chunk_payloads=payloads,
        shape=shape,
        checksum=crc,
        chunk_crcs=chunk_checksums,
        fcm_restart=restart,
    )
    # Whole-input fallback: never hand back a container larger than raw.
    # Built lazily — compression usually wins, and the fallback copies
    # the entire input.
    raw_size = fmt.raw_container_size(len(data), shape=shape, checksum=crc)
    if raw_size < len(blob):
        return fmt.build_raw_container(
            codec_id=codec.codec_id, dtype_code=dtype_code, data=data,
            shape=shape, checksum=crc,
        )
    return blob


def _check_geometry(info: fmt.ContainerInfo, codec: Codec) -> None:
    """Reject header geometry no output of ``codec`` could produce.

    Runs after :func:`~repro.core.container.inspect_container`'s generic
    bounds checks, adding the codec-specific constraint on the
    intermediate length — the last declared quantity an allocation is
    sized from.
    """
    if info.fcm_restart and codec.global_stage_factory is None:
        raise CorruptDataError(
            f"codec {codec.name!r} has no FCM stage, but the container "
            f"declares FCM restart markers"
        )
    if codec is MIXED and info.n_chunks and info.chunk_codecs is None:
        raise CorruptDataError(
            f"header codec {codec.name!r} needs a per-chunk codec table, "
            f"but the container carries none"
        )
    if info.chunk_codecs is not None and codec is not MIXED:
        raise CorruptDataError(
            f"container carries a per-chunk codec table, but its header "
            f"codec {codec.name!r} is not {MIXED.name!r}"
        )
    global_stage = None if info.fcm_restart else codec.make_global_stage()
    if global_stage is None:
        if info.intermediate_len != info.original_len:
            raise CorruptDataError(
                f"codec {codec.name!r} has no global stage, but the header "
                f"declares intermediate length {info.intermediate_len} != "
                f"original length {info.original_len}"
            )
    else:
        limit = global_stage.max_encoded_len(info.original_len)
        if info.intermediate_len > limit:
            raise BoundsError(
                f"declared intermediate length {info.intermediate_len} "
                f"exceeds the {global_stage.name} stage's maximum "
                f"{limit} for {info.original_len} original bytes"
            )


def _decode(engine: Executor, codec: Codec, info: fmt.ContainerInfo, plan,
            blob, batch: bool | None, failures: list | None,
            trace: TraceCollector | None) -> bytearray:
    """Decode every chunk of ``plan`` out of ``blob`` into a fresh buffer.

    Write positions are known a priori (§3.1): each chunk lands at its
    plan offset, so any schedule fills the same bytes.  ``failures`` is
    :func:`~repro.core._procwork.decode_block`'s error policy.
    """
    batched = _use_batch(batch, plan.n_chunks)
    blocks = _blocks(plan, engine.workers, batched, info)
    out = bytearray(plan.out_len)
    view = memoryview(blob)
    jobs, crcs = plan.jobs, info.crc_array

    def make_worker(worker_id: int):
        resolve = _pipeline_resolver(codec, info)

        def decode_job(b: int) -> None:
            lo, hi = blocks[b]
            payloads = [view[job.offset : job.end] for job in jobs[lo:hi]]
            # Blocks are codec-homogeneous: one pipeline serves the block.
            pipeline = resolve(jobs[lo].index)
            if trace is None:
                decode_block(pipeline, plan, lo, hi, payloads, out, crcs,
                             batched, failures)
                return
            events: list[StageEvent] = []
            start = time.perf_counter()
            ran_batched = decode_block(pipeline, plan, lo, hi, payloads, out,
                                       crcs, batched, failures, events)
            _trace_block(trace, worker_id, jobs[lo:hi], plan.out_lengths[lo:hi],
                         payloads, time.perf_counter() - start, events,
                         ran_batched)

        return decode_job

    engine.run(len(blocks), make_worker)
    return out


def _clip_ranges(ranges, start: int, stop: int) -> tuple[tuple[int, int], ...]:
    """Intersect byte ranges with ``[start, stop)`` and shift to 0-based."""
    out = []
    for a, b in ranges:
        a2, b2 = max(a, start), min(b, stop)
        if a2 < b2:
            out.append((a2 - start, b2 - start))
    return tuple(out)


def _failure_records(failures, plan, base: int, codec: Codec,
                     info: fmt.ContainerInfo) -> tuple[ChunkFailure, ...]:
    """``(index, type_name, message)`` triples as :class:`ChunkFailure`
    records in chunk order, with payload and output coordinates."""
    position = {job.index: i for i, job in enumerate(plan.jobs)}
    records = []
    for index, error_type, reason in sorted(failures):
        i = position[index]
        job = plan.jobs[i]
        records.append(ChunkFailure(
            index=index,
            payload_offset=job.offset,
            payload_length=job.length,
            output_offset=base + plan.out_offsets[i],
            output_length=plan.out_lengths[i],
            reason=reason,
            error_type=error_type,
            codec=chunk_codec(codec, info, index)[0].name,
        ))
    return tuple(records)


def _finish(info: fmt.ContainerInfo, codec: Codec, buf, plan, base: int | None,
            span: tuple[int, int] | None, failures: list | None,
            trace: TraceCollector | None):
    """Assemble a decode result from the decoded chunk buffer.

    ``base`` is ``None`` when ``buf`` holds the whole intermediate buffer
    (a full plan, or a raw-fallback payload): the global stage's inverse
    runs, and the decoded length and whole-input CRC are checked.
    Otherwise ``buf`` begins at intermediate offset ``base`` and holds
    only the chunks of a subset plan, which are trimmed to ``span``.
    Strict mode (``failures is None``) raises; salvage mode zero-fills,
    notes what it could not verify, and returns a
    :class:`~repro.core.salvage.SalvageReport` whose damaged ranges are
    relative to the returned bytes.
    """
    start, stop = (0, info.original_len) if span is None else span
    salvage = failures is not None
    records, damaged = (), ()
    if failures:
        records = _failure_records(failures, plan, base or 0, codec, info)
        damaged = merge_ranges(
            (f.output_offset, f.output_offset + f.output_length) for f in records
        )
    notes: list[str] = []
    checksum_ok = None
    global_failed = False
    if base is not None:
        data = bytes(memoryview(buf)[start - base : stop - base])
        if records:
            notes.append("range read: damaged ranges are relative to the "
                         "returned slice; failure offsets are absolute")
    else:
        data = bytes(buf)
        stage = (None if info.raw_fallback or info.fcm_restart
                 else codec.make_global_stage())
        if stage is not None and salvage:
            try:
                data, damaged = stage.decode_salvage(data, damaged)
            except Exception as exc:
                global_failed = True
                notes.append(
                    f"global stage {stage.name!r} inverse failed "
                    f"({type(exc).__name__}: {exc}); output zero-filled"
                )
                data = bytes(info.original_len)
                damaged = ((0, info.original_len),) if info.original_len else ()
        elif stage is not None:
            try:
                data = _run_global_stage(stage, "decode", data, trace)
            except ReproError as exc:
                raise type(exc)(f"global stage {stage.name!r}: {exc}") from exc
            except FOREIGN_ERRORS as exc:
                raise CorruptDataError(
                    f"global stage {stage.name!r}: undecodable intermediate "
                    f"({type(exc).__name__}: {exc})"
                ) from exc
        if len(data) != info.original_len:
            if not salvage:
                raise CorruptDataError(
                    f"decompressed to {len(data)} bytes, expected {info.original_len}"
                )
            notes.append(
                f"decoded length {len(data)} != declared {info.original_len}; "
                f"output adjusted and fully marked damaged"
            )
            data = data[: info.original_len] + bytes(
                max(0, info.original_len - len(data))
            )
            damaged = ((0, info.original_len),) if info.original_len else ()
        if info.checksum is not None:
            checksum_ok = fmt.checksum_of(data) == info.checksum
            what = "raw-fallback payload" if info.raw_fallback else "container payload"
            if not checksum_ok and not salvage:
                raise ChecksumError(f"whole-input CRC32 mismatch: {what} is corrupt")
            if not checksum_ok and not records and not global_failed and not damaged:
                notes.append(
                    "raw-fallback payload failed the whole-input checksum; "
                    "damage cannot be localised without chunks"
                    if info.raw_fallback else
                    "whole-input checksum mismatch with every chunk verifying; "
                    "damage sits outside the chunk CRCs' reach"
                )
                damaged = ((0, len(data)),) if data else ()
        if span is not None:
            # Cross-chunk FCM: every output byte may depend on any chunk,
            # so the range was decoded in full and is sliced here.
            data = data[start:stop]
            notes.append("range read fell back to a full decode: the container "
                         "carries cross-chunk FCM state (no restart markers)")
    if not salvage:
        return data, info
    return data, info, SalvageReport(
        n_chunks=0 if plan is None else plan.n_chunks,
        output_len=len(data),
        failures=records,
        damaged_ranges=_clip_ranges(merge_ranges(damaged), start, stop),
        checksum_ok=checksum_ok,
        global_stage_failed=global_failed,
        notes=tuple(notes),
    )


def _decompress(blob, span, *, workers, executor, trace, errors, batch,
                info=None):
    """Plan, execute and assemble one full (``span=None``) or range decode.

    ``info`` is ``fmt.inspect_container(blob)`` when the caller already
    parsed the header (it is trusted, not re-checked against ``blob``);
    ``None`` parses it here.
    """
    if errors not in ("raise", "salvage"):
        raise ValueError(f"errors must be 'raise' or 'salvage', not {errors!r}")
    if info is None:
        info = fmt.inspect_container(blob)
    codec = codec_by_id(info.codec_id)
    _check_geometry(info, codec)
    if span is not None and not 0 <= span[0] <= span[1] <= info.original_len:
        raise BoundsError(
            f"range [{span[0]}, {span[1]}) out of bounds for "
            f"{info.original_len} original bytes"
        )
    failures = [] if errors == "salvage" else None
    if info.raw_fallback:
        # The payload is the original bytes: a range slices it directly.
        payload = memoryview(blob)[info.payload_offset :]
        return _finish(info, codec, payload, None, None if span is None else 0,
                       span, failures, trace)
    if span is not None and (info.fcm_restart or codec.global_stage_factory is None):
        rplan = plan_for_range(info, *span)
        plan, base, direction = rplan.plan, rplan.aligned_start, "decompress-range"
    else:
        plan, base = plan_decode(info), None
        direction = "decompress" if failures is None else "salvage"
    engine = resolve_executor(executor, workers)
    if trace is not None:
        trace.annotate(policy=engine.policy, workers=engine.workers,
                       direction=direction)
    buf = _decode(engine, codec, info, plan, blob, batch, failures, trace)
    return _finish(info, codec, buf, plan, base, span, failures, trace)


def decompress_bytes(
    blob: bytes,
    *,
    workers: int = 1,
    executor: str | Executor | None = None,
    trace: TraceCollector | None = None,
    errors: str = "raise",
    batch: bool | None = None,
):
    """Decompress a container; returns the original bytes plus its metadata.

    ``errors`` selects the failure policy:

    * ``"raise"`` (default) — any verification or decode failure raises a
      :class:`~repro.errors.ReproError` subclass carrying the chunk index
      and container byte range; returns ``(data, info)``.
    * ``"salvage"`` — decode every chunk that verifies, zero-fill the
      ones that do not, and return ``(data, info, report)`` where
      ``report`` is a :class:`~repro.core.salvage.SalvageReport` listing
      each failure and the untrusted output byte ranges.  Only damage the
      header itself (magic, version, geometry) still raises — without a
      parseable chunk table there is nothing to salvage.
    """
    return _decompress(blob, None, workers=workers, executor=executor,
                       trace=trace, errors=errors, batch=batch)


def decompress_range_bytes(
    blob: bytes,
    start: int,
    stop: int,
    *,
    workers: int = 1,
    executor: str | Executor | None = None,
    trace: TraceCollector | None = None,
    errors: str = "raise",
    batch: bool | None = None,
    info: fmt.ContainerInfo | None = None,
):
    """Decode only the bytes ``[start, stop)`` of a container's original data.

    Plans the subset of chunks overlapping the range
    (:func:`~repro.core.plan.plan_for_range`) and runs them through the
    same block jobs as a full decode — chunks outside the range are never
    read, CRC-verified, or decoded.  Returns ``(data, info)`` where
    ``data`` is byte-identical to ``decompress_bytes(blob)[0][start:stop]``.

    Two container layouts cannot decode partially and fall back:

    * raw-fallback containers slice the stored payload directly (no
      decode at all);
    * v1/v2 containers with cross-chunk FCM state (legacy DPratio) run a
      full decode and slice — correct, but O(file) not O(range).

    The whole-input CRC32 covers data outside the range and is never
    verified here.  ``errors="salvage"`` returns ``(data, info, report)``
    with per-chunk failures zero-filled; the report's ``damaged_ranges``
    are relative to the returned slice and ``checksum_ok`` is ``None``
    (a slice cannot be checksum-verified).

    ``info`` lets a caller that already parsed the header skip the
    parse: it must be ``inspect_container(blob)`` for this very ``blob``
    (it is not re-checked).  Chunk CRCs are still verified on every read.
    """
    return _decompress(blob, (start, stop), workers=workers, executor=executor,
                       trace=trace, errors=errors, batch=batch, info=info)
