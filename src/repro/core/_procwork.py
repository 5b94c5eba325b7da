"""Block jobs: the one encode and one decode routine every executor runs.

A *block* is a contiguous, ascending run of planned chunks that share one
pipeline.  :func:`encode_block` and :func:`decode_block` are the only
chunk loops of the engine: :mod:`repro.core.compressor` wraps them in
the jobs it hands to its executor (with trace records when asked), and
:class:`~repro.core.incremental.StreamingCompressor` encodes each batch
of completed chunks through :func:`encode_block` too.

Error contract: :func:`verify_chunk` is the one place a chunk CRC is
checked and :func:`decode_chunk_guarded` the one place a foreign
exception becomes :class:`CorruptDataError`, always with the ``chunk i
(container bytes a..b)`` prefix, so a corrupt chunk raises the
byte-identical error under every executor and worker count.  Salvage
records failures as ``(index, type_name, message)`` triples.
"""

from __future__ import annotations

import struct

from repro.core import container as fmt
from repro.core.codecs import Codec, codec_by_id
from repro.errors import ChecksumError, CorruptDataError, ReproError

#: Foreign exception types a stage may leak on garbage input; translated
#: to :class:`CorruptDataError` at the chunk/global-stage boundary.
#: MemoryError is deliberately absent — allocations are prevented by the
#: bounds checks, never papered over after the fact.
FOREIGN_ERRORS = (ValueError, TypeError, IndexError, KeyError, OverflowError,
                  ZeroDivisionError, struct.error)


def chunk_codec(codec: Codec, info: fmt.ContainerInfo, index: int) -> tuple[Codec, bool]:
    """The codec and FCM restart framing that encoded chunk ``index``.

    Single-codec containers answer with the container codec; mixed (v4)
    containers look the chunk up in the per-chunk codec table, where a
    member with a global FCM stage always ran it restart-framed.
    """
    if info.chunk_codecs is None:
        return codec, info.fcm_restart
    member = codec_by_id(info.chunk_codecs[index])
    return member, member.global_stage_factory is not None


def _where(job) -> str:
    return f"chunk {job.index} (container bytes {job.offset}..{job.end})"


def verify_chunk(job, payload, crc) -> None:
    """Raise :class:`ChecksumError` when a payload fails its stored CRC
    (``crc`` is ``None`` for containers without a chunk CRC table)."""
    if crc is not None and fmt.checksum_of(payload) != crc:
        raise ChecksumError(f"{_where(job)}: payload CRC32 mismatch")


def decode_chunk_guarded(pipeline, job, payload, length: int, crc,
                         events=None) -> bytes:
    """Verify and decode one chunk with the engine's serial error semantics.

    ``job`` is the chunk's :class:`~repro.core.plan.ChunkJob` (global
    index and container byte window).  Checks the optional payload CRC,
    translates foreign exceptions to :class:`CorruptDataError`, and
    prefixes every failure with the chunk index and container byte range.
    """
    verify_chunk(job, payload, crc)
    try:
        return pipeline.decode_chunk(payload, length, events)
    except ReproError as exc:
        raise type(exc)(f"{_where(job)}: {exc}") from exc
    except FOREIGN_ERRORS as exc:
        raise CorruptDataError(
            f"{_where(job)}: undecodable payload ({type(exc).__name__}: {exc})"
        ) from exc


def encode_block(pipeline, chunks: list, batch: bool, events=None) -> list[bytes]:
    """Compress one block of chunks; returns their payloads in order.

    With ``batch`` and at least two chunks the stages' batched kernels
    run the whole block in one pass; otherwise — or when that pass
    raises — each chunk runs through :meth:`Pipeline.encode_chunk`.
    """
    if batch and len(chunks) >= 2:
        try:
            return pipeline.encode_chunk_batch(chunks, events)
        except Exception:
            if events is not None:
                events.clear()
    return [pipeline.encode_chunk(chunk, events) for chunk in chunks]


def decode_block(pipeline, plan, lo: int, hi: int, payloads: list, out, crcs,
                 batch: bool, failures: list | None = None, events=None) -> bool:
    """Decode chunks ``lo..hi`` of ``plan`` into ``out`` at their planned offsets.

    ``payloads[k]`` is the payload of chunk ``lo + k``; ``crcs`` is the
    container's per-chunk CRC table (indexed by global chunk index) or
    ``None``.  With ``batch`` and at least two chunks the batched kernels
    try the whole block first; on any exception — a CRC mismatch
    included — the block is walked chunk by chunk through
    :func:`decode_chunk_guarded`, so every failure carries its serial
    error.

    ``failures`` is the error policy.  ``None`` (strict) raises the error
    of the block's lowest failing chunk; a list (salvage) receives one
    ``(index, type_name, message)`` triple per failing chunk, whose
    output window is left untouched.  Returns True when the batched
    kernels decoded the block.
    """
    jobs, offsets, lengths = plan.jobs, plan.out_offsets, plan.out_lengths
    if batch and hi - lo >= 2:
        try:
            if crcs is not None:
                for job, payload in zip(jobs[lo:hi], payloads):
                    verify_chunk(job, payload, crcs[job.index])
            chunks = pipeline.decode_chunk_batch(payloads, lengths[lo:hi], events)
        except Exception:
            if events is not None:
                events.clear()
        else:
            for i, chunk in zip(range(lo, hi), chunks):
                out[offsets[i] : offsets[i] + lengths[i]] = chunk
            return True
    for i, payload in zip(range(lo, hi), payloads):
        job = jobs[i]
        try:
            chunk = decode_chunk_guarded(
                pipeline, job, payload, lengths[i],
                None if crcs is None else crcs[job.index], events,
            )
        except Exception as exc:
            if failures is None:
                raise
            failures.append((job.index, type(exc).__name__, str(exc)))
            continue
        out[offsets[i] : offsets[i] + lengths[i]] = chunk
    return False
