"""Incremental (chunk-at-a-time) compression and decompression.

The engine behind the service tier's streamed COMPRESS/DECOMPRESS: the
paper's whole design rests on independent 16 KiB chunks, so neither
direction ever needs the full payload in memory — a compressor can emit
each chunk's payload the moment ``chunk_size`` input bytes exist, and a
decompressor can emit each chunk's plaintext the moment that chunk's
payload bytes exist.  Both classes here hold at most one partial chunk
(plus, for decompression, the container prefix — header and tables —
which must be whole before any payload byte can be attributed).

Byte-identity contract: feeding a :class:`StreamingCompressor` the same
bytes as :func:`repro.core.compressor.compress_bytes` with
``fcm="restart"`` produces the identical container, with two documented
exceptions:

* codecs with a global FCM stage are always restart-framed (a global
  stage is a serial whole-input pass — the one thing a bounded-memory
  stream cannot run), and
* the whole-input raw fallback is disabled — payloads already streamed
  to the peer cannot be retracted.  The container is still valid and
  decodes identically; it just may exceed raw size on incompressible
  input where the local API would have fallen back.

Both directions run the buffered engine's own chunk routines: the
compressor encodes the chunks each feed completes through the block job
:func:`~repro.core._procwork.encode_block` (batched once a feed completes
two or more), and the decompressor decodes through the guarded
:func:`~repro.core._procwork.decode_chunk_guarded`.  So neither the
stages nor the chunk CRC checks and error messages can drift between
the streamed and buffered paths.
"""

from __future__ import annotations

import zlib

from repro.core import container as fmt
from repro.core.chunking import CHUNK_SIZE
from repro.core.codecs import Codec, codec_by_id
from repro.core._procwork import decode_chunk_guarded, encode_block
from repro.core.compressor import _check_geometry, _pipeline_resolver
from repro.core.plan import ChunkJob
from repro.errors import ChecksumError, FormatError

__all__ = ["StreamingCompressor", "StreamingDecompressor"]


class StreamingCompressor:
    """Compress a byte stream of known total length chunk by chunk.

    Usage::

        enc = StreamingCompressor(codec, total_len=n, shape=(...,))
        for piece in arriving_bytes:
            for index, payload in enc.feed(piece):
                emit(index, payload)
        for index, payload in enc.flush():
            emit(index, payload)
        prefix = enc.prefix()          # header + tables
        # prefix + b"".join(payloads) == the full container

    Memory held: at most one partial input chunk plus per-chunk payload
    *lengths and CRCs* (a few bytes per chunk) for the final prefix —
    never the payloads themselves.  Within one call, the chunks that
    ``feed`` completes are encoded as one batch, so its working set
    grows with the piece: feed large inputs in pieces to bound it.
    """

    def __init__(
        self,
        codec: Codec,
        *,
        total_len: int,
        chunk_size: int = CHUNK_SIZE,
        dtype_code: int | None = None,
        shape: tuple[int, ...] | None = None,
        checksum: bool = fmt.DEFAULT_CHECKSUM,
        chunk_checksums: bool = fmt.DEFAULT_CHUNK_CHECKSUMS,
    ) -> None:
        if total_len < 0:
            raise ValueError(f"total_len must be non-negative, got {total_len}")
        self.codec = codec
        self.total_len = int(total_len)
        self.chunk_size = int(chunk_size)
        if dtype_code is None:
            dtype_code = {4: fmt.DTYPE_F32, 8: fmt.DTYPE_F64}.get(
                codec.dtype.itemsize, fmt.DTYPE_BYTES
            )
        self.dtype_code = dtype_code
        self.shape = shape
        self.chunk_checksums = chunk_checksums
        #: Restart framing whenever the codec has an FCM stage: the global
        #: whole-input pass is the one thing a bounded stream cannot run.
        self.fcm_restart = codec.global_stage_factory is not None
        self._pipeline = codec.make_pipeline(self.fcm_restart)
        self._with_crc = checksum
        self._crc = 0
        self._buf = bytearray()
        self._fed = 0
        self._next_index = 0
        self._payload_sizes: list[int] = []
        self._payload_crcs: list[int] = []
        self._finished = False

    @property
    def bytes_buffered(self) -> int:
        """Input bytes held (the partial tail chunk)."""
        return len(self._buf)

    def _encode(self, chunks: list) -> list[tuple[int, bytes]]:
        """Encode completed chunks as one block; returns ``(index, payload)``s."""
        payloads = encode_block(self._pipeline, chunks, batch=True)
        first = self._next_index
        self._next_index += len(payloads)
        self._payload_sizes += map(len, payloads)
        if self.chunk_checksums:
            self._payload_crcs += map(fmt.checksum_of, payloads)
        return list(enumerate(payloads, first))

    def feed(self, piece: bytes) -> list[tuple[int, bytes]]:
        """Absorb input bytes; returns every newly completed chunk payload."""
        if self._finished:
            raise ValueError("feed() after flush()")
        if self._fed + len(piece) > self.total_len:
            raise FormatError(
                f"stream overran its declared length: "
                f"{self._fed + len(piece)} of {self.total_len} bytes"
            )
        self._fed += len(piece)
        if self._with_crc:
            self._crc = zlib.crc32(piece, self._crc)
        self._buf += piece
        size = self.chunk_size
        whole = len(self._buf) // size * size
        with memoryview(self._buf) as view:
            done = memoryview(bytes(view[:whole]))
        del self._buf[:whole]
        return self._encode([done[a : a + size] for a in range(0, whole, size)])

    def flush(self) -> list[tuple[int, bytes]]:
        """Finish the stream; returns the ragged tail payload, if any."""
        if self._finished:
            raise ValueError("flush() called twice")
        if self._fed != self.total_len:
            raise FormatError(
                f"truncated stream: flush() after {self._fed} of "
                f"{self.total_len} declared bytes"
            )
        self._finished = True
        tail = [memoryview(bytes(self._buf))] if self._buf else []
        self._buf.clear()
        return self._encode(tail)

    def prefix(self) -> bytes:
        """The container prefix (header + metadata + tables).

        Prepended to the concatenated payloads (in index order) this
        reconstructs the exact container ``compress_bytes`` builds for
        the same input — see :func:`repro.core.container.build_container_prefix`.
        """
        if not self._finished:
            raise ValueError("prefix() before flush()")
        return fmt.build_container_prefix(
            codec_id=self.codec.codec_id,
            dtype_code=self.dtype_code,
            original_len=self.total_len,
            intermediate_len=self.total_len,
            chunk_size=self.chunk_size,
            chunk_sizes=self._payload_sizes,
            payload_crcs=self._payload_crcs if self.chunk_checksums else None,
            shape=self.shape,
            checksum=(self._crc & 0xFFFFFFFF) if self._with_crc else None,
            chunk_crcs=self.chunk_checksums,
            fcm_restart=self.fcm_restart,
        )


class StreamingDecompressor:
    """Decompress a container byte stream chunk by chunk.

    Buffers the container prefix (header + tables) until it parses via
    :func:`repro.core.container.inspect_container_prefix`, then decodes
    and emits each chunk the moment its payload bytes are complete —
    only one partial payload is ever held.  Containers whose codec
    carries cross-chunk FCM state (v1/v2 DPratio without restart
    markers) are rejected up front: their chunks are not independently
    decodable, which is precisely what streaming requires.

    The whole-input CRC32, when present, is verified incrementally over
    the emitted plaintext and checked at :meth:`finish`.
    """

    def __init__(self, *, total_len: int) -> None:
        if total_len < 0:
            raise ValueError(f"total_len must be non-negative, got {total_len}")
        self.total_len = int(total_len)
        self.info: fmt.ContainerInfo | None = None
        self._buf = bytearray()
        self._fed = 0
        self._crc = 0
        self._resolve = None
        self._out_lengths: tuple[int, ...] = ()
        #: container byte offset of the next chunk payload (error messages).
        self._offset = 0
        self._next_index = 0
        self._finished = False

    @property
    def bytes_buffered(self) -> int:
        """Container bytes held (prefix while incomplete, then at most
        one partial chunk payload)."""
        return len(self._buf)

    def _open(self, info: fmt.ContainerInfo) -> None:
        codec = codec_by_id(info.codec_id)
        _check_geometry(info, codec)
        if (
            not info.raw_fallback
            and info.chunk_codecs is None
            and codec.global_stage_factory is not None
            and not info.fcm_restart
        ):
            raise FormatError(
                f"container carries cross-chunk FCM state (version "
                f"{info.version} without restart markers) and cannot be "
                f"streamed; recompress it with fcm='restart' or use the "
                f"non-streamed DECOMPRESS request"
            )
        self.info = info
        self._resolve = _pipeline_resolver(codec, info)
        self._out_lengths = info.decoded_lengths()
        self._offset = info.payload_offset

    def _decode_one(self, payload: bytes) -> tuple[int, bytes]:
        info = self.info
        i = self._next_index
        self._next_index += 1
        job = ChunkJob(index=i, offset=self._offset, length=len(payload))
        self._offset = job.end
        chunk = decode_chunk_guarded(
            self._resolve(i), job, memoryview(payload), self._out_lengths[i],
            None if info.chunk_crcs is None else info.chunk_crcs[i],
        )
        data = bytes(chunk)
        if info.checksum is not None:
            self._crc = zlib.crc32(data, self._crc)
        return i, data

    def feed(self, piece: bytes) -> list[tuple[int, bytes]]:
        """Absorb container bytes; returns every newly decoded chunk."""
        if self._finished:
            raise ValueError("feed() after finish()")
        if self._fed + len(piece) > self.total_len:
            raise FormatError(
                f"stream overran its declared length: "
                f"{self._fed + len(piece)} of {self.total_len} bytes"
            )
        self._fed += len(piece)
        self._buf += piece
        out: list[tuple[int, bytes]] = []
        if self.info is None:
            info = fmt.inspect_container_prefix(
                bytes(self._buf), total_len=self.total_len
            )
            if info is None:
                return out
            self._open(info)
            del self._buf[: info.payload_offset]
        info = self.info
        if info.raw_fallback:
            # The payload is the original bytes verbatim: emit as they
            # arrive, re-chunked only for frame-sized delivery.
            while self._buf:
                data = bytes(self._buf[: CHUNK_SIZE])
                del self._buf[: CHUNK_SIZE]
                i = self._next_index
                self._next_index += 1
                if info.checksum is not None:
                    self._crc = zlib.crc32(data, self._crc)
                out.append((i, data))
            return out
        while self._next_index < info.n_chunks:
            size = info.chunk_sizes[self._next_index]
            if len(self._buf) < size:
                break
            payload = bytes(self._buf[:size])
            del self._buf[:size]
            out.append(self._decode_one(payload))
        return out

    def finish(self) -> tuple[int, tuple[int, ...] | None]:
        """Validate completeness; returns ``(dtype_code, shape)``."""
        if self._finished:
            raise ValueError("finish() called twice")
        if self._fed != self.total_len:
            raise FormatError(
                f"truncated stream: finish() after {self._fed} of "
                f"{self.total_len} declared bytes"
            )
        info = self.info
        if info is None:
            raise FormatError(
                "stream ended before the container prefix was complete"
            )
        if not info.raw_fallback and self._next_index != info.n_chunks:
            raise FormatError(
                f"streamed container ended with {self._next_index} of "
                f"{info.n_chunks} chunks decoded"
            )
        if info.checksum is not None and (self._crc & 0xFFFFFFFF) != info.checksum:
            raise ChecksumError(
                "decompressed stream failed its stored whole-input CRC32"
            )
        self._finished = True
        return info.dtype_code, info.shape
