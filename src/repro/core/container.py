"""The ``FPRZ`` container: a contiguous, self-describing compressed block.

Unlike the nvCOMP compressors the paper criticises for leaving chunks
"separately stored ... not concatenated" (§5.1), our container always
concatenates everything into one contiguous byte block, exactly like the
paper's codes.  The layout is:

===========  =====  =====================================================
field        bytes  meaning
===========  =====  =====================================================
magic            4  ``b"FPRZ"``
version          1  container format version (1 through 4)
codec_id         1  registry id of the codec that produced the block
dtype_code       1  0 = raw bytes, 1 = float32, 2 = float64
flags            1  bit 0: whole-input raw fallback; bit 1: shape present;
                    bit 2: whole-input CRC32 present; bit 3 (v2+):
                    per-chunk CRC32 table present; bit 4 (v3): explicit
                    chunk index present; bit 5 (v3): FCM restart markers
orig_len         8  length of the original data in bytes
inter_len        8  length after the codec's global stage (== orig_len
                    when the codec has no global stage, and always for
                    FCM-restart containers, where FCM runs per chunk)
chunk_size       4  chunk size used (0 for raw fallback)
n_chunks         4  number of chunk payloads
shape block      v  present iff flags bit 1: u8 ndim, then ndim x u64
checksum         4  present iff flags bit 2: CRC32 of the original data
chunk table   4*n   compressed payload size of each chunk
chunk CRCs    4*n   present iff flags bit 3: CRC32 of each chunk payload
chunk index  12*n   present iff flags bit 4: n x u64 absolute payload
                    offsets, then n x u32 decoded chunk lengths
codec table    1*n  present iff flags bit 6 (v4): the registry id of the
                    fixed codec that encoded each chunk
payloads         v  the chunk payloads, concatenated (prefix sums of the
                    chunk table give each payload's offset, mirroring the
                    decoupled-look-back write positions of the GPU code)
===========  =====  =====================================================

Version 2 adds exactly one feature over version 1: the optional per-chunk
CRC32 table (flags bit 3), which localises corruption to a single 16 KiB
chunk instead of merely detecting it end-to-end.  Containers that do not
use the table are still written as version 1, byte-identical to what
earlier releases produced; both versions decode.

Version 3 adds two independent features, each gated by its own flag:

* ``FLAG_CHUNK_INDEX`` (bit 4) — an explicit per-chunk index of absolute
  payload offsets plus *decoded* lengths.  The offsets are redundant with
  the prefix sums of the chunk table (and validated against them), but
  make every chunk seekable from a single header read; the decoded
  lengths allow *ragged interior chunks* (shorter than ``chunk_size``
  anywhere, not just at the tail), which is what lets
  :func:`concat_containers` append compressed containers without
  re-encoding a single payload.
* ``FLAG_FCM_RESTART`` (bit 5) — the codec's FCM predictor was re-seeded
  at every chunk boundary and ran *inside* the per-chunk pipeline rather
  than as a serial whole-input pass, so ``inter_len == orig_len`` and
  every chunk decodes independently.  Old cross-chunk containers (v1/v2)
  still decode via the retained global-stage path.

Version 4 adds mixed-codec containers, gated by one new flag:

* ``FLAG_CHUNK_CODECS`` (bit 6) — a per-chunk codec-id table (one u8 per
  chunk) follows the chunk index, and each chunk was encoded by the fixed
  codec its entry names rather than by the header codec (which then holds
  the ``mixed`` header id, 5).  Every entry must name a known fixed codec
  (the header id or an unknown id is a :class:`FormatError` before any
  allocation), member codecs with a global FCM stage always use restart
  framing inside the chunk pipeline (so ``inter_len == orig_len`` and the
  redundant ``FLAG_FCM_RESTART`` must be clear), and every chunk decodes
  independently — salvage, range reads, and concatenation compose
  unchanged.

For the raw fallback (an input the codec expands overall), the payload
section holds the original bytes verbatim and ``n_chunks`` is 0.

Every declared length is validated against the actual buffer before any
allocation is sized from it (see :func:`inspect_container`), so a
corrupted header cannot make the decoder over-allocate — the
decompression-bomb guard the fuzz harness (:mod:`repro.fuzzing`)
exercises.
"""

from __future__ import annotations

import struct
import zlib
from dataclasses import dataclass, field
from functools import cached_property
from itertools import accumulate

import numpy as np

from repro.errors import BoundsError, FormatError

MAGIC = b"FPRZ"
#: Container version carrying the v3 feature set (index, FCM restart).
VERSION = 3
#: Current container format version (written for mixed-codec containers).
VERSION_CHUNK_CODECS = 4
#: Versions this library can decode.
WIRE_VERSIONS = (1, 2, 3, 4)

FLAG_RAW = 0x01
FLAG_SHAPE = 0x02
#: When set, a CRC32 of the original data follows the shape block; the
#: decompressor verifies it after reconstruction.
FLAG_CHECKSUM = 0x04
#: (v2) When set, a CRC32 per chunk payload follows the chunk table; the
#: decompressor verifies each chunk before decoding it, localising any
#: corruption to one chunk.
FLAG_CHUNK_CRCS = 0x08
#: (v3) When set, an explicit chunk index follows the CRC table: n x u64
#: absolute payload offsets, then n x u32 decoded chunk lengths.  The
#: offsets must agree with the prefix sums of the chunk table; the
#: decoded lengths allow ragged interior chunks (container concatenation).
FLAG_CHUNK_INDEX = 0x10
#: (v3) When set, the codec's FCM predictor restarted at every chunk
#: boundary (ran inside the chunk pipeline, not as a global pass), so
#: every chunk decodes independently and ``inter_len == orig_len``.
FLAG_FCM_RESTART = 0x20
#: (v4) When set, a per-chunk codec-id table (one u8 per chunk) follows
#: the chunk index and each chunk decodes under the fixed codec its entry
#: names; the header ``codec_id`` then holds the ``mixed`` header id (5).
#: Member codecs with a global stage use restart framing inside the chunk
#: pipeline, so ``inter_len == orig_len`` and ``FLAG_FCM_RESTART`` (which
#: would be redundant) must be clear.
FLAG_CHUNK_CODECS = 0x40

_KNOWN_FLAGS = {1: FLAG_RAW | FLAG_SHAPE | FLAG_CHECKSUM,
                2: FLAG_RAW | FLAG_SHAPE | FLAG_CHECKSUM | FLAG_CHUNK_CRCS,
                3: FLAG_RAW | FLAG_SHAPE | FLAG_CHECKSUM | FLAG_CHUNK_CRCS
                   | FLAG_CHUNK_INDEX | FLAG_FCM_RESTART}
_KNOWN_FLAGS[4] = _KNOWN_FLAGS[3] | FLAG_CHUNK_CODECS

#: The one documented integrity default: both the public API
#: (:func:`repro.compress`) and the streaming layer (:mod:`repro.io`)
#: embed the whole-input CRC32 unless told otherwise.  4 bytes per
#: container buys end-to-end bit-exactness proof on every decode.
DEFAULT_CHECKSUM = True
#: Per-chunk CRC table default: on.  4 bytes per 16 KiB chunk (+0.02%)
#: buys corruption *localisation* — a damaged archive loses one chunk,
#: not the file — and is what makes salvage-mode recovery provable.
DEFAULT_CHUNK_CHECKSUMS = True

DTYPE_BYTES = 0
DTYPE_F32 = 1
DTYPE_F64 = 2

_DTYPE_ITEMSIZE = {DTYPE_BYTES: 1, DTYPE_F32: 4, DTYPE_F64: 8}

#: Bomb guards: reject declared geometry no real container can carry.
#: A chunk payload is at least 2 bytes (flag byte + body) and decodes to
#: at most ``chunk_size`` bytes, so no legitimate container expands by
#: more than ~``chunk_size``:2; 16384x is far above any real ratio.
MAX_DECLARED_EXPANSION = 1 << 14
#: Largest accepted chunk size (the paper's value is 16 KiB; the ablation
#: benchmark goes to a few MiB — 64 MiB leaves 4096x headroom).
MAX_CHUNK_SIZE = 1 << 26
#: Largest accepted array rank (numpy itself stops at 64).
MAX_NDIM = 64

_HEADER = struct.Struct("<4sBBBBQQII")


@dataclass(frozen=True)
class ContainerInfo:
    """Parsed container metadata (no payload decoding).

    The per-chunk tables are kept as the bytes stored in the container
    and unpacked on first use: a parse costs the header, not one Python
    integer per chunk, so a range read out of a large container pays for
    the chunks it touches.
    """

    version: int
    codec_id: int
    dtype_code: int
    raw_fallback: bool
    original_len: int
    intermediate_len: int
    chunk_size: int
    n_chunks: int
    shape: tuple[int, ...] | None
    payload_offset: int
    total_len: int
    checksum: int | None = None
    #: (v3) Absolute payload offset of each chunk from the explicit chunk
    #: index, or ``None`` when the container carries no index.
    index_offsets: tuple[int, ...] | None = None
    #: (v3) Decoded (pre-pipeline) length of each chunk from the explicit
    #: chunk index, or ``None``.  Unlike the uniform derivation, interior
    #: entries may be shorter than ``chunk_size`` (ragged chunks).
    index_out_lengths: tuple[int, ...] | None = None
    #: (v3) True when the FCM predictor restarted at every chunk boundary.
    fcm_restart: bool = False
    #: (v4) Registry id of the fixed codec that encoded each chunk, or
    #: ``None`` for single-codec containers.  Every entry is validated to
    #: name a known fixed codec before this object is built.
    chunk_codecs: tuple[int, ...] | None = None
    #: The chunk table as stored: one little-endian u32 payload size per
    #: chunk (:attr:`chunk_sizes` unpacks it).
    chunk_table: bytes = field(default=b"", repr=False)
    #: (v2) The chunk CRC table as stored, or ``None`` (:attr:`chunk_crcs`).
    crc_table: bytes | None = field(default=None, repr=False)

    @property
    def compressed_len(self) -> int:
        return self.total_len

    def decoded_lengths(self) -> tuple[int, ...]:
        """Decoded length of each chunk: the explicit v3 index when
        present, else the uniform derivation (all ``chunk_size`` except a
        ragged tail)."""
        if self.index_out_lengths is not None:
            return self.index_out_lengths
        if self.n_chunks == 0:
            return ()
        from repro.core.chunking import chunk_lengths

        return tuple(chunk_lengths(self.intermediate_len, self.chunk_size))

    @property
    def ratio(self) -> float:
        """Compression ratio (original / compressed), the paper's metric."""
        if self.total_len == 0:
            return 0.0
        return self.original_len / self.total_len

    # Everything below is derived from the stored tables on first use and
    # then kept on this parsed header.  The prefix sums make every range
    # read planned from it O(1) (paper §3.1: read and write positions are
    # prefix sums over lengths known a priori).

    @cached_property
    def chunk_sizes(self) -> tuple[int, ...]:
        """Compressed payload size of each chunk."""
        return struct.unpack(f"<{self.n_chunks}I", self.chunk_table)

    @cached_property
    def chunk_crcs(self) -> tuple[int, ...] | None:
        """(v2) CRC32 of each compressed chunk payload, or ``None``."""
        if self.crc_table is None:
            return None
        return struct.unpack(f"<{self.n_chunks}I", self.crc_table)

    @cached_property
    def crc_array(self) -> np.ndarray | None:
        """:attr:`chunk_crcs` as a uint32 view of the stored table, for
        lookups of a few chunks that should not unpack every entry."""
        if self.crc_table is None:
            return None
        return np.frombuffer(self.crc_table, dtype="<u4")

    @cached_property
    def payload_bounds(self) -> np.ndarray:
        """Absolute offset of each chunk payload, then the end of the last
        one (``n_chunks + 1`` int64 entries): the prefix sums over the
        chunk table, which a v3 index matches entry for entry (checked at
        parse time)."""
        bounds = np.empty(self.n_chunks + 1, dtype=np.int64)
        bounds[0] = self.payload_offset
        np.cumsum(np.frombuffer(self.chunk_table, dtype="<u4"), dtype=np.int64,
                  out=bounds[1:])
        bounds[1:] += self.payload_offset
        return bounds

    @cached_property
    def decoded_starts(self) -> tuple[int, ...]:
        """Intermediate offset at which each chunk's decoded bytes begin,
        plus the total as a last entry (``n_chunks + 1`` entries)."""
        return tuple(accumulate(self.decoded_lengths(), initial=0))


def checksum_of(data) -> int:
    """The container's integrity checksum (CRC32, also used per chunk)."""
    return zlib.crc32(data) & 0xFFFFFFFF


def _meta_blocks(
    shape: tuple[int, ...] | None, checksum: int | None
) -> tuple[int, bytes]:
    flags = 0
    block = b""
    if shape is not None:
        flags |= FLAG_SHAPE
        block += struct.pack("<B", len(shape)) + b"".join(
            struct.pack("<Q", dim) for dim in shape
        )
    if checksum is not None:
        flags |= FLAG_CHECKSUM
        block += struct.pack("<I", checksum)
    return flags, block


def build_container(
    *,
    codec_id: int,
    dtype_code: int,
    original_len: int,
    intermediate_len: int,
    chunk_size: int,
    chunk_payloads: list[bytes],
    shape: tuple[int, ...] | None = None,
    checksum: int | None = None,
    chunk_crcs: bool = False,
    chunk_index: bool = False,
    out_lengths: list[int] | None = None,
    fcm_restart: bool = False,
    chunk_codecs: list[int] | None = None,
) -> bytes:
    """Assemble a compressed container from chunk payloads.

    The payload section is written into one preallocated buffer at the
    prefix-sum offsets of the chunk table — the serial rendering of the
    decoupled-look-back write positions the GPU code communicates.

    ``chunk_crcs=True`` writes the version-2 per-chunk CRC32 table;
    containers without it stay version 1, byte-identical to earlier
    releases.

    ``chunk_index=True`` writes the version-3 explicit chunk index
    (absolute payload offsets + decoded lengths); ``out_lengths`` then
    supplies the decoded length of every chunk (required — interior
    entries may be ragged).  ``fcm_restart=True`` marks the payloads as
    carrying per-chunk FCM state (also version 3).

    ``chunk_codecs`` writes the version-4 per-chunk codec-id table (one
    registry id per chunk); member codecs with a global stage must use
    restart framing inside the chunk pipeline, so combining the table
    with ``fcm_restart=True`` is rejected.
    """
    sizes = [len(p) for p in chunk_payloads]
    prefix = build_container_prefix(
        codec_id=codec_id,
        dtype_code=dtype_code,
        original_len=original_len,
        intermediate_len=intermediate_len,
        chunk_size=chunk_size,
        chunk_sizes=sizes,
        payload_crcs=(
            [checksum_of(p) for p in chunk_payloads] if chunk_crcs else None
        ),
        shape=shape,
        checksum=checksum,
        chunk_crcs=chunk_crcs,
        chunk_index=chunk_index,
        out_lengths=out_lengths,
        fcm_restart=fcm_restart,
        chunk_codecs=chunk_codecs,
    )
    buf = bytearray(len(prefix) + sum(sizes))
    buf[: len(prefix)] = prefix
    pos = len(prefix)
    for payload, size in zip(chunk_payloads, sizes):
        buf[pos : pos + size] = payload
        pos += size
    return bytes(buf)


def build_container_prefix(
    *,
    codec_id: int,
    dtype_code: int,
    original_len: int,
    intermediate_len: int,
    chunk_size: int,
    chunk_sizes: list[int],
    payload_crcs: list[int] | None = None,
    shape: tuple[int, ...] | None = None,
    checksum: int | None = None,
    chunk_crcs: bool = False,
    chunk_index: bool = False,
    out_lengths: list[int] | None = None,
    fcm_restart: bool = False,
    chunk_codecs: list[int] | None = None,
) -> bytes:
    """Assemble a container's prefix (header + metadata + tables) alone.

    Takes chunk payload *lengths* (plus, for ``chunk_crcs=True``, each
    payload's CRC32) instead of the payloads themselves, so it can run
    before — or long after — the payload bytes exist.  The invariant the
    streamed service path rests on::

        build_container_prefix(chunk_sizes=[len(p) for p in ps],
                               payload_crcs=[checksum_of(p) for p in ps],
                               ...) + b"".join(ps)
        == build_container(chunk_payloads=ps, ...)

    byte for byte.  :func:`build_container` itself is implemented on top
    of this function, so the two can never drift.
    """
    flags, meta = _meta_blocks(shape, checksum)
    sizes = list(chunk_sizes)
    with_crcs = chunk_crcs and bool(sizes)
    with_index = chunk_index and bool(sizes)
    with_codecs = chunk_codecs is not None and bool(sizes)
    if with_crcs and (payload_crcs is None or len(payload_crcs) != len(sizes)):
        raise ValueError("chunk_crcs=True requires one payload CRC per chunk")
    if with_index and (out_lengths is None or len(out_lengths) != len(sizes)):
        raise ValueError("chunk_index=True requires one out_length per chunk")
    if with_codecs and len(chunk_codecs) != len(sizes):
        raise ValueError("chunk_codecs requires one codec id per chunk")
    if with_codecs and fcm_restart:
        raise ValueError(
            "chunk_codecs containers frame FCM restart per member codec; "
            "the container-level flag would be redundant"
        )
    if with_codecs:
        version = VERSION_CHUNK_CODECS
    elif fcm_restart or with_index:
        version = VERSION
    elif with_crcs:
        version = 2
    else:
        version = 1
    if with_crcs:
        flags |= FLAG_CHUNK_CRCS
    if with_index:
        flags |= FLAG_CHUNK_INDEX
    if fcm_restart:
        flags |= FLAG_FCM_RESTART
    if with_codecs:
        flags |= FLAG_CHUNK_CODECS
    table_offset = _HEADER.size + len(meta)
    crc_offset = table_offset + 4 * len(sizes)
    index_offset = crc_offset + (4 * len(sizes) if with_crcs else 0)
    codec_offset = index_offset + (12 * len(sizes) if with_index else 0)
    payload_offset = codec_offset + (len(sizes) if with_codecs else 0)
    buf = bytearray(payload_offset)
    _HEADER.pack_into(
        buf,
        0,
        MAGIC,
        version,
        codec_id,
        dtype_code,
        flags,
        original_len,
        intermediate_len,
        chunk_size,
        len(sizes),
    )
    buf[_HEADER.size : table_offset] = meta
    if sizes:
        struct.pack_into(f"<{len(sizes)}I", buf, table_offset, *sizes)
    if with_crcs:
        struct.pack_into(f"<{len(sizes)}I", buf, crc_offset, *payload_crcs)
    if with_index:
        offsets = []
        pos = payload_offset
        for size in sizes:
            offsets.append(pos)
            pos += size
        struct.pack_into(f"<{len(sizes)}Q", buf, index_offset, *offsets)
        struct.pack_into(
            f"<{len(sizes)}I", buf, index_offset + 8 * len(sizes), *out_lengths
        )
    if with_codecs:
        struct.pack_into(f"<{len(sizes)}B", buf, codec_offset, *chunk_codecs)
    return bytes(buf)


def raw_container_size(
    data_len: int,
    *,
    shape: tuple[int, ...] | None = None,
    checksum: int | None = None,
) -> int:
    """Size of the raw-fallback container, without materialising it.

    Lets the engine decide *lazily* whether the fallback is needed: the
    full-input copy in :func:`build_raw_container` only happens when the
    compressed container failed to beat this number.
    """
    flags_meta = _meta_blocks(shape, checksum)[1]
    return _HEADER.size + len(flags_meta) + data_len


def build_raw_container(
    *,
    codec_id: int,
    dtype_code: int,
    data: bytes,
    shape: tuple[int, ...] | None = None,
    checksum: int | None = None,
) -> bytes:
    """Assemble the whole-input raw-fallback container (always version 1)."""
    flags, meta = _meta_blocks(shape, checksum)
    flags |= FLAG_RAW
    header = _HEADER.pack(
        MAGIC, 1, codec_id, dtype_code, flags, len(data), len(data), 0, 0
    )
    return header + meta + data


def inspect_container(blob: bytes) -> ContainerInfo:
    """Parse and validate a container's header, tables, and geometry.

    Every declared length is checked against the actual buffer *before*
    anything is allocated from it: truncated blocks, oversized chunk
    tables, zero-length chunk entries, shape/dtype mismatches, and
    headers promising implausible expansion (more than
    :data:`MAX_DECLARED_EXPANSION` x the container size) all raise
    :class:`FormatError` / :class:`BoundsError` with the offending byte
    offset in the message.
    """
    return _inspect(blob, total_len=len(blob), partial=False)


def inspect_container_prefix(
    blob: bytes, *, total_len: int
) -> ContainerInfo | None:
    """Parse a container whose payload section may not have arrived yet.

    The streamed-DECOMPRESS entry point: ``blob`` is the bytes received
    so far and ``total_len`` the full container size the peer declared up
    front.  Returns ``None`` when the prefix (header + metadata +
    tables) is still incomplete but could yet become valid — the caller
    buffers more bytes and retries — and the fully validated
    :class:`ContainerInfo` once the prefix is whole.  Definitive
    violations (bad magic, bomb-guard trips, a prefix that cannot fit in
    ``total_len``, table inconsistencies) raise exactly the
    :class:`FormatError` / :class:`BoundsError` the non-streamed
    :func:`inspect_container` would, so a hostile stream fails as early
    as its first poisoned byte, never after buffering the payload.

    All bomb guards use ``total_len`` (not the bytes in hand) as the
    plausibility base, matching what the whole container will be.
    """
    if total_len < _HEADER.size:
        raise FormatError(
            f"container shorter than its fixed {_HEADER.size}-byte header "
            f"({total_len} bytes)"
        )
    return _inspect(blob, total_len=total_len, partial=True)


def _inspect(
    blob: bytes, *, total_len: int, partial: bool
) -> ContainerInfo | None:
    if len(blob) < _HEADER.size:
        if partial:
            return None
        raise FormatError(
            f"container shorter than its fixed {_HEADER.size}-byte header "
            f"({len(blob)} bytes)"
        )
    magic, version, codec_id, dtype_code, flags, orig_len, inter_len, chunk_size, n_chunks = (
        _HEADER.unpack_from(blob, 0)
    )
    if magic != MAGIC:
        raise FormatError(f"bad magic {magic!r} at offset 0; not an FPRZ container")
    if version not in WIRE_VERSIONS:
        raise FormatError(
            f"unsupported container version {version} at offset 4 "
            f"(this library reads versions {WIRE_VERSIONS})"
        )
    if flags & ~_KNOWN_FLAGS[version]:
        raise FormatError(
            f"unknown flag bits 0x{flags & ~_KNOWN_FLAGS[version]:02x} at "
            f"offset 7 for container version {version}"
        )
    if dtype_code not in _DTYPE_ITEMSIZE:
        raise FormatError(f"unknown dtype code {dtype_code} at offset 6")
    # Bomb guard: a header may not promise more output than the container
    # could legitimately encode (each >=2-byte payload decodes to at most
    # chunk_size bytes, far under MAX_DECLARED_EXPANSION x).  In partial
    # mode total_len is the peer-declared final size, so the guard holds
    # for the whole container, not just the bytes in hand.
    plausible = max(total_len, _HEADER.size) * MAX_DECLARED_EXPANSION
    if orig_len > plausible:
        raise BoundsError(
            f"declared original length {orig_len} at offset 8 is implausible "
            f"for a {total_len}-byte container"
        )
    if inter_len > plausible:
        raise BoundsError(
            f"declared intermediate length {inter_len} at offset 16 is "
            f"implausible for a {total_len}-byte container"
        )
    if chunk_size > MAX_CHUNK_SIZE:
        raise BoundsError(
            f"declared chunk size {chunk_size} at offset 24 exceeds the "
            f"maximum {MAX_CHUNK_SIZE}"
        )
    pos = _HEADER.size
    shape: tuple[int, ...] | None = None
    if flags & FLAG_SHAPE:
        if pos + 1 > len(blob):
            if partial and pos + 1 <= total_len:
                return None
            raise FormatError(f"truncated shape block at offset {pos}")
        (ndim,) = struct.unpack_from("<B", blob, pos)
        pos += 1
        if ndim > MAX_NDIM:
            raise FormatError(
                f"shape block at offset {pos - 1} declares {ndim} dimensions "
                f"(maximum {MAX_NDIM})"
            )
        need = ndim * 8
        if pos + need > len(blob):
            if partial and pos + need <= total_len:
                return None
            raise FormatError(f"truncated shape block at offset {pos}")
        shape = struct.unpack_from(f"<{ndim}Q", blob, pos)
        pos += need
        elements = 1
        for dim in shape:
            elements *= dim
        if elements * _DTYPE_ITEMSIZE[dtype_code] != orig_len:
            raise FormatError(
                f"shape {tuple(shape)} x itemsize {_DTYPE_ITEMSIZE[dtype_code]} "
                f"does not cover the declared original length {orig_len}"
            )
    checksum: int | None = None
    if flags & FLAG_CHECKSUM:
        if pos + 4 > len(blob):
            if partial and pos + 4 <= total_len:
                return None
            raise FormatError(f"truncated checksum block at offset {pos}")
        (checksum,) = struct.unpack_from("<I", blob, pos)
        pos += 4
    raw_fallback = bool(flags & FLAG_RAW)
    if raw_fallback:
        if n_chunks != 0:
            raise FormatError(
                f"raw-fallback container must not carry chunks "
                f"(n_chunks={n_chunks} at offset 28)"
            )
        if flags & FLAG_CHUNK_CRCS:
            raise FormatError("raw-fallback container must not carry a chunk CRC table")
        if flags & FLAG_CHUNK_INDEX:
            raise FormatError("raw-fallback container must not carry a chunk index")
        if flags & FLAG_FCM_RESTART:
            raise FormatError(
                "raw-fallback container must not declare FCM restart markers"
            )
        if flags & FLAG_CHUNK_CODECS:
            raise FormatError(
                "raw-fallback container must not carry a chunk codec table"
            )
        if total_len - pos != orig_len:
            raise FormatError(
                f"raw-fallback payload length mismatch: header says {orig_len}, "
                f"container has {total_len - pos} bytes after offset {pos}"
            )
        if inter_len != orig_len:
            raise FormatError(
                f"raw-fallback intermediate length {inter_len} must equal "
                f"the original length {orig_len}"
            )
        return ContainerInfo(
            version=version,
            codec_id=codec_id,
            dtype_code=dtype_code,
            raw_fallback=True,
            original_len=orig_len,
            intermediate_len=inter_len,
            chunk_size=0,
            n_chunks=0,
            shape=shape,
            payload_offset=pos,
            total_len=total_len,
            checksum=checksum,
        )
    if flags & FLAG_FCM_RESTART and inter_len != orig_len:
        raise FormatError(
            f"FCM-restart container must have intermediate length equal to "
            f"the original length (FCM runs inside the chunk pipeline), got "
            f"{inter_len} != {orig_len}"
        )
    if flags & FLAG_CHUNK_CODECS:
        if flags & FLAG_FCM_RESTART:
            raise FormatError(
                "chunk-codec container must not also declare FCM restart "
                "markers (member codecs frame restart per chunk)"
            )
        if inter_len != orig_len:
            raise FormatError(
                f"chunk-codec container must have intermediate length equal "
                f"to the original length (every member stage runs inside the "
                f"chunk pipeline), got {inter_len} != {orig_len}"
            )
    table_bytes = n_chunks * 4
    crc_bytes = table_bytes if flags & FLAG_CHUNK_CRCS else 0
    index_bytes = n_chunks * 12 if flags & FLAG_CHUNK_INDEX else 0
    codec_bytes = n_chunks if flags & FLAG_CHUNK_CODECS else 0
    need_tables = table_bytes + crc_bytes + index_bytes + codec_bytes
    if pos + need_tables > total_len:
        raise FormatError(
            f"truncated chunk table: {n_chunks} chunks need "
            f"{need_tables} bytes at "
            f"offset {pos}, container has {total_len - pos}"
        )
    if pos + need_tables > len(blob):
        # Only reachable in partial mode: the declared total has room for
        # the tables, the bytes just haven't arrived yet.
        return None
    # The tables are copied out as stored and unpacked only on use.
    chunk_table = bytes(blob[pos : pos + table_bytes])
    pos += table_bytes
    crc_table: bytes | None = None
    if flags & FLAG_CHUNK_CRCS:
        crc_table = bytes(blob[pos : pos + crc_bytes])
        pos += crc_bytes
    index_offsets: tuple[int, ...] | None = None
    index_out_lengths: tuple[int, ...] | None = None
    if flags & FLAG_CHUNK_INDEX:
        index_offsets = struct.unpack_from(f"<{n_chunks}Q", blob, pos)
        index_out_lengths = struct.unpack_from(
            f"<{n_chunks}I", blob, pos + 8 * n_chunks
        )
        pos += index_bytes
    chunk_codec_ids: tuple[int, ...] | None = None
    if flags & FLAG_CHUNK_CODECS:
        chunk_codec_ids = struct.unpack_from(f"<{n_chunks}B", blob, pos)
        pos += codec_bytes
        # Every entry must name a known *fixed* codec before anything is
        # allocated from the table — the mixed header id cannot appear
        # (there is no pipeline behind it) and an unknown id cannot be
        # decoded.
        from repro.core.codecs import fixed_codec_ids

        known = fixed_codec_ids()
        for i, cid in enumerate(chunk_codec_ids):
            if cid not in known:
                raise FormatError(
                    f"chunk codec table entry {i} names codec id {cid}, "
                    f"which is not a known fixed codec "
                    f"(known ids: {sorted(known)})"
                )
    sizes = np.frombuffer(chunk_table, dtype="<u4")
    if not sizes.all():
        raise FormatError(
            f"chunk {int(sizes.argmin())} declares a zero-length payload in "
            f"the chunk table (every payload carries at least its flag byte)"
        )
    payload_len = int(sizes.sum(dtype=np.uint64))
    if pos + payload_len != total_len:
        raise FormatError(
            f"payload length mismatch: chunk table says {payload_len}, "
            f"container has {total_len - pos} bytes after offset {pos}"
        )
    if index_offsets is not None:
        # The stored offsets are redundant with the chunk-table prefix
        # sums; any disagreement means the index cannot be trusted for
        # seeking and the container is rejected outright.
        expect = pos
        total_out = 0
        chunk_sizes = sizes.tolist()
        for i in range(n_chunks):
            if index_offsets[i] != expect:
                raise FormatError(
                    f"chunk index entry {i} declares payload offset "
                    f"{index_offsets[i]} but the chunk table places the "
                    f"payload at offset {expect}"
                )
            out_len = index_out_lengths[i]
            if not 0 < out_len <= chunk_size:
                raise FormatError(
                    f"chunk index entry {i} declares decoded length {out_len} "
                    f"outside (0, chunk_size={chunk_size}]"
                )
            expect += chunk_sizes[i]
            total_out += out_len
        if total_out != inter_len:
            raise FormatError(
                f"chunk index decoded lengths sum to {total_out} but the "
                f"header declares intermediate length {inter_len}"
            )
    return ContainerInfo(
        version=version,
        codec_id=codec_id,
        dtype_code=dtype_code,
        raw_fallback=False,
        original_len=orig_len,
        intermediate_len=inter_len,
        chunk_size=chunk_size,
        n_chunks=n_chunks,
        shape=shape,
        payload_offset=pos,
        total_len=total_len,
        checksum=checksum,
        index_offsets=index_offsets,
        index_out_lengths=index_out_lengths,
        fcm_restart=bool(flags & FLAG_FCM_RESTART),
        chunk_codecs=chunk_codec_ids,
        chunk_table=chunk_table,
        crc_table=crc_table,
    )


def payload_offsets(info: ContainerInfo) -> list[int]:
    """Absolute offset of each chunk payload: the prefix sums over the
    chunk table that :attr:`ContainerInfo.payload_bounds` computes once per
    parsed header (a v3 index stores the same offsets, checked at parse
    time)."""
    return info.payload_bounds[:-1].tolist()


def concat_containers(blobs) -> bytes:
    """Concatenate compressed containers without re-encoding any payload.

    The inputs must share dtype and (for chunked inputs) chunk size.
    Chunk payloads are copied verbatim — inputs whose final chunk is
    partial simply become ragged interior chunks of the result, and
    raw-fallback inputs are split into ``CHUNK_RAW`` chunk payloads (a
    byte copy, not a re-encode).  When every resulting chunk belongs to
    the same fixed codec the output is the familiar version-3 container
    (byte-identical to what earlier releases produced); mixed-codec
    inputs — v4 containers, or containers of *different* fixed codecs —
    produce a version-4 output whose merged per-chunk codec table records
    each chunk's encoder.  Containers whose codec carries cross-chunk FCM
    state (v1/v2 DPratio without restart markers) cannot be concatenated
    and are rejected; recompress those with restart markers first.

    The whole-input CRC32 cannot be combined without decoding, so the
    result carries per-chunk CRCs only; shapes are dropped (the result
    describes the concatenated 1-D stream).
    """
    from repro.core.chunking import CHUNK_RAW, CHUNK_SIZE, chunk_lengths, iter_chunks
    from repro.core.codecs import MIXED, codec_by_id, fixed_codec_ids

    blobs = list(blobs)
    if not blobs:
        raise ValueError("concat_containers needs at least one container")
    infos = [inspect_container(blob) for blob in blobs]
    dtype_code = infos[0].dtype_code
    chunk_size = 0
    for i, info in enumerate(infos):
        if info.dtype_code != dtype_code:
            raise FormatError(
                f"cannot concatenate containers of different dtypes "
                f"(input 0 has dtype code {dtype_code}, input {i} has "
                f"{info.dtype_code})"
            )
        if not info.raw_fallback and info.n_chunks:
            if chunk_size and info.chunk_size != chunk_size:
                raise FormatError(
                    f"cannot concatenate containers of different chunk sizes "
                    f"({chunk_size} vs {info.chunk_size} at input {i})"
                )
            chunk_size = info.chunk_size
    chunk_size = chunk_size or CHUNK_SIZE

    payloads: list[bytes] = []
    out_lengths: list[int] = []
    member_ids: list[int] = []
    total_orig = 0
    for i, (blob, info) in enumerate(zip(blobs, infos)):
        if info.original_len == 0:
            continue
        if info.raw_fallback:
            # The raw payload is the original bytes verbatim: re-chunk it
            # as CHUNK_RAW payloads (a copy, never a stage execution).  A
            # CHUNK_RAW payload decodes identically under any pipeline,
            # so fallbacks under the mixed header id are tagged with the
            # first fixed codec id (the table cannot carry the header id).
            codec = codec_by_id(info.codec_id)
            raw_id = min(fixed_codec_ids()) if codec is MIXED else info.codec_id
            view = memoryview(blob)[info.payload_offset:]
            for piece in iter_chunks(view, chunk_size):
                payloads.append(bytes([CHUNK_RAW]) + bytes(piece))
                out_lengths.append(len(piece))
                member_ids.append(raw_id)
            total_orig += info.original_len
            continue
        if info.chunk_codecs is not None:
            ids = list(info.chunk_codecs)
        else:
            codec = codec_by_id(info.codec_id)
            if codec.global_stage_factory is not None and not info.fcm_restart:
                raise FormatError(
                    f"input {i} carries cross-chunk FCM state (container "
                    f"version {info.version} without restart markers) and "
                    f"cannot be concatenated; recompress it with fcm='restart'"
                )
            ids = [info.codec_id] * info.n_chunks
        offsets = payload_offsets(info)
        lengths = (info.index_out_lengths
                   if info.index_out_lengths is not None
                   else chunk_lengths(info.intermediate_len, info.chunk_size))
        for off, size, out_len, cid in zip(
            offsets, info.chunk_sizes, lengths, ids
        ):
            payloads.append(blob[off : off + size])
            out_lengths.append(out_len)
            member_ids.append(cid)
        total_orig += info.original_len

    if not payloads:
        # An FCM codec must keep its restart marker even with no chunks:
        # without it the decoder would run the global FCM inverse on an
        # empty intermediate, which has no trailer.
        return build_container(
            codec_id=infos[0].codec_id, dtype_code=dtype_code, original_len=0,
            intermediate_len=0, chunk_size=chunk_size, chunk_payloads=[],
            fcm_restart=codec_by_id(infos[0].codec_id).global_stage_factory is not None,
        )
    if len(set(member_ids)) == 1:
        # Uniform inputs keep the verbatim v3 shape earlier releases wrote.
        codec = codec_by_id(member_ids[0])
        return build_container(
            codec_id=member_ids[0],
            dtype_code=dtype_code,
            original_len=total_orig,
            intermediate_len=total_orig,
            chunk_size=chunk_size,
            chunk_payloads=payloads,
            chunk_crcs=True,
            chunk_index=True,
            out_lengths=out_lengths,
            fcm_restart=codec.global_stage_factory is not None,
        )
    return build_container(
        codec_id=MIXED.codec_id,
        dtype_code=dtype_code,
        original_len=total_orig,
        intermediate_len=total_orig,
        chunk_size=chunk_size,
        chunk_payloads=payloads,
        chunk_crcs=True,
        chunk_index=True,
        out_lengths=out_lengths,
        chunk_codecs=member_ids,
    )
