"""Deterministic container mutators for the fault-injection harness.

Each mutator is a pure function ``(blob, rng) -> bytes`` taking a *valid*
container and a seeded :class:`numpy.random.Generator`; same blob + same
generator state gives the same mutant, so every harness failure is
reproducible from ``(seed, iteration)`` alone.

The catalogue covers the damage classes a stored container actually
meets: radiation-style bit flips, overwritten or zeroed spans, truncated
and over-long files, targeted header-field damage (the bytes that size
allocations), and chunk-table splices (swapped / inflated / zeroed size
entries — the geometry the decompression-bomb guards exist for).
"""

from __future__ import annotations

import struct
from collections.abc import Callable

import numpy as np

from repro.core import container as fmt

#: ``(blob, rng) -> mutated blob``
Mutator = Callable[[bytes, np.random.Generator], bytes]


def _rand_offset(rng: np.random.Generator, n: int) -> int:
    return int(rng.integers(0, max(n, 1)))


def bit_flip(blob: bytes, rng: np.random.Generator) -> bytes:
    """Flip 1..8 random bits anywhere in the container."""
    buf = bytearray(blob)
    if not buf:
        return bytes(buf)
    for _ in range(int(rng.integers(1, 9))):
        pos = _rand_offset(rng, len(buf))
        buf[pos] ^= 1 << int(rng.integers(0, 8))
    return bytes(buf)


def byte_stomp(blob: bytes, rng: np.random.Generator) -> bytes:
    """Overwrite a random span (1..64 bytes) with random garbage."""
    buf = bytearray(blob)
    if not buf:
        return bytes(buf)
    start = _rand_offset(rng, len(buf))
    length = min(int(rng.integers(1, 65)), len(buf) - start)
    buf[start : start + length] = rng.bytes(length)
    return bytes(buf)


def zero_span(blob: bytes, rng: np.random.Generator) -> bytes:
    """Zero-fill a random span — the signature of a lost storage sector."""
    buf = bytearray(blob)
    if not buf:
        return bytes(buf)
    start = _rand_offset(rng, len(buf))
    length = min(int(rng.integers(1, 257)), len(buf) - start)
    buf[start : start + length] = bytes(length)
    return bytes(buf)


def truncate(blob: bytes, rng: np.random.Generator) -> bytes:
    """Cut the container at a random byte length (possibly zero)."""
    return blob[: _rand_offset(rng, len(blob) + 1)]


def extend(blob: bytes, rng: np.random.Generator) -> bytes:
    """Append 1..256 random trailing bytes."""
    return blob + rng.bytes(int(rng.integers(1, 257)))


#: (offset, size) of every fixed header field, from the wire layout
#: ``<4sBBBBQQII`` — the bytes allocations are sized from.
_HEADER_FIELDS = (
    (0, 4),    # magic
    (4, 1),    # version
    (5, 1),    # codec_id
    (6, 1),    # dtype_code
    (7, 1),    # flags
    (8, 8),    # original_len
    (16, 8),   # intermediate_len
    (24, 4),   # chunk_size
    (28, 4),   # n_chunks
)


def header_field(blob: bytes, rng: np.random.Generator) -> bytes:
    """Rewrite one header field with an adversarial value.

    Half the time the field becomes an extreme (all-zero or all-ones —
    the decompression-bomb shapes), otherwise random bytes.
    """
    buf = bytearray(blob)
    if len(buf) < 32:
        return bit_flip(blob, rng)
    offset, size = _HEADER_FIELDS[int(rng.integers(0, len(_HEADER_FIELDS)))]
    choice = int(rng.integers(0, 4))
    if choice == 0:
        value = bytes(size)
    elif choice == 1:
        value = b"\xff" * size
    else:
        value = rng.bytes(size)
    buf[offset : offset + size] = value
    return bytes(buf)


def _trailing_table_bytes(info: fmt.ContainerInfo) -> int:
    """Bytes between the chunk-CRC table and the payloads: the v3 chunk
    index (12 per chunk) and the v4 codec table (1 per chunk)."""
    trailing = 0
    if info.index_offsets is not None:
        trailing += 12 * info.n_chunks
    if info.chunk_codecs is not None:
        trailing += info.n_chunks
    return trailing


def _table_geometry(blob: bytes) -> tuple[int, int, int] | None:
    """(size_table_offset, crc_table_offset_or_-1, n_chunks) of a valid blob."""
    try:
        info = fmt.inspect_container(blob)
    except Exception:
        return None
    if info.n_chunks == 0:
        return None
    tables = 2 if info.chunk_crcs is not None else 1
    base = info.payload_offset - _trailing_table_bytes(info)
    size_off = base - 4 * info.n_chunks * tables
    crc_off = base - 4 * info.n_chunks if tables == 2 else -1
    return size_off, crc_off, info.n_chunks


def chunk_table_entry(blob: bytes, rng: np.random.Generator) -> bytes:
    """Rewrite one chunk-size table entry with an adversarial length."""
    geometry = _table_geometry(blob)
    if geometry is None:
        return bit_flip(blob, rng)
    size_off, _, n_chunks = geometry
    buf = bytearray(blob)
    i = int(rng.integers(0, n_chunks))
    choice = int(rng.integers(0, 4))
    if choice == 0:
        value = 0
    elif choice == 1:
        value = 0xFFFFFFFF
    elif choice == 2:
        value = int(rng.integers(0, 1 << 31))
    else:  # off-by-one on the real entry
        (current,) = struct.unpack_from("<I", buf, size_off + 4 * i)
        value = max(0, current + int(rng.integers(-2, 3)))
    struct.pack_into("<I", buf, size_off + 4 * i, value)
    return bytes(buf)


def chunk_table_splice(blob: bytes, rng: np.random.Generator) -> bytes:
    """Swap two chunk-size entries — sizes stay plausible, sum unchanged,
    but every payload window between them shifts onto the wrong bytes."""
    geometry = _table_geometry(blob)
    if geometry is None or geometry[2] < 2:
        return chunk_table_entry(blob, rng)
    size_off, _, n_chunks = geometry
    buf = bytearray(blob)
    i, j = rng.choice(n_chunks, size=2, replace=False)
    a = slice(size_off + 4 * int(i), size_off + 4 * int(i) + 4)
    b = slice(size_off + 4 * int(j), size_off + 4 * int(j) + 4)
    buf[a], buf[b] = buf[b], buf[a]
    return bytes(buf)


def _index_geometry(blob: bytes) -> tuple[int, int, int, int] | None:
    """(offset_table, length_table, n_chunks, payload_offset) of the v3
    chunk index, or ``None`` when the container carries no index."""
    try:
        info = fmt.inspect_container(blob)
    except Exception:
        return None
    if info.index_offsets is None or info.n_chunks == 0:
        return None
    codec_bytes = (info.n_chunks if info.chunk_codecs is not None else 0)
    offset_table = info.payload_offset - codec_bytes - 12 * info.n_chunks
    length_table = info.payload_offset - codec_bytes - 4 * info.n_chunks
    return offset_table, length_table, info.n_chunks, info.payload_offset


def index_offset_mismatch(blob: bytes, rng: np.random.Generator) -> bytes:
    """Rewrite one v3 index offset so it disagrees with the size table.

    The stored offsets are redundant with the chunk-size prefix sums by
    design; a decoder trusting the index without cross-checking it would
    read payload windows from the wrong bytes (or far past the blob).
    Every mutant that changes a byte must be rejected at parse time.
    """
    geometry = _index_geometry(blob)
    if geometry is None:
        return bit_flip(blob, rng)
    offset_table, _, n_chunks, payload_offset = geometry
    buf = bytearray(blob)
    i = int(rng.integers(0, n_chunks))
    (current,) = struct.unpack_from("<Q", buf, offset_table + 8 * i)
    choice = int(rng.integers(0, 4))
    if choice == 0:
        value = 0
    elif choice == 1:
        value = 0xFFFFFFFFFFFFFFFF
    elif choice == 2:
        value = int(rng.integers(0, len(blob) * 2 + 1))
    else:  # off-by-a-little on the real entry
        value = max(0, current + int(rng.integers(-64, 65)))
    struct.pack_into("<Q", buf, offset_table + 8 * i, value)
    return bytes(buf)


def index_overlap(blob: bytes, rng: np.random.Generator) -> bytes:
    """Make two v3 index entries overlap the same payload bytes.

    One chunk's offset is pulled back inside its predecessor's window
    (or two offsets are swapped), so the declared windows alias — the
    shape an attacker would use to make one stored span decode as many
    chunks.  Must be rejected at parse time.
    """
    geometry = _index_geometry(blob)
    if geometry is None or geometry[2] < 2:
        return index_offset_mismatch(blob, rng)
    offset_table, _, n_chunks, _ = geometry
    buf = bytearray(blob)
    if rng.integers(0, 2):
        i, j = rng.choice(n_chunks, size=2, replace=False)
        a = slice(offset_table + 8 * int(i), offset_table + 8 * int(i) + 8)
        b = slice(offset_table + 8 * int(j), offset_table + 8 * int(j) + 8)
        buf[a], buf[b] = buf[b], buf[a]
    else:
        i = int(rng.integers(1, n_chunks))
        (previous,) = struct.unpack_from("<Q", buf, offset_table + 8 * (i - 1))
        (current,) = struct.unpack_from("<Q", buf, offset_table + 8 * i)
        span = max(1, current - previous)
        value = previous + int(rng.integers(0, span))
        struct.pack_into("<Q", buf, offset_table + 8 * i, value)
    return bytes(buf)


def _codec_table_geometry(blob: bytes) -> tuple[int, int] | None:
    """(codec_table_offset, n_chunks) of a v4 blob, or ``None``."""
    try:
        info = fmt.inspect_container(blob)
    except Exception:
        return None
    if info.chunk_codecs is None or info.n_chunks == 0:
        return None
    return info.payload_offset - info.n_chunks, info.n_chunks


def codec_table_id(blob: bytes, rng: np.random.Generator) -> bytes:
    """Rewrite one v4 codec-table entry with an unknown codec id.

    The per-chunk table routes each payload to a decode pipeline; an
    entry naming a codec this build does not know (including the
    ``mixed`` header id, which never encodes a chunk) must be rejected at
    parse time — before any pipeline or allocation is chosen from it.
    """
    from repro.core.codecs import fixed_codec_ids

    geometry = _codec_table_geometry(blob)
    if geometry is None:
        return bit_flip(blob, rng)
    table_off, n_chunks = geometry
    buf = bytearray(blob)
    i = int(rng.integers(0, n_chunks))
    known = fixed_codec_ids()
    while True:
        value = int(rng.integers(0, 256))
        if value not in known:
            break
    buf[table_off + i] = value
    return bytes(buf)


def codec_table_flag(blob: bytes, rng: np.random.Generator) -> bytes:
    """Flip the ``FLAG_CHUNK_CODECS`` header bit.

    Both directions must be rejected: cleared on a v4 container, the
    declared tables no longer account for the codec-table bytes (and a
    ``mixed`` header codec without a table is meaningless); set on a
    v1-v3 container, the flag is unknown for that version.
    """
    buf = bytearray(blob)
    if len(buf) < 8:
        return bit_flip(blob, rng)
    buf[7] ^= fmt.FLAG_CHUNK_CODECS
    return bytes(buf)


def codec_table_truncate(blob: bytes, rng: np.random.Generator) -> bytes:
    """Delete one byte of the v4 codec table (shortening the blob).

    Every payload window shifts one byte early and the declared
    geometry no longer matches the blob length — the truncation check
    must reject the container before any chunk is read.
    """
    geometry = _codec_table_geometry(blob)
    if geometry is None:
        return truncate(blob, rng)
    table_off, n_chunks = geometry
    i = int(rng.integers(0, n_chunks))
    return blob[: table_off + i] + blob[table_off + i + 1 :]


def payload_flip(blob: bytes, rng: np.random.Generator) -> bytes:
    """Flip one bit strictly inside the payload region.

    The harness's salvage-recovery invariant keys off this mutator:
    header and tables stay intact, so salvage must contain the damage to
    the one chunk that owns the flipped bit.
    """
    try:
        info = fmt.inspect_container(blob)
    except Exception:
        return bit_flip(blob, rng)
    if info.payload_offset >= len(blob):
        return bit_flip(blob, rng)
    buf = bytearray(blob)
    pos = int(rng.integers(info.payload_offset, len(buf)))
    buf[pos] ^= 1 << int(rng.integers(0, 8))
    return bytes(buf)


def pad_bit_set(blob: bytes, rng: np.random.Generator) -> bytes:
    """OR 1..7 low bits into the final byte of one chunk payload.

    Every packed bit stream a chunk ends with (``pack_words`` output,
    bitmap levels) zero-pads its final byte, and the decoders reject
    nonzero padding as corruption.  Before that check, damage landing on
    pad bits was silently discarded by the unpack slice; this mutator
    pins the new behaviour — a typed failure (or a CRC rejection on v2
    containers), never a silent pass-through of a damaged stream.
    """
    try:
        info = fmt.inspect_container(blob)
    except Exception:
        return bit_flip(blob, rng)
    if info.n_chunks == 0 or info.payload_offset >= len(blob):
        return bit_flip(blob, rng)
    buf = bytearray(blob)
    i = int(rng.integers(0, info.n_chunks))
    if info.chunk_sizes[i] == 0:
        return bit_flip(blob, rng)
    end = info.payload_offset + sum(info.chunk_sizes[: i + 1])
    if end > len(buf):
        return bit_flip(blob, rng)
    buf[end - 1] |= (1 << int(rng.integers(1, 8))) - 1
    return bytes(buf)


# ---------------------------------------------------------------------------
# FPRW frame mutators.
#
# These operate on one complete wire frame (header + body) of the FPRW
# protocol spoken by ``fprz serve`` — layout ``<4sBBBBQI`` + body, see
# :mod:`repro.service.protocol`.  The frame fuzzer feeds the mutants to
# the exact ``parse_frame``/``decode_*`` functions the server calls, so
# every damage class here is a damage class a listening socket meets.

#: Frame header offsets, from the ``<4sBBBBQI`` wire layout.
_F_MAGIC = 0
_F_VERSION = 4
_F_OPCODE = 5
_F_FLAGS = 6
_F_RESERVED = 7
_F_BODY_LEN = 16
_FRAME_HEADER_SIZE = 20


def frame_truncate(frame: bytes, rng: np.random.Generator) -> bytes:
    """Cut the frame at a random byte — a dropped connection mid-send."""
    return frame[: _rand_offset(rng, len(frame) + 1)]


def frame_oversize_length(frame: bytes, rng: np.random.Generator) -> bytes:
    """Declare a body far past any sane frame limit (allocation-bomb shape)."""
    buf = bytearray(frame)
    if len(buf) < _FRAME_HEADER_SIZE:
        return bit_flip(frame, rng)
    extremes = (0xFFFFFFFF, 1 << 31, (1 << 30) + 1)
    value = extremes[int(rng.integers(0, len(extremes)))]
    struct.pack_into("<I", buf, _F_BODY_LEN, value)
    return bytes(buf)


def frame_bad_magic(frame: bytes, rng: np.random.Generator) -> bytes:
    """Replace the magic with something that is not ``FPRW``."""
    buf = bytearray(frame)
    if len(buf) < _FRAME_HEADER_SIZE:
        return bit_flip(frame, rng)
    while True:
        magic = rng.bytes(4)
        if magic != bytes(buf[_F_MAGIC : _F_MAGIC + 4]):
            break
    buf[_F_MAGIC : _F_MAGIC + 4] = magic
    return bytes(buf)


def frame_bad_version(frame: bytes, rng: np.random.Generator) -> bytes:
    """Claim a wire protocol version this library does not speak."""
    buf = bytearray(frame)
    if len(buf) < _FRAME_HEADER_SIZE:
        return bit_flip(frame, rng)
    current = buf[_F_VERSION]
    buf[_F_VERSION] = (current + int(rng.integers(1, 256))) % 256
    return bytes(buf)


def frame_flags_garbage(frame: bytes, rng: np.random.Generator) -> bytes:
    """Set the reserved flags/reserved bytes nonzero."""
    buf = bytearray(frame)
    if len(buf) < _FRAME_HEADER_SIZE:
        return bit_flip(frame, rng)
    field = _F_FLAGS if rng.integers(0, 2) else _F_RESERVED
    buf[field] = int(rng.integers(1, 256))
    return bytes(buf)


def frame_opcode_invalid(frame: bytes, rng: np.random.Generator) -> bytes:
    """Flip the opcode to a value outside every opcode table."""
    from repro.service.protocol import OPCODE_NAMES

    buf = bytearray(frame)
    if len(buf) < _FRAME_HEADER_SIZE:
        return bit_flip(frame, rng)
    while True:
        opcode = int(rng.integers(0, 256))
        if opcode not in OPCODE_NAMES:
            break
    buf[_F_OPCODE] = opcode
    return bytes(buf)


def frame_opcode_swap(frame: bytes, rng: np.random.Generator) -> bytes:
    """Swap the opcode for a *different valid* one.

    The header stays well-formed, so the body now parses under the wrong
    opcode's layout — the cross-opcode confusion a buggy client sends.
    """
    from repro.service.protocol import OPCODE_NAMES

    buf = bytearray(frame)
    if len(buf) < _FRAME_HEADER_SIZE:
        return bit_flip(frame, rng)
    others = sorted(code for code in OPCODE_NAMES if code != buf[_F_OPCODE])
    buf[_F_OPCODE] = others[int(rng.integers(0, len(others)))]
    return bytes(buf)


def frame_length_mismatch(frame: bytes, rng: np.random.Generator) -> bytes:
    """Nudge ``body_len`` so the declaration no longer matches the body."""
    buf = bytearray(frame)
    if len(buf) < _FRAME_HEADER_SIZE:
        return bit_flip(frame, rng)
    (current,) = struct.unpack_from("<I", buf, _F_BODY_LEN)
    while True:
        delta = int(rng.integers(-16, 17))
        value = max(0, current + delta)
        if value != current:
            break
    struct.pack_into("<I", buf, _F_BODY_LEN, value)
    return bytes(buf)


def frame_body_stomp(frame: bytes, rng: np.random.Generator) -> bytes:
    """Corrupt body bytes only — the header stays intact and truthful.

    The frame parses; the damage must be caught (or tolerated) by the
    per-opcode body decoders, never by an unchecked allocation.
    """
    buf = bytearray(frame)
    if len(buf) <= _FRAME_HEADER_SIZE:
        return frame_flags_garbage(frame, rng)
    start = _FRAME_HEADER_SIZE + _rand_offset(rng, len(buf) - _FRAME_HEADER_SIZE)
    length = min(int(rng.integers(1, 33)), len(buf) - start)
    buf[start : start + length] = rng.bytes(length)
    return bytes(buf)


FRAME_MUTATORS: dict[str, Mutator] = {
    "frame-truncate": frame_truncate,
    "frame-oversize": frame_oversize_length,
    "frame-bad-magic": frame_bad_magic,
    "frame-bad-version": frame_bad_version,
    "frame-flags": frame_flags_garbage,
    "frame-opcode-invalid": frame_opcode_invalid,
    "frame-opcode-swap": frame_opcode_swap,
    "frame-length-mismatch": frame_length_mismatch,
    "frame-body-stomp": frame_body_stomp,
}

#: Mutators whose mutants (when they changed any byte) definitionally
#: violate the frame contract — the parser accepting one is a failure.
FRAME_MUST_REJECT = frozenset({
    "frame-truncate",
    "frame-oversize",
    "frame-bad-magic",
    "frame-bad-version",
    "frame-flags",
    "frame-opcode-invalid",
    "frame-length-mismatch",
})


def mutate_frame(frame: bytes, name: str, rng: np.random.Generator) -> bytes:
    """Apply the named frame mutator."""
    return FRAME_MUTATORS[name](frame, rng)


# ---------------------------------------------------------------------------
# Stream-sequence mutators
# ---------------------------------------------------------------------------
# These operate on a *sequence* of frames forming one or more valid
# streams (STREAM-BEGIN / DATA / END sharing a correlation id).  Each
# models a protocol violation only visible across frames — exactly the
# state machine :class:`repro.service.protocol.StreamLedger` (and through
# it the server) enforces, so the frame fuzzer probes mutants against
# the same ledger production traffic hits.

_F_REQUEST_ID = 8

_OP_STREAM_BEGIN = 0x06
_OP_STREAM_DATA = 0x07
_OP_STREAM_END = 0x08


def _frame_opcode(frame: bytes) -> int:
    return frame[_F_OPCODE]


def _frame_rid(frame: bytes) -> int:
    return struct.unpack_from("<Q", frame, _F_REQUEST_ID)[0]


def _with_rid(frame: bytes, rid: int) -> bytes:
    buf = bytearray(frame)
    struct.pack_into("<Q", buf, _F_REQUEST_ID, rid)
    return bytes(buf)


def _frame_body(frame: bytes) -> bytes:
    return frame[_FRAME_HEADER_SIZE:]


def _pick(rng: np.random.Generator, items: list[int]) -> int:
    return items[int(rng.integers(0, len(items)))]


def stream_unknown_id(frames: list[bytes], rng: np.random.Generator) -> list[bytes]:
    """Retarget a DATA or END frame at a correlation id nothing ever began."""
    idxs = [i for i, f in enumerate(frames)
            if _frame_opcode(f) in (_OP_STREAM_DATA, _OP_STREAM_END)]
    if not idxs:
        return list(frames)
    used = {_frame_rid(f) for f in frames}
    rid = max(used) + 1 + int(rng.integers(0, 1000))
    out = list(frames)
    i = _pick(rng, idxs)
    out[i] = _with_rid(out[i], rid)
    return out


def stream_data_before_begin(
    frames: list[bytes], rng: np.random.Generator
) -> list[bytes]:
    """Move a stream's first DATA frame ahead of its BEGIN."""
    begins = [i for i, f in enumerate(frames)
              if _frame_opcode(f) == _OP_STREAM_BEGIN]
    if not begins:
        return list(frames)
    b = _pick(rng, begins)
    rid = _frame_rid(frames[b])
    data = [i for i, f in enumerate(frames)
            if i > b and _frame_opcode(f) == _OP_STREAM_DATA
            and _frame_rid(f) == rid]
    if not data:
        return list(frames)
    d = data[0]
    out = list(frames)
    moved = out.pop(d)
    out.insert(b, moved)
    return out


def stream_overlap_begin(
    frames: list[bytes], rng: np.random.Generator
) -> list[bytes]:
    """Re-open an already-open stream: a second BEGIN with a live id."""
    begins = [i for i, f in enumerate(frames)
              if _frame_opcode(f) == _OP_STREAM_BEGIN]
    if not begins:
        return list(frames)
    b = _pick(rng, begins)
    rid = _frame_rid(frames[b])
    # Insert the duplicate before the stream's END (after END the id is
    # retired and may legitimately be reused), strictly after the original.
    end = next((i for i, f in enumerate(frames)
                if i > b and _frame_opcode(f) == _OP_STREAM_END
                and _frame_rid(f) == rid), len(frames))
    at = b + 1 + int(rng.integers(0, end - b))
    out = list(frames)
    out.insert(at, frames[b])
    return out


def stream_window_violation(
    frames: list[bytes], rng: np.random.Generator
) -> list[bytes]:
    """Merge one stream's DATA frames into a single burst past any window.

    The corpus streams more total bytes than the ledger window, so the
    merged frame always exceeds the credit a well-behaved sender could
    hold at once.
    """
    begins = [i for i, f in enumerate(frames)
              if _frame_opcode(f) == _OP_STREAM_BEGIN]
    if not begins:
        return list(frames)
    b = _pick(rng, begins)
    rid = _frame_rid(frames[b])
    data = [i for i, f in enumerate(frames)
            if _frame_opcode(f) == _OP_STREAM_DATA and _frame_rid(f) == rid]
    if len(data) < 2:
        return list(frames)
    merged = b"".join(_frame_body(frames[i]) for i in data)
    from repro.service.protocol import encode_frame

    out = [f for i, f in enumerate(frames) if i not in data[1:]]
    out[out.index(frames[data[0]])] = encode_frame(_OP_STREAM_DATA, rid, merged)
    return out


def stream_truncate(frames: list[bytes], rng: np.random.Generator) -> list[bytes]:
    """Drop one DATA frame but keep the END — a silently shortened stream."""
    data = [i for i, f in enumerate(frames)
            if _frame_opcode(f) == _OP_STREAM_DATA]
    if not data:
        return list(frames)
    drop = _pick(rng, data)
    return [f for i, f in enumerate(frames) if i != drop]


StreamMutator = Callable[[list[bytes], np.random.Generator], list[bytes]]

STREAM_MUTATORS: dict[str, StreamMutator] = {
    "stream-unknown-id": stream_unknown_id,
    "stream-data-before-begin": stream_data_before_begin,
    "stream-overlap-begin": stream_overlap_begin,
    "stream-window-violation": stream_window_violation,
    "stream-truncate": stream_truncate,
}

#: Every stream mutant (when it changed the sequence) violates the stream
#: state machine by construction — the ledger accepting one is a failure.
STREAM_MUST_REJECT = frozenset(STREAM_MUTATORS)


def mutate_stream(
    frames: list[bytes], name: str, rng: np.random.Generator
) -> list[bytes]:
    """Apply the named stream-sequence mutator."""
    return STREAM_MUTATORS[name](list(frames), rng)


MUTATORS: dict[str, Mutator] = {
    "bit-flip": bit_flip,
    "byte-stomp": byte_stomp,
    "zero-span": zero_span,
    "truncate": truncate,
    "extend": extend,
    "header-field": header_field,
    "chunk-table-entry": chunk_table_entry,
    "chunk-table-splice": chunk_table_splice,
    "index-offset": index_offset_mismatch,
    "index-overlap": index_overlap,
    "codec-table-id": codec_table_id,
    "codec-table-flag": codec_table_flag,
    "codec-table-truncate": codec_table_truncate,
    "payload-flip": payload_flip,
    "pad-bit-set": pad_bit_set,
}

#: Container mutators whose mutants (when applied to an index-carrying
#: container and any byte changed) definitionally violate the format
#: contract — the decoder accepting one is a harness failure.
CONTAINER_MUST_REJECT = frozenset({
    "index-offset",
    "index-overlap",
})

#: Mutators targeting the v4 per-chunk codec table whose mutants (when
#: applied to a codec-table-carrying container and any byte changed)
#: must be rejected at parse time.
CODEC_TABLE_MUST_REJECT = frozenset({
    "codec-table-id",
    "codec-table-truncate",
})

#: The flag flip is unconditionally a contract violation on *every*
#: valid container: set, the flag is unknown below v4 (and undeclared
#: table bytes above); cleared, a v4 geometry no longer adds up.
FLAG_MUST_REJECT = frozenset({"codec-table-flag"})


def mutate(blob: bytes, name: str, rng: np.random.Generator) -> bytes:
    """Apply the named mutator."""
    return MUTATORS[name](blob, rng)
