"""Multi-member archives: many named arrays in one random-access blob.

Scientific campaigns store hundreds of fields per snapshot (the CESM-ATM
dataset alone has 33).  An :class:`Archive` packs one FPRZ container per
member behind a central index, so any member decodes alone — the chunked
container gives parallel decode *within* a member, the archive gives
random access *across* members.

Layout::

    magic "FPRA" | version u8 | reserved u8 | n_members u16
    index: per member -> u16 name length, name (utf-8), u64 offset, u64 size
    member containers, concatenated

Offsets are relative to the start of the member section, so index size
changes never invalidate them.

Example::

    blob = write_archive({"T": temperature, "P": pressure}, mode="ratio")
    archive = Archive.from_bytes(blob)
    pressure = archive.read("P")
"""

from __future__ import annotations

import struct
from collections.abc import Mapping

import numpy as np

from repro.api import compress, decompress, decompress_range, inspect
from repro.core.container import DEFAULT_CHECKSUM, concat_containers
from repro.errors import FormatError
from repro.reader import ContainerReader

MAGIC = b"FPRA"
VERSION = 1

_HEADER = struct.Struct("<4sBBH")


def _pack_archive(blobs: list[tuple[str, bytes]]) -> bytes:
    """Serialise ``(name, container)`` pairs into one archive blob."""
    if len(blobs) > 0xFFFF:
        raise ValueError("archives hold at most 65535 members")
    seen: set[str] = set()
    index = bytearray()
    offset = 0
    for name, blob in blobs:
        encoded_name = name.encode("utf-8")
        if not 0 < len(encoded_name) <= 0xFFFF:
            raise ValueError(f"member name {name!r} must encode to 1..65535 bytes")
        if name in seen:
            raise ValueError(f"duplicate archive member {name!r}")
        seen.add(name)
        index += struct.pack("<H", len(encoded_name))
        index += encoded_name
        index += struct.pack("<QQ", offset, len(blob))
        offset += len(blob)
    header = _HEADER.pack(MAGIC, VERSION, 0, len(blobs))
    return header + bytes(index) + b"".join(blob for _, blob in blobs)


def write_archive(
    members: Mapping[str, np.ndarray | bytes],
    *,
    codec: str | None = None,
    mode: str = "ratio",
    checksum: bool = DEFAULT_CHECKSUM,
    workers: int = 1,
) -> bytes:
    """Compress ``members`` into one archive blob (iteration order kept)."""
    blobs = [
        (name, compress(data, codec, mode=mode, checksum=checksum, workers=workers))
        for name, data in members.items()
    ]
    return _pack_archive(blobs)


def append_archive(
    blob: bytes,
    members: Mapping[str, np.ndarray | bytes],
    *,
    codec: str | None = None,
    mode: str = "ratio",
    checksum: bool = DEFAULT_CHECKSUM,
    workers: int = 1,
) -> bytes:
    """Add members to an existing archive without re-encoding the old ones.

    Existing member containers are copied into the result byte-for-byte;
    only the new ``members`` are compressed.  Name collisions with
    existing members raise :class:`ValueError`.
    """
    archive = Archive.from_bytes(blob)
    blobs = [(name, archive._member_blob(name)) for name in archive.members()]
    blobs += [
        (name, compress(data, codec, mode=mode, checksum=checksum, workers=workers))
        for name, data in members.items()
    ]
    return _pack_archive(blobs)


class Archive:
    """Read-only view over an archive blob with lazy member decoding."""

    def __init__(self, blob: bytes, index: dict[str, tuple[int, int]], base: int) -> None:
        self._blob = blob
        self._index = index
        self._base = base

    @classmethod
    def from_bytes(cls, blob: bytes) -> "Archive":
        if len(blob) < _HEADER.size:
            raise FormatError("archive shorter than its header")
        magic, version, _, n_members = _HEADER.unpack_from(blob, 0)
        if magic != MAGIC:
            raise FormatError(f"bad magic {magic!r}; not an FPRA archive")
        if version != VERSION:
            raise FormatError(f"unsupported archive version {version}")
        pos = _HEADER.size
        index: dict[str, tuple[int, int]] = {}
        for _ in range(n_members):
            if pos + 2 > len(blob):
                raise FormatError("truncated archive index")
            (name_len,) = struct.unpack_from("<H", blob, pos)
            pos += 2
            if pos + name_len + 16 > len(blob):
                raise FormatError("truncated archive index entry")
            name = blob[pos : pos + name_len].decode("utf-8")
            pos += name_len
            offset, size = struct.unpack_from("<QQ", blob, pos)
            pos += 16
            if name in index:
                raise FormatError(f"duplicate archive member {name!r}")
            index[name] = (offset, size)
        base = pos
        expected_end = base + sum(size for _, size in index.values())
        if expected_end != len(blob):
            raise FormatError(
                f"archive payload length mismatch: index implies {expected_end}, "
                f"blob has {len(blob)}"
            )
        return cls(blob, index, base)

    def members(self) -> list[str]:
        """Member names, in archive order."""
        return sorted(self._index, key=lambda n: self._index[n][0])

    def __contains__(self, name: str) -> bool:
        return name in self._index

    def __len__(self) -> int:
        return len(self._index)

    def _member_blob(self, name: str) -> bytes:
        if name not in self._index:
            raise KeyError(f"no archive member {name!r}")
        offset, size = self._index[name]
        start = self._base + offset
        return self._blob[start : start + size]

    def read(
        self,
        name: str,
        *,
        workers: int = 1,
        policy=None,
        start: int | None = None,
        stop: int | None = None,
    ) -> np.ndarray | bytes:
        """Decode one member (nothing else is touched).

        ``policy`` takes the executor vocabulary — ``"serial"``,
        ``"threaded"``, or a prebuilt
        :class:`~repro.core.executors.Executor` — exactly like
        :func:`repro.decompress`'s ``executor`` argument.  Passing
        ``start``/``stop`` decodes only that element range (a 1-D
        result; see :func:`repro.decompress_range`), so a small window
        of a large member never pays for the whole container.
        """
        blob = self._member_blob(name)
        if start is not None or stop is not None:
            return decompress_range(
                blob, start, stop, workers=workers, executor=policy
            )
        return decompress(blob, workers=workers, executor=policy)

    def reader(self, name: str, *, workers: int = 1, policy=None) -> ContainerReader:
        """A lazy :class:`~repro.reader.ContainerReader` over one member.

        Nothing decodes until sliced: ``archive.reader("P")[a:b]`` reads
        only the chunks overlapping ``[a, b)``.
        """
        return ContainerReader(self._member_blob(name), workers=workers,
                               executor=policy)

    def concat(self, names) -> bytes:
        """Merge members into one v3 container, copying payloads verbatim.

        The named members (which must share codec and dtype) become a
        single seekable container whose content is their concatenation —
        no chunk is ever re-encoded (see
        :func:`repro.core.container.concat_containers`).
        """
        return concat_containers([self._member_blob(name) for name in names])

    def info(self, name: str):
        """Container metadata for one member without decoding it."""
        return inspect(self._member_blob(name))

    def total_ratio(self) -> float:
        """Aggregate compression ratio across all members."""
        original = sum(self.info(name).original_len for name in self._index)
        compressed = sum(size for _, size in self._index.values())
        return original / compressed if compressed else 0.0
