"""Seekable, optionally memory-mapped random-access container reads.

A :class:`ContainerReader` wraps one FPRZ container — in-memory bytes or
a file on disk — parses its header once, and serves element ranges by
decoding only the chunks that overlap each request
(:func:`repro.core.plan.plan_for_range`).  With ``mmap=True`` (the
default for paths) the container is memory-mapped, so a slice read of a
multi-gigabyte file touches the header, the chunk index, and the few
overlapping payload windows — nothing else is ever paged in.  This is
the ROADMAP's random-access archive scenario: HDF5-filter-style usage
where TB-scale files are read selectively per domain.

    with ContainerReader("field.fprz") as reader:
        window = reader[1024:2048]     # ndarray, only ~1 chunk decoded

Array containers index by *element* (results are 1-D, like
:func:`repro.api.decompress_range`); raw-bytes containers index by byte.
"""

from __future__ import annotations

import mmap as _mmap
import os

import numpy as np

from repro.core import container as fmt
from repro.core.compressor import decompress_range_bytes
from repro.core.executors import Executor

_DTYPE_BY_CODE = {
    fmt.DTYPE_F32: np.dtype(np.float32),
    fmt.DTYPE_F64: np.dtype(np.float64),
}


class ContainerReader:
    """Random-access reads over one container; decodes only what you ask.

    Parameters
    ----------
    source:
        The container — ``bytes``/``bytearray``/``memoryview``, or a
        filesystem path (``str``/``os.PathLike``).
    mmap:
        For path sources: memory-map the file (default) instead of
        reading it into memory.  Ignored for in-memory sources.
    workers / executor:
        Scheduling for the chunk decodes of each read, with the same
        vocabulary as :func:`repro.decompress` (``"serial"``,
        ``"threaded"``, or a prebuilt executor).
    """

    def __init__(
        self,
        source,
        *,
        mmap: bool = True,
        workers: int = 1,
        executor: str | Executor | None = None,
    ) -> None:
        self._file = None
        self._map = None
        if isinstance(source, (str, os.PathLike)):
            self._file = open(source, "rb")
            if mmap:
                self._map = _mmap.mmap(
                    self._file.fileno(), 0, access=_mmap.ACCESS_READ
                )
                self._blob = self._map
            else:
                self._blob = self._file.read()
                self._file.close()
                self._file = None
        elif isinstance(source, (bytes, bytearray, memoryview)):
            self._blob = source if isinstance(source, bytes) else bytes(source)
        else:
            raise TypeError(
                f"source must be bytes-like or a path, not {type(source).__name__}"
            )
        self._closed = False
        self._info = fmt.inspect_container(self._blob)
        self._dtype = _DTYPE_BY_CODE.get(self._info.dtype_code)
        self._workers = workers
        self._executor = executor

    # -- metadata ---------------------------------------------------------

    @property
    def info(self) -> fmt.ContainerInfo:
        """Parsed container metadata (header only; nothing decoded)."""
        return self._info

    @property
    def dtype(self) -> np.dtype | None:
        """Element dtype, or ``None`` for a raw-bytes container."""
        return self._dtype

    @property
    def shape(self) -> tuple[int, ...] | None:
        """Stored array shape, if the container recorded one."""
        return self._info.shape

    @property
    def itemsize(self) -> int:
        return 1 if self._dtype is None else self._dtype.itemsize

    def __len__(self) -> int:
        """Number of elements (bytes for raw-bytes containers)."""
        return self._info.original_len // self.itemsize

    # -- reads ------------------------------------------------------------

    def read(self, start: int | None = None, stop: int | None = None,
             *, errors: str = "raise"):
        """Decode elements ``[start, stop)`` (Python slice semantics).

        Returns a 1-D ndarray (or bytes for raw-bytes containers),
        byte-identical to the same slice of a full decompression.  Only
        the overlapping chunks are read and decoded, planned from the
        header parsed at open (a read never re-parses it; each chunk's
        CRC is still verified).  With ``errors="salvage"`` returns
        ``(result, report)``.
        """
        self._check_open()
        n = len(self)
        a, b, _ = slice(start, stop).indices(n)
        b = max(a, b)
        size = self.itemsize
        if errors == "salvage":
            data, _, report = decompress_range_bytes(
                self._blob, a * size, b * size, workers=self._workers,
                executor=self._executor, errors="salvage", info=self._info,
            )
            return self._wrap(data), report
        data, _ = decompress_range_bytes(
            self._blob, a * size, b * size, workers=self._workers,
            executor=self._executor, errors=errors, info=self._info,
        )
        return self._wrap(data)

    def __getitem__(self, key):
        self._check_open()
        n = len(self)
        if isinstance(key, slice):
            a, b, step = key.indices(n)
            if step == 1:
                return self.read(a, b)
            indices = range(a, b, step)
            if len(indices) == 0:
                return self._wrap(b"")
            lo = min(indices[0], indices[-1])
            hi = max(indices[0], indices[-1]) + 1
            block = self.read(lo, hi)
            return block[a - lo :: step] if step > 0 else block[a - lo :: step]
        index = int(key)
        if index < 0:
            index += n
        if not 0 <= index < n:
            raise IndexError(f"index {key} out of range for {n} elements")
        single = self.read(index, index + 1)
        return single[0]

    def _wrap(self, data: bytes):
        return data if self._dtype is None else np.frombuffer(data, dtype=self._dtype)

    # -- lifecycle --------------------------------------------------------

    def _check_open(self) -> None:
        if self._closed:
            raise ValueError("reader is closed")

    def close(self) -> None:
        """Release the mapping / file handle; idempotent."""
        if self._closed:
            return
        self._closed = True
        if self._map is not None:
            self._map.close()
            self._map = None
        if self._file is not None:
            self._file.close()
            self._file = None

    def __enter__(self) -> ContainerReader:
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        state = "closed" if self._closed else f"{len(self)} elements"
        return f"ContainerReader({state}, dtype={self._dtype})"
