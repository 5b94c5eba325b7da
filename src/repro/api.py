"""High-level public API: compress/decompress numpy arrays or raw bytes.

Quickstart::

    import numpy as np
    import repro

    field = np.random.default_rng(0).normal(size=(256, 256)).astype(np.float32)
    blob = repro.compress(field)               # SPratio by default for FP32
    restored = repro.decompress(blob)          # exact, shape-preserving
    assert np.array_equal(restored, field)

    fast = repro.compress(field, mode="speed")  # SPspeed

The codec is chosen from the array dtype (float32 -> SP*, float64 -> DP*)
and the requested mode ("ratio", the default, or "speed"), or can be
named explicitly (``codec="dpratio"``).  Compression is bit-exact
lossless, including NaN payloads, infinities, negative zero, and
denormals: the values are never converted, only their IEEE-754 bit
patterns are transformed (paper §3).
"""

from __future__ import annotations

import numpy as np

from repro.core import codecs as codec_registry
from repro.core import container as fmt
from repro.core.chunking import CHUNK_SIZE
from repro.core.compressor import (
    compress_bytes,
    decompress_bytes,
    decompress_range_bytes,
)
from repro.core.executors import Executor
from repro.core.trace import TraceCollector
from repro.errors import UnsupportedDtypeError

_DTYPE_BY_CODE = {
    fmt.DTYPE_BYTES: None,
    fmt.DTYPE_F32: np.dtype(np.float32),
    fmt.DTYPE_F64: np.dtype(np.float64),
}


def _coerce_input(
    data: np.ndarray | bytes | bytearray | memoryview,
) -> tuple[bytes, int, tuple[int, ...] | None, np.dtype | None]:
    """Normalise API input to (raw bytes, dtype code, shape, numpy dtype)."""
    if isinstance(data, (bytes, bytearray, memoryview)):
        return bytes(data), fmt.DTYPE_BYTES, None, None
    array = np.asarray(data)
    if array.dtype == np.float32:
        code = fmt.DTYPE_F32
    elif array.dtype == np.float64:
        code = fmt.DTYPE_F64
    else:
        raise UnsupportedDtypeError(
            f"dtype {array.dtype} is not supported; use float32, float64, or bytes"
        )
    return np.ascontiguousarray(array).tobytes(), code, array.shape, array.dtype


def resolve_codec(
    codec: str | None, dtype: np.dtype | None, mode: str = "ratio"
) -> codec_registry.Codec:
    """The codec :func:`compress` runs: ``codec`` by name when given, else
    the paper's pick for ``dtype`` and ``mode`` (``dtype`` is ``None``
    for raw bytes, which need an explicit name)."""
    if codec is not None:
        return codec_registry.get_codec(codec)
    if dtype is not None:
        return codec_registry.codec_for(dtype, mode)
    raise UnsupportedDtypeError("raw bytes input requires an explicit codec name")


def compress(
    data: np.ndarray | bytes | bytearray | memoryview,
    codec: str | None = None,
    *,
    mode: str = "ratio",
    chunk_size: int = CHUNK_SIZE,
    workers: int = 1,
    checksum: bool = fmt.DEFAULT_CHECKSUM,
    chunk_checksums: bool = fmt.DEFAULT_CHUNK_CHECKSUMS,
    executor: str | Executor | None = None,
    trace: TraceCollector | None = None,
    fcm: str = "global",
) -> bytes:
    """Losslessly compress a float array (or raw bytes) into one container.

    Parameters
    ----------
    data:
        A float32/float64 numpy array of any shape, or raw bytes.  Raw
        bytes require an explicit ``codec``.
    codec:
        Codec name (``"spspeed"``, ``"spratio"``, ``"dpspeed"``,
        ``"dpratio"``).  When omitted, the codec is picked from the array
        dtype and ``mode``: SPratio for float32 and DPratio for float64
        by default, the paper's one pipeline per precision and goal.
    mode:
        ``"ratio"`` (default) or ``"speed"``; ignored when ``codec`` is
        given.
    chunk_size:
        Chunk granularity in bytes; the paper's (and default) value is
        16384.  Exposed for the chunk-size ablation benchmark.
    workers:
        Threads compressing independent chunks concurrently (the paper's
        OpenMP worklist).  Output bytes are identical for any value.
    checksum:
        Embed a CRC32 of the original data; :func:`decompress` then
        verifies integrity end to end (4 bytes of overhead).  Defaults
        to :data:`repro.core.container.DEFAULT_CHECKSUM` — the single
        integrity default shared by every entry point.
    chunk_checksums:
        Embed a CRC32 per chunk payload (container v2, 4 bytes per
        chunk).  Localises corruption to one chunk on decode and is what
        makes ``decompress(..., errors="salvage")`` able to recover the
        undamaged chunks.  Defaults to
        :data:`repro.core.container.DEFAULT_CHUNK_CHECKSUMS`.
    executor:
        Scheduling policy for the chunk jobs — ``"serial"``,
        ``"threaded"`` (the paper's dynamic worklist), or a prebuilt
        :class:`~repro.core.executors.Executor`.  Defaults from
        ``workers``.  Output bytes are identical under either policy.
    trace:
        A :class:`~repro.core.trace.TraceCollector` to fill with
        per-chunk instrumentation (stage timings, stage output sizes,
        raw-fallback flags, worker assignment).
    fcm:
        How a codec's FCM stage runs (DPratio only; ignored elsewhere).
        ``"global"`` (default) is the serial whole-input FCM pass with
        the v1/v2 cross-chunk layout — the paper's best-ratio mode.
        ``"restart"`` re-seeds the predictor at every chunk boundary —
        container v3, every chunk independently decodable, enabling
        O(range) :func:`decompress_range`, :func:`concat`, and parallel
        DPratio under the threaded executor.  The price is that matches
        cannot reach past one chunk: ~1-2% ratio on smooth fields, much
        more when repeats sit further back than ``chunk_size``
        (measured numbers in ALGORITHMS.md).

    Returns
    -------
    bytes
        A self-describing ``FPRZ`` container (see
        :mod:`repro.core.container`).
    """
    raw, dtype_code, shape, dtype = _coerce_input(data)
    chosen = resolve_codec(codec, dtype, mode)
    return compress_bytes(
        raw, chosen, chunk_size=chunk_size, dtype_code=dtype_code, shape=shape,
        workers=workers, checksum=checksum, chunk_checksums=chunk_checksums,
        executor=executor, trace=trace, fcm=fcm,
    )


def _reassemble(data: bytes, info: fmt.ContainerInfo) -> np.ndarray | bytes:
    dtype = _DTYPE_BY_CODE.get(info.dtype_code)
    if dtype is None:
        return data
    array = np.frombuffer(data, dtype=dtype)
    if info.shape is not None:
        array = array.reshape(info.shape)
    return array


def decompress(
    blob: bytes,
    *,
    workers: int = 1,
    executor: str | Executor | None = None,
    trace: TraceCollector | None = None,
    errors: str = "raise",
):
    """Decompress a container produced by :func:`compress`.

    Returns a numpy array with the original dtype and shape when the
    container was built from an array, or raw bytes otherwise.
    ``workers``/``executor`` schedule the independent chunk decodes just
    like :func:`compress`; ``trace`` collects per-chunk instrumentation.

    ``errors`` selects the failure policy:

    * ``"raise"`` (default) — any corruption raises a
      :class:`~repro.errors.ReproError` subclass naming the damaged
      chunk and its byte range.
    * ``"salvage"`` — best-effort decode: chunks that verify are decoded
      normally, chunks that do not are zero-filled, and the call returns
      a ``(result, report)`` tuple where ``report`` is a
      :class:`~repro.core.salvage.SalvageReport` mapping the untrusted
      output byte ranges.  Requires the container to parse far enough to
      locate its chunks (header damage still raises).
    """
    if errors == "salvage":
        data, info, report = decompress_bytes(
            blob, workers=workers, executor=executor, trace=trace,
            errors="salvage",
        )
        return _reassemble(data, info), report
    data, info = decompress_bytes(blob, workers=workers, executor=executor,
                                  trace=trace, errors=errors)
    return _reassemble(data, info)


def decompress_range(
    blob: bytes,
    start: int | None = None,
    stop: int | None = None,
    *,
    workers: int = 1,
    executor: str | Executor | None = None,
    trace: TraceCollector | None = None,
    errors: str = "raise",
):
    """Decompress only the elements ``[start, stop)`` of a container.

    Plans and decodes just the chunks overlapping the requested range —
    an O(range) read out of an O(file) container (the ROADMAP's
    random-access archive scenario).  ``start``/``stop`` follow Python
    slice semantics (negative indices and ``None`` endpoints included)
    and count *elements* for array containers, bytes for raw-bytes
    containers.  Array results are 1-D (a flat element range has no
    natural multi-dimensional shape); bytes in, bytes out.

    The result is byte-identical to ``decompress(blob)[start:stop]``
    flattened.  ``errors="salvage"`` returns ``(result, report)`` with
    damage outside the requested range never even read; the report's
    ranges are relative to the returned slice.

    Legacy containers whose codec ran a whole-input FCM pass (v1/v2
    DPratio, ``fcm="global"``) cannot decode partially; they fall back
    to a full decode and slice — correct, but without the O(range) cost.
    """
    info = fmt.inspect_container(blob)
    dtype = _DTYPE_BY_CODE.get(info.dtype_code)
    itemsize = 1 if dtype is None else dtype.itemsize
    n_items = info.original_len // itemsize
    a, b, _ = slice(start, stop).indices(n_items)
    b = max(a, b)
    if errors == "salvage":
        data, _, report = decompress_range_bytes(
            blob, a * itemsize, b * itemsize, workers=workers,
            executor=executor, trace=trace, errors="salvage", info=info,
        )
        result = data if dtype is None else np.frombuffer(data, dtype=dtype)
        return result, report
    data, _ = decompress_range_bytes(
        blob, a * itemsize, b * itemsize, workers=workers, executor=executor,
        trace=trace, errors=errors, info=info,
    )
    return data if dtype is None else np.frombuffer(data, dtype=dtype)


def concat(blobs) -> bytes:
    """Concatenate compressed containers without re-encoding any payload.

    All inputs must share a dtype; the result's decompressed content is
    the concatenation of the inputs' (flattened) content, and chunk
    payloads are copied verbatim — no stage ever re-runs.  Inputs that
    share one fixed codec merge into a version-3 container with an
    explicit chunk index; inputs with different codecs (including v4
    mixed containers) merge into a version-4 container whose per-chunk
    codec table records each member.  DPratio containers carrying
    cross-chunk FCM state (the ``fcm="global"`` default) are rejected;
    recompress them with ``fcm="restart"`` first.
    """
    return fmt.concat_containers(blobs)


def inspect(blob: bytes) -> fmt.ContainerInfo:
    """Parse a container's metadata without decompressing its payload."""
    return fmt.inspect_container(blob)


def available_codecs() -> list[str]:
    """Names of the registered codecs (the paper's four fixed pipelines)."""
    return sorted(codec_registry.CODECS)


def connect(host: str = "127.0.0.1", port: int | None = None, *,
            timeout: float = 60.0):
    """Open a blocking connection to a running ``fprz serve`` daemon.

    Returns a :class:`~repro.service.client.ServiceClient` whose
    ``compress``/``decompress`` mirror this module's functions but run
    on the server — and whose compressed bytes are byte-identical to
    :func:`compress` on the same input, because the wire payload *is*
    the FPRZ container.  Usable as a context manager::

        with repro.connect(port=9753) as remote:
            blob = remote.compress(field)
    """
    from repro.service.client import ServiceClient
    from repro.service.protocol import DEFAULT_PORT

    return ServiceClient(
        host=host, port=DEFAULT_PORT if port is None else port, timeout=timeout
    )
