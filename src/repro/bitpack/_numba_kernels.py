"""Fused Numba JIT implementations of the bitpack kernel contract.

The numpy reference kernels (:mod:`repro.bitpack.lanes`, ``clz``,
``transpose``, ``stages._adaptive``) are built from many vectorised
passes; on the paper's 16 KiB chunks their per-op dispatch overhead
dominates.  The loops here collapse each kernel into a single pass over
the data and compile with ``@njit(nogil=True)``: one branchy scalar loop
per kernel, no intermediate arrays, and the GIL released for the whole
call — which is what lets the ``threaded`` executor policy scale chunk
work across cores (see docs/EXECUTION.md).

Byte-for-byte identity with the reference is the contract.  Every loop
body is written to run unchanged **without** numba (``_jit`` degrades to
the identity decorator), and the test suite registers that pure-Python
variant as the ``numba-py`` backend, so the exact loop semantics are
pinned against the numpy oracle even in numba-free environments; with
numba installed, the compiled variant runs the same parity sweep plus
the golden sha256 corpora (CI ``backend-smoke``).

Numba-portability rules used throughout (the loops must mean the same
thing under numpy scalar semantics and nopython semantics):

* every bit-twiddled value, mask, and shift amount is ``np.uint64`` —
  mixing uint64 with signed ints promotes to float64 under numba;
* no shift amount ever reaches 64 (undefined in LLVM, wrap-around on
  x86, but an explicit zero under numpy scalars);
* loop counters and indices stay plain Python ints.

Byte-aligned widths (``width % 8 == 0``) delegate to the reference's
aligned path: that regime is a single truncating byteswap ``astype``
(several GB/s) a scalar loop cannot beat.
"""

from __future__ import annotations

import numpy as np

try:  # pragma: no cover - exercised only where numba is installed
    import numba

    HAVE_NUMBA = True
    NUMBA_VERSION = numba.__version__
except ImportError:  # pragma: no cover
    numba = None
    HAVE_NUMBA = False
    NUMBA_VERSION = None


def _jit(fn):
    """``numba.njit(nogil=True)`` when available, else the bare function."""
    if HAVE_NUMBA:  # pragma: no cover - exercised only with numba installed
        return numba.njit(cache=True, nogil=True)(fn)
    return fn


_U64_BE = np.dtype(">u8")
_NATIVE = {32: np.dtype("u4"), 64: np.dtype("u8")}

_ONE = np.uint64(1)
_FULL = np.uint64(0xFFFFFFFFFFFFFFFF)


# ---------------------------------------------------------------------------
# pack / unpack


def _pack_loop(words, n, width, out64):
    """Accumulate ``width``-bit values MSB-first into logical u64 windows.

    ``out64[j]`` receives stream bits ``[64j, 64j + 64)`` as one logical
    value (serialised big-endian by the wrapper).  Invariant: ``acc``'s
    low ``nacc`` bits are pending stream bits; anything above is stale
    and is always shifted out before it can be observed.
    """
    if width == 64:
        mask = _FULL
    else:
        mask = (_ONE << np.uint64(width)) - _ONE
    acc = np.uint64(0)
    nacc = 0
    j = 0
    for i in range(n):
        v = np.uint64(words[i]) & mask
        if nacc + width >= 64:
            spill = nacc + width - 64
            if nacc == 0:
                # Only reachable at width == 64 (spill == 0).
                full = v >> np.uint64(spill)
            else:
                full = (acc << np.uint64(64 - nacc)) | (v >> np.uint64(spill))
            out64[j] = full
            j += 1
            acc = v
            nacc = spill
        else:
            acc = (acc << np.uint64(width)) | v
            nacc += width
    if nacc > 0:
        out64[j] = acc << np.uint64(64 - nacc)


def _unpack_loop(lanes, count, width, out):
    """Gather each value from (at most two) logical u64 stream windows.

    ``lanes[q]`` holds stream bits ``[64q, 64q + 64)``; the wrapper
    appends a zero pad lane so ``lanes[q + 1]`` is always readable.
    Stores truncate to the output dtype, which is safe because the
    double shift leaves at most ``width <= word_bits`` live bits.
    """
    bitpos = 0
    for i in range(count):
        q = bitpos >> 6
        off = bitpos & 63
        v = (lanes[q] << np.uint64(off)) >> np.uint64(64 - width)
        if off + width > 64:
            v |= lanes[q + 1] >> np.uint64(128 - width - off)
        out[i] = v
        bitpos += width


def _clz64(x):
    """Leading zeros of a nonzero uint64 (branchy binary search)."""
    c = 0
    if x >> np.uint64(32) == np.uint64(0):
        c += 32
        x <<= np.uint64(32)
    if x >> np.uint64(48) == np.uint64(0):
        c += 16
        x <<= np.uint64(16)
    if x >> np.uint64(56) == np.uint64(0):
        c += 8
        x <<= np.uint64(8)
    if x >> np.uint64(60) == np.uint64(0):
        c += 4
        x <<= np.uint64(4)
    if x >> np.uint64(62) == np.uint64(0):
        c += 2
        x <<= np.uint64(2)
    if x >> np.uint64(63) == np.uint64(0):
        c += 1
    return c


def _clz_loop(words, n, shift_up, word_bits, out):
    for i in range(n):
        x = np.uint64(words[i])
        if x == np.uint64(0):
            out[i] = word_bits
        else:
            out[i] = _clz64(x << shift_up)


def _lcb_loop(words, n, shift_up, word_bits, initial, out):
    prev = initial
    for i in range(n):
        x = np.uint64(words[i])
        d = x ^ prev
        if d == np.uint64(0):
            out[i] = word_bits
        else:
            out[i] = _clz64(d << shift_up)
        prev = x


def _transpose8(x):
    """8x8 bit-matrix transpose of one u64 lane (Hacker's Delight 7-3)."""
    t = (x ^ (x >> np.uint64(7))) & np.uint64(0x00AA00AA00AA00AA)
    x = x ^ t ^ (t << np.uint64(7))
    t = (x ^ (x >> np.uint64(14))) & np.uint64(0x0000CCCC0000CCCC)
    x = x ^ t ^ (t << np.uint64(14))
    t = (x ^ (x >> np.uint64(28))) & np.uint64(0x00000000F0F0F0F0)
    x = x ^ t ^ (t << np.uint64(28))
    return x


def _transpose_loop(words, n, word_bytes, out):
    """Bit-transpose ``n`` words into MSB-first bit-plane rows.

    Output layout (matches the reference): plane ``c*8 + b`` (byte
    column ``c`` big-endian, bit ``b`` MSB-first) is a row of
    ``ceil(n/8)`` bytes whose byte ``k`` packs values ``8k..8k+7``,
    value ``8k`` in the byte's MSB.
    """
    row_bytes = (n + 7) >> 3
    mask8 = np.uint64(0xFF)
    for k in range(row_bytes):
        base = k * 8
        hi = n - base
        if hi > 8:
            hi = 8
        for c in range(word_bytes):
            col = np.uint64(8 * (word_bytes - 1 - c))
            lane = np.uint64(0)
            for r in range(hi):
                b = (np.uint64(words[base + r]) >> col) & mask8
                lane |= b << np.uint64(56 - 8 * r)
            lane = _transpose8(lane)
            for b in range(8):
                out[(c * 8 + b) * row_bytes + k] = (
                    lane >> np.uint64(56 - 8 * b)
                ) & mask8


def _untranspose_loop(raw, count, word_bytes, out):
    """Inverse of :func:`_transpose_loop`; ``out`` is a zeroed u64 array."""
    row_bytes = (count + 7) >> 3
    for k in range(row_bytes):
        base = k * 8
        hi = count - base
        if hi > 8:
            hi = 8
        for c in range(word_bytes):
            col = np.uint64(8 * (word_bytes - 1 - c))
            lane = np.uint64(0)
            for b in range(8):
                lane |= np.uint64(raw[(c * 8 + b) * row_bytes + k]) << np.uint64(
                    56 - 8 * b
                )
            lane = _transpose8(lane)
            for r in range(hi):
                byte = (lane >> np.uint64(56 - 8 * r)) & np.uint64(0xFF)
                out[base + r] |= byte << col


def _choose_k_rows_loop(leading, counts, word_bits, hist, k_out, cost_out):
    """Per-row histogram, suffix sum and closed-form cost argmin over
    ragged rows (first minimum, like np.argmin); ``hist`` is scratch."""
    start = 0
    for r in range(len(counts)):
        n = counts[r]
        for k in range(word_bits + 1):
            hist[k] = 0
        for i in range(start, start + n):
            hist[leading[i]] += 1
        start += n
        total = 0
        for k in range(word_bits, -1, -1):
            total += hist[k]
            hist[k] = total
        cost_disabled = n * word_bits
        best_k = 1
        best_cost = n + (n - hist[1]) * 1 + n * (word_bits - 1)
        for k in range(2, word_bits + 1):
            cost = n + (n - hist[k]) * k + n * (word_bits - k)
            if cost < best_cost:
                best_cost = cost
                best_k = k
        if best_cost >= cost_disabled:
            k_out[r] = 0
            cost_out[r] = cost_disabled
        else:
            k_out[r] = best_k
            cost_out[r] = best_cost


# ---------------------------------------------------------------------------
# Kernel-contract wrappers around the loops


def _make_kernels(jit):
    """Build the kernel table with the loops passed through ``jit``.

    Called twice: with :func:`_jit` for the real backend, and with the
    identity function by the test suite to pin the pure-Python loop
    semantics (the ``numba-py`` parity backend).
    """
    pack_loop = jit(_pack_loop)
    unpack_loop = jit(_unpack_loop)
    clz_loop = jit(_clz_loop)
    lcb_loop = jit(_lcb_loop)
    transpose_loop = jit(_transpose_loop)
    untranspose_loop = jit(_untranspose_loop)
    choose_k_rows_loop = jit(_choose_k_rows_loop)

    def pack_lanes(words: np.ndarray, width: int, word_bits: int) -> bytes:
        from repro.bitpack.lanes import _pack_aligned

        n = len(words)
        if n == 0 or width == 0:
            return b""
        if width % 8 == 0:
            # The aligned regime is a truncating byteswap astype — a
            # memcpy-shaped vector op a scalar loop cannot beat.
            return _pack_aligned(words, width, word_bits)
        nbytes = (n * width + 7) // 8
        out64 = np.zeros((nbytes + 7) // 8, dtype=np.uint64)
        pack_loop(np.ascontiguousarray(words), n, width, out64)
        return out64.astype(_U64_BE).tobytes()[:nbytes]

    def unpack_lanes(
        raw: np.ndarray, count: int, width: int, word_bits: int
    ) -> np.ndarray:
        from repro.bitpack.lanes import _unpack_aligned

        dtype = _NATIVE[word_bits]
        if count == 0 or width == 0:
            return np.zeros(count, dtype=dtype)
        if width % 8 == 0:
            return _unpack_aligned(raw, count, width, word_bits, dtype)
        need = (count * width + 7) // 8
        n_lanes = (need + 7) // 8 + 1  # +1: always-readable zero spill lane
        buf = np.zeros(n_lanes * 8, dtype=np.uint8)
        buf[:need] = raw[:need]
        lanes = buf.view(_U64_BE).astype(np.uint64)
        out = np.empty(count, dtype=dtype)
        unpack_loop(lanes, count, width, out)
        return out

    def count_leading_zeros(words: np.ndarray, word_bits: int) -> np.ndarray:
        if words.dtype.itemsize * 8 != word_bits:
            raise ValueError(
                f"dtype {words.dtype} does not match word_bits={word_bits}"
            )
        out = np.empty(words.size, dtype=np.uint8)
        if words.size:
            clz_loop(
                np.ascontiguousarray(words).reshape(-1), words.size,
                np.uint64(64 - word_bits), word_bits, out,
            )
        return out.reshape(words.shape)

    def leading_common_bits(
        words: np.ndarray, word_bits: int, *, initial: int = 0
    ) -> np.ndarray:
        out = np.empty(len(words), dtype=np.uint8)
        if len(words):
            lcb_loop(
                np.ascontiguousarray(words), len(words),
                np.uint64(64 - word_bits), word_bits,
                np.uint64(words.dtype.type(initial)), out,
            )
        return out

    def bit_transpose(words: np.ndarray, word_bits: int) -> bytes:
        n = len(words)
        if n == 0:
            return b""
        row_bytes = (n + 7) // 8
        out = np.zeros(word_bits * row_bytes, dtype=np.uint8)
        transpose_loop(np.ascontiguousarray(words), n, word_bits // 8, out)
        return out.tobytes()

    def bit_untranspose(
        buf: bytes | np.ndarray, count: int, word_bits: int
    ) -> np.ndarray:
        dtype = _NATIVE[word_bits]
        if count == 0:
            return np.zeros(0, dtype=dtype)
        raw = (
            np.frombuffer(buf, dtype=np.uint8)
            if isinstance(buf, (bytes, bytearray, memoryview))
            else np.ascontiguousarray(buf, dtype=np.uint8)
        )
        need = word_bits * ((count + 7) // 8)
        if len(raw) < need:
            raise ValueError(
                f"transposed buffer too short: have {len(raw)}, need {need}"
            )
        out = np.zeros(count, dtype=np.uint64)
        untranspose_loop(raw, count, word_bits // 8, out)
        return out.astype(dtype)

    def choose_k_rows(
        leading: np.ndarray, counts: np.ndarray, word_bits: int
    ) -> tuple[np.ndarray, np.ndarray]:
        counts = np.ascontiguousarray(counts, dtype=np.int64)
        k = np.zeros(len(counts), dtype=np.int64)
        cost = np.zeros(len(counts), dtype=np.int64)
        if len(counts):
            choose_k_rows_loop(
                np.ascontiguousarray(leading, dtype=np.uint8).reshape(-1),
                counts, word_bits, np.zeros(word_bits + 1, dtype=np.int64),
                k, cost,
            )
        return k, cost

    return {
        "pack_lanes": pack_lanes,
        "unpack_lanes": unpack_lanes,
        "count_leading_zeros": count_leading_zeros,
        "leading_common_bits": leading_common_bits,
        "bit_transpose": bit_transpose,
        "bit_untranspose": bit_untranspose,
        "choose_k_rows": choose_k_rows,
    }


def pure_python_kernels() -> dict:
    """The loop bodies with no JIT — the parity oracle for numba-free CI."""
    return _make_kernels(lambda fn: fn)


def make_backend():
    """The registered ``numba`` backend (call only when numba imports)."""
    from repro.bitpack.backend import KernelBackend

    return KernelBackend(
        name="numba",
        kernels=_make_kernels(_jit),
        version=NUMBA_VERSION,
        accelerated=True,
        priority=10,
        auto=True,
    )
