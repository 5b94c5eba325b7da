"""Microbenchmarks of the word-lane packing kernels vs the bit-matrix
reference they replaced.

The lane kernels (``repro.bitpack.lanes``) exist purely for speed: the
wire format is unchanged (golden digests pin that).  This module keeps
the speed claim honest — at representative widths (8-52 bits, 16 KiB
chunks) the kernels must beat the reference by >= 3x in geometric
mean, per word size and direction.

Byte-aligned widths are in the grid on purpose: they hit the pure
byte-slice path (5-14x) and carry the geomean; the unaligned widths
contribute their steadier 2-3x.  A single width regressing below ~2x
will drag the geomean under the gate.

``TestBackendSpeedup`` adds the backend dimension: the numba JIT
kernels must beat the numpy lane kernels by the same >= 3x geomean on
the *unaligned* pack/unpack widths (9-49 bits).  Aligned widths are
excluded there by design — the numba backend delegates ``width % 8 == 0``
to numpy's multi-GB/s byte-slice path, so at those widths the two
backends are the same code.  The class auto-skips when numba is not
importable; CI runs it in the ``backend-smoke`` job.

Not part of tier-1 (``testpaths = ["tests"]``): timing gates belong in
the benchmark suite, where a noisy CI box can rerun them in isolation.
"""

from __future__ import annotations

import math
import time

import numpy as np
import pytest

from repro.bitpack import backend as _backend
from repro.bitpack import pack_words, unpack_words
from repro.bitpack._numba_kernels import HAVE_NUMBA

#: Representative packed widths per word size (8-52 bits), swept on
#: 16 KiB chunks.
KERNEL_WIDTHS = {32: (8, 13, 23, 29), 64: (8, 13, 29, 52)}
KERNEL_CHUNK_BYTES = 16384

MIN_GEOMEAN_SPEEDUP = 3.0
RUNS = 9

#: Unaligned widths for the backend gate — spanning the 9-49 bit band
#: the ISSUE names, none divisible by 8 (see module docstring).
BACKEND_GATE_WIDTHS = (9, 13, 21, 29, 37, 45, 49)


def _reference_pack(words: np.ndarray, width: int, word_bits: int) -> bytes:
    n = len(words)
    word_bytes = word_bits // 8
    be = words.astype(words.dtype.newbyteorder(">"), copy=False)
    bits = np.unpackbits(be.view(np.uint8).reshape(n, word_bytes), axis=1)
    return np.packbits(bits[:, word_bits - width:].reshape(-1)).tobytes()


def _reference_unpack(buf: bytes, count: int, width: int, word_bits: int) -> np.ndarray:
    raw = np.frombuffer(buf, dtype=np.uint8)
    need = (count * width + 7) // 8
    bits = np.unpackbits(raw[:need])[: count * width].reshape(count, width)
    word_bytes = word_bits // 8
    full = np.zeros((count, word_bits), dtype=np.uint8)
    full[:, word_bits - width:] = bits
    be_bytes = np.packbits(full.reshape(-1)).reshape(count, word_bytes)
    return be_bytes.view(np.dtype(f">u{word_bytes}")).reshape(count).astype(
        np.dtype(f"u{word_bytes}")
    )


def _paired_speedup(fast_fn, slow_fn, runs: int = RUNS) -> float:
    """best(slow) / best(fast), with trials interleaved.

    Interleaving keeps a frequency ramp, a noisy neighbour, or a
    mid-measurement throttle from landing entirely on one side of the
    ratio — the failure mode of timing the two loops back to back.
    """
    fast_fn(), slow_fn()  # warm caches and lru_cache'd plans
    best_fast = best_slow = math.inf
    for _ in range(runs):
        t0 = time.perf_counter()
        fast_fn()
        best_fast = min(best_fast, time.perf_counter() - t0)
        t0 = time.perf_counter()
        slow_fn()
        best_slow = min(best_slow, time.perf_counter() - t0)
    return best_slow / best_fast


def _sample(word_bits: int, width: int) -> np.ndarray:
    rng = np.random.default_rng(0x5EED + width)
    n = KERNEL_CHUNK_BYTES // (word_bits // 8)
    return rng.integers(0, 1 << width, size=n, dtype=np.uint64).astype(
        np.dtype(f"u{word_bits // 8}")
    )


@pytest.mark.parametrize("word_bits", [32, 64])
class TestKernelSpeedup:
    def test_pack_geomean_speedup(self, word_bits):
        speedups = []
        for width in KERNEL_WIDTHS[word_bits]:
            words = _sample(word_bits, width)
            assert pack_words(words, width, word_bits) == _reference_pack(
                words, width, word_bits
            )
            speedups.append(_paired_speedup(
                lambda: pack_words(words, width, word_bits),
                lambda: _reference_pack(words, width, word_bits),
            ))
        geomean = math.prod(speedups) ** (1 / len(speedups))
        assert geomean >= MIN_GEOMEAN_SPEEDUP, (
            f"pack w{word_bits}: geomean {geomean:.2f}x "
            f"(per width: {[f'{s:.1f}x' for s in speedups]})"
        )

    def test_unpack_geomean_speedup(self, word_bits):
        speedups = []
        n = KERNEL_CHUNK_BYTES // (word_bits // 8)
        for width in KERNEL_WIDTHS[word_bits]:
            words = _sample(word_bits, width)
            packed = pack_words(words, width, word_bits)
            assert np.array_equal(
                unpack_words(packed, n, width, word_bits),
                _reference_unpack(packed, n, width, word_bits),
            )
            speedups.append(_paired_speedup(
                lambda: unpack_words(packed, n, width, word_bits),
                lambda: _reference_unpack(packed, n, width, word_bits),
            ))
        geomean = math.prod(speedups) ** (1 / len(speedups))
        assert geomean >= MIN_GEOMEAN_SPEEDUP, (
            f"unpack w{word_bits}: geomean {geomean:.2f}x "
            f"(per width: {[f'{s:.1f}x' for s in speedups]})"
        )


@pytest.mark.skipif(not HAVE_NUMBA, reason="numba not importable")
@pytest.mark.parametrize("word_bits", [32, 64])
class TestBackendSpeedup:
    """numba JIT vs numpy lane kernels, paired-interleaved per width."""

    def _gate_widths(self, word_bits):
        return tuple(w for w in BACKEND_GATE_WIDTHS if w <= word_bits)

    def test_pack_backend_geomean_speedup(self, word_bits):
        numba_pack = _backend.get_backend("numba").resolved["pack_lanes"]
        numpy_pack = _backend.get_backend("numpy").resolved["pack_lanes"]
        speedups = []
        for width in self._gate_widths(word_bits):
            words = _sample(word_bits, width)
            assert numba_pack(words, width, word_bits) == numpy_pack(
                words, width, word_bits
            )
            speedups.append(_paired_speedup(
                lambda: numba_pack(words, width, word_bits),
                lambda: numpy_pack(words, width, word_bits),
            ))
        geomean = math.prod(speedups) ** (1 / len(speedups))
        assert geomean >= MIN_GEOMEAN_SPEEDUP, (
            f"numba pack w{word_bits}: geomean {geomean:.2f}x "
            f"(per width: {[f'{s:.1f}x' for s in speedups]})"
        )

    def test_unpack_backend_geomean_speedup(self, word_bits):
        numba_unpack = _backend.get_backend("numba").resolved["unpack_lanes"]
        numpy_unpack = _backend.get_backend("numpy").resolved["unpack_lanes"]
        n = KERNEL_CHUNK_BYTES // (word_bits // 8)
        speedups = []
        for width in self._gate_widths(word_bits):
            words = _sample(word_bits, width)
            packed = np.frombuffer(pack_words(words, width, word_bits), np.uint8)
            assert np.array_equal(
                numba_unpack(packed, n, width, word_bits),
                numpy_unpack(packed, n, width, word_bits),
            )
            speedups.append(_paired_speedup(
                lambda: numba_unpack(packed, n, width, word_bits),
                lambda: numpy_unpack(packed, n, width, word_bits),
            ))
        geomean = math.prod(speedups) ** (1 / len(speedups))
        assert geomean >= MIN_GEOMEAN_SPEEDUP, (
            f"numba unpack w{word_bits}: geomean {geomean:.2f}x "
            f"(per width: {[f'{s:.1f}x' for s in speedups]})"
        )
