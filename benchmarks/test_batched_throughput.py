"""Timing gate for chunk-batched columnar stage execution.

Batching exists purely for speed: whole blocks of chunks run through
each stage's 2D kernels in one pass instead of re-entering the Python
dispatch machinery per chunk (the wire format is unchanged — the
byte-identity sweep in ``tests/core/test_batched.py`` pins that).  This
module keeps the speed claim honest: on the speed codecs, batched
compression must beat the per-chunk loop by >= 2x in geometric mean.

The speed codecs carry the gate because their pipelines are pure kernel
work (DiffMS -> MPLG), where per-chunk Python overhead dominates; the
ratio codecs spend their time inside larger per-call kernels and gain
less from batching.

The gate compresses at ``chunk_size=4096`` rather than the 16 KiB
default.  What batching eliminates is *per-chunk dispatch* — one
``Stage.encode`` entry, frame writer, and allocation round per chunk —
and that cost scales with the chunk count, not the byte count.  At 4
KiB the input splits into 4x as many dispatch units, so a regression in
the batch path (a stage silently falling back to its per-chunk loop,
say) moves the ratio far above run-to-run noise; at 16 KiB on a 1-CPU
box the same regression can hide inside kernel-time jitter.  End-to-end
throughput at the default chunk size is measured by the ``bulk-sp`` and
``bulk-dp`` workloads of ``bench/`` instead.

Timing follows the paired-interleaved pattern of
``test_kernel_microbench._paired_speedup``: best-of-runs with trials
interleaved, so a frequency ramp or noisy neighbour cannot land
entirely on one side of the ratio.

Not part of tier-1 (``testpaths = ["tests"]``): timing gates belong in
the benchmark suite, where a noisy CI box can rerun them in isolation.
"""

from __future__ import annotations

import math
import time

import numpy as np

from repro.core.codecs import get_codec
from repro.core.compressor import compress_bytes, decompress_bytes

MIN_GEOMEAN_SPEEDUP = 2.0
SPEED_CODECS = ("spspeed", "dpspeed")
INPUT_BYTES = 1_000_000
CHUNK_BYTES = 4096  # 4x the dispatch units of the 16 KiB default
RUNS = 9


def _paired_speedup(fast_fn, slow_fn, runs: int = RUNS) -> float:
    """best(slow) / best(fast), with trials interleaved."""
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


def _sample(codec) -> bytes:
    rng = np.random.default_rng(0xBA7C4)
    n = INPUT_BYTES // codec.dtype.itemsize
    return np.cumsum(rng.normal(scale=0.01, size=n)).astype(
        codec.dtype
    ).tobytes()


class TestBatchedSpeedup:
    def test_compress_geomean_speedup_on_speed_codecs(self):
        speedups = []
        for name in SPEED_CODECS:
            codec = get_codec(name)
            data = _sample(codec)
            assert compress_bytes(
                data, codec, batch=True, chunk_size=CHUNK_BYTES
            ) == compress_bytes(data, codec, batch=False, chunk_size=CHUNK_BYTES)
            speedups.append(_paired_speedup(
                lambda: compress_bytes(
                    data, codec, batch=True, chunk_size=CHUNK_BYTES
                ),
                lambda: compress_bytes(
                    data, codec, batch=False, chunk_size=CHUNK_BYTES
                ),
            ))
        geomean = math.prod(speedups) ** (1 / len(speedups))
        assert geomean >= MIN_GEOMEAN_SPEEDUP, (
            f"batched compress geomean {geomean:.2f}x "
            f"(per codec: {[f'{s:.2f}x' for s in speedups]})"
        )

    def test_batched_decode_never_slower(self):
        """Decode batching is a smaller win; gate it at parity."""
        speedups = []
        for name in SPEED_CODECS:
            codec = get_codec(name)
            blob = compress_bytes(_sample(codec), codec, chunk_size=CHUNK_BYTES)
            speedups.append(_paired_speedup(
                lambda: decompress_bytes(blob, batch=True),
                lambda: decompress_bytes(blob, batch=False),
            ))
        geomean = math.prod(speedups) ** (1 / len(speedups))
        assert geomean >= 1.0, (
            f"batched decompress geomean {geomean:.2f}x "
            f"(per codec: {[f'{s:.2f}x' for s in speedups]})"
        )
