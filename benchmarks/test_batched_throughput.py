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

DPratio carries a second gate.  Its adaptive stages (RAZE, RARE) see a
different byte length in almost every chunk, so they batch as ragged
rows rather than equal-length grids; on one field of every DP domain,
with global and with restart FCM, batching must not lose in either
direction, global-FCM compress must gain at least 1.2x, and range reads
of 2- and 5-chunk spans of a restart container must not lose either
(within timing noise: both modes run the same per-chunk code there).

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

import pytest

from repro.core.chunking import CHUNK_SIZE
from repro.core.codecs import get_codec
from repro.core.compressor import compress_bytes, decompress_bytes, decompress_range_bytes
from repro.datasets import dp_suite

MIN_GEOMEAN_SPEEDUP = 2.0
#: DPratio gate: corpus grid scale (about 1 MiB per field) and the
#: global-FCM compress floor.
DP_SCALE = 4
MIN_DP_GLOBAL_COMPRESS_SPEEDUP = 1.2
RANGE_READS = 20  # spans per timed trial of the range-read gate
#: Range-read floor.  Spans of 2 and 5 chunks are below the stages'
#: MIN_BATCH_ROWS, so both modes run the same per-chunk stage code and
#: the ratio sits at 1.0 within this measure's noise (0.9-1.1 per field);
#: the floor catches a batched path that costs more, not that noise.
MIN_RANGE_SPEEDUP = 0.95
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


def _geomean(speedups: list[float]) -> float:
    return math.prod(speedups) ** (1 / len(speedups))


@pytest.fixture(scope="module")
def dp_fields() -> list[bytes]:
    """``files[0]`` of every DP domain at :data:`DP_SCALE`, seed 0."""
    return [
        domain.files[0].generator(
            np.random.default_rng(0), domain.files[0].grid_at(DP_SCALE)
        ).tobytes()
        for domain in dp_suite()
    ]


class TestDPratioBatchedSpeedup:
    @pytest.mark.parametrize("fcm", ["global", "restart"])
    def test_batched_never_slower(self, dp_fields, fcm):
        codec = get_codec("dpratio")
        compress, decompress = [], []
        for data in dp_fields:
            blob = compress_bytes(data, codec, fcm=fcm, batch=True)
            assert blob == compress_bytes(data, codec, fcm=fcm, batch=False)
            compress.append(_paired_speedup(
                lambda: compress_bytes(data, codec, fcm=fcm, batch=True),
                lambda: compress_bytes(data, codec, fcm=fcm, batch=False),
            ))
            decompress.append(_paired_speedup(
                lambda: decompress_bytes(blob, batch=True),
                lambda: decompress_bytes(blob, batch=False),
            ))
        floor = MIN_DP_GLOBAL_COMPRESS_SPEEDUP if fcm == "global" else 1.0
        detail = (f"compress {[f'{s:.2f}x' for s in compress]}, "
                  f"decompress {[f'{s:.2f}x' for s in decompress]}")
        assert _geomean(compress) >= floor, detail
        assert _geomean(decompress) >= 1.0, detail

    @pytest.mark.parametrize("span_chunks", [2, 5])
    def test_range_reads_never_slower(self, dp_fields, span_chunks):
        codec = get_codec("dpratio")
        speedups = []
        for data in dp_fields:
            blob = compress_bytes(data, codec, fcm="restart")
            rng = np.random.default_rng(span_chunks)
            length = (span_chunks - 1) * CHUNK_SIZE + CHUNK_SIZE // 2
            starts = rng.integers(0, len(data) - length, RANGE_READS).tolist()

            def reads(batch):
                for start in starts:
                    decompress_range_bytes(blob, start, start + length, batch=batch)

            speedups.append(_paired_speedup(lambda: reads(True), lambda: reads(False)))
        assert _geomean(speedups) >= MIN_RANGE_SPEEDUP, [f"{s:.2f}x" for s in speedups]
