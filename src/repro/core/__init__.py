"""The four codecs of the paper and the container format that frames them.

* :mod:`repro.core.chunking` — 16 KiB chunk splitting and per-chunk
  raw-fallback framing.
* :mod:`repro.core.pipeline` — stage pipelines (encode forward, decode in
  reverse order).
* :mod:`repro.core.container` — the serialised ``FPRZ`` container.
* :mod:`repro.core.codecs` — SPspeed / SPratio / DPspeed / DPratio
  definitions and the codec registry.
* :mod:`repro.core.plan` — precomputed chunk jobs and prefix-sum offsets.
* :mod:`repro.core.executors` — the chunk executors (serial reference and
  the threaded worklist of paper §3.1).
* :mod:`repro.core.trace` — per-chunk instrumentation records.
* :mod:`repro.core.compressor` — the plan/execute engine tying the above
  together.
"""

from repro.core.codecs import (
    CODECS,
    Codec,
    codec_by_id,
    codec_for,
    get_codec,
)
from repro.core.compressor import compress_bytes, decompress_bytes
from repro.core.container import (
    DEFAULT_CHECKSUM,
    DEFAULT_CHUNK_CHECKSUMS,
    ContainerInfo,
    inspect_container,
)
from repro.core.executors import (
    SCHEDULING_POLICIES,
    Executor,
    get_executor,
)
from repro.core.plan import ChunkJob, DecodePlan, EncodePlan, plan_decode, plan_encode
from repro.core.salvage import ChunkFailure, SalvageReport, merge_ranges, ranges_cover
from repro.core.trace import ChunkTrace, StageEvent, TraceCollector

__all__ = [
    "CODECS",
    "Codec",
    "ChunkFailure",
    "ChunkJob",
    "ChunkTrace",
    "ContainerInfo",
    "DEFAULT_CHECKSUM",
    "DEFAULT_CHUNK_CHECKSUMS",
    "DecodePlan",
    "EncodePlan",
    "Executor",
    "SCHEDULING_POLICIES",
    "SalvageReport",
    "StageEvent",
    "TraceCollector",
    "codec_by_id",
    "codec_for",
    "compress_bytes",
    "decompress_bytes",
    "get_codec",
    "get_executor",
    "inspect_container",
    "merge_ranges",
    "ranges_cover",
    "plan_decode",
    "plan_encode",
]
