"""Per-chunk execution traces: the engine's instrumentation layer.

FCBench-style cross-codec comparisons live or die on consistent
measurement plumbing that *observes* what each chunk actually cost.  The
engine therefore threads an optional :class:`TraceCollector` through
every executor: when present, each chunk job records one
:class:`ChunkTrace` — which worker ran it, how long each stage took, how
many bytes each stage left behind, and whether the chunk fell back to
raw storage.

Traces are collected lock-free: ``list.append`` is atomic under the GIL
and each chunk produces exactly one record, so workers on any executor
policy can share one collector.  Records arrive in completion order;
:attr:`TraceCollector.chunks` returns them sorted by chunk index.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class StageEvent:
    """One stage's contribution to one chunk (or the global stage)."""

    stage: str
    seconds: float
    out_bytes: int


@dataclass(frozen=True)
class ChunkTrace:
    """Everything the engine observed while processing one chunk."""

    index: int
    worker: int
    original_len: int
    payload_len: int
    raw_fallback: bool
    seconds: float
    #: per-stage (name, seconds, output size), in execution order —
    #: pipeline order when encoding, reverse order when decoding.
    stages: tuple[StageEvent, ...]
    #: True when the chunk ran inside a batched block; its ``seconds`` is
    #: then the block time divided evenly and ``stages`` is empty (the
    #: per-stage timings live on the block's :class:`BatchTrace`).
    batched: bool = False


@dataclass(frozen=True)
class BatchTrace:
    """One batched block of contiguous chunks processed in a single pass."""

    worker: int
    #: index of the block's first chunk.
    start: int
    n_chunks: int
    seconds: float
    #: per-stage (name, seconds, total output bytes across the batch),
    #: in execution order.
    stages: tuple[StageEvent, ...]


class TraceCollector:
    """Accumulates chunk traces from one compress or decompress call.

    Use one collector per engine call; the engine annotates it with the
    executor policy, worker count, and direction it ran under.
    """

    def __init__(self) -> None:
        self._chunks: list[ChunkTrace] = []
        self._batches: list[BatchTrace] = []
        self.policy: str | None = None
        self.workers: int | None = None
        self.direction: str | None = None
        #: the whole-input stage (FCM), when the codec has one.
        self.global_stage: StageEvent | None = None

    def add(self, trace: ChunkTrace) -> None:
        self._chunks.append(trace)

    def add_batch(self, trace: BatchTrace) -> None:
        self._batches.append(trace)

    def annotate(self, *, policy: str, workers: int, direction: str) -> None:
        self.policy = policy
        self.workers = workers
        self.direction = direction

    @property
    def chunks(self) -> tuple[ChunkTrace, ...]:
        """Chunk traces in chunk-index order (collection order is racy)."""
        return tuple(sorted(self._chunks, key=lambda t: t.index))

    @property
    def batches(self) -> tuple[BatchTrace, ...]:
        """Batched-block traces in first-chunk order."""
        return tuple(sorted(self._batches, key=lambda t: t.start))

    @property
    def n_chunks(self) -> int:
        return len(self._chunks)

    @property
    def raw_chunks(self) -> int:
        """How many chunks fell back to raw storage."""
        return sum(1 for t in self._chunks if t.raw_fallback)

    def __len__(self) -> int:
        return len(self._chunks)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"TraceCollector(chunks={len(self._chunks)}, policy={self.policy!r}, "
            f"workers={self.workers}, direction={self.direction!r})"
        )
