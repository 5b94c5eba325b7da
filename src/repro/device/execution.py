"""Execution-schedule simulation of the paper's parallel encoders (§3.1).

The paper's CPU code "dynamically assign[s] the chunks to the threads to
maximize the load balance"; the GPU code does the same with thread
blocks and communicates compressed-chunk write positions with Merrill &
Garland's decoupled look-back.  This module simulates those schedules
deterministically:

* :func:`chunk_work_estimates` turns real per-chunk compression work into
  task durations (chunks that fall back to raw storage are cheaper on the
  writing side but were still transformed — both passes are charged);
* :class:`WorklistSimulator` plays the dynamic worklist (greedy:
  whichever worker frees first pops the next chunk) or a static blocked
  partition against ``n_workers`` execution slots.  ``threaded`` names
  the dynamic worklist, as it does for the real executor in
  :mod:`repro.core.executors`, and ``static-blocks`` the blocked
  partition, whose boundaries come from the same
  :func:`~repro.core.executors.static_block_bounds` the engine splits
  batched blocks with.  The simulator owns this vocabulary
  (:func:`normalize_policy`), so a modeled schedule and a measured run
  describe the same strategy;
* :func:`lookback_write_completion` adds the §3.1 write-position chain on
  top of a schedule: chunk *i* may only learn its output offset after
  chunk *i-1* posts its compressed size, so stragglers can serialise the
  tail of the write phase.

Everything is exact arithmetic over the task durations — no randomness —
so schedules are reproducible and assertable in tests.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

import numpy as np

from repro.core.chunking import CHUNK_SIZE, iter_chunks
from repro.core.codecs import Codec
from repro.core.executors import static_block_bounds
from repro.device.machines import Device


#: Canonical names of the simulated schedules.
SIMULATED_POLICIES = ("serial", "threaded", "static-blocks")

#: The simulator's historical names for its schedules.
_POLICY_ALIASES = {
    "dynamic": "threaded",
    "worklist": "threaded",
    "static": "static-blocks",
}


def normalize_policy(name: str) -> str:
    """Map a simulated schedule's name or alias to its canonical form."""
    key = name.lower().replace("_", "-")
    key = _POLICY_ALIASES.get(key, key)
    if key not in SIMULATED_POLICIES:
        raise ValueError(
            f"unknown scheduling policy {name!r}; "
            f"choose from {', '.join(SIMULATED_POLICIES)}"
        )
    return key


@dataclass(frozen=True)
class Schedule:
    """Outcome of one simulated run."""

    policy: str
    n_workers: int
    makespan: float
    per_worker_busy: tuple[float, ...]
    #: task index -> worker that executed it
    assignment: tuple[int, ...]
    #: task index -> (start, finish) times
    spans: tuple[tuple[float, float], ...]

    @property
    def total_work(self) -> float:
        return float(sum(self.per_worker_busy))

    @property
    def utilization(self) -> float:
        """Fraction of worker-time spent busy (1.0 = perfect balance)."""
        if self.makespan <= 0 or self.n_workers == 0:
            return 1.0
        return self.total_work / (self.makespan * self.n_workers)

    @property
    def imbalance(self) -> float:
        """Max worker busy time over mean busy time (1.0 = perfect)."""
        busy = np.array(self.per_worker_busy)
        mean = busy.mean()
        return float(busy.max() / mean) if mean > 0 else 1.0


def chunk_work_estimates(
    data: bytes, codec: Codec, *, chunk_size: int = CHUNK_SIZE
) -> np.ndarray:
    """Per-chunk work estimates (arbitrary time units) from real encoding.

    Work scales with the bytes each chunk's pipeline touches: the chunk
    itself plus every intermediate stage output.  Compressible chunks do
    more transformation work (their later stages still run); raw-fallback
    chunks stop paying after the failed attempt — both match how the real
    encoder spends its time.
    """
    pipeline = codec.make_pipeline()
    estimates = []
    for chunk in iter_chunks(data, chunk_size):
        touched = len(chunk)
        body = chunk
        for stage in pipeline.stages:
            body = stage.encode(body)
            touched += len(body)
        estimates.append(float(touched))
    return np.array(estimates)


class WorklistSimulator:
    """Deterministic multi-worker schedule simulation."""

    def __init__(self, n_workers: int) -> None:
        if n_workers < 1:
            raise ValueError("need at least one worker")
        self.n_workers = n_workers

    def simulate(self, work: np.ndarray, policy: str = "dynamic") -> Schedule:
        """Play ``work`` under a scheduling policy.

        Policy names are :data:`SIMULATED_POLICIES` — ``threaded``
        (alias ``dynamic``), ``static-blocks`` (alias ``static``), or
        ``serial`` (one worker regardless of ``n_workers``).
        """
        policy = normalize_policy(policy)
        if policy == "serial":
            schedule = WorklistSimulator(1)._dynamic(work)
            return Schedule("serial", 1, schedule.makespan,
                            schedule.per_worker_busy, schedule.assignment,
                            schedule.spans)
        if policy == "threaded":
            return self._dynamic(work)
        return self._static(work)

    def _dynamic(self, work: np.ndarray) -> Schedule:
        """The paper's worklist: the next free worker pops the next chunk."""
        free_at = [(0.0, worker) for worker in range(self.n_workers)]
        heapq.heapify(free_at)
        busy = [0.0] * self.n_workers
        assignment = []
        spans = []
        for duration in work:
            start, worker = heapq.heappop(free_at)
            finish = start + float(duration)
            busy[worker] += float(duration)
            assignment.append(worker)
            spans.append((start, finish))
            heapq.heappush(free_at, (finish, worker))
        makespan = max((t for t, _ in free_at), default=0.0)
        return Schedule("threaded", self.n_workers, makespan, tuple(busy),
                        tuple(assignment), tuple(spans))

    def _static(self, work: np.ndarray) -> Schedule:
        """Blocked partition: worker w gets chunks [w*n/W, (w+1)*n/W)."""
        n = len(work)
        bounds = static_block_bounds(n, self.n_workers)
        busy = [0.0] * self.n_workers
        assignment = [0] * n
        spans: list[tuple[float, float]] = [(0.0, 0.0)] * n
        for worker in range(self.n_workers):
            clock = 0.0
            for task in range(bounds[worker], bounds[worker + 1]):
                duration = float(work[task])
                spans[task] = (clock, clock + duration)
                clock += duration
                assignment[task] = worker
            busy[worker] = clock
        makespan = max(busy, default=0.0)
        return Schedule("static-blocks", self.n_workers, makespan, tuple(busy),
                        tuple(assignment), tuple(spans))


def lookback_write_completion(
    schedule: Schedule, *, post_latency: float = 0.0
) -> np.ndarray:
    """When each chunk's *write* completes under decoupled look-back.

    Chunk ``i`` knows its write offset once chunk ``i-1`` has posted its
    compressed size (paper §3.1: the encoder "busy-waits for the write
    position from the thread processing the prior chunk").  With
    ``finish_i`` the transform-finish times from the schedule::

        write_i = max(finish_i, write_{i-1} + post_latency)

    The returned array's last element is the end-to-end encode time; the
    difference to ``schedule.makespan`` is the serialisation cost of the
    position chain (zero when chunks finish roughly in order — the
    "decoupled" part works because predecessors usually post early).
    """
    finishes = np.array([finish for _, finish in schedule.spans])
    writes = np.empty_like(finishes)
    previous = 0.0
    for i, finish in enumerate(finishes):
        previous = max(float(finish), previous + post_latency)
        writes[i] = previous
    return writes


def simulate_encoder(
    data: bytes,
    codec: Codec,
    device: Device,
    *,
    policy: str = "dynamic",
    chunk_size: int = CHUNK_SIZE,
) -> tuple[Schedule, float]:
    """Full §3.1 encode simulation on ``device``; returns (schedule, time).

    Worker count stands in for the device's concurrency: one per SM on a
    GPU-class device, one per hardware thread on a CPU-class one.  The
    returned time is the look-back-aware end-to-end completion in the
    schedule's work units.
    """
    workers = {"gpu": 128, "cpu": 32}[device.kind]
    work = chunk_work_estimates(data, codec, chunk_size=chunk_size)
    schedule = WorklistSimulator(workers).simulate(work, policy)
    writes = lookback_write_completion(schedule)
    total = float(writes[-1]) if len(writes) else 0.0
    return schedule, total
