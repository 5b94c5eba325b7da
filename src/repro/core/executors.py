"""Chunk executors: the paper's §3.1 CPU schedule and its serial reference.

The paper's central systems claim is that chunk independence plus
prefix-sum write positions let the same format run under any execution
strategy.  The engine runs two:

* ``serial`` — one worker walks the jobs in order (the reference
  schedule the parallel one must be byte-identical to);
* ``threaded`` — a dynamic worklist: each OS thread builds its own
  worker (pipelines are thread-local by construction) and pops the next
  unclaimed job index from a shared counter, like the paper's OpenMP
  loop where "each running thread requests the next available chunk".

The *modeled* schedules of :mod:`repro.device.execution` (which adds a
static blocked partition) share :func:`static_block_bounds` with the
engine, whose batched runs split a plan into at most ``workers``
contiguous blocks with it.

An executor runs ``make_worker``-produced callables over job indices.
``make_worker(worker_id)`` is called once per execution slot, *inside*
the thread that will use it, so worker state (pipeline instances, stage
scratch buffers) is genuinely thread-local — never shared between
concurrently running jobs.
"""

from __future__ import annotations

import itertools
import threading
from abc import ABC, abstractmethod
from collections.abc import Callable

import numpy as np


def static_block_bounds(n_jobs: int, workers: int) -> np.ndarray:
    """Boundaries of ``workers`` contiguous blocks over ``n_jobs`` (workers + 1 ints).

    Shared by the engine's batched block split and the schedule
    simulator in :mod:`repro.device.execution`, so modeled and real
    partitions match.
    """
    return np.linspace(0, n_jobs, workers + 1).astype(int)


class Executor(ABC):
    """A strategy for running independent chunk jobs."""

    policy: str = "serial"

    def __init__(self, workers: int = 1) -> None:
        if workers < 1:
            raise ValueError("need at least one worker")
        self.workers = workers

    @abstractmethod
    def run(
        self,
        n_jobs: int,
        make_worker: Callable[[int], Callable[[int], object]],
    ) -> list:
        """Run jobs ``0..n_jobs-1``; returns their results in index order.

        ``make_worker(worker_id)`` builds the per-slot job function; it is
        invoked inside the thread that will call it.
        """

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}(policy={self.policy!r}, workers={self.workers})"


class SerialExecutor(Executor):
    """One worker, jobs in order — the reference schedule."""

    policy = "serial"

    def __init__(self, workers: int = 1) -> None:
        # A serial schedule has exactly one execution slot no matter what
        # worker count it was asked for; report it honestly.
        super().__init__(1)

    def run(self, n_jobs, make_worker):
        worker = make_worker(0)
        return [worker(i) for i in range(n_jobs)]


class ThreadedExecutor(Executor):
    """Dynamic worklist: free threads pop the next unclaimed job index.

    A job that raises is *contained*: it is recorded against its index
    and the thread moves on to its next claim, so one bad chunk never
    poisons the rest of the worklist.  After the join, the failure with
    the lowest job index is re-raised — the same error a serial run would
    have hit first, making error reporting deterministic across worker
    counts.  (``list.append`` is atomic under the GIL, so the shared
    error list needs no lock.)
    """

    policy = "threaded"

    def run(self, n_jobs, make_worker):
        n_threads = min(self.workers, n_jobs)
        if n_threads <= 1:
            return SerialExecutor.run(self, n_jobs, make_worker)
        # ``next`` on one shared counter is atomic under the GIL: every
        # index is claimed by exactly one thread, in demand order.
        counter = itertools.count()
        results: list = [None] * n_jobs
        errors: list[tuple[int, BaseException]] = []

        def body(worker_id: int) -> None:
            try:
                worker = make_worker(worker_id)
            except BaseException as exc:  # worker construction is fatal
                errors.append((-1, exc))
                return
            while (i := next(counter)) < n_jobs:
                try:
                    results[i] = worker(i)
                except BaseException as exc:  # contain: next claim still runs
                    errors.append((i, exc))

        threads = [
            threading.Thread(target=body, args=(w,), name=f"repro-exec-{w}")
            for w in range(n_threads)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        if errors:
            raise min(errors, key=lambda pair: pair[0])[1]
        return results


_EXECUTOR_TYPES: dict[str, type[Executor]] = {
    "serial": SerialExecutor,
    "threaded": ThreadedExecutor,
}

#: Every executor policy the engine accepts.
SCHEDULING_POLICIES = tuple(_EXECUTOR_TYPES)


def get_executor(policy: str, workers: int = 1) -> Executor:
    """Build the executor of a policy name (``serial`` or ``threaded``)."""
    cls = _EXECUTOR_TYPES.get(policy)
    if cls is None:
        raise ValueError(
            f"unknown executor policy {policy!r}; "
            f"choose from {', '.join(SCHEDULING_POLICIES)}"
        )
    return cls(workers)


def resolve_executor(
    executor: str | Executor | None, workers: int
) -> Executor:
    """Resolve the engine's ``executor=`` argument.

    ``None`` keeps the historical behaviour of the ``workers`` knob:
    serial for one worker, the dynamic worklist otherwise.
    """
    if isinstance(executor, Executor):
        return executor
    if executor is None:
        return get_executor("serial" if workers <= 1 else "threaded", workers)
    return get_executor(executor, workers)
