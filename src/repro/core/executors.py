"""Pluggable chunk executors: the paper's §3.1 scheduling policies, for real.

The paper's central systems claim is that chunk independence plus
prefix-sum write positions let the same format run under *any* execution
strategy.  This module is where those strategies live:

* ``serial`` — one worker walks the chunks in order (the reference
  schedule every other policy must be byte-identical to);
* ``threaded`` — a true dynamic worklist: each OS thread builds its own
  worker (pipelines are thread-local by construction) and pops the next
  unclaimed chunk index from a shared counter, exactly like the paper's
  OpenMP loop where "each running thread requests the next available
  chunk";
* ``static-blocks`` — a blocked partition: worker *w* owns the
  contiguous index range ``[bounds[w], bounds[w+1])``, the CPU analogue
  of the GPU's block-per-chunk grid launch.

The same policy vocabulary drives the *modeled* schedules in
:mod:`repro.device.execution` — ``normalize_policy`` and
:func:`static_block_bounds` are shared so the simulator partitions work
exactly like the real executors do.

An executor runs ``make_worker``-produced callables over job indices.
``make_worker(worker_id)`` is called once per execution slot, *inside*
the thread that will use it, so worker state (pipeline instances, stage
scratch buffers) is genuinely thread-local — never shared between
concurrently running jobs.
"""

from __future__ import annotations

import itertools
import queue
import threading
from abc import ABC, abstractmethod
from collections.abc import Callable

import numpy as np

#: Canonical scheduling-policy names, shared with the device simulator.
SCHEDULING_POLICIES = ("serial", "threaded", "static-blocks")

#: Every executor policy the engine accepts: the thread schedules plus
#: the GIL-free process pool (which the device simulator does not model).
EXECUTOR_POLICIES = SCHEDULING_POLICIES + ("process",)

#: Accepted aliases (the simulator's historical names map onto the
#: executor vocabulary: its dynamic worklist is the threaded policy).
_POLICY_ALIASES = {
    "dynamic": "threaded",
    "worklist": "threaded",
    "static": "static-blocks",
    "processes": "process",
    "multiprocess": "process",
}


def normalize_policy(
    name: str, policies: tuple[str, ...] = SCHEDULING_POLICIES
) -> str:
    """Map a policy name or alias to its canonical form.

    ``policies`` is the accepted vocabulary — the device simulator keeps
    the default thread-schedule triple, the engine passes
    :data:`EXECUTOR_POLICIES`.
    """
    key = name.lower().replace("_", "-")
    key = _POLICY_ALIASES.get(key, key)
    if key not in policies:
        raise ValueError(
            f"unknown scheduling policy {name!r}; "
            f"choose from {', '.join(policies)}"
        )
    return key


def static_block_bounds(n_jobs: int, workers: int) -> np.ndarray:
    """Partition boundaries of the static-blocks policy (workers + 1 ints).

    Shared by :class:`StaticBlockExecutor` and the schedule simulator in
    :mod:`repro.device.execution`, so modeled and real partitions match.
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


def _run_threads(
    n_jobs: int,
    n_threads: int,
    make_worker: Callable[[int], Callable[[int], object]],
    claim_ranges: Callable[[int], range],
) -> list:
    """Spawn ``n_threads`` threads, each draining its claimed index stream.

    A job that raises is *contained*: it is recorded against its index and
    the thread moves on to its next claim, so one bad chunk never poisons
    the rest of the worklist.  After the join, the failure with the lowest
    job index is re-raised — the same error a serial run would have hit
    first, making error reporting deterministic across policies and
    worker counts.  (``list.append`` is atomic under the GIL, so the
    shared error list needs no lock.)
    """
    results: list = [None] * n_jobs
    errors: list[tuple[int, BaseException]] = []

    def body(worker_id: int) -> None:
        try:
            worker = make_worker(worker_id)
        except BaseException as exc:  # worker construction is fatal
            errors.append((-1, exc))
            return
        for i in claim_ranges(worker_id):
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


class SerialExecutor(Executor):
    """One worker, chunks in order — the reference schedule."""

    policy = "serial"

    def __init__(self, workers: int = 1) -> None:
        # A serial schedule has exactly one execution slot no matter what
        # worker count it was asked for; report it honestly.
        super().__init__(1)

    def run(self, n_jobs, make_worker):
        worker = make_worker(0)
        return [worker(i) for i in range(n_jobs)]


class ThreadedExecutor(Executor):
    """Dynamic worklist: free threads pop the next unclaimed chunk index."""

    policy = "threaded"

    def run(self, n_jobs, make_worker):
        n_threads = min(self.workers, n_jobs)
        if n_threads <= 1:
            return SerialExecutor.run(self, n_jobs, make_worker)
        counter = itertools.count()

        def claims(_worker_id: int):
            # ``next`` on one shared counter is atomic under the GIL: every
            # index is claimed by exactly one thread, in demand order.
            while True:
                i = next(counter)
                if i >= n_jobs:
                    return
                yield i

        return _run_threads(n_jobs, n_threads, make_worker, claims)


class StaticBlockExecutor(Executor):
    """Blocked partition: worker ``w`` owns one contiguous index range."""

    policy = "static-blocks"

    def run(self, n_jobs, make_worker):
        n_threads = min(self.workers, max(n_jobs, 1))
        if n_threads <= 1 or n_jobs <= 1:
            return SerialExecutor.run(self, n_jobs, make_worker)
        bounds = static_block_bounds(n_jobs, n_threads)

        def claims(worker_id: int) -> range:
            return range(int(bounds[worker_id]), int(bounds[worker_id + 1]))

        return _run_threads(n_jobs, n_threads, make_worker, claims)


class _Batch:
    """One ``run()`` call's shared state inside a :class:`PooledThreadedExecutor`.

    Participants claim job indices from one shared counter (the same
    dynamic-worklist schedule as :class:`ThreadedExecutor`); the batch is
    done when every job has been processed, or — if worker construction
    failed everywhere — when every participant has given up.
    """

    def __init__(self, n_jobs: int, make_worker, participants: int) -> None:
        self.n_jobs = n_jobs
        self.make_worker = make_worker
        self.participants = participants
        self.counter = itertools.count()
        self.results: list = [None] * n_jobs
        self.errors: list[tuple[int, BaseException]] = []
        self.done = threading.Event()
        self._lock = threading.Lock()
        self._jobs_done = 0
        self._participants_done = 0

    def execute(self, slot: int) -> None:
        """Run one participant's share; called inside a pool thread."""
        if self.done.is_set():
            # A sibling already drained the batch; don't build a worker
            # just to find the counter exhausted.
            return
        worker = None
        try:
            worker = self.make_worker(slot)
        except BaseException as exc:  # worker construction is fatal
            self.errors.append((-1, exc))
        processed = 0
        if worker is not None:
            while True:
                i = next(self.counter)
                if i >= self.n_jobs:
                    break
                try:
                    self.results[i] = worker(i)
                except BaseException as exc:  # contain: next claim still runs
                    self.errors.append((i, exc))
                processed += 1
        with self._lock:
            self._jobs_done += processed
            self._participants_done += 1
            if (
                self._jobs_done >= self.n_jobs
                or self._participants_done >= self.participants
            ):
                self.done.set()


class PooledThreadedExecutor(Executor):
    """The threaded worklist on persistent threads — the daemon profile.

    :class:`ThreadedExecutor` spawns fresh OS threads on every ``run()``
    call, which is fine for one-shot CLI invocations but a real cost for
    a long-running server handling many small requests.  This executor
    keeps ``workers`` daemon threads alive and feeds them per-``run()``
    batches instead; the schedule (dynamic worklist over one shared
    counter) and the output bytes are identical to the threaded policy.

    ``run()`` is safe to call concurrently from multiple threads: each
    call is an independent batch, any single pool thread can drain a
    batch alone (claims come from the batch's own counter), so
    concurrent batches interleave without deadlock.  ``make_worker`` is
    still invoked inside the pool thread that uses it, preserving the
    thread-locality contract.  Do not call ``run()`` from inside a pool
    thread (no nested batches).
    """

    policy = "threaded"

    def __init__(self, workers: int = 1) -> None:
        super().__init__(workers)
        self._tickets: queue.SimpleQueue = queue.SimpleQueue()
        self._closed = False
        self._threads = [
            threading.Thread(
                target=self._thread_main, name=f"repro-pool-{w}", daemon=True
            )
            for w in range(workers)
        ]
        for t in self._threads:
            t.start()

    def _thread_main(self) -> None:
        while True:
            ticket = self._tickets.get()
            if ticket is None:
                return
            batch, slot = ticket
            batch.execute(slot)

    def run(self, n_jobs, make_worker):
        if self._closed:
            raise RuntimeError("executor pool is closed")
        if n_jobs <= 0:
            return []
        participants = min(self.workers, n_jobs)
        batch = _Batch(n_jobs, make_worker, participants)
        for slot in range(participants):
            self._tickets.put((batch, slot))
        batch.done.wait()
        if batch.errors:
            raise min(batch.errors, key=lambda pair: pair[0])[1]
        return batch.results

    def close(self) -> None:
        """Stop the pool threads; idempotent."""
        if self._closed:
            return
        self._closed = True
        for _ in self._threads:
            self._tickets.put(None)
        for t in self._threads:
            t.join()

    def __enter__(self) -> PooledThreadedExecutor:
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


class SharedMemoryProcessExecutor(Executor):
    """A GIL-free process pool fed through ``multiprocessing.shared_memory``.

    Thread executors share one address space, so pure-Python stage
    overhead serialises on the GIL.  This executor keeps ``workers``
    OS processes alive and ships chunk windows to them as *named shared
    memory* (one copy in, one copy out — no per-chunk pickling of bulk
    data).  The engine hands it the same ascending block list the thread
    executors run, through :meth:`encode_blocks` / :meth:`decode_blocks`,
    and each worker runs the engine's own block job on its block
    (:mod:`repro.core._procwork`).  Both honour the engine contracts —
    output bytes identical to serial, and on failure the error of the
    lowest-indexed failing chunk with its serial message (errors cross
    the process boundary as ``(index, type_name, message)`` triples and
    are rebuilt from :mod:`repro.errors`).

    The generic :meth:`run` cannot ship arbitrary closures to another
    process; it degrades to an in-process serial sweep, keeping any
    caller of the plain executor interface functional.
    """

    policy = "process"
    #: engines check this marker to route work through the shm methods.
    kind = "process"

    def __init__(self, workers: int = 1) -> None:
        super().__init__(workers)
        self._pool = None
        self._closed = False

    def _ensure_pool(self):
        if self._closed:
            raise RuntimeError("process executor is closed")
        if self._pool is None:
            import multiprocessing

            self._pool = multiprocessing.get_context().Pool(self.workers)
        return self._pool

    def run(self, n_jobs, make_worker):
        # Arbitrary job closures are not picklable; run them here instead.
        return SerialExecutor.run(self, n_jobs, make_worker)

    def encode_blocks(self, blocks, data, plan, codec_name: str,
                      fcm_restart: bool, batch: bool) -> list[list[bytes]]:
        """Compress each ``(lo, hi)`` block of ``plan`` over ``data``;
        returns one payload list per block."""
        from multiprocessing import shared_memory

        from repro.core import _procwork

        if not blocks:
            return []
        pool = self._ensure_pool()
        shm = shared_memory.SharedMemory(create=True, size=max(1, len(data)))
        try:
            shm.buf[: len(data)] = data
            tasks = [
                (shm.name, codec_name, fcm_restart, batch,
                 [(job.offset, job.end) for job in plan.jobs[lo:hi]])
                for lo, hi in blocks
            ]
            results = pool.map(_procwork.proc_encode_block, tasks)
        finally:
            shm.close()
            shm.unlink()
        # Blocks ascend, so the first failing block holds the lowest
        # failing chunk.
        for _, error in results:
            if error is not None:
                raise _procwork.rebuild_error(*error)
        return [payloads for payloads, _ in results]

    def decode_blocks(self, blocks, blob, plan, codec, info, batch: bool,
                      out, failures: list | None = None) -> None:
        """Decode each ``(lo, hi)`` block of ``plan`` out of ``blob`` into
        ``out`` at the plan's write offsets.

        Subset (range) plans work unchanged: each block carries its
        jobs' global chunk indices for codec and CRC lookup and error
        attribution.  ``failures`` is the block job's error policy:
        ``None`` raises the lowest failing chunk's error, a list receives
        every ``(index, type_name, message)`` triple.
        """
        from multiprocessing import shared_memory

        from repro.core import _procwork
        from repro.core.plan import DecodePlan

        if not blocks:
            return
        pool = self._ensure_pool()
        in_shm = shared_memory.SharedMemory(create=True, size=max(1, len(blob)))
        out_shm = shared_memory.SharedMemory(create=True, size=max(1, plan.out_len))
        try:
            in_shm.buf[: len(blob)] = blob
            tasks = []
            for lo, hi in blocks:
                member, restart = _procwork.chunk_codec(codec, info, plan.jobs[lo].index)
                block = DecodePlan(jobs=plan.jobs[lo:hi], out_offsets=plan.out_offsets[lo:hi],
                                   out_lengths=plan.out_lengths[lo:hi], out_len=plan.out_len)
                tasks.append((in_shm.name, out_shm.name, member.name, restart,
                              batch, block, info.chunk_crcs))
            errors = [e for block in pool.map(_procwork.proc_decode_block, tasks)
                      for e in block]
            out[: plan.out_len] = out_shm.buf[: plan.out_len]
        finally:
            in_shm.close()
            in_shm.unlink()
            out_shm.close()
            out_shm.unlink()
        if errors and failures is None:
            _, type_name, message = min(errors, key=lambda e: e[0])
            raise _procwork.rebuild_error(type_name, message)
        if errors:
            failures.extend(errors)

    def close(self) -> None:
        """Stop the worker processes; idempotent."""
        if self._closed:
            return
        self._closed = True
        if self._pool is not None:
            self._pool.terminate()
            self._pool.join()
            self._pool = None

    def __enter__(self) -> SharedMemoryProcessExecutor:
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


_EXECUTOR_TYPES: dict[str, type[Executor]] = {
    "serial": SerialExecutor,
    "threaded": ThreadedExecutor,
    "static-blocks": StaticBlockExecutor,
    "process": SharedMemoryProcessExecutor,
}


def get_executor(policy: str, workers: int = 1) -> Executor:
    """Build an executor for a canonical policy name or alias."""
    return _EXECUTOR_TYPES[normalize_policy(policy, EXECUTOR_POLICIES)](workers)


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
