"""Tests for the plan/execute engine: policies, plans, traces, fallbacks.

The engine's core invariant — compressed output is byte-identical under
both executor policies and every worker count — is asserted here across
all codecs and input shapes, alongside the thread-locality guarantee a
stateful stage depends on, the laziness of the whole-input raw
fallback, and the per-chunk trace contents.
"""

from __future__ import annotations

import os
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.cli import main
from repro.core import container as fmt
from repro.core.chunking import CHUNK_SIZE
from repro.core.codecs import CODECS, get_codec
from repro.core.compressor import compress_bytes, decompress_bytes
from repro.core.executors import (
    SCHEDULING_POLICIES,
    SerialExecutor,
    ThreadedExecutor,
    get_executor,
    resolve_executor,
    static_block_bounds,
)
from repro.core.plan import plan_decode, plan_encode
from repro.core.trace import TraceCollector
from repro.errors import CorruptDataError


def _sample(rng, dtype, n) -> bytes:
    return np.cumsum(rng.normal(scale=0.01, size=n)).astype(dtype).tobytes()


#: Policy names and aliases the engine no longer accepts.
RETIRED_POLICIES = ("static-blocks", "process", "dynamic", "worklist",
                    "static", "processes", "multiprocess")


class TestPolicyNames:
    def test_canonical_names_pass_through(self):
        assert SCHEDULING_POLICIES == ("serial", "threaded")
        for name in SCHEDULING_POLICIES:
            assert get_executor(name).policy == name

    def test_unknown_policy_rejected(self):
        with pytest.raises(ValueError, match="unknown executor policy"):
            get_executor("fibers")

    def test_get_executor_types(self):
        assert isinstance(get_executor("serial"), SerialExecutor)
        assert isinstance(get_executor("threaded", 4), ThreadedExecutor)

    def test_resolve_defaults_follow_workers(self):
        assert resolve_executor(None, 1).policy == "serial"
        assert resolve_executor(None, 4).policy == "threaded"
        prebuilt = ThreadedExecutor(3)
        assert resolve_executor(prebuilt, 1) is prebuilt

    @pytest.mark.parametrize("name", RETIRED_POLICIES)
    def test_retired_policies_rejected(self, name):
        with pytest.raises(ValueError, match="choose from serial, threaded$"):
            repro.compress(np.arange(4096, dtype=np.float32), executor=name,
                           workers=2)

    def test_cli_bench_rejects_a_retired_policy(self, capsys):
        assert main(["bench", "--codec", "spspeed", "--policy", "process",
                     "--scale", "0.05"]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error: unknown executor policy 'process'")
        assert "Traceback" not in captured.err + captured.out

    def test_import_loads_no_multiprocessing(self):
        probe = ("import sys, repro; print(sorted(m for m in sys.modules "
                 "if m.split('.')[0] == 'multiprocessing'))")
        # The fresh interpreter imports this very package.
        env = {**os.environ, "PYTHONPATH": str(Path(repro.__file__).parents[1])}
        out = subprocess.run([sys.executable, "-c", probe], check=True,
                             capture_output=True, text=True, env=env).stdout
        assert out.strip() == "[]"


class TestPlans:
    def test_encode_plan_covers_input_exactly(self):
        plan = plan_encode(3 * CHUNK_SIZE + 17, CHUNK_SIZE)
        assert plan.n_chunks == 4
        assert plan.jobs[0].offset == 0
        assert all(
            plan.jobs[i].end == plan.jobs[i + 1].offset
            for i in range(plan.n_chunks - 1)
        )
        assert plan.jobs[-1].end == 3 * CHUNK_SIZE + 17

    def test_empty_input_plans_no_jobs(self):
        assert plan_encode(0, CHUNK_SIZE).n_chunks == 0

    def test_static_bounds_partition_is_contiguous_and_complete(self):
        bounds = static_block_bounds(10, 3)
        assert bounds[0] == 0 and bounds[-1] == 10
        assert all(bounds[i] <= bounds[i + 1] for i in range(len(bounds) - 1))

    def test_decode_plan_rejects_chunk_count_mismatch(self):
        blob = repro.compress(np.arange(9000, dtype=np.float32))
        info = fmt.inspect_container(blob)
        bad = info.__class__(**{**info.__dict__, "n_chunks": info.n_chunks + 1})
        with pytest.raises(CorruptDataError):
            plan_decode(bad)


@pytest.mark.parametrize("name", sorted(CODECS))
class TestPolicyEquivalence:
    """The acceptance invariant: identical bytes under every schedule."""

    @pytest.mark.parametrize("shape", ["empty", "subchunk", "multichunk"])
    def test_byte_identical_across_policies_and_workers(self, name, shape, rng):
        codec = get_codec(name)
        n = {"empty": 0, "subchunk": 64, "multichunk": 60_000}[shape]
        data = _sample(rng, codec.dtype, n)
        reference = compress_bytes(data, codec, executor="serial")
        for policy in SCHEDULING_POLICIES:
            for workers in (1, 2, 7):
                blob = compress_bytes(
                    data, codec, workers=workers, executor=policy
                )
                assert blob == reference, (policy, workers)
                back, _ = decompress_bytes(blob, workers=workers, executor=policy)
                assert back == data, (policy, workers)


class TestThreadLocality:
    """Regression for the shared-pipeline race a stateful stage exposes.

    The old thread-pool mapped ``pool_workers[i % workers]``, handing one
    pipeline instance to several concurrently running futures.  A stage
    with any per-call scratch state then corrupts neighbouring chunks.
    The executor contract — ``make_worker(worker_id)`` runs inside the
    owning thread, one worker per slot — makes that impossible; this
    test fails against the old scheme.
    """

    @pytest.mark.parametrize("policy", SCHEDULING_POLICIES)
    def test_one_worker_per_thread(self, policy):
        n_jobs, workers = 64, 7
        lock = threading.Lock()
        # worker_id -> the thread object that built it (strong refs, so
        # object identity stays meaningful even after threads exit)
        built_in: dict[int, threading.Thread] = {}

        def make_worker(worker_id: int):
            thread = threading.current_thread()
            with lock:
                assert worker_id not in built_in  # one worker per slot
                built_in[worker_id] = thread

            def job(i: int):
                # every job of this worker runs on the thread that built it
                assert threading.current_thread() is thread
                return (worker_id, i)

            return job

        results = get_executor(policy, workers).run(n_jobs, make_worker)
        # every job ran exactly once, results in index order
        assert [i for _, i in results] == list(range(n_jobs))
        # distinct execution slots were built in distinct threads
        threads = list(built_in.values())
        assert len(set(map(id, threads))) == len(threads)

    def test_stateful_stage_survives_concurrency(self, rng):
        """A pipeline whose encode is deliberately non-reentrant."""
        from repro.core.executors import ThreadedExecutor

        class StatefulSquarer:
            def __init__(self):
                self.scratch = None

            def __call__(self, i: int) -> int:
                # classic read-compute-write on shared state: corrupts
                # results if two jobs interleave on one instance
                self.scratch = i
                for _ in range(100):
                    pass
                assert self.scratch == i
                return self.scratch * self.scratch

        def make_worker(worker_id: int):
            return StatefulSquarer()

        results = ThreadedExecutor(8).run(200, make_worker)
        assert results == [i * i for i in range(200)]

    def test_threaded_worker_assignment_recorded_in_trace(self, rng):
        codec = get_codec("spspeed")
        data = _sample(rng, codec.dtype, 120_000)
        collector = TraceCollector()
        # batch=False: this exercises the per-chunk worklist, where every
        # chunk is its own claim (batched runs claim whole blocks).
        compress_bytes(data, codec, workers=4, executor="threaded",
                       trace=collector, batch=False)
        workers_seen = {t.worker for t in collector.chunks}
        assert len(workers_seen) > 1  # the worklist actually fanned out


class TestLazyRawFallback:
    def test_compressible_input_never_builds_raw_container(self, rng, monkeypatch):
        calls = []
        original = fmt.build_raw_container

        def counting(*args, **kwargs):
            calls.append(1)
            return original(*args, **kwargs)

        monkeypatch.setattr(
            "repro.core.compressor.fmt.build_raw_container", counting
        )
        codec = get_codec("spratio")
        data = _sample(rng, codec.dtype, 50_000)
        blob = compress_bytes(data, codec)
        assert len(blob) < len(data)
        assert calls == []  # fallback stayed lazy

    def test_incompressible_input_falls_back_to_raw(self, rng):
        data = rng.bytes(50_000)  # random bytes defeat every stage
        codec = get_codec("spspeed")
        blob = compress_bytes(data, codec)
        info = fmt.inspect_container(blob)
        assert info.raw_fallback
        assert len(blob) == fmt.raw_container_size(
            len(data), checksum=fmt.checksum_of(data)
        )
        back, _ = decompress_bytes(blob)
        assert back == data

    def test_raw_size_prediction_is_exact(self, rng):
        data = rng.bytes(1000)
        raw = fmt.build_raw_container(
            codec_id=get_codec("spspeed").codec_id,
            dtype_code=fmt.DTYPE_BYTES, data=data,
        )
        assert len(raw) == fmt.raw_container_size(len(data))


class TestTraceContents:
    def test_trace_records_stages_sizes_and_fallbacks(self, rng):
        codec = get_codec("dpratio")
        data = _sample(rng, codec.dtype, 30_000)
        collector = TraceCollector()
        blob = compress_bytes(data, codec, trace=collector, batch=False)
        assert collector.direction == "compress"
        assert collector.policy == "serial"
        assert collector.n_chunks == len(fmt.inspect_container(blob).chunk_sizes)
        # DPratio: FCM is global, the chunked stages follow
        assert collector.global_stage is not None
        assert collector.global_stage.stage == "fcm"
        for chunk in collector.chunks:
            assert [e.stage for e in chunk.stages] == ["diffms", "raze", "rare"]
            assert chunk.payload_len >= 1
            assert chunk.seconds >= 0
            assert all(e.out_bytes >= 0 and e.seconds >= 0 for e in chunk.stages)
        # payloads in the trace sum to the container's chunk table
        assert (
            sum(t.payload_len for t in collector.chunks)
            == sum(fmt.inspect_container(blob).chunk_sizes)
        )

    def test_decompress_trace(self, rng):
        codec = get_codec("spratio")
        data = _sample(rng, codec.dtype, 60_000)
        blob = compress_bytes(data, codec)
        collector = TraceCollector()
        decompress_bytes(blob, workers=2, executor="threaded",
                         trace=collector)
        assert collector.direction == "decompress"
        assert collector.policy == "threaded"
        assert collector.workers == 2
        assert sum(t.original_len for t in collector.chunks) >= len(data)

    def test_untraced_path_unaffected(self, rng):
        codec = get_codec("spspeed")
        data = _sample(rng, codec.dtype, 40_000)
        traced = TraceCollector()
        assert compress_bytes(data, codec, trace=traced) == compress_bytes(data, codec)


class TestAPIPassthrough:
    def test_api_accepts_executor_and_trace(self, smooth_f32):
        collector = TraceCollector()
        blob = repro.compress(smooth_f32, executor="threaded", workers=3,
                              trace=collector)
        assert blob == repro.compress(smooth_f32)
        assert collector.n_chunks > 1
        out = TraceCollector()
        restored = repro.decompress(blob, executor="threaded", workers=3,
                                    trace=out)
        assert np.array_equal(restored, smooth_f32)
        assert out.direction == "decompress"


class TestFailureContainment:
    """One bad job must not poison the threaded worklist."""

    @pytest.mark.parametrize("policy", ["threaded"])
    def test_other_jobs_still_run_after_a_failure(self, policy):
        ran: set[int] = set()
        lock = threading.Lock()

        def make_worker(worker_id: int):
            def job(i: int) -> int:
                if i in (3, 7):
                    raise ValueError(f"job {i} is cursed")
                with lock:
                    ran.add(i)
                return i

            return job

        executor = get_executor(policy, 4)
        with pytest.raises(ValueError, match="cursed"):
            executor.run(16, make_worker)
        # Every healthy job completed despite two failures mid-worklist.
        assert ran == set(range(16)) - {3, 7}

    @pytest.mark.parametrize("policy", SCHEDULING_POLICIES)
    def test_lowest_index_error_wins(self, policy):
        # Serial order raises the first failing index; the threaded
        # worklist must report the same one for deterministic messages.
        def make_worker(worker_id: int):
            def job(i: int) -> int:
                if i in (5, 11, 2):
                    raise RuntimeError(f"boom {i}")
                return i

            return job

        executor = get_executor(policy, 4)
        with pytest.raises(RuntimeError, match="boom 2"):
            executor.run(16, make_worker)

    def test_worker_construction_failure_is_fatal(self):
        calls = []

        def make_worker(worker_id: int):
            if worker_id == 1:
                raise OSError("no scratch space for worker 1")

            def job(i: int) -> int:
                calls.append(i)
                return i

            return job

        with pytest.raises(OSError, match="scratch"):
            get_executor("threaded", 2).run(8, make_worker)
