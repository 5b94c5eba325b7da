"""Tests for the parallel-encoder schedule simulation (§3.1)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.codecs import get_codec
from repro.device import RTX4090, RYZEN_2950X
from repro.device.execution import (
    SIMULATED_POLICIES,
    WorklistSimulator,
    chunk_work_estimates,
    lookback_write_completion,
    normalize_policy,
    simulate_encoder,
)


class TestPolicyNames:
    """The simulator owns the schedule vocabulary, static blocks included."""

    def test_canonical_names_pass_through(self):
        for name in SIMULATED_POLICIES:
            assert normalize_policy(name) == name

    def test_simulator_aliases_map_onto_canonical_names(self):
        assert normalize_policy("dynamic") == "threaded"
        assert normalize_policy("worklist") == "threaded"
        assert normalize_policy("static") == "static-blocks"
        assert normalize_policy("STATIC_BLOCKS") == "static-blocks"

    @pytest.mark.parametrize("name", ["fibers", "process"])
    def test_unknown_policy_rejected(self, name):
        with pytest.raises(ValueError, match="unknown scheduling policy"):
            normalize_policy(name)


class TestWorklist:
    def test_uniform_work_balances_perfectly(self):
        work = np.full(64, 10.0)
        schedule = WorklistSimulator(8).simulate(work, "dynamic")
        assert schedule.makespan == pytest.approx(80.0)
        assert schedule.utilization == pytest.approx(1.0)
        assert schedule.imbalance == pytest.approx(1.0)

    def test_makespan_lower_bounds(self):
        rng = np.random.default_rng(3)
        work = rng.uniform(1.0, 10.0, size=100)
        schedule = WorklistSimulator(7).simulate(work, "dynamic")
        assert schedule.makespan >= work.sum() / 7 - 1e-9
        assert schedule.makespan >= work.max()
        assert schedule.total_work == pytest.approx(work.sum())

    def test_dynamic_never_loses_to_static_on_skewed_work(self):
        # The paper's motivation for dynamic assignment: compressible and
        # incompressible chunks take very different times.
        rng = np.random.default_rng(7)
        work = np.where(rng.random(200) < 0.1, 50.0, 1.0)
        dynamic = WorklistSimulator(16).simulate(work, "dynamic")
        static = WorklistSimulator(16).simulate(work, "static")
        assert dynamic.makespan <= static.makespan + 1e-9

    def test_static_blocked_partition(self):
        work = np.array([5.0, 5.0, 1.0, 1.0])
        schedule = WorklistSimulator(2).simulate(work, "static")
        assert schedule.assignment == (0, 0, 1, 1)
        assert schedule.makespan == pytest.approx(10.0)

    def test_single_worker_serialises(self):
        work = np.array([1.0, 2.0, 3.0])
        schedule = WorklistSimulator(1).simulate(work, "dynamic")
        assert schedule.makespan == pytest.approx(6.0)
        assert schedule.spans == ((0.0, 1.0), (1.0, 3.0), (3.0, 6.0))

    def test_deterministic(self):
        rng = np.random.default_rng(1)
        work = rng.uniform(1, 5, size=50)
        a = WorklistSimulator(4).simulate(work)
        b = WorklistSimulator(4).simulate(work)
        assert a == b

    def test_validation(self):
        with pytest.raises(ValueError):
            WorklistSimulator(0)
        with pytest.raises(ValueError):
            WorklistSimulator(2).simulate(np.ones(3), "round-robin")

    def test_empty_work(self):
        schedule = WorklistSimulator(4).simulate(np.zeros(0))
        assert schedule.makespan == 0.0


class TestLookback:
    def test_in_order_finishes_add_nothing(self):
        work = np.full(16, 2.0)
        schedule = WorklistSimulator(1).simulate(work)
        writes = lookback_write_completion(schedule)
        finishes = [finish for _, finish in schedule.spans]
        assert np.allclose(writes, finishes)

    def test_straggler_serialises_successors(self):
        # Chunk 0 is huge: every later chunk's write must wait for its post.
        work = np.array([100.0, 1.0, 1.0, 1.0])
        schedule = WorklistSimulator(4).simulate(work)
        writes = lookback_write_completion(schedule)
        assert writes[0] == pytest.approx(100.0)
        assert np.all(writes[1:] >= 100.0)

    def test_post_latency_accumulates(self):
        work = np.full(10, 1.0)
        schedule = WorklistSimulator(10).simulate(work)
        writes = lookback_write_completion(schedule, post_latency=0.5)
        assert writes[-1] == pytest.approx(1.0 + 0.5 * 9)


class TestEncoderSimulation:
    def test_work_estimates_track_chunk_count(self, smooth_f32):
        codec = get_codec("spratio")
        work = chunk_work_estimates(smooth_f32.tobytes(), codec)
        expected_chunks = (smooth_f32.nbytes + 16383) // 16384
        assert len(work) == expected_chunks
        assert np.all(work > 0)

    def test_gpu_schedule_beats_cpu_schedule(self, smooth_f32):
        codec = get_codec("spspeed")
        _, gpu_time = simulate_encoder(smooth_f32.tobytes(), codec, RTX4090)
        _, cpu_time = simulate_encoder(smooth_f32.tobytes(), codec, RYZEN_2950X)
        assert gpu_time <= cpu_time  # more execution slots, same work

    def test_dynamic_policy_on_real_mixed_data(self, rng):
        # Half smooth, half incompressible: chunk work is genuinely skewed.
        smooth = np.cumsum(rng.normal(scale=0.01, size=40_000)).astype(np.float32)
        noise = (rng.random(40_000).astype(np.float32) * 2 - 1) * 1e30
        data = np.concatenate([smooth, noise]).tobytes()
        codec = get_codec("spratio")
        work = chunk_work_estimates(data, codec)
        dynamic = WorklistSimulator(16).simulate(work, "dynamic")
        static = WorklistSimulator(16).simulate(work, "static")
        assert dynamic.makespan <= static.makespan + 1e-9
        assert dynamic.utilization >= static.utilization - 1e-9
