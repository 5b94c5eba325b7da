"""Tests of the seeded chaos proxy, and the chaos acceptance scenario.

The acceptance case at the bottom is the PR's headline: two backends
behind the shard router, one of them behind a chaos proxy that kills it
mid-run on a seeded schedule, and a retrying client pushing a batch of
mixed compress/decompress requests — all of which must succeed with
byte-identical results to the in-process API.
"""

from __future__ import annotations

import numpy as np
import pytest

import repro
from repro.errors import ReproError, ServiceError
from repro.service import (
    ChaosConfig,
    ChaosProxy,
    ChaosProxyThread,
    ResilientClient,
    RetryPolicy,
    RouterConfig,
    RouterThread,
    ServerThread,
    ServiceClient,
    ServiceConfig,
)
from repro.service.faults import (
    _CORRUPTIBLE_OFFSETS,
    _draw,
    schedule_preview,
    stream_schedule_preview,
)


class TestChaosConfig:
    def test_rates_must_not_exceed_one(self):
        with pytest.raises(ServiceError, match="sum to at most"):
            ChaosConfig(reset_rate=0.6, corrupt_rate=0.6)

    def test_rates_must_be_non_negative(self):
        with pytest.raises(ServiceError):
            ChaosConfig(delay_rate=-0.1)

    def test_direction_is_validated(self):
        with pytest.raises(ServiceError, match="request|response|both"):
            ChaosConfig(direction="sideways")


class TestSchedule:
    def test_schedule_is_deterministic_in_seed(self):
        config = ChaosConfig(seed=42, reset_rate=0.2, corrupt_rate=0.2,
                             delay_rate=0.2)
        assert schedule_preview(config, 64) == schedule_preview(config, 64)

    def test_different_seeds_differ(self):
        a = ChaosConfig(seed=1, reset_rate=0.3, truncate_rate=0.3)
        b = ChaosConfig(seed=2, reset_rate=0.3, truncate_rate=0.3)
        assert schedule_preview(a, 64) != schedule_preview(b, 64)

    def test_zero_rates_always_pass(self):
        config = ChaosConfig(seed=0)
        assert all(a == "pass" for _, a in schedule_preview(config, 100))

    def test_rates_shape_the_mix(self):
        config = ChaosConfig(seed=9, reset_rate=0.5, blackhole_rate=0.25)
        actions = [a for _, a in schedule_preview(config, 400)]
        assert 120 < actions.count("reset") < 280
        assert 50 < actions.count("blackhole") < 150
        assert actions.count("truncate") == 0

    def test_decision_matches_the_replay_convention(self):
        # The contract documented in the module: the decision for event
        # i derives from default_rng([seed, i]) and nothing else.
        config = ChaosConfig(seed=7, delay_rate=1.0)
        action, rng = _draw(config, 12)
        assert action == "delay"
        expected = np.random.default_rng([7, 12])
        expected.random()  # the fault draw
        assert rng.uniform(*config.delay_ms) == pytest.approx(
            float(expected.uniform(*config.delay_ms))
        )

    def test_corruption_never_targets_the_opcode_byte(self):
        # Offset 5 (opcode) XORed can yield a *different valid request*,
        # which no layer can detect; everything else is validated.
        assert 5 not in _CORRUPTIBLE_OFFSETS
        assert all(0 <= off < 8 for off in _CORRUPTIBLE_OFFSETS)


def _walk(rng, n, dtype=np.float32):
    return np.cumsum(rng.normal(scale=0.01, size=n)).astype(dtype)


def _proxy_for(port: int, **overrides) -> ChaosProxyThread:
    return ChaosProxyThread(ChaosConfig(
        upstream=("127.0.0.1", port), **overrides,
    ))


class TestProxyPassThrough:
    def test_transparent_at_zero_rates(self, rng):
        data = _walk(rng, 6_000)
        with ServerThread(ServiceConfig(port=0)) as srv:
            with _proxy_for(srv.port) as proxy:
                with ServiceClient(port=proxy.port) as client:
                    blob = client.compress(data, "spspeed")
                    assert blob == repro.compress(data, "spspeed")
                    assert np.array_equal(client.decompress(blob), data)
                assert proxy.proxy.frames_observed >= 4

    def test_faults_observed_and_counted(self, rng):
        data = _walk(rng, 2_000)
        with ServerThread(ServiceConfig(port=0)) as srv:
            with _proxy_for(srv.port, seed=11, reset_rate=0.15,
                            corrupt_rate=0.15) as proxy:
                with ResilientClient(
                    f"127.0.0.1:{proxy.port}",
                    policy=RetryPolicy(attempts=10, base_ms=2.0),
                    seed=1,
                ) as client:
                    expected = repro.compress(data, "spspeed")
                    for _ in range(40):
                        assert client.compress(data, "spspeed") == expected
                counters = proxy.proxy.registry.snapshot()["counters"]
                injected = sum(
                    count for key, count in counters.items()
                    if key.startswith("chaos_injections_total")
                )
                assert injected >= 1  # the schedule actually fired

    def test_kill_aborts_and_revive_restores(self, rng):
        data = _walk(rng, 1_000)
        with ServerThread(ServiceConfig(port=0)) as srv:
            with _proxy_for(srv.port) as proxy:
                with ServiceClient(port=proxy.port) as client:
                    assert client.ping()
                    proxy.kill()
                    with pytest.raises(ReproError) as info:
                        client.ping()
                    assert getattr(info.value, "transport", False)
                # New connections die immediately while killed.
                with pytest.raises(ReproError):
                    with ServiceClient(port=proxy.port, timeout=2.0) as dead:
                        dead.ping()
                proxy.revive()
                with ServiceClient(port=proxy.port) as client:
                    blob = client.compress(data, "spspeed")
                    assert blob == repro.compress(data, "spspeed")

    def test_blackhole_hangs_until_client_timeout(self, rng):
        with ServerThread(ServiceConfig(port=0)) as srv:
            with _proxy_for(srv.port, seed=0, blackhole_rate=1.0) as proxy:
                with ServiceClient(port=proxy.port, timeout=0.5) as client:
                    with pytest.raises(ServiceError, match="timed out"):
                        client.ping()
                    # The connection is poisoned, not silently reusable.
                    assert client.broken is not None


class TestChaosAcceptance:
    def test_batch_survives_backend_killed_mid_run(self, rng):
        """≥100 mixed requests, one backend dying mid-run: zero failures.

        Topology: client -> router -> [chaos-proxy -> backend A,
        backend B].  The proxy kills the path to A after a seeded number
        of frames; the router's breaker ejects it and everything fails
        over to B.  Every result must be byte-identical to the
        in-process API.
        """
        datasets = [
            _walk(rng, 1_000 + 400 * i,
                  np.float32 if i % 2 == 0 else np.float64)
            for i in range(6)
        ]
        codecs = ["spspeed", "dpspeed", "spratio", "dpratio", "spspeed",
                  "dpratio"]
        expected = [
            repro.compress(d, c) for d, c in zip(datasets, codecs)
        ]
        with ServerThread(ServiceConfig(port=0)) as a, \
                ServerThread(ServiceConfig(port=0)) as b:
            with _proxy_for(a.port, seed=20250808,
                            kill_after_frames=40) as proxy:
                config = RouterConfig(
                    port=0,
                    backends=(
                        ("127.0.0.1", proxy.port),
                        ("127.0.0.1", b.port),
                    ),
                    health_interval=0.1,
                    failure_threshold=2,
                    open_seconds=0.5,
                    backend_timeout=5.0,
                )
                with RouterThread(config) as rt:
                    with ResilientClient(
                        f"127.0.0.1:{rt.port}",
                        policy=RetryPolicy(attempts=10, base_ms=5.0,
                                           cap_ms=200.0),
                        timeout=10.0,
                        seed=99,
                    ) as client:
                        completed = 0
                        for i in range(110):
                            j = i % len(datasets)
                            if i % 2 == 0:
                                blob = client.compress(datasets[j], codecs[j])
                                assert blob == expected[j]
                            else:
                                out = client.decompress(expected[j])
                                assert np.array_equal(out, datasets[j])
                            completed += 1
                        assert completed == 110
                # The kill actually happened mid-run (not before, not
                # never): the proxy saw its quota of frames and died.
                assert proxy.proxy.frames_observed >= 40
                counters = proxy.proxy.registry.snapshot()["counters"]
                assert counters.get("chaos_kills_total", 0) >= 1


class TestStreamAwareness:
    """The proxy's stream-aware satellite: per-frame schedule preview
    and the live per-stream event log."""

    def test_preview_walks_the_canonical_ladder(self):
        rows = stream_schedule_preview(
            ChaosConfig(seed=0), streams=1, data_frames=2
        )
        kinds = [kind for _, _, kind, _, _ in rows]
        assert kinds == [
            "stream-begin", "stream-ack",
            "stream-data", "stream-ack",
            "stream-data", "stream-ack",
            "stream-end",
            "stream-result", "stream-result",
            "stream-done",
        ]
        # Event indices advance monotonically across streams.
        indices = [index for index, *_ in rows]
        assert indices == list(range(len(rows)))

    def test_preview_is_deterministic_in_seed(self):
        config = ChaosConfig(seed=42, delay_rate=0.3, reset_rate=0.2)
        assert stream_schedule_preview(
            config, streams=3, data_frames=4
        ) == stream_schedule_preview(config, streams=3, data_frames=4)

    def test_preview_matches_the_frame_schedule(self):
        # The per-stream preview and the flat schedule draw from the
        # same (seed, event_index) convention: actions must agree.
        config = ChaosConfig(seed=9, delay_rate=0.5, corrupt_rate=0.3)
        flat = dict(schedule_preview(config, 40))
        for index, _, _, _, action in stream_schedule_preview(
            config, streams=2, data_frames=3
        ):
            assert action == flat[index]

    def test_unfaulted_direction_passes_but_still_counts(self):
        config = ChaosConfig(seed=9, reset_rate=1.0, direction="request")
        rows = stream_schedule_preview(config, streams=1, data_frames=2)
        for _, _, _, direction, action in rows:
            if direction == "response":
                assert action == "pass"
            else:
                assert action == "reset"
        # The counter advanced through the passed frames too.
        assert [i for i, *_ in rows] == list(range(len(rows)))

    def test_live_stream_events_are_recorded(self, rng):
        data = _walk(rng, 40_000)
        with ServerThread(ServiceConfig(port=0)) as srv:
            with _proxy_for(srv.port) as proxy:
                with ServiceClient(port=proxy.port) as client:
                    blob = client.compress_streamed(data, "spspeed")
                    assert blob == repro.compress(data, "spspeed",
                                                  fcm="restart")
                events = proxy.proxy.stream_events
                kinds = {kind for _, _, kind, _, _ in events}
                assert kinds >= {
                    "stream-begin", "stream-ack", "stream-data",
                    "stream-end", "stream-result", "stream-done",
                }
                # Every frame of the stream shares one correlation id.
                assert len({rid for _, _, _, rid, _ in events}) == 1
                # Requests and responses are both observed.
                assert {d for _, d, _, _, _ in events} == {
                    "request", "response",
                }

    def test_unary_traffic_does_not_pollute_the_stream_log(self, rng):
        data = _walk(rng, 1_000)
        with ServerThread(ServiceConfig(port=0)) as srv:
            with _proxy_for(srv.port) as proxy:
                with ServiceClient(port=proxy.port) as client:
                    client.compress(data, "spspeed")
                    assert client.ping()
                assert proxy.proxy.stream_events == []
