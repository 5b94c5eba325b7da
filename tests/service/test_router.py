"""Unit and live tests of the shard router.

The live tests run real :class:`~repro.service.server.ServerThread`
backends behind a :class:`~repro.service.router.RouterThread` and
assert the acceptance behaviors: byte-identical routing, circuit
breakers that open after consecutive failures and readmit a recovered
backend (observed through the metrics registry), failover around a
dead backend, and load shedding with a ``retry_after_ms`` hint.
"""

from __future__ import annotations

import time

import numpy as np
import pytest

import repro
from repro.errors import BusyError, ServiceError
from repro.service import (
    ResilientClient,
    RetryPolicy,
    RouterConfig,
    RouterThread,
    ServerThread,
    ServiceClient,
    ServiceConfig,
)
from repro.service.router import (
    BREAKER_CLOSED,
    BREAKER_HALF_OPEN,
    BREAKER_OPEN,
    CircuitBreaker,
    ShardRouter,
)


class _Clock:
    """A hand-stepped monotonic clock for breaker tests."""

    def __init__(self) -> None:
        self.now = 100.0

    def __call__(self) -> float:
        return self.now


class TestCircuitBreaker:
    def test_opens_after_threshold_consecutive_failures(self):
        breaker = CircuitBreaker(3, 1.0, clock=_Clock())
        breaker.record_failure()
        breaker.record_failure()
        assert breaker.state == BREAKER_CLOSED
        breaker.record_failure()
        assert breaker.state == BREAKER_OPEN
        assert not breaker.allows()

    def test_success_resets_the_failure_streak(self):
        breaker = CircuitBreaker(3, 1.0, clock=_Clock())
        breaker.record_failure()
        breaker.record_failure()
        breaker.record_success()
        breaker.record_failure()
        breaker.record_failure()
        assert breaker.state == BREAKER_CLOSED  # streak broken at 2

    def test_open_becomes_half_open_after_the_window(self):
        clock = _Clock()
        breaker = CircuitBreaker(1, 5.0, clock=clock)
        breaker.record_failure()
        assert breaker.state == BREAKER_OPEN
        clock.now += 4.9
        assert breaker.state == BREAKER_OPEN
        clock.now += 0.2
        assert breaker.state == BREAKER_HALF_OPEN
        assert breaker.allows()  # probes may flow

    def test_half_open_probe_success_closes(self):
        clock = _Clock()
        breaker = CircuitBreaker(1, 1.0, clock=clock)
        breaker.record_failure()
        clock.now += 1.1
        assert breaker.state == BREAKER_HALF_OPEN
        breaker.record_success()
        assert breaker.state == BREAKER_CLOSED

    def test_half_open_probe_failure_rearms_the_window(self):
        clock = _Clock()
        breaker = CircuitBreaker(1, 1.0, clock=clock)
        breaker.record_failure()
        clock.now += 1.1
        assert breaker.state == BREAKER_HALF_OPEN
        breaker.record_failure()
        assert breaker.state == BREAKER_OPEN
        clock.now += 0.5
        assert breaker.state == BREAKER_OPEN  # full window, re-armed
        clock.now += 0.6
        assert breaker.state == BREAKER_HALF_OPEN

    def test_transitions_are_reported(self):
        clock = _Clock()
        seen: list[str] = []
        breaker = CircuitBreaker(1, 1.0, clock=clock,
                                 on_transition=seen.append)
        breaker.record_failure()
        clock.now += 1.1
        breaker.state  # noqa: B018 - lazy transition happens on read
        breaker.record_success()
        assert seen == [BREAKER_OPEN, BREAKER_HALF_OPEN, BREAKER_CLOSED]


class TestHashRing:
    def _router(self, n_backends: int) -> ShardRouter:
        backends = tuple(("127.0.0.1", 10_000 + i) for i in range(n_backends))
        return ShardRouter(RouterConfig(backends=backends))

    def test_requires_a_backend(self):
        with pytest.raises(ServiceError, match="at least one backend"):
            ShardRouter(RouterConfig(backends=()))

    def test_same_body_routes_to_same_backend(self):
        router = self._router(4)
        body = b"x" * 1000
        first = router._candidates(body)
        for _ in range(5):
            assert [b.label for b in router._candidates(body)] == [
                b.label for b in first
            ]

    def test_candidates_cover_every_backend_once(self):
        router = self._router(4)
        candidates = router._candidates(b"some request body")
        assert len(candidates) == 4
        assert len({b.label for b in candidates}) == 4

    def test_keyspace_spreads_across_backends(self):
        router = self._router(4)
        first = {
            router._candidates(bytes([i, i >> 4]) * 50)[0].label
            for i in range(64)
        }
        assert len(first) == 4  # every backend owns some keys

    def test_removing_a_backend_only_remaps_its_keys(self):
        big = self._router(4)
        small = self._router(3)  # same first three backend addresses
        moved = 0
        total = 128
        for i in range(total):
            body = bytes([i]) * 32
            before = big._candidates(body)[0].label
            after = small._candidates(body)[0].label
            if before != after:
                moved += 1
                # Keys only move off the removed backend, never between
                # the survivors.
                assert before == "127.0.0.1:10003"
        assert 0 < moved < total // 2


def _walk(rng, n, dtype=np.float32):
    return np.cumsum(rng.normal(scale=0.01, size=n)).astype(dtype)


def _router_config(*ports: int, **overrides) -> RouterConfig:
    settings = {"health_interval": 0.1, "failure_threshold": 2,
                "open_seconds": 0.4, **overrides}
    return RouterConfig(
        port=0, backends=tuple(("127.0.0.1", p) for p in ports), **settings
    )


class TestRoutingLive:
    def test_routed_requests_are_byte_identical(self, rng):
        data = _walk(rng, 8_000)
        with ServerThread(ServiceConfig(port=0)) as a, \
                ServerThread(ServiceConfig(port=0)) as b:
            with RouterThread(_router_config(a.port, b.port)) as rt:
                with ServiceClient(port=rt.port) as client:
                    blob = client.compress(data, "spspeed")
                    assert blob == repro.compress(data, "spspeed")
                    assert np.array_equal(client.decompress(blob), data)
                    assert client.ping()

    def test_work_spreads_across_backends(self, rng):
        with ServerThread(ServiceConfig(port=0)) as a, \
                ServerThread(ServiceConfig(port=0)) as b:
            with RouterThread(_router_config(a.port, b.port)) as rt:
                with ServiceClient(port=rt.port) as client:
                    for i in range(24):
                        client.compress(_walk(rng, 500 + 37 * i), "spspeed")
                    counters = client.stats()["metrics"]["counters"]
                served = {
                    key for key, count in counters.items()
                    if key.startswith("router_requests_total")
                    and "outcome=ok" in key and count > 0
                }
                assert len(served) == 2  # both backends did codec work

    def test_dead_backend_fails_over_and_breaker_opens(self, rng):
        data = _walk(rng, 4_000)
        expected = repro.compress(data, "spspeed")
        with ServerThread(ServiceConfig(port=0)) as a, \
                ServerThread(ServiceConfig(port=0)) as b:
            dead = a.port
            with RouterThread(_router_config(a.port, b.port)) as rt:
                a.stop(drain=False)
                with ServiceClient(port=rt.port) as client:
                    # Every request succeeds despite the dead backend.
                    for _ in range(8):
                        assert client.compress(data, "spspeed") == expected
                    # The health loop needs failure_threshold failed
                    # probes before the breaker opens; poll for it.
                    deadline = time.monotonic() + 10
                    while time.monotonic() < deadline:
                        stats = client.stats()
                        breakers = {
                            row["address"]: row["breaker"]
                            for row in stats["router"]["backends"]
                        }
                        if breakers[f"127.0.0.1:{dead}"] != BREAKER_CLOSED:
                            break
                        time.sleep(0.05)
                assert breakers[f"127.0.0.1:{dead}"] in (
                    BREAKER_OPEN, BREAKER_HALF_OPEN,
                )
                counters = stats["metrics"]["counters"]
                opened = counters.get(
                    "breaker_transitions_total"
                    f"{{backend=127.0.0.1:{dead},to=open}}", 0,
                )
                assert opened >= 1
                gauges = stats["metrics"]["gauges"]
                assert gauges[f"backend_healthy{{backend=127.0.0.1:{dead}}}"] == 0

    def test_recovered_backend_is_readmitted(self, rng):
        """OPEN -> HALF_OPEN -> CLOSED, observed through the registry."""
        with ServerThread(ServiceConfig(port=0)) as a:
            anchor_port = a.port
            with ServerThread(ServiceConfig(port=0)) as flaky:
                flaky_port = flaky.port
                with RouterThread(
                    _router_config(anchor_port, flaky_port)
                ) as rt:
                    flaky.stop(drain=False)
                    with ServiceClient(port=rt.port) as client:
                        deadline = time.monotonic() + 10
                        while time.monotonic() < deadline:
                            row = next(
                                r for r in client.stats()["router"]["backends"]
                                if r["address"] == f"127.0.0.1:{flaky_port}"
                            )
                            if row["breaker"] == BREAKER_OPEN:
                                break
                            time.sleep(0.05)
                        assert row["breaker"] == BREAKER_OPEN

                        # Resurrect a backend on the same port: the
                        # health loop must probe (half-open) and close
                        # the breaker again.
                        with ServerThread(
                            ServiceConfig(port=flaky_port)
                        ):
                            deadline = time.monotonic() + 10
                            while time.monotonic() < deadline:
                                row = next(
                                    r for r in
                                    client.stats()["router"]["backends"]
                                    if r["address"]
                                    == f"127.0.0.1:{flaky_port}"
                                )
                                if row["breaker"] == BREAKER_CLOSED:
                                    break
                                time.sleep(0.05)
                            assert row["breaker"] == BREAKER_CLOSED
                            counters = client.stats()["metrics"]["counters"]
                            label = f"backend=127.0.0.1:{flaky_port}"
                            assert counters[
                                f"breaker_transitions_total{{{label},"
                                f"to=half-open}}"
                            ] >= 1
                            assert counters[
                                f"breaker_transitions_total{{{label},"
                                f"to=closed}}"
                            ] >= 1

    def test_all_backends_down_surfaces_busy_not_error(self, rng):
        data = _walk(rng, 1_000)
        with ServerThread(ServiceConfig(port=0)) as a:
            with RouterThread(_router_config(a.port)) as rt:
                a.stop(drain=False)
                with ServiceClient(port=rt.port) as client:
                    with pytest.raises(BusyError):
                        client.compress(data, "spspeed")

    def test_load_shedding_answers_busy_with_hint(self, rng):
        data = _walk(rng, 1_000)
        with ServerThread(ServiceConfig(port=0)) as a:
            config = _router_config(a.port, inflight_high_water=0,
                                    busy_retry_ms=321)
            with RouterThread(config) as rt:
                with ServiceClient(port=rt.port) as client:
                    with pytest.raises(BusyError) as info:
                        client.compress(data, "spspeed")
                    assert info.value.retry_after_ms == 321
                    counters = client.stats()["metrics"]["counters"]
                    assert counters["sheds_total"] >= 1

    def test_resilient_client_rides_through_shedding(self, rng):
        data = _walk(rng, 1_000)
        with ServerThread(ServiceConfig(port=0)) as a:
            # High water of 1 forces intermittent sheds under pipelining;
            # the retrying client must absorb all of them.
            with RouterThread(
                _router_config(a.port, inflight_high_water=1,
                               busy_retry_ms=5)
            ) as rt:
                with ResilientClient(
                    f"127.0.0.1:{rt.port}",
                    policy=RetryPolicy(attempts=10, base_ms=2.0),
                    seed=0,
                ) as client:
                    expected = repro.compress(data, "spspeed")
                    for _ in range(12):
                        assert client.compress(data, "spspeed") == expected

    def test_router_stats_shape(self, rng):
        with ServerThread(ServiceConfig(port=0)) as a:
            with RouterThread(_router_config(a.port)) as rt:
                with ServiceClient(port=rt.port) as client:
                    client.compress(_walk(rng, 500), "spspeed")
                    stats = client.stats()
        router = stats["router"]
        assert router["draining"] is False
        assert router["inflight"] == 0
        assert router["failure_threshold"] == 2
        (backend,) = router["backends"]
        assert backend["address"] == f"127.0.0.1:{a.port}"
        assert backend["breaker"] == BREAKER_CLOSED
        assert "metrics" in stats

    def test_stopped_router_refuses_connections(self):
        with ServerThread(ServiceConfig(port=0)) as a:
            rt = RouterThread(_router_config(a.port))
            with rt:
                port = rt.port
                with ServiceClient(port=port) as client:
                    assert client.ping()
            # After stop, the listener is gone entirely.
            with pytest.raises(ServiceError, match="cannot connect"):
                ServiceClient(port=port, timeout=2.0)


class TestRoutedStreams:
    """Protocol-v2 streams relayed through the router.

    The router buffers a stream's uplink frames only while a replay is
    still possible; failover is allowed exclusively for fully-buffered,
    not-yet-answered streams, so a retried stream is byte-identical to
    the first attempt and a half-answered one fails loudly instead of
    silently duplicating work.
    """

    def test_streamed_round_trip_through_the_router(self, rng):
        data = _walk(rng, 60_000)
        expected = repro.compress(data, "spspeed", fcm="restart")
        with ServerThread(ServiceConfig(port=0)) as a, \
                ServerThread(ServiceConfig(port=0)) as b:
            with RouterThread(_router_config(a.port, b.port)) as rt:
                with ServiceClient(port=rt.port) as client:
                    assert client.supports("stream")  # negotiated end-to-end
                    blob = client.compress_streamed(data, "spspeed")
                    assert blob == expected
                    assert np.array_equal(client.decompress_streamed(blob),
                                          data)

    def test_streams_and_unary_interleave_through_the_router(self, rng):
        data = _walk(rng, 10_000)
        with ServerThread(ServiceConfig(port=0)) as a, \
                ServerThread(ServiceConfig(port=0)) as b:
            with RouterThread(_router_config(a.port, b.port)) as rt:
                with ServiceClient(port=rt.port) as client:
                    blob = client.compress_streamed(data, "spspeed")
                    assert np.array_equal(client.decompress(blob), data)
                    assert client.ping()
                    blob2 = client.compress(data, "spspeed")
                    assert np.array_equal(
                        client.decompress_streamed(blob2), data
                    )

    def test_stream_fails_over_around_a_dead_backend(self, rng):
        data = _walk(rng, 6_000)
        with ServerThread(ServiceConfig(port=0)) as a, \
                ServerThread(ServiceConfig(port=0)) as b:
            # One health check at start-up and none after: only the
            # streams themselves can open the dead backend's breaker, so
            # the failover is always counted instead of racing the loop.
            config = _router_config(a.port, b.port, health_interval=3600)
            with RouterThread(config) as rt:
                with ServiceClient(port=rt.port) as client:
                    # The ring key is the STREAM-BEGIN body (codec, dtype,
                    # shape), so equal-shaped payloads all start on one
                    # backend: find it with a first stream, then stop it.
                    blob = client.compress_streamed(data, "spspeed")
                    assert blob == repro.compress(data, "spspeed", fcm="restart")
                    counters = client.stats()["metrics"]["counters"]
                    (first,) = [
                        server for server in (a, b)
                        if any(f"127.0.0.1:{server.port}" in key
                               and "stream" in key and "outcome=ok" in key
                               for key in counters)
                    ]
                    first.stop(drain=False)
                    for i in range(3):
                        payload = data + np.float32(i)
                        blob = client.compress_streamed(payload, "spspeed")
                        assert blob == repro.compress(
                            payload, "spspeed", fcm="restart"
                        )
                    counters = client.stats()["metrics"]["counters"]
                failovers = sum(
                    count for key, count in counters.items()
                    if key.startswith("failovers_total") and "stream" in key
                )
                assert failovers >= 1
