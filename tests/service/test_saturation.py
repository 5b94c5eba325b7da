"""Pipelined requests and router fan-out run their jobs concurrently.

Each test holds every compress job at a rendezvous that opens only once
``JOBS`` jobs are inside ``_work_compress`` at the same time, so nothing
here is timed.  A server or router that runs the jobs one at a time never
fills the rendezvous: after ``RENDEZVOUS_TIMEOUT`` seconds the waiting
jobs raise, the requests fail typed, and the test fails instead of
hanging.
"""

from __future__ import annotations

import contextlib
import threading

import numpy as np
import pytest

import repro
from repro.service import (
    RouterConfig,
    RouterThread,
    ServerThread,
    ServiceClient,
    ServiceConfig,
)
from repro.service import protocol as wire
from repro.service.server import CompressionServer

JOBS = 4
RENDEZVOUS_TIMEOUT = 10.0

pytestmark = pytest.mark.usefixtures("rendezvous")


@pytest.fixture
def rendezvous(monkeypatch):
    """Make every compress job wait until ``JOBS`` of them run at once."""
    barrier = threading.Barrier(JOBS, timeout=RENDEZVOUS_TIMEOUT)
    work = CompressionServer._work_compress

    def meet(self, body):
        barrier.wait()
        return work(self, body)

    monkeypatch.setattr(CompressionServer, "_work_compress", meet)
    yield
    barrier.abort()  # frees any job still waiting after a failure


def _payload(i: int) -> np.ndarray:
    rng = np.random.default_rng(i)
    return np.cumsum(rng.normal(scale=0.01, size=2_000)).astype(np.float32)


def _compress_pipelined(port: int, payloads: list[np.ndarray]) -> list[bytes]:
    """Submit every payload on one connection before collecting any."""
    with ServiceClient(port=port) as client:
        ids = [client.submit_compress(p, "spspeed") for p in payloads]
        return [client.collect(rid) for rid in ids]


def _one_payload_per_shard(router) -> list[np.ndarray]:
    """Payloads that the router's hash ring sends to distinct backends."""
    by_shard: dict[int, np.ndarray] = {}
    for i in range(10_000):
        payload = _payload(i)
        raw, code, shape = ServiceClient._array_payload(payload)
        body = wire.encode_compress_body(raw, codec="spspeed", dtype_code=code,
                                         shape=shape)
        by_shard.setdefault(id(router._candidates(body)[0]), payload)
        if len(by_shard) == JOBS:
            return list(by_shard.values())
    raise AssertionError("the ring never reached every backend")


def test_pipelined_requests_run_their_jobs_at_once():
    payloads = [_payload(i) for i in range(JOBS)]
    with ServerThread(ServiceConfig(port=0, job_threads=JOBS)) as srv:
        blobs = _compress_pipelined(srv.port, payloads)
    assert blobs == [repro.compress(p, "spspeed") for p in payloads]


def test_router_keeps_every_backend_busy_at_once():
    with contextlib.ExitStack() as stack:
        backends = tuple(
            ("127.0.0.1", stack.enter_context(
                ServerThread(ServiceConfig(port=0, job_threads=1))).port)
            for _ in range(JOBS)
        )
        rt = stack.enter_context(RouterThread(RouterConfig(port=0, backends=backends)))
        payloads = _one_payload_per_shard(rt.router)
        blobs = _compress_pipelined(rt.port, payloads)
    assert blobs == [repro.compress(p, "spspeed") for p in payloads]
