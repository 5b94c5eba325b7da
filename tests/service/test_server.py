"""End-to-end tests of the compression service over real sockets.

Every test runs a :class:`~repro.service.server.ServerThread` on an
ephemeral port and talks to it with the blocking
:class:`~repro.service.client.ServiceClient` — the same harness the CI
smoke job uses.  Tests that need a job to stay in flight hold it with
the ``held`` fixture instead of timing a sleep.  The acceptance
invariants: remote compression is byte-identical to the in-process API,
hostile frames and overload fail typed (never by hanging or crashing
the server), and a graceful stop drains in-flight work.
"""

from __future__ import annotations

import socket
import struct
import threading
import time

import numpy as np
import pytest

import repro
from repro.core.codecs import CODECS
from repro.errors import (
    BusyError,
    DeadlineExceededError,
    FormatError,
    ProtocolError,
    ServiceError,
)
from repro.service import ServerThread, ServiceClient, ServiceConfig
from repro.service import protocol as wire
from repro.service.server import CompressionServer


def _config(**overrides) -> ServiceConfig:
    return ServiceConfig(port=0, **overrides)


def _walk(rng, n, dtype):
    return np.cumsum(rng.normal(scale=0.01, size=n)).astype(dtype)


def _wait_until(condition, what: str, timeout: float = 10.0) -> None:
    """Poll ``condition`` until it holds; fail after ``timeout`` seconds."""
    deadline = time.monotonic() + timeout
    while not condition():
        if time.monotonic() > deadline:
            pytest.fail(f"timed out after {timeout} s waiting for {what}")
        time.sleep(0.005)


def _wait_admitted(srv) -> None:
    """Block until the server has admitted at least one job."""
    gauge = srv.server.registry.gauge("queue_depth")
    _wait_until(lambda: gauge.value >= 1, "a job to be admitted")


def _compress_once(port: int, data):
    """One compress on a client of its own, closed afterwards."""
    with ServiceClient(port=port) as client:
        return client.compress(data)


def _begin_stop(srv) -> threading.Thread:
    """Start a graceful stop on another thread; return once draining begins."""
    stopper = threading.Thread(target=srv.stop)
    stopper.start()
    _wait_until(lambda: srv.server._draining, "the drain to start")
    return stopper


@pytest.fixture
def held(monkeypatch):
    """Hold every compress/decompress job until the test sets the event.

    Set it before leaving the ``ServerThread`` block of a test whose job
    is still admitted, or the server's drain waits for it.
    """
    release = threading.Event()
    for name in ("_work_compress", "_work_decompress"):
        def waiting(self, body, work=getattr(CompressionServer, name)):
            release.wait(timeout=30)
            return work(self, body)

        monkeypatch.setattr(CompressionServer, name, waiting)
    yield release
    release.set()


@pytest.fixture(scope="module")
def server():
    with ServerThread(ServiceConfig(port=0)) as srv:
        yield srv


@pytest.fixture
def client(server):
    with ServiceClient(port=server.port) as c:
        yield c


class TestByteIdentity:
    """The payload-equals-container guarantee, per codec."""

    @pytest.mark.parametrize("name", sorted(CODECS))
    def test_remote_compress_matches_api(self, client, rng, name):
        dtype = np.float32 if name.startswith("sp") else np.float64
        data = _walk(rng, 20_000, dtype)
        remote = client.compress(data, codec=name)
        assert remote == repro.compress(data, name)
        restored = client.decompress(remote)
        assert restored.dtype == data.dtype
        assert np.array_equal(restored, data)

    def test_default_codec_selection_matches_api(self, client, rng):
        data = _walk(rng, 8_000, np.float32)
        assert client.compress(data) == repro.compress(data)

    def test_shape_survives_the_wire(self, client, rng):
        data = _walk(rng, 6_000, np.float64).reshape(20, 30, 10)
        restored = client.decompress(client.compress(data))
        assert restored.shape == (20, 30, 10)
        assert np.array_equal(restored, data)

    def test_raw_bytes_round_trip(self, client, rng):
        payload = rng.bytes(10_000)
        blob = client.compress(payload, codec="spspeed")
        assert blob == repro.compress(payload, "spspeed")
        assert client.decompress(blob) == payload

    def test_remote_blob_decodes_locally_and_vice_versa(self, client, rng):
        data = _walk(rng, 9_000, np.float32)
        assert np.array_equal(repro.decompress(client.compress(data)), data)
        assert np.array_equal(client.decompress(repro.compress(data)), data)


class TestConcurrentClients:
    def test_simultaneous_clients_all_byte_identical(self, server):
        n_clients = 8
        errors: list[BaseException] = []

        def one(i: int) -> None:
            try:
                rng = np.random.default_rng(1000 + i)
                name = sorted(CODECS)[i % len(CODECS)]
                dtype = np.float32 if name.startswith("sp") else np.float64
                data = _walk(rng, 5_000 + 700 * i, dtype)
                with ServiceClient(port=server.port) as c:
                    for _ in range(3):
                        blob = c.compress(data, codec=name)
                        assert blob == repro.compress(data, name)
                        assert np.array_equal(c.decompress(blob), data)
            except BaseException as exc:  # noqa: BLE001 - surfaced below
                errors.append(exc)

        threads = [threading.Thread(target=one, args=(i,)) for i in range(n_clients)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors, errors

    def test_pipelined_requests_on_one_connection(self, client, rng):
        # Interleave opcodes on a single connection: ids stay matched.
        data = _walk(rng, 4_000, np.float32)
        blob = client.compress(data)
        assert client.ping()
        assert client.inspect(blob)["codec"] == "spratio"
        assert np.array_equal(client.decompress(blob), data)


class TestTypedFailures:
    def test_invalid_container_surfaces_format_error(self, client):
        with pytest.raises(FormatError, match="server:"):
            client.decompress(b"this is not a container" * 10)

    def test_unknown_codec_is_typed(self, client, rng):
        from repro.errors import UnknownCodecError

        # ``auto`` is retired: id 5 is a header-only v4 id, not a codec.
        for name in ("zpaq", "auto"):
            with pytest.raises(UnknownCodecError, match="spspeed"):
                client.compress(_walk(rng, 100, np.float32), codec=name)

    def test_garbage_header_answered_typed_then_closed(self, server):
        with socket.create_connection(("127.0.0.1", server.port), timeout=10) as s:
            s.sendall(b"GET / HTTP/1.1\r\n\r\n12")  # 20 bytes, wrong magic
            header = _recv_exactly(s, wire.HEADER_SIZE)
            opcode, _, body_len = wire.parse_header(header)
            assert opcode == wire.OP_ERROR
            code, message = wire.decode_error_body(_recv_exactly(s, body_len))
            assert code == wire.ERR_PROTOCOL
            assert "magic" in message
            assert s.recv(1) == b""  # untrusted stream: connection dropped

    def test_allocation_bomb_declaration_rejected_at_header(self, server):
        bomb = struct.pack(
            "<4sBBBBQI", wire.MAGIC, wire.VERSION, wire.OP_COMPRESS,
            0, 0, 42, 0xFFFFFFFF,
        )
        with socket.create_connection(("127.0.0.1", server.port), timeout=10) as s:
            s.sendall(bomb)  # no body ever sent; server must not wait for one
            header = _recv_exactly(s, wire.HEADER_SIZE)
            opcode, request_id, body_len = wire.parse_header(header)
            assert opcode == wire.OP_ERROR
            assert request_id == 42  # id was still parseable, so it is echoed
            code, message = wire.decode_error_body(_recv_exactly(s, body_len))
            assert code == wire.ERR_PROTOCOL
            assert "frame limit" in message

    def test_response_opcode_from_client_is_rejected(self, server):
        with socket.create_connection(("127.0.0.1", server.port), timeout=10) as s:
            s.sendall(wire.encode_frame(wire.OP_RESULT, 3))
            header = _recv_exactly(s, wire.HEADER_SIZE)
            opcode, _, body_len = wire.parse_header(header)
            assert opcode == wire.OP_ERROR
            code, message = wire.decode_error_body(_recv_exactly(s, body_len))
            assert code == wire.ERR_PROTOCOL
            assert "response opcode" in message

    def test_oversized_request_rejected_client_side(self, server):
        with ServiceClient(port=server.port, max_frame=1024) as c:
            with pytest.raises(ProtocolError, match="frame limit"):
                c.compress(np.zeros(4096, dtype=np.float32))


class TestDeadlines:
    def test_slow_request_cancelled_without_poisoning_the_connection(self, rng, held):
        config = _config(request_timeout=0.2, job_threads=2)
        with ServerThread(config) as srv:
            with ServiceClient(port=srv.port) as c:
                data = _walk(rng, 2_000, np.float32)
                with pytest.raises(DeadlineExceededError, match="deadline"):
                    c.compress(data)
                # Same connection, next request: still serviceable.
                assert c.ping()
                stats = c.stats()
                outcomes = stats["metrics"]["counters"]
                assert outcomes[
                    "requests_total{codec=-,opcode=compress,outcome=deadline}"
                ] == 1


class TestBackpressure:
    def test_queue_overflow_surfaces_busy(self, rng, held):
        config = _config(
            queue_high_water=1, job_threads=1, request_timeout=30.0,
        )
        data = _walk(rng, 1_000, np.float32)
        with ServerThread(config) as srv:
            results: dict[str, object] = {}

            def slow():
                with ServiceClient(port=srv.port) as c:
                    results["blob"] = c.compress(data)

            worker = threading.Thread(target=slow)
            worker.start()
            _wait_admitted(srv)  # the slow job occupies the queue
            with ServiceClient(port=srv.port) as c:
                with pytest.raises(BusyError, match="high-water"):
                    c.compress(data)
            held.set()
            worker.join(timeout=30)
            assert not worker.is_alive()
            # The admitted job was unaffected by the rejection.
            assert results["blob"] == repro.compress(data)
            with ServiceClient(port=srv.port) as c:
                busy = c.stats()["metrics"]["counters"]
                assert busy["busy_rejections_total{reason=queue}"] >= 1

    def test_connection_byte_cap_surfaces_busy(self, rng):
        config = _config(conn_bytes_in_flight=1024)
        with ServerThread(config) as srv:
            with ServiceClient(port=srv.port) as c:
                with pytest.raises(BusyError):
                    c.compress(np.zeros(4_096, dtype=np.float32))


class TestBusyHint:
    def test_busy_carries_retry_after_ms(self, rng, held):
        config = _config(queue_high_water=1, job_threads=1, busy_retry_ms=123)
        data = _walk(rng, 1_000, np.float32)
        with ServerThread(config) as srv:
            worker = threading.Thread(
                target=lambda: _compress_once(srv.port, data)
            )
            worker.start()
            _wait_admitted(srv)
            with ServiceClient(port=srv.port) as c:
                with pytest.raises(BusyError) as info:
                    c.compress(data)
                assert info.value.retry_after_ms == 123
            held.set()
            worker.join(timeout=30)
            assert not worker.is_alive()

    def test_hint_can_be_disabled(self, rng):
        # busy_retry_ms=0 sends the legacy empty BUSY body.
        config = _config(conn_bytes_in_flight=1024, busy_retry_ms=0)
        with ServerThread(config) as srv:
            with ServiceClient(port=srv.port) as c:
                with pytest.raises(BusyError) as info:
                    c.compress(np.zeros(4_096, dtype=np.float32))
                assert info.value.retry_after_ms is None


class TestBrokenConnections:
    """After a mid-frame failure the client connection must not be
    silently reusable — the stream position cannot be trusted."""

    def test_timeout_mid_frame_poisons_the_connection(self, rng, held):
        config = _config()
        data = _walk(rng, 1_000, np.float32)
        with ServerThread(config) as srv:
            with ServiceClient(port=srv.port, timeout=0.2) as c:
                with pytest.raises(ServiceError, match="timed out"):
                    c.compress(data)
                assert c.broken is not None
                # Reuse fails fast and typed, before any byte is sent.
                from repro.errors import ConnectionBrokenError

                with pytest.raises(ConnectionBrokenError, match="desync"):
                    c.ping()
            held.set()

    def test_poisoned_errors_carry_transport_markers(self, rng, held):
        config = _config()
        data = _walk(rng, 1_000, np.float32)
        with ServerThread(config) as srv:
            with ServiceClient(port=srv.port, timeout=0.2) as c:
                with pytest.raises(ServiceError) as info:
                    c.compress(data)
                assert info.value.transport is True
                assert info.value.request_sent is True  # ambiguous: sent
            held.set()

    def test_rejected_oversize_request_does_not_poison(self, rng):
        with ServerThread(_config()) as srv:
            with ServiceClient(port=srv.port, max_frame=1024) as c:
                with pytest.raises(ProtocolError) as info:
                    c.compress(np.zeros(4_096, dtype=np.float32))
                # Rejected before the wire: provably unsent, still usable.
                assert info.value.request_sent is False
                assert c.broken is None
                assert c.ping()


class TestGracefulDrain:
    def test_client_disconnect_mid_request_does_not_wedge_drain(self, rng, held):
        """A client that vanishes mid-request must not stall the drain:
        its job completes into the void and stop() still returns."""
        config = _config(drain_timeout=10.0)
        data = _walk(rng, 2_000, np.float32)
        with ServerThread(config) as srv:
            abandoner = ServiceClient(port=srv.port)
            from repro.core import container as fmt

            frame = wire.encode_frame(
                wire.OP_COMPRESS, 1,
                wire.encode_compress_body(data.tobytes(), codec="spspeed",
                                          dtype_code=fmt.DTYPE_F32),
            )
            abandoner._sock.sendall(frame)
            _wait_admitted(srv)  # job admitted and running
            abandoner.close()  # walk away mid-request
            started = time.monotonic()
            stopper = _begin_stop(srv)
            held.set()  # the drain is now waiting on a running job
            stopper.join(timeout=30)
            assert not stopper.is_alive()
            assert time.monotonic() - started < 8.0
            # The drain completed despite the dead client: the job's
            # reply was discarded, not raised.

    def test_stop_waits_for_inflight_work(self, rng, held):
        config = _config(drain_timeout=30.0)
        data = _walk(rng, 2_000, np.float32)
        with ServerThread(config) as srv:
            port = srv.port
            results: dict[str, object] = {}

            def inflight():
                with ServiceClient(port=port) as c:
                    results["blob"] = c.compress(data)

            worker = threading.Thread(target=inflight)
            worker.start()
            _wait_admitted(srv)  # job held in the pool
            stopper = _begin_stop(srv)
            held.set()
            stopper.join(timeout=30)
            worker.join(timeout=30)
            assert not stopper.is_alive()
            assert not worker.is_alive()
            # The in-flight request completed, correctly, during the drain.
            assert results["blob"] == repro.compress(data)
            # The listener is gone: new connections are refused.
            with pytest.raises(ServiceError, match="cannot connect"):
                ServiceClient(port=port, timeout=2.0)

    def test_new_requests_during_drain_get_shutting_down(self, rng, held):
        config = _config(drain_timeout=30.0)
        data = _walk(rng, 2_000, np.float32)
        with ServerThread(config) as srv:
            with ServiceClient(port=srv.port) as bystander:
                worker = threading.Thread(
                    target=lambda: _compress_once(srv.port, data)
                )
                worker.start()
                _wait_admitted(srv)
                stopper = _begin_stop(srv)  # held open by the job
                with pytest.raises(ServiceError, match="draining"):
                    bystander.compress(data)
                held.set()
                worker.join(timeout=30)
                stopper.join(timeout=30)
                assert not worker.is_alive()
                assert not stopper.is_alive()


class TestStatsOpcode:
    def test_stats_reports_server_and_metrics(self, server, client, rng):
        client.compress(_walk(rng, 3_000, np.float32))
        stats = client.stats()
        assert stats["server"]["queue_high_water"] == server.config.queue_high_water
        assert stats["server"]["uptime_seconds"] > 0
        assert stats["server"]["draining"] is False
        counters = stats["metrics"]["counters"]
        ok_compress = [
            k for k in counters
            if k.startswith("requests_total")
            and "opcode=compress" in k and "outcome=ok" in k
        ]
        assert ok_compress and all(counters[k] >= 1 for k in ok_compress)
        assert any(k.startswith("compression_ratio")
                   for k in stats["metrics"]["histograms"])

    def test_requests_are_labelled_with_the_container_codec(self, client, rng):
        """COMPRESS labels by the codec it resolved, which is the one the
        container names: the dtype default, a case-folded name, and a raw
        fallback all read back from the header."""
        cases = [(_walk(rng, 3_000, np.float32), None),
                 (_walk(rng, 3_000, np.float64), "DPSpeed"),
                 (rng.bytes(5_000), "spratio")]  # random bytes: raw fallback
        for data, codec in cases:
            blob = client.compress(data, codec=codec)
            info = client.inspect(blob)
            client.decompress(blob)
            counters = client.stats()["metrics"]["counters"]
            for opcode in ("compress", "decompress"):
                key = (f"requests_total{{codec={info['codec']},opcode={opcode},"
                       f"outcome=ok}}")
                assert counters.get(key, 0) >= 1, (key, sorted(counters))
        assert info["raw_fallback"]

    def test_inspect_round_trips_container_metadata(self, client, rng):
        data = _walk(rng, 7_000, np.float64)
        blob = client.compress(data, codec="dpratio")
        info = client.inspect(blob)
        assert info["codec"] == "dpratio"
        assert info["original_len"] == data.nbytes
        assert info["compressed_len"] == len(blob)
        assert info["shape"] == [7_000]


def _recv_exactly(sock: socket.socket, n: int) -> bytes:
    chunks = []
    while n:
        chunk = sock.recv(n)
        assert chunk, "server closed early"
        chunks.append(chunk)
        n -= len(chunk)
    return b"".join(chunks)
