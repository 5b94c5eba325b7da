"""The asyncio compression daemon behind ``fprz serve``.

Architecture — the same skeleton any inference-serving stack needs:

* **Framing**: each connection is a stream of FPRW frames
  (:mod:`repro.service.protocol`).  Headers are validated before the
  body is read, so a hostile declared length fails with a typed
  :class:`~repro.errors.ProtocolError` and never sizes an allocation.
* **Admission control**: one bounded job queue for the whole server.
  Past the high-water mark a request is rejected immediately with a
  BUSY frame — explicit backpressure instead of unbounded buffering.
  Each connection additionally has a bytes-in-flight cap, so one
  client cannot monopolise admission with huge queued payloads.
* **Worker-pool offload**: codec work runs in a thread pool off the
  event loop, one request per job thread; each job runs its chunks
  serially through the library's own engine, so the serving layer and
  the library run the exact same compression code.
* **Deadlines**: every job is wrapped in ``asyncio.wait_for``.  Past
  the deadline the response is a typed DEADLINE error and the awaiting
  task is cancelled; the connection itself stays usable.  (The worker
  thread finishes its current chunk work in the background and its
  result is discarded — cancellation is at the response boundary,
  bounded by the pool size.)
* **Graceful drain**: ``stop(drain=True)`` (installed on SIGTERM /
  SIGINT by :meth:`CompressionServer.run`) stops accepting, answers new
  requests with a SHUTTING-DOWN error, waits up to ``drain_timeout``
  for in-flight jobs, then closes the remaining connections.
* **Metrics**: every decision increments the
  :class:`~repro.service.metrics.MetricsRegistry` served by the STATS
  opcode and ``fprz stats``.
"""

from __future__ import annotations

import asyncio
import contextlib
import json
import signal
import socket
import threading
import time
from concurrent.futures import Future, ThreadPoolExecutor, wait
from dataclasses import dataclass, field

import numpy as np

from repro.api import compress as api_compress
from repro.api import resolve_codec
from repro.bitpack import backend as kernel_backend
from repro.core import codec_by_id
from repro.core import container as fmt
from repro.core.codecs import codec_for, get_codec
from repro.core.compressor import decompress_bytes
from repro.core.incremental import StreamingCompressor, StreamingDecompressor
from repro.errors import (
    FormatError,
    ProtocolError,
    ReproError,
    ServiceError,
    traceback_summary,
)
from repro.service import protocol as proto
from repro.service.metrics import (
    DEPTH_BUCKETS,
    LATENCY_BUCKETS,
    RATIO_BUCKETS,
    SIZE_BUCKETS,
    MetricsRegistry,
)

_DTYPE_BY_CODE = {fmt.DTYPE_F32: np.dtype(np.float32),
                  fmt.DTYPE_F64: np.dtype(np.float64)}


@dataclass(frozen=True)
class ServiceConfig:
    """Tunables of one :class:`CompressionServer`."""

    host: str = "127.0.0.1"
    #: TCP port; 0 binds an ephemeral port (read it back from ``server.port``).
    port: int = proto.DEFAULT_PORT
    #: Per-frame body limit, enforced on declared lengths in both
    #: directions before anything is allocated.
    max_frame: int = proto.DEFAULT_MAX_FRAME
    #: Admission high-water mark: jobs admitted but not yet finished.
    #: At the mark, new work is rejected with BUSY.
    queue_high_water: int = 32
    #: Per-connection cap on admitted-but-unfinished request bytes.
    conn_bytes_in_flight: int = 256 * 1024 * 1024
    #: Per-stream byte window for STREAM-DATA flow control.  The server
    #: never buffers more than this many unprocessed payload bytes per
    #: stream — credit is granted back to the sender only as buffered
    #: bytes are consumed — so memory for a streamed transfer is bounded
    #: by the window no matter how large the declared payload.
    stream_window: int = 4 * 1024 * 1024
    #: Per-tenant admission quota in payload bytes per second (token
    #: bucket, refilled continuously).  0 disables quota enforcement.
    quota_rate: float = 0.0
    #: Token-bucket burst capacity in bytes; 0 defaults to one second of
    #: ``quota_rate``.
    quota_burst: int = 0
    #: Per-request deadline in seconds.
    request_timeout: float = 30.0
    #: Seconds ``stop(drain=True)`` waits for in-flight jobs.
    drain_timeout: float = 10.0
    #: Concurrent codec jobs (thread-pool size); each job runs its
    #: chunks serially.
    job_threads: int = 4
    #: Backoff hint carried in BUSY responses (milliseconds).  Clients
    #: with a :class:`~repro.service.resilience.RetryPolicy` treat it as
    #: a lower bound on their next delay; 0 sends the hint-less
    #: protocol-v1 empty body.
    busy_retry_ms: int = 50
    #: Kernel backend pinned at startup (``fprz serve --backend``).
    #: ``None`` keeps the process default (explicit pin > env var >
    #: auto).  The *resolved* name is reported in STATS and as the
    #: ``kernel_backend_info`` gauge either way.
    kernel_backend: str | None = None


class _TokenBucket:
    """Per-tenant byte-rate admission quota (continuously refilled)."""

    __slots__ = ("rate", "burst", "tokens", "_last")

    def __init__(self, rate: float, burst: float) -> None:
        self.rate = float(rate)
        self.burst = float(burst)
        self.tokens = float(burst)
        self._last = time.monotonic()

    def admit(self, n_bytes: int) -> tuple[bool, int]:
        """Try to spend ``n_bytes``; returns ``(admitted, retry_ms)``.

        ``retry_ms`` is the earliest time (in milliseconds) at which the
        deficit will have refilled — the hint carried in the QUOTA error.
        """
        now = time.monotonic()
        self.tokens = min(self.burst, self.tokens + (now - self._last) * self.rate)
        self._last = now
        if n_bytes <= self.tokens:
            self.tokens -= n_bytes
            return True, 0
        deficit = min(n_bytes, self.burst) - self.tokens
        retry_ms = int(deficit * 1000.0 / self.rate) + 1
        return False, retry_ms


class _StreamJob:
    """Server-side state of one in-flight stream (the ledger attachment)."""

    __slots__ = (
        "engine", "opname", "codec_label", "queue", "start", "bytes_in",
    )

    def __init__(self, engine, opname: str, codec_label: str) -> None:
        self.engine = engine
        self.opname = opname
        self.codec_label = codec_label
        #: Frames handed from the read loop to the stream task:
        #: ``("data", payload)`` / ``("end", b"")`` / ``("abort", b"")``.
        self.queue: asyncio.Queue = asyncio.Queue()
        self.start = time.perf_counter()
        self.bytes_in = 0


@dataclass(eq=False)
class _Connection:
    """Per-connection state (identity-hashed: every connection is unique)."""

    writer: asyncio.StreamWriter
    ledger: proto.StreamLedger
    write_lock: asyncio.Lock = field(default_factory=asyncio.Lock)
    bytes_in_flight: int = 0
    tasks: set = field(default_factory=set)
    #: Quota accounting identity, set by PING negotiation.
    tenant: str = "default"
    #: Live stream jobs by correlation id.
    streams: dict = field(default_factory=dict)
    #: Correlation ids of streams aborted server-side whose in-flight
    #: frames are tolerated (dropped) until their STREAM-END arrives.
    dead_streams: set = field(default_factory=set)


class CompressionServer:
    """A framed compress/decompress/inspect service over TCP."""

    def __init__(
        self,
        config: ServiceConfig | None = None,
        *,
        registry: MetricsRegistry | None = None,
    ) -> None:
        self.config = config or ServiceConfig()
        self.registry = registry or MetricsRegistry()
        self.port: int | None = None
        self._server: asyncio.base_events.Server | None = None
        self._pool: ThreadPoolExecutor | None = None
        self._conns: set[_Connection] = set()
        self._jobs: set[asyncio.Task] = set()
        self._queue_depth = 0
        #: Per-tenant admission buckets (created lazily; quota_rate > 0).
        self._buckets: dict[str, _TokenBucket] = {}
        #: Unprocessed STREAM-DATA bytes held across all streams; its
        #: high-water mark is the ``stream_buffered_watermark`` gauge the
        #: bounded-memory tests assert against.
        self._stream_buffered = 0
        self._draining = False
        self._stopped: asyncio.Event | None = None
        self._started_at = 0.0
        self._kernel_backend: str | None = None
        #: Pin active before we pinned (sentinel False = we never pinned).
        self._prev_backend_pin: str | None | bool = False

    # -- lifecycle ----------------------------------------------------

    async def start(self) -> None:
        """Bind the listening socket and start serving connections."""
        cfg = self.config
        self._stopped = asyncio.Event()
        if cfg.kernel_backend is not None:
            try:
                self._prev_backend_pin = kernel_backend.set_backend(
                    cfg.kernel_backend
                )
            except ReproError as exc:
                raise ServiceError(str(exc)) from exc
        active = kernel_backend.active_backend()
        self._kernel_backend = active.name
        self.registry.gauge("kernel_backend_info", backend=active.name).set(1)
        self._pool = ThreadPoolExecutor(
            max_workers=cfg.job_threads, thread_name_prefix="repro-svc"
        )
        self._server = await asyncio.start_server(
            self._handle_conn, cfg.host, cfg.port
        )
        self.port = self._server.sockets[0].getsockname()[1]
        self._started_at = time.monotonic()

    async def stop(self, drain: bool = True) -> None:
        """Stop serving; with ``drain``, let in-flight jobs finish first."""
        if self._stopped is None or self._stopped.is_set():
            return
        self._draining = True
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        if drain and self._jobs:
            with contextlib.suppress(asyncio.TimeoutError):
                await asyncio.wait_for(
                    asyncio.gather(*tuple(self._jobs), return_exceptions=True),
                    self.config.drain_timeout,
                )
        for task in tuple(self._jobs):
            task.cancel()
        for conn in tuple(self._conns):
            conn.writer.close()
        if self._pool is not None:
            self._pool.shutdown(wait=False, cancel_futures=True)
        if self._prev_backend_pin is not False:
            # Undo the startup backend pin (it is process-wide state and
            # embedded ServerThread uses share the process with tests).
            kernel_backend.set_backend(self._prev_backend_pin)
            self._prev_backend_pin = False
        self._stopped.set()

    async def wait_stopped(self) -> None:
        assert self._stopped is not None, "server not started"
        await self._stopped.wait()

    async def run(
        self, *, install_signals: bool = True, on_started=None
    ) -> None:
        """Start, serve until SIGTERM/SIGINT (graceful drain), then exit."""
        await self.start()
        if on_started is not None:
            on_started()
        if install_signals:
            loop = asyncio.get_running_loop()
            for sig in (signal.SIGTERM, signal.SIGINT):
                with contextlib.suppress(NotImplementedError, ValueError):
                    loop.add_signal_handler(
                        sig, lambda: asyncio.ensure_future(self.stop())
                    )
        await self.wait_stopped()

    # -- connection handling ------------------------------------------

    async def _handle_conn(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        cfg = self.config
        conn = _Connection(
            writer=writer,
            ledger=proto.StreamLedger(window=cfg.stream_window),
        )
        self._conns.add(conn)
        self.registry.gauge("connections").inc()
        self.registry.counter("connections_total").inc()
        try:
            while True:
                try:
                    header = await reader.readexactly(proto.HEADER_SIZE)
                except (asyncio.IncompleteReadError, ConnectionError):
                    break
                try:
                    opcode, request_id, body_len = proto.parse_header(
                        header, max_frame=cfg.max_frame
                    )
                    if opcode not in proto.REQUEST_OPCODES:
                        exc = ServiceError(
                            f"opcode 0x{opcode:02x} is a response opcode"
                        )
                        raise self._as_protocol_error(exc, request_id)
                except ReproError as exc:
                    # A frame we cannot trust leaves the stream unsynced:
                    # answer with a typed error, then drop the connection.
                    self.registry.counter("protocol_errors_total").inc()
                    await self._send(
                        conn, proto.OP_ERROR, getattr(exc, "request_id", 0),
                        proto.encode_error_body(proto.ERR_PROTOCOL, str(exc)),
                    )
                    break
                try:
                    body = await reader.readexactly(body_len)
                except (asyncio.IncompleteReadError, ConnectionError):
                    break
                if await self._dispatch(conn, opcode, request_id, body) is False:
                    # A stream-level protocol violation leaves the
                    # per-connection stream state untrustworthy: the
                    # typed error has been sent; drop the connection.
                    break
        finally:
            for job in tuple(conn.streams.values()):
                job.queue.put_nowait(("abort", b""))
            self._conns.discard(conn)
            self.registry.gauge("connections").dec()
            writer.close()
            with contextlib.suppress(Exception):
                await writer.wait_closed()

    @staticmethod
    def _as_protocol_error(exc: Exception, request_id: int):
        from repro.errors import ProtocolError

        wrapped = ProtocolError(str(exc))
        wrapped.request_id = request_id
        return wrapped

    async def _send(
        self, conn: _Connection, opcode: int, request_id: int, body: bytes = b""
    ) -> None:
        try:
            async with conn.write_lock:
                conn.writer.write(proto.encode_frame(opcode, request_id, body))
                await conn.writer.drain()
        except (ConnectionError, RuntimeError):
            pass  # client went away; the job result is simply discarded

    async def _dispatch(
        self, conn: _Connection, opcode: int, request_id: int, body: bytes
    ) -> bool | None:
        """Route one request frame.  Returns ``False`` when the
        connection must be closed (stream-level protocol violation)."""
        cfg = self.config
        opname = proto.REQUEST_OPCODES[opcode]
        self.registry.counter("bytes_in_total", opcode=opname).inc(len(body))
        if opcode == proto.OP_PING:
            reply = self._negotiate(conn, body)
            await self._send(conn, proto.OP_RESULT, request_id, reply)
            self._count(opname, "-", "ok")
            return None
        if opcode == proto.OP_STATS:
            payload = json.dumps(self._stats()).encode("utf-8")
            await self._send(conn, proto.OP_RESULT, request_id, payload)
            self.registry.counter("bytes_out_total", opcode=opname).inc(len(payload))
            self._count(opname, "-", "ok")
            return None
        if opcode in (proto.OP_STREAM_DATA, proto.OP_STREAM_END):
            return await self._dispatch_stream_frame(
                conn, opcode, request_id, body
            )
        # Admission-controlled work (unary codec jobs and STREAM-BEGIN).
        if self._draining:
            await self._send(
                conn, proto.OP_ERROR, request_id,
                proto.encode_error_body(
                    proto.ERR_SHUTTING_DOWN, "server is draining"
                ),
            )
            self._count(opname, "-", "shutdown")
            return None
        if opcode == proto.OP_STREAM_BEGIN:
            return await self._dispatch_stream_begin(conn, request_id, body)
        busy_hint = proto.encode_busy_body(cfg.busy_retry_ms or None)
        if self._queue_depth >= cfg.queue_high_water:
            self.registry.counter("busy_rejections_total", reason="queue").inc()
            await self._send(conn, proto.OP_BUSY, request_id, busy_hint)
            self._count(opname, "-", "busy")
            return None
        if conn.bytes_in_flight + len(body) > cfg.conn_bytes_in_flight:
            self.registry.counter("busy_rejections_total", reason="conn-bytes").inc()
            await self._send(conn, proto.OP_BUSY, request_id, busy_hint)
            self._count(opname, "-", "busy")
            return None
        if not await self._admit_quota(conn, opname, request_id, len(body)):
            return None
        self.registry.histogram(
            "pipeline_depth", buckets=DEPTH_BUCKETS
        ).observe(len(conn.tasks) + 1)
        self._queue_depth += 1
        conn.bytes_in_flight += len(body)
        self.registry.gauge("queue_depth").set(self._queue_depth)
        self.registry.gauge("bytes_in_flight").inc(len(body))
        task = asyncio.ensure_future(
            self._run_job(conn, opcode, request_id, body)
        )
        self._jobs.add(task)
        conn.tasks.add(task)
        task.add_done_callback(self._jobs.discard)
        task.add_done_callback(conn.tasks.discard)
        return None

    # -- feature negotiation and quotas --------------------------------

    def _negotiate(self, conn: _Connection, body: bytes) -> bytes:
        """PING body in, PING reply body out (see ``decode_ping_body``).

        An empty request body is a protocol-v1 peer and gets the v1
        empty reply, byte for byte.  A malformed body fails *open* to the
        same v1 semantics — negotiation is an optimisation, never a
        reason to reject an old client.
        """
        if not body:
            return b""
        try:
            doc = proto.decode_ping_body(body)
        except ProtocolError:
            self.registry.counter("ping_negotiation_failures_total").inc()
            return b""
        tenant = doc.get("tenant")
        if isinstance(tenant, str) and tenant:
            conn.tenant = tenant
        if not doc.get("features"):
            return b""
        return proto.encode_ping_body(
            proto.FEATURES, stream_window=self.config.stream_window
        )

    async def _admit_quota(
        self, conn: _Connection, opname: str, request_id: int, n_bytes: int
    ) -> bool:
        """Charge ``n_bytes`` against the connection's tenant bucket.

        On rejection the typed QUOTA error (with its refill hint) has
        already been sent when this returns ``False``.
        """
        cfg = self.config
        if cfg.quota_rate <= 0:
            return True
        bucket = self._buckets.get(conn.tenant)
        if bucket is None:
            burst = cfg.quota_burst or max(int(cfg.quota_rate), 1)
            bucket = self._buckets[conn.tenant] = _TokenBucket(
                cfg.quota_rate, burst
            )
        admitted, retry_ms = bucket.admit(n_bytes)
        if admitted:
            self.registry.counter(
                "quota_admitted_total", tenant=conn.tenant
            ).inc()
            self.registry.counter(
                "quota_admitted_bytes_total", tenant=conn.tenant
            ).inc(n_bytes)
            return True
        self.registry.counter(
            "quota_rejected_total", tenant=conn.tenant
        ).inc()
        await self._send(
            conn, proto.OP_ERROR, request_id,
            proto.encode_error_body(
                proto.ERR_QUOTA,
                f"tenant {conn.tenant!r} exceeded its "
                f"{cfg.quota_rate:g} byte/s quota; retry_after_ms={retry_ms}",
            ),
        )
        self._count(opname, "-", "quota")
        return False

    # -- streamed transfers --------------------------------------------

    def _stream_engine(self, begin: proto.StreamBegin):
        """Build the incremental engine for a STREAM-BEGIN (pool-thread
        safe, raises typed errors)."""
        if begin.mode == proto.STREAM_DECOMPRESS:
            return StreamingDecompressor(total_len=begin.total_len), "-"
        if begin.codec:
            codec = get_codec(begin.codec)
        elif begin.dtype_code in _DTYPE_BY_CODE:
            codec = codec_for(_DTYPE_BY_CODE[begin.dtype_code], "ratio")
        else:
            raise FormatError(
                "streamed compression of raw bytes needs an explicit codec "
                "(no dtype to infer one from)"
            )
        engine = StreamingCompressor(
            codec,
            total_len=begin.total_len,
            dtype_code=begin.dtype_code,
            shape=begin.shape,
        )
        return engine, engine.codec.name

    async def _dispatch_stream_begin(
        self, conn: _Connection, request_id: int, body: bytes
    ) -> bool | None:
        cfg = self.config
        # A fresh BEGIN supersedes any tombstone left by an earlier
        # aborted stream that reused this correlation id.
        conn.dead_streams.discard(request_id)
        try:
            state = conn.ledger.on_begin(request_id, body)
        except ProtocolError as exc:
            self.registry.counter("protocol_errors_total").inc()
            await self._send(
                conn, proto.OP_ERROR, request_id,
                proto.encode_error_body(proto.ERR_PROTOCOL, str(exc)),
            )
            self._count("stream-begin", "-", "protocol")
            return False
        begin = state.begin
        opname = (
            "stream-compress" if begin.mode == proto.STREAM_COMPRESS
            else "stream-decompress"
        )
        busy_hint = proto.encode_busy_body(cfg.busy_retry_ms or None)
        if self._queue_depth >= cfg.queue_high_water:
            conn.ledger.close(request_id)
            conn.dead_streams.add(request_id)
            self.registry.counter("busy_rejections_total", reason="queue").inc()
            await self._send(conn, proto.OP_BUSY, request_id, busy_hint)
            self._count(opname, "-", "busy")
            return None
        if not await self._admit_quota(
            conn, opname, request_id, begin.total_len
        ):
            conn.ledger.close(request_id)
            conn.dead_streams.add(request_id)
            return None
        try:
            engine, codec_label = self._stream_engine(begin)
        except ReproError as exc:
            conn.ledger.close(request_id)
            conn.dead_streams.add(request_id)
            await self._send(
                conn, proto.OP_ERROR, request_id,
                proto.encode_error_body(proto.error_code_for(exc), str(exc)),
            )
            self._count(opname, "-", "error")
            return None
        job = _StreamJob(engine, opname, codec_label)
        state.attachment = job
        conn.streams[request_id] = job
        self.registry.histogram(
            "pipeline_depth", buckets=DEPTH_BUCKETS
        ).observe(len(conn.tasks) + 1)
        self._queue_depth += 1
        self.registry.gauge("queue_depth").set(self._queue_depth)
        self.registry.gauge("streams_in_flight").inc()
        self.registry.counter("streams_total", opcode=opname).inc()
        task = asyncio.ensure_future(self._run_stream(conn, request_id, job))
        self._jobs.add(task)
        conn.tasks.add(task)
        task.add_done_callback(self._jobs.discard)
        task.add_done_callback(conn.tasks.discard)
        # The opening credit grant: the ledger has already reserved it,
        # so the client may send this many DATA bytes immediately.
        await self._send(
            conn, proto.OP_STREAM_ACK, request_id,
            proto.encode_stream_ack(state.credit),
        )
        return None

    async def _dispatch_stream_frame(
        self, conn: _Connection, opcode: int, request_id: int, body: bytes
    ) -> bool | None:
        """Route a STREAM-DATA / STREAM-END frame through the ledger."""
        if request_id in conn.dead_streams:
            # The stream was aborted server-side (or rejected at BEGIN)
            # after the client may already have frames in flight within
            # its granted credit: tolerate and drop them.  END retires
            # the tombstone.
            if opcode == proto.OP_STREAM_END:
                conn.dead_streams.discard(request_id)
            return None
        try:
            if opcode == proto.OP_STREAM_DATA:
                state = conn.ledger.on_data(request_id, len(body))
            else:
                state = conn.ledger.on_end(request_id)
        except ProtocolError as exc:
            self.registry.counter("protocol_errors_total").inc()
            await self._send(
                conn, proto.OP_ERROR, request_id,
                proto.encode_error_body(proto.ERR_PROTOCOL, str(exc)),
            )
            self._count(proto.REQUEST_OPCODES[opcode], "-", "protocol")
            return False
        job: _StreamJob = state.attachment
        if opcode == proto.OP_STREAM_DATA:
            job.bytes_in += len(body)
            self._track_stream_buffered(len(body))
            if state.credit == 0:
                self.registry.counter("window_stalls_total").inc()
            job.queue.put_nowait(("data", body))
        else:
            job.queue.put_nowait(("end", b""))
        return None

    def _track_stream_buffered(self, delta: int) -> None:
        self._stream_buffered += delta
        gauge = self.registry.gauge("stream_buffered_bytes")
        gauge.set(self._stream_buffered)
        watermark = self.registry.gauge("stream_buffered_watermark")
        if self._stream_buffered > watermark.value:
            watermark.set(self._stream_buffered)

    async def _run_stream(
        self, conn: _Connection, request_id: int, job: _StreamJob
    ) -> None:
        """The per-stream task: consume queued frames, run the
        incremental engine in the worker pool, emit RESULT/ACK/DONE."""
        cfg = self.config
        loop = asyncio.get_running_loop()
        outcome = "ok"
        try:
            while True:
                kind, payload = await job.queue.get()
                if kind == "abort":
                    outcome = "cancelled"
                    return
                if kind == "data":
                    results = await asyncio.wait_for(
                        loop.run_in_executor(
                            self._pool, job.engine.feed, payload
                        ),
                        cfg.request_timeout,
                    )
                    self._track_stream_buffered(-len(payload))
                    grant = conn.ledger.consume(request_id, len(payload))
                    await self._send_stream_results(conn, request_id, job, results)
                    if grant:
                        await self._send(
                            conn, proto.OP_STREAM_ACK, request_id,
                            proto.encode_stream_ack(grant),
                        )
                    continue
                # STREAM-END: flush / finish, then the trailer.
                engine = job.engine
                if isinstance(engine, StreamingCompressor):
                    results = await asyncio.wait_for(
                        loop.run_in_executor(self._pool, engine.flush),
                        cfg.request_timeout,
                    )
                    await self._send_stream_results(conn, request_id, job, results)
                    trailer = proto.encode_stream_trailer(
                        engine.dtype_code, engine.shape, engine.prefix()
                    )
                else:
                    dtype_code, shape = engine.finish()
                    trailer = proto.encode_stream_trailer(dtype_code, shape)
                await self._send(
                    conn, proto.OP_STREAM_DONE, request_id, trailer
                )
                self.registry.counter(
                    "bytes_out_total", opcode=job.opname
                ).inc(len(trailer))
                return
        except asyncio.TimeoutError:
            outcome = "deadline"
            await self._abort_stream(
                conn, request_id, proto.ERR_DEADLINE,
                f"stream chunk exceeded the {cfg.request_timeout:g}s deadline",
            )
        except ReproError as exc:
            outcome = "error"
            await self._abort_stream(
                conn, request_id, proto.error_code_for(exc), str(exc)
            )
        except asyncio.CancelledError:
            outcome = "cancelled"
            raise
        except Exception as exc:  # unexpected: typed INTERNAL, never a hang
            outcome = "internal"
            await self._abort_stream(
                conn, request_id, proto.ERR_INTERNAL, traceback_summary(exc)
            )
        finally:
            if request_id in conn.ledger:
                # Return any still-buffered bytes to the global gauge
                # before forgetting the stream.
                state = conn.ledger.get(request_id)
                self._track_stream_buffered(-state.buffered)
                conn.ledger.close(request_id)
            conn.streams.pop(request_id, None)
            self._queue_depth -= 1
            self.registry.gauge("queue_depth").set(self._queue_depth)
            self.registry.gauge("streams_in_flight").dec()
            self._count(job.opname, job.codec_label, outcome)
            self.registry.histogram(
                "request_seconds", buckets=LATENCY_BUCKETS, opcode=job.opname
            ).observe(time.perf_counter() - job.start)
            self.registry.histogram(
                "request_bytes", buckets=SIZE_BUCKETS, opcode=job.opname
            ).observe(job.bytes_in)

    async def _send_stream_results(
        self, conn: _Connection, request_id: int, job: _StreamJob, results
    ) -> None:
        for index, chunk in results:
            body = proto.encode_stream_result(index, chunk)
            await self._send(conn, proto.OP_STREAM_RESULT, request_id, body)
            self.registry.counter(
                "bytes_out_total", opcode=job.opname
            ).inc(len(body))

    async def _abort_stream(
        self, conn: _Connection, request_id: int, code: int, message: str
    ) -> None:
        """Fail a stream mid-flight: typed error out, tombstone so the
        client's already-in-flight frames are tolerated."""
        conn.dead_streams.add(request_id)
        await self._send(
            conn, proto.OP_ERROR, request_id,
            proto.encode_error_body(code, message),
        )

    # -- job execution ------------------------------------------------

    async def _run_job(
        self, conn: _Connection, opcode: int, request_id: int, body: bytes
    ) -> None:
        cfg = self.config
        opname = proto.REQUEST_OPCODES[opcode]
        work = {
            proto.OP_COMPRESS: self._work_compress,
            proto.OP_DECOMPRESS: self._work_decompress,
            proto.OP_INSPECT: self._work_inspect,
        }[opcode]
        start = time.perf_counter()
        outcome, codec_label = "ok", "-"
        loop = asyncio.get_running_loop()
        try:
            try:
                result_body, codec_label = await asyncio.wait_for(
                    loop.run_in_executor(self._pool, work, body),
                    cfg.request_timeout,
                )
            except asyncio.TimeoutError:
                outcome = "deadline"
                await self._send(
                    conn, proto.OP_ERROR, request_id,
                    proto.encode_error_body(
                        proto.ERR_DEADLINE,
                        f"request exceeded the {cfg.request_timeout:g}s deadline",
                    ),
                )
                return
            except ReproError as exc:
                outcome = "error"
                await self._send(
                    conn, proto.OP_ERROR, request_id,
                    proto.encode_error_body(proto.error_code_for(exc), str(exc)),
                )
                return
            except asyncio.CancelledError:
                outcome = "cancelled"
                raise
            except Exception as exc:  # unexpected: typed INTERNAL, never a hang
                outcome = "internal"
                await self._send(
                    conn, proto.OP_ERROR, request_id,
                    proto.encode_error_body(
                        proto.ERR_INTERNAL, traceback_summary(exc)
                    ),
                )
                return
            if len(result_body) > cfg.max_frame:
                outcome = "error"
                await self._send(
                    conn, proto.OP_ERROR, request_id,
                    proto.encode_error_body(
                        proto.ERR_BOUNDS,
                        f"result of {len(result_body)} bytes exceeds the "
                        f"{cfg.max_frame}-byte frame limit",
                    ),
                )
                return
            await self._send(conn, proto.OP_RESULT, request_id, result_body)
            self.registry.counter("bytes_out_total", opcode=opname).inc(
                len(result_body)
            )
        finally:
            self._queue_depth -= 1
            conn.bytes_in_flight -= len(body)
            self.registry.gauge("queue_depth").set(self._queue_depth)
            self.registry.gauge("bytes_in_flight").dec(len(body))
            self._count(opname, codec_label, outcome)
            self.registry.histogram(
                "request_seconds", buckets=LATENCY_BUCKETS, opcode=opname
            ).observe(time.perf_counter() - start)
            self.registry.histogram(
                "request_bytes", buckets=SIZE_BUCKETS, opcode=opname
            ).observe(len(body))

    def _count(self, opname: str, codec: str, outcome: str) -> None:
        self.registry.counter(
            "requests_total", opcode=opname, codec=codec, outcome=outcome
        ).inc()

    # Work functions run inside pool threads; anything they raise is
    # translated to a typed error frame by ``_run_job``.

    def _work_compress(self, body: bytes) -> tuple[bytes, str]:
        codec, dtype_code, shape, payload = proto.decode_compress_body(body)
        if dtype_code == fmt.DTYPE_BYTES:
            data: np.ndarray | bytes = payload
        else:
            array = np.frombuffer(payload, dtype=_DTYPE_BY_CODE[dtype_code])
            data = array.reshape(shape) if shape is not None else array
        # The request is labelled with the codec resolved here, the one the
        # container's header will name.
        chosen = resolve_codec(codec, _DTYPE_BY_CODE.get(dtype_code))
        blob = api_compress(data, chosen.name)
        if payload:
            self.registry.histogram(
                "compression_ratio", buckets=RATIO_BUCKETS
            ).observe(len(payload) / max(len(blob), 1))
        return blob, chosen.name

    def _work_decompress(self, body: bytes) -> tuple[bytes, str]:
        data, info = decompress_bytes(body)
        shape = tuple(info.shape) if info.shape is not None else None
        return (
            proto.encode_array_body(
                data, dtype_code=info.dtype_code, shape=shape
            ),
            codec_by_id(info.codec_id).name,
        )

    def _work_inspect(self, body: bytes) -> tuple[bytes, str]:
        info = fmt.inspect_container(body)
        codec_name = codec_by_id(info.codec_id).name
        payload = json.dumps({
            "version": info.version,
            "codec": codec_name,
            "dtype_code": info.dtype_code,
            "original_len": info.original_len,
            "compressed_len": info.total_len,
            "ratio": info.ratio,
            "chunk_size": info.chunk_size,
            "n_chunks": info.n_chunks,
            "raw_fallback": info.raw_fallback,
            "shape": list(info.shape) if info.shape is not None else None,
            "checksum": info.checksum is not None,
            "chunk_crcs": info.chunk_crcs is not None,
        }).encode("utf-8")
        return payload, codec_name

    def _stats(self) -> dict:
        cfg = self.config
        return {
            "server": {
                "uptime_seconds": time.monotonic() - self._started_at,
                "draining": self._draining,
                "queue_depth": self._queue_depth,
                "queue_high_water": cfg.queue_high_water,
                "max_frame": cfg.max_frame,
                "stream_window": cfg.stream_window,
                "open_streams": sum(len(c.streams) for c in self._conns),
                "quota_rate": cfg.quota_rate,
                "quota_burst": cfg.quota_burst,
                "features": list(proto.FEATURES),
                "request_timeout": cfg.request_timeout,
                "job_threads": cfg.job_threads,
                "kernel_backend": self._kernel_backend,
            },
            "metrics": self.registry.snapshot(),
        }


class ServerThread:
    """Run a :class:`CompressionServer` on a background thread.

    The harness used by the tests, the benchmark, and any caller that
    wants a live server without owning an event loop::

        with ServerThread(ServiceConfig(port=0)) as srv:
            with ServiceClient(port=srv.port) as client:
                blob = client.compress(array)
    """

    def __init__(self, config: ServiceConfig | None = None) -> None:
        self.config = config or ServiceConfig(port=0)
        self.server: CompressionServer | None = None
        self._loop: asyncio.AbstractEventLoop | None = None
        self._thread: threading.Thread | None = None
        self._started = threading.Event()
        self._stopped = threading.Event()
        self._error: BaseException | None = None

    @property
    def port(self) -> int:
        assert self.server is not None and self.server.port is not None
        return self.server.port

    def __enter__(self) -> ServerThread:
        self._thread = threading.Thread(
            target=self._main, name="repro-serve", daemon=True
        )
        self._thread.start()
        if not self._started.wait(timeout=30):
            raise ServiceError("server thread failed to start in time")
        if self._error is not None:
            raise ServiceError(f"server failed to start: {self._error}")
        return self

    def __exit__(self, *exc_info) -> None:
        self.stop()
        if self._thread is not None:
            self._thread.join(timeout=30)

    def _main(self) -> None:
        asyncio.run(self._amain())

    async def _amain(self) -> None:
        self._loop = asyncio.get_running_loop()
        self.server = CompressionServer(self.config)
        try:
            await self.server.start()
        except BaseException as exc:
            self._error = exc
            self._started.set()
            return
        self._started.set()
        await self.server.wait_stopped()

    def stop(self, drain: bool = True, timeout: float = 30.0) -> None:
        """Thread-safe graceful stop; returns at once after a completed
        stop.  The stop coroutine is created on the loop thread, so a loop
        that closes first leaves none unawaited (the wait ends with it)."""
        if self._loop is None or self.server is None or self._error is not None:
            return
        if self._stopped.is_set() or self._thread is None or not self._thread.is_alive():
            return
        done: Future = Future()

        def begin() -> None:  # runs on the loop; the task is kept and its result read
            self._stop_task = asyncio.ensure_future(self.server.stop(drain=drain))
            self._stop_task.add_done_callback(
                lambda t: done.set_result(t.cancelled() or t.exception())
            )

        try:
            self._loop.call_soon_threadsafe(begin)
        except RuntimeError:  # the loop has closed
            return
        deadline = time.monotonic() + timeout
        while self._thread.is_alive() and time.monotonic() < deadline:
            if wait([done], timeout=0.05).done:
                self._stopped.set()
                return


def wait_for_port(
    host: str, port: int, *, timeout: float = 10.0
) -> None:
    """Block until a TCP connect to ``host:port`` succeeds (smoke tests)."""
    deadline = time.monotonic() + timeout
    while True:
        try:
            with socket.create_connection((host, port), timeout=1.0):
                return
        except OSError:
            if time.monotonic() >= deadline:
                raise ServiceError(
                    f"server on {host}:{port} did not come up within {timeout}s"
                ) from None
            time.sleep(0.05)
