"""Command-line interface: compress, decompress, inspect, and benchmark.

Mirrors the original artifact's workflow scripts (compile/run_experiments/
chart) in one binary::

    fprz compress  input.f32 output.fprz --codec spratio --dtype float32
    fprz decompress output.fprz restored.f32
    fprz inspect   output.fprz
    fprz bench --figure fig08 --scale 0.25
    fprz table1

``compress`` treats the input file as a flat array of the given dtype
(SDRBench's own .f32/.d64 convention).
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

import numpy as np

import repro
from repro.errors import ReproError
from repro.service.protocol import DEFAULT_MAX_FRAME, DEFAULT_PORT
from repro.service.router import DEFAULT_ROUTER_PORT


def _pin_backend(args: argparse.Namespace):
    """Pin the kernel backend named by ``--backend`` for a command's run.

    A no-pin pass-through when the flag was not given, so a process-level
    pin (or the ``FPRZ_KERNEL_BACKEND`` environment variable) stays in
    charge.  Yields the active :class:`~repro.bitpack.backend.KernelBackend`
    either way.
    """
    import contextlib

    from repro.bitpack import backend as kernel_backend

    name = getattr(args, "backend", None)
    if name is not None:
        return kernel_backend.use_backend(name)

    @contextlib.contextmanager
    def _current():
        yield kernel_backend.active_backend()

    return _current()


def _cmd_compress(args: argparse.Namespace) -> int:
    data = Path(args.input).read_bytes()
    if args.dtype != "bytes":
        array = np.frombuffer(data, dtype=np.dtype(args.dtype))
        blob = repro.compress(array, args.codec, fcm=args.fcm)
    else:
        if args.codec is None:
            raise ReproError("--codec is required for raw byte input")
        blob = repro.compress(data, args.codec, fcm=args.fcm)
    Path(args.output).write_bytes(blob)
    ratio = len(data) / len(blob) if blob else 0.0
    print(f"{args.input}: {len(data)} -> {len(blob)} bytes (ratio {ratio:.3f})")
    return 0


def _parse_range(spec: str) -> tuple[int | None, int | None]:
    """Parse ``A:B`` (either end optional) into slice endpoints."""
    lo, sep, hi = spec.partition(":")
    if not sep:
        raise ReproError(f"--range {spec!r} must look like START:STOP")
    try:
        return (int(lo) if lo else None, int(hi) if hi else None)
    except ValueError as exc:
        raise ReproError(f"--range {spec!r} must use integer endpoints") from exc


def _cmd_decompress(args: argparse.Namespace) -> int:
    blob = Path(args.input).read_bytes()
    if args.range is not None:
        start, stop = _parse_range(args.range)
        if args.salvage:
            out, report = repro.decompress_range(blob, start, stop,
                                                 errors="salvage")
            data = out.tobytes() if isinstance(out, np.ndarray) else out
            Path(args.output).write_bytes(data)
            print(report.render())
            print(f"{args.input}: salvaged elements [{args.range}] "
                  f"({len(data)} bytes)")
            return 0 if report.ok else 1
        out = repro.decompress_range(blob, start, stop)
        data = out.tobytes() if isinstance(out, np.ndarray) else out
        Path(args.output).write_bytes(data)
        print(f"{args.input}: restored elements [{args.range}] "
              f"({len(data)} bytes)")
        return 0
    if args.salvage:
        out, report = repro.decompress(blob, errors="salvage")
        data = out.tobytes() if isinstance(out, np.ndarray) else out
        Path(args.output).write_bytes(data)
        print(report.render())
        print(f"{args.input}: salvaged {len(data)} bytes")
        return 0 if report.ok else 1
    out = repro.decompress(blob)
    data = out.tobytes() if isinstance(out, np.ndarray) else out
    Path(args.output).write_bytes(data)
    print(f"{args.input}: restored {len(data)} bytes")
    return 0


def _cmd_inspect(args: argparse.Namespace) -> int:
    info = repro.inspect(Path(args.input).read_bytes())
    from repro.core import codec_by_id
    from repro.core.container import payload_offsets

    print(f"version:      {info.version}")
    print(f"codec:        {codec_by_id(info.codec_id).name}")
    print(f"dtype code:   {info.dtype_code}")
    print(f"original:     {info.original_len} bytes")
    print(f"compressed:   {info.total_len} bytes")
    print(f"ratio:        {info.ratio:.4f}")
    print(f"chunks:       {info.n_chunks} x {info.chunk_size} bytes")
    print(f"raw fallback: {info.raw_fallback}")
    print(f"checksum:     "
          f"{'crc32' if info.checksum is not None else 'none'}")
    print(f"chunk crcs:   "
          f"{'yes' if info.chunk_crcs is not None else 'no'}")
    print(f"chunk index:  "
          f"{'explicit (v3)' if info.index_offsets is not None else 'derived'}")
    print(f"fcm restarts: {'yes' if info.fcm_restart else 'no'}")
    if info.chunk_codecs is not None:
        members = sorted({codec_by_id(cid).name for cid in info.chunk_codecs})
        print(f"chunk codecs: per-chunk table (v4): {', '.join(members)}")
    if info.shape is not None:
        print(f"shape:        {tuple(info.shape)}")
    if args.chunks:
        # Everything below comes from the header tables alone — no
        # payload is ever decoded (that is the point of the v3 index).
        offsets = payload_offsets(info)
        decoded = info.decoded_lengths()
        print()
        codec_col = info.chunk_codecs is not None
        header = (f"{'chunk':>5} {'offset':>10} {'payload B':>10} "
                  f"{'decoded B':>10} {'crc32':>10}"
                  + (f" {'codec':>8}" if codec_col else ""))
        print(header)
        print("-" * len(header))
        for i in range(info.n_chunks):
            crc = (f"{info.chunk_crcs[i]:08x}" if info.chunk_crcs is not None
                   else "-")
            row = (f"{i:>5} {offsets[i]:>10} {info.chunk_sizes[i]:>10} "
                   f"{decoded[i]:>10} {crc:>10}")
            if codec_col:
                row += f" {codec_by_id(info.chunk_codecs[i]).name:>8}"
            print(row)
    return 0


def _cmd_concat(args: argparse.Namespace) -> int:
    blobs = [Path(path).read_bytes() for path in args.inputs]
    merged = repro.concat(blobs)
    Path(args.output).write_bytes(merged)
    info = repro.inspect(merged)
    total_in = sum(len(blob) for blob in blobs)
    print(f"{args.output}: {len(args.inputs)} containers -> "
          f"{info.n_chunks} chunks, {total_in} -> {len(merged)} bytes "
          f"(v{info.version}, no payload re-encoded)")
    return 0


def _bench_sample(codec_name: str, scale: float) -> bytes:
    """A deterministic corpus sample matching the codec's dtype."""
    from repro.datasets import dp_suite, sp_suite

    suite = dp_suite() if codec_name.startswith("dp") else sp_suite()
    return suite[0].files[0].load(scale).tobytes()


def _resolve_workers(args: argparse.Namespace) -> int:
    """The ``--workers`` value, defaulting to ``min(cpu_count, 8)``."""
    if args.workers is None:
        return min(os.cpu_count() or 1, 8)
    if args.workers < 1:
        raise ReproError("--workers must be at least 1")
    return args.workers


def _cmd_bench_measured(args: argparse.Namespace) -> int:
    """The measured path: real engine runs, per-executor and per-chunk."""
    from repro.core.executors import SCHEDULING_POLICIES, get_executor
    from repro.harness import format_measured, measure_executors

    workers = _resolve_workers(args)
    codec = args.codec or "spratio"
    policies = SCHEDULING_POLICIES
    if args.policy:
        try:
            policies = (get_executor(args.policy).policy,)
        except ValueError as exc:
            raise ReproError(str(exc)) from exc
    data = _bench_sample(codec, args.scale)
    with _pin_backend(args) as active:
        print(f"measured engine runs: codec {codec}, {len(data)} input bytes, "
              f"{workers} worker(s), kernel backend {active.describe()}")
        print()
        print(format_measured(measure_executors(
            data, codec, policies=policies, workers=workers,
        )))
        if not args.trace:
            return 0
        return _bench_trace(data, codec, workers, policies)


def _bench_trace(data, codec, workers, policies) -> int:
    """Print per-chunk stage traces (runs under the caller's backend pin)."""
    from repro.core.trace import TraceCollector
    from repro.metrics import summarize_trace

    collector = TraceCollector()
    repro.compress(data, codec, workers=workers,
                   executor=policies[0], trace=collector)
    print()
    print(summarize_trace(collector).render())
    print()
    header = (f"{'chunk':>5} {'worker':>6} {'in B':>8} {'out B':>8} "
              f"{'raw':>3} {'ms':>8}  stages (ms, out B)")
    print(header)
    print("-" * len(header))
    for chunk in collector.chunks:
        stages = "  ".join(
            f"{e.stage}={e.seconds * 1e3:.3f}ms/{e.out_bytes}B"
            for e in chunk.stages
        )
        print(f"{chunk.index:>5} {chunk.worker:>6} "
              f"{chunk.original_len:>8} {chunk.payload_len:>8} "
              f"{'y' if chunk.raw_fallback else '-':>3} "
              f"{chunk.seconds * 1e3:>8.3f}  {stages}")
    return 0


def _cmd_bench(args: argparse.Namespace) -> int:
    from repro.harness import FIGURES, format_figure, run_figure

    if args.trace or args.policy or args.codec:
        return _cmd_bench_measured(args)
    figure_ids = [args.figure] if args.figure else sorted(FIGURES)
    for figure_id in figure_ids:
        if figure_id not in FIGURES:
            raise ReproError(
                f"unknown figure {figure_id!r}; choose from {', '.join(sorted(FIGURES))}"
            )
        print(format_figure(run_figure(figure_id, scale=args.scale)))
        print()
    return 0


def _cmd_explain(args: argparse.Namespace) -> int:
    from repro.analysis import explain

    data = Path(args.input).read_bytes()
    array = np.frombuffer(data, dtype=np.dtype(args.dtype))
    print(explain(array, args.codec).render())
    return 0


def _cmd_recommend(args: argparse.Namespace) -> int:
    from repro.analysis import recommend

    data = Path(args.input).read_bytes()
    array = np.frombuffer(data, dtype=np.dtype(args.dtype))
    codec, reason = recommend(array)
    print(f"recommended codec: {codec}")
    print(f"why: {reason}")
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    from repro.verify import verify_corpus

    report = verify_corpus(
        scale=args.scale, include_baselines=args.baselines,
        fuzz_iterations=args.fuzz or 0, fuzz_seed=args.seed,
    )
    print(report.render())
    return 0 if report.ok else 1


def _cmd_fuzz(args: argparse.Namespace) -> int:
    if args.frames:
        from repro.fuzzing import run_frame_fuzz

        report = run_frame_fuzz(seed=args.seed, iterations=args.iterations)
    else:
        from repro.fuzzing import run_fuzz

        codecs = args.codec or None
        report = run_fuzz(seed=args.seed, iterations=args.iterations,
                          codecs=codecs, batched=args.batched)
    print(report.render())
    return 0 if report.ok else 1


def _cmd_serve(args: argparse.Namespace) -> int:
    import asyncio

    from repro.service.server import CompressionServer, ServiceConfig

    config = ServiceConfig(
        host=args.host, port=args.port, max_frame=args.max_frame,
        queue_high_water=args.queue_high_water,
        request_timeout=args.deadline, drain_timeout=args.drain_timeout,
        job_threads=args.job_threads, kernel_backend=args.backend,
        stream_window=args.stream_window,
        quota_rate=args.quota_rate, quota_burst=args.quota_burst,
    )
    server = CompressionServer(config)

    def announce() -> None:
        print(f"fprz service listening on {config.host}:{server.port} "
              f"(queue high-water {config.queue_high_water}, "
              f"deadline {config.request_timeout:g}s, "
              f"{config.job_threads} job threads, "
              f"kernel backend {server._kernel_backend})",
              flush=True)

    # ``run`` installs SIGTERM/SIGINT handlers for graceful drain.
    asyncio.run(server.run(install_signals=True, on_started=announce))
    print("fprz service drained and stopped")
    return 0


def _cmd_stats(args: argparse.Namespace) -> int:
    import json

    from repro.service.client import ServiceClient
    from repro.service.metrics import render_snapshot

    with ServiceClient(host=args.host, port=args.port) as client:
        stats = client.stats()
    if args.json:
        print(json.dumps(stats, indent=2, sort_keys=True))
        return 0
    if "router" in stats:
        router = stats["router"]
        print(f"uptime:       {router.get('uptime_seconds', 0.0):.1f} s")
        print(f"draining:     {router.get('draining')}")
        print(f"in flight:    {router.get('inflight')} "
              f"(high-water {router.get('inflight_high_water')})")
        print("backends:")
        for b in router.get("backends", ()):
            print(f"  {b['address']:<22} breaker={b['breaker']:<9} "
                  f"failures={b['consecutive_failures']} "
                  f"inflight={b['inflight']} pooled={b['pooled_connections']}")
    else:
        server = stats.get("server", {})
        print(f"uptime:       {server.get('uptime_seconds', 0.0):.1f} s")
        print(f"draining:     {server.get('draining')}")
        print(f"queue depth:  {server.get('queue_depth')} "
              f"(high-water {server.get('queue_high_water')})")
        print(f"kernels:      {server.get('kernel_backend') or 'unknown'}")
    print()
    print(render_snapshot(stats.get("metrics", {})))
    return 0


def _open_remote_client(args: argparse.Namespace):
    """A plain or resilient client, depending on ``--addr``/``--retries``."""
    if args.addr or args.retries:
        from repro.service.resilience import ResilientClient, RetryPolicy

        addresses = args.addr or [f"{args.host}:{args.port}"]
        return ResilientClient(
            addresses, policy=RetryPolicy(attempts=args.retries or 5)
        )
    from repro.service.client import ServiceClient

    return ServiceClient(host=args.host, port=args.port)


def _remote_pipelined(client, action: str, parts: list, codec):
    """Run ``parts`` through the service with all of them in flight.

    Uses the resilient batch maps when the client has them, else the
    plain client's submit/collect pipelining.
    """
    depth = len(parts)
    if action == "compress":
        if hasattr(client, "compress_many"):
            return client.compress_many(parts, codec, depth=depth)
        rids = [client.submit_compress(p, codec) for p in parts]
        return [client.collect(rid) for rid in rids]
    if hasattr(client, "decompress_many"):
        return client.decompress_many(parts, depth=depth)
    rids = [client.submit_decompress(p) for p in parts]
    return [client.collect_decompress(rid) for rid in rids]


def _cmd_remote(args: argparse.Namespace) -> int:
    data = Path(args.input).read_bytes()
    via = ",".join(args.addr) if args.addr else f"{args.host}:{args.port}"
    depth = args.pipeline_depth
    if depth > 1 and args.streamed:
        raise ReproError("--pipeline-depth and --streamed are exclusive: "
                         "a streamed transfer is already windowed")
    with _open_remote_client(args) as client:
        if args.action == "compress":
            if args.dtype != "bytes":
                payload = np.frombuffer(data, dtype=np.dtype(args.dtype))
            else:
                if args.codec is None:
                    raise ReproError("--codec is required for raw byte input")
                payload = data
            if depth > 1:
                # Pipelined burst: the payload splits into `depth`
                # independent containers, all in flight on one
                # connection, packed as an FPRA archive.
                from repro.archive import _pack_archive

                if isinstance(payload, np.ndarray):
                    parts = [p for p in np.array_split(payload, depth) if p.size]
                else:
                    step = max(1, (len(payload) + depth - 1) // depth)
                    parts = [payload[i:i + step]
                             for i in range(0, len(payload), step)]
                blobs = _remote_pipelined(client, "compress", parts, args.codec)
                blob = _pack_archive(
                    [(f"part{i:04d}", b) for i, b in enumerate(blobs)]
                )
            elif args.streamed:
                blob = client.compress_streamed(payload, args.codec)
            else:
                blob = client.compress(payload, args.codec)
            Path(args.output).write_bytes(blob)
            ratio = len(data) / len(blob) if blob else 0.0
            mode = (f"pipelined x{depth}" if depth > 1
                    else "streamed" if args.streamed else "unary")
            print(f"{args.input}: {len(data)} -> {len(blob)} bytes "
                  f"(ratio {ratio:.3f}, {mode}, via {via})")
            return 0
        if args.action == "decompress":
            if depth > 1 or data[:4] == b"FPRA":
                from repro.archive import Archive

                archive = Archive.from_bytes(data)
                parts = [archive._member_blob(name)
                         for name in archive.members()]
                outs = _remote_pipelined(client, "decompress", parts, None)
                raw = b"".join(
                    o.tobytes() if isinstance(o, np.ndarray) else o
                    for o in outs
                )
            elif args.streamed:
                out = client.decompress_streamed(data)
                raw = out.tobytes() if isinstance(out, np.ndarray) else out
            else:
                out = client.decompress(data)
                raw = out.tobytes() if isinstance(out, np.ndarray) else out
            Path(args.output).write_bytes(raw)
            print(f"{args.input}: restored {len(raw)} bytes "
                  f"(via {via})")
            return 0
    raise ReproError(f"unknown remote action {args.action!r}")


def _cmd_route(args: argparse.Namespace) -> int:
    import asyncio
    import contextlib

    from repro.service.router import RouterConfig, ShardRouter
    from repro.service.server import ServerThread, ServiceConfig

    with contextlib.ExitStack() as stack:
        backends = list(args.backend or [])
        if args.spawn:
            # In-process worker fleet: N servers on ephemeral ports, all
            # torn down with the router.  For remote fleets, list each
            # worker with --backend instead.
            for _ in range(args.spawn):
                server = stack.enter_context(ServerThread(ServiceConfig(
                    port=0, job_threads=args.job_threads,
                )))
                backends.append(("127.0.0.1", server.port))
        if not backends:
            raise ReproError("need --backend HOST:PORT (repeatable) "
                             "or --spawn N")
        config = RouterConfig(
            host=args.host, port=args.port, backends=tuple(backends),
            max_frame=args.max_frame,
            health_interval=args.health_interval,
            backend_timeout=args.backend_timeout,
            failure_threshold=args.failure_threshold,
            open_seconds=args.open_seconds,
            dispatch_attempts=args.dispatch_attempts,
            inflight_high_water=args.inflight_high_water,
        )
        router = ShardRouter(config)

        def announce() -> None:
            labels = ", ".join(f"{h}:{p}" for h, p in map(_as_addr, backends))
            print(f"fprz router listening on {config.host}:{router.port} "
                  f"over {len(backends)} backend(s): {labels}",
                  flush=True)

        asyncio.run(router.run(install_signals=True, on_started=announce))
        print("fprz router drained and stopped")
    return 0


def _as_addr(spec) -> tuple[str, int]:
    from repro.service.resilience import parse_address

    return parse_address(spec)


def _cmd_chaos(args: argparse.Namespace) -> int:
    import asyncio

    from repro.service.faults import (
        ChaosConfig,
        ChaosProxy,
        schedule_preview,
        stream_schedule_preview,
    )

    config = ChaosConfig(
        upstream=args.upstream, host=args.host, port=args.port,
        seed=args.seed,
        reset_rate=args.reset_rate, truncate_rate=args.truncate_rate,
        corrupt_rate=args.corrupt_rate, delay_rate=args.delay_rate,
        blackhole_rate=args.blackhole_rate,
        delay_ms=(args.delay_min_ms, args.delay_max_ms),
        kill_after_frames=args.kill_after,
        direction=args.direction,
    )
    if args.describe:
        # The schedule is a pure function of (seed, index): print what
        # the proxy WILL do, without moving a byte.
        if args.streams:
            print(f"{'event':>6}  {'stream':>6}  {'frame':<14} "
                  f"{'direction':<9} action")
            for index, stream, kind, direction, action in (
                stream_schedule_preview(
                    config, streams=args.streams,
                    data_frames=args.stream_frames,
                )[: args.describe]
            ):
                print(f"{index:>6}  {stream:>6}  {kind:<14} "
                      f"{direction:<9} {action}")
        else:
            for index, action in schedule_preview(config, args.describe):
                print(f"{index:>6}  {action}")
        return 0
    proxy = ChaosProxy(config)

    def announce() -> None:
        up = _as_addr(args.upstream)
        print(f"fprz chaos proxy on {config.host}:{proxy.port} -> "
              f"{up[0]}:{up[1]} (seed {config.seed}, rates: "
              f"reset {config.reset_rate:g} truncate {config.truncate_rate:g} "
              f"corrupt {config.corrupt_rate:g} delay {config.delay_rate:g} "
              f"blackhole {config.blackhole_rate:g})",
              flush=True)

    asyncio.run(proxy.run(install_signals=True, on_started=announce))
    print("fprz chaos proxy stopped")
    return 0


def _cmd_archive(args: argparse.Namespace) -> int:
    from repro.archive import Archive, write_archive

    if args.action == "create":
        members = {}
        for spec in args.members:
            name, _, path = spec.partition("=")
            if not path:
                raise ReproError(f"member spec {spec!r} must be NAME=FILE")
            array = np.frombuffer(Path(path).read_bytes(), dtype=np.dtype(args.dtype))
            members[name] = array
        Path(args.archive).write_bytes(write_archive(members, codec=args.codec))
        print(f"wrote {args.archive} with {len(members)} members")
        return 0
    archive = Archive.from_bytes(Path(args.archive).read_bytes())
    if args.action == "list":
        for name in archive.members():
            info = archive.info(name)
            print(f"{name:<30} {info.original_len:>10} B  ratio {info.ratio:6.3f}")
        print(f"total ratio {archive.total_ratio():.3f}")
        return 0
    if args.action == "extract":
        for spec in args.members:
            name, _, path = spec.partition("=")
            out = archive.read(name)
            data = out.tobytes() if isinstance(out, np.ndarray) else out
            Path(path or name.replace("/", "_")).write_bytes(data)
            print(f"extracted {name} ({len(data)} B)")
        return 0
    raise ReproError(f"unknown archive action {args.action!r}")


def _cmd_table1(args: argparse.Namespace) -> int:
    from repro.baselines import baseline_registry

    print(f"{'Device':<8} {'Compressor':<12} {'Datatype':<12} {'Version':<8} Source")
    print("-" * 56)
    for spec in sorted(baseline_registry(), key=lambda s: (s.device, s.name)):
        print(f"{spec.device:<8} {spec.name:<12} {spec.datatype:<12} "
              f"{spec.version:<8} {spec.source}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fprz",
        description="Lossless scientific floating-point compression "
        "(SPspeed/SPratio/DPspeed/DPratio, ASPLOS'25 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("compress", help="compress a flat float file")
    p.add_argument("input")
    p.add_argument("output")
    p.add_argument("--codec", default=None,
                   help="spspeed | spratio | dpspeed | dpratio "
                        "(default: by dtype)")
    p.add_argument("--dtype", default="float32",
                   choices=["float32", "float64", "bytes"])
    p.add_argument("--fcm", default="global", choices=["global", "restart"],
                   help="FCM predictor mode (DPratio): global is the "
                        "best-ratio cross-chunk pass (v1/v2, default); "
                        "restart re-seeds per chunk (v3, seekable, "
                        "range-decodable, parallel)")
    p.set_defaults(func=_cmd_compress)

    p = sub.add_parser("decompress", help="decompress an FPRZ container")
    p.add_argument("input")
    p.add_argument("output")
    p.add_argument("--salvage", action="store_true",
                   help="best-effort decode of a damaged container: recover "
                        "every verifiable chunk, zero-fill the rest, and "
                        "print the damage report (exit 1 if any byte was lost)")
    p.add_argument("--range", default=None, metavar="START:STOP",
                   help="decode only this element range (Python slice "
                        "semantics; only the overlapping chunks are read)")
    p.set_defaults(func=_cmd_decompress)

    p = sub.add_parser("inspect", help="print container metadata")
    p.add_argument("input")
    p.add_argument("--chunks", action="store_true",
                   help="also print the per-chunk offset/length/CRC table "
                        "(from the v3 chunk index when present; never "
                        "decodes a payload)")
    p.set_defaults(func=_cmd_inspect)

    p = sub.add_parser(
        "concat",
        help="concatenate compressed containers without re-encoding "
             "(same codec and dtype; output is a seekable v3 container)",
    )
    p.add_argument("output")
    p.add_argument("inputs", nargs="+")
    p.set_defaults(func=_cmd_concat)

    p = sub.add_parser(
        "bench",
        help="regenerate paper figures, or measure the real engine "
             "(--codec/--executor/--trace)",
    )
    p.add_argument("--figure", default=None, help="fig08 ... fig19 (default: all)")
    p.add_argument("--scale", type=float, default=0.25,
                   help="corpus scale factor (1.0 = 256 KiB files)")
    p.add_argument("--codec", default=None,
                   help="measure the real engine on this codec instead of "
                        "replaying a figure")
    p.add_argument("--policy", "--executor", dest="policy", default=None,
                   help="executor policy for measured runs: serial | "
                        "threaded (default: both)")
    p.add_argument("--workers", type=int, default=None,
                   help="workers for measured parallel policies "
                        "(default: CPU count, capped at 8)")
    p.add_argument("--trace", action="store_true",
                   help="print per-chunk stage timings and sizes from a "
                        "traced engine run")
    p.add_argument("--backend", default=None,
                   help="kernel backend for measured runs: "
                        "numpy | numba (default: auto — numba "
                        "when importable, else numpy)")
    p.set_defaults(func=_cmd_bench)

    p = sub.add_parser("table1", help="print the Table 1 compressor inventory")
    p.set_defaults(func=_cmd_table1)

    p = sub.add_parser("explain", help="per-stage size waterfall for a codec")
    p.add_argument("input")
    p.add_argument("--codec", required=True)
    p.add_argument("--dtype", default="float32", choices=["float32", "float64"])
    p.set_defaults(func=_cmd_explain)

    p = sub.add_parser("recommend", help="suggest a codec from the data's statistics")
    p.add_argument("input")
    p.add_argument("--dtype", default="float32", choices=["float32", "float64"])
    p.set_defaults(func=_cmd_recommend)

    p = sub.add_parser("verify", help="round-trip every codec over the corpus")
    p.add_argument("--scale", type=float, default=0.1)
    p.add_argument("--baselines", action="store_true",
                   help="also verify the 18 Table 1 baselines")
    p.add_argument("--fuzz", type=int, nargs="?", const=200, default=0,
                   metavar="N",
                   help="also run N seeded fault-injection iterations "
                        "(default 200 when the flag is given bare)")
    p.add_argument("--seed", type=int, default=0,
                   help="seed for the --fuzz iterations")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser(
        "fuzz",
        help="fault-injection harness: mutate valid containers and assert "
             "decode only ever fails with typed errors",
    )
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--iterations", type=int, default=500)
    p.add_argument("--codec", action="append", default=None,
                   help="restrict the corpus to this codec (repeatable; "
                        "default: all four)")
    p.add_argument("--frames", action="store_true",
                   help="fuzz the FPRW wire-frame parser instead of the "
                        "container decoder")
    p.add_argument("--batched", action=argparse.BooleanOptionalAction,
                   default=True,
                   help="route container mutants through the batched "
                        "decode path (default on; --no-batched pins the "
                        "per-chunk path)")
    p.set_defaults(func=_cmd_fuzz)

    p = sub.add_parser(
        "serve",
        help="run the framed compression service (SIGTERM drains gracefully)",
    )
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=DEFAULT_PORT,
                   help=f"TCP port (default {DEFAULT_PORT}; 0 = ephemeral)")
    p.add_argument("--queue-high-water", type=int, default=32,
                   help="admitted-jobs bound; beyond it requests get BUSY")
    p.add_argument("--deadline", type=float, default=30.0,
                   help="per-request deadline in seconds")
    p.add_argument("--max-frame", type=int, default=DEFAULT_MAX_FRAME,
                   help="frame body limit in bytes (both directions)")
    p.add_argument("--job-threads", type=int, default=4,
                   help="concurrent codec jobs (each runs its chunks "
                        "serially)")
    p.add_argument("--drain-timeout", type=float, default=10.0,
                   help="seconds to wait for in-flight jobs on shutdown")
    p.add_argument("--backend", default=None,
                   help="kernel backend the service pins at startup: "
                        "numpy | numba (default: auto)")
    p.add_argument("--stream-window", type=int, default=4 * 1024 * 1024,
                   help="per-stream flow-control window in bytes: the "
                        "server never buffers more than this per "
                        "streamed transfer (default 4 MiB)")
    p.add_argument("--quota-rate", type=float, default=0.0,
                   help="per-tenant admission quota in bytes/second "
                        "(token bucket; 0 = unlimited)")
    p.add_argument("--quota-burst", type=int, default=0,
                   help="per-tenant burst allowance in bytes "
                        "(default: one second of --quota-rate)")
    p.set_defaults(func=_cmd_serve)

    p = sub.add_parser("stats", help="print a running server's live metrics")
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=DEFAULT_PORT)
    p.add_argument("--json", action="store_true",
                   help="raw JSON snapshot instead of the rendered table")
    p.set_defaults(func=_cmd_stats)

    p = sub.add_parser(
        "remote",
        help="compress/decompress through a running fprz service",
    )
    p.add_argument("action", choices=["compress", "decompress"])
    p.add_argument("input")
    p.add_argument("output")
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=DEFAULT_PORT)
    p.add_argument("--codec", default=None,
                   help="spspeed | spratio | dpspeed | dpratio "
                        "(compress only; default: by dtype)")
    p.add_argument("--dtype", default="float32",
                   choices=["float32", "float64", "bytes"])
    p.add_argument("--addr", action="append", default=None,
                   metavar="HOST:PORT",
                   help="resilient mode: retry with backoff and fail over "
                        "across these addresses (repeatable; overrides "
                        "--host/--port)")
    p.add_argument("--retries", type=int, default=0,
                   help="resilient mode against --host/--port: total "
                        "attempts per request (default: plain client, "
                        "no retries)")
    p.add_argument("--pipeline-depth", type=int, default=1, metavar="N",
                   help="split the payload into N independent requests "
                        "kept in flight on one connection (output is an "
                        "FPRA archive; decompress detects it)")
    p.add_argument("--streamed", action="store_true",
                   help="chunk-streamed transfer: server memory stays "
                        "bounded by its --stream-window, not payload size")
    p.set_defaults(func=_cmd_remote)

    p = sub.add_parser(
        "route",
        help="run the shard router: consistent hashing over N backends, "
             "health-checked failover, circuit breakers, load shedding",
    )
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=DEFAULT_ROUTER_PORT,
                   help=f"TCP port (default {DEFAULT_ROUTER_PORT}; "
                        f"0 = ephemeral)")
    p.add_argument("--backend", action="append", default=None,
                   metavar="HOST:PORT",
                   help="a backend fprz server (repeatable)")
    p.add_argument("--spawn", type=int, default=0, metavar="N",
                   help="also spawn N in-process backend servers on "
                        "ephemeral ports")
    p.add_argument("--job-threads", type=int, default=4,
                   help="job threads per --spawn backend")
    p.add_argument("--max-frame", type=int, default=DEFAULT_MAX_FRAME)
    p.add_argument("--health-interval", type=float, default=0.5,
                   help="seconds between backend PING health checks")
    p.add_argument("--backend-timeout", type=float, default=30.0,
                   help="deadline for one forwarded backend exchange")
    p.add_argument("--failure-threshold", type=int, default=3,
                   help="consecutive failures that open a breaker")
    p.add_argument("--open-seconds", type=float, default=1.0,
                   help="open-breaker wait before a half-open probe")
    p.add_argument("--dispatch-attempts", type=int, default=3,
                   help="distinct backends tried per request")
    p.add_argument("--inflight-high-water", type=int, default=128,
                   help="global in-flight bound; past it requests are "
                        "shed with BUSY + retry_after_ms")
    p.set_defaults(func=_cmd_route)

    p = sub.add_parser(
        "chaos",
        help="seeded fault-injection TCP proxy for the FPRW protocol "
             "(resets, truncation, header corruption, latency, black-holes)",
    )
    p.add_argument("--upstream", required=True, metavar="HOST:PORT",
                   help="the real server (or router) to forward to")
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=0,
                   help="listen port (default: ephemeral, printed on start)")
    p.add_argument("--seed", type=int, default=0,
                   help="fault schedule seed (default_rng([seed, frame]))")
    p.add_argument("--reset-rate", type=float, default=0.0)
    p.add_argument("--truncate-rate", type=float, default=0.0)
    p.add_argument("--corrupt-rate", type=float, default=0.0)
    p.add_argument("--delay-rate", type=float, default=0.0)
    p.add_argument("--blackhole-rate", type=float, default=0.0)
    p.add_argument("--delay-min-ms", type=float, default=5.0)
    p.add_argument("--delay-max-ms", type=float, default=50.0)
    p.add_argument("--kill-after", type=int, default=None, metavar="N",
                   help="abort every connection after N observed frames "
                        "(simulates a backend dying mid-run)")
    p.add_argument("--direction", default="both",
                   choices=["request", "response", "both"],
                   help="which flow direction faults apply to")
    p.add_argument("--describe", type=int, default=0, metavar="N",
                   help="print the first N seeded fault decisions and "
                        "exit (no traffic)")
    p.add_argument("--streams", type=int, default=0, metavar="S",
                   help="with --describe: annotate the schedule for S "
                        "serial streamed transfers (per-stream frame "
                        "kinds and directions)")
    p.add_argument("--stream-frames", type=int, default=8, metavar="K",
                   help="DATA frames per stream in the --streams "
                        "describe ladder (default 8)")
    p.set_defaults(func=_cmd_chaos)

    p = sub.add_parser("archive", help="create / list / extract member archives")
    p.add_argument("action", choices=["create", "list", "extract"])
    p.add_argument("archive")
    p.add_argument("members", nargs="*",
                   help="NAME=FILE pairs (create/extract)")
    p.add_argument("--codec", default=None)
    p.add_argument("--dtype", default="float32", choices=["float32", "float64"])
    p.set_defaults(func=_cmd_archive)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except BrokenPipeError:
        # Output piped into a consumer that closed early (e.g. `| head`):
        # the POSIX-polite exit, not a crash.
        try:
            sys.stdout.close()
        except OSError:
            pass
        return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
