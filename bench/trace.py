"""Per-layer tracing for the benchmark's traced runs.

Nothing under ``src/`` carries a hook.  A traced run patches the public
functions listed in :data:`WRAP_POINTS` for its duration, records one
span per call (name, start, end, parent span, request id), and restores
every original on exit.  Spans stay in memory and are written out once,
when the run ends.

Three layers need more than a span around a call:

* ``bitpack`` — a timing :class:`~repro.bitpack.backend.KernelBackend`
  that wraps the active backend's kernels is registered and pinned with
  ``use_backend`` for the traced phase;
* ``core.executors`` — the executor the engine resolves for each call is
  wrapped, so traced and untraced runs make identical calls;
* ``core.compressor`` — each engine call gets a ``TraceCollector`` (the
  engine's own per-chunk and per-stage record), which also feeds the
  ``stages`` metrics.

A refactor may move or rename any of these targets.  A target that no
longer resolves is reported once as a notice and its layer as
``absent``; the benchmark itself keeps running.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import json
import sys
import threading
import time
from collections import defaultdict
from contextlib import ExitStack, contextmanager
from dataclasses import dataclass
from typing import NamedTuple


@dataclass(frozen=True)
class WrapPoint:
    """One traced target: a dotted name, its layer, and its span name.

    ``span`` is ``None`` for targets a dedicated hook uses rather than
    wraps (the kernel registry, the executor base class, the collector).
    """

    target: str
    layer: str
    span: str | None


#: Every target the traced run depends on.  Functions imported by name
#: into another module are wrapped where the caller looks them up.
WRAP_POINTS = (
    WrapPoint("repro.compress", "api", "api.compress"),
    WrapPoint("repro.decompress", "api", "api.decompress"),
    WrapPoint("repro.decompress_range", "api", "api.decompress_range"),
    WrapPoint("repro.ContainerReader.__getitem__", "reader", "reader.getitem"),
    WrapPoint("repro.api.compress_bytes", "core.compressor", "engine.compress"),
    WrapPoint("repro.api.decompress_bytes", "core.compressor", "engine.decompress"),
    WrapPoint("repro.api.decompress_range_bytes", "core.compressor", "engine.decompress_range"),
    WrapPoint("repro.reader.decompress_range_bytes", "core.compressor", "engine.decompress_range"),
    WrapPoint("repro.core.trace.TraceCollector", "core.compressor", None),
    WrapPoint("repro.core.compressor.resolve_executor", "core.executors", "executors.resolve"),
    WrapPoint("repro.core.executors.Executor", "core.executors", None),
    WrapPoint("repro.core.compressor.plan_encode", "core.plan", "plan"),
    WrapPoint("repro.core.compressor.plan_decode", "core.plan", "plan"),
    WrapPoint("repro.core.compressor.plan_for_range", "core.plan", "plan"),
    WrapPoint("repro.core.container.inspect_container", "core.container", "container.inspect"),
    WrapPoint("repro.core.container.build_container", "core.container", "container.build"),
    WrapPoint("repro.core.container.checksum_of", "core.container", "container.crc"),
    WrapPoint("repro.bitpack.backend.KernelBackend", "bitpack", None),
    WrapPoint("repro.bitpack.backend.KERNEL_NAMES", "bitpack", None),
    WrapPoint("repro.bitpack.backend.active_backend", "bitpack", None),
    WrapPoint("repro.bitpack.backend.register_backend", "bitpack", None),
    WrapPoint("repro.bitpack.backend.use_backend", "bitpack", None),
    WrapPoint("repro.service.client.ServiceClient.compress", "service", "service.compress"),
    WrapPoint("repro.service.client.ServiceClient.decompress", "service", "service.decompress"),
)

#: Kernel and stage names the per-layer metrics are reported for.
KERNELS = (
    "pack_lanes", "unpack_lanes", "count_leading_zeros", "leading_common_bits",
    "bit_transpose", "bit_untranspose", "eliminated_counts_rows", "choose_k_rows",
)
STAGES = ("diffms", "bit", "rze", "raze", "rare", "fcm")


def _per_layer_table() -> tuple[tuple[str, str, str, str], ...]:
    """``(name, unit, better, layer)`` of every per-layer metric."""
    rows = []
    for k in KERNELS:
        rows += [(f"bitpack.{k}.calls", "count", "lower", "bitpack"),
                 (f"bitpack.{k}.busy_s", "s", "lower", "bitpack"),
                 (f"bitpack.{k}.bytes_in", "B", "lower", "bitpack")]
    for s in STAGES:
        rows += [(f"stages.{s}.enc_s", "s", "lower", "stages"),
                 (f"stages.{s}.dec_s", "s", "lower", "stages"),
                 (f"stages.{s}.out_bytes", "B", "lower", "stages")]
    rows += [
        ("engine.chunks", "count", "lower", "core.compressor"),
        ("engine.chunk_busy_s", "s", "lower", "core.compressor"),
        ("engine.batched_frac", "frac", "higher", "core.compressor"),
        ("engine.raw_frac", "frac", "lower", "core.compressor"),
        ("executors.runs", "count", "lower", "core.executors"),
        ("executors.jobs", "count", "lower", "core.executors"),
        ("executors.busy_s", "s", "lower", "core.executors"),
        ("executors.wall_s", "s", "lower", "core.executors"),
        ("executors.efficiency", "frac", "higher", "core.executors"),
    ]
    for part in ("inspect", "build", "crc"):
        rows += [(f"container.{part}.calls", "count", "lower", "core.container"),
                 (f"container.{part}.busy_s", "s", "lower", "core.container")]
    rows += [
        ("container.crc.bytes", "B", "lower", "core.container"),
        ("plan.calls", "count", "lower", "core.plan"),
        ("plan.busy_s", "s", "lower", "core.plan"),
        ("reader.getitem.self_s", "s", "lower", "reader"),
        ("api.self_s", "s", "lower", "api"),
        ("service.compress.rtt_p50_ms", "ms", "lower", "service"),
        ("service.decompress.rtt_p50_ms", "ms", "lower", "service"),
        ("service.engine_p50_ms", "ms", "lower", "service"),
        ("service.overhead_p50_ms", "ms", "lower", "service"),
        ("service.server_cpu_ms_per_req", "ms", "lower", "service"),
        ("service.busy_rejections", "count", "lower", "service"),
        ("service.protocol_errors", "count", "lower", "service"),
        ("service.bytes_in", "B", "lower", "service"),
        ("service.bytes_out", "B", "lower", "service"),
        ("loadgen.late_p99_ms", "ms", "lower", "service"),
        ("op_tail_ms", "ms", "lower", "end-to-end"),
        ("trace.overhead_frac", "frac", "lower", "trace"),
        ("trace.coverage", "frac", "higher", "trace"),
    ]
    return tuple(rows)


#: The per-layer metrics, in report order (``BENCHMARK.json`` lists the same).
PER_LAYER = _per_layer_table()


class Span(NamedTuple):
    sid: int
    parent: int | None
    name: str
    layer: str
    start: float
    end: float
    rid: object
    thread: int


def resolve(target: str):
    """``(owner, attribute, value)`` for a dotted name, or ``None`` if it is gone."""
    parts = target.split(".")
    for cut in range(len(parts) - 1, 0, -1):
        try:
            owner = importlib.import_module(".".join(parts[:cut]))
        except ImportError:
            continue
        try:
            for part in parts[cut:-1]:
                owner = getattr(owner, part)
            return owner, parts[-1], getattr(owner, parts[-1])
        except AttributeError:
            return None
    return None


def _union_length(intervals, lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    total = 0.0
    cur_a = cur_b = None
    for a, b in sorted((max(a, lo), min(b, hi)) for a, b in intervals):
        if a >= b:
            continue
        if cur_b is None or a > cur_b:
            if cur_b is not None:
                total += cur_b - cur_a
            cur_a, cur_b = a, b
        else:
            cur_b = max(cur_b, b)
    if cur_b is not None:
        total += cur_b - cur_a
    return total


def self_times(spans) -> dict[int, float]:
    """Each span's duration minus the part of it its children cover."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append((s.start, s.end))
    return {
        s.sid: (s.end - s.start) - _union_length(children.get(s.sid, ()), s.start, s.end)
        for s in spans
    }


def _nbytes(obj) -> int:
    size = getattr(obj, "nbytes", None)
    return int(size) if size is not None else len(obj)


class Tracer:
    """Records spans and counters for one traced run."""

    def __init__(self, clock=time.perf_counter) -> None:
        self.clock = clock
        self.t0 = clock()
        self.spans: list[Span] = []
        self.counters: dict[str, float] = defaultdict(float)
        self.absent: set[str] = set()
        self.notices: list[str] = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self._ids = itertools.count(1)

    # -- span recording ---------------------------------------------------

    def _state(self):
        local = self._local
        if not hasattr(local, "stack"):
            local.stack, local.base, local.rid = [], None, None
        return local

    def adopt(self, parent: int | None, rid: object) -> None:
        """Parent this thread's next root spans under a span of another
        thread (an executor worker under the run that spawned it)."""
        local = self._state()
        if not local.stack:
            local.base, local.rid = parent, rid

    @contextmanager
    def request(self, rid: object):
        """Tag every span opened inside with request id ``rid``."""
        local = self._state()
        previous, local.rid = local.rid, rid
        try:
            yield
        finally:
            local.rid = previous

    @contextmanager
    def span(self, name: str, layer: str):
        """Record one span around the block; yields its id."""
        local = self._state()
        parent = local.stack[-1] if local.stack else local.base
        sid = next(self._ids)
        local.stack.append(sid)
        start = self.clock()
        try:
            yield sid
        finally:
            end = self.clock()
            local.stack.pop()
            self.spans.append(Span(sid, parent, name, layer, start, end,
                                   local.rid, threading.get_ident()))

    def wrap(self, fn, name: str, layer: str, count_bytes: str | None = None):
        """``fn`` recording one span per call; ``count_bytes`` names a
        counter that adds the size of the first argument."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if count_bytes is not None and args:
                self.add(count_bytes, _nbytes(args[0]))
            with self.span(name, layer):
                return fn(*args, **kwargs)

        return traced

    def add(self, counter: str, amount: float) -> None:
        with self._lock:
            self.counters[counter] += amount

    def notice(self, text: str) -> None:
        self.notices.append(text)
        print(f"trace: {text}", file=sys.stderr)

    # -- installing the hooks ----------------------------------------------

    @contextmanager
    def installed(self):
        """Patch every wrap point for the duration of the block."""
        found = {}
        for wp in WRAP_POINTS:
            hit = resolve(wp.target)
            if hit is None:
                if wp.layer not in self.absent:
                    self.notice(f"wrap point {wp.target} not found; layer {wp.layer} is absent")
                self.absent.add(wp.layer)
            else:
                found[wp.target] = hit
        with ExitStack() as stack:
            for wp in WRAP_POINTS:
                if wp.span is None or wp.layer in self.absent:
                    continue
                owner, attr, fn = found[wp.target]
                if wp.span.startswith("engine."):
                    replacement = self._engine_hook(fn, wp, found)
                elif wp.span == "executors.resolve":
                    replacement = self._executor_hook(fn, found)
                else:
                    replacement = self.wrap(
                        fn, wp.span, wp.layer,
                        "container.crc.bytes" if wp.span == "container.crc" else None,
                    )
                if replacement is not None:
                    stack.enter_context(_patched(owner, attr, replacement))
            if "bitpack" not in self.absent:
                stack.enter_context(self._kernel_hook(found))
            yield self

    def _engine_hook(self, fn, wp: WrapPoint, found):
        if "trace" not in inspect.signature(fn).parameters:
            self.notice(f"{wp.target} takes no trace= argument; layer {wp.layer} is absent")
            self.absent.add(wp.layer)
            return None
        collector_type = found["repro.core.trace.TraceCollector"][2]
        traced = self.wrap(fn, wp.span, wp.layer)
        encode = wp.span == "engine.compress"

        @functools.wraps(fn)
        def hook(*args, **kwargs):
            collector = kwargs.get("trace")
            if collector is None:
                collector = kwargs["trace"] = collector_type()
            try:
                return traced(*args, **kwargs)
            finally:
                self._harvest(collector, encode)

        return hook

    def _harvest(self, collector, encode: bool) -> None:
        """Fold one engine call's TraceCollector into the counters."""
        if "core.compressor" in self.absent:
            return
        try:
            events = []
            chunks = collector.chunks
            for chunk in chunks:
                if not chunk.batched:
                    events.extend(chunk.stages)
            for batch in collector.batches:
                events.extend(batch.stages)
            if collector.global_stage is not None:
                events.append(collector.global_stage)
            direction = "enc_s" if encode else "dec_s"
            with self._lock:
                c = self.counters
                for chunk in chunks:
                    c["engine.chunks"] += 1
                    c["engine.chunk_busy_s"] += chunk.seconds
                    c["engine.batched"] += bool(chunk.batched)
                    if encode:
                        c["engine.encoded"] += 1
                        c["engine.raw"] += bool(chunk.raw_fallback)
                for ev in events:
                    c[f"stages.{ev.stage}.{direction}"] += ev.seconds
                    c[f"stages.{ev.stage}.out_bytes"] += ev.out_bytes
        except AttributeError as exc:
            self.notice(f"TraceCollector layout changed ({exc}); layer core.compressor is absent")
            self.absent.add("core.compressor")

    def _executor_hook(self, resolve_executor, found):
        base = found["repro.core.executors.Executor"][2]
        tracer = self

        class TracedExecutor(base):
            """Times each run and each job of the executor it wraps."""

            def __init__(self, inner) -> None:
                self.inner = inner
                self.workers = inner.workers
                self.policy = inner.policy

            def run(self, n_jobs, make_worker):
                start = tracer.clock()
                with tracer.span("executors.run", "core.executors") as run_sid:
                    rid = tracer._state().rid

                    def traced_make_worker(worker_id):
                        tracer.adopt(run_sid, rid)
                        return tracer.wrap(make_worker(worker_id), "executors.job",
                                           "core.executors")

                    try:
                        return self.inner.run(n_jobs, traced_make_worker)
                    finally:
                        slots = min(self.workers, max(n_jobs, 1))
                        tracer.add("executors.slot_s", (tracer.clock() - start) * slots)

        @functools.wraps(resolve_executor)
        def hook(executor, workers):
            engine = resolve_executor(executor, workers)
            if getattr(engine, "kind", None) == "process" or isinstance(engine, TracedExecutor):
                return engine
            return TracedExecutor(engine)

        return hook

    @contextmanager
    def _kernel_hook(self, found):
        backend = found["repro.bitpack.backend.KernelBackend"][0]
        active = backend.active_backend()
        kernels = {
            name: self.wrap(active.resolved[name], f"bitpack.{name}", "bitpack",
                            f"bitpack.{name}.bytes_in")
            for name in backend.KERNEL_NAMES
        }
        backend.register_backend(backend.KernelBackend(
            name="bench-timed", kernels=kernels, version=active.name,
            auto=False, priority=-1,
        ))
        with backend.use_backend("bench-timed"):
            yield

    # -- results -----------------------------------------------------------

    def total_self_s(self) -> float:
        return sum(self_times(self.spans).values())

    def layer_metrics(self, extra: dict[str, float]) -> tuple[dict[str, float], list[str]]:
        """Every :data:`PER_LAYER` value, and the names reported absent.

        ``extra`` supplies the metrics the workload measures itself
        (service latencies, tracing overhead and coverage).
        """
        durations: dict[str, list[float]] = defaultdict(list)
        for s in self.spans:
            durations[s.name].append(s.end - s.start)
        selfs = self_times(self.spans)
        self_by_name: dict[str, float] = defaultdict(float)
        for s in self.spans:
            self_by_name[s.name] += selfs[s.sid]
        c = self.counters

        def frac(a: float, b: float) -> float:
            return a / b if b else 0.0

        def p50_ms(name: str) -> float:
            values = sorted(durations.get(name, ()))
            return 1000.0 * values[(len(values) - 1) // 2] if values else 0.0

        values: dict[str, float] = {}
        for k in KERNELS:
            values[f"bitpack.{k}.calls"] = len(durations[f"bitpack.{k}"])
            values[f"bitpack.{k}.busy_s"] = sum(durations[f"bitpack.{k}"])
            values[f"bitpack.{k}.bytes_in"] = c[f"bitpack.{k}.bytes_in"]
        for s in STAGES:
            for part in ("enc_s", "dec_s", "out_bytes"):
                values[f"stages.{s}.{part}"] = c[f"stages.{s}.{part}"]
        values["engine.chunks"] = c["engine.chunks"]
        values["engine.chunk_busy_s"] = c["engine.chunk_busy_s"]
        values["engine.batched_frac"] = frac(c["engine.batched"], c["engine.chunks"])
        values["engine.raw_frac"] = frac(c["engine.raw"], c["engine.encoded"])
        values["executors.runs"] = len(durations["executors.run"])
        values["executors.jobs"] = len(durations["executors.job"])
        values["executors.busy_s"] = sum(durations["executors.job"])
        values["executors.wall_s"] = sum(durations["executors.run"])
        values["executors.efficiency"] = frac(values["executors.busy_s"], c["executors.slot_s"])
        for part in ("inspect", "build", "crc"):
            values[f"container.{part}.calls"] = len(durations[f"container.{part}"])
            values[f"container.{part}.busy_s"] = sum(durations[f"container.{part}"])
        values["container.crc.bytes"] = c["container.crc.bytes"]
        values["plan.calls"] = len(durations["plan"])
        values["plan.busy_s"] = sum(durations["plan"])
        values["reader.getitem.self_s"] = self_by_name["reader.getitem"]
        values["api.self_s"] = sum(v for k, v in self_by_name.items() if k.startswith("api."))
        values["service.compress.rtt_p50_ms"] = p50_ms("service.compress")
        values["service.decompress.rtt_p50_ms"] = p50_ms("service.decompress")
        absent = []
        for name, _unit, _better, layer in PER_LAYER:
            if name not in values:
                values[name] = float(extra.get(name, 0.0))
            # Stage timings come from the collector the engine hook attaches.
            if layer == "stages" and "core.compressor" in self.absent:
                layer = "core.compressor"
            if layer in self.absent:
                values[name] = 0.0
                absent.append(name)
        return values, absent

    def write(self, path, meta: dict) -> None:
        """Write every span, with ``meta``, as one JSON document."""
        doc = {
            **meta,
            "absent_layers": sorted(self.absent),
            "notices": self.notices,
            "span_fields": list(Span._fields),
            "spans": [
                [s.sid, s.parent, s.name, s.layer, s.start - self.t0, s.end - self.t0,
                 s.rid, s.thread]
                for s in self.spans
            ],
        }
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(doc))


@contextmanager
def _patched(owner, attr: str, value):
    had_own = attr in vars(owner)
    original = vars(owner)[attr] if had_own else None
    setattr(owner, attr, value)
    try:
        yield
    finally:
        if had_own:
            setattr(owner, attr, original)
        else:
            delattr(owner, attr)
